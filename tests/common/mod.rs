//! Shared workload of the randomized equivalence suites: the schema,
//! the five constraints they monitor, a staggered transaction driver,
//! and the production-vs-reference sweep loops built on them. Each
//! suite compiles this module separately and uses a subset of it.
#![allow(dead_code)]

use std::ops::Range;
use std::sync::Arc;
use ticc::core::{
    earliest_violation, Action, CheckOptions, ConstraintId, Engine, Status, Trigger, TriggerEngine,
};
use ticc::fotl::parser::parse;
use ticc::tdb::rng::Rng;
use ticc::tdb::{History, Schema, Transaction, Value};

/// k = 1: the paper's once-only constraint.
pub const ONCE_ONLY: &str = "forall x. G (Sub(x) -> X G !Sub(x))";
/// k = 2: once-only per pair — the instantiation space is `|M|^2`, and
/// the occurrence index holds actual pairs only, so pruning engages.
pub const PAIR_ONCE: &str = "forall x y. G (Rep(x, y) -> X G !Rep(x, y))";
/// k = 0: never violated here (elements stay far below 999), so at
/// least one constraint stays live all session — its residue reaches
/// the steady state the template edge memo and the dormant automaton
/// units exist for. Outside the indexed gate (no external
/// quantifiers), so it also exercises the odometer fallback inline.
pub const CAP: &str = "G !Sub(999)";
/// k = 2 over shared letters: the instances (x, y) and (x, y') both
/// read `Sub(x)`, so their compiled units overlap.
pub const PAIR_GUARD: &str = "forall x y. G (Rep(x, y) -> X G !Sub(x))";
/// k = 2 over shared letters, with a pending obligation: after
/// `Rep(x, y)` a unit owes `Sub(x) | Sub(y)` at the next instant, which
/// `∅^ω` fails, so the compiled path runs its joint phase-2 test.
pub const PAIR_NEXT: &str = "forall x y. G ((Rep(x, y) & x != y) -> X (Sub(x) | Sub(y)))";

pub fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Rep", 2).build()
}

/// Random staggered workload: fresh elements arrive mid-stream,
/// present facts may be deleted, old elements may be re-submitted.
/// Every engine under comparison sees the identical transaction.
pub struct Driver {
    seen: Vec<Value>,
    sub_present: Vec<Value>,
    rep_present: Vec<(Value, Value)>,
    next_fresh: Value,
    max_elements: usize,
    /// Chance that a pick introduces a fresh element while fewer than
    /// `max_elements` have been seen.
    fresh: f64,
}

impl Driver {
    pub fn new(max_elements: usize, fresh: f64) -> Self {
        Driver {
            seen: Vec::new(),
            sub_present: Vec::new(),
            rep_present: Vec::new(),
            next_fresh: 10,
            max_elements,
            fresh,
        }
    }

    fn pick(&mut self, rng: &mut Rng) -> Value {
        if self.seen.is_empty() || (self.seen.len() < self.max_elements && rng.gen_bool(self.fresh))
        {
            let v = self.next_fresh;
            self.next_fresh += 1;
            self.seen.push(v);
            v
        } else {
            self.seen[rng.gen_range_usize(0..self.seen.len())]
        }
    }

    pub fn step(&mut self, sc: &Schema, rng: &mut Rng) -> Transaction {
        let sub = sc.pred("Sub").unwrap();
        let rep = sc.pred("Rep").unwrap();
        let mut tx = Transaction::new();
        self.sub_present.retain(|&v| {
            if rng.gen_bool(0.4) {
                tx = std::mem::take(&mut tx).delete(sub, vec![v]);
                false
            } else {
                true
            }
        });
        self.rep_present.retain(|&(a, b)| {
            if rng.gen_bool(0.4) {
                tx = std::mem::take(&mut tx).delete(rep, vec![a, b]);
                false
            } else {
                true
            }
        });
        for _ in 0..rng.gen_range_usize(0..3) {
            let v = self.pick(rng);
            tx = std::mem::take(&mut tx).insert(sub, vec![v]);
            if !self.sub_present.contains(&v) {
                self.sub_present.push(v);
            }
        }
        for _ in 0..rng.gen_range_usize(0..2) {
            let a = self.pick(rng);
            let b = self.pick(rng);
            tx = std::mem::take(&mut tx).insert(rep, vec![a, b]);
            if !self.rep_present.contains(&(a, b)) {
                self.rep_present.push((a, b));
            }
        }
        tx
    }
}

/// Sweeps 120 randomized staggered sessions (salted by `salt`) through
/// one engine per entry of `configs`, each monitoring [`ONCE_ONLY`],
/// [`PAIR_ONCE`], [`CAP`], [`PAIR_GUARD`] and [`PAIR_NEXT`] and fed
/// identical transactions from a `Driver::new(max_elements, fresh)`
/// for a random number of `steps`.
/// Asserts that every engine reproduces `configs[0]`'s event stream and
/// statuses on every append, and its earliest-violation instants at
/// the end of the session; `check(seed, engines, ids)` then inspects
/// the finished engines. Returns the number of sessions that violated.
pub fn sweep(
    salt: u64,
    configs: &[CheckOptions],
    max_elements: usize,
    fresh: f64,
    steps: Range<usize>,
    mut check: impl FnMut(u64, &[Engine], &[ConstraintId]),
) -> usize {
    let sc = schema();
    let phis = [
        parse(&sc, ONCE_ONLY).unwrap(),
        parse(&sc, PAIR_ONCE).unwrap(),
        parse(&sc, CAP).unwrap(),
        parse(&sc, PAIR_GUARD).unwrap(),
        parse(&sc, PAIR_NEXT).unwrap(),
    ];
    let mut violating_runs = 0;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(salt ^ seed);
        let mut engines: Vec<Engine> = configs
            .iter()
            .map(|opts| Engine::new(sc.clone(), *opts))
            .collect();
        let mut ids: Vec<ConstraintId> = Vec::new();
        for (i, phi) in phis.iter().enumerate() {
            let id = engines[0]
                .add_constraint(format!("c{i}"), phi.clone())
                .unwrap();
            for e in &mut engines[1..] {
                assert_eq!(e.add_constraint(format!("c{i}"), phi.clone()).unwrap(), id);
            }
            ids.push(id);
        }

        let mut drv = Driver::new(max_elements, fresh);
        let mut events = 0usize;
        for step in 0..rng.gen_range_usize(steps.clone()) {
            let tx = drv.step(&sc, &mut rng);
            let evs: Vec<_> = engines.iter_mut().map(|e| e.append(&tx).unwrap()).collect();
            for (c, ev) in evs.iter().enumerate().skip(1) {
                assert_eq!(&evs[0], ev, "seed {seed} step {step}: config {c} events");
            }
            events += evs[0].len();
            for id in &ids {
                for (c, e) in engines.iter().enumerate().skip(1) {
                    assert_eq!(
                        engines[0].status(*id),
                        e.status(*id),
                        "seed {seed} step {step}: config {c} status"
                    );
                }
            }
        }
        if events > 0 {
            violating_runs += 1;
        }

        for phi in &phis {
            let at: Vec<_> = engines
                .iter()
                .map(|e| earliest_violation(e.history(), phi).unwrap())
                .collect();
            for (c, a) in at.iter().enumerate().skip(1) {
                assert_eq!(&at[0], a, "seed {seed}: config {c} earliest violation");
            }
        }
        check(seed, &engines, &ids);
    }
    violating_runs
}

/// The constraint-steps `e` took for `ids`, all registered before the
/// first append: every append for a satisfied constraint, and the
/// appends up to its violation for a violated one (violated
/// constraints are not stepped further).
pub fn constraint_steps(e: &Engine, ids: &[ConstraintId]) -> u64 {
    ids.iter()
        .map(|&id| match e.status(id) {
            Status::Satisfied => e.stats().appends,
            Status::Violated { at } => at as u64,
        })
        .sum()
}

/// Evaluates two quantifier-free triggers after each of four random
/// appends, over 25 histories (salted by `salt`), under `opts` and
/// under the reference, asserting identical firings and identical
/// grounding and phase-2 counts.
pub fn triggers_agree_with_reference(salt: u64, opts: CheckOptions) {
    let sc = schema();
    let triggers = |opts: CheckOptions| {
        let mut t = TriggerEngine::new(opts);
        for (i, cond) in ["F (Sub(x) & X F Sub(x))", "F Rep(x, y)"]
            .iter()
            .enumerate()
        {
            t.add(Trigger {
                name: format!("t{i}"),
                condition: parse(&sc, cond).unwrap(),
                action: Action::Log,
            })
            .unwrap();
        }
        t
    };
    for seed in 0..25u64 {
        let mut rng = Rng::seed_from_u64(salt ^ seed);
        let mut prod = triggers(opts);
        let mut reference = triggers(CheckOptions::reference());
        let mut h = History::new(sc.clone());
        let mut drv = Driver::new(5, 0.3);
        for step in 0..4 {
            let tx = drv.step(&sc, &mut rng);
            h.apply(&tx).unwrap();
            assert_eq!(
                prod.evaluate(&h).unwrap(),
                reference.evaluate(&h).unwrap(),
                "seed {seed} step {step}: fired lists diverge"
            );
        }
        let (sp, sr) = (prod.stats(), reference.stats());
        assert_eq!(sp.grounds, sr.grounds, "seed {seed}");
        assert_eq!(sp.sat_checks, sr.sat_checks, "seed {seed}");
    }
}
