//! Seed units vs the reference's full re-grounding — randomized
//! equivalence under a history window, snapshot lockstep, and the
//! flatness of a growth append in `t`.
//!
//! A production growth append binds each new instantiation by copying
//! the state of its seed (the instantiation with the new element a
//! placeholder) and renaming the seed's placeholder letters; the seeds
//! catch up through the stored instants only when the context grows,
//! spilled ones included. The sweep here streams long histories under
//! a small `HistoryBudget::Window`, so elements keep arriving after the
//! instants that carry their obligations were spilled, two of them at
//! once (the `(z1, z2)` and `(z1, z1)` equality patterns of two
//! placeholders), and first-occurring tuples over known elements
//! activate pruned instantiations of the indexed constraints. Two
//! constraints reach the instantiations no seed gives, which are
//! grounded and replayed themselves. Every append must produce the
//! reference's events and statuses.

mod common;

use common::{schema, CAP, ONCE_ONLY, PAIR_GUARD, PAIR_NEXT, PAIR_ONCE};
use ticc::core::{CheckOptions, ConstraintId, Engine, HistoryBudget, Status};
use ticc::fotl::parser::parse;
use ticc::fotl::Formula;
use ticc::tdb::rng::Rng;
use ticc::tdb::{Schema, Transaction, Value};

/// FIFO with `Rep(v, v)` as the fill of `v`: under the odometer (it
/// has an equality), and an instantiation `(x, y)` owes "y is not
/// filled before x" from the instant `Sub(x)` held, so a seed `(a, z)`
/// must read `a`'s letters while it catches up.
const FIFO: &str = "forall x y. G !(x != y & Sub(x) & ((!Rep(x, x)) U \
                    (Sub(y) & ((!Rep(x, x)) U (Rep(y, y) & !Rep(x, x))))))";
/// Indexed, and `(a, n)` owes `G !Rep(a, n)` from the instant `Sub(a)`
/// held: its seed is the one with `a` kept, spawned when `a` arrived
/// (or built on first need if `a` was known before the first growth).
const SUB_THEN_NO_REP: &str = "forall x y. G (Sub(x) -> X G !Rep(x, y))";
/// Indexed; `x = 12` renames its seed's `Sub(z)` onto the matrix's own
/// `Sub(12)`, so no seed gives it and it is grounded and replayed.
const NOT_AFTER_12: &str = "forall x. G (Sub(x) -> X !Sub(12))";
/// Indexed on the constant-only pattern `Sub(13)`: its first
/// occurrence activates every instantiation, the all-`z` one too,
/// which has no element to stand a placeholder for.
const AFTER_13: &str = "forall x. G (Sub(13) -> X !Rep(x, x))";

fn phis(sc: &Schema) -> Vec<Formula> {
    [
        ONCE_ONLY,
        PAIR_ONCE,
        CAP,
        PAIR_GUARD,
        PAIR_NEXT,
        FIFO,
        SUB_THEN_NO_REP,
        NOT_AFTER_12,
        AFTER_13,
    ]
    .iter()
    .map(|src| parse(sc, src).unwrap())
    .collect()
}

fn register(e: &mut Engine, phis: &[Formula]) -> Vec<ConstraintId> {
    phis.iter()
        .enumerate()
        .map(|(i, phi)| e.add_constraint(format!("c{i}"), phi.clone()).unwrap())
        .collect()
}

/// A long-lived workload over `Sub/1` and `Rep/2`: present facts are
/// retracted at random, new elements keep arriving (one or two per
/// transaction, through `Sub` or `Rep`), known elements gain tuples
/// they never had, and a rare re-submission violates a constraint.
struct Driver {
    seen: Vec<Value>,
    subbed: Vec<Value>,
    reps: Vec<(Value, Value)>,
    sub_present: Vec<Value>,
    rep_present: Vec<(Value, Value)>,
    next: Value,
}

impl Driver {
    fn new() -> Self {
        Driver {
            seen: Vec::new(),
            subbed: Vec::new(),
            reps: Vec::new(),
            sub_present: Vec::new(),
            rep_present: Vec::new(),
            next: 10,
        }
    }

    fn fresh(&mut self) -> Value {
        self.next += 1;
        self.seen.push(self.next);
        self.next
    }

    fn old(&self, rng: &mut Rng) -> Value {
        self.seen[rng.gen_range_usize(0..self.seen.len())]
    }

    fn sub(&mut self, tx: Transaction, sub: ticc::tdb::PredId, v: Value) -> Transaction {
        self.subbed.push(v);
        self.sub_present.push(v);
        tx.insert(sub, vec![v])
    }

    fn rep(&mut self, tx: Transaction, rep: ticc::tdb::PredId, a: Value, b: Value) -> Transaction {
        self.reps.push((a, b));
        self.rep_present.push((a, b));
        tx.insert(rep, vec![a, b])
    }

    fn step(&mut self, sc: &Schema, rng: &mut Rng) -> Transaction {
        let (sub, rep) = (sc.pred("Sub").unwrap(), sc.pred("Rep").unwrap());
        let mut tx = Transaction::new();
        for v in std::mem::take(&mut self.sub_present) {
            if rng.gen_bool(0.6) {
                tx = tx.delete(sub, vec![v]);
            } else {
                self.sub_present.push(v);
            }
        }
        for (a, b) in std::mem::take(&mut self.rep_present) {
            if rng.gen_bool(0.6) {
                tx = tx.delete(rep, vec![a, b]);
            } else {
                self.rep_present.push((a, b));
            }
        }
        if self.seen.len() < 2 || self.seen.len() < 10 && rng.gen_bool(0.3) {
            // New elements: one through Sub, one or two through Rep.
            match rng.gen_range_usize(0..4) {
                0 => {
                    let n = self.fresh();
                    tx = self.sub(tx, sub, n);
                }
                1 => {
                    let (a, b) = (self.fresh(), self.fresh());
                    tx = self.rep(tx, rep, a, b);
                }
                2 => {
                    let (n, o) = (self.fresh(), self.old(rng));
                    tx = if rng.gen_bool(0.5) {
                        self.rep(tx, rep, n, o)
                    } else {
                        self.rep(tx, rep, o, n)
                    };
                }
                _ => {
                    let n = self.fresh();
                    tx = self.rep(tx, rep, n, n);
                }
            }
        } else if rng.gen_bool(0.5) {
            // A known element gains a tuple it never had: an activation
            // for the indexed constraints.
            let (a, b) = (self.old(rng), self.old(rng));
            if !self.subbed.contains(&a) && rng.gen_bool(0.5) {
                tx = self.sub(tx, sub, a);
            } else if !self.reps.contains(&(a, b)) {
                tx = self.rep(tx, rep, a, b);
            }
        } else if rng.gen_bool(0.04) {
            // A re-submission: violates the once-only constraints.
            let v = self.old(rng);
            tx = tx.insert(sub, vec![v]);
        }
        tx
    }
}

#[test]
fn seeds_match_reference_under_a_window_across_120_seeds() {
    let sc = schema();
    let phis = phis(&sc);
    let (mut late_arrivals, mut late_pairs, mut activations) = (0u64, 0u64, 0u64);
    let (mut seedless_12, mut seedless_13) = (0, 0);
    let mut violating_runs = 0;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x5eed ^ seed);
        let window = 1 + seed as usize % 3;
        let opts = CheckOptions::builder()
            .history_budget(HistoryBudget::Window(window))
            .build();
        let mut prod = Engine::new(sc.clone(), opts);
        let mut reference = Engine::new(sc.clone(), CheckOptions::reference());
        let ids = register(&mut prod, &phis);
        register(&mut reference, &phis);
        let mut drv = Driver::new();
        let mut events = 0;
        for step in 0..rng.gen_range_usize(25..40) {
            let seen = drv.seen.len();
            let tx = drv.step(&sc, &mut rng);
            let arrived = drv.seen.len() - seen;
            let spilled = prod.history().base() > 0;
            let live = ids.iter().any(|&id| prod.status(id) == Status::Satisfied);
            let before = prod.stats();
            let ev = prod.append(&tx).unwrap();
            assert_eq!(
                ev,
                reference.append(&tx).unwrap(),
                "seed {seed} step {step}: events"
            );
            events += ev.len();
            for &id in &ids {
                assert_eq!(
                    prod.status(id),
                    reference.status(id),
                    "seed {seed} step {step}: status of {id:?}"
                );
            }
            let after = prod.stats();
            if spilled && live && arrived > 0 && after.new_conjuncts > before.new_conjuncts {
                late_arrivals += 1;
                late_pairs += (arrived == 2) as u64;
            }
            if after.delta_grounds == before.delta_grounds
                && after.new_conjuncts > before.new_conjuncts
            {
                activations += 1;
            }
        }
        assert!(
            prod.history().base() > 0,
            "seed {seed}: the window must truncate"
        );
        assert_eq!(prod.stats().progress_steps, 0, "seed {seed}");
        // `ids[7]` is NOT_AFTER_12's, `ids[8]` AFTER_13's.
        seedless_12 += prod.seedless_binds(ids[7]);
        seedless_13 += prod.seedless_binds(ids[8]);
        violating_runs += (events > 0) as usize;
    }
    // The sweep must exercise what it is about.
    assert!(late_arrivals >= 250, "only {late_arrivals} late arrivals");
    assert!(late_pairs >= 60, "only {late_pairs} late pair arrivals");
    assert!(activations >= 180, "only {activations} activations");
    // Instantiations no seed gives: renamed letters that coincide
    // (`x = 12`), and the all-`z` one (the constant-only patterns).
    assert!(seedless_12 >= 100, "only {seedless_12} seedless binds");
    assert!(seedless_13 >= 40, "only {seedless_13} seedless binds");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

/// A snapshot taken mid-run restores without its seeds; the restored
/// engine rebuilds them on its first growth, through grounding and
/// replay over the stored prefix (spilled instants included under a
/// window), and stays in lockstep with the engine it was taken from.
#[test]
fn restored_engines_rebuild_their_seeds_in_lockstep() {
    let sc = schema();
    let phis = phis(&sc);
    for budget in [HistoryBudget::Unbounded, HistoryBudget::Window(2)] {
        let opts = CheckOptions::builder().history_budget(budget).build();
        let mut growths_after_restore = 0;
        for seed in 0..30u64 {
            let mut rng = Rng::seed_from_u64(0x5a5e ^ seed);
            let mut live = Engine::new(sc.clone(), opts);
            let ids = register(&mut live, &phis);
            let mut drv = Driver::new();
            for _ in 0..rng.gen_range_usize(10..20) {
                live.append(&drv.step(&sc, &mut rng)).unwrap();
            }
            let (mut back, _) = Engine::restore_bytes(&live.snapshot_bytes(&[]), opts).unwrap();
            for step in 0..20 {
                let tx = drv.step(&sc, &mut rng);
                let grew = live.stats().delta_grounds;
                let ev = live.append(&tx).unwrap();
                assert_eq!(
                    ev,
                    back.append(&tx).unwrap(),
                    "{budget:?} seed {seed} step {step}: restored engine diverges"
                );
                for &id in &ids {
                    assert_eq!(live.status(id), back.status(id));
                }
                growths_after_restore += (live.stats().delta_grounds > grew) as u64;
            }
            assert_eq!(live.history().base(), back.history().base());
            assert_eq!(
                live.stats().delta_grounds,
                back.stats().delta_grounds,
                "{budget:?} seed {seed}"
            );
            assert_eq!(live.stats().new_conjuncts, back.stats().new_conjuncts);
        }
        assert!(
            growths_after_restore >= 35,
            "{budget:?}: only {growths_after_restore} growths after a restore"
        );
    }
}

/// A growth append's seed work is flat in `t`: the once-only
/// constraint has one seed, `ψ[z]`, so each growth advances it over
/// the instants since the previous growth — `replay_steps` grows by
/// exactly that many — whether the history is 200 instants long or
/// 2000. A new id arrives every tenth append.
#[test]
fn growth_appends_replay_seeds_flat_in_t() {
    let sc = schema();
    let sub = sc.pred("Sub").unwrap();
    let mut e = Engine::new(sc.clone(), CheckOptions::default());
    e.add_constraint("once", parse(&sc, ONCE_ONLY).unwrap())
        .unwrap();
    let mut replayed_at = Vec::new();
    let mut prev_growth = None;
    for t in 0..2010u64 {
        let mut tx = Transaction::new();
        if t % 10 == 0 {
            tx = tx.insert(sub, vec![100 + t]);
        } else if t % 10 == 1 {
            tx = tx.delete(sub, vec![100 + t - 1]);
        }
        let before = e.stats();
        assert!(e.append(&tx).unwrap().is_empty());
        let after = e.stats();
        if after.delta_grounds > before.delta_grounds {
            if let Some(p) = prev_growth {
                let steps = after.replay_steps - before.replay_steps;
                assert_eq!(steps, t - p, "t = {t}: one seed × instants since growth");
                replayed_at.push((t, steps));
            }
            prev_growth = Some(t);
        }
    }
    let at = |t: u64| replayed_at.iter().find(|r| r.0 == t).unwrap().1;
    assert_eq!(at(200), at(2000));
    assert_eq!(at(2000), 10);
    let s = e.stats();
    assert_eq!(s.delta_grounds, 201);
    assert_eq!(s.new_conjuncts, 201, "one instantiation per id at k = 1");
    assert_eq!(s.progress_steps, 0);
}

/// Under the indexed strategy a plan whose pattern leaves a variable
/// open (`Sub(x)` leaves `y`) asks for seeds over old elements: each
/// new `n` joins every old `a` with `Sub(a)` as `(a, n)`, from the seed
/// `(a, z)`. Those seeds are spawned by renaming when `a` arrives and
/// caught up over the instants since the previous growth, which the
/// window keeps resident, so no growth replays a seed over the spilled
/// prefix: the pager never loads a page. Each growth's seed work
/// exceeds the previous one's by the two seeds the previous element
/// brought, `(n, z)` and `(z, n)`, over the ten instants between
/// growths, at t ≈ 100 as at t ≈ 1000.
#[test]
fn indexed_growths_spawn_the_seeds_old_elements_need() {
    let sc = schema();
    let sub = sc.pred("Sub").unwrap();
    let opts = CheckOptions::builder()
        .history_budget(HistoryBudget::Window(16))
        .build();
    let mut e = Engine::new(sc.clone(), opts);
    e.add_constraint("c", parse(&sc, SUB_THEN_NO_REP).unwrap())
        .unwrap();
    let mut seed_work = Vec::new();
    for t in 0..1000u64 {
        let mut tx = Transaction::new();
        if t % 10 == 0 {
            tx = tx.insert(sub, vec![100 + t]);
        } else if t % 10 == 1 {
            tx = tx.delete(sub, vec![100 + t - 1]);
        }
        let before = e.stats();
        assert!(e.append(&tx).unwrap().is_empty());
        let after = e.stats();
        if after.delta_grounds > before.delta_grounds {
            seed_work.push(after.replay_steps - before.replay_steps);
        }
    }
    let s = e.stats();
    assert!(e.history().base() > 900, "the window must truncate");
    assert_eq!(
        s.history.page_loads, 0,
        "no seed replays the spilled prefix"
    );
    assert_eq!(seed_work.len(), 100);
    for (i, w) in seed_work.windows(2).enumerate().skip(1) {
        assert_eq!(w[1] - w[0], 2 * 10, "growth {}: {seed_work:?}", i + 1);
    }
    assert_eq!(s.progress_steps, 0);
}
