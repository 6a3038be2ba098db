//! Past connectives on the engine (§5's Past FOTL): the grounding
//! rewrites each past subformula into an internal letter with a
//! future-form definition, and the constraint runs on the one engine.
//!
//! * an independent oracle — per element, a search over vectors of
//!   past-subformula truth values — decides potential satisfaction of
//!   random `∀x □ψ` past constraints at every append, and
//!   `ticc_fotl::eval` bounds the violation instant;
//! * production matches the reference pipeline event for event on
//!   random universal constraints mixing past and future connectives,
//!   across window truncation, a growth burst and a snapshot restore;
//! * the native past form of perfbench's `past` constraint agrees with
//!   its hand-translated future form;
//! * the monitoring scenarios of the former standalone past monitor.

mod common;

use std::collections::{HashMap, HashSet};
use ticc::core::{CheckOptions, ConstraintId, Engine, Error, HistoryBudget, Status};
use ticc::fotl::eval::{eval, EvalOptions};
use ticc::fotl::parser::parse;
use ticc::fotl::Formula;
use ticc::tdb::rng::Rng;
use ticc::tdb::{History, Schema, Transaction, Value};

// ---------------------------------------------------------------------
// Random past formulas and the vector oracle.

/// A past formula over the unary predicates `P(x)` and `Q(x)`.
#[derive(Clone, Debug)]
enum Past {
    P,
    Q,
    Not(Box<Past>),
    And(Box<Past>, Box<Past>),
    Or(Box<Past>, Box<Past>),
    Y(Box<Past>),
    S(Box<Past>, Box<Past>),
    O(Box<Past>),
    H(Box<Past>),
}

/// A random past formula of connective nesting at most `depth`.
fn gen(rng: &mut Rng, depth: usize) -> Past {
    let atom = |rng: &mut Rng| if rng.gen_bool(0.5) { Past::P } else { Past::Q };
    if depth == 0 {
        return atom(rng);
    }
    let sub = |rng: &mut Rng| Box::new(gen(rng, depth - 1));
    match rng.gen_range_usize(0..9) {
        0 => atom(rng),
        1 => Past::Not(sub(rng)),
        2 => Past::And(sub(rng), sub(rng)),
        3 => Past::Or(sub(rng), sub(rng)),
        4 => Past::Y(sub(rng)),
        5 => Past::S(sub(rng), sub(rng)),
        6 => Past::O(sub(rng)),
        7 => Past::H(sub(rng)),
        _ => Past::Not(Box::new(Past::Y(sub(rng)))),
    }
}

fn render(f: &Past) -> String {
    match f {
        Past::P => "P(x)".into(),
        Past::Q => "Q(x)".into(),
        Past::Not(a) => format!("!({})", render(a)),
        Past::And(a, b) => format!("({}) & ({})", render(a), render(b)),
        Past::Or(a, b) => format!("({}) | ({})", render(a), render(b)),
        Past::Y(a) => format!("Y ({})", render(a)),
        Past::S(a, b) => format!("({}) S ({})", render(a), render(b)),
        Past::O(a) => format!("O ({})", render(a)),
        Past::H(a) => format!("H ({})", render(a)),
    }
}

/// The formula as a node table, children first: the vector oracle's
/// coordinates.
#[derive(Clone, Copy)]
enum Op {
    P,
    Q,
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Y(usize),
    S(usize, usize),
    O(usize),
    H(usize),
}

fn flatten(f: &Past, out: &mut Vec<Op>) -> usize {
    let op = match f {
        Past::P => Op::P,
        Past::Q => Op::Q,
        Past::Not(a) => Op::Not(flatten(a, out)),
        Past::And(a, b) => Op::And(flatten(a, out), flatten(b, out)),
        Past::Or(a, b) => Op::Or(flatten(a, out), flatten(b, out)),
        Past::Y(a) => Op::Y(flatten(a, out)),
        Past::S(a, b) => Op::S(flatten(a, out), flatten(b, out)),
        Past::O(a) => Op::O(flatten(a, out)),
        Past::H(a) => Op::H(flatten(a, out)),
    };
    out.push(op);
    out.len() - 1
}

/// Every subformula's truth at an instant whose letters are `(p, q)`,
/// given the vector of the instant before (`None` at instant 0). The
/// root is the last coordinate.
fn step(ops: &[Op], prev: Option<&[bool]>, p: bool, q: bool) -> Vec<bool> {
    let was = |i: usize| prev.is_some_and(|v| v[i]);
    let mut v: Vec<bool> = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let b = match *op {
            Op::P => p,
            Op::Q => q,
            Op::Not(a) => !v[a],
            Op::And(a, b) => v[a] && v[b],
            Op::Or(a, b) => v[a] || v[b],
            Op::Y(a) => was(a),
            Op::S(a, b) => v[b] || (v[a] && was(i)),
            Op::O(a) => v[a] || was(i),
            Op::H(a) => v[a] && (prev.is_none() || was(i)),
        };
        v.push(b);
    }
    v
}

/// Whether some infinite continuation from `cur` keeps the root true at
/// every instant after it: the greatest set of reachable root-true
/// vectors each with a successor inside it, searched over all four
/// valuations of `(p, q)` per instant.
fn has_good_future(ops: &[Op], cur: Option<&[bool]>) -> bool {
    let succ = |v: Option<&[bool]>| -> Vec<Vec<bool>> {
        [(false, false), (false, true), (true, false), (true, true)]
            .iter()
            .map(|&(p, q)| step(ops, v, p, q))
            .collect()
    };
    let mut seen: HashSet<Vec<bool>> = HashSet::new();
    let mut edges: HashMap<Vec<bool>, Vec<Vec<bool>>> = HashMap::new();
    let first = succ(cur);
    let mut todo: Vec<Vec<bool>> = first.clone();
    while let Some(v) = todo.pop() {
        if !seen.insert(v.clone()) {
            continue;
        }
        let next = succ(Some(&v));
        todo.extend(next.iter().cloned());
        edges.insert(v, next);
    }
    let root = ops.len() - 1;
    let mut alive: HashSet<Vec<bool>> = seen.into_iter().filter(|v| v[root]).collect();
    loop {
        let dead: Vec<Vec<bool>> = alive
            .iter()
            .filter(|v| !edges[*v].iter().any(|s| alive.contains(s)))
            .cloned()
            .collect();
        if dead.is_empty() {
            break;
        }
        for v in dead {
            alive.remove(&v);
        }
    }
    first.iter().any(|v| alive.contains(v))
}

/// Whether `∀x □ψ` (ψ = `ops`) is potentially satisfied by `letters`:
/// per element of `R_D` (its `(P, Q)` at each instant so far), ψ held
/// at every instant and some continuation keeps it holding. The
/// elements no state mentions are infinitely many and, states being
/// finite, a model leaves all but finitely many of them untouched up to
/// any instant; ψ being past, each must then satisfy ψ on the all-false
/// word (Theorem 4.1's `z`).
fn potentially_satisfied(ops: &[Op], letters: &[Vec<(bool, bool)>]) -> bool {
    let root = ops.len() - 1;
    let mut fresh: Option<Vec<bool>> = None;
    let mut seen_fresh = HashSet::new();
    loop {
        let v = step(ops, fresh.as_deref(), false, false);
        if !v[root] {
            return false;
        }
        if !seen_fresh.insert(v.clone()) {
            break;
        }
        fresh = Some(v);
    }
    letters.iter().all(|history| {
        let mut cur: Option<Vec<bool>> = None;
        for &(p, q) in history {
            let v = step(ops, cur.as_deref(), p, q);
            if !v[root] {
                return false;
            }
            cur = Some(v);
        }
        has_good_future(ops, cur.as_deref())
    })
}

fn pq_schema() -> std::sync::Arc<Schema> {
    Schema::builder().pred("P", 1).pred("Q", 1).build()
}

#[test]
fn engine_matches_the_vector_oracle_on_random_past_constraints() {
    let sc = pq_schema();
    let (p, q) = (sc.pred("P").unwrap(), sc.pred("Q").unwrap());
    let (mut live, mut violated) = (0, 0);
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x9a57 ^ seed);
        let psi = gen(&mut rng, 3);
        let psi = if rng.gen_bool(0.5) {
            // A guard keeps many of them live.
            Past::Or(Box::new(Past::Not(Box::new(Past::P))), Box::new(psi))
        } else {
            psi
        };
        let mut ops = Vec::new();
        flatten(&psi, &mut ops);
        let text = format!("forall x. G ({})", render(&psi));
        let phi = parse(&sc, &text).unwrap();
        let body = Formula::forall("x", parse(&sc, &render(&psi)).unwrap());
        let mut engines = [
            Engine::new(sc.clone(), CheckOptions::default()),
            Engine::new(sc.clone(), CheckOptions::reference()),
        ];
        let ids: Vec<ConstraintId> = engines
            .iter_mut()
            .map(|e| e.add_constraint("psi", phi.clone()).unwrap())
            .collect();
        let elements: Vec<Value> = (1..=4).collect();
        let mut facts: HashSet<(bool, Value)> = HashSet::new();
        let mut letters: Vec<Vec<(bool, bool)>> = Vec::new();
        let mut active: Vec<Value> = Vec::new();
        let mut expected = (!potentially_satisfied(&ops, &[])).then_some(0);
        let mut eval_bound: Option<usize> = None;
        let mut h = History::new(sc.clone());
        for n in 1..=rng.gen_range_usize(8..24) {
            let mut tx = Transaction::new();
            for &v in &elements[..rng.gen_range_usize(1..elements.len() + 1)] {
                for (is_p, pred) in [(true, p), (false, q)] {
                    if !rng.gen_bool(0.35) {
                        continue;
                    }
                    if facts.remove(&(is_p, v)) {
                        tx = tx.delete(pred, vec![v]);
                    } else {
                        facts.insert((is_p, v));
                        tx = tx.insert(pred, vec![v]);
                    }
                }
            }
            h.apply(&tx).unwrap();
            for &v in &elements {
                if !active.contains(&v)
                    && (facts.contains(&(true, v)) || facts.contains(&(false, v)))
                {
                    active.push(v);
                    letters.push(vec![(false, false); n - 1]);
                }
            }
            for (v, hist) in active.iter().zip(&mut letters) {
                hist.push((facts.contains(&(true, *v)), facts.contains(&(false, *v))));
            }
            if expected.is_none() && !potentially_satisfied(&ops, &letters) {
                expected = Some(n);
            }
            if eval_bound.is_none()
                && !eval(
                    &h,
                    &body,
                    n - 1,
                    &Default::default(),
                    &EvalOptions::default(),
                )
                .unwrap()
            {
                eval_bound = Some(n);
            }
            for (e, &id) in engines.iter_mut().zip(&ids) {
                e.append(&tx).unwrap();
                let want = expected.map_or(Status::Satisfied, |at| Status::Violated { at });
                assert_eq!(e.status(id), want, "seed {seed} append {n}: {text}");
            }
        }
        match expected {
            Some(at) => {
                violated += 1;
                // Potential satisfaction is never later than the first
                // instant at which ψ itself fails.
                assert!(eval_bound.is_none_or(|b| at <= b), "seed {seed}: {text}");
            }
            None => {
                live += 1;
                assert_eq!(eval_bound, None, "seed {seed}: {text}");
            }
        }
    }
    assert!(
        live >= 20 && violated >= 20,
        "{live} live, {violated} violated"
    );
}

// ---------------------------------------------------------------------
// Production against the reference.

/// A random tense formula over `atoms`: past connectives only over past
/// formulas, future ones (`X`) only outside every past connective.
fn gen_mixed(rng: &mut Rng, atoms: &[&str], depth: usize, past_only: bool) -> String {
    let atom = |rng: &mut Rng| atoms[rng.gen_range_usize(0..atoms.len())].to_string();
    if depth == 0 {
        return atom(rng);
    }
    let sub = |rng: &mut Rng, past: bool| gen_mixed(rng, atoms, depth - 1, past);
    match rng.gen_range_usize(0..if past_only { 8 } else { 10 }) {
        0 => atom(rng),
        1 => format!("!({})", sub(rng, past_only)),
        2 => format!("({}) & ({})", sub(rng, past_only), sub(rng, past_only)),
        3 => format!("({}) -> ({})", sub(rng, past_only), sub(rng, past_only)),
        4 => format!("Y ({})", sub(rng, true)),
        5 => format!("({}) S ({})", sub(rng, true), sub(rng, true)),
        6 => format!("O ({})", sub(rng, true)),
        7 => format!("H ({})", sub(rng, true)),
        _ => format!("X ({})", sub(rng, false)),
    }
}

#[test]
fn production_matches_reference_on_random_past_constraints() {
    let sc = common::schema();
    let configs = [
        CheckOptions::reference(),
        CheckOptions::default(),
        CheckOptions::builder()
            .history_budget(HistoryBudget::Window(16))
            .build(),
    ];
    let mut events = 0;
    let mut truncated = 0;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x5eed_9a57 ^ seed);
        let one = ["Sub(x)", "Rep(x, x)"];
        let two = ["Sub(x)", "Sub(y)", "Rep(x, y)"];
        let phis: Vec<String> = vec![
            format!(
                "forall x. G (Sub(x) -> ({}))",
                gen_mixed(&mut rng, &one, 3, false)
            ),
            format!(
                "forall x y. G (Rep(x, y) -> ({}))",
                gen_mixed(&mut rng, &two, 2, false)
            ),
            format!("forall x. G ({})", gen_mixed(&mut rng, &one, 2, false)),
        ];
        let mut engines: Vec<Engine> = configs
            .iter()
            .map(|o| Engine::new(sc.clone(), *o))
            .collect();
        for (i, text) in phis.iter().enumerate() {
            let phi = parse(&sc, text).unwrap();
            for e in &mut engines {
                assert_eq!(
                    e.add_constraint(format!("c{i}"), phi.clone()).unwrap(),
                    ConstraintId(i)
                );
            }
        }
        let mut drv = common::Driver::new(4, 0.25);
        let steps = rng.gen_range_usize(40..72);
        let burst = rng.gen_range_usize(5..steps);
        let restore = rng.gen_range_usize(1..steps);
        let sub = sc.pred("Sub").unwrap();
        for step in 0..steps {
            let mut tx = drv.step(&sc, &mut rng);
            if step == burst {
                // Three new elements at once.
                for v in 0..3 {
                    tx = tx.insert(sub, vec![1000 + v]);
                }
            }
            if step == restore {
                for (c, e) in engines.iter_mut().enumerate() {
                    let bytes = e.snapshot_bytes(b"");
                    *e = Engine::restore_bytes(&bytes, configs[c]).unwrap().0;
                }
            }
            let evs: Vec<_> = engines.iter_mut().map(|e| e.append(&tx).unwrap()).collect();
            for (c, ev) in evs.iter().enumerate().skip(1) {
                assert_eq!(
                    &evs[0], ev,
                    "seed {seed} step {step}: config {c} events {phis:?}"
                );
            }
            events += evs[0].len();
            for i in 0..phis.len() {
                let want = engines[0].status(ConstraintId(i));
                for e in &engines[1..] {
                    assert_eq!(e.status(ConstraintId(i)), want, "seed {seed} step {step}");
                }
            }
        }
        if engines[2].history().base() > 0 {
            truncated += 1;
        }
    }
    assert!(events > 0, "some constraint is violated somewhere");
    assert!(truncated > 100, "{truncated} sessions truncated");
}

// ---------------------------------------------------------------------
// Perfbench's `past` constraint, native and hand-translated.

fn order_schema() -> std::sync::Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

/// `forall x. G (Fill(x) -> Y Sub(x))`, as perfbench registers it.
const PAST_FUTURE_FORM: &str = "forall x. !Fill(x) & G (!Sub(x) -> X !Fill(x))";

#[test]
fn native_past_agrees_with_its_future_form() {
    let sc = order_schema();
    let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
    let native = parse(&sc, "forall x. G (Fill(x) -> Y Sub(x))").unwrap();
    let future = parse(&sc, PAST_FUTURE_FORM).unwrap();
    let mut violated = 0;
    for budget in [HistoryBudget::Unbounded, HistoryBudget::Window(64)] {
        let opts = CheckOptions::builder().history_budget(budget).build();
        for seed in 0..120u64 {
            let mut rng = Rng::seed_from_u64(0xfa57 ^ seed);
            let (mut a, mut b) = (Engine::new(sc.clone(), opts), Engine::new(sc.clone(), opts));
            let ia = a.add_constraint("past", native.clone()).unwrap();
            let ib = b.add_constraint("past", future.clone()).unwrap();
            // Steady churn over a handful of ids, each fill answering the
            // previous instant's submissions, with a new id now and then
            // and a rare unanswered fill.
            let mut ids: Vec<Value> = (1..=4).collect();
            let mut subs: Vec<Value> = Vec::new();
            let mut fills: Vec<Value> = Vec::new();
            for step in 0..rng.gen_range_usize(100..300) {
                let mut tx = Transaction::new();
                for v in fills.drain(..) {
                    tx = tx.delete(fill, vec![v]);
                }
                for &v in &subs {
                    tx = tx.delete(sub, vec![v]);
                    if rng.gen_bool(0.5) {
                        fills.push(v);
                    }
                }
                if rng.gen_bool(0.004) {
                    // Never submitted.
                    fills.push(ids[0] + 50);
                }
                for &v in &fills {
                    tx = tx.insert(fill, vec![v]);
                }
                if rng.gen_bool(0.05) {
                    ids.push(100 + step as Value);
                }
                subs = ids.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
                for &v in &subs {
                    tx = tx.insert(sub, vec![v]);
                }
                let (ea, eb) = (a.append(&tx).unwrap(), b.append(&tx).unwrap());
                assert_eq!(ea, eb, "seed {seed} step {step} {budget:?}");
                assert_eq!(a.status(ia), b.status(ib), "seed {seed} step {step}");
            }
            if matches!(a.status(ia), Status::Violated { .. }) {
                violated += 1;
            }
        }
    }
    assert!(violated > 0 && violated < 200, "{violated} violated runs");
}

#[test]
fn windowed_past_constraint_keeps_the_history_bounded() {
    // `O Sub(x)` looks arbitrarily far back, yet under `Window(64)` the
    // resident history stays within the window's hysteresis (twice the
    // window) over 200k appends, and the events are the unbounded
    // run's: the units' template states carry the past.
    let sc = order_schema();
    let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
    let phi = parse(&sc, "forall x. G (Fill(x) -> O Sub(x))").unwrap();
    let windowed = CheckOptions::builder()
        .history_budget(HistoryBudget::Window(64))
        .build();
    let mut w = Engine::new(sc.clone(), windowed);
    let mut u = Engine::new(sc.clone(), CheckOptions::default());
    w.add_constraint("audit", phi.clone()).unwrap();
    u.add_constraint("audit", phi).unwrap();
    let mut rng = Rng::seed_from_u64(7);
    let mut max_resident = 0;
    let mut events = Vec::new();
    let mut filled = [false; 8];
    for i in 0..200_000u64 {
        let mut tx = Transaction::new();
        if i == 0 {
            tx = (0..8).fold(tx, |tx, v| tx.insert(sub, vec![v]));
        } else {
            // Submitted once, at instant 0: only the past remembers it.
            if i == 1 {
                tx = (0..8).fold(tx, |tx, v| tx.delete(sub, vec![v]));
            }
            let v = rng.gen_range_usize(0..8);
            filled[v] = !filled[v];
            tx = if filled[v] {
                tx.insert(fill, vec![v as Value])
            } else {
                tx.delete(fill, vec![v as Value])
            };
        }
        if i % 50_000 == 5 {
            // A new id, submitted long before it is filled.
            tx = tx.insert(sub, vec![100 + i]);
        }
        if i % 50_000 == 40_000 {
            tx = tx.insert(fill, vec![100 + i - 39_995]);
        }
        if i == 199_990 {
            // Never submitted: the one violation.
            tx = tx.insert(fill, vec![99_999]);
        }
        let (a, b) = (w.append(&tx).unwrap(), u.append(&tx).unwrap());
        assert_eq!(a, b, "append {i}");
        events.extend(a);
        let h = w.history();
        max_resident = max_resident.max(h.len() - h.base());
    }
    assert!(max_resident <= 2 * 64, "{max_resident} resident instants");
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].at, 199_991);
}

// ---------------------------------------------------------------------
// Monitoring scenarios.

/// The audit constraint: every fill was preceded by a submission.
const AUDIT: &str = "forall x. G (Fill(x) -> O Sub(x))";

/// Appends one state per `(subs, fills)` entry, each replacing the
/// previous state; returns the status after each.
fn run(e: &mut Engine, id: ConstraintId, spec: &[(&[Value], &[Value])]) -> Vec<Status> {
    let sc = e.history().schema().clone();
    let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
    spec.iter()
        .map(|(subs, fills)| {
            let mut tx = Transaction::new();
            if let Some(last) = e.history().last() {
                for p in [sub, fill] {
                    for t in last.relation(p).iter() {
                        tx = tx.delete(p, t.to_vec());
                    }
                }
            }
            for &v in *subs {
                tx = tx.insert(sub, vec![v]);
            }
            for &v in *fills {
                tx = tx.insert(fill, vec![v]);
            }
            e.append(&tx).unwrap();
            e.status(id)
        })
        .collect()
}

fn engine_with(text: &str) -> (Engine, ConstraintId) {
    let sc = order_schema();
    let mut e = Engine::new(sc.clone(), CheckOptions::default());
    let id = e.add_constraint("c", parse(&sc, text).unwrap()).unwrap();
    (e, id)
}

#[test]
fn audit_constraint_clean_and_dirty() {
    // Clean: sub 1, fill 1, fill 1 again (still fine: O Sub(1)).
    let (mut e, id) = engine_with(AUDIT);
    let clean = run(&mut e, id, &[(&[1], &[]), (&[], &[1]), (&[], &[1])]);
    assert!(clean.iter().all(|s| *s == Status::Satisfied));
    // Dirty: fill 2 without any submission, permanently.
    let (mut e, id) = engine_with(AUDIT);
    let dirty = run(&mut e, id, &[(&[1], &[]), (&[], &[2]), (&[], &[])]);
    assert_eq!(dirty[0], Status::Satisfied);
    assert_eq!(dirty[1], Status::Violated { at: 2 });
    assert_eq!(dirty[2], Status::Violated { at: 2 });
}

#[test]
fn agrees_with_reference_evaluator_on_random_histories() {
    // The audit cannot be doomed before a fill lacks its submission, so
    // the engine's violation is exactly eval's first failing instant.
    let sc = order_schema();
    let body = Formula::forall("x", parse(&sc, "Fill(x) -> O Sub(x)").unwrap());
    for seed in 0..20u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut e, id) = engine_with(AUDIT);
        let mut first_failure = None;
        for t in 0..8 {
            let mut subs = Vec::new();
            let mut fills = Vec::new();
            for v in 0..3 {
                if rng.gen_bool(0.3) {
                    subs.push(v);
                }
                if rng.gen_bool(0.3) {
                    fills.push(v);
                }
            }
            run(&mut e, id, &[(&subs, &fills)]);
            if first_failure.is_none()
                && !eval(
                    e.history(),
                    &body,
                    t,
                    &Default::default(),
                    &EvalOptions::default(),
                )
                .unwrap()
            {
                first_failure = Some(t + 1);
            }
        }
        let expected = first_failure.map_or(Status::Satisfied, |at| Status::Violated { at });
        assert_eq!(e.status(id), expected, "seed {seed}");
    }
}

#[test]
fn two_variable_past_constraint() {
    // At most one fill per instant, and only of a submitted order.
    let (mut e, id) = engine_with("forall x y. G (Fill(x) & Fill(y) -> x = y & O Sub(x))");
    let ok = run(&mut e, id, &[(&[1, 2], &[]), (&[], &[1])]);
    assert!(ok.iter().all(|s| *s == Status::Satisfied));
    assert_eq!(
        run(&mut e, id, &[(&[], &[1, 2])]),
        vec![Status::Violated { at: 3 }]
    );
}

#[test]
fn since_chains_track_correctly() {
    // ∀x □(Fill(x) → (¬Sub(x)) S Sub(x)): a resubmission resets the
    // since, so a fill after it is fine; a fill with no submission ever
    // is a violation.
    let (mut e, id) = engine_with("forall x. G (Fill(x) -> ((!Sub(x)) S Sub(x)))");
    let seq = run(
        &mut e,
        id,
        &[(&[1], &[]), (&[], &[1]), (&[1], &[]), (&[], &[1])],
    );
    assert!(seq.iter().all(|s| *s == Status::Satisfied));
    assert_eq!(
        run(&mut e, id, &[(&[], &[9])]),
        vec![Status::Violated { at: 5 }]
    );
}

#[test]
fn memory_grows_with_domain_not_history() {
    // Under a window, neither the resident history nor the units grow
    // with the number of instants.
    let sc = order_schema();
    let opts = CheckOptions::builder()
        .history_budget(HistoryBudget::Window(4))
        .build();
    let mut e = Engine::new(sc.clone(), opts);
    let id = e.add_constraint("c", parse(&sc, AUDIT).unwrap()).unwrap();
    run(&mut e, id, &[(&[1, 2], &[])]);
    let units = e.stats().automaton_insts;
    for _ in 0..100 {
        e.append(&Transaction::new()).unwrap();
    }
    assert_eq!(e.stats().automaton_insts, units, "units grow with t");
    assert!(e.history().len() - e.history().base() <= 8);
    assert_eq!(e.history().len(), 101);
    assert_eq!(e.status(id), Status::Satisfied);
}

#[test]
fn rejects_unsupported_shapes() {
    let sc = order_schema();
    for src in [
        "forall x. G (Fill(x) -> Y X Sub(x))", // future under past
        "forall x. G (exists y. O Sub(y))",    // quantifier over past
        "forall x. G O (exists y. Sub(y))",    // internal quantifier
    ] {
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        let err = e.add_constraint("c", parse(&sc, src).unwrap());
        assert!(matches!(err, Err(Error::Ground(_))), "{src}: {err:?}");
        assert_eq!(e.constraints().count(), 0);
    }
    // Present-only and future matrices are fine.
    for src in ["forall x. G !Fill(x)", "forall x. G F Sub(x)"] {
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("c", parse(&sc, src).unwrap()).unwrap();
    }
}

#[test]
fn fresh_pattern_materialisation_is_sound() {
    // Element 7 first appears at instant 2: its past is a fresh
    // element's (never submitted), so Fill(7) there violates.
    let (mut e, id) = engine_with(AUDIT);
    let seq = run(&mut e, id, &[(&[1], &[]), (&[], &[1])]);
    assert!(seq.iter().all(|s| *s == Status::Satisfied));
    assert_eq!(
        run(&mut e, id, &[(&[], &[7])]),
        vec![Status::Violated { at: 3 }]
    );
}
