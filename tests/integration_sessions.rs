//! Session-audit scenario: a past constraint (§5) on the
//! login/activity workload, monitored by the engine.
//!
//! The audit constraint is the textbook past formula
//! `∀x □(Act(x) → (¬Logout(x)) S Login(x))` — "every action happens
//! inside an open session". The grounding rewrites its `since` into an
//! internal letter with a future-form definition, so the engine checks
//! it like any universal constraint, with a unit's template state
//! carrying the session's past.

use ticc::core::{CheckOptions, Engine, Status};
use ticc::fotl::parser::parse;
use ticc::tdb::workload::{SessionViolation, SessionWorkload};
use ticc::tdb::{History, State, Transaction};

const AUDIT: &str = "forall x. G (Act(x) -> ((!Logout(x)) S Login(x)))";

/// The transaction that turns `prev` into `next`.
fn diff(prev: &State, next: &State) -> Transaction {
    let mut tx = Transaction::new();
    for p in next.schema().preds() {
        for t in prev.relation(p).iter() {
            if !next.holds(p, t) {
                tx = tx.delete(p, t.to_vec());
            }
        }
        for t in next.relation(p).iter() {
            if !prev.holds(p, t) {
                tx = tx.insert(p, t.to_vec());
            }
        }
    }
    tx
}

/// Replays `h` through an engine monitoring the audit; returns the
/// instant (0-based) whose state made the audit unsatisfiable, if any.
fn run_monitor(h: &History) -> Option<usize> {
    let sc = h.schema().clone();
    let mut e = Engine::new(sc.clone(), CheckOptions::default());
    let id = e
        .add_constraint("audit", parse(&sc, AUDIT).unwrap())
        .unwrap();
    let mut prev = State::empty(sc);
    for s in h.states() {
        e.append(&diff(&prev, s)).unwrap();
        prev = s.clone();
    }
    match e.status(id) {
        Status::Satisfied => None,
        Status::Violated { at } => Some(at - 1),
    }
}

#[test]
fn clean_workloads_pass_the_audit() {
    for seed in 0..10 {
        let h = SessionWorkload {
            instants: 25,
            seed,
            ..Default::default()
        }
        .generate();
        assert_eq!(run_monitor(&h), None, "seed {seed}");
    }
}

#[test]
fn act_without_login_is_caught_at_the_instant() {
    let h = SessionWorkload {
        instants: 12,
        violation: Some((SessionViolation::ActWithoutLogin, 7)),
        seed: 3,
        ..Default::default()
    }
    .generate();
    assert_eq!(run_monitor(&h), Some(7));
}

#[test]
fn act_after_logout_is_caught() {
    // Find a seed where someone has logged out before instant 15 so the
    // injection actually lands (the generator skips it otherwise).
    let mut caught = 0;
    for seed in 0..20 {
        let h = SessionWorkload {
            instants: 20,
            act_prob: 0.3,
            logout_prob: 0.7,
            violation: Some((SessionViolation::ActAfterLogout, 15)),
            seed,
            ..Default::default()
        }
        .generate();
        if let Some(at) = run_monitor(&h) {
            assert_eq!(at, 15, "seed {seed}");
            caught += 1;
        }
    }
    assert!(
        caught >= 8,
        "injection should land for most seeds: {caught}"
    );
}

#[test]
fn session_audit_also_works_through_eval_reference() {
    // Cross-check the monitor against the reference evaluator on a
    // violating history.
    let h = SessionWorkload {
        instants: 12,
        violation: Some((SessionViolation::ActWithoutLogin, 6)),
        seed: 4,
        ..Default::default()
    }
    .generate();
    let sc = h.schema().clone();
    let body = parse(&sc, "forall x. Act(x) -> ((!Logout(x)) S Login(x))").unwrap();
    // ψ holds at 0..5, fails at 6.
    for t in 0..6 {
        assert!(ticc::fotl::eval::eval(
            &h,
            &body,
            t,
            &Default::default(),
            &ticc::fotl::eval::EvalOptions::default()
        )
        .unwrap());
    }
    assert!(!ticc::fotl::eval::eval(
        &h,
        &body,
        6,
        &Default::default(),
        &ticc::fotl::eval::EvalOptions::default()
    )
    .unwrap());
}
