//! End-to-end scenarios built from the paper's own examples (Section 2),
//! exercised through the public facade crate.

use ticc::core::diagnostics::earliest_violation;
use ticc::core::{
    check_potential_satisfaction, Action, CheckOptions, Engine, Status, Trigger, TriggerEngine,
};
use ticc::fotl::classify::{classify, FormulaClass};
use ticc::fotl::parser::parse;
use ticc::fotl::Term;
use ticc::tdb::workload::{OrderViolation, OrderWorkload};
use ticc::tdb::{History, Schema, State, Transaction};

const ONCE_ONLY: &str = "forall x. G (Sub(x) -> X G !Sub(x))";
const FIFO: &str = "forall x y. G !(x != y & Sub(x) & \
                   ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";

fn order_history(spec: &[(&[u64], &[u64])]) -> History {
    let sc = OrderWorkload::schema();
    let mut h = History::new(sc.clone());
    for (subs, fills) in spec {
        let mut s = State::empty(sc.clone());
        for &v in *subs {
            s.insert_named("Sub", vec![v]).unwrap();
        }
        for &v in *fills {
            s.insert_named("Fill", vec![v]).unwrap();
        }
        h.push_state(s);
    }
    h
}

#[test]
fn both_paper_constraints_are_universal_and_safe() {
    let sc = OrderWorkload::schema();
    for (src, k) in [(ONCE_ONLY, 1), (FIFO, 2)] {
        let f = parse(&sc, src).unwrap();
        assert_eq!(classify(&f), FormulaClass::Universal { external: k });
        assert!(ticc::fotl::classify::is_syntactically_safe(&f));
    }
}

#[test]
fn generated_clean_workloads_satisfy_both_constraints() {
    let sc = OrderWorkload::schema();
    let once = parse(&sc, ONCE_ONLY).unwrap();
    let fifo = parse(&sc, FIFO).unwrap();
    for seed in 0..5 {
        let h = OrderWorkload {
            instants: 10,
            submit_prob: 0.6,
            fill_prob: 0.5,
            violation: None,
            seed,
        }
        .generate();
        for phi in [&once, &fifo] {
            let out = check_potential_satisfaction(&h, phi, &CheckOptions::default()).unwrap();
            assert!(out.potentially_satisfied, "seed {seed} should be clean");
        }
    }
}

#[test]
fn injected_violations_are_caught_by_the_matching_constraint() {
    let sc = OrderWorkload::schema();
    let once = parse(&sc, ONCE_ONLY).unwrap();
    let fifo = parse(&sc, FIFO).unwrap();
    // Double submission breaks once-only (FIFO may or may not survive).
    let h1 = OrderWorkload {
        instants: 12,
        submit_prob: 0.9,
        fill_prob: 0.3,
        violation: Some((OrderViolation::DoubleSubmit, 8)),
        seed: 1,
    }
    .generate();
    assert!(
        !check_potential_satisfaction(&h1, &once, &CheckOptions::default())
            .unwrap()
            .potentially_satisfied
    );
    // Out-of-order fill breaks FIFO but not once-only.
    let h2 = OrderWorkload {
        instants: 12,
        submit_prob: 0.9,
        fill_prob: 0.1,
        violation: Some((OrderViolation::OutOfOrderFill, 8)),
        seed: 1,
    }
    .generate();
    assert!(
        !check_potential_satisfaction(&h2, &fifo, &CheckOptions::default())
            .unwrap()
            .potentially_satisfied
    );
    assert!(
        check_potential_satisfaction(&h2, &once, &CheckOptions::default())
            .unwrap()
            .potentially_satisfied
    );
}

#[test]
fn earliest_violation_matches_injection_point() {
    let sc = OrderWorkload::schema();
    let fifo = parse(&sc, FIFO).unwrap();
    // Submit 1 and 2, then fill 2 before 1 at t=2: prefix of length 3
    // is the first violated one.
    let h = order_history(&[(&[1], &[]), (&[2], &[]), (&[], &[2]), (&[], &[1])]);
    assert_eq!(earliest_violation(&h, &fifo).unwrap(), Some(3));
}

#[test]
fn monitor_and_batch_checker_agree() {
    let sc = OrderWorkload::schema();
    let once = parse(&sc, ONCE_ONLY).unwrap();
    let h = order_history(&[(&[1], &[]), (&[2], &[1]), (&[1], &[2])]);

    // Batch: earliest violation at prefix length 3.
    let batch = earliest_violation(&h, &once).unwrap();
    assert_eq!(batch, Some(3));

    // Online: replay through the monitor.
    let mut m = Engine::new(sc.clone(), CheckOptions::default());
    let id = m.add_constraint("once", once).unwrap();
    let sub = sc.pred("Sub").unwrap();
    let fill = sc.pred("Fill").unwrap();
    let mk = |s: &[u64], f: &[u64], prev_s: &[u64], prev_f: &[u64]| {
        let mut tx = Transaction::new();
        for &v in prev_s {
            tx = tx.delete(sub, vec![v]);
        }
        for &v in prev_f {
            tx = tx.delete(fill, vec![v]);
        }
        for &v in s {
            tx = tx.insert(sub, vec![v]);
        }
        for &v in f {
            tx = tx.insert(fill, vec![v]);
        }
        tx
    };
    assert!(m.append(&mk(&[1], &[], &[], &[])).unwrap().is_empty());
    assert!(m.append(&mk(&[2], &[1], &[1], &[])).unwrap().is_empty());
    let ev = m.append(&mk(&[1], &[2], &[2], &[1])).unwrap();
    assert_eq!(ev.len(), 1);
    assert_eq!(m.status(id), Status::Violated { at: 3 });
}

#[test]
fn trigger_fires_exactly_when_constraint_violated() {
    // The duality of Section 2, checked both ways on the same histories.
    let sc = Schema::builder()
        .pred("Sub", 1)
        .pred("Fill", 1)
        .pred("Alert", 1)
        .build();
    let once = parse(&sc, ONCE_ONLY).unwrap();
    let cond = parse(&sc, "F (Sub(x) & X F Sub(x))").unwrap();
    let mut engine = TriggerEngine::new(CheckOptions::default());
    engine
        .add(Trigger {
            name: "dup".into(),
            condition: cond,
            action: Action::Insert {
                pred: sc.pred("Alert").unwrap(),
                args: vec![Term::var("x")],
            },
        })
        .unwrap();

    let histories = [
        vec![(vec![1u64], vec![]), (vec![2], vec![])],
        vec![(vec![1], vec![]), (vec![1], vec![])],
        vec![(vec![1], vec![]), (vec![2], vec![]), (vec![2], vec![])],
    ];
    for spec in histories {
        let mut h = History::new(sc.clone());
        for (subs, fills) in &spec {
            let mut s = State::empty(sc.clone());
            for &v in subs {
                s.insert_named("Sub", vec![v]).unwrap();
            }
            for &v in fills {
                s.insert_named("Fill", vec![v]).unwrap();
            }
            h.push_state(s);
        }
        let violated = !check_potential_satisfaction(&h, &once, &CheckOptions::default())
            .unwrap()
            .potentially_satisfied;
        let fired = engine.evaluate(&h).unwrap();
        assert_eq!(
            violated,
            !fired.is_empty(),
            "trigger firing must coincide with constraint violation"
        );
    }
}

#[test]
fn witness_extension_roundtrip_through_public_api() {
    let sc = OrderWorkload::schema();
    let fifo = parse(&sc, FIFO).unwrap();
    let h = order_history(&[(&[1], &[]), (&[2], &[])]);
    let out = check_potential_satisfaction(&h, &fifo, &CheckOptions::default()).unwrap();
    assert!(out.potentially_satisfied);
    let w = out.witness.unwrap();
    // Extend the real history with the witness and confirm the
    // constraint stays potentially satisfied at every prefix.
    let mut ext = h.clone();
    for s in w.prefix.iter().chain(w.cycle.iter()).chain(w.cycle.iter()) {
        ext.push_state(s.clone());
        let again = check_potential_satisfaction(&ext, &fifo, &CheckOptions::default()).unwrap();
        assert!(again.potentially_satisfied);
    }
}
