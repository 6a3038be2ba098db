//! End-to-end scenarios over a binary relation (arity `l = 2`), which
//! exercises the grounding differently from the paper's monadic order
//! example: tuples contribute two relevant elements each, letters are
//! quadratic in `|M|`, and mixed fresh/relevant argument vectors arise.
//!
//! Scenario: a dynamic graph of "reports-to" edges with constraints
//! * no self-management: `∀x □¬Rep(x, x)`
//! * management is stable: once `x` reports to `y`, `x` can never report
//!   to anyone else afterwards (but may stop reporting):
//!   `∀x∀y∀z □(Rep(x,y) ∧ y ≠ z → ○□¬Rep(x,z))`
//! * no cycles of length 2: `∀x∀y □¬(Rep(x,y) ∧ Rep(y,x))`

use std::sync::Arc;
use ticc::core::{check_potential_satisfaction, CheckOptions, Engine, Status};
use ticc::fotl::parser::parse;
use ticc::tdb::{History, Schema, State, Transaction};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Rep", 2).build()
}

const NO_SELF: &str = "forall x. G !Rep(x, x)";
const STABLE: &str = "forall x y z. G (Rep(x, y) & y != z -> X G !Rep(x, z))";
const NO_2CYCLE: &str = "forall x y. G !(Rep(x, y) & Rep(y, x))";

fn graph_history(spec: &[&[(u64, u64)]]) -> History {
    let sc = schema();
    let mut h = History::new(sc.clone());
    for edges in spec {
        let mut s = State::empty(sc.clone());
        for &(a, b) in *edges {
            s.insert_named("Rep", vec![a, b]).unwrap();
        }
        h.push_state(s);
    }
    h
}

#[test]
fn constraints_classify_with_expected_arity_and_quantifiers() {
    let sc = schema();
    for (src, k) in [(NO_SELF, 1), (STABLE, 3), (NO_2CYCLE, 2)] {
        let f = parse(&sc, src).unwrap();
        assert_eq!(
            ticc::fotl::classify::classify(&f),
            ticc::fotl::classify::FormulaClass::Universal { external: k },
            "{src}"
        );
    }
    assert_eq!(sc.max_arity(), 2);
}

#[test]
fn clean_graph_histories_pass_all_three() {
    let sc = schema();
    // 1→2, later 3→2; 1 stops reporting; 3 keeps reporting to 2.
    let h = graph_history(&[&[(1, 2)], &[(1, 2), (3, 2)], &[(3, 2)]]);
    for src in [NO_SELF, STABLE, NO_2CYCLE] {
        let phi = parse(&sc, src).unwrap();
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert!(out.potentially_satisfied, "{src}");
    }
}

#[test]
fn self_loop_violates_no_self() {
    let sc = schema();
    let phi = parse(&sc, NO_SELF).unwrap();
    let h = graph_history(&[&[(1, 2)], &[(2, 2)]]);
    let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
    assert!(!out.potentially_satisfied);
}

#[test]
fn manager_change_violates_stability() {
    let sc = schema();
    let phi = parse(&sc, STABLE).unwrap();
    // 1 reports to 2, then later to 3: violation.
    let bad = graph_history(&[&[(1, 2)], &[], &[(1, 3)]]);
    let out = check_potential_satisfaction(&bad, &phi, &CheckOptions::default()).unwrap();
    assert!(!out.potentially_satisfied);
    // Re-reporting to the SAME manager is fine (y ≠ z guard).
    let ok = graph_history(&[&[(1, 2)], &[], &[(1, 2)]]);
    let out = check_potential_satisfaction(&ok, &phi, &CheckOptions::default()).unwrap();
    assert!(out.potentially_satisfied);
}

#[test]
fn two_cycle_violates_and_is_detected_online() {
    let sc = schema();
    let rep = sc.pred("Rep").unwrap();
    let mut m = Engine::new(sc.clone(), CheckOptions::default());
    let id = m
        .add_constraint("no-2cycle", parse(&sc, NO_2CYCLE).unwrap())
        .unwrap();
    m.append(&Transaction::new().insert(rep, vec![1, 2]))
        .unwrap();
    assert_eq!(m.status(id), Status::Satisfied);
    let ev = m
        .append(&Transaction::new().insert(rep, vec![2, 1]))
        .unwrap();
    assert_eq!(ev.len(), 1);
    assert_eq!(m.status(id), Status::Violated { at: 2 });
}

#[test]
fn grounding_stats_reflect_binary_arity() {
    let sc = schema();
    let phi = parse(&sc, NO_2CYCLE).unwrap(); // k = 2, l = 2
    let h = graph_history(&[&[(0, 1), (2, 3)]]); // |R_D| = 4
    let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
    assert!(out.potentially_satisfied);
    // |M| = 4 relevant + 2 fresh = 6; instances 6².
    assert_eq!(out.stats.ground.m_size, 6);
    assert_eq!(out.stats.ground.mappings, 36);
}

#[test]
fn all_three_constraints_together_in_one_monitor() {
    let sc = schema();
    let rep = sc.pred("Rep").unwrap();
    let mut m = Engine::new(sc.clone(), CheckOptions::default());
    for (name, src) in [
        ("no-self", NO_SELF),
        ("stable", STABLE),
        ("no-2cycle", NO_2CYCLE),
    ] {
        m.add_constraint(name, parse(&sc, src).unwrap()).unwrap();
    }
    // Build a legal chain 3→2→1 over a few commits.
    m.append(&Transaction::new().insert(rep, vec![2, 1]))
        .unwrap();
    m.append(&Transaction::new().insert(rep, vec![3, 2]))
        .unwrap();
    assert!(m.constraints().all(|id| m.status(id) == Status::Satisfied));
    // 1→3 closes a 3-cycle: allowed by all three registered constraints
    // (no 2-cycle, no self loop, no manager change).
    m.append(&Transaction::new().insert(rep, vec![1, 3]))
        .unwrap();
    assert!(m.constraints().all(|id| m.status(id) == Status::Satisfied));
    // Now 2→3 would be a manager change for 2 (2→1 exists): stability
    // violation, and also a 2-cycle with 3→2.
    let ev = m
        .append(&Transaction::new().insert(rep, vec![2, 3]))
        .unwrap();
    assert!(ev.len() >= 2, "stability and 2-cycle both fire: {ev:?}");
}
