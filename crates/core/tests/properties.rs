//! Property-based tests for the grounding/extension pipeline.
//!
//! * the literal (`Full`, with `□Axiom_D`) and constant-folded
//!   groundings decide the same extension problem on arbitrary
//!   universal sentences and histories;
//! * violations are prefix-monotone for safety constraints (safety =
//!   the class the paper restricts to);
//! * decoded witness extensions really extend: appending them keeps the
//!   constraint potentially satisfied;
//! * the online monitor replay agrees with the batch earliest-violation
//!   search.

// Gated: `proptest` is an off-by-default feature so the workspace
// resolves with no registry access. To run this suite, restore the
// `proptest` dev-dependency and pass `--features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use std::sync::Arc;
use ticc_core::diagnostics::earliest_violation;
use ticc_core::{check_potential_satisfaction, ground, CheckOptions, Engine, GroundMode, Status};
use ticc_fotl::{Formula, Term};
use ticc_ptl::sat::{extends_with, SatSolver};
use ticc_tdb::{History, Schema, State, Transaction, Value};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("P", 1).pred("Q", 1).build()
}

/// The oracle route: ground with `mode` and decide extendability with
/// `solver` directly, bypassing the engine's fixed choices.
fn oracle(h: &History, phi: &Formula, mode: GroundMode, solver: SatSolver) -> bool {
    let mut g = ground(h, phi, mode).unwrap();
    extends_with(&mut g.arena, &g.trace, g.formula, solver)
        .unwrap()
        .satisfiable
}

/// A recipe for a random quantifier-free future matrix over variables
/// `x`, `y` and small explicit values.
#[derive(Debug, Clone)]
enum MShape {
    Lit { pred_p: bool, neg: bool, term: u8 }, // term: 0 = x, 1 = y, 2.. = value
    Eq(u8, u8),
    And(Box<MShape>, Box<MShape>),
    Or(Box<MShape>, Box<MShape>),
    Next(Box<MShape>),
    Always(Box<MShape>),
    Until(Box<MShape>, Box<MShape>),
}

impl MShape {
    fn term(code: u8) -> Term {
        match code % 4 {
            0 => Term::var("x"),
            1 => Term::var("y"),
            n => Term::Value(n as Value - 2),
        }
    }

    fn build(&self, sc: &Schema) -> Formula {
        match self {
            MShape::Lit { pred_p, neg, term } => {
                let p = if *pred_p {
                    sc.pred("P").unwrap()
                } else {
                    sc.pred("Q").unwrap()
                };
                let f = Formula::pred(p, vec![Self::term(*term)]);
                if *neg {
                    f.not()
                } else {
                    f
                }
            }
            MShape::Eq(a, b) => Formula::eq(Self::term(*a), Self::term(*b)),
            MShape::And(a, b) => a.build(sc).and(b.build(sc)),
            MShape::Or(a, b) => a.build(sc).or(b.build(sc)),
            MShape::Next(a) => a.build(sc).next(),
            MShape::Always(a) => a.build(sc).always(),
            MShape::Until(a, b) => a.build(sc).until(b.build(sc)),
        }
    }

    /// True if the shape avoids positive untils (syntactically safe
    /// after the ∀-prefix, given negations only sit on literals here).
    fn is_safe_shape(&self) -> bool {
        match self {
            MShape::Lit { .. } | MShape::Eq(_, _) => true,
            MShape::And(a, b) | MShape::Or(a, b) => a.is_safe_shape() && b.is_safe_shape(),
            MShape::Next(a) | MShape::Always(a) => a.is_safe_shape(),
            MShape::Until(_, _) => false,
        }
    }
}

fn mshape(depth: u32, with_until: bool) -> impl Strategy<Value = MShape> {
    let leaf = prop_oneof![
        (any::<bool>(), any::<bool>(), 0u8..6).prop_map(|(pred_p, neg, term)| MShape::Lit {
            pred_p,
            neg,
            term
        }),
        (0u8..6, 0u8..6).prop_map(|(a, b)| MShape::Eq(a, b)),
    ];
    leaf.prop_recursive(depth, 16, 2, move |inner| {
        let mut options = vec![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MShape::And(Box::new(a), Box::new(b)))
                .boxed(),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MShape::Or(Box::new(a), Box::new(b)))
                .boxed(),
            inner
                .clone()
                .prop_map(|a| MShape::Next(Box::new(a)))
                .boxed(),
            inner
                .clone()
                .prop_map(|a| MShape::Always(Box::new(a)))
                .boxed(),
        ];
        if with_until {
            options.push(
                (inner.clone(), inner)
                    .prop_map(|(a, b)| MShape::Until(Box::new(a), Box::new(b)))
                    .boxed(),
            );
        }
        proptest::strategy::Union::new(options)
    })
}

/// A small random history: per state, tuples for P and Q over 0..3.
fn history_strategy() -> impl Strategy<Value = Vec<(Vec<Value>, Vec<Value>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u64..3, 0..3),
            proptest::collection::vec(0u64..3, 0..3),
        ),
        1..4,
    )
}

fn build_history(sc: &Arc<Schema>, spec: &[(Vec<Value>, Vec<Value>)]) -> History {
    let mut h = History::new(sc.clone());
    for (ps, qs) in spec {
        let mut s = State::empty(sc.clone());
        for &v in ps {
            s.insert_named("P", vec![v]).unwrap();
        }
        for &v in qs {
            s.insert_named("Q", vec![v]).unwrap();
        }
        h.push_state(s);
    }
    h
}

fn close(sc: &Schema, m: &MShape) -> Formula {
    Formula::forall_many(["x", "y"], m.build(sc))
}

/// Single-variable closure (smaller groundings for the expensive
/// engine-agreement properties; `y` occurrences become a free-variable
/// error, so substitute them away first).
fn close1(sc: &Schema, m: &MShape) -> Formula {
    let body = m.build(sc);
    let theta: ticc_fotl::subst::Subst = [("y".to_owned(), Term::var("x"))].into_iter().collect();
    Formula::forall("x", ticc_fotl::subst::substitute(&body, &theta))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn full_and_folded_groundings_agree(
        m in mshape(2, true),
        spec in history_strategy(),
    ) {
        let sc = schema();
        let phi = close1(&sc, &m);
        let h = build_history(&sc, &spec);
        let folded = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        let full = oracle(&h, &phi, GroundMode::Full, SatSolver::Buchi);
        prop_assert_eq!(folded.potentially_satisfied, full);
    }

    #[test]
    fn probe_and_exhaustive_agree(
        m in mshape(2, true),
        spec in history_strategy(),
    ) {
        let sc = schema();
        let phi = close1(&sc, &m);
        let h = build_history(&sc, &spec);
        let probe = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        let exhaustive = oracle(&h, &phi, GroundMode::Folded, SatSolver::BuchiExhaustive);
        prop_assert_eq!(probe.potentially_satisfied, exhaustive);
    }

    #[test]
    fn safety_violations_are_prefix_monotone(
        m in mshape(3, false).prop_filter("safe shapes only", MShape::is_safe_shape),
        spec in history_strategy(),
    ) {
        let sc = schema();
        let phi = close(&sc, &m);
        prop_assume!(ticc_fotl::classify::is_syntactically_safe(&phi));
        let h = build_history(&sc, &spec);
        let mut violated = false;
        for n in 1..=h.len() {
            let sat = check_potential_satisfaction(&h.prefix(n), &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied;
            if violated {
                prop_assert!(!sat, "violation must persist at prefix {n}");
            }
            violated = !sat;
        }
    }

    #[test]
    fn witness_extensions_are_real_extensions(
        m in mshape(2, false).prop_filter("safe shapes only", MShape::is_safe_shape),
        spec in history_strategy(),
    ) {
        let sc = schema();
        let phi = close(&sc, &m);
        prop_assume!(ticc_fotl::classify::is_syntactically_safe(&phi));
        let h = build_history(&sc, &spec);
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        if let Some(w) = out.witness {
            prop_assert!(out.potentially_satisfied);
            let mut ext = h.clone();
            for s in w.prefix.iter().chain(w.cycle.iter()).chain(w.cycle.iter()) {
                ext.push_state(s.clone());
            }
            let again = check_potential_satisfaction(&ext, &phi, &CheckOptions::default())
                .unwrap();
            prop_assert!(again.potentially_satisfied,
                "appending the witness must preserve satisfiability");
        }
    }

    #[test]
    fn monitor_replay_matches_batch_diagnosis(
        m in mshape(2, false).prop_filter("safe shapes only", MShape::is_safe_shape),
        spec in history_strategy(),
    ) {
        let sc = schema();
        let phi = close(&sc, &m);
        prop_assume!(ticc_fotl::classify::is_syntactically_safe(&phi));
        let h = build_history(&sc, &spec);
        let batch = earliest_violation(&h, &phi).unwrap();

        let mut monitor = Engine::new(sc.clone(), CheckOptions::default());
        let id = match monitor.add_constraint("c", phi.clone()) {
            Ok(id) => id,
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        // A constraint can be unsatisfiable outright (batch says 0).
        if batch == Some(0) {
            prop_assert_eq!(monitor.status(id), Status::Violated { at: 0 });
            return Ok(());
        }
        let mut online: Option<usize> = None;
        for (i, s) in h.states().iter().enumerate() {
            // Rebuild state i as a transaction from state i-1.
            let mut tx = Transaction::new();
            if i > 0 {
                for p in sc.preds() {
                    for t in h.state(i - 1).relation(p).iter() {
                        tx = tx.delete(p, t.to_vec());
                    }
                }
            }
            for p in sc.preds() {
                for t in s.relation(p).iter() {
                    tx = tx.insert(p, t.to_vec());
                }
            }
            let events = monitor.append(&tx).unwrap();
            if online.is_none() {
                if let Some(e) = events.first() {
                    online = Some(e.at);
                }
            }
        }
        prop_assert_eq!(online, batch,
            "online and batch detection must coincide");
    }
}
