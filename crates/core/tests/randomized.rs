//! Deterministic randomized tests for the core pipeline — the live,
//! always-on counterpart of the gated `properties.rs` suite, driven by
//! the in-repo xoshiro PRNG with fixed seeds.
//!
//! * the full (paper-literal) grounding, decided directly through
//!   `ground` + `extends_with`, agrees with the production check (folded
//!   grounding),
//! * safety violations are prefix-monotone (once no extension exists,
//!   longer prefixes have none either),
//! * the incremental engine (delta re-grounding, residue progression,
//!   memoised satisfiability) agrees with one-shot batch checks at
//!   every prefix — the monitor-vs-batch oracle.

use std::sync::Arc;
use ticc_core::{check_potential_satisfaction, ground, CheckOptions, Engine, GroundMode, Status};
use ticc_fotl::parser::parse;
use ticc_fotl::Formula;
use ticc_ptl::sat::{extends_with, SatSolver};
use ticc_tdb::rng::Rng;
use ticc_tdb::{History, Schema, State, Transaction, Value};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

fn formula_pool(sc: &Schema) -> Vec<Formula> {
    [
        "forall x. G (Sub(x) -> X G !Sub(x))",
        "G !Sub(5)",
        "forall x. G (Fill(x) -> F Sub(x))",
        "forall x. G !(Sub(x) & Fill(x))",
    ]
    .iter()
    .map(|src| parse(sc, src).unwrap())
    .collect()
}

/// A random history over small domains; elements arrive staggered so
/// prefixes keep growing the relevant set. `states`/`domain` bound the
/// size (the full grounding construction is exponential in `|M|`, so
/// tests comparing against it must stay small).
fn gen_history_sized(rng: &mut Rng, sc: &Arc<Schema>, states: usize, domain: u64) -> History {
    let mut h = History::new(sc.clone());
    for _ in 0..rng.gen_range_usize(1..states + 1) {
        let mut s = State::empty(sc.clone());
        for _ in 0..rng.gen_range_usize(0..3) {
            s.insert_named("Sub", vec![rng.gen_range(0..domain)])
                .unwrap();
        }
        for _ in 0..rng.gen_range_usize(0..3) {
            s.insert_named("Fill", vec![rng.gen_range(0..domain)])
                .unwrap();
        }
        h.push_state(s);
    }
    h
}

fn gen_history(rng: &mut Rng, sc: &Arc<Schema>) -> History {
    gen_history_sized(rng, sc, 5, 5)
}

#[test]
fn full_and_folded_groundings_agree() {
    let mut rng = Rng::seed_from_u64(31);
    let sc = schema();
    // The liveness-flavoured pool member (`F Sub(x)`) makes the
    // paper-literal construction intractable at this size; the safety
    // members cover the mode-agreement claim.
    let pool: Vec<Formula> = formula_pool(&sc)
        .into_iter()
        .filter(ticc_fotl::classify::is_syntactically_safe)
        .collect();
    assert!(pool.len() >= 2);
    for i in 0..60 {
        let h = gen_history_sized(&mut rng, &sc, 3, 3);
        let phi = &pool[i % pool.len()];
        let folded = check_potential_satisfaction(&h, phi, &CheckOptions::default()).unwrap();
        let mut g = ground(&h, phi, GroundMode::Full).unwrap();
        let full = extends_with(&mut g.arena, &g.trace, g.formula, SatSolver::Buchi).unwrap();
        assert_eq!(
            folded.potentially_satisfied,
            full.satisfiable,
            "modes disagree on history of length {}",
            h.len()
        );
    }
}

#[test]
fn safety_violations_are_prefix_monotone() {
    let mut rng = Rng::seed_from_u64(32);
    let sc = schema();
    let pool = formula_pool(&sc);
    for i in 0..32 {
        let h = gen_history_sized(&mut rng, &sc, 4, 4);
        let phi = &pool[i % pool.len()];
        let mut violated = false;
        for n in 1..=h.len() {
            let out =
                check_potential_satisfaction(&h.prefix(n), phi, &CheckOptions::default()).unwrap();
            if violated {
                assert!(
                    !out.potentially_satisfied,
                    "violation vanished when the prefix grew to {n}"
                );
            }
            violated = !out.potentially_satisfied;
        }
    }
}

#[test]
fn incremental_engine_agrees_with_batch_checks() {
    // The monitor replays the history one transaction at a time —
    // exercising the fast path, delta re-grounding, and the residue
    // cache — while the batch side grounds each prefix from scratch.
    // Status must agree at every instant, and the violation instant
    // must be the earliest prefix with no extension.
    let mut rng = Rng::seed_from_u64(33);
    let sc = schema();
    let pool = formula_pool(&sc);
    for i in 0..32 {
        let h = gen_history_sized(&mut rng, &sc, 4, 4);
        let phi = &pool[i % pool.len()];
        let mut m = Engine::new(sc.clone(), CheckOptions::default());
        let id = match m.add_constraint("c", phi.clone()) {
            Ok(id) => id,
            Err(e) => panic!("constraint rejected: {e}"),
        };
        for n in 1..=h.len() {
            // delete-all/insert-all transaction producing state n-1.
            let mut tx = Transaction::new();
            if n > 1 {
                for p in sc.preds() {
                    for tuple in h.state(n - 2).relation(p).iter() {
                        tx = tx.delete(p, tuple.to_vec());
                    }
                }
            }
            for p in sc.preds() {
                for tuple in h.state(n - 1).relation(p).iter() {
                    tx = tx.insert(p, tuple.to_vec());
                }
            }
            m.append(&tx).unwrap();
            let batch =
                check_potential_satisfaction(&h.prefix(n), phi, &CheckOptions::default()).unwrap();
            match m.status(id) {
                Status::Satisfied => assert!(
                    batch.potentially_satisfied,
                    "monitor satisfied, batch violated at prefix {n}"
                ),
                Status::Violated { at } => {
                    assert!(
                        !batch.potentially_satisfied || at < n,
                        "monitor violated at {at}, batch satisfied at prefix {n}"
                    );
                    assert!(at <= n, "violation instant in the future");
                }
            }
        }
        // Earliest-violation agreement: the monitor's `at` equals the
        // first prefix length the batch checker rejects.
        if let Status::Violated { at } = m.status(id) {
            for n in 1..=h.len().min(at.saturating_sub(1)) {
                let batch =
                    check_potential_satisfaction(&h.prefix(n), phi, &CheckOptions::default())
                        .unwrap();
                assert!(
                    batch.potentially_satisfied,
                    "batch rejects prefix {n} but monitor fired only at {at}"
                );
            }
        }
    }
}

/// The relevant set never shrinks as states append — the precondition
/// the delta re-grounding design rests on (a new relevant element
/// appears in no earlier state).
#[test]
fn relevant_set_is_monotone_under_appends() {
    let mut rng = Rng::seed_from_u64(34);
    let sc = schema();
    for _ in 0..100 {
        let h = gen_history(&mut rng, &sc);
        let mut prev: std::collections::BTreeSet<Value> = Default::default();
        for n in 1..=h.len() {
            let r = h.prefix(n).relevant();
            assert!(prev.is_subset(&r));
            prev = r;
        }
    }
}
