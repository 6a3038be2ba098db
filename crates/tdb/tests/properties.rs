//! Property-based tests for the temporal database substrate.

// Gated: `proptest` is an off-by-default feature so the workspace
// resolves with no registry access. To run this suite, restore the
// `proptest` dev-dependency and pass `--features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use ticc_tdb::{History, Schema, State, Transaction, Value};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("P", 1).pred("E", 2).build()
}

type Spec = Vec<(Vec<Value>, Vec<(Value, Value)>)>;

fn history_spec() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u64..6, 0..4),
            proptest::collection::vec((0u64..6, 0u64..6), 0..4),
        ),
        1..5,
    )
}

fn build(sc: &Arc<Schema>, spec: &Spec) -> History {
    let mut h = History::new(sc.clone());
    for (ps, es) in spec {
        let mut s = State::empty(sc.clone());
        for &v in ps {
            s.insert_named("P", vec![v]).unwrap();
        }
        for &(a, b) in es {
            s.insert_named("E", vec![a, b]).unwrap();
        }
        h.push_state(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relevant_is_union_of_state_domains(spec in history_spec()) {
        let sc = schema();
        let h = build(&sc, &spec);
        let mut expected = BTreeSet::new();
        for s in h.states() {
            expected.extend(s.active_domain());
        }
        prop_assert_eq!(h.relevant(), expected);
    }

    #[test]
    fn restriction_keeps_only_inside_tuples(
        spec in history_spec(),
        keep in proptest::collection::btree_set(0u64..6, 0..6),
    ) {
        let sc = schema();
        let h = build(&sc, &spec);
        let r = h.restrict(&keep);
        prop_assert!(r.relevant().is_subset(&keep));
        // Tuples fully inside `keep` survive; others are gone.
        for (t, s) in h.states().iter().enumerate() {
            for p in sc.preds() {
                for tuple in s.relation(p).iter() {
                    let inside = tuple.iter().all(|v| keep.contains(v));
                    prop_assert_eq!(r.state(t).holds(p, tuple), inside);
                }
            }
        }
    }

    #[test]
    fn restriction_is_idempotent(
        spec in history_spec(),
        keep in proptest::collection::btree_set(0u64..6, 0..6),
    ) {
        let sc = schema();
        let h = build(&sc, &spec).restrict(&keep);
        prop_assert_eq!(h.restrict(&keep), h.clone());
    }

    #[test]
    fn prefix_then_relevant_shrinks(spec in history_spec()) {
        let sc = schema();
        let h = build(&sc, &spec);
        let mut prev = BTreeSet::new();
        for n in 1..=h.len() {
            let r = h.prefix(n).relevant();
            prop_assert!(prev.is_subset(&r), "relevant sets grow with the prefix");
            prev = r;
        }
        prop_assert_eq!(prev, h.relevant());
    }

    #[test]
    fn transactions_replay_histories(spec in history_spec()) {
        // Any history can be reconstructed by delete-all/insert-all
        // transactions, and the apply path agrees with push_state.
        let sc = schema();
        let h = build(&sc, &spec);
        let mut replayed = History::new(sc.clone());
        for (i, s) in h.states().iter().enumerate() {
            let mut tx = Transaction::new();
            if i > 0 {
                for p in sc.preds() {
                    for tuple in h.state(i - 1).relation(p).iter() {
                        tx = tx.delete(p, tuple.to_vec());
                    }
                }
            }
            for p in sc.preds() {
                for tuple in s.relation(p).iter() {
                    tx = tx.insert(p, tuple.to_vec());
                }
            }
            replayed.apply(&tx).unwrap();
        }
        prop_assert_eq!(replayed, h);
    }

    #[test]
    fn insert_then_delete_roundtrips(
        tuples in proptest::collection::vec((0u64..6, 0u64..6), 0..8),
    ) {
        let sc = schema();
        let e = sc.pred("E").unwrap();
        let mut s = State::empty(sc.clone());
        for &(a, b) in &tuples {
            s.insert(e, vec![a, b]).unwrap();
        }
        let unique: BTreeSet<_> = tuples.iter().copied().collect();
        prop_assert_eq!(s.relation(e).len(), unique.len());
        for &(a, b) in &unique {
            prop_assert!(s.delete(e, &[a, b]));
        }
        prop_assert!(s.relation(e).is_empty());
    }
}
