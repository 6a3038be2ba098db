//! Deterministic randomized tests for the temporal database substrate —
//! the live, always-on counterpart of the gated `properties.rs` suite,
//! driven by the in-repo xoshiro PRNG with fixed seeds.

use std::collections::BTreeSet;
use std::sync::Arc;
use ticc_tdb::rng::Rng;
use ticc_tdb::{History, Schema, State, Transaction, Value};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("P", 1).pred("E", 2).build()
}

type Spec = Vec<(Vec<Value>, Vec<(Value, Value)>)>;

fn gen_spec(rng: &mut Rng) -> Spec {
    let len = rng.gen_range_usize(1..5);
    (0..len)
        .map(|_| {
            let ps = (0..rng.gen_range_usize(0..4))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let es = (0..rng.gen_range_usize(0..4))
                .map(|_| (rng.gen_range(0..6), rng.gen_range(0..6)))
                .collect();
            (ps, es)
        })
        .collect()
}

fn gen_keep(rng: &mut Rng) -> BTreeSet<Value> {
    (0..rng.gen_range_usize(0..6))
        .map(|_| rng.gen_range(0..6))
        .collect()
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

#[test]
fn relevant_is_union_of_state_domains() {
    let mut rng = Rng::seed_from_u64(11);
    for _ in 0..200 {
        let sc = schema();
        let h = build(&sc, &gen_spec(&mut rng));
        let mut expected = BTreeSet::new();
        for s in h.states() {
            expected.extend(s.active_domain());
        }
        assert_eq!(h.relevant(), expected);
    }
}

#[test]
fn restriction_keeps_only_inside_tuples_and_is_idempotent() {
    let mut rng = Rng::seed_from_u64(12);
    for _ in 0..200 {
        let sc = schema();
        let h = build(&sc, &gen_spec(&mut rng));
        let keep = gen_keep(&mut rng);
        let r = h.restrict(&keep);
        assert!(r.relevant().is_subset(&keep));
        // Tuples fully inside `keep` survive; others are gone.
        for (t, s) in h.states().iter().enumerate() {
            for p in sc.preds() {
                for tuple in s.relation(p).iter() {
                    let inside = tuple.iter().all(|v| keep.contains(v));
                    assert_eq!(r.state(t).holds(p, tuple), inside);
                }
            }
        }
        assert_eq!(r.restrict(&keep), r, "restriction must be idempotent");
    }
}

#[test]
fn prefix_then_relevant_shrinks() {
    let mut rng = Rng::seed_from_u64(13);
    for _ in 0..200 {
        let sc = schema();
        let h = build(&sc, &gen_spec(&mut rng));
        let mut prev = BTreeSet::new();
        for n in 1..=h.len() {
            let r = h.prefix(n).relevant();
            assert!(prev.is_subset(&r), "relevant sets grow with the prefix");
            prev = r;
        }
        assert_eq!(prev, h.relevant());
    }
}

#[test]
fn transactions_replay_histories() {
    let mut rng = Rng::seed_from_u64(14);
    for _ in 0..200 {
        // Any history can be reconstructed by delete-all/insert-all
        // transactions, and the apply path agrees with push_state.
        let sc = schema();
        let h = build(&sc, &gen_spec(&mut rng));
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
        assert_eq!(replayed, h);
    }
}
