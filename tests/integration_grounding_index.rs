//! Grounding-strategy equivalence — production's indexed grounding
//! must produce identical check results to the reference's odometer on
//! every workload.
//!
//! The indexed strategy enumerates instantiations from the occurrence
//! index instead of sweeping the `|M|^k` cross product; everything it
//! skips provably folds to one canonical rigid-false residue, so the
//! observable outcome — event streams, statuses, earliest-violation
//! instants — is the same as the blind odometer. The randomized sweep
//! covers staggered
//! sessions (fresh elements mid-stream, deletions, re-submissions)
//! over 120 seeds; a directed sparse case checks that the pruning
//! actually engages (`inst_pruned > 0`).

mod common;

use common::sweep;
use ticc::core::{CheckOptions, Engine, GroundStrategy};
use ticc::fotl::{Formula, Term};
use ticc::tdb::rng::Rng;
use ticc::tdb::{Schema, Transaction, Value};

#[test]
fn indexed_and_odometer_agree_on_randomized_sessions() {
    let configs = [CheckOptions::default(), CheckOptions::reference()];
    let mut pruning_runs = 0usize;
    let violating_runs = sweep(0xe15a, &configs, 8, 0.4, 4..9, |seed, engines, ids| {
        let [idx, odo] = engines else { unreachable!() };
        // The strategies must agree on everything semantic: same |M|,
        // same instantiation-space size.
        for id in ids {
            let gi = idx.context(*id).grounding().stats();
            let go = odo.context(*id).grounding().stats();
            assert_eq!(gi.m_size, go.m_size, "seed {seed}: |M| diverges");
            assert_eq!(gi.mappings, go.mappings, "seed {seed}: |M|^k diverges");
            assert_eq!(
                go.inst_enumerated, go.mappings,
                "seed {seed}: the odometer grounds the full cross product"
            );
        }

        let (si, so) = (idx.stats(), odo.stats());
        assert_eq!(si.appends, so.appends, "seed {seed}");
        assert_eq!(si.grounds, so.grounds, "seed {seed}");
        assert_eq!(so.inst_pruned, 0, "seed {seed}: odometer must not prune");
        if si.inst_pruned > 0 {
            pruning_runs += 1;
        }
    });
    // The sweep must actually exercise the index and produce real
    // violations, or the equalities above are vacuous.
    assert!(pruning_runs >= 100, "only {pruning_runs}/120 runs pruned");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

/// A directed sparse case: a `k = 3` chain constraint over a binary
/// relation with a large active domain and few tuples per state — the
/// shape the index is built for. The prune counters must be non-zero
/// and the verdicts identical to the odometer.
#[test]
fn sparse_chain_prunes_and_matches_the_odometer() {
    let sc = Schema::builder().pred("E", 2).build();
    let e = sc.pred("E").unwrap();
    let var = |i: usize| Term::var(format!("x{i}"));
    let body = Formula::and_all((1..3).map(|i| Formula::pred(e, vec![var(i), var(i + 1)])));
    let phi = Formula::forall_many((1..=3).map(|i| format!("x{i}")), body.not().always());

    let mut rng = Rng::seed_from_u64(0xe15b);
    let mut idx = Engine::new(sc.clone(), CheckOptions::default());
    let mut odo = Engine::new(sc.clone(), CheckOptions::reference());
    let id = idx.add_constraint("chain", phi.clone()).unwrap();
    odo.add_constraint("chain", phi).unwrap();

    let mut prev: Vec<Vec<Value>> = Vec::new();
    for _ in 0..12 {
        let mut tx = Transaction::new();
        for t in prev.drain(..) {
            tx = tx.delete(e, t);
        }
        for _ in 0..3 {
            let a = rng.gen_range(0..32);
            let b = rng.gen_range(0..32);
            tx = tx.insert(e, vec![a, b]);
            prev.push(vec![a, b]);
        }
        let ev_idx = idx.append(&tx).unwrap();
        assert_eq!(ev_idx, odo.append(&tx).unwrap(), "indexed vs odometer");
        assert_eq!(idx.status(id), odo.status(id));
    }

    // The gate must have engaged and actually pruned.
    assert_eq!(
        idx.context(id).grounding().strategy(),
        GroundStrategy::Indexed
    );
    let si = idx.stats();
    assert!(si.inst_pruned > 0, "sparse workload must prune");
    assert!(si.inst_enumerated > 0);
    assert_eq!(odo.stats().inst_pruned, 0);
}
