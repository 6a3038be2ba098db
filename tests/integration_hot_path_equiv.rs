//! Append hot path equivalence — incremental letter encoding plus
//! template automata stepping through their edge memo must be
//! observationally *identical* to the reference's full re-encode and
//! re-progression, not merely equivalent.
//!
//! Production patches the previous propositional state in place from
//! the transaction and steps every constraint through lazily built
//! template automata, whose `(state, column)` edges are memoised. Both
//! are pure shortcuts: the patched state must equal a full re-encode,
//! and a memoised edge must land on the residue and verdict the
//! progression pipeline would compute. This suite sweeps 120
//! randomized staggered sessions (fresh elements arriving mid-stream —
//! so delta re-grounding interleaves with the hot path — plus
//! deletions and re-submissions) through two engines fed identical
//! transactions:
//!
//! - **hot** — production (the default options),
//! - **reference** — `CheckOptions::reference()`,
//!
//! and asserts bit-identical event streams, per-append statuses,
//! earliest-violation instants, and trigger firings — plus
//! non-vacuity: the sweep must actually hit the edge memo, patch
//! letters incrementally, and delta re-ground, and production must
//! take every constraint-step on template automata, with no symbolic
//! progression at all.
//!
//! A second sweep chops one transaction stream into random batches and
//! asserts that `append_batch` is observationally identical to
//! appending one transaction at a time.

mod common;

use common::{constraint_steps, schema, sweep, triggers_agree_with_reference, Driver};
use common::{CAP, ONCE_ONLY, PAIR_GUARD, PAIR_NEXT, PAIR_ONCE};
use ticc::core::{CheckOptions, ConstraintId, Engine};
use ticc::fotl::parser::parse;
use ticc::tdb::rng::Rng;
use ticc::tdb::Transaction;

#[test]
fn hot_and_rebuild_agree_on_randomized_sessions() {
    let configs = [CheckOptions::default(), CheckOptions::reference()];
    let mut total_hits = 0u64;
    let mut total_patched = 0u64;
    let mut total_delta = 0u64;
    let violating_runs = sweep(0x5d07, &configs, 6, 0.3, 6..14, |seed, engines, ids| {
        let [hot, reference] = engines else {
            unreachable!()
        };
        // Incremental letter patching interns exactly the letters a
        // rebuild would: the reference's odometer covers the same `|M|`
        // and `|M|^k`.
        for id in ids {
            let gh = hot.context(*id).grounding().stats();
            let gr = reference.context(*id).grounding().stats();
            assert_eq!(gh.m_size, gr.m_size, "seed {seed}: |M| for {id:?}");
            assert_eq!(gh.mappings, gr.mappings, "seed {seed}: |M|^k for {id:?}");
        }

        // The shortcuts only ever *remove* work from the hot side.
        let (sh, sr) = (hot.stats(), reference.stats());
        assert_eq!(sh.appends, sr.appends, "seed {seed}");
        assert_eq!(sh.grounds, sr.grounds, "seed {seed}");
        assert!(sh.sat_checks <= sr.sat_checks, "seed {seed}");
        assert_eq!(sr.encode_patched_atoms, 0, "seed {seed}: reference patches");
        assert_eq!(
            sr.cache.transition_hits + sr.cache.transition_misses,
            0,
            "seed {seed}: reference steps a template"
        );
        // One stepping mechanism: every production constraint-step runs
        // on template automata, and nothing progresses symbolically.
        assert_eq!(sh.progress_steps, 0, "seed {seed}");
        assert_eq!(
            sh.automaton_appends,
            constraint_steps(hot, ids),
            "seed {seed}: a constraint-step left the templates"
        );
        total_hits += sh.cache.transition_hits;
        total_patched += sh.encode_patched_atoms;
        total_delta += sh.delta_grounds;
    });
    // Non-vacuity: the sweep must exercise every shortcut it claims to
    // verify, and produce real violations.
    assert!(
        total_hits > 0,
        "no template edge-memo hits across the sweep"
    );
    assert!(total_patched > 0, "no incremental letter patches");
    assert!(total_delta > 0, "no delta re-grounds");
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

#[test]
fn trigger_engine_agrees_hot_vs_rebuild() {
    triggers_agree_with_reference(0x30c1, CheckOptions::default());
}

#[test]
fn append_batch_agrees_with_serial_appends() {
    // The batched path must be a pure refactoring of the per-tx path:
    // chopping one transaction stream into arbitrary batches yields the
    // same per-tx event streams, statuses, groundings, and semantic
    // counters as appending one at a time.
    let sc = schema();
    let mut multi_tx_batches = 0usize;
    let mut violating_runs = 0usize;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x51c7 ^ seed);
        let phis = [
            parse(&sc, ONCE_ONLY).unwrap(),
            parse(&sc, PAIR_ONCE).unwrap(),
            parse(&sc, CAP).unwrap(),
            parse(&sc, PAIR_GUARD).unwrap(),
            parse(&sc, PAIR_NEXT).unwrap(),
        ];
        let mut serial = Engine::new(sc.clone(), CheckOptions::default());
        let mut batched = Engine::new(sc.clone(), CheckOptions::default());
        let mut ids: Vec<ConstraintId> = Vec::new();
        for (i, phi) in phis.iter().enumerate() {
            let a = serial.add_constraint(format!("c{i}"), phi.clone()).unwrap();
            let b = batched
                .add_constraint(format!("c{i}"), phi.clone())
                .unwrap();
            assert_eq!(a, b);
            ids.push(a);
        }

        // One transaction stream, two consumers.
        let mut drv = Driver::new(8, 0.4);
        let total = rng.gen_range_usize(5..12);
        let txs: Vec<Transaction> = (0..total).map(|_| drv.step(&sc, &mut rng)).collect();

        let mut serial_events = Vec::with_capacity(total);
        for tx in &txs {
            serial_events.push(serial.append(tx).unwrap());
        }
        if serial_events.iter().any(|ev| !ev.is_empty()) {
            violating_runs += 1;
        }

        // Chop the same stream into random batches (sizes 1–3).
        let mut i = 0;
        while i < txs.len() {
            let n = rng.gen_range_usize(1..4).min(txs.len() - i);
            if n > 1 {
                multi_tx_batches += 1;
            }
            let ev = batched.append_batch(&txs[i..i + n]).unwrap();
            assert_eq!(
                &serial_events[i..i + n],
                ev.as_slice(),
                "seed {seed}: batch at {i} diverges from serial appends"
            );
            i += n;
        }

        for id in &ids {
            assert_eq!(serial.status(*id), batched.status(*id), "seed {seed}");
            assert_eq!(
                serial.context(*id).grounding().stats(),
                batched.context(*id).grounding().stats(),
                "seed {seed}: GroundStats diverge for {id:?}"
            );
        }

        let ss = serial.stats();
        let sb = batched.stats();
        assert_eq!(ss.appends, sb.appends, "seed {seed}");
        assert_eq!(ss.grounds, sb.grounds, "seed {seed}");
        assert_eq!(ss.regrounds, sb.regrounds, "seed {seed}");
        assert_eq!(ss.delta_grounds, sb.delta_grounds, "seed {seed}");
        assert_eq!(ss.fast_appends, sb.fast_appends, "seed {seed}");
        assert_eq!(ss.sat_checks, sb.sat_checks, "seed {seed}");
        assert_eq!(ss.batches, 0, "seed {seed}: serial path never batches");
    }
    // The sweep must actually exercise multi-tx batches, or the
    // equalities above are vacuous.
    assert!(
        multi_tx_batches >= 100,
        "only {multi_tx_batches} multi-tx batches across the sweep"
    );
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}
