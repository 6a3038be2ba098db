//! Parallel determinism — `Threads::Off` vs `Threads::Fixed(4)` must be
//! observationally *identical*, not merely equivalent.
//!
//! The parallel layer shards work at two points: grounding partitions
//! the `|M|^k` instantiation space into per-worker chunks whose
//! letter keys are sealed into the arena in sorted order, and
//! `Engine::append`/`append_batch` dispatch the registered
//! constraints to a persistent worker pool, merging events in
//! `ConstraintId` order. Both merges are designed so interning,
//! formula structure, statuses, and event streams come out
//! bit-identical to the sequential path. This suite
//! sweeps randomized staggered sessions (fresh elements arriving
//! mid-stream, deletions, re-submissions) over ≥100 seeds and asserts
//! exactly that, including the instantiation-level [`GroundStats`] and
//! the earliest-violation instants, plus the trigger engine's fired
//! lists under the same two policies.

mod common;

use common::{schema, Driver, CAP, ONCE_ONLY, PAIR_GUARD, PAIR_NEXT, PAIR_ONCE};
use ticc::core::{
    earliest_violation, Action, CheckOptions, ConstraintId, Engine, Threads, Trigger, TriggerEngine,
};
use ticc::fotl::parser::parse;
use ticc::tdb::rng::Rng;
use ticc::tdb::{History, Transaction};

fn opts(threads: Threads) -> CheckOptions {
    CheckOptions::builder().threads(threads).build()
}

#[test]
fn off_and_fixed4_agree_on_randomized_sessions() {
    let sc = schema();
    let mut fanned_out = 0usize;
    let mut sharded = 0usize;
    let mut violating_runs = 0usize;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0x9a41 ^ seed);
        let phis = [
            parse(&sc, ONCE_ONLY).unwrap(),
            parse(&sc, PAIR_ONCE).unwrap(),
            parse(&sc, CAP).unwrap(),
            parse(&sc, PAIR_GUARD).unwrap(),
            parse(&sc, PAIR_NEXT).unwrap(),
        ];
        let mut off = Engine::new(sc.clone(), opts(Threads::Off));
        let mut par = Engine::new(sc.clone(), opts(Threads::Fixed(4)));
        let mut ids: Vec<ConstraintId> = Vec::new();
        for (i, phi) in phis.iter().enumerate() {
            let a = off.add_constraint(format!("c{i}"), phi.clone()).unwrap();
            let b = par.add_constraint(format!("c{i}"), phi.clone()).unwrap();
            assert_eq!(a, b, "constraint ids must assign identically");
            ids.push(a);
        }

        let mut drv = Driver::new(8, 0.4);
        let mut events = 0usize;
        for _ in 0..rng.gen_range_usize(4..9) {
            let tx = drv.step(&sc, &mut rng);
            let ev_off = off.append(&tx).unwrap();
            let ev_par = par.append(&tx).unwrap();
            assert_eq!(ev_off, ev_par, "seed {seed}: event streams diverge");
            events += ev_off.len();
            for id in &ids {
                assert_eq!(
                    off.status(*id),
                    par.status(*id),
                    "seed {seed}: status diverges"
                );
            }
        }
        if events > 0 {
            violating_runs += 1;
        }

        // The groundings themselves must be bit-identical: same |M|,
        // same instantiation counts, same letter and node totals —
        // chunk-ordered intern replay reproduces the sequential arena.
        for id in &ids {
            assert_eq!(
                off.context(*id).grounding().stats(),
                par.context(*id).grounding().stats(),
                "seed {seed}: GroundStats diverge for {id:?}"
            );
        }

        // Every semantic counter agrees; only the par_* gauges differ.
        let so = off.stats();
        let sp = par.stats();
        assert_eq!(so.appends, sp.appends, "seed {seed}");
        assert_eq!(so.grounds, sp.grounds, "seed {seed}");
        assert_eq!(so.regrounds, sp.regrounds, "seed {seed}");
        assert_eq!(so.delta_grounds, sp.delta_grounds, "seed {seed}");
        assert_eq!(so.fast_appends, sp.fast_appends, "seed {seed}");
        assert_eq!(so.sat_checks, sp.sat_checks, "seed {seed}");
        assert_eq!(so.par_phases, 0, "seed {seed}: Off must never fan out");

        // Earliest-violation instants agree under both policies.
        for phi in &phis {
            let a = earliest_violation(off.history(), phi, &opts(Threads::Off)).unwrap();
            let b = earliest_violation(par.history(), phi, &opts(Threads::Fixed(4))).unwrap();
            assert_eq!(a, b, "seed {seed}: earliest violation diverges");
        }

        if sp.par_phases > 0 {
            fanned_out += 1;
        }
        if sp.par_workers >= 2 {
            sharded += 1;
        }
    }
    // The sweep must actually exercise the parallel machinery and
    // produce real violations, or the equalities above are vacuous.
    assert!(fanned_out >= 100, "only {fanned_out}/120 runs fanned out");
    assert!(
        sharded >= 100,
        "only {sharded}/120 runs used multiple workers"
    );
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

#[test]
fn append_batch_agrees_with_serial_appends_off_vs_fixed4() {
    // The batched path must be a pure refactoring of the per-tx path:
    // chopping one transaction stream into arbitrary batches — swept
    // sequentially or by the persistent worker pool — yields the same
    // per-tx event streams, statuses, groundings, and semantic
    // counters as appending one at a time with `Threads::Off`.
    let sc = schema();
    let mut pooled = 0usize;
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
        let mut serial = Engine::new(sc.clone(), opts(Threads::Off));
        let mut batch_off = Engine::new(sc.clone(), opts(Threads::Off));
        let mut batch_par = Engine::new(sc.clone(), opts(Threads::Fixed(4)));
        let mut ids: Vec<ConstraintId> = Vec::new();
        for (i, phi) in phis.iter().enumerate() {
            let a = serial.add_constraint(format!("c{i}"), phi.clone()).unwrap();
            let b = batch_off
                .add_constraint(format!("c{i}"), phi.clone())
                .unwrap();
            let c = batch_par
                .add_constraint(format!("c{i}"), phi.clone())
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
            ids.push(a);
        }

        // One transaction stream, three consumers.
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
            let chunk = &txs[i..i + n];
            let ev_off = batch_off.append_batch(chunk).unwrap();
            let ev_par = batch_par.append_batch(chunk).unwrap();
            assert_eq!(ev_off, ev_par, "seed {seed}: batched Off vs Fixed(4)");
            assert_eq!(
                &serial_events[i..i + n],
                ev_off.as_slice(),
                "seed {seed}: batch at {i} diverges from serial appends"
            );
            i += n;
        }

        for id in &ids {
            assert_eq!(serial.status(*id), batch_off.status(*id), "seed {seed}");
            assert_eq!(serial.status(*id), batch_par.status(*id), "seed {seed}");
            assert_eq!(
                serial.context(*id).grounding().stats(),
                batch_par.context(*id).grounding().stats(),
                "seed {seed}: GroundStats diverge for {id:?}"
            );
        }

        let ss = serial.stats();
        let so = batch_off.stats();
        let sp = batch_par.stats();
        for (label, s) in [("batched Off", &so), ("batched Fixed(4)", &sp)] {
            assert_eq!(ss.appends, s.appends, "seed {seed}: {label}");
            assert_eq!(ss.grounds, s.grounds, "seed {seed}: {label}");
            assert_eq!(ss.regrounds, s.regrounds, "seed {seed}: {label}");
            assert_eq!(ss.delta_grounds, s.delta_grounds, "seed {seed}: {label}");
            assert_eq!(ss.fast_appends, s.fast_appends, "seed {seed}: {label}");
            assert_eq!(ss.sat_checks, s.sat_checks, "seed {seed}: {label}");
        }
        assert_eq!(ss.batches, 0, "seed {seed}: serial path never batches");
        assert_eq!(so.batches, sp.batches, "seed {seed}");
        assert_eq!(so.batched_txs, sp.batched_txs, "seed {seed}");
        if sp.pool_workers >= 2 {
            pooled += 1;
        }
    }
    // The sweep must actually exercise the pool and multi-tx batches,
    // or the equalities above are vacuous.
    assert!(pooled >= 100, "only {pooled}/120 runs created the pool");
    assert!(
        multi_tx_batches >= 100,
        "only {multi_tx_batches} multi-tx batches across the sweep"
    );
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
}

#[test]
fn trigger_engine_agrees_off_vs_fixed4() {
    let sc = schema();
    for seed in 0..25u64 {
        let mut rng = Rng::seed_from_u64(0x7219 ^ seed);
        let mut off = TriggerEngine::new(opts(Threads::Off));
        let mut par = TriggerEngine::new(opts(Threads::Fixed(4)));
        for (i, cond) in ["F (Sub(x) & X F Sub(x))", "F Rep(x, y)"]
            .iter()
            .enumerate()
        {
            let c = parse(&sc, cond).unwrap();
            off.add(Trigger {
                name: format!("t{i}"),
                condition: c.clone(),
                action: Action::Log,
            })
            .unwrap();
            par.add(Trigger {
                name: format!("t{i}"),
                condition: c,
                action: Action::Log,
            })
            .unwrap();
        }

        let mut h = History::new(sc.clone());
        let mut drv = Driver::new(5, 0.4);
        let mut fired_total = 0usize;
        for _ in 0..4 {
            let tx = drv.step(&sc, &mut rng);
            h.apply(&tx).unwrap();
            let f_off = off.evaluate(&h).unwrap();
            let f_par = par.evaluate(&h).unwrap();
            assert_eq!(f_off, f_par, "seed {seed}: fired lists diverge");
            fired_total += f_off.len();
        }
        let _ = fired_total;

        let so = off.stats();
        let sp = par.stats();
        assert_eq!(so.grounds, sp.grounds, "seed {seed}");
        assert_eq!(so.sat_checks, sp.sat_checks, "seed {seed}");
    }
}
