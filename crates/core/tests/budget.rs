//! History-budget equivalence: bounded-memory engines must be
//! *observationally identical* to unbounded ones — same violation
//! events in the same order, same statuses at every instant — across a
//! randomized 120-seed sweep, including a snapshot/restore round trip
//! mid-stream. The budget changes only where states live (resident
//! suffix vs. spill tier), never what the engine says.

use std::sync::Arc;
use ticc_core::{CheckOptions, Engine, HistoryBudget, MonitorEvent, Status};
use ticc_fotl::parser::parse;
use ticc_fotl::Formula;
use ticc_tdb::rng::Rng;
use ticc_tdb::{History, Schema, Transaction};

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
}

fn formula_pool(sc: &Schema) -> Vec<Formula> {
    [
        "forall x. G (Sub(x) -> X G !Sub(x))",
        "G !Sub(5)",
        "forall x. G (Fill(x) -> F Sub(x))",
        "forall x. G !(Sub(x) & Fill(x))",
        // FIFO over two variables: instances share letters, so new
        // units replay their templates through spilled instants next
        // to bound units that read the same letters.
        "forall x y. G !(x != y & Sub(x) & \
         ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))",
    ]
    .iter()
    .map(|src| parse(sc, src).unwrap())
    .collect()
}

/// A random transaction stream of `steps` delete-all/insert-some
/// transactions. The domain widens as the stream progresses, so new
/// relevant elements keep arriving — after truncation has begun, that
/// forces delta re-grounds to replay through the cold tier.
fn gen_stream(rng: &mut Rng, sc: &Arc<Schema>, steps: usize) -> Vec<Transaction> {
    let mut txs = Vec::with_capacity(steps);
    let mut prev: Vec<(&str, u64)> = Vec::new();
    for t in 0..steps {
        let domain = (2 + t as u64 / 5).min(4);
        let mut tx = Transaction::new();
        for &(p, v) in &prev {
            tx = tx.delete(sc.pred(p).unwrap(), vec![v]);
        }
        prev.clear();
        for p in ["Sub", "Fill"] {
            for _ in 0..rng.gen_range_usize(0..3) {
                let v = rng.gen_range(0..domain);
                if !prev.contains(&(p, v)) {
                    tx = tx.insert(sc.pred(p).unwrap(), vec![v]);
                    prev.push((p, v));
                }
            }
        }
        txs.push(tx);
    }
    txs
}

/// The observable record of a run: per-step violation events plus the
/// per-step status of every constraint.
type Record = Vec<(Vec<MonitorEvent>, Vec<Status>)>;

/// One run: appends the stream under `budget`, snapshotting and
/// restoring the engine halfway through when `restore_midway`, and
/// returns the observable record and the truncation count.
fn run(
    sc: &Arc<Schema>,
    phis: &[&Formula],
    txs: &[Transaction],
    budget: HistoryBudget,
    restore_midway: bool,
) -> (Record, u64) {
    let opts = CheckOptions::builder().history_budget(budget).build();
    let mut engine = Engine::with_history(History::new(sc.clone()), opts);
    let ids: Vec<_> = phis
        .iter()
        .enumerate()
        .map(|(i, phi)| {
            engine
                .add_constraint(format!("c{i}"), (*phi).clone())
                .unwrap()
        })
        .collect();
    let mut record = Vec::with_capacity(txs.len());
    for (t, tx) in txs.iter().enumerate() {
        if restore_midway && t == txs.len() / 2 {
            let snap = engine.snapshot_bytes(&[]);
            let (restored, app) = Engine::restore_bytes(&snap, opts).unwrap();
            assert!(app.is_empty());
            engine = restored;
        }
        let events = engine.append(tx).unwrap();
        let statuses = ids.iter().map(|&id| engine.status(id)).collect();
        record.push((events, statuses));
    }
    (record, engine.stats().history.truncations)
}

#[test]
fn bounded_budgets_are_bit_identical_across_120_seeds() {
    let sc = schema();
    let pool = formula_pool(&sc);
    let mut total_truncations = 0u64;
    // Each seed pits one bounded configuration against the unbounded
    // baseline; the budget rotates across seeds and every other seed
    // additionally snapshots + restores the bounded engine mid-stream.
    let budgets = [
        HistoryBudget::Window(3),
        HistoryBudget::Window(6),
        HistoryBudget::Bytes(512),
    ];
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let steps = rng.gen_range_usize(8..18);
        let txs = gen_stream(&mut rng, &sc, steps);
        let phis = [
            &pool[seed as usize % pool.len()],
            &pool[(seed as usize + 1) % pool.len()],
        ];
        let (baseline, base_truncs) = run(&sc, &phis, &txs, HistoryBudget::Unbounded, false);
        assert_eq!(base_truncs, 0, "unbounded engines never truncate");
        let budget = budgets[seed as usize % budgets.len()];
        let restore_midway = seed % 2 == 1;
        let (bounded, truncs) = run(&sc, &phis, &txs, budget, restore_midway);
        assert_eq!(
            bounded, baseline,
            "seed {seed} diverged under {budget} (restore mid-stream: {restore_midway})"
        );
        total_truncations += truncs;
    }
    assert!(
        total_truncations > 40,
        "the sweep exercised truncation only {total_truncations} time(s) — streams too short?"
    );
}

/// Tight windows leave the resident suffix O(window) while the
/// unbounded twin retains every instant — the memory claim behind the
/// whole subsystem, checked on the actual gauges.
#[test]
fn window_budget_bounds_resident_states() {
    let sc = schema();
    let pool = formula_pool(&sc);
    let mut rng = Rng::seed_from_u64(7);
    let txs = gen_stream(&mut rng, &sc, 120);
    let phis = [&pool[0], &pool[3]];
    let opts = |b| CheckOptions::builder().history_budget(b).build();
    let mut bounded =
        Engine::with_history(History::new(sc.clone()), opts(HistoryBudget::Window(4)));
    let mut unbounded =
        Engine::with_history(History::new(sc.clone()), opts(HistoryBudget::Unbounded));
    for (i, phi) in phis.iter().enumerate() {
        bounded
            .add_constraint(format!("c{i}"), (*phi).clone())
            .unwrap();
        unbounded
            .add_constraint(format!("c{i}"), (*phi).clone())
            .unwrap();
    }
    for tx in &txs {
        bounded.append(tx).unwrap();
        unbounded.append(tx).unwrap();
    }
    let bs = bounded.stats().history;
    let us = unbounded.stats().history;
    assert_eq!(unbounded.history().len(), txs.len());
    assert_eq!(us.spilled_instants, 0);
    assert_eq!(
        bounded.history().len(),
        txs.len(),
        "truncation must not change the logical length"
    );
    assert!(
        bs.resident_states <= 16,
        "window(4) retains O(window) states, got {}",
        bs.resident_states
    );
    assert_eq!(
        bs.spilled_instants + bs.resident_states,
        txs.len() as u64,
        "every instant is either resident or spilled"
    );
    assert!(
        bs.spilled_distinct < bs.spilled_instants,
        "cyclic churn dedups: {} distinct pages for {} spilled instants",
        bs.spilled_distinct,
        bs.spilled_instants
    );
    assert!(bs.truncations > 0 && bs.reclaimed_bytes > 0);
    assert!(
        us.resident_states >= 10 * bs.resident_states,
        "unbounded resident {} vs bounded {}",
        us.resident_states,
        bs.resident_states
    );
    // The full history materialises bit-identically through the tier.
    let full = bounded.full_history().unwrap();
    for t in 0..txs.len() {
        assert_eq!(full.state(t), unbounded.history().state(t), "instant {t}");
    }
}

/// An obligation opened in a spilled instant must reach the units of an
/// element that arrives after the truncation. `fifo`'s instance
/// `(x, y) = (1, 5)` owes "5 is not filled before 1" from the instant
/// `Sub(1)` held — which the window has spilled by the time 5 arrives —
/// so the new units' template replay has to read the cold prefix, or
/// the out-of-order `Fill(5)` goes unreported.
#[test]
fn new_units_replay_obligations_from_spilled_instants() {
    let sc = schema();
    let fifo = formula_pool(&sc).pop().unwrap();
    let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
    let mut txs = vec![
        Transaction::new().insert(sub, vec![1]),
        Transaction::new().delete(sub, vec![1]),
    ];
    const ARRIVAL: usize = 8;
    txs.resize(ARRIVAL, Transaction::new());
    txs.push(Transaction::new().insert(sub, vec![5]));
    txs.push(Transaction::new().insert(fill, vec![5]));
    let run = |budget| {
        let opts = CheckOptions::builder().history_budget(budget).build();
        let mut engine = Engine::with_history(History::new(sc.clone()), opts);
        let id = engine.add_constraint("fifo", fifo.clone()).unwrap();
        let built = engine.stats();
        let mut base_at_arrival = 0;
        for (t, tx) in txs.iter().enumerate() {
            if t == ARRIVAL {
                base_at_arrival = engine.history().base();
            }
            engine.append(tx).unwrap();
        }
        let s = engine.stats();
        assert!(s.replay_steps > 0, "{s:?}");
        assert_eq!(s.progress_steps, built.progress_steps, "{s:?}");
        (engine.status(id), base_at_arrival)
    };
    let (unbounded, _) = run(HistoryBudget::Unbounded);
    assert_eq!(unbounded, Status::Violated { at: txs.len() });
    let (bounded, base) = run(HistoryBudget::Window(2));
    assert!(base > 0, "Sub(1) must be spilled before 5 arrives");
    assert_eq!(bounded, unbounded);
}
