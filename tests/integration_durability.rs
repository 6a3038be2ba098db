//! Durability equivalence — snapshot→restore and WAL replay must be
//! observationally *identical* to an engine that never went down.
//!
//! Theorem 4.1 is what makes this more than a serialization test: the
//! monitor's complete state is the current database plus bounded
//! per-constraint residues, so a snapshot captures everything and a
//! restore is `O(|snapshot|)`. The suite sweeps 120 randomized
//! staggered sessions (fresh elements mid-stream, deletions,
//! re-submissions) through three observers fed identical transactions:
//!
//! - **live** — one engine, never interrupted;
//! - **durable** — a store-backed `Session` writing a WAL + snapshots,
//!   killed after every few steps by dropping it and re-opening the
//!   store (odd seeds run under `HistoryBudget::Window(4)`, so crashes
//!   also land between a truncation and the next checkpoint);
//! - **cold** — a fresh engine rebuilt from scratch at the end by
//!   re-registering the constraints and replaying every transaction.
//!
//! All three must agree on event streams, per-append statuses,
//! instantiation-level `GroundStats`, earliest-violation instants, and
//! trigger firings.

use std::sync::Arc;
use ticc::core::{
    earliest_violation, Action, CheckOptions, ConstraintId, Durability, Engine, Error,
    HistoryBudget, MonitorEvent, OpenSummary, Session, Status, Trigger, TriggerEngine,
};
use ticc::fotl::parser::parse;
use ticc::fotl::Formula;
use ticc::tdb::rng::Rng;
use ticc::tdb::{Schema, Transaction, Value};

const ONCE_ONLY: &str = "forall x. G (Sub(x) -> X G !Sub(x))";
const PAIR_ONCE: &str = "forall x y. G (Rep(x, y) -> X G !Rep(x, y))";
const CAP: &str = "G !Sub(999)";

fn schema() -> Arc<Schema> {
    Schema::builder().pred("Sub", 1).pred("Rep", 2).build()
}

fn phis(sc: &Schema) -> Vec<Formula> {
    vec![
        parse(sc, ONCE_ONLY).unwrap(),
        parse(sc, PAIR_ONCE).unwrap(),
        parse(sc, CAP).unwrap(),
    ]
}

fn temp_store(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ticc-durability-{tag}-{}-{seed}.wal",
        std::process::id()
    ))
}

/// Same staggered workload as the hot-path equivalence suite.
struct Driver {
    seen: Vec<Value>,
    sub_present: Vec<Value>,
    rep_present: Vec<(Value, Value)>,
    next_fresh: Value,
    max_elements: usize,
}

impl Driver {
    fn new(max_elements: usize) -> Self {
        Driver {
            seen: Vec::new(),
            sub_present: Vec::new(),
            rep_present: Vec::new(),
            next_fresh: 10,
            max_elements,
        }
    }

    fn pick(&mut self, rng: &mut Rng) -> Value {
        if self.seen.is_empty() || (self.seen.len() < self.max_elements && rng.gen_bool(0.3)) {
            let v = self.next_fresh;
            self.next_fresh += 1;
            self.seen.push(v);
            v
        } else {
            self.seen[rng.gen_range_usize(0..self.seen.len())]
        }
    }

    fn step(&mut self, sc: &Schema, rng: &mut Rng) -> Transaction {
        let sub = sc.pred("Sub").unwrap();
        let rep = sc.pred("Rep").unwrap();
        let mut tx = Transaction::new();
        self.sub_present.retain(|&v| {
            if rng.gen_bool(0.4) {
                tx = std::mem::take(&mut tx).delete(sub, vec![v]);
                false
            } else {
                true
            }
        });
        self.rep_present.retain(|&(a, b)| {
            if rng.gen_bool(0.4) {
                tx = std::mem::take(&mut tx).delete(rep, vec![a, b]);
                false
            } else {
                true
            }
        });
        for _ in 0..rng.gen_range_usize(0..3) {
            let v = self.pick(rng);
            tx = std::mem::take(&mut tx).insert(sub, vec![v]);
            if !self.sub_present.contains(&v) {
                self.sub_present.push(v);
            }
        }
        for _ in 0..rng.gen_range_usize(0..2) {
            let a = self.pick(rng);
            let b = self.pick(rng);
            tx = std::mem::take(&mut tx).insert(rep, vec![a, b]);
            if !self.rep_present.contains(&(a, b)) {
                self.rep_present.push((a, b));
            }
        }
        tx
    }
}

fn register(engine: &mut Engine, phis: &[Formula]) -> Vec<ConstraintId> {
    phis.iter()
        .enumerate()
        .map(|(i, phi)| engine.add_constraint(format!("c{i}"), phi.clone()).unwrap())
        .collect()
}

fn register_session(session: &mut Session, phis: &[Formula]) -> Vec<ConstraintId> {
    phis.iter()
        .enumerate()
        .map(|(i, phi)| {
            session
                .add_constraint(&format!("c{i}"), phi.clone())
                .unwrap()
        })
        .collect()
}

/// Opens (or reopens) the store-backed session at `path` over
/// [`schema`].
fn open_durable(path: &std::path::Path, opts: CheckOptions) -> (Session, OpenSummary) {
    Session::builder()
        .options(opts)
        .store(path)
        .pred("Sub", 1)
        .pred("Rep", 2)
        .open()
        .unwrap()
}

fn resub_trigger(sc: &Schema) -> Formula {
    parse(sc, "F (Sub(x) & X F Sub(x))").unwrap()
}

/// Histories (the resident window, where it starts, and the full
/// timeline through the spill tier), statuses, grounding statistics
/// and residues all agree.
fn assert_engines_agree(seed: u64, when: &str, a: &Engine, b: &Engine, ids: &[ConstraintId]) {
    assert_eq!(
        a.history().base(),
        b.history().base(),
        "seed {seed} {when}: retention horizons diverge"
    );
    assert_eq!(
        a.history().states(),
        b.history().states(),
        "seed {seed} {when}: histories diverge"
    );
    assert_eq!(
        a.full_history().unwrap().states(),
        b.full_history().unwrap().states(),
        "seed {seed} {when}: full histories diverge"
    );
    for id in ids {
        assert_eq!(
            a.status(*id),
            b.status(*id),
            "seed {seed} {when}: status diverges for {id:?}"
        );
        assert_eq!(
            a.context(*id).grounding().stats(),
            b.context(*id).grounding().stats(),
            "seed {seed} {when}: GroundStats diverge for {id:?}"
        );
        assert_eq!(
            a.context(*id).residue(),
            b.context(*id).residue(),
            "seed {seed} {when}: residues diverge for {id:?}"
        );
    }
}

#[test]
fn snapshot_restore_and_cold_replay_match_never_crashed_engine() {
    let sc = schema();
    let mut violating_runs = 0usize;
    let mut total_restarts = 0u64;
    let mut restarts_past_truncation = 0u64;
    for seed in 0..120u64 {
        let mut rng = Rng::seed_from_u64(0xd07a ^ seed);
        let phis = phis(&sc);
        let path = temp_store("equiv", seed);
        let _ = std::fs::remove_file(&path);

        let budget = if seed % 2 == 1 {
            HistoryBudget::Window(4)
        } else {
            HistoryBudget::Unbounded
        };
        let opts = CheckOptions::builder()
            .durability(Durability::Wal)
            .history_budget(budget)
            .build();
        let mut live = Engine::new(sc.clone(), opts);
        let live_ids = register(&mut live, &phis);
        let (mut durable, summary) = open_durable(&path, opts);
        assert!(!summary.resumed, "seed {seed}: store must start fresh");
        let ids = register_session(&mut durable, &phis);
        assert_eq!(ids, live_ids);
        // The trigger rides in the checkpoint's application blob.
        durable.add_trigger("resub", resub_trigger(&sc)).unwrap();
        // Constraints become durable with the first checkpoint.
        durable.checkpoint().unwrap();
        let mut checkpoint_base = 0;

        let mut drv = Driver::new(6);
        let mut txs: Vec<Transaction> = Vec::new();
        let mut all_events: Vec<MonitorEvent> = Vec::new();
        let steps = rng.gen_range_usize(6..14);
        for step in 0..steps {
            let tx = drv.step(&sc, &mut rng);
            let ev_live = live.append(&tx).unwrap();
            let ev_dur = durable.append(&tx).unwrap().events;
            assert_eq!(
                ev_live, ev_dur,
                "seed {seed} step {step}: live vs durable events diverge"
            );
            all_events.extend(ev_live);
            txs.push(tx);

            // Crash-and-reopen mid-stream: drop the session (its store
            // file keeps the WAL) and rebuild from disk. Occasionally
            // checkpoint or compact first, so restarts exercise both
            // snapshot+suffix and snapshot-only recovery.
            if rng.gen_bool(0.3) {
                if rng.gen_bool(0.3) {
                    durable.checkpoint().unwrap();
                    checkpoint_base = durable.history().unwrap().base();
                } else if rng.gen_bool(0.2) {
                    durable.compact().unwrap();
                    checkpoint_base = durable.history().unwrap().base();
                }
                if durable.history().unwrap().base() > checkpoint_base {
                    // The newest snapshot predates a truncation.
                    restarts_past_truncation += 1;
                }
                drop(durable);
                let (reopened, summary) = open_durable(&path, opts);
                assert!(summary.resumed, "seed {seed} step {step}");
                assert_eq!(summary.triggers, 1, "seed {seed} step {step}");
                assert_eq!(summary.truncated_bytes, 0, "seed {seed} step {step}");
                durable = reopened;
                total_restarts += 1;
                let restored = durable.engine().unwrap();
                assert_engines_agree(seed, "after restart", &live, restored, &ids);
            }
        }

        // Final restart: whatever the WAL holds now must reproduce the
        // live engine exactly.
        drop(durable);
        let (restored, _) = open_durable(&path, opts);
        let restored = restored.engine().unwrap();
        assert_engines_agree(seed, "final restore", &live, restored, &ids);

        // Cold replay from scratch (no store): same statuses and
        // grounding statistics, the expensive O(t) baseline the
        // snapshot path must be equivalent to.
        let mut cold = Engine::new(sc.clone(), opts);
        let cold_ids = register(&mut cold, &phis);
        let mut cold_events: Vec<MonitorEvent> = Vec::new();
        for tx in &txs {
            cold_events.extend(cold.append(tx).unwrap());
        }
        assert_eq!(cold_events, all_events, "seed {seed}: cold replay events");
        assert_engines_agree(seed, "cold replay", &cold, restored, &cold_ids);

        // Earliest-violation instants agree on the restored history.
        let (live_full, restored_full) = (
            live.full_history().unwrap(),
            restored.full_history().unwrap(),
        );
        for phi in &phis {
            let a = earliest_violation(&live_full, phi).unwrap();
            let b = earliest_violation(&restored_full, phi).unwrap();
            assert_eq!(a, b, "seed {seed}: earliest violation diverges");
        }

        // Trigger firings agree on the restored history.
        if seed % 8 == 0 {
            let mut t_live = TriggerEngine::new(CheckOptions::default());
            let mut t_rest = TriggerEngine::new(CheckOptions::default());
            for te in [&mut t_live, &mut t_rest] {
                te.add(Trigger {
                    name: "resub".into(),
                    condition: resub_trigger(&sc),
                    action: Action::Log,
                })
                .unwrap();
            }
            let f_live = t_live.evaluate(&live_full).unwrap();
            let f_rest = t_rest.evaluate(&restored_full).unwrap();
            assert_eq!(f_live, f_rest, "seed {seed}: trigger firings diverge");
        }

        if !all_events.is_empty() {
            violating_runs += 1;
        }
        let _ = std::fs::remove_file(&path);
    }
    assert!(
        violating_runs >= 20,
        "only {violating_runs}/120 runs violate"
    );
    assert!(total_restarts >= 60, "only {total_restarts} restarts");
    // Windowed seeds crash between a truncation and the next
    // checkpoint: recovery then starts from a snapshot whose horizon
    // is behind the crashed engine's.
    assert!(
        restarts_past_truncation >= 10,
        "only {restarts_past_truncation} restarts between a truncation and the next checkpoint"
    );
}

#[test]
fn fsync_policy_and_off_policy_log_consistently() {
    let sc = schema();
    let phis = phis(&sc);
    let sub = sc.pred("Sub").unwrap();

    // WalFsync: everything acknowledged is on disk.
    let path = temp_store("fsync", 0);
    let _ = std::fs::remove_file(&path);
    let opts = CheckOptions::builder()
        .durability(Durability::WalFsync)
        .build();
    let (mut s, _) = open_durable(&path, opts);
    register_session(&mut s, &phis);
    s.checkpoint().unwrap();
    s.append(&Transaction::new().insert(sub, vec![1])).unwrap();
    let stats = s.store_stats().unwrap();
    assert!(stats.fsyncs >= 2, "{stats:?}");
    assert_eq!(
        stats.frames, 3,
        "registration, checkpoint, one tx: {stats:?}"
    );
    drop(s);
    let (back, summary) = open_durable(&path, opts);
    assert_eq!(summary.replayed, 1);
    assert_eq!(back.history().unwrap().len(), 1);
    let _ = std::fs::remove_file(&path);

    // Off: appends are not logged; only the snapshot survives.
    let path = temp_store("off", 0);
    let _ = std::fs::remove_file(&path);
    let opts = CheckOptions::builder().durability(Durability::Off).build();
    let (mut s, _) = open_durable(&path, opts);
    register_session(&mut s, &phis);
    s.checkpoint().unwrap();
    s.append(&Transaction::new().insert(sub, vec![1])).unwrap();
    let stats = s.store_stats().unwrap();
    assert_eq!(
        stats.frames, 2,
        "registration and checkpoint only: {stats:?}"
    );
    drop(s);
    let (back, summary) = open_durable(&path, opts);
    assert_eq!(summary.replayed, 0);
    assert_eq!(
        back.history().unwrap().len(),
        0,
        "unlogged appends are lost"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_without_store_errors() {
    let (mut s, _) = Session::builder()
        .pred("Sub", 1)
        .pred("Rep", 2)
        .open()
        .unwrap();
    assert!(matches!(s.checkpoint(), Err(Error::Store(_))));
    assert!(matches!(s.compact(), Err(Error::Store(_))));
    assert!(s.store_stats().is_none());
}

#[test]
fn restored_statuses_include_violations_with_original_instants() {
    let sc = schema();
    let sub = sc.pred("Sub").unwrap();
    let path = temp_store("viol", 0);
    let _ = std::fs::remove_file(&path);
    let opts = CheckOptions::default();
    let (mut s, _) = open_durable(&path, opts);
    let ids = register_session(&mut s, &phis(&sc));
    s.checkpoint().unwrap();
    s.append(&Transaction::new().insert(sub, vec![1])).unwrap();
    // Sub(1) persists → once-only violated at instant 2.
    let ev = s.append(&Transaction::new()).unwrap().events;
    assert_eq!(ev.len(), 1);
    assert_eq!(s.status(ids[0]), Status::Violated { at: 2 });
    s.checkpoint().unwrap();
    drop(s);
    let (back, summary) = open_durable(&path, opts);
    assert!(summary.resumed);
    assert_eq!(summary.replayed, 0, "checkpoint clears the suffix");
    assert_eq!(
        back.status(ids[0]),
        Status::Violated { at: 2 },
        "the violation instant survives the restart"
    );
    let _ = std::fs::remove_file(&path);
}
