//! `steady_orders`: an in-process `Engine` with no store, checking the
//! four-constraint order suite against steady submit→fill churn over a
//! small fixed domain, under a history window. The traced run also
//! serves the same suite over the wire (`served`).
//!
//! The measured phase runs a fixed number of fixed-size blocks of
//! appends (scaled by `--seconds`). Each block gives one throughput and
//! one latency distribution; the reported figures are the fast decile
//! over blocks (`stats::FAST`), so a spell of CPU contention moves the
//! blocks it covers, not the result. Set-ups and restores are spread
//! over the run for the same reason.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ticc_core::{CheckOptions, Engine, EngineStats, HistoryBudget, MonitorEvent, Status};
use ticc_fotl::{parse, Formula};
use ticc_tdb::{Schema, Transaction};

use crate::gate;
use crate::orders::{order_schema, Churn, SteadyViolation, STEADY_SUITE};
use crate::stats::{fastest_rate, fastest_time, nanos, percentile, us, Rng};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};

/// Order ids in the churn.
const DOMAIN: usize = 8;
/// History window: truncation every ~WINDOW appends, 0.1% of appends,
/// far rarer than the 1% above p99.
const WINDOW: usize = 1024;
/// Churn appended during set-up (also the warm-up).
const PRELOAD: usize = 20_000;
/// Equal shares of the measured blocks; each is followed by a timed
/// restore of the run's starting snapshot, so the restores are spread
/// over the run. `recover_s` is their fast decile.
const SHARES: usize = 40;
/// Set-ups per run: the one the run continues from, then one after
/// every `SHARES / (SETUPS − 1)` shares; `setup_s` is their fast decile
/// (the fastest of nine).
const SETUPS: usize = 9;
/// Appends per measured block.
const BLOCK: usize = 8192;
/// Measured blocks per second of `--seconds`. The work is fixed, not
/// the time: every run of a seed appends the same transactions, so the
/// history (and with it memory and restore cost) ends the same size.
const BLOCKS_PER_SECOND: f64 = 8.0;
/// Suite parses per `fotl.parse_us` measurement.
const PARSES: usize = 200;

fn opts() -> CheckOptions {
    CheckOptions::builder()
        .history_budget(HistoryBudget::Window(WINDOW))
        .build()
}

pub fn parse_suite(schema: &Schema, suite: &[(&str, &str)]) -> Vec<(String, Formula)> {
    suite
        .iter()
        .map(|(name, src)| {
            (
                name.to_string(),
                parse(schema, src).expect("suite source parses"),
            )
        })
        .collect()
}

/// Mean time to parse the whole suite once, in µs.
pub fn parse_us(schema: &Schema, suite: &[(&str, &str)]) -> f64 {
    let t0 = Instant::now();
    for _ in 0..PARSES {
        black_box(parse_suite(schema, suite));
    }
    us(nanos(t0.elapsed())) / PARSES as f64
}

pub fn events(ev: &[MonitorEvent]) -> impl Iterator<Item = (&str, usize)> {
    ev.iter().map(|e| (e.name.as_str(), e.at))
}

/// An engine's snapshot bytes and what an engine restored from them
/// must answer.
pub struct Snapshot {
    bytes: Vec<u8>,
    opts: CheckOptions,
    statuses: Vec<Status>,
    len: usize,
}

impl Snapshot {
    pub fn of(engine: &Engine) -> Self {
        Snapshot {
            bytes: engine.snapshot_bytes(&[]),
            opts: engine.opts(),
            statuses: engine.constraints().map(|id| engine.status(id)).collect(),
            len: engine.history().len(),
        }
    }

    /// Restores an engine from the snapshot and checks it answers the
    /// same statuses and history length; returns the restore time.
    pub fn restore_timed(&self) -> Result<Duration, String> {
        let t0 = Instant::now();
        let (restored, _) =
            Engine::restore_bytes(&self.bytes, self.opts).map_err(|e| format!("restore: {e}"))?;
        let took = t0.elapsed();
        let statuses: Vec<_> = restored
            .constraints()
            .map(|id| restored.status(id))
            .collect();
        if statuses != self.statuses || restored.history().len() != self.len {
            return Err(format!(
                "restore diverged: {:?} at {} vs {statuses:?} at {}",
                self.statuses,
                self.len,
                restored.history().len()
            ));
        }
        Ok(took)
    }
}

/// Appends `tx`, counting it and checking it reports no violation.
pub fn append_clean(engine: &mut Engine, tx: &Transaction, out: &mut Outcome) -> bool {
    match engine.append(tx) {
        Ok(ev) => {
            out.check(gate::expect_clean(events(&ev)));
            true
        }
        Err(e) => {
            out.fatal("append", e);
            false
        }
    }
}

fn build(schema: &std::sync::Arc<Schema>, seed: u64, out: &mut Outcome) -> Option<(Engine, Churn)> {
    let mut engine = Engine::new(schema.clone(), opts());
    for (name, phi) in parse_suite(schema, &STEADY_SUITE) {
        if let Err(e) = engine.add_constraint(name, phi) {
            out.fatal("add_constraint", e);
            return None;
        }
    }
    let mut churn = Churn::new(Rng::derive(seed, 0), DOMAIN);
    for _ in 0..PRELOAD {
        if !append_clean(&mut engine, &churn.next_tx().to_engine(schema), out) {
            return None;
        }
    }
    Some((engine, churn))
}

/// Per-block figures of a measured phase.
#[derive(Default)]
struct Blocks {
    rate: Vec<f64>,
    p50_us: Vec<f64>,
}

/// Runs `n` blocks of appends.
fn measure(
    engine: &mut Engine,
    churn: &mut Churn,
    schema: &Schema,
    n: usize,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Blocks {
    let mut blocks = Blocks::default();
    let mut lat = vec![0u64; BLOCK];
    let mut txs: Vec<Transaction> = Vec::with_capacity(BLOCK);
    let mut req = 0u64;
    for _ in 0..n {
        txs.clear();
        txs.extend((0..BLOCK).map(|_| churn.next_tx().to_engine(schema)));
        let block_span = tracer
            .as_deref_mut()
            .map_or(ROOT, |t| t.open("steady.block", ROOT, 0));
        let t_block = Instant::now();
        for (slot, tx) in lat.iter_mut().zip(&txs) {
            let t0 = Instant::now();
            let result = engine.append(tx);
            let t1 = Instant::now();
            *slot = nanos(t1 - t0);
            req += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.record("core.engine.append", t0, t1, block_span, req);
            }
            match result {
                Ok(ev) => out.check(gate::expect_clean(events(&ev))),
                Err(e) => {
                    out.fatal("append", e);
                    return blocks;
                }
            }
        }
        let wall = t_block.elapsed();
        if let Some(t) = tracer.as_deref_mut() {
            t.close(block_span);
        }
        lat.sort_unstable();
        blocks.rate.push(BLOCK as f64 / wall.as_secs_f64());
        blocks.p50_us.push(us(percentile(&lat, 0.50)));
    }
    blocks
}

pub fn run(args: &Args, out: &mut Outcome) {
    let schema = order_schema();
    let timed_build = |out: &mut Outcome| {
        let t0 = Instant::now();
        let built = build(&schema, args.seed, out);
        (built, t0.elapsed().as_secs_f64())
    };
    let (built, first_setup) = timed_build(out);
    let Some((mut engine, mut churn)) = built else {
        return;
    };
    let mut setups = vec![first_setup];
    let blocks = ((args.seconds * BLOCKS_PER_SECOND).round() as usize).max(2);

    if args.trace {
        out.set("fotl.parse_us", parse_us(&schema, &STEADY_SUITE));
        out.set(
            "ptl.automaton.compile_ms",
            engine.stats().automaton_compile_time.as_secs_f64() * 1e3,
        );
        // Half untraced, half traced: the rate gap is the tracing
        // overhead; per-layer figures come from the traced half.
        let plain = measure(&mut engine, &mut churn, &schema, blocks / 2, None, out);
        let traced_blocks = blocks - blocks / 2;
        // One span per block and one per append in it.
        let mut tracer = Tracer::with_capacity(traced_blocks * (BLOCK + 1));
        let before = engine.stats();
        let traced = measure(
            &mut engine,
            &mut churn,
            &schema,
            traced_blocks,
            Some(&mut tracer),
            out,
        );
        let after = engine.stats();
        engine_layers(&before, &after, STEADY_SUITE.len(), &tracer, out);
        let (p, t) = (fastest_rate(&plain.rate), fastest_rate(&traced.rate));
        out.set("trace.overhead_pct", (p - t) / p * 100.0);
        out.set("trace.spans", tracer.span_count() as f64);
        write_trace(args, &tracer);
    } else {
        // Timed restores and set-ups (of a fresh engine, dropped again)
        // between shares of the measured blocks.
        let start = Snapshot::of(&engine);
        let mut all = Blocks::default();
        let mut restores = Vec::with_capacity(SHARES);
        for k in 0..SHARES {
            let n = blocks * (k + 1) / SHARES - blocks * k / SHARES;
            let part = measure(&mut engine, &mut churn, &schema, n, None, out);
            if part.rate.len() < n {
                return;
            }
            all.rate.extend(part.rate);
            all.p50_us.extend(part.p50_us);
            match start.restore_timed() {
                Ok(d) => {
                    out.gate(Ok(()));
                    restores.push(d.as_secs_f64());
                }
                Err(e) => out.gate(Err(e)),
            }
            if (k + 1) % (SHARES / (SETUPS - 1)) == 0 {
                let (built, took) = timed_build(out);
                if built.is_none() {
                    return;
                }
                setups.push(took);
            }
        }
        out.set("setup_s", fastest_time(&setups));
        out.set("appends_per_s", fastest_rate(&all.rate));
        out.set("append_p50_us", fastest_time(&all.p50_us));
        if !restores.is_empty() {
            out.set("recover_s", fastest_time(&restores));
        }
    }

    // Not `cap`: submitting the new id 999 after a long windowed history
    // re-grounds every constraint over the spilled prefix (seconds).
    let plan = SteadyViolation::pick(
        &mut Rng::derive(args.seed, 1),
        &[SteadyViolation::Resp, SteadyViolation::Past],
    );
    let tx = churn.violation(plan).to_engine(&schema);
    match engine.append(&tx) {
        Ok(ev) => out.gate(gate::expect_violation(
            events(&ev),
            plan.constraint(),
            engine.history().len(),
        )),
        Err(e) => out.fatal("violating append", e),
    }
    if args.trace {
        // The same suite served over the wire: the server, session and
        // group-commit layers, per-layer only (see `served`).
        crate::served::layers(args, args.seconds / 2.0, out);
    }
}

/// The engine's per-layer figures over a traced phase. The automaton
/// counter counts constraint-appends, so its share is taken over
/// `appends × constraints`.
pub fn engine_layers(
    before: &EngineStats,
    after: &EngineStats,
    constraints: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let lat = tracer.durations("core.engine.append");
    if !lat.is_empty() {
        out.set("core.engine.append_p50_us", us(percentile(&lat, 0.50)));
        out.set("core.engine.append_p99_us", us(percentile(&lat, 0.99)));
    }
    let appends = (after.appends - before.appends).max(1) as f64;
    let hits = after.cache.transition_hits - before.cache.transition_hits;
    let misses = after.cache.transition_misses - before.cache.transition_misses;
    out.set(
        "core.engine.automaton_share",
        (after.automaton_appends - before.automaton_appends) as f64
            / (appends * constraints.max(1) as f64),
    );
    out.set(
        "core.engine.transition_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("core.engine.transition_hits", hits as f64);
    out.set("core.engine.transition_misses", misses as f64);
    out.set(
        "core.engine.patched_atoms_per_append",
        (after.encode_patched_atoms - before.encode_patched_atoms) as f64 / appends,
    );
    out.set(
        "core.engine.sat_checks",
        (after.sat_checks - before.sat_checks) as f64,
    );
    out.set(
        "core.engine.progress_steps",
        (after.progress_steps - before.progress_steps) as f64,
    );
    out.set(
        "core.window.resident_states",
        after.history.resident_states as f64,
    );
    out.set(
        "core.window.truncations",
        (after.history.truncations - before.history.truncations) as f64,
    );
}

/// Writes the run's spans next to its other scratch files.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    let path = args.workdir.join(format!("trace-{}.tsv", args.workload));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!(
            "trace: {} span(s) written to {}",
            tracer.span_count(),
            path.display()
        );
    }
}
