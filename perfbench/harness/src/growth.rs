//! `domain_growth`: an in-process `Engine` with the `once` and `fifo`
//! constraints, fed traffic in which every tenth append submits a
//! never-seen order id. Those appends take the delta re-grounding path
//! (`core::ground`); the other nine take the fast path.
//!
//! Per-append cost grows with the history, so the run is a sequence of
//! laps — fresh engine, fixed preload, fixed measured length. There are
//! ten lap inputs (each seeded from `--seed`), and the run makes each
//! of them a number of times (scaled by `--seconds`), round robin, so
//! the repeats of one input are spread over the whole run. A repeat
//! builds the same engine and makes the same appends, so its timings
//! differ from the others' only by what the host did meanwhile: each
//! input's set-up, restore and every single append are taken at the
//! fast decile of their repeats (`stats::FAST`; the fastest of fewer
//! than ten). An input's rate is its appends over the sum of their
//! times. The reported figures are the median over inputs, with the
//! p50 taken over all the inputs' appends.

use std::time::Instant;

use ticc_core::{CheckOptions, Engine, EngineStats};
use ticc_tdb::{Schema, Transaction};

use crate::gate;
use crate::orders::{order_schema, Growth, GrowthViolation, GROWTH_PERIOD, GROWTH_SUITE};
use crate::stats::{fastest_rate, fastest_time, median, nanos, percentile, us, Rng};
use crate::steady::{
    append_clean, engine_layers, events, parse_suite, parse_us, write_trace, Snapshot,
};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};

/// Appends made during each lap's set-up.
const PRELOAD: usize = 200;
/// Measured appends per lap (a whole number of growth periods).
const LAP: usize = 100;
/// Distinct lap inputs: 1000 measured appends for the p50.
const INPUTS: usize = 10;
/// Laps per second of `--seconds`, rounded up to whole rounds of the
/// inputs, at least two (nine repeats of each input at 45 s). The work
/// is fixed, not the time, so every run of a seed makes the same
/// appends; a lap takes about 0.5 s.
const LAPS_PER_SECOND: f64 = 2.0;

fn build(schema: &std::sync::Arc<Schema>, rng: Rng, out: &mut Outcome) -> Option<(Engine, Growth)> {
    let mut engine = Engine::new(schema.clone(), CheckOptions::default());
    for (name, phi) in parse_suite(schema, &GROWTH_SUITE) {
        if let Err(e) = engine.add_constraint(name, phi) {
            out.fatal("add_constraint", e);
            return None;
        }
    }
    let mut gen = Growth::new(rng);
    for _ in 0..PRELOAD {
        if !append_clean(&mut engine, &gen.next_tx().to_engine(schema), out) {
            return None;
        }
    }
    Some((engine, gen))
}

/// One lap's measured figures.
struct Lap {
    rate: f64,
    lat: Vec<u64>,
    /// Traced laps: latencies of re-grounding and fast-path appends.
    reground: Vec<u64>,
    fast: Vec<u64>,
    stats: (EngineStats, EngineStats),
    wall_s: f64,
}

fn measure_lap(
    engine: &mut Engine,
    txs: &[Transaction],
    mut tracer: Option<&mut Tracer>,
    lap_no: u64,
    out: &mut Outcome,
) -> Option<Lap> {
    let mut lap = Lap {
        rate: 0.0,
        lat: Vec::with_capacity(txs.len()),
        reground: Vec::new(),
        fast: Vec::new(),
        stats: (engine.stats(), EngineStats::default()),
        wall_s: 0.0,
    };
    let lap_span = tracer
        .as_deref_mut()
        .map_or(ROOT, |t| t.open("growth.lap", ROOT, lap_no));
    let t_lap = Instant::now();
    for (i, tx) in txs.iter().enumerate() {
        let grounds_before = tracer.as_ref().map(|_| engine.stats().delta_grounds);
        let t0 = Instant::now();
        let result = engine.append(tx);
        let t1 = Instant::now();
        let ns = nanos(t1 - t0);
        lap.lat.push(ns);
        if let (Some(t), Some(g0)) = (tracer.as_deref_mut(), grounds_before) {
            t.record(
                "core.engine.append",
                t0,
                t1,
                lap_span,
                lap_no << 32 | i as u64,
            );
            if engine.stats().delta_grounds > g0 {
                lap.reground.push(ns);
            } else {
                lap.fast.push(ns);
            }
        }
        match result {
            Ok(ev) => out.check(gate::expect_clean(events(&ev))),
            Err(e) => {
                out.fatal("append", e);
                return None;
            }
        }
    }
    let wall = t_lap.elapsed();
    if let Some(t) = tracer {
        t.close(lap_span);
    }
    lap.wall_s = wall.as_secs_f64();
    lap.rate = txs.len() as f64 / lap.wall_s;
    lap.stats.1 = engine.stats();
    Some(lap)
}

/// One lap input's repeats: set-up and restore times, and the latency
/// of each append.
#[derive(Default)]
struct Repeats {
    setup_s: Vec<f64>,
    restore_s: Vec<f64>,
    lat: Vec<Vec<u64>>,
}

pub fn run(args: &Args, out: &mut Outcome) {
    assert_eq!(LAP as u64 % GROWTH_PERIOD, 0);
    let schema = order_schema();
    let repeats = ((args.seconds * LAPS_PER_SECOND / INPUTS as f64).ceil() as usize).max(2);
    let laps = repeats * INPUTS;
    // Every odd repeat is traced: one span per lap and one per append.
    let mut tracer = args
        .trace
        .then(|| Tracer::with_capacity(repeats / 2 * INPUTS * (LAP + 1)));
    let mut inputs: Vec<Repeats> = (0..INPUTS).map(|_| Repeats::default()).collect();
    let (mut traced_rates, mut plain_rates) = (vec![], vec![]);
    let (mut reground, mut fast) = (vec![], vec![]);
    let mut last_traced: Option<(EngineStats, EngineStats)> = None;
    let (mut ground_s, mut traced_wall_s) = (0.0, 0.0);
    for lap_no in 0..laps {
        let (input, repeat) = (lap_no % INPUTS, lap_no / INPUTS);
        let at = &mut inputs[input];
        let t0 = Instant::now();
        let Some((mut engine, mut gen)) =
            build(&schema, Rng::derive(args.seed, 2 * input as u64), out)
        else {
            return;
        };
        at.setup_s.push(t0.elapsed().as_secs_f64());
        let txs: Vec<Transaction> = (0..LAP).map(|_| gen.next_tx().to_engine(&schema)).collect();
        // Traced runs alternate plain and traced repeats of each input
        // for the overhead.
        let traced = tracer.is_some() && repeat % 2 == 1;
        let Some(lap) = measure_lap(
            &mut engine,
            &txs,
            if traced { tracer.as_mut() } else { None },
            lap_no as u64,
            out,
        ) else {
            return;
        };
        if traced {
            traced_rates.push(lap.rate);
            reground.extend_from_slice(&lap.reground);
            fast.extend_from_slice(&lap.fast);
            ground_s += (lap.stats.1.ground_time - lap.stats.0.ground_time).as_secs_f64();
            traced_wall_s += lap.wall_s;
            last_traced = Some(lap.stats);
        } else {
            plain_rates.push(lap.rate);
        }
        at.lat.push(lap.lat);
        match Snapshot::of(&engine).restore_timed() {
            Ok(d) => {
                out.gate(Ok(()));
                at.restore_s.push(d.as_secs_f64());
            }
            Err(e) => out.gate(Err(e)),
        }
        let plan = GrowthViolation::pick(&mut Rng::derive(args.seed, 2 * lap_no as u64 + 1));
        let closing = gen.violation(plan);
        let (last, lead) = closing.split_last().expect("at least one closing tx");
        for tx in lead {
            if !append_clean(&mut engine, &tx.to_engine(&schema), out) {
                return;
            }
        }
        match engine.append(&last.to_engine(&schema)) {
            Ok(ev) => out.gate(gate::expect_violation(
                events(&ev),
                plan.constraint(),
                engine.history().len(),
            )),
            Err(e) => out.fatal("violating append", e),
        }
    }
    // Each input at the fast end of its repeats, then across inputs.
    let (mut setups, mut rates, mut restores) = (vec![], vec![], vec![]);
    let mut pooled = Vec::with_capacity(INPUTS * LAP);
    for at in &inputs {
        setups.push(fastest_time(&at.setup_s));
        if !at.restore_s.is_empty() {
            restores.push(fastest_time(&at.restore_s));
        }
        let mut busy_ns = 0;
        for i in 0..LAP {
            let same_append: Vec<f64> = at.lat.iter().map(|lat| lat[i] as f64).collect();
            let ns = fastest_time(&same_append) as u64;
            busy_ns += ns;
            pooled.push(ns);
        }
        rates.push(LAP as f64 / (busy_ns as f64 / 1e9));
    }
    pooled.sort_unstable();
    out.set("setup_s", median(&setups));
    out.set("appends_per_s", median(&rates));
    out.set("append_p50_us", us(percentile(&pooled, 0.50)));
    if !restores.is_empty() {
        out.set("recover_s", median(&restores));
    }

    if let (Some(tracer), Some((before, after))) = (tracer.as_ref(), last_traced) {
        out.set("fotl.parse_us", parse_us(&schema, &GROWTH_SUITE));
        out.set(
            "ptl.automaton.compile_ms",
            before.automaton_compile_time.as_secs_f64() * 1e3,
        );
        engine_layers(&before, &after, GROWTH_SUITE.len(), tracer, out);
        reground.sort_unstable();
        fast.sort_unstable();
        if !reground.is_empty() {
            out.set(
                "core.ground.reground_append_p50_us",
                us(percentile(&reground, 0.50)),
            );
            out.set(
                "core.ground.reground_append_p99_us",
                us(percentile(&reground, 0.99)),
            );
        }
        if !fast.is_empty() {
            out.set(
                "core.ground.fast_append_p50_us",
                us(percentile(&fast, 0.50)),
            );
        }
        out.set("core.ground.time_share", ground_s / traced_wall_s.max(1e-9));
        out.set(
            "core.ground.new_conjuncts",
            (after.new_conjuncts - before.new_conjuncts) as f64,
        );
        out.set(
            "core.ground.replayed_conjuncts",
            (after.replayed_conjuncts - before.replayed_conjuncts) as f64,
        );
        out.set("core.ground.inst_enumerated", after.inst_enumerated as f64);
        out.set("core.ground.inst_pruned", after.inst_pruned as f64);
        let (p, t) = (fastest_rate(&plain_rates), fastest_rate(&traced_rates));
        out.set("trace.overhead_pct", (p - t) / p * 100.0);
        out.set("trace.spans", tracer.span_count() as f64);
        write_trace(args, tracer);
    }
}
