//! The repository benchmark harness.
//!
//! `ticc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--workdir <dir>]` runs one seeded workload against the public APIs
//! of `ticc-core`, `ticc-store` and `ticc-server`, checks its outputs,
//! and prints one JSON result as the last line of standard output:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. `perfbench/run.py` builds and drives it; see
//! `perfbench/README.md` for the workloads and metrics.

mod gate;
mod growth;
mod orders;
mod served;
mod stats;
mod steady;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit)`. Every workload reports all.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("appends_per_s", "1/s"),
    ("append_p50_us", "us"),
    ("recover_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fotl.parse_us", "us"),
    ("ptl.automaton.compile_ms", "ms"),
    ("core.engine.append_p50_us", "us"),
    ("core.engine.append_p99_us", "us"),
    ("core.engine.automaton_share", "ratio"),
    ("core.engine.transition_hit_ratio", "ratio"),
    ("core.engine.transition_hits", "count"),
    ("core.engine.transition_misses", "count"),
    ("core.engine.patched_atoms_per_append", "count"),
    ("core.engine.sat_checks", "count"),
    ("core.engine.progress_steps", "count"),
    ("core.window.resident_states", "count"),
    ("core.window.truncations", "count"),
    ("core.ground.reground_append_p50_us", "us"),
    ("core.ground.reground_append_p99_us", "us"),
    ("core.ground.fast_append_p50_us", "us"),
    ("core.ground.time_share", "ratio"),
    ("core.ground.new_conjuncts", "count"),
    ("core.ground.replayed_conjuncts", "count"),
    ("core.ground.inst_enumerated", "count"),
    ("core.ground.inst_pruned", "count"),
    ("server.setup_s", "s"),
    ("server.compile_ms", "ms"),
    ("server.closed_loop_appends_per_s", "1/s"),
    ("server.open_loop_p50_us", "us"),
    ("server.open_loop_p99_us", "us"),
    ("server.status_p50_us", "us"),
    ("server.recover_s", "s"),
    ("server.wire_rtt_p50_us", "us"),
    ("server.dispatch_p50_us", "us"),
    ("core.session.append_p50_us", "us"),
    ("store.group.commit_p50_us", "us"),
    ("store.group.commit_p99_us", "us"),
    ("store.group.fsyncs_per_append", "ratio"),
    ("store.group.max_batch", "count"),
    ("store.group.batched_frames", "count"),
    ("server.backpressure_refusals", "count"),
    ("server.quota_refusals", "count"),
    ("store.group.open_s", "s"),
    ("core.session.replay_s", "s"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &["steady_orders", "domain_growth"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
}

/// What a workload run produced: operation counts, check failures, and
/// metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The run's gates (seeded violations, restores, restarts,
    /// completeness), also counted in `attempted` and `failed`. They are
    /// few beside the per-operation checks, so `ok_ratio` takes their
    /// share apart: one failed gate moves it.
    pub gates: u64,
    pub gates_failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is reported on
    /// standard error and counted.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {e}");
            }
        }
    }

    /// Counts one gate of the run, as [`Outcome::check`] does.
    pub fn gate(&mut self, result: Result<(), String>) {
        self.gates += 1;
        if result.is_err() {
            self.gates_failed += 1;
        }
        self.check(result);
    }

    /// The smaller of the share of checks and the share of gates that
    /// passed.
    fn ok_ratio(&self) -> f64 {
        let share = |failed: u64, of: u64| 1.0 - failed as f64 / of.max(1) as f64;
        share(self.failed, self.attempted).min(share(self.gates_failed, self.gates))
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts an error the workload cannot continue past (an engine or
    /// I/O error) as a failed gate; the caller stops the run.
    pub fn fatal(&mut self, what: &str, e: impl std::fmt::Display) {
        eprintln!("fatal: {what}: {e}");
        self.attempted += 1;
        self.failed += 1;
        self.gates += 1;
        self.gates_failed += 1;
    }

    /// The result line: the mode's metric table, in table order.
    fn render(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        ))
    }
}

/// Shortest round-trip rendering, always with a fraction or exponent
/// so readers see a JSON number of full precision.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = PathBuf::from(".bench_run");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            "--workdir" => workdir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        workdir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    // Spill segments and scratch files go under the work directory.
    let tmp = args.workdir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "steady_orders" => steady::run(&args, &mut out),
        "domain_growth" => growth::run(&args, &mut out),
        _ => unreachable!("validated in parse_args"),
    }
    out.set("ok_ratio", out.ok_ratio());
    out.set("peak_rss_mib", stats::peak_rss_mib());
    match out.render(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("no result: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_server::json::{self, Json};

    /// The metric tables here and `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_needs_every_end_to_end_metric() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        assert!(out.render(false).is_err());
        for (name, _) in END_TO_END {
            out.set(name, 1.0);
        }
        let line = out.render(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        // Per-layer metrics a workload does not exercise read 0.
        assert!(out
            .render(true)
            .unwrap()
            .contains("\"trace.spans\":{\"value\":0.0"));
        out.check(Err("boom".into()));
        assert!(out.render(false).unwrap().starts_with("{\"correct\":false"));
    }

    /// One failed gate among many passing checks moves `ok_ratio` by
    /// its share of the gates, not of all checks.
    #[test]
    fn a_failed_gate_shows_in_ok_ratio() {
        let mut out = Outcome::default();
        for _ in 0..100_000 {
            out.check(Ok(()));
        }
        assert_eq!(out.ok_ratio(), 1.0);
        for _ in 0..3 {
            out.gate(Ok(()));
        }
        out.gate(Err("wrong event".into()));
        assert_eq!(out.ok_ratio(), 0.75);
        out.fatal("append", "engine error");
        assert_eq!(out.ok_ratio(), 0.6);
    }
}
