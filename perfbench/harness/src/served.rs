//! The served section of `steady_orders`' traced run: the same order
//! suite served by the `ticc-server` mux core on loopback over one
//! group WAL with `Durability::WalFsync`, `io_threads` = nproc. Its
//! figures are per-layer only: on a shared 2-vCPU host, socket round
//! trips and fsyncs moved by 20–40% between runs of the same build
//! (host steal time), too much for a bounded end-to-end metric.
//!
//! 32 tenants, each carrying the `steady_orders` suite, share at most
//! nproc/2 pipelined connections; each connection is driven by one
//! sender and one receiver thread, so the generator uses at most nproc
//! threads. Phases:
//!
//! 1. set-up: server start, 32 `open`s (grounding and template
//!    compilation), one preload `append_batch` per tenant;
//! 2. ten rounds, each an open-loop segment — appends at a fixed rate
//!    well below capacity, one `status` read per four appends, each
//!    timed from its scheduled send time — and then a closed-loop
//!    segment — a fixed number of appends with a fixed in-flight
//!    window; the figures are medians over rounds;
//! 3. a seeded violating append, every tenant's statuses, shutdown
//!    without a checkpoint, and a timed restart over the same WAL that
//!    reopens every tenant (replaying its WAL suffix); the statuses
//!    after the restart must equal those before;
//! 4. the peel-back: the same request stream replayed one layer lower
//!    at a time — over the socket one request at a time, through
//!    `Server::dispatch` in-process, through `Session::append` on a
//!    `GroupWal`, and as bare `GroupWal::append_tx` commits.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ticc_core::{CheckOptions, Durability, GroupWal, Session};
use ticc_fotl::parse;
use ticc_server::json::{self, Json};
use ticc_server::{mux, wire, Limits, Running, Server};

use crate::gate;
use crate::orders::{order_schema, Churn, SteadyViolation, Tx, STEADY_SUITE};
use crate::stats::{median, nanos, percentile, us, Rng};
use crate::trace::{Tracer, ROOT};
use crate::{Args, Outcome};

const TENANTS: usize = 32;
/// Order ids in each tenant's churn.
const DOMAIN: usize = 8;
/// Appends per tenant in the set-up's preload batch.
const PRELOAD: usize = 64;
/// Open-loop append arrivals per second, across all tenants.
const APPEND_RATE: f64 = 1000.0;
/// Open-loop appends per `status` read.
const APPENDS_PER_READ: usize = 4;
/// Share of `--seconds` spent in the open loop (over all rounds).
const OPEN_SHARE: f64 = 0.4;
/// Closed-loop appends per second of `--seconds`, over all rounds (a
/// fixed count, so the WAL suffix the restart replays has a fixed
/// length).
const CLOSED_PER_SECOND: f64 = 1000.0;
/// Closed-loop requests in flight, across all connections.
const WINDOW: usize = 16;
/// Measured rounds, each an open-loop then a closed-loop segment. The
/// figures are medians over rounds, so a spell of host contention
/// spoils one round, not the run.
const ROUNDS: usize = 10;
/// `GroupWal::open` timings per run; `store.group.open_s` is their
/// median.
const RESTARTS: usize = 3;
/// Requests replayed per layer in the traced peel-back.
const REPLAY: usize = 2000;

/// Asks the kernel to wake this thread's sleeps within 1 µs of their
/// deadline (the default slack is 50 µs), so open-loop requests go out
/// on schedule.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn connections() -> usize {
    (nproc() / 2).max(1)
}

fn opts() -> CheckOptions {
    CheckOptions::builder()
        .durability(Durability::WalFsync)
        .build()
}

fn limits() -> Limits {
    Limits {
        max_sessions: TENANTS + 8,
        io_threads: nproc(),
        workers: nproc(),
        ..Limits::default()
    }
}

fn tenant(i: usize) -> String {
    format!("t{i:02}")
}

fn open_request(name: &str) -> String {
    let constraints: Vec<String> = STEADY_SUITE
        .iter()
        .map(|(n, src)| format!(r#"["{n}","{src}"]"#))
        .collect();
    format!(
        r#"{{"op":"open","session":"{name}","preds":[["Sub",1],["Fill",1]],"constraints":[{}]}}"#,
        constraints.join(",")
    )
}

fn status_request(name: &str) -> String {
    format!(r#"{{"op":"status","session":"{name}"}}"#)
}

fn batch_request(name: &str, txs: &[Tx]) -> String {
    let items: Vec<String> = txs
        .iter()
        .map(|tx| format!("{{{}}}", tx.wire_fields()))
        .collect();
    format!(
        r#"{{"op":"append_batch","session":"{name}","txs":[{}]}}"#,
        items.join(",")
    )
}

/// One client connection, handshaken.
struct Client {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let r = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut c = Client {
            r,
            w: BufWriter::new(stream),
        };
        c.ask(&format!(
            r#"{{"op":"hello","schema":"{}"}}"#,
            wire::WIRE_SCHEMA
        ))?;
        Ok(c)
    }

    fn send(&mut self, req: &str) -> Result<(), String> {
        wire::write_frame(&mut self.w, req.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    fn ask(&mut self, req: &str) -> Result<Json, String> {
        self.send(req)?;
        gate::ok_response(&recv(&mut self.r)?)
    }
}

fn recv(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let frame = wire::read_frame(r, wire::MAX_FRAME_BYTES)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("server closed the connection")?;
    String::from_utf8(frame).map_err(|_| "response is not UTF-8".to_owned())
}

fn start(path: &Path) -> Result<Running, String> {
    let server = Server::with_wal(opts(), limits(), path).map_err(|e| format!("open WAL: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    mux::start_mux(Arc::new(server), listener).map_err(|e| format!("start: {e}"))
}

/// Stops the server without a checkpoint and waits for it to exit.
fn shutdown(running: Running) -> Result<(), String> {
    let result = Client::connect(running.addr)
        .and_then(|mut c| c.ask(r#"{"op":"shutdown","checkpoint":false}"#));
    running.join();
    result.map(|_| ())
}

/// Each tenant's churn, seeded per tenant: the same in every layer.
fn churns(seed: u64) -> Vec<Churn> {
    (0..TENANTS)
        .map(|i| Churn::new(Rng::derive(seed, 1000 + i as u64), DOMAIN))
        .collect()
}

/// Starts a server over a fresh WAL, opens and preloads every tenant.
fn setup(path: &Path, churns: &mut [Churn], out: &mut Outcome) -> Result<Running, String> {
    let _ = std::fs::remove_file(path);
    let running = start(path)?;
    let result = (|| {
        let mut c = Client::connect(running.addr)?;
        for (i, churn) in churns.iter_mut().enumerate() {
            c.ask(&open_request(&tenant(i)))?;
            let txs: Vec<Tx> = (0..PRELOAD).map(|_| churn.next_tx()).collect();
            let doc = c.ask(&batch_request(&tenant(i), &txs))?;
            for r in doc.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
                out.check(gate::expect_clean(gate::wire_events(r)));
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => Ok(running),
        Err(e) => {
            let _ = shutdown(running);
            Err(e)
        }
    }
}

/// A request to send: due `at` after the phase start (open loop) or
/// as soon as the window allows (closed loop).
struct Item {
    at: Option<Duration>,
    read: bool,
    tenant: usize,
    req: String,
}

/// A request's life: when it was due, sent, and answered.
struct Done {
    sched: Instant,
    sent: Instant,
    done: Instant,
    read: bool,
    seq: u64,
    result: Result<(), String>,
}

struct InFlight {
    sched: Instant,
    sent: Instant,
    read: bool,
    seq: u64,
}

/// Drives one connection: a sender thread writes `items` on schedule
/// (or under the in-flight `window`), a receiver thread matches the
/// in-order responses. Appends must answer `ok` with no violation.
fn pipeline(
    client: Client,
    items: Vec<Item>,
    start: Instant,
    window: Option<usize>,
    seq0: u64,
) -> Vec<Done> {
    let Client { mut r, mut w } = client;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let (permit_tx, permit_rx) = mpsc::sync_channel::<()>(window.unwrap_or(1));
    if let Some(n) = window {
        for _ in 0..n {
            permit_tx.send(()).expect("permit");
        }
    }
    std::thread::scope(|s| {
        s.spawn(move || {
            tight_timer_slack();
            let now = Instant::now();
            if start > now {
                std::thread::sleep(start - now);
            }
            for (k, item) in items.into_iter().enumerate() {
                let sched = match item.at {
                    Some(at) => {
                        let due = start + at;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                    None => {
                        if permit_rx.recv().is_err() {
                            return;
                        }
                        Instant::now()
                    }
                };
                let sent = Instant::now();
                if wire::write_frame(&mut w, item.req.as_bytes()).is_err() {
                    return;
                }
                let flight = InFlight {
                    sched,
                    sent,
                    read: item.read,
                    seq: seq0 + k as u64,
                };
                if tx.send(flight).is_err() {
                    return;
                }
            }
        });
        let receiver = s.spawn(move || {
            let mut done = Vec::new();
            for f in rx {
                let text = recv(&mut r);
                let now = Instant::now();
                let result = text.and_then(|t| gate::ok_response(&t)).and_then(|doc| {
                    if f.read {
                        Ok(())
                    } else {
                        gate::expect_clean(gate::wire_events(&doc))
                    }
                });
                // Keep draining after a failure: an open-loop sender
                // stalls if its responses stop being read.
                done.push(Done {
                    sched: f.sched,
                    sent: f.sent,
                    done: now,
                    read: f.read,
                    seq: f.seq,
                    result,
                });
                if window.is_some() {
                    // Fails only once the sender is done; keep draining.
                    let _ = permit_tx.send(());
                }
            }
            done
        });
        receiver.join().expect("receiver thread")
    })
}

/// Runs every connection's items concurrently; returns all outcomes,
/// the phase's wall time, and whether every request was answered.
fn run_phase(
    clients: Vec<Client>,
    mut items: Vec<Vec<Item>>,
    window: Option<usize>,
) -> (Vec<Done>, Duration, Result<(), String>) {
    let start = Instant::now() + Duration::from_millis(5);
    let planned: usize = items.iter().map(Vec::len).sum();
    let mut seq0 = 0u64;
    let done = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(items.drain(..))
            .map(|(c, its)| {
                let base = seq0;
                seq0 += its.len() as u64;
                s.spawn(move || pipeline(c, its, start, window, base))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect::<Vec<_>>()
    });
    let complete = if done.len() == planned {
        Ok(())
    } else {
        Err(format!(
            "only {} of {planned} requests answered",
            done.len()
        ))
    };
    let end = done.iter().map(|d| d.done).max().unwrap_or(start);
    (done, end.saturating_duration_since(start), complete)
}

/// The measured phases' request plans, drawn from `rng` and the
/// tenants' churns, split by connection (tenant `i` → `i % conns`).
fn plan_open(churns: &mut [Churn], rng: &mut Rng, seconds: f64, conns: usize) -> Vec<Vec<Item>> {
    let rate = APPEND_RATE * (1.0 + 1.0 / APPENDS_PER_READ as f64);
    let n = (seconds * rate) as usize;
    let mut plans: Vec<Vec<Item>> = (0..conns).map(|_| Vec::new()).collect();
    for k in 0..n {
        let t = rng.below(TENANTS as u64) as usize;
        let read = k % (APPENDS_PER_READ + 1) == APPENDS_PER_READ;
        let req = if read {
            status_request(&tenant(t))
        } else {
            churns[t].next_tx().to_wire(&tenant(t))
        };
        plans[t % conns].push(Item {
            at: Some(Duration::from_secs_f64(k as f64 / rate)),
            read,
            tenant: t,
            req,
        });
    }
    plans
}

fn plan_closed(churns: &mut [Churn], rng: &mut Rng, n: usize, conns: usize) -> Vec<Vec<Item>> {
    let mut plans: Vec<Vec<Item>> = (0..conns).map(|_| Vec::new()).collect();
    for _ in 0..n {
        let t = rng.below(TENANTS as u64) as usize;
        plans[t % conns].push(Item {
            at: None,
            read: false,
            tenant: t,
            req: churns[t].next_tx().to_wire(&tenant(t)),
        });
    }
    plans
}

fn connect_all(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n).map(|_| Client::connect(addr)).collect()
}

/// Every tenant's statuses, rendered.
fn statuses(c: &mut Client) -> Result<Vec<String>, String> {
    (0..TENANTS)
        .map(|i| {
            c.ask(&status_request(&tenant(i)))
                .and_then(|d| gate::wire_statuses(&d))
        })
        .collect()
}

/// Finds `key` anywhere in `doc` (depth-first).
fn find<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    if let Some(v) = doc.get(key) {
        return Some(v);
    }
    match doc {
        Json::Obj(fields) => fields.iter().find_map(|(_, v)| find(v, key)),
        _ => None,
    }
}

/// Runs the served section for `seconds` of measured load and sets its
/// per-layer metrics; spans go to `trace-served*.tsv` in the work
/// directory.
pub fn layers(args: &Args, seconds: f64, out: &mut Outcome) {
    let dir = args.workdir.join("served");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.fatal("work directory", e);
        return;
    }
    if let Err(e) = run_in(args, seconds, &dir, out) {
        out.fatal("served section", e);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_in(args: &Args, seconds: f64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let path = dir.join("group.gwal");
    // A span for every served request and phase, and for every call
    // of the four peel-back layers.
    let requests = seconds
        * (OPEN_SHARE * APPEND_RATE * (1.0 + 1.0 / APPENDS_PER_READ as f64) + CLOSED_PER_SECOND);
    let mut tracer = Tracer::with_capacity(requests as usize + 2 * ROUNDS + 4 * (REPLAY + 1));
    let mut tenants = churns(args.seed);
    let t0 = Instant::now();
    let running = setup(&path, &mut tenants, out)?;
    out.set("server.setup_s", t0.elapsed().as_secs_f64());
    let mut lengths = vec![PRELOAD; TENANTS];
    let mut rng = Rng::derive(args.seed, 1);
    let before = measured(
        &running,
        seconds,
        &mut tenants,
        &mut lengths,
        &mut rng,
        &mut tracer,
        out,
    );
    let before = match before {
        Ok(s) => s,
        Err(e) => {
            let _ = shutdown(running);
            return Err(e);
        }
    };
    shutdown(running)?;

    // Restart over the same log without a checkpoint: every tenant
    // replays its WAL suffix and re-grounds the suite over it.
    let t0 = Instant::now();
    let running = start(&path)?;
    let reopened = (|| {
        let mut c = Client::connect(running.addr)?;
        for i in 0..TENANTS {
            c.ask(&open_request(&tenant(i)))?;
        }
        let took = t0.elapsed();
        Ok::<_, String>((took, statuses(&mut c)?))
    })();
    shutdown(running)?;
    let (took, after) = reopened?;
    out.set("server.recover_s", took.as_secs_f64());
    let names: Vec<String> = (0..TENANTS).map(tenant).collect();
    out.gate(gate::same_statuses(&names, &before, &after));

    recovery_layers(&path, out)?;
    peel_back(args, dir, &mut tracer, out)?;
    let spans = out.metrics.get("trace.spans").copied().unwrap_or(0.0);
    out.set("trace.spans", spans + tracer.span_count() as f64);
    let path = args.workdir.join("trace-served.tsv");
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    Ok(())
}

/// Rounds of open loop and closed loop, the violating append and the
/// statuses. Returns every tenant's statuses before shutdown.
fn measured(
    running: &Running,
    seconds: f64,
    tenants: &mut [Churn],
    lengths: &mut [usize],
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<String>, String> {
    let conns = connections();
    let group_before = running.server.group_stats().unwrap_or_default();
    let open_s = seconds * OPEN_SHARE / ROUNDS as f64;
    let closed_n = (CLOSED_PER_SECOND * seconds) as usize / ROUNDS;
    let window = (WINDOW / conns).max(1);
    let (mut p50s, mut p99s, mut read50s, mut rates) = (vec![], vec![], vec![], vec![]);
    let mut late = Vec::new();
    let mut appends = 0u64;
    for round in 0..ROUNDS {
        let plan = count_lengths(plan_open(tenants, rng, open_s, conns), lengths);
        let (done, _, complete) = run_phase(connect_all(running.addr, conns)?, plan, None);
        out.gate(complete);
        let (mut lat, mut reads) = (vec![], vec![]);
        let phase = tracer.open("served.open_loop", ROOT, round as u64);
        for d in &done {
            out.check(d.result.clone());
            let name = if d.read {
                reads.push(nanos(d.done - d.sched));
                "server.request.status"
            } else {
                lat.push(nanos(d.done - d.sched));
                "server.request.append"
            };
            tracer.record(name, d.sched, d.done, phase, d.seq);
            late.push(nanos(d.sent.saturating_duration_since(d.sched)));
        }
        tracer.close(phase);
        if lat.is_empty() || reads.is_empty() {
            return Err("an open-loop round completed no request".into());
        }
        appends += lat.len() as u64;
        lat.sort_unstable();
        reads.sort_unstable();
        p50s.push(us(percentile(&lat, 0.50)));
        p99s.push(us(percentile(&lat, 0.99)));
        read50s.push(us(percentile(&reads, 0.50)));

        let plan = count_lengths(plan_closed(tenants, rng, closed_n, conns), lengths);
        let (done, wall, complete) =
            run_phase(connect_all(running.addr, conns)?, plan, Some(window));
        out.gate(complete);
        let phase = tracer.open("served.closed_loop", ROOT, round as u64);
        for d in &done {
            out.check(d.result.clone());
            tracer.record("server.request.append", d.sent, d.done, phase, d.seq);
        }
        tracer.close(phase);
        appends += done.len() as u64;
        rates.push(done.len() as f64 / wall.as_secs_f64());
    }
    late.sort_unstable();
    out.set("server.open_loop_p50_us", median(&p50s));
    out.set("server.open_loop_p99_us", median(&p99s));
    out.set("server.status_p50_us", median(&read50s));
    out.set("server.closed_loop_appends_per_s", median(&rates));
    out.set("gen.late_p99_us", us(percentile(&late, 0.99)));
    out.set("gen.late_max_us", us(*late.last().expect("non-empty")));
    let group_after = running.server.group_stats().unwrap_or_default();
    out.set(
        "store.group.fsyncs_per_append",
        (group_after.fsyncs - group_before.fsyncs) as f64 / appends.max(1) as f64,
    );
    out.set("store.group.max_batch", group_after.max_batch as f64);
    out.set(
        "store.group.batched_frames",
        (group_after.batched_frames - group_before.batched_frames) as f64,
    );

    let mut c = Client::connect(running.addr)?;
    let v = rng.below(TENANTS as u64) as usize;
    let plan = SteadyViolation::pick(rng, &SteadyViolation::ALL);
    let doc = c.ask(&tenants[v].violation(plan).to_wire(&tenant(v)))?;
    lengths[v] += 1;
    out.gate(gate::expect_violation(
        gate::wire_events(&doc),
        plan.constraint(),
        lengths[v],
    ));
    let stats = c.ask(&format!(r#"{{"op":"stats","session":"{}"}}"#, tenant(0)))?;
    let count = |key: &str| find(&stats, key).and_then(Json::as_u64).unwrap_or(0) as f64;
    out.set("server.backpressure_refusals", count("backpressure"));
    out.set("server.quota_refusals", count("quota_refusals"));
    statuses(&mut c)
}

/// Counts each tenant's appends in `plan` into `lengths` (the history
/// length each tenant will have), passing the plan through.
fn count_lengths(plan: Vec<Vec<Item>>, lengths: &mut [usize]) -> Vec<Vec<Item>> {
    for item in plan.iter().flatten() {
        if !item.read {
            lengths[item.tenant] += 1;
        }
    }
    plan
}

/// Times `GroupWal::open` and reopening every recovered tenant the way
/// the server's `open` does: replay the logged suffix, then register
/// the suite (no checkpoint was taken, so constraints ground over the
/// replayed history).
fn recovery_layers(path: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut opens = Vec::new();
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let opened = GroupWal::open(path).map_err(|e| format!("GroupWal::open: {e}"))?;
        opens.push(t0.elapsed().as_secs_f64());
        drop(opened);
    }
    out.set("store.group.open_s", median(&opens));
    let (wal, recovered) = GroupWal::open(path).map_err(|e| format!("GroupWal::open: {e}"))?;
    let wal = Arc::new(wal);
    let t0 = Instant::now();
    let mut sessions = Vec::with_capacity(recovered.sessions.len());
    for s in recovered.sessions {
        let mut b = Session::builder()
            .name(&s.name)
            .options(opts())
            .group(Arc::clone(&wal))
            .pred("Sub", 1)
            .pred("Fill", 1);
        if let Some(snap) = s.snapshot {
            b = b.snapshot(snap);
        }
        let (mut session, _) = b
            .replay(s.suffix)
            .open()
            .map_err(|e| format!("replay: {e}"))?;
        let schema = session.schema().ok_or("replayed session has no schema")?;
        for (name, src) in STEADY_SUITE {
            let phi = parse(&schema, src).map_err(|e| format!("parse: {e}"))?;
            session
                .add_constraint(name, phi)
                .map_err(|e| format!("constraint: {e}"))?;
        }
        sessions.push(session);
    }
    out.set("core.session.replay_s", t0.elapsed().as_secs_f64());
    out.gate(if sessions.len() == TENANTS {
        Ok(())
    } else {
        Err(format!("recovered {} of {TENANTS} tenants", sessions.len()))
    });
    Ok(())
}

/// The peel-back stream: per-tenant preloads, then `REPLAY` appends.
fn replay_stream(seed: u64) -> (Vec<Vec<Tx>>, Vec<(usize, Tx)>) {
    let mut tenants = churns(seed);
    let preload = tenants
        .iter_mut()
        .map(|c| (0..PRELOAD).map(|_| c.next_tx()).collect())
        .collect();
    let mut rng = Rng::derive(seed, 2);
    let stream = (0..REPLAY)
        .map(|_| {
            let t = rng.below(TENANTS as u64) as usize;
            (t, tenants[t].next_tx())
        })
        .collect();
    (preload, stream)
}

fn p50_us(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    us(percentile(&v, 0.50))
}

/// Replays the same request stream one layer lower at a time.
fn peel_back(
    args: &Args,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let schema = order_schema();
    let (preload, stream) = replay_stream(args.seed);
    let fresh = |name: &str| -> PathBuf {
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    };

    // Wire: one request at a time over the socket.
    let running = start(&fresh("wire.gwal"))?;
    let wire_result = (|| {
        let mut c = Client::connect(running.addr)?;
        for (i, txs) in preload.iter().enumerate() {
            c.ask(&open_request(&tenant(i)))?;
            c.ask(&batch_request(&tenant(i), txs))?;
        }
        let span = tracer.open("peel.wire", ROOT, 0);
        let mut lat = Vec::with_capacity(REPLAY);
        for (k, (t, tx)) in stream.iter().enumerate() {
            let req = tx.to_wire(&tenant(*t));
            let t0 = Instant::now();
            let r = c.ask(&req);
            let t1 = Instant::now();
            tracer.record("server.wire.rtt", t0, t1, span, k as u64);
            out.check(r.map(|_| ()));
            lat.push(nanos(t1 - t0));
        }
        tracer.close(span);
        Ok::<_, String>(lat)
    })();
    shutdown(running)?;
    out.set("server.wire_rtt_p50_us", p50_us(wire_result?));

    // Dispatch: the same requests through `Server::dispatch`, no socket.
    let server = Server::with_wal(opts(), limits(), fresh("dispatch.gwal"))
        .map_err(|e| format!("open WAL: {e}"))?;
    let mut hello = false;
    let ask = |server: &Server, hello: &mut bool, req: &str| -> Result<(), String> {
        let doc = json::parse(req).map_err(|e| format!("request: {e}"))?;
        gate::ok_response(&server.dispatch(&doc, hello).0).map(|_| ())
    };
    ask(
        &server,
        &mut hello,
        &format!(r#"{{"op":"hello","schema":"{}"}}"#, wire::WIRE_SCHEMA),
    )?;
    for (i, txs) in preload.iter().enumerate() {
        ask(&server, &mut hello, &open_request(&tenant(i)))?;
        ask(&server, &mut hello, &batch_request(&tenant(i), txs))?;
    }
    let span = tracer.open("peel.dispatch", ROOT, 0);
    let mut lat = Vec::with_capacity(REPLAY);
    for (k, (t, tx)) in stream.iter().enumerate() {
        let doc = json::parse(&tx.to_wire(&tenant(*t))).map_err(|e| format!("request: {e}"))?;
        let t0 = Instant::now();
        let (resp, _) = server.dispatch(&doc, &mut hello);
        let t1 = Instant::now();
        tracer.record("server.dispatch", t0, t1, span, k as u64);
        out.check(gate::ok_response(&resp).map(|_| ()));
        lat.push(nanos(t1 - t0));
    }
    tracer.close(span);
    drop(server);
    out.set("server.dispatch_p50_us", p50_us(lat));

    // Session: `Session::append` on a shared group WAL.
    let wal = Arc::new(GroupWal::create(fresh("session.gwal")).map_err(|e| format!("WAL: {e}"))?);
    let mut sessions = Vec::with_capacity(TENANTS);
    let mut compile_ms = 0.0;
    for (i, txs) in preload.iter().enumerate() {
        let (mut s, _) = Session::builder()
            .name(&tenant(i))
            .options(opts())
            .pred("Sub", 1)
            .pred("Fill", 1)
            .group(Arc::clone(&wal))
            .open()
            .map_err(|e| format!("session: {e}"))?;
        for (name, src) in STEADY_SUITE {
            let phi = parse(&schema, src).map_err(|e| format!("parse: {e}"))?;
            s.add_constraint(name, phi)
                .map_err(|e| format!("constraint: {e}"))?;
        }
        for tx in txs {
            s.append(&tx.to_engine(&schema))
                .map_err(|e| format!("append: {e}"))?;
        }
        if let Some(e) = s.engine() {
            compile_ms += e.stats().automaton_compile_time.as_secs_f64() * 1e3;
        }
        sessions.push(s);
    }
    let span = tracer.open("peel.session", ROOT, 0);
    let mut lat = Vec::with_capacity(REPLAY);
    for (k, (t, tx)) in stream.iter().enumerate() {
        let tx = tx.to_engine(&schema);
        let t0 = Instant::now();
        let r = sessions[*t].append(&tx);
        let t1 = Instant::now();
        tracer.record("core.session.append", t0, t1, span, k as u64);
        out.check(match r {
            Ok(c) => gate::expect_clean(c.events.iter().map(|e| (e.name.as_str(), e.at))),
            Err(e) => Err(format!("session append: {e}")),
        });
        lat.push(nanos(t1 - t0));
    }
    tracer.close(span);
    drop(sessions);
    out.set("core.session.append_p50_us", p50_us(lat));
    out.set("server.compile_ms", compile_ms);

    // Store: bare `GroupWal::append_tx` commits with sync on.
    let wal = GroupWal::create(fresh("store.gwal")).map_err(|e| format!("WAL: {e}"))?;
    let ids: Vec<u32> = (0..TENANTS)
        .map(|i| wal.register(&tenant(i)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("register: {e}"))?;
    let span = tracer.open("peel.store", ROOT, 0);
    let mut lat = Vec::with_capacity(REPLAY);
    for (k, (t, tx)) in stream.iter().enumerate() {
        let tx = tx.to_engine(&schema);
        let t0 = Instant::now();
        let r = wal.append_tx(ids[*t], &tx, true);
        let t1 = Instant::now();
        tracer.record("store.group.append_tx", t0, t1, span, k as u64);
        out.check(r.map_err(|e| format!("append_tx: {e}")));
        lat.push(nanos(t1 - t0));
    }
    tracer.close(span);
    lat.sort_unstable();
    out.set("store.group.commit_p50_us", us(percentile(&lat, 0.50)));
    out.set("store.group.commit_p99_us", us(percentile(&lat, 0.99)));
    Ok(())
}
