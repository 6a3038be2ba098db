//! Shared load generator for E17: many concurrent `WalFsync` sessions
//! appending through per-session WAL files, one group-commit WAL, or
//! the TCP server in front of that WAL.
//!
//! Every configuration runs the same workload — `sessions` worker
//! threads, each owning one session with the cheap invariant
//! `G !Sub(999)`, each appending `appends` single-tuple transactions
//! (insert/delete churn on its own value, so no violations fire). The
//! only variable is who pays the `fsync`:
//!
//! * **per-session fsync** — every session has its own store file, so
//!   every durable append is its own `fdatasync`.
//! * **group commit** — all sessions share one [`GroupWal`]; while the
//!   leader's `fdatasync` is in flight the other threads enqueue, and
//!   the next window commits them all with one sync.
//! * **served** — same group WAL, but the appends travel as
//!   `ticc-wire-v1` frames through a real `ticc_server::Server` on a
//!   loopback socket (the `poll(2)` serving core, so unix only), so
//!   the wire + dispatch overhead is visible.

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ticc_core::{CheckOptions, GroupStats, GroupWal, Session};
use ticc_fotl::parser::parse;
use ticc_server::{mux, wire, Limits, Running, Server};
use ticc_tdb::Transaction;

use crate::latency::{self, LatencySummary};

/// The invariant every load session carries: cheap to check, never
/// violated by the churn workload (values are session indices).
pub const LOAD_CONSTRAINT: &str = "G !Sub(999)";

/// One measured configuration.
pub struct LoadReport {
    /// Worker sessions appending concurrently.
    pub sessions: usize,
    /// Durable appends each session issued.
    pub appends_per_session: usize,
    /// Wall-clock for the whole run (post-setup, all sessions).
    pub elapsed: Duration,
    /// Aggregate throughput across all sessions.
    pub appends_per_sec: f64,
    /// Median single-append latency (ack-inclusive).
    pub p50: Duration,
    /// 99th-percentile single-append latency.
    pub p99: Duration,
    /// The full latency summary (p999, max, histogram) behind the
    /// `p50`/`p99` headline fields — see [`crate::latency`].
    pub latency: LatencySummary,
    /// Group-WAL counters, when the configuration used one.
    pub group: Option<GroupStats>,
}

fn report(
    sessions: usize,
    appends: usize,
    elapsed: Duration,
    lat: Vec<Duration>,
    group: Option<GroupStats>,
) -> LoadReport {
    let latency = latency::summarize(lat);
    LoadReport {
        sessions,
        appends_per_session: appends,
        elapsed,
        appends_per_sec: (sessions * appends) as f64 / elapsed.as_secs_f64(),
        p50: latency.p50,
        p99: latency.p99,
        latency,
        group,
    }
}

/// The per-session churn transaction: insert `Sub(id)` on even steps,
/// delete it on odd ones.
fn churn_tx(session: &Session, id: u64, step: usize) -> Transaction {
    let p = session.schema().expect("frozen").pred("Sub").expect("Sub");
    if step.is_multiple_of(2) {
        Transaction::new().insert(p, vec![id])
    } else {
        Transaction::new().delete(p, vec![id])
    }
}

fn spawn_workers<S>(sessions: usize, appends: usize, setup: S) -> (Duration, Vec<Duration>)
where
    S: Fn(usize) -> Session + Send + Sync,
{
    // One extra participant: the timer. Workers finish setup, meet at
    // the barrier, and only the post-barrier append loop is measured.
    let barrier = Arc::new(Barrier::new(sessions + 1));
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sessions);
        for id in 0..sessions {
            let barrier = Arc::clone(&barrier);
            let setup = &setup;
            handles.push(scope.spawn(move || {
                let mut session = setup(id);
                barrier.wait();
                let mut lat = Vec::with_capacity(appends);
                for step in 0..appends {
                    let tx = churn_tx(&session, id as u64, step);
                    let t0 = Instant::now();
                    let out = session.append(&tx).expect("append");
                    lat.push(t0.elapsed());
                    assert!(out.events.is_empty(), "churn never violates");
                }
                lat
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(sessions * appends);
        for h in handles {
            lat.extend(h.join().expect("worker"));
        }
        (t0.elapsed(), lat)
    })
}

/// Baseline: every session owns a store file, every append its fsync.
pub fn run_per_session_fsync(
    dir: &Path,
    sessions: usize,
    appends: usize,
    opts: CheckOptions,
) -> LoadReport {
    let setup = |id: usize| -> Session {
        let path: PathBuf = dir.join(format!("session-{id}.wal"));
        let _ = std::fs::remove_file(&path);
        let (mut s, _) = Session::builder()
            .name(&format!("s{id}"))
            .options(opts)
            .pred("Sub", 1)
            .store(&path)
            .open()
            .expect("open session store");
        let phi = parse(&s.schema().unwrap(), LOAD_CONSTRAINT).unwrap();
        s.add_constraint("cap", phi).unwrap();
        s
    };
    let (elapsed, lat) = spawn_workers(sessions, appends, setup);
    report(sessions, appends, elapsed, lat, None)
}

/// Group commit: all sessions share one WAL; windows batch the syncs.
pub fn run_group_commit(
    dir: &Path,
    sessions: usize,
    appends: usize,
    opts: CheckOptions,
) -> LoadReport {
    let path = dir.join("group.gwal");
    let _ = std::fs::remove_file(&path);
    let wal = Arc::new(GroupWal::create(&path).expect("create group WAL"));
    let setup = {
        let wal = Arc::clone(&wal);
        move |id: usize| -> Session {
            let (mut s, _) = Session::builder()
                .name(&format!("s{id}"))
                .options(opts)
                .pred("Sub", 1)
                .group(Arc::clone(&wal))
                .open()
                .expect("open group session");
            let phi = parse(&s.schema().unwrap(), LOAD_CONSTRAINT).unwrap();
            s.add_constraint("cap", phi).unwrap();
            s
        }
    };
    let (elapsed, lat) = spawn_workers(sessions, appends, setup);
    report(sessions, appends, elapsed, lat, Some(wal.stats()))
}

/// Starts a loopback server over a fresh group WAL in `dir`, sized for
/// `sessions` concurrent clients.
fn served_fixture(
    dir: &Path,
    sessions: usize,
    opts: CheckOptions,
) -> (Running, std::net::SocketAddr) {
    let path = dir.join("served.gwal");
    let _ = std::fs::remove_file(&path);
    let limits = Limits {
        max_sessions: sessions + 8,
        max_inflight_appends: sessions + 8,
        // Dispatch blocks its io thread while an append waits in a
        // group-commit window, so the mux needs as many io threads as
        // concurrently-appending clients (capped) or a sleeping commit
        // head-of-line-blocks its shard siblings. Idle-connection
        // economy is measured separately with the deployment default
        // (see `run_idle_connections`).
        io_threads: sessions.clamp(1, 16),
        ..Limits::default()
    };
    let server = Server::with_wal(opts, limits, &path).expect("open served WAL");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let running = mux::start_mux(Arc::new(server), listener).expect("start server");
    let addr = running.addr;
    (running, addr)
}

/// One framed request/response round trip; panics unless `ok:true`.
fn ask(reader: &mut BufReader<TcpStream>, writer: &mut BufWriter<TcpStream>, req: &str) -> String {
    wire::write_frame(writer, req.as_bytes()).expect("write frame");
    let bytes = wire::read_frame(reader, wire::MAX_FRAME_BYTES)
        .expect("read frame")
        .expect("server response");
    let resp = String::from_utf8(bytes).expect("utf-8 response");
    assert!(resp.contains("\"ok\":true"), "request failed: {resp}");
    resp
}

/// Connects, handshakes, and opens session `s{id}` with the load
/// constraint; returns the buffered halves ready for appends.
fn open_client(
    addr: std::net::SocketAddr,
    id: usize,
) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    ask(
        &mut reader,
        &mut writer,
        &format!(r#"{{"op":"hello","schema":"{}"}}"#, wire::WIRE_SCHEMA),
    );
    ask(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"op":"open","session":"s{id}","preds":[["Sub",1]],"constraints":[["cap","{LOAD_CONSTRAINT}"]]}}"#
        ),
    );
    (reader, writer)
}

/// Asks the running server to shut down and joins it, returning the
/// group-WAL counters captured just before the stop.
fn shutdown_served(running: Running) -> Option<GroupStats> {
    let group = running.server.group_stats();
    let addr = running.addr;
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    wire::write_frame(
        &mut stream,
        format!(r#"{{"op":"hello","schema":"{}"}}"#, wire::WIRE_SCHEMA).as_bytes(),
    )
    .unwrap();
    let _ = wire::read_frame(&mut BufReader::new(stream.try_clone().unwrap()), 1 << 20);
    wire::write_frame(&mut stream, br#"{"op":"shutdown","checkpoint":false}"#).unwrap();
    running.join();
    group
}

/// Served: the same group WAL behind a real `ticc-server` on loopback,
/// appends as `ticc-wire-v1` frames. Measures the full stack including
/// dispatch and wire round-trips.
pub fn run_served(dir: &Path, sessions: usize, appends: usize, opts: CheckOptions) -> LoadReport {
    let (running, addr) = served_fixture(dir, sessions, opts);

    let barrier = Arc::new(Barrier::new(sessions + 1));
    let (elapsed, lat) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sessions);
        for id in 0..sessions {
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let (mut reader, mut writer) = open_client(addr, id);
                barrier.wait();
                let mut lat = Vec::with_capacity(appends);
                for step in 0..appends {
                    let verb = if step.is_multiple_of(2) {
                        "insert"
                    } else {
                        "delete"
                    };
                    let req =
                        format!(r#"{{"op":"append","session":"s{id}","{verb}":["Sub({id})"]}}"#);
                    let t0 = Instant::now();
                    ask(&mut reader, &mut writer, &req);
                    lat.push(t0.elapsed());
                }
                lat
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(sessions * appends);
        for h in handles {
            lat.extend(h.join().expect("client"));
        }
        (t0.elapsed(), lat)
    });

    let group = shutdown_served(running);
    report(sessions, appends, elapsed, lat, group)
}

/// One open-loop measured configuration: arrivals are scheduled at a
/// fixed rate regardless of how fast the server answers, so queueing
/// delay counts against latency (no coordinated omission).
pub struct OpenLoopReport {
    /// Client connections issuing the scheduled appends.
    pub sessions: usize,
    /// Target aggregate arrival rate, appends per second.
    pub target_rate: f64,
    /// What the run actually sustained (equals the target unless the
    /// server fell so far behind that the run overran its schedule).
    pub achieved_rate: f64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Latency measured from each append's *scheduled* arrival time to
    /// its response — a server running behind schedule accrues backlog.
    pub latency: LatencySummary,
    /// Round-trip time of one violating append (`Sub(999)` against
    /// `G !Sub(999)`) issued while the load is still draining: the lag
    /// from submitting a violation to the wire reporting its event.
    pub violation_lag: Duration,
}

/// Open-loop served load: `sessions` clients issue `appends` appends
/// each, with global arrivals uniformly spaced at `rate` per second
/// round-robin across clients. Latency is measured from the scheduled
/// send time, so a stalled server keeps accruing latency for every
/// arrival it has not answered. Client 0's final request inserts the
/// violating `Sub(999)` tuple and times how long the wire takes to
/// report the violation event.
pub fn run_served_open_loop(
    dir: &Path,
    sessions: usize,
    appends: usize,
    rate: f64,
    opts: CheckOptions,
) -> OpenLoopReport {
    assert!(rate > 0.0, "open-loop rate must be positive");
    let (running, addr) = served_fixture(dir, sessions, opts);

    let barrier = Arc::new(Barrier::new(sessions + 1));
    let (elapsed, lat, violation_lag) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sessions);
        for id in 0..sessions {
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let (mut reader, mut writer) = open_client(addr, id);
                barrier.wait();
                // All clients share one schedule origin (the barrier
                // release); client `id` owns arrivals id, id+sessions,
                // id+2*sessions, … of the global 1/rate grid.
                let start = Instant::now();
                let mut lat = Vec::with_capacity(appends);
                for step in 0..appends {
                    let nth = id + step * sessions;
                    let sched = start + Duration::from_secs_f64(nth as f64 / rate);
                    let now = Instant::now();
                    if sched > now {
                        std::thread::sleep(sched - now);
                    }
                    let verb = if step.is_multiple_of(2) {
                        "insert"
                    } else {
                        "delete"
                    };
                    let req =
                        format!(r#"{{"op":"append","session":"s{id}","{verb}":["Sub({id})"]}}"#);
                    ask(&mut reader, &mut writer, &req);
                    // From the *scheduled* arrival, not the actual send.
                    lat.push(sched.elapsed());
                }
                let mut lag = None;
                if id == 0 {
                    // The violating append, timed send-to-event while
                    // sibling clients are still draining their grids.
                    let t0 = Instant::now();
                    let resp = ask(
                        &mut reader,
                        &mut writer,
                        r#"{"op":"append","session":"s0","insert":["Sub(999)"]}"#,
                    );
                    lag = Some(t0.elapsed());
                    assert!(
                        resp.contains("\"constraint\""),
                        "violating append must report its event: {resp}"
                    );
                }
                (lat, lag)
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        let mut lat = Vec::with_capacity(sessions * appends);
        let mut lag = Duration::ZERO;
        for h in handles {
            let (l, g) = h.join().expect("client");
            lat.extend(l);
            if let Some(g) = g {
                lag = g;
            }
        }
        (t0.elapsed(), lat, lag)
    });

    shutdown_served(running);
    let latency = latency::summarize(lat);
    OpenLoopReport {
        sessions,
        target_rate: rate,
        achieved_rate: (sessions * appends) as f64 / elapsed.as_secs_f64(),
        elapsed,
        latency,
        violation_lag,
    }
}

/// Resident-memory and thread cost of holding idle connections open.
pub struct IdleConnReport {
    /// Idle handshaken connections held.
    pub conns: usize,
    /// OS threads the server added while the connections were up.
    pub threads_delta: i64,
    /// Resident-set growth (KiB) attributable to the connections.
    pub rss_delta_kb: i64,
    /// `rss_delta_kb` amortised per connection, in bytes.
    pub rss_per_conn_bytes: f64,
}

/// Reads `Threads:` and `VmRSS:` (KiB) from `/proc/self/status`.
/// Returns zeros off Linux, where the probe degrades to thread counts
/// of 0 and the caller's ratios become meaningless but harmless.
fn proc_status() -> (i64, i64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| -> i64 {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// Measures what `conns` idle (handshaken, then silent) connections
/// cost the server process in threads and resident memory: a pollfd
/// plus empty byte vectors each, on the fixed `io_threads` pool. The
/// clients are raw unbuffered `TcpStream`s in the same process — an fd
/// each, no userspace buffers — so the delta is the server's.
pub fn run_idle_connections(conns: usize, io_threads: usize) -> IdleConnReport {
    let opts = CheckOptions::builder().build();
    let limits = Limits {
        max_sessions: 8,
        io_threads,
        ..Limits::default()
    };
    let server = Server::new(opts, limits);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let running = mux::start_mux(Arc::new(server), listener).expect("start server");
    let addr = running.addr;

    let hello = format!(r#"{{"op":"hello","schema":"{}"}}"#, wire::WIRE_SCHEMA);
    // Settle the core's fixed costs (io threads, wake pipes) before the
    // baseline so only per-connection growth lands in the delta.
    std::thread::sleep(Duration::from_millis(50));
    let (threads_before, rss_before) = proc_status();

    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut stream = TcpStream::connect(addr).expect("connect idle");
        // Unbuffered frames are two small writes; Nagle + delayed ACK
        // would add ~40ms to every handshake without this.
        stream.set_nodelay(true).expect("nodelay");
        wire::write_frame(&mut stream, hello.as_bytes()).expect("hello");
        let resp = wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES)
            .expect("hello response")
            .expect("server closed during handshake");
        assert!(!resp.is_empty());
        clients.push(stream);
    }
    std::thread::sleep(Duration::from_millis(200));
    let (threads_after, rss_after) = proc_status();

    // Every connection proves it is *served*, not merely held: a full
    // round trip per socket while all its siblings stay open.
    for stream in &mut clients {
        wire::write_frame(stream, hello.as_bytes()).expect("re-ping");
        let resp = wire::read_frame(stream, wire::MAX_FRAME_BYTES)
            .expect("re-ping response")
            .expect("idle connection went dead");
        assert!(!resp.is_empty());
    }

    // Shut down over a control connection, then close the idle clients.
    let mut ctl = TcpStream::connect(addr).expect("connect for shutdown");
    wire::write_frame(&mut ctl, hello.as_bytes()).unwrap();
    let _ = wire::read_frame(&mut ctl, wire::MAX_FRAME_BYTES);
    wire::write_frame(&mut ctl, br#"{"op":"shutdown","checkpoint":false}"#).unwrap();
    drop(clients);
    running.join();

    let threads_delta = threads_after - threads_before;
    let rss_delta_kb = (rss_after - rss_before).max(0);
    IdleConnReport {
        conns,
        threads_delta,
        rss_delta_kb,
        rss_per_conn_bytes: rss_delta_kb as f64 * 1024.0 / conns.max(1) as f64,
    }
}
