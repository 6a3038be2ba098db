//! Served-vs-in-process equivalence and crash fault injection.
//!
//! The server must be a transparent multiplexer: a session driven over
//! the wire (JSON frames, group-commit WAL, admission control) must
//! produce **bit-identical** events and stats to the same transaction
//! sequence driven through an in-process [`Session`] — 120 seeded
//! random workloads check exactly that. And a crash mid-commit-window
//! must honour the store layer's ack contract end to end: no
//! acknowledged append may be lost, unacknowledged ones may be.
//!
//! Serving requires unix `poll(2)` (see `ticc_server::mux`).
#![cfg(unix)]

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use ticc_core::{CheckOptions, Durability, Session};
use ticc_fotl::parser::parse;
use ticc_server::json::{self, Json};
use ticc_server::{wire, Limits, Server};
use ticc_tdb::Transaction;

const CONSTRAINT: &str = "forall x. G (Sub(x) -> X G !Sub(x))";
const TRIGGER: &str = "F (Sub(x) & X F Sub(x))";

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One pseudo-random workload: per commit, 1–2 insert/delete ops over
/// Sub with values in 0..3.
fn workload(seed: u64) -> Vec<Vec<(bool, u64)>> {
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let commits = 3 + (splitmix64(&mut rng) % 4) as usize;
    (0..commits)
        .map(|_| {
            let ops = 1 + (splitmix64(&mut rng) % 2) as usize;
            (0..ops)
                .map(|_| {
                    let insert = !splitmix64(&mut rng).is_multiple_of(3);
                    let value = splitmix64(&mut rng) % 3;
                    (insert, value)
                })
                .collect()
        })
        .collect()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let mut c = Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        };
        let r = c.ask(r#"{"op":"hello","schema":"ticc-wire-v1"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        c
    }

    fn ask(&mut self, payload: &str) -> Json {
        wire::write_frame(&mut self.writer, payload.as_bytes()).unwrap();
        let bytes = wire::read_frame(&mut self.reader, 8 << 20)
            .unwrap()
            .unwrap();
        json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap()
    }

    fn ok(&mut self, payload: &str) -> Json {
        let r = self.ask(payload);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{payload} -> {r:?}");
        r
    }
}

/// Strips everything legitimately allowed to differ between a served
/// and an in-process run: wall-clock timers (`*_ns`), the physical
/// store counters, the injected `server` object, and the `durable`
/// flag.
fn strip_volatile(v: &Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| {
                    !k.ends_with("_ns") && k != "store" && k != "server" && k != "durable"
                })
                .map(|(k, val)| (k.clone(), strip_volatile(val)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// Renders a committed step as comparable JSON (the wire's own shape).
fn step_json(t: usize, events: &[(String, usize)], fired: &[(String, Vec<(String, u64)>)]) -> Json {
    json::obj(vec![
        ("t", Json::U64(t as u64)),
        (
            "events",
            Json::Arr(
                events
                    .iter()
                    .map(|(name, at)| {
                        json::obj(vec![
                            ("constraint", json::s(name.clone())),
                            ("at", Json::U64(*at as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fired",
            Json::Arr(
                fired
                    .iter()
                    .map(|(name, subst)| {
                        json::obj(vec![
                            ("trigger", json::s(name.clone())),
                            (
                                "subst",
                                Json::Obj(
                                    subst
                                        .iter()
                                        .map(|(v, val)| (v.clone(), Json::U64(*val)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The served-vs-in-process determinism suite: 120 seeded workloads,
/// each driven over the wire and through an in-process [`Session`],
/// asserting bit-identical event streams (and, when no forced parking
/// perturbs engine counters, bit-identical stats documents). With
/// `force_parking`, every session is force-parked mid-stream after its
/// second commit — the suite then also proves transparent resume
/// preserves the event stream bit for bit.
fn determinism_suite(tag: &str, force_parking: bool) {
    let wal_path = std::env::temp_dir().join(format!(
        "ticc-served-determinism-{tag}-{}.gwal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&wal_path);
    let opts = CheckOptions::builder()
        .durability(Durability::WalFsync)
        .build();
    let server = Arc::new(Server::with_wal(opts, Limits::default(), &wal_path).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let running = ticc_server::mux::start_mux(Arc::clone(&server), listener).unwrap();
    let mut client = Client::connect(running.addr);

    for seed in 0..120u64 {
        let script = workload(seed);
        let name = format!("s{seed}");

        // Served run.
        let open = format!(
            r#"{{"op":"open","session":"{name}","preds":[["Sub",1]],"constraints":[["once","{CONSTRAINT}"]],"triggers":[["dup","{TRIGGER}"]]}}"#
        );
        client.ok(&open);
        let mut served_steps = Vec::new();
        for (i, commit) in script.iter().enumerate() {
            if force_parking && i == 2 {
                // Force the idle sweep mid-stream: the session leaves
                // memory as parked snapshot bytes, and the next append
                // below must revive it with nothing observably
                // different.
                let parked = running.server.park_idle_sessions(std::time::Duration::ZERO);
                assert!(parked >= 1, "seed {seed}: nothing parked mid-stream");
            }
            // The ordered `ops` spelling: intra-transaction order is
            // part of the workload's semantics.
            let ops: Vec<String> = commit
                .iter()
                .map(|(ins, v)| format!("[\"{}\",\"Sub({v})\"]", if *ins { "+" } else { "-" }))
                .collect();
            let req = format!(
                r#"{{"op":"append","session":"{name}","ops":[{}]}}"#,
                ops.join(",")
            );
            let r = client.ok(&req);
            served_steps.push(json::obj(vec![
                ("t", r.get("t").unwrap().clone()),
                ("events", r.get("events").unwrap().clone()),
                ("fired", r.get("fired").unwrap().clone()),
            ]));
        }
        let served_stats = strip_volatile(
            client
                .ok(&format!(r#"{{"op":"stats","session":"{name}"}}"#))
                .get("stats")
                .unwrap(),
        );
        let served_status = client.ok(&format!(r#"{{"op":"status","session":"{name}"}}"#));

        // In-process run: same workload through the Session API, no
        // wire, no group log.
        let (mut session, _) = Session::builder().pred("Sub", 1).open().unwrap();
        let schema = session.schema().unwrap();
        let phi = parse(&schema, CONSTRAINT).unwrap();
        session.add_constraint("once", phi).unwrap();
        let trig = parse(&schema, TRIGGER).unwrap();
        session.add_trigger("dup", trig).unwrap();
        let sub = schema.pred("Sub").unwrap();
        let mut local_steps = Vec::new();
        for commit in &script {
            let mut tx = Transaction::new();
            for (insert, v) in commit {
                tx = if *insert {
                    tx.insert(sub, vec![*v])
                } else {
                    tx.delete(sub, vec![*v])
                };
            }
            let c = session.append(&tx).unwrap();
            let events: Vec<(String, usize)> =
                c.events.iter().map(|e| (e.name.clone(), e.at)).collect();
            let fired: Vec<(String, Vec<(String, u64)>)> = c
                .fired
                .iter()
                .map(|f| {
                    (
                        f.name.clone(),
                        f.substitution
                            .iter()
                            .map(|(v, val)| (v.clone(), *val))
                            .collect(),
                    )
                })
                .collect();
            local_steps.push(step_json(c.t, &events, &fired));
        }
        let local_stats = strip_volatile(&json::parse(&session.stats_json()).unwrap());

        assert_eq!(
            served_steps, local_steps,
            "seed {seed}: served and in-process event streams diverge"
        );
        // Constraint verdicts must agree mode-independently.
        let statuses = served_status.get("constraints").unwrap().as_arr().unwrap();
        let local_violated = session
            .constraints()
            .any(|(id, _, _)| matches!(session.status(id), ticc_core::Status::Violated { .. }));
        assert_eq!(
            statuses[0].get("status").unwrap().as_str() == Some("violated"),
            local_violated,
            "seed {seed}: served and in-process verdicts diverge"
        );
        if !force_parking {
            // A park/resume cycle legitimately resets *engine*-level
            // counters (the resumed engine starts from its snapshot),
            // so the full stats document is only compared when no
            // forced parking perturbed it. Event streams and verdicts
            // above are compared in every mode.
            assert_eq!(
                served_stats, local_stats,
                "seed {seed}: served and in-process stats diverge"
            );
        } else {
            // Session-lifetime counters must survive parking even so.
            assert_eq!(
                served_stats.get("session"),
                local_stats.get("session"),
                "seed {seed}: session counters lost across park/resume"
            );
        }
    }

    // The whole suite ran through one shared group log: group commit
    // must actually have logged every acknowledged append.
    let group = server.server_stats_json();
    let group = json::parse(&group).unwrap();
    let frames = group
        .get("group")
        .unwrap()
        .get("frames")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(frames > 120, "group log saw all sessions' frames: {frames}");

    client.ok(r#"{"op":"shutdown","checkpoint":false}"#);
    running.join();
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn served_sessions_match_in_process_across_120_seeds_mux() {
    determinism_suite("mux", false);
}

#[test]
fn served_sessions_match_in_process_with_parking_forced_mid_stream() {
    determinism_suite("mux-park", true);
}

#[test]
fn crash_mid_commit_window_loses_only_unacked_appends() {
    let wal_path =
        std::env::temp_dir().join(format!("ticc-served-crash-{}.gwal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let opts = CheckOptions::builder()
        .durability(Durability::WalFsync)
        .build();

    // Phase 1: serve, append 5 acknowledged states, remember the file
    // length at the third ack.
    let cut;
    {
        let server = Arc::new(Server::with_wal(opts, Limits::default(), &wal_path).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let running = ticc_server::mux::start_mux(Arc::clone(&server), listener).unwrap();
        let mut client = Client::connect(running.addr);
        client.ok(&format!(
            r#"{{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","{CONSTRAINT}"]]}}"#
        ));
        let mut len_at_ack = Vec::new();
        for req in [
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#,
            r#"{"op":"append","session":"a","delete":["Sub(1)"]}"#,
            r#"{"op":"append","session":"a","insert":["Sub(2)"]}"#,
            r#"{"op":"append","session":"a","delete":["Sub(2)"]}"#,
            r#"{"op":"append","session":"a","insert":["Sub(3)"]}"#,
        ] {
            client.ok(req);
            // The ack means the frame is fsynced: its bytes are on disk
            // *now*, before the response reached us.
            len_at_ack.push(std::fs::metadata(&wal_path).unwrap().len());
        }
        cut = len_at_ack[2];
        // Crash: stop without the shutdown checkpoint, then tear the
        // file back to the third ack — appends 4 and 5 were "mid
        // window" from the client's perspective.
        client.ok(r#"{"op":"shutdown","checkpoint":false}"#);
        running.join();
    }
    let full = std::fs::metadata(&wal_path).unwrap().len();
    assert!(cut < full, "later appends extended the file past the cut");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    // Phase 2: restart on the torn file. The session is parked (it was
    // never checkpointed); re-opening with the schema replays the
    // logged suffix. The three acknowledged states must all be there.
    let server = Arc::new(Server::with_wal(opts, Limits::default(), &wal_path).unwrap());
    assert_eq!(server.parked_sessions(), vec!["a".to_owned()]);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let running = ticc_server::mux::start_mux(Arc::clone(&server), listener).unwrap();
    let mut client = Client::connect(running.addr);
    let r = client.ok(&format!(
        r#"{{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","{CONSTRAINT}"]]}}"#
    ));
    assert_eq!(
        r.get("states").unwrap().as_u64(),
        Some(3),
        "exactly the acked prefix: {r:?}"
    );
    // The recovered states are live constraint state, not just rows:
    // re-inserting Sub(1) (inserted at t=0) violates `once`.
    let r = client.ok(r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#);
    assert_eq!(
        r.get("events").unwrap().as_arr().unwrap().len(),
        1,
        "restored history still enforces the constraint: {r:?}"
    );
    client.ok(r#"{"op":"shutdown","checkpoint":false}"#);
    running.join();
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn checkpointed_server_restart_resumes_without_redeclaration() {
    let wal_path =
        std::env::temp_dir().join(format!("ticc-served-resume-{}.gwal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let opts = CheckOptions::builder()
        .durability(Durability::WalFsync)
        .build();
    let statuses;
    {
        let server = Arc::new(Server::with_wal(opts, Limits::default(), &wal_path).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let running = ticc_server::mux::start_mux(Arc::clone(&server), listener).unwrap();
        let mut client = Client::connect(running.addr);
        client.ok(&format!(
            r#"{{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","{CONSTRAINT}"]],"triggers":[["dup","{TRIGGER}"]]}}"#
        ));
        client.ok(r#"{"op":"append","session":"a","insert":["Sub(7)"]}"#);
        let r = client.ok(r#"{"op":"checkpoint","session":"a"}"#);
        assert!(r.get("bytes").unwrap().as_u64().unwrap() > 0);
        // One more append after the checkpoint, and a second
        // checkpoint, so the log holds frames compaction can drop.
        client.ok(r#"{"op":"append","session":"a","delete":["Sub(7)"]}"#);
        client.ok(r#"{"op":"checkpoint","session":"a"}"#);
        statuses = client
            .ok(r#"{"op":"status","session":"a"}"#)
            .get("constraints")
            .cloned();
        let before = std::fs::metadata(&wal_path).unwrap().len();
        // The default shutdown checkpoints every live session, then
        // compacts the log.
        client.ok(r#"{"op":"shutdown"}"#);
        running.join();
        let after = std::fs::metadata(&wal_path).unwrap().len();
        assert!(
            after < before,
            "the compacting shutdown shrinks the log ({before} -> {after} bytes)"
        );
    }
    let server = Arc::new(Server::with_wal(opts, Limits::default(), &wal_path).unwrap());
    assert_eq!(
        server.group_stats().unwrap().truncated_bytes,
        0,
        "the compacted log reopens without a torn tail"
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let running = ticc_server::mux::start_mux(Arc::clone(&server), listener).unwrap();
    let mut client = Client::connect(running.addr);
    // No preds, no constraint sources: the checkpoint carries the whole
    // session, including the trigger definitions in the app blob.
    let r = client.ok(r#"{"op":"open","session":"a"}"#);
    assert_eq!(r.get("states").unwrap().as_u64(), Some(2), "{r:?}");
    assert_eq!(r.get("constraints").unwrap().as_u64(), Some(1), "{r:?}");
    let resumed = client.ok(r#"{"op":"status","session":"a"}"#);
    assert_eq!(
        resumed.get("constraints").cloned(),
        statuses,
        "statuses survive the restart"
    );
    let r = client.ok(r#"{"op":"append","session":"a","insert":["Sub(7)"]}"#);
    assert_eq!(
        r.get("events").unwrap().as_arr().unwrap().len(),
        1,
        "resubmission after resume violates: {r:?}"
    );
    assert_eq!(
        r.get("fired").unwrap().as_arr().unwrap().len(),
        1,
        "restored trigger fires: {r:?}"
    );
    client.ok(r#"{"op":"shutdown"}"#);
    running.join();
    let _ = std::fs::remove_file(&wal_path);
}
