//! The `ticc-server` binary: serve a multi-tenant constraint server,
//! or drive one as a line-oriented client.
//!
//! ```text
//! ticc-server serve --addr 127.0.0.1:7171 [--wal sessions.gwal]
//!                   [--max-sessions N] [--io-threads N]
//!                   [--idle-park-ms MS] [--session-inflight N] [--session-bytes N]
//! ticc-server client --addr 127.0.0.1:7171          # JSON lines on stdin
//! ticc-server soak --addr 127.0.0.1:7171 --conns N  # hold N idle connections
//! ```
//!
//! Serving runs the event-driven core (`--io-threads` `poll(2)` loops
//! multiplexing all connections), so `serve` needs a unix host; the
//! client and soak modes are portable. `--idle-park-ms` checkpoints
//! sessions idle past the deadline into parked snapshot bytes —
//! transparently resumed by their next op. `--session-inflight` /
//! `--session-bytes` set the default per-tenant quotas (wire error
//! code `quota` past either).
//!
//! Exit codes (documented for scripts):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean exit (`shutdown` op received, or client EOF) |
//! | 2    | bad flags / usage |
//! | 3    | the group WAL could not be opened or recovered |
//! | 4    | the listen address could not be bound, or serving is unsupported (non-unix host) |
//! | 5    | client: connection or protocol failure |
//!
//! The client sends the `ticc-wire-v1` handshake itself, then frames
//! each stdin line verbatim and prints one response line per request —
//! `printf '…\n…\n' | ticc-server client --addr …` is a full scripted
//! session.

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;

use ticc_core::CheckOptions;
use ticc_server::{json, wire, Limits, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("soak") => soak(&args[1..]),
        _ => {
            eprintln!("usage: ticc-server serve --addr <ip:port> [--wal <path>] [--max-sessions N] [--io-threads N]");
            eprintln!("                         [--idle-park-ms MS] [--session-inflight N] [--session-bytes N]");
            eprintln!("       ticc-server client --addr <ip:port>   (JSON requests on stdin, one per line)");
            eprintln!("       ticc-server soak --addr <ip:port> --conns N   (hold N handshaken idle connections)");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    addr: Option<String>,
    wal: Option<String>,
    limits: Limits,
    conns: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        addr: None,
        wal: None,
        limits: Limits::default(),
        conns: 64,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => flags.addr = Some(value("--addr")?.clone()),
            "--wal" => flags.wal = Some(value("--wal")?.clone()),
            "--max-sessions" => {
                flags.limits.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|_| "--max-sessions needs an integer".to_owned())?;
            }
            "--io-threads" => {
                flags.limits.io_threads = value("--io-threads")?
                    .parse()
                    .map_err(|_| "--io-threads needs an integer".to_owned())?;
            }
            "--idle-park-ms" => {
                flags.limits.idle_park_ms = value("--idle-park-ms")?
                    .parse()
                    .map_err(|_| "--idle-park-ms needs an integer".to_owned())?;
            }
            "--session-inflight" => {
                flags.limits.max_session_inflight = value("--session-inflight")?
                    .parse()
                    .map_err(|_| "--session-inflight needs an integer".to_owned())?;
            }
            "--session-bytes" => {
                flags.limits.max_session_bytes = value("--session-bytes")?
                    .parse()
                    .map_err(|_| "--session-bytes needs an integer".to_owned())?;
            }
            "--conns" => {
                flags.conns = value("--conns")?
                    .parse()
                    .map_err(|_| "--conns needs an integer".to_owned())?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(flags)
}

fn serve(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ticc-server: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(addr) = flags.addr else {
        eprintln!("ticc-server: serve needs --addr <ip:port>");
        return ExitCode::from(2);
    };
    let opts = CheckOptions::builder()
        .durability(ticc_core::Durability::WalFsync)
        .build();
    let server = match &flags.wal {
        Some(path) => match Server::with_wal(opts, flags.limits, path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ticc-server: cannot open group WAL {path}: {e}");
                return ExitCode::from(3);
            }
        },
        None => Server::new(opts, flags.limits),
    };
    let parked = server.parked_sessions();
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ticc-server: cannot bind {addr}: {e}");
            return ExitCode::from(4);
        }
    };
    let running = match ticc_server::mux::start_mux(Arc::new(server), listener) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ticc-server: cannot start: {e}");
            return ExitCode::from(4);
        }
    };
    eprintln!(
        "ticc-server: listening on {} ({} recovered session(s) parked)",
        running.addr,
        parked.len()
    );
    running.join();
    eprintln!("ticc-server: clean shutdown");
    ExitCode::SUCCESS
}

fn client(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ticc-server: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(addr) = flags.addr else {
        eprintln!("ticc-server: client needs --addr <ip:port>");
        return ExitCode::from(2);
    };
    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ticc-server: cannot connect to {addr}: {e}");
            return ExitCode::from(5);
        }
    };
    let Ok(read_half) = stream.try_clone() else {
        return ExitCode::from(5);
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut ask = |payload: &str| -> Result<String, String> {
        wire::write_frame(&mut writer, payload.as_bytes()).map_err(|e| e.to_string())?;
        let bytes = wire::read_frame(&mut reader, wire::MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_owned())?;
        String::from_utf8(bytes).map_err(|e| e.to_string())
    };
    let hello = json::obj(vec![
        ("op", json::s("hello")),
        ("schema", json::s(wire::WIRE_SCHEMA)),
    ]);
    match ask(&hello.render()) {
        Ok(resp) => eprintln!("ticc-server: {resp}"),
        Err(e) => {
            eprintln!("ticc-server: handshake failed: {e}");
            return ExitCode::from(5);
        }
    }
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match ask(line) {
            Ok(resp) => println!("{resp}"),
            Err(e) => {
                eprintln!("ticc-server: {e}");
                return ExitCode::from(5);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Holds `--conns` handshaken idle connections open, then — once all
/// are up — verifies each still answers a `status`-less round trip
/// (`hello` is stateless and always legal) and exits. Exercises the
/// multiplexer's idle-connection economy from scripts: the server-side
/// cost of this soak is pollfds and buffers, not threads.
fn soak(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ticc-server: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(addr) = flags.addr else {
        eprintln!("ticc-server: soak needs --addr <ip:port>");
        return ExitCode::from(2);
    };
    let hello = json::obj(vec![
        ("op", json::s("hello")),
        ("schema", json::s(wire::WIRE_SCHEMA)),
    ])
    .render();
    let mut conns = Vec::with_capacity(flags.conns);
    for i in 0..flags.conns {
        let mut stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ticc-server: soak connect {i}/{}: {e}", flags.conns);
                return ExitCode::from(5);
            }
        };
        // The frame header and payload go out as two small writes;
        // without this, Nagle holds the second behind a delayed ACK
        // (~40ms per handshake, ~20s across a 512-connection soak).
        let _ = stream.set_nodelay(true);
        if wire::write_frame(&mut stream, hello.as_bytes()).is_err()
            || !matches!(
                wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES),
                Ok(Some(_))
            )
        {
            eprintln!("ticc-server: soak handshake {i}/{} failed", flags.conns);
            return ExitCode::from(5);
        }
        conns.push(stream);
    }
    eprintln!(
        "ticc-server: soak holding {} idle connection(s)",
        conns.len()
    );
    // Every connection proved live while all its siblings idle.
    for (i, stream) in conns.iter_mut().enumerate() {
        if wire::write_frame(stream, hello.as_bytes()).is_err()
            || !matches!(wire::read_frame(stream, wire::MAX_FRAME_BYTES), Ok(Some(_)))
        {
            eprintln!("ticc-server: soak conn {i} went dead under load");
            return ExitCode::from(5);
        }
    }
    println!("soak ok: {} connections served concurrently", conns.len());
    ExitCode::SUCCESS
}
