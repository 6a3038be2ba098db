//! The serving core: a fixed pool of I/O threads multiplexing
//! nonblocking connections over `poll(2)`.
//!
//! A thread-per-connection loop would spend one OS thread (and its
//! stack) per connection, almost all of it blocked in `read`. Here,
//! [`start_mux`] spends `Limits::io_threads` threads total: each owns
//! a *shard* of connections, sleeps in one `poll(2)` call over all of
//! them, and only touches sockets the kernel reports ready. Per idle
//! connection the cost is one pollfd and two empty buffers — not a
//! thread.
//!
//! Mechanics, per shard:
//!
//! - **Readiness, not completion.** Sockets are nonblocking; `poll`
//!   says which are readable/writable. Reads drain until
//!   `WouldBlock`, feeding an incremental [`wire::FrameDecoder`] —
//!   frames arrive split across reads or many-per-read, and the
//!   decoder yields them as they complete.
//! - **Ordered writes with backpressure.** Responses append to a
//!   per-connection write buffer flushed opportunistically and on
//!   `POLLOUT`. While a connection's buffer is above the high-water
//!   mark the shard stops *reading* from it (its pollfd drops
//!   `POLLIN`), so a slow reader throttles its own request stream
//!   instead of ballooning server memory.
//! - **A wake pipe per shard.** The accept thread hands new sockets
//!   to shards round-robin through a mutexed inbox, then writes one
//!   byte to the shard's loopback wake pair so the `poll` call
//!   returns immediately.
//! - **Idle parking.** Shard 0 doubles as the sweep timer: every few
//!   ticks it calls [`Server::park_idle_sessions`], checkpointing
//!   sessions idle past `Limits::idle_park_ms` into parked snapshot
//!   bytes. The next op on a parked name revives it transparently.
//!
//! Requests execute on the I/O thread that decoded them, so different
//! I/O threads drive different tenants' engines at once; the
//! multiplexing win is thread/stack economy and connection scaling,
//! not extra compute. `poll(2)` is O(fds) per call — the right tool
//! up to a few thousand connections per shard, chosen over epoll for
//! portability (one syscall, no registration state machine).
//!
//! Raw `extern "C"` bindings are used for the one syscall std does
//! not expose; std already links libc, so this adds no dependency.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{json, wire, Running, Server};

#[cfg(unix)]
mod sys {
    //! Hand-rolled `poll(2)` binding. `pollfd` layout is identical on
    //! every unix std supports: int fd, short events, short revents.
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over `fds`. `EINTR` is reported as zero readiness —
    /// the caller's loop re-polls.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

/// Serves connections until a `shutdown` op arrives:
/// `Limits::io_threads` I/O threads, each multiplexing its shard of
/// nonblocking connections over `poll(2)`. Returns the bound address
/// immediately in the [`Running`] handle; join it to wait for exit.
#[cfg(unix)]
pub fn start_mux(server: Arc<Server>, listener: TcpListener) -> io::Result<Running> {
    let addr = listener.local_addr()?;
    let _ = server.addr.set(addr);
    let shard_count = server.limits.io_threads.max(1);
    let mut shards = Vec::with_capacity(shard_count);
    let mut io_threads = Vec::with_capacity(shard_count);
    for i in 0..shard_count {
        let (wake_tx, wake_rx) = wake_pair()?;
        let shard = Arc::new(ShardQueue {
            incoming: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
        });
        shards.push(Arc::clone(&shard));
        let io_server = Arc::clone(&server);
        io_threads.push(
            std::thread::Builder::new()
                .name(format!("ticc-io-{i}"))
                .spawn(move || io_loop(io_server, shard, wake_rx, i == 0))?,
        );
    }
    let accept_server = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        let mut next = 0usize;
        for stream in listener.incoming() {
            if accept_server.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shard = &shards[next % shards.len()];
            next += 1;
            shard
                .incoming
                .lock()
                .expect("shard inbox lock")
                .push(stream);
            shard.wake();
        }
        // Shutdown: wake every shard so its poll returns and sees the
        // flag, then wait for the drains to finish.
        for shard in &shards {
            shard.wake();
        }
        for t in io_threads {
            let _ = t.join();
        }
    });
    Ok(Running {
        addr,
        server,
        handle,
    })
}

/// Non-unix hosts have no `poll(2)`: serving is unsupported there.
#[cfg(not(unix))]
pub fn start_mux(_server: Arc<Server>, _listener: TcpListener) -> io::Result<Running> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "serving requires unix poll(2)",
    ))
}

#[cfg(unix)]
struct ShardQueue {
    incoming: Mutex<Vec<TcpStream>>,
    wake_tx: Mutex<TcpStream>,
}

#[cfg(unix)]
impl ShardQueue {
    fn wake(&self) {
        let tx = self.wake_tx.lock().expect("wake lock");
        let _ = (&*tx).write(&[1u8]);
    }
}

/// A loopback socket pair standing in for `pipe(2)` (which std does
/// not expose): writing one byte to `tx` makes `rx` poll readable.
/// The accept is verified against the connector's address so a stray
/// connection to the ephemeral port cannot impersonate the waker.
#[cfg(unix)]
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let tx_addr = tx.local_addr()?;
    loop {
        let (rx, peer) = listener.accept()?;
        if peer == tx_addr {
            rx.set_nonblocking(true)?;
            tx.set_nodelay(true)?;
            return Ok((tx, rx));
        }
    }
}

/// One multiplexed connection: its socket, the incremental frame
/// decoder accumulating reads, and the pending-response buffer.
#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    decoder: wire::FrameDecoder,
    write_buf: Vec<u8>,
    write_pos: usize,
    hello_done: bool,
    /// Peer closed its send side (or framing broke): stop reading,
    /// drain pending writes, then drop.
    eof: bool,
    /// Unrecoverable socket error: drop immediately.
    dead: bool,
}

#[cfg(unix)]
impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        let len = payload.len() as u32;
        self.write_buf.extend_from_slice(&len.to_le_bytes());
        self.write_buf.extend_from_slice(payload);
    }

    /// Writes as much of the pending buffer as the socket accepts.
    fn flush(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
    }

    /// Blocking flush for the moments ordering matters more than
    /// readiness: the shutdown response, and final drains.
    fn flush_blocking(&mut self) {
        let _ = self.stream.set_nonblocking(false);
        if self.write_pos < self.write_buf.len() {
            if self
                .stream
                .write_all(&self.write_buf[self.write_pos..])
                .is_err()
            {
                self.dead = true;
            }
            self.write_buf.clear();
            self.write_pos = 0;
        }
        let _ = self.stream.set_nonblocking(true);
    }
}

/// Pending writes above this stop reads on the connection (its pollfd
/// drops `POLLIN`) until the peer drains responses.
#[cfg(unix)]
fn high_water(server: &Server) -> usize {
    server.limits.max_frame_bytes.max(1 << 20)
}

#[cfg(unix)]
fn io_loop(server: Arc<Server>, shard: Arc<ShardQueue>, wake_rx: TcpStream, sweeper: bool) {
    use std::os::unix::io::AsRawFd;

    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    let mut last_sweep = Instant::now();
    let sweep_every = Duration::from_millis((server.limits.idle_park_ms / 4).clamp(25, 1000));
    let mut stopping = false;
    loop {
        // Adopt connections the accept thread handed us.
        let adopted: Vec<TcpStream> = {
            let mut inbox = shard.incoming.lock().expect("shard inbox lock");
            inbox.drain(..).collect()
        };
        for stream in adopted {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            server.connections.fetch_add(1, Ordering::Relaxed);
            conns.push(Conn {
                stream,
                decoder: wire::FrameDecoder::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                hello_done: false,
                eof: false,
                dead: false,
            });
        }
        if server.is_shutting_down() {
            // Drain what we owe, then exit; no new reads.
            for c in conns.iter_mut() {
                c.flush_blocking();
            }
            return;
        }
        // Build the poll set: the wake pipe first, then every live
        // connection. A connection above the write high-water mark or
        // at EOF polls for writability only.
        pollfds.clear();
        pollfds.push(sys::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        let hw = high_water(&server);
        for c in conns.iter() {
            let mut events = 0i16;
            if !c.eof && c.pending_write() <= hw {
                events |= sys::POLLIN;
            }
            if c.pending_write() > 0 {
                events |= sys::POLLOUT;
            }
            pollfds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        if sys::poll_fds(&mut pollfds, 100).is_err() {
            // poll itself failing (EBADF from a raced close) — drop
            // connections the kernel no longer recognises on the next
            // NVAL report; for now just retry.
            std::thread::yield_now();
            continue;
        }
        // Drain wake bytes; their only meaning is "look at your inbox
        // / the shutdown flag", handled at the loop top.
        if pollfds[0].revents & sys::POLLIN != 0 {
            let mut sink = [0u8; 64];
            loop {
                match (&wake_rx).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let revents = pollfds[i + 1].revents;
            if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                c.dead = true;
                continue;
            }
            if revents & sys::POLLOUT != 0 {
                c.flush();
            }
            if revents & (sys::POLLIN | sys::POLLHUP) != 0 && !c.eof && !c.dead {
                read_ready(&server, c, &mut stopping);
            }
            // Opportunistic flush: most responses fit the socket
            // buffer, so they leave now instead of next tick.
            if c.pending_write() > 0 && !c.dead {
                c.flush();
            }
        }
        conns.retain(|c| !(c.dead || c.eof && c.pending_write() == 0));
        if stopping {
            // We answered a shutdown op: wake the accept loop (it may
            // be blocked with no inbound connection coming) and our
            // sibling shards via the server's own listener address.
            // op_shutdown already connected once; poll's timeout
            // bounds sibling latency regardless.
            for c in conns.iter_mut() {
                c.flush_blocking();
            }
            return;
        }
        if sweeper && server.limits.idle_park_ms > 0 && last_sweep.elapsed() >= sweep_every {
            server.park_idle_sessions(Duration::from_millis(server.limits.idle_park_ms));
            last_sweep = Instant::now();
        }
    }
}

/// Reads everything the socket currently has, decodes complete
/// frames, and executes them in arrival order. Responses are queued
/// on the connection's write buffer — order is preserved end to end.
#[cfg(unix)]
fn read_ready(server: &Arc<Server>, c: &mut Conn, stopping: &mut bool) {
    let mut chunk = [0u8; 64 << 10];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => {
                c.eof = true;
                break;
            }
            Ok(n) => c.decoder.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    loop {
        let payload = match c.decoder.next_frame(server.limits.max_frame_bytes) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(e) => {
                // An oversize length prefix means framing can no
                // longer be trusted: answer once, then hang up.
                let resp = wire::err("parse", e).render();
                c.queue_frame(resp.as_bytes());
                c.eof = true;
                break;
            }
        };
        let frame_bytes = payload.len();
        let resp = match std::str::from_utf8(&payload) {
            Ok(text) => match json::parse(text) {
                Ok(req) => {
                    let (resp, stop) = server.dispatch_sized(&req, frame_bytes, &mut c.hello_done);
                    if stop {
                        *stopping = true;
                    }
                    resp
                }
                Err(parse_err) => wire::err("parse", parse_err).render(),
            },
            Err(_) => wire::err("parse", "frame is not UTF-8").render(),
        };
        c.queue_frame(resp.as_bytes());
        if *stopping {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Limits;
    use ticc_core::CheckOptions;

    fn serve_mux(limits: Limits) -> Running {
        let server = Arc::new(Server::new(CheckOptions::default(), limits));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        start_mux(server, listener).expect("start mux")
    }

    fn frame_roundtrip(stream: &mut TcpStream, req: &str) -> String {
        wire::write_frame(stream, req.as_bytes()).expect("write");
        let payload = wire::read_frame(stream, 1 << 20)
            .expect("read")
            .expect("frame");
        String::from_utf8(payload).expect("utf8")
    }

    #[test]
    fn mux_serves_split_and_coalesced_frames() {
        let running = serve_mux(Limits::default());
        let mut stream = TcpStream::connect(running.addr).expect("connect");
        // Hello split into single bytes across writes: the incremental
        // decoder must reassemble it.
        let hello = format!("{{\"op\":\"hello\",\"schema\":\"{}\"}}", wire::WIRE_SCHEMA);
        let mut framed = (hello.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(hello.as_bytes());
        for b in &framed {
            stream
                .write_all(std::slice::from_ref(b))
                .expect("write byte");
            stream.flush().expect("flush");
        }
        let resp = wire::read_frame(&mut stream, 1 << 20)
            .expect("read")
            .expect("frame");
        let resp = String::from_utf8(resp).expect("utf8");
        assert!(resp.contains("\"ok\":true"), "split hello failed: {resp}");
        // Two requests coalesced into one write: two responses, in
        // order.
        let open = "{\"op\":\"open\",\"session\":\"s\",\"preds\":[[\"P\",1]]}";
        let status = "{\"op\":\"status\",\"session\":\"s\"}";
        let mut both = Vec::new();
        wire::write_frame(&mut both, open.as_bytes()).expect("frame");
        wire::write_frame(&mut both, status.as_bytes()).expect("frame");
        stream.write_all(&both).expect("write both");
        let first = wire::read_frame(&mut stream, 1 << 20)
            .expect("read")
            .expect("frame");
        let second = wire::read_frame(&mut stream, 1 << 20)
            .expect("read")
            .expect("frame");
        let first = String::from_utf8(first).expect("utf8");
        let second = String::from_utf8(second).expect("utf8");
        assert!(
            first.contains("\"session\":\"s\""),
            "open answer out of order: {first}"
        );
        assert!(
            second.contains("\"constraints\""),
            "status answer out of order: {second}"
        );
        let _ = frame_roundtrip(&mut stream, "{\"op\":\"shutdown\"}");
        running.join();
    }

    #[test]
    fn mux_survives_a_maximally_nested_frame() {
        // A frame at the 1 MiB default limit made of nothing but `[`
        // must be one `parse` error, after which the same server keeps
        // serving: unbounded parser recursion would overflow the io
        // thread's stack and abort every tenant.
        let running = serve_mux(Limits::default());
        let mut stream = TcpStream::connect(running.addr).expect("connect");
        let hello = format!("{{\"op\":\"hello\",\"schema\":\"{}\"}}", wire::WIRE_SCHEMA);
        assert!(frame_roundtrip(&mut stream, &hello).contains("\"ok\":true"));
        let hostile = "[".repeat(Limits::default().max_frame_bytes);
        let resp = frame_roundtrip(&mut stream, &hostile);
        assert!(resp.contains("\"code\":\"parse\""), "{resp}");
        let resp = frame_roundtrip(
            &mut stream,
            "{\"op\":\"open\",\"session\":\"s\",\"preds\":[[\"P\",1]]}",
        );
        assert!(resp.contains("\"ok\":true"), "open failed: {resp}");
        let resp = frame_roundtrip(
            &mut stream,
            "{\"op\":\"append\",\"session\":\"s\",\"insert\":[\"P(1)\"]}",
        );
        assert!(resp.contains("\"t\":0"), "append failed: {resp}");
        let _ = frame_roundtrip(&mut stream, "{\"op\":\"shutdown\"}");
        running.join();
    }

    #[test]
    fn mux_answers_many_idle_connections() {
        let limits = Limits {
            io_threads: 2,
            ..Limits::default()
        };
        let running = serve_mux(limits);
        let mut conns: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(running.addr).expect("connect"))
            .collect();
        // Handshake every connection; they then sit idle.
        let hello = format!("{{\"op\":\"hello\",\"schema\":\"{}\"}}", wire::WIRE_SCHEMA);
        for c in conns.iter_mut() {
            let resp = frame_roundtrip(c, &hello);
            assert!(resp.contains("\"ok\":true"));
        }
        // A late arrival still gets served while the others idle.
        let mut active = TcpStream::connect(running.addr).expect("connect");
        let resp = frame_roundtrip(&mut active, &hello);
        assert!(resp.contains("\"ok\":true"));
        let resp = frame_roundtrip(
            &mut active,
            "{\"op\":\"open\",\"session\":\"live\",\"preds\":[[\"P\",1]]}",
        );
        assert!(resp.contains("\"ok\":true"), "open failed: {resp}");
        let resp = frame_roundtrip(
            &mut active,
            "{\"op\":\"append\",\"session\":\"live\",\"insert\":[\"P(1)\"]}",
        );
        assert!(resp.contains("\"t\":0"), "append failed: {resp}");
        let _ = frame_roundtrip(&mut active, "{\"op\":\"shutdown\"}");
        running.join();
    }
}
