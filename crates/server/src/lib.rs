//! `ticc-server` — a multi-tenant constraint server.
//!
//! Hosts many independent [`Session`]s (one temporal database, one
//! set of constraints and triggers each) in one long-lived process,
//! spoken to over the [`wire`] protocol (`ticc-wire-v1`: length-
//! prefixed JSON frames over TCP). Connections are served by the
//! event-driven [`mux`] core — a fixed pool of I/O threads
//! multiplexing nonblocking sockets over `poll(2)`, so serving
//! requires a unix host (the session layer, [`Server::dispatch`] and
//! the wire codec are portable). Several properties distinguish it
//! from "a shell per client":
//!
//! - **Group-commit durability.** All sessions log into one shared
//!   [`GroupWal`]; a `Durability::WalFsync` append waits for its
//!   commit window, not its own fsync, so one disk flush acknowledges
//!   appends from many sessions at once. The ack contract (an
//!   acknowledged append survives any crash) is the store layer's,
//!   proven byte-exhaustively in `ticc-store`.
//! - **Admission control, not queues.** A configurable ceiling on
//!   concurrently checking appends and on staged-but-unflushed log
//!   bytes; past either, the server answers `backpressure` immediately
//!   instead of buffering unboundedly. Clients retry; memory stays
//!   bounded.
//! - **Parallelism at the tenant grain.** Each append runs on the I/O
//!   thread that owns its connection; different I/O threads drive
//!   different tenants' engines at once.
//! - **Per-tenant quotas.** Beyond the global ceilings, each session
//!   carries its own inflight/pending-byte budget; one tenant
//!   saturating its quota gets `quota` refusals while its neighbours
//!   keep committing.
//! - **Idle-session parking.** Sessions idle past a deadline are
//!   checkpointed to parked snapshot bytes and dropped from memory;
//!   the next op on the name transparently resumes them, counters and
//!   all.
//!
//! Stats are the `ticc-engine-stats-v4` schema with the `server`
//! object filled in.
//!
//! A `shutdown` with `checkpoint` (the default) checkpoints every live
//! session and then compacts the log once ([`GroupWal::compact`]), so
//! a restart reads each session's newest snapshot and suffix, not
//! every frame ever written; parked and recovered-but-unopened
//! sessions keep their newest snapshot and suffix, because compaction
//! keeps every registered session.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ticc_core::{
    group_stats_json, stats_json_with, CheckOptions, Committed, GroupWal, HistoryBudget,
    ParkedSession, Session, Status,
};
use ticc_fotl::parser::parse as parse_formula;
use ticc_store::codec::parse_fact;
use ticc_tdb::{Transaction, Value};

pub mod json;
pub mod mux;
pub mod wire;

use json::Json;

/// Admission-control and resource limits. Zero is honoured literally
/// (`max_inflight_appends: 0` refuses every append) — useful in tests.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Live sessions the registry will hold.
    pub max_sessions: usize,
    /// Appends allowed to be inside the engine+log path at once,
    /// across all sessions; beyond this the server answers
    /// `backpressure`.
    pub max_inflight_appends: usize,
    /// Staged-but-unflushed group-log bytes beyond which appends get
    /// `backpressure`.
    pub max_pending_bytes: usize,
    /// Largest request frame accepted.
    pub max_frame_bytes: usize,
    /// Ignored: engines no longer run worker pools to size. Kept so
    /// existing `Limits` literals still compile.
    pub workers: usize,
    /// I/O threads multiplexing connections in the event-driven core
    /// ([`mux`]). Each owns a shard of connections; clamped to ≥ 1.
    pub io_threads: usize,
    /// Idle deadline in milliseconds after which the mux loop parks a
    /// session (checkpoint to snapshot bytes, drop from memory; the
    /// next op resumes it transparently). `0` disables the sweep.
    pub idle_park_ms: u64,
    /// Default per-session cap on concurrently-inflight appends; an
    /// `open` may lower (or raise, up to the global ceiling) its own
    /// with `"max_inflight"`. Past it the tenant gets `quota`.
    pub max_session_inflight: usize,
    /// Default per-session cap on request bytes admitted but not yet
    /// answered; `open`'s `"max_pending_bytes"` overrides per tenant.
    pub max_session_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_sessions: 4096,
            max_inflight_appends: 256,
            max_pending_bytes: 8 << 20,
            max_frame_bytes: 1 << 20,
            workers: 8,
            io_threads: 4,
            idle_park_ms: 0,
            max_session_inflight: 64,
            max_session_bytes: 4 << 20,
        }
    }
}

/// A recovered-but-unopened session: the group log knows its name and
/// holds its snapshot/suffix, but no client has attached yet. A clean
/// `close` re-parks its closing checkpoint here, so a later open of
/// the same name resumes from it — served state and crash-recovered
/// state stay identical.
struct Parked {
    snapshot: Option<Vec<u8>>,
    suffix: Vec<Vec<u8>>,
    /// Set when the entry came from the idle sweep rather than the
    /// group log or a clean close: a full [`ParkedSession`] (snapshot
    /// + options + counters) that resumes without WAL replay.
    resume: Option<ParkedSession>,
}

/// Per-session admission-control state. Lives as long as the tenant
/// has been seen this process lifetime (parking does not reset it —
/// quotas and idleness are properties of the tenant, not the resident
/// session object).
struct Tenant {
    inflight: AtomicUsize,
    pending_bytes: AtomicUsize,
    max_inflight: AtomicUsize,
    max_bytes: AtomicUsize,
    /// Milliseconds since server start at the last op touching this
    /// tenant; drives the idle-parking sweep.
    last_op_ms: AtomicU64,
}

/// RAII release of a tenant's admitted inflight/byte budget.
struct TenantGuard<'a> {
    tenant: &'a Tenant,
    bytes: usize,
}

impl Drop for TenantGuard<'_> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::SeqCst);
        self.tenant
            .pending_bytes
            .fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

/// One registry entry. The `Option` is the session's liveness: a slot
/// holding `None` is either still being built by an `open` (which
/// holds the slot lock throughout) or was emptied by a `close`. Ops
/// that find `None` answer `unknown-session`; the slot shape lets a
/// close take the session out without the remove/re-insert window a
/// plain `HashMap<String, Arc<Mutex<Session>>>` registry had.
type Slot = Arc<Mutex<Option<Session>>>;

/// The shared server state behind every connection thread.
pub struct Server {
    opts: CheckOptions,
    limits: Limits,
    wal: Option<Arc<GroupWal>>,
    sessions: Mutex<HashMap<String, Slot>>,
    parked: Mutex<HashMap<String, Parked>>,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    started: Instant,
    inflight: AtomicUsize,
    connections: AtomicU64,
    frames: AtomicU64,
    backpressure: AtomicU64,
    quota_refusals: AtomicU64,
    parks: AtomicU64,
    resumes: AtomicU64,
    shutdown: AtomicBool,
    addr: OnceLock<SocketAddr>,
}

impl Server {
    /// An ephemeral server: sessions live in memory only.
    pub fn new(opts: CheckOptions, limits: Limits) -> Self {
        Self {
            opts,
            limits,
            wal: None,
            sessions: Mutex::new(HashMap::new()),
            parked: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            started: Instant::now(),
            inflight: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            quota_refusals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr: OnceLock::new(),
        }
    }

    /// A durable server over a shared group-commit log at `path`.
    /// Sessions found in the log are parked until a client re-opens
    /// them by name.
    pub fn with_wal(
        opts: CheckOptions,
        limits: Limits,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, ticc_store::StoreError> {
        let (wal, recovered) = GroupWal::open_or_create(path)?;
        let mut server = Self::new(opts, limits);
        let parked = recovered
            .sessions
            .into_iter()
            .map(|s| {
                (
                    s.name,
                    Parked {
                        snapshot: s.snapshot,
                        suffix: s.suffix,
                        resume: None,
                    },
                )
            })
            .collect();
        server.wal = Some(Arc::new(wal));
        server.parked = Mutex::new(parked);
        Ok(server)
    }

    /// Names of sessions recovered from the log and awaiting a client.
    pub fn parked_sessions(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .parked
            .lock()
            .expect("parked lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Whether a `shutdown` op has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The group WAL's counters, when the server has one.
    pub fn group_stats(&self) -> Option<ticc_store::GroupStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// The `server` object of the stats schema, as a JSON document.
    pub fn server_stats_json(&self) -> String {
        let sessions = self.sessions.lock().expect("sessions lock").len();
        let parked = self.parked.lock().expect("parked lock").len();
        let group = self
            .wal
            .as_ref()
            .map_or_else(|| "null".to_owned(), |wal| group_stats_json(&wal.stats()));
        format!(
            "{{\"schema\":\"{}\",\"sessions\":{sessions},\"parked\":{parked},\
             \"connections\":{},\"frames\":{},\"inflight\":{},\"backpressure\":{},\
             \"quota_refusals\":{},\"parks\":{},\"resumes\":{},\
             \"io_threads\":{},\"group\":{group},\
             \"limits\":{{\"max_sessions\":{},\"max_inflight_appends\":{},\
             \"max_pending_bytes\":{},\"max_frame_bytes\":{},\
             \"max_session_inflight\":{},\"max_session_bytes\":{},\
             \"idle_park_ms\":{}}}}}",
            wire::WIRE_SCHEMA,
            self.connections.load(Ordering::Relaxed),
            self.frames.load(Ordering::Relaxed),
            self.inflight.load(Ordering::Relaxed),
            self.backpressure.load(Ordering::Relaxed),
            self.quota_refusals.load(Ordering::Relaxed),
            self.parks.load(Ordering::Relaxed),
            self.resumes.load(Ordering::Relaxed),
            self.limits.io_threads,
            self.limits.max_sessions,
            self.limits.max_inflight_appends,
            self.limits.max_pending_bytes,
            self.limits.max_frame_bytes,
            self.limits.max_session_inflight,
            self.limits.max_session_bytes,
            self.limits.idle_park_ms,
        )
    }

    fn session(&self, name: &str) -> Option<Slot> {
        self.sessions
            .lock()
            .expect("sessions lock")
            .get(name)
            .cloned()
    }

    /// Milliseconds since the server started — the monotonic stamp
    /// tenants carry in `last_op_ms`.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The tenant record for `name`, created on first sight with the
    /// server-wide default quotas.
    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock().expect("tenants lock");
        let tenant = tenants.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(Tenant {
                inflight: AtomicUsize::new(0),
                pending_bytes: AtomicUsize::new(0),
                max_inflight: AtomicUsize::new(self.limits.max_session_inflight),
                max_bytes: AtomicUsize::new(self.limits.max_session_bytes),
                last_op_ms: AtomicU64::new(self.now_ms()),
            })
        });
        Arc::clone(tenant)
    }

    /// Stamps tenant liveness — any op naming the session counts as
    /// activity for the idle-parking sweep.
    fn touch_tenant(&self, req: &Json) {
        if let Some(name) = req.get("session").and_then(Json::as_str) {
            let tenants = self.tenants.lock().expect("tenants lock");
            if let Some(t) = tenants.get(name) {
                t.last_op_ms.store(self.now_ms(), Ordering::Relaxed);
            }
        }
    }

    /// Admits `bytes` of request work against the tenant's quota.
    /// Charges first, then checks: on refusal the guard's drop undoes
    /// the charge, so a racing admit never double-spends the budget.
    fn admit_tenant<'a>(&self, tenant: &'a Tenant, bytes: usize) -> Result<TenantGuard<'a>, Json> {
        let inflight = tenant.inflight.fetch_add(1, Ordering::SeqCst);
        let pending = tenant.pending_bytes.fetch_add(bytes, Ordering::SeqCst);
        let guard = TenantGuard { tenant, bytes };
        let max_inflight = tenant.max_inflight.load(Ordering::Relaxed);
        if inflight >= max_inflight {
            self.quota_refusals.fetch_add(1, Ordering::Relaxed);
            return Err(wire::err(
                "quota",
                format!(
                    "session quota: {inflight} request(s) already in flight (limit {max_inflight})"
                ),
            ));
        }
        let max_bytes = tenant.max_bytes.load(Ordering::Relaxed);
        if pending + bytes > max_bytes {
            self.quota_refusals.fetch_add(1, Ordering::Relaxed);
            return Err(wire::err(
                "quota",
                format!(
                    "session quota: {} request byte(s) pending would exceed the {max_bytes} byte limit",
                    pending + bytes
                ),
            ));
        }
        Ok(guard)
    }

    /// Dispatches one request; returns the rendered response and
    /// whether the connection must stop serving (shutdown accepted).
    /// `frame_bytes` is the size of the request frame on the wire —
    /// the unit the per-tenant byte quota charges.
    pub fn dispatch_sized(
        &self,
        req: &Json,
        frame_bytes: usize,
        hello_done: &mut bool,
    ) -> (String, bool) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.touch_tenant(req);
        self.dispatch_inner(req, frame_bytes, hello_done)
    }

    /// [`Server::dispatch_sized`] with the frame size taken from the
    /// rendered request — the in-process convenience used by unit tests.
    pub fn dispatch(&self, req: &Json, hello_done: &mut bool) -> (String, bool) {
        let bytes = req.render().len();
        self.dispatch_sized(req, bytes, hello_done)
    }

    fn dispatch_inner(
        &self,
        req: &Json,
        frame_bytes: usize,
        hello_done: &mut bool,
    ) -> (String, bool) {
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return (wire::err("bad-frame", "missing \"op\"").render(), false);
        };
        if !*hello_done && op != "hello" {
            return (
                wire::err(
                    "bad-frame",
                    format!(
                        "handshake required: send {{\"op\":\"hello\",\"schema\":\"{}\"}} first",
                        wire::WIRE_SCHEMA
                    ),
                )
                .render(),
                false,
            );
        }
        match op {
            "hello" => {
                let schema = req.get("schema").and_then(Json::as_str).unwrap_or("");
                if schema != wire::WIRE_SCHEMA {
                    return (
                        wire::err(
                            "unsupported-schema",
                            format!(
                                "this server speaks {}, client offered '{schema}'",
                                wire::WIRE_SCHEMA
                            ),
                        )
                        .render(),
                        false,
                    );
                }
                *hello_done = true;
                (
                    wire::ok(vec![
                        ("schema", json::s(wire::WIRE_SCHEMA)),
                        (
                            "server",
                            json::s(concat!("ticc-server/", env!("CARGO_PKG_VERSION"))),
                        ),
                    ])
                    .render(),
                    false,
                )
            }
            "open" => (self.op_open(req).render(), false),
            "append" => (self.op_append(req, frame_bytes).render(), false),
            "append_batch" => (self.op_append_batch(req, frame_bytes).render(), false),
            "status" => (self.op_status(req).render(), false),
            "stats" => (self.op_stats(req), false),
            "checkpoint" => (self.op_checkpoint(req).render(), false),
            "close" => (self.op_close(req).render(), false),
            "shutdown" => {
                let checkpoint = req
                    .get("checkpoint")
                    .and_then(Json::as_bool)
                    .unwrap_or(true);
                let resp = self.op_shutdown(checkpoint);
                (resp.render(), true)
            }
            other => (
                wire::err("bad-frame", format!("unknown op '{other}'")).render(),
                false,
            ),
        }
    }

    fn op_open(&self, req: &Json) -> Json {
        let Some(name) = req.get("session").and_then(Json::as_str) else {
            return wire::err("bad-frame", "open needs a \"session\" name");
        };
        // Bounded retry: a concurrent close can empty a slot between
        // our registry lookup and the slot lock; loop back to find (or
        // create) its successor. Lock order everywhere: the registry
        // lock is never held while waiting on a slot lock, so a close
        // holding its slot while it parks/unregisters cannot deadlock
        // against us.
        for _ in 0..8 {
            let mut built_resumed: Option<bool> = None;
            let (slot, fresh) = {
                let mut sessions = self.sessions.lock().expect("sessions lock");
                match sessions.get(name) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        if sessions.len() >= self.limits.max_sessions {
                            return wire::err(
                                "session-limit",
                                format!(
                                    "the server holds its maximum of {} session(s)",
                                    self.limits.max_sessions
                                ),
                            );
                        }
                        let slot: Slot = Arc::new(Mutex::new(None));
                        sessions.insert(name.to_owned(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            let mut guard = slot.lock().expect("session lock");
            if guard.is_none() {
                if !fresh {
                    // Emptied by a concurrent close (or a concurrent
                    // open whose build failed): go look again.
                    drop(guard);
                    std::thread::yield_now();
                    continue;
                }
                // We created the placeholder: build the session while
                // holding only the slot lock, so WAL replay and group
                // registration never stall other sessions' registry
                // lookups. Concurrent ops on this name block on the
                // slot until the build lands.
                match self.build_session(name, req) {
                    Ok((session, was_resumed)) => {
                        *guard = Some(session);
                        built_resumed = Some(was_resumed);
                    }
                    Err(resp) => {
                        drop(guard);
                        let mut sessions = self.sessions.lock().expect("sessions lock");
                        if sessions.get(name).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                            sessions.remove(name);
                        }
                        return resp;
                    }
                }
            }
            let session = guard.as_mut().expect("slot just checked/filled");
            // Constraints and triggers are idempotent by name so a
            // client can resend its full `open` after a reconnect.
            if let Err(resp) = register_formulas(session, req) {
                return resp;
            }
            // Tenant quotas: created on first open, re-tunable on any
            // later one. Values are clamped to the global ceilings —
            // a tenant cannot grant itself more than the server has.
            let tenant = self.tenant(name);
            if let Some(mi) = req.get("max_inflight").and_then(Json::as_u64) {
                let mi = (mi as usize).min(self.limits.max_inflight_appends);
                tenant.max_inflight.store(mi, Ordering::Relaxed);
            }
            if let Some(mb) = req.get("max_pending_bytes").and_then(Json::as_u64) {
                let mb = (mb as usize).min(self.limits.max_pending_bytes);
                tenant.max_bytes.store(mb, Ordering::Relaxed);
            }
            tenant.last_op_ms.store(self.now_ms(), Ordering::Relaxed);
            let resumed = built_resumed.unwrap_or_else(|| {
                session.stats().commits == 0 && session.history().is_some_and(|h| !h.is_empty())
            });
            return wire::ok(vec![
                ("session", json::s(name)),
                ("resumed", Json::Bool(resumed)),
                (
                    "states",
                    Json::U64(session.history().map_or(0, |h| h.len() as u64)),
                ),
                (
                    "constraints",
                    Json::U64(session.constraints().count() as u64),
                ),
            ]);
        }
        wire::err(
            "engine",
            format!("session '{name}' is churning under concurrent open/close; retry"),
        )
    }

    /// Builds a new session from an `open` request: group binding,
    /// parked recovery state, and up-front declarations. The parked
    /// entry is only consumed on success — a failed open (bad
    /// declarations, corrupt replay) leaves the recovered state
    /// available for the next attempt.
    fn build_session(&self, name: &str, req: &Json) -> Result<(Session, bool), Json> {
        // Per-tenant memory budget: `"history_window": n` caps the
        // resident history to the last n instants (0 / absent =
        // server-wide default, normally unbounded). Budgets change
        // memory shape only — statuses and events stay bit-identical.
        let mut opts = self.opts;
        if let Some(window) = req.get("history_window").and_then(Json::as_u64) {
            if window > 0 {
                opts.history_budget = HistoryBudget::Window(window as usize);
            }
        }
        // An idle-parked entry carries a full ParkedSession (options
        // and counters included) and resumes without WAL replay; the
        // other parked shapes (crash recovery, clean close) rebuild
        // from snapshot + suffix. Either way the entry is consumed
        // only on success.
        let parked_entry = {
            let parked = self.parked.lock().expect("parked lock");
            parked
                .get(name)
                .map(|p| (p.resume.clone(), p.snapshot.clone(), p.suffix.clone()))
        };
        let had_parked = parked_entry.is_some();
        let mut builder = match &parked_entry {
            // `.resume` before `.group`: group registration binds the
            // builder's name at call time.
            Some((Some(ps), _, _)) => Session::builder().resume(ps.clone()),
            _ => Session::builder().name(name).options(opts),
        };
        if let Some(wal) = &self.wal {
            builder = builder.group(Arc::clone(wal));
        }
        if let Some((None, snapshot, suffix)) = parked_entry {
            if let Some(snap) = snapshot {
                builder = builder.snapshot(snap);
            }
            builder = builder.replay(suffix);
        }
        let preds = decl_list(req, "preds").map_err(|e| wire::err("bad-frame", e))?;
        for (pname, arity) in preds {
            builder = builder.pred(&pname, arity as usize);
        }
        let consts = decl_list(req, "consts").map_err(|e| wire::err("bad-frame", e))?;
        for (cname, value) in consts {
            builder = builder.constant(&cname, value);
        }
        let (session, summary) = builder
            .open()
            .map_err(|e| wire::err("engine", e.to_string()))?;
        if had_parked {
            self.parked.lock().expect("parked lock").remove(name);
        }
        Ok((session, summary.resumed))
    }

    fn op_append(&self, req: &Json, frame_bytes: usize) -> Json {
        let Some(slot) = named_session(self, req) else {
            return unknown_session(req);
        };
        // Admission control — refuse before touching the engine.
        let inflight = self.inflight.fetch_add(1, Ordering::SeqCst);
        // RAII decrement on every exit path, including errors.
        let _inflight = InflightGuard(&self.inflight);
        if inflight >= self.limits.max_inflight_appends {
            self.backpressure.fetch_add(1, Ordering::Relaxed);
            return wire::err(
                "backpressure",
                format!(
                    "{} append(s) already in flight (limit {})",
                    inflight, self.limits.max_inflight_appends
                ),
            );
        }
        if let Some(wal) = &self.wal {
            if wal.pending_bytes() > self.limits.max_pending_bytes {
                self.backpressure.fetch_add(1, Ordering::Relaxed);
                return wire::err(
                    "backpressure",
                    format!(
                        "{} staged log byte(s) awaiting flush (limit {})",
                        wal.pending_bytes(),
                        self.limits.max_pending_bytes
                    ),
                );
            }
        }
        // Per-tenant quota, after the global ceilings: one session
        // saturating its own budget answers `quota` without consuming
        // global admission capacity for long.
        let name = req.get("session").and_then(Json::as_str).unwrap_or("");
        let tenant = self.tenant(name);
        let _tenant = match self.admit_tenant(&tenant, frame_bytes) {
            Ok(guard) => guard,
            Err(resp) => return resp,
        };
        let mut guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_mut() else {
            return unknown_session(req);
        };
        let Some(schema) = session.schema() else {
            return wire::err(
                "engine",
                "the session has no schema yet (open it with preds)",
            );
        };
        let tx = match parse_tx(&schema, req) {
            Ok(tx) => tx,
            Err(resp) => return resp,
        };
        let committed = match session.append(&tx) {
            Ok(c) => c,
            Err(e) => return wire::err("engine", e.to_string()),
        };
        drop(guard);
        wire::ok(committed_fields(&committed))
    }

    /// `append_batch`: the `txs` array of transaction objects (each
    /// the same `insert`/`delete`/`ops` shape as `append`) committed
    /// as consecutive states in one constraint sweep —
    /// [`Session::append_batch`], so a group-backed server pays one
    /// commit window for the whole batch and the pooled engine steps
    /// each constraint through all of them without per-transaction
    /// barriers. Admission control counts the batch as one in-flight
    /// append.
    fn op_append_batch(&self, req: &Json, frame_bytes: usize) -> Json {
        let Some(slot) = named_session(self, req) else {
            return unknown_session(req);
        };
        let inflight = self.inflight.fetch_add(1, Ordering::SeqCst);
        let _inflight = InflightGuard(&self.inflight);
        if inflight >= self.limits.max_inflight_appends {
            self.backpressure.fetch_add(1, Ordering::Relaxed);
            return wire::err(
                "backpressure",
                format!(
                    "{} append(s) already in flight (limit {})",
                    inflight, self.limits.max_inflight_appends
                ),
            );
        }
        if let Some(wal) = &self.wal {
            if wal.pending_bytes() > self.limits.max_pending_bytes {
                self.backpressure.fetch_add(1, Ordering::Relaxed);
                return wire::err(
                    "backpressure",
                    format!(
                        "{} staged log byte(s) awaiting flush (limit {})",
                        wal.pending_bytes(),
                        self.limits.max_pending_bytes
                    ),
                );
            }
        }
        let name = req.get("session").and_then(Json::as_str).unwrap_or("");
        let tenant = self.tenant(name);
        let _tenant = match self.admit_tenant(&tenant, frame_bytes) {
            Ok(guard) => guard,
            Err(resp) => return resp,
        };
        let mut guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_mut() else {
            return unknown_session(req);
        };
        let Some(schema) = session.schema() else {
            return wire::err(
                "engine",
                "the session has no schema yet (open it with preds)",
            );
        };
        let Some(items) = req.get("txs").and_then(Json::as_arr) else {
            return wire::err(
                "bad-frame",
                "append_batch needs a \"txs\" array of transaction objects",
            );
        };
        let mut txs = Vec::with_capacity(items.len());
        for item in items {
            match parse_tx(&schema, item) {
                Ok(tx) => txs.push(tx),
                Err(resp) => return resp,
            }
        }
        let committed = match session.append_batch(&txs) {
            Ok(c) => c,
            Err(e) => return wire::err("engine", e.to_string()),
        };
        drop(guard);
        let results: Vec<Json> = committed
            .iter()
            .map(|c| json::obj(committed_fields(c)))
            .collect();
        wire::ok(vec![("results", Json::Arr(results))])
    }

    fn op_status(&self, req: &Json) -> Json {
        let Some(slot) = named_session(self, req) else {
            return unknown_session(req);
        };
        let guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_ref() else {
            return unknown_session(req);
        };
        let constraints: Vec<Json> = session
            .constraints()
            .map(|(id, name, _)| match session.status(id) {
                Status::Satisfied => json::obj(vec![
                    ("name", json::s(name)),
                    ("status", json::s("potentially-satisfied")),
                ]),
                Status::Violated { at } => json::obj(vec![
                    ("name", json::s(name)),
                    ("status", json::s("violated")),
                    ("at", Json::U64(at as u64)),
                ]),
            })
            .collect();
        wire::ok(vec![("constraints", Json::Arr(constraints))])
    }

    fn op_stats(&self, req: &Json) -> String {
        let Some(slot) = named_session(self, req) else {
            return unknown_session(req).render();
        };
        let guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_ref() else {
            return unknown_session(req).render();
        };
        let stats = stats_json_with(&session.stats(), Some(&self.server_stats_json()));
        format!("{{\"ok\":true,\"stats\":{stats}}}")
    }

    fn op_checkpoint(&self, req: &Json) -> Json {
        let Some(slot) = named_session(self, req) else {
            return unknown_session(req);
        };
        let mut guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_mut() else {
            return unknown_session(req);
        };
        match session.checkpoint() {
            Ok(bytes) => wire::ok(vec![("bytes", Json::U64(bytes))]),
            Err(e) => wire::err("engine", e.to_string()),
        }
    }

    fn op_close(&self, req: &Json) -> Json {
        let Some(name) = req.get("session").and_then(Json::as_str) else {
            return wire::err("bad-frame", "close needs a \"session\" name");
        };
        let Some(slot) = self.session(name) else {
            return unknown_session(req);
        };
        let mut guard = slot.lock().expect("session lock");
        let Some(session) = guard.as_mut() else {
            return unknown_session(req);
        };
        // Checkpoint and flush in place: on failure the session stays
        // open and usable rather than being dropped with its state.
        let snapshot = match session.close_snapshot() {
            Ok(snapshot) => snapshot,
            Err(e) => return wire::err("engine", e.to_string()),
        };
        *guard = None;
        // Park the closing checkpoint before the name leaves the
        // registry, all under the slot lock: a concurrent open of this
        // name blocks on the slot until the parked entry exists, so a
        // reopen resumes from the checkpointed state instead of
        // binding a fresh empty session to the same group-log id
        // (which would lose the served state live and splice it with
        // new transactions on crash recovery).
        if let Some(snap) = snapshot {
            self.parked.lock().expect("parked lock").insert(
                name.to_owned(),
                Parked {
                    snapshot: Some(snap),
                    suffix: Vec::new(),
                    resume: None,
                },
            );
        }
        {
            let mut sessions = self.sessions.lock().expect("sessions lock");
            if sessions.get(name).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                sessions.remove(name);
            }
        }
        // A closed tenant's quota state goes with it; a later open of
        // the same name starts from the server defaults.
        self.tenants.lock().expect("tenants lock").remove(name);
        drop(guard);
        wire::ok(vec![("session", json::s(name))])
    }

    /// Transparently revives an idle-parked session so the op that
    /// named it proceeds as if the session had never left memory.
    /// Only the idle sweep's entries (`resume: Some`) revive this way:
    /// an explicitly closed or crash-recovered session still requires
    /// an `open`, exactly as before parking existed. Returns the live
    /// slot, or `None` when nothing idle-parked holds the name. Uses
    /// the same placeholder-slot discipline as `op_open`, so racing
    /// revives and opens serialize on the slot lock, never the
    /// registry lock.
    fn revive_parked(&self, name: &str) -> Option<Slot> {
        {
            let parked = self.parked.lock().expect("parked lock");
            match parked.get(name) {
                Some(p) if p.resume.is_some() => {}
                _ => return None,
            }
        }
        for _ in 0..8 {
            let (slot, fresh) = {
                let mut sessions = self.sessions.lock().expect("sessions lock");
                match sessions.get(name) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        if sessions.len() >= self.limits.max_sessions {
                            return None;
                        }
                        let slot: Slot = Arc::new(Mutex::new(None));
                        sessions.insert(name.to_owned(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            let mut guard = slot.lock().expect("session lock");
            if guard.is_none() {
                if !fresh {
                    drop(guard);
                    std::thread::yield_now();
                    continue;
                }
                // Re-check now that we own the placeholder: a racing
                // open may have consumed the parked entry while we
                // were acquiring the slot. Building from nothing here
                // would conjure a fresh empty session under a name
                // that had state.
                let still_parked = self
                    .parked
                    .lock()
                    .expect("parked lock")
                    .get(name)
                    .is_some_and(|p| p.resume.is_some());
                if !still_parked {
                    drop(guard);
                    let mut sessions = self.sessions.lock().expect("sessions lock");
                    if sessions.get(name).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                        sessions.remove(name);
                    }
                    return None;
                }
                // A bare revive carries no declarations — rebuild from
                // the parked state alone (an empty request object).
                let empty = json::obj(vec![]);
                match self.build_session(name, &empty) {
                    Ok((session, _)) => {
                        *guard = Some(session);
                        self.resumes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        drop(guard);
                        let mut sessions = self.sessions.lock().expect("sessions lock");
                        if sessions.get(name).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                            sessions.remove(name);
                        }
                        return None;
                    }
                }
            }
            drop(guard);
            return Some(slot);
        }
        None
    }

    /// Parks sessions idle for at least `idle_for`: checkpoint to
    /// snapshot bytes ([`Session::park`]), drop the live session, and
    /// hold the bytes for transparent resume. Busy sessions (slot
    /// locked, staged ops, inflight requests) are skipped — the sweep
    /// never blocks serving. Returns how many sessions were parked.
    pub fn park_idle_sessions(&self, idle_for: Duration) -> usize {
        let now = self.now_ms();
        let idle_ms = idle_for.as_millis() as u64;
        let candidates: Vec<(String, Slot)> = {
            let sessions = self.sessions.lock().expect("sessions lock");
            sessions
                .iter()
                .map(|(n, s)| (n.clone(), Arc::clone(s)))
                .collect()
        };
        let mut parked_count = 0;
        for (name, slot) in candidates {
            // Idleness is tenant state: any inflight request or a
            // recent op keeps the session resident.
            let idle = {
                let tenants = self.tenants.lock().expect("tenants lock");
                match tenants.get(&name) {
                    Some(t) => {
                        t.inflight.load(Ordering::SeqCst) == 0
                            && now.saturating_sub(t.last_op_ms.load(Ordering::Relaxed)) >= idle_ms
                    }
                    // No tenant record (opened before quotas existed
                    // in this process — cannot happen — or raced with
                    // close): leave it alone.
                    None => false,
                }
            };
            if !idle {
                continue;
            }
            // try_lock: a busy session is by definition not idle.
            let Ok(mut guard) = slot.try_lock() else {
                continue;
            };
            let Some(session) = guard.as_mut() else {
                continue;
            };
            // Re-check under the slot lock — an op may have landed
            // between the tenant check and the lock.
            {
                let tenants = self.tenants.lock().expect("tenants lock");
                let still_idle = tenants.get(&name).is_some_and(|t| {
                    t.inflight.load(Ordering::SeqCst) == 0
                        && now.saturating_sub(t.last_op_ms.load(Ordering::Relaxed)) >= idle_ms
                });
                if !still_idle {
                    continue;
                }
            }
            let ps = match session.park() {
                Ok(ps) => ps,
                // Unparkable (never froze a schema, staged ops):
                // leave it resident.
                Err(_) => continue,
            };
            *guard = None;
            // Same ordering as op_close: the parked entry exists
            // before the name leaves the registry, all under the slot
            // lock, so a racing op revives from the parked bytes
            // instead of finding nothing.
            self.parked.lock().expect("parked lock").insert(
                name.clone(),
                Parked {
                    snapshot: None,
                    suffix: Vec::new(),
                    resume: Some(ps),
                },
            );
            {
                let mut sessions = self.sessions.lock().expect("sessions lock");
                if sessions.get(&name).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    sessions.remove(&name);
                }
            }
            drop(guard);
            self.parks.fetch_add(1, Ordering::Relaxed);
            parked_count += 1;
        }
        parked_count
    }

    fn op_shutdown(&self, checkpoint: bool) -> Json {
        if checkpoint {
            let slots: Vec<Slot> = self
                .sessions
                .lock()
                .expect("sessions lock")
                .values()
                .cloned()
                .collect();
            for slot in slots {
                let mut guard = slot.lock().expect("session lock");
                let Some(session) = guard.as_mut() else {
                    continue;
                };
                if session.has_store() && session.history().is_some() {
                    if let Err(e) = session.checkpoint() {
                        return wire::err("engine", format!("shutdown checkpoint failed: {e}"));
                    }
                }
            }
        }
        if let Some(wal) = &self.wal {
            // Compaction drains and syncs everything enqueued, like the
            // flush it replaces.
            let (done, what) = if checkpoint {
                (wal.compact(), "compaction")
            } else {
                (wal.flush(), "flush")
            };
            if let Err(e) = done {
                return wire::err("engine", format!("final {what} failed: {e}"));
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so the process can exit.
        if let Some(addr) = self.addr.get() {
            let _ = TcpStream::connect(addr);
        }
        wire::ok(vec![("stopping", Json::Bool(true))])
    }
}

/// A started server: its bound address plus the accept-loop handle.
pub struct Running {
    pub addr: SocketAddr,
    pub server: Arc<Server>,
    handle: JoinHandle<()>,
}

impl Running {
    /// Blocks until the accept loop exits (a client sent `shutdown`).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn named_session(server: &Server, req: &Json) -> Option<Slot> {
    let name = req.get("session").and_then(Json::as_str)?;
    // Transparent resume: a name that is not live but is parked (idle
    // sweep, clean close, crash recovery) revives before the op runs —
    // clients never observe parking.
    server.session(name).or_else(|| server.revive_parked(name))
}

fn unknown_session(req: &Json) -> Json {
    match req.get("session").and_then(Json::as_str) {
        Some(name) => wire::err("unknown-session", format!("no open session named '{name}'")),
        None => wire::err("bad-frame", "missing \"session\" name"),
    }
}

/// Parses one transaction description against the schema. Facts use
/// the store codec's text grammar. Two spellings: unordered
/// `insert`/`delete` arrays (inserts apply first), or the ordered
/// `ops` array of `[verb, fact]` pairs for transactions where
/// intra-transaction order matters. The same shape serves the
/// top-level `append` request and each entry of `append_batch`'s
/// `txs` array.
fn parse_tx(schema: &ticc_tdb::Schema, src: &Json) -> Result<Transaction, Json> {
    let mut ops: Vec<(bool, &str)> = Vec::new();
    for (field, insert) in [("insert", true), ("delete", false)] {
        let Some(items) = src.get(field) else {
            continue;
        };
        let Some(items) = items.as_arr() else {
            return Err(wire::err(
                "bad-frame",
                format!("\"{field}\" must be an array of facts"),
            ));
        };
        for item in items {
            let Some(fact) = item.as_str() else {
                return Err(wire::err(
                    "bad-frame",
                    format!("\"{field}\" entries are \"Pred(v,…)\" strings"),
                ));
            };
            ops.push((insert, fact));
        }
    }
    if let Some(items) = src.get("ops") {
        let Some(items) = items.as_arr() else {
            return Err(wire::err(
                "bad-frame",
                "\"ops\" must be an array of [verb, fact] pairs",
            ));
        };
        for item in items {
            let Some([verb, fact]) = item.as_arr() else {
                return Err(wire::err(
                    "bad-frame",
                    "\"ops\" entries are [verb, fact] pairs",
                ));
            };
            let (Some(verb), Some(fact)) = (verb.as_str(), fact.as_str()) else {
                return Err(wire::err(
                    "bad-frame",
                    "\"ops\" entries are [verb, fact] string pairs",
                ));
            };
            let insert = match verb {
                "insert" | "+" => true,
                "delete" | "-" => false,
                other => {
                    return Err(wire::err(
                        "bad-frame",
                        format!("\"ops\" verb is insert/+/delete/-, got '{other}'"),
                    ))
                }
            };
            ops.push((insert, fact));
        }
    }
    let mut tx = Transaction::new();
    for (insert, fact) in ops {
        let (pred, tuple) = match parse_fact(schema, fact) {
            Ok(parsed) => parsed,
            Err(e) => return Err(wire::err("bad-frame", e)),
        };
        tx = if insert {
            tx.insert(pred, tuple)
        } else {
            tx.delete(pred, tuple)
        };
    }
    Ok(tx)
}

/// Renders one committed state as the wire's `t`/`events`/`fired`
/// fields (the `append` response body; one `results` entry for
/// `append_batch`).
fn committed_fields(committed: &Committed) -> Vec<(&'static str, Json)> {
    let events: Vec<Json> = committed
        .events
        .iter()
        .map(|e| {
            json::obj(vec![
                ("constraint", json::s(&e.name)),
                ("at", Json::U64(e.at as u64)),
            ])
        })
        .collect();
    let fired: Vec<Json> = committed
        .fired
        .iter()
        .map(|f| {
            let subst: Vec<(String, Json)> = f
                .substitution
                .iter()
                .map(|(v, val)| (v.clone(), Json::U64(*val)))
                .collect();
            json::obj(vec![
                ("trigger", json::s(&f.name)),
                ("subst", Json::Obj(subst)),
            ])
        })
        .collect();
    vec![
        ("t", Json::U64(committed.t as u64)),
        ("events", Json::Arr(events)),
        ("fired", Json::Arr(fired)),
    ]
}

/// Reads `[["name", n], …]` declaration lists from a request field.
fn decl_list(req: &Json, field: &str) -> Result<Vec<(String, Value)>, String> {
    let Some(items) = req.get(field) else {
        return Ok(Vec::new());
    };
    let Some(items) = items.as_arr() else {
        return Err(format!(
            "\"{field}\" must be an array of [name, value] pairs"
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let pair = item
            .as_arr()
            .ok_or_else(|| format!("\"{field}\" entries are [name, value] pairs"))?;
        let [name, value] = pair else {
            return Err(format!("\"{field}\" entries are [name, value] pairs"));
        };
        let name = name
            .as_str()
            .ok_or_else(|| format!("\"{field}\" names are strings"))?;
        let value = value
            .as_u64()
            .ok_or_else(|| format!("\"{field}\" values are non-negative integers"))?;
        out.push((name.to_owned(), value));
    }
    Ok(out)
}

/// Registers the request's `constraints`/`triggers` (name + formula
/// source) on the session, skipping names it already has.
fn register_formulas(session: &mut Session, req: &Json) -> Result<(), Json> {
    for (field, is_constraint) in [("constraints", true), ("triggers", false)] {
        let Some(items) = req.get(field) else {
            continue;
        };
        let Some(items) = items.as_arr() else {
            return Err(wire::err(
                "bad-frame",
                format!("\"{field}\" must be an array of [name, formula] pairs"),
            ));
        };
        for item in items {
            let Some([name, src]) = item.as_arr() else {
                return Err(wire::err(
                    "bad-frame",
                    format!("\"{field}\" entries are [name, formula] pairs"),
                ));
            };
            let (Some(name), Some(src)) = (name.as_str(), src.as_str()) else {
                return Err(wire::err(
                    "bad-frame",
                    format!("\"{field}\" entries are [name, formula] pairs"),
                ));
            };
            let already = if is_constraint {
                session.constraints().any(|(_, n, _)| n == name)
            } else {
                session.trigger_defs().iter().any(|(n, _)| n == name)
            };
            if already {
                continue;
            }
            session
                .freeze()
                .map_err(|e| wire::err("engine", e.to_string()))?;
            let schema = session
                .schema()
                .ok_or_else(|| wire::err("engine", "no schema to parse against"))?;
            let phi =
                parse_formula(&schema, src).map_err(|e| wire::err("engine", e.to_string()))?;
            let result = if is_constraint {
                session.add_constraint(name, phi).map(|_| ())
            } else {
                session.add_trigger(name, phi)
            };
            result.map_err(|e| wire::err("engine", e.to_string()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_core::STATS_SCHEMA;

    fn request(server: &Server, hello: &mut bool, src: &str) -> Json {
        let req = json::parse(src).unwrap();
        let (resp, _) = server.dispatch(&req, hello);
        json::parse(&resp).unwrap()
    }

    fn ok_true(resp: &Json) -> bool {
        resp.get("ok").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn handshake_is_mandatory_and_versioned() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = false;
        let r = request(&server, &mut hello, r#"{"op":"open","session":"a"}"#);
        assert!(!ok_true(&r));
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad-frame"));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"hello","schema":"ticc-wire-v99"}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("unsupported-schema"));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"hello","schema":"ticc-wire-v1"}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("schema").unwrap().as_str(), Some("ticc-wire-v1"));
    }

    #[test]
    fn open_append_violation_status_round_trip() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","forall x. G (Sub(x) -> X G !Sub(x))"]],"triggers":[["dup","F (Sub(x) & X F Sub(x))"]]}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("t").unwrap().as_u64(), Some(0));
        assert_eq!(r.get("events").unwrap().as_arr().unwrap().len(), 0);
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","delete":["Sub(1)"]}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#,
        );
        let events = r.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "resubmission violates: {r:?}");
        assert_eq!(events[0].get("constraint").unwrap().as_str(), Some("once"));
        let fired = r.get("fired").unwrap().as_arr().unwrap();
        assert_eq!(fired[0].get("trigger").unwrap().as_str(), Some("dup"));
        assert_eq!(
            fired[0].get("subst").unwrap().get("x").unwrap().as_u64(),
            Some(1)
        );
        let r = request(&server, &mut hello, r#"{"op":"status","session":"a"}"#);
        let cs = r.get("constraints").unwrap().as_arr().unwrap();
        assert_eq!(cs[0].get("status").unwrap().as_str(), Some("violated"));
    }

    #[test]
    fn open_history_window_bounds_the_session() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["cap","G !Sub(999)"]],"history_window":2}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        // Steady churn: enough appends for the window(2) budget to
        // truncate (hysteresis fires past 2x the target).
        for i in 0..12u64 {
            let req = if i == 0 {
                r#"{"op":"append","session":"a","insert":["Sub(0)"]}"#.to_owned()
            } else {
                format!(
                    r#"{{"op":"append","session":"a","ops":[["-","Sub({})"],["+","Sub({i})"]]}}"#,
                    i - 1
                )
            };
            let r = request(&server, &mut hello, &req);
            assert!(ok_true(&r), "{r:?}");
        }
        let r = request(&server, &mut hello, r#"{"op":"stats","session":"a"}"#);
        let hist = r.get("stats").unwrap().get("history").unwrap();
        let spilled = hist.get("spilled_instants").unwrap().as_u64().unwrap();
        let resident = hist.get("resident_states").unwrap().as_u64().unwrap();
        assert!(
            hist.get("truncations").unwrap().as_u64().unwrap() > 0,
            "window(2) session should have truncated: {hist:?}"
        );
        assert_eq!(spilled + resident, 12, "every instant resident or spilled");
        // The budget is per-session: a second tenant opened without
        // the knob stays unbounded.
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"b","preds":[["Sub",1]]}"#
        )));
        for _ in 0..12 {
            let r = request(
                &server,
                &mut hello,
                r#"{"op":"append","session":"b","ops":[["+","Sub(1)"],["-","Sub(1)"]]}"#,
            );
            assert!(ok_true(&r), "{r:?}");
        }
        let r = request(&server, &mut hello, r#"{"op":"stats","session":"b"}"#);
        let hist = r.get("stats").unwrap().get("history").unwrap();
        assert_eq!(hist.get("truncations").unwrap().as_u64(), Some(0));
        assert_eq!(hist.get("spilled_instants").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn append_batch_commits_consecutive_states() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","forall x. G (Sub(x) -> X G !Sub(x))"]]}"#
        )));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append_batch","session":"a","txs":[
                {"insert":["Sub(1)"]},
                {"delete":["Sub(1)"],"insert":["Sub(2)"]},
                {"delete":["Sub(2)"],"insert":["Sub(1)"]}]}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("t").unwrap().as_u64(), Some(0));
        assert_eq!(results[0].get("events").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(results[2].get("t").unwrap().as_u64(), Some(2));
        let events = results[2].get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "re-submission violates: {r:?}");
        assert_eq!(events[0].get("constraint").unwrap().as_str(), Some("once"));
        // Malformed entries refuse the whole batch before any commit.
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append_batch","session":"a","txs":[{"insert":[7]}]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad-frame"));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append_batch","session":"a"}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad-frame"));
    }

    #[test]
    fn admission_control_answers_backpressure_and_limits() {
        let limits = Limits {
            max_sessions: 1,
            max_inflight_appends: 0,
            ..Limits::default()
        };
        let server = Server::new(CheckOptions::default(), limits);
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["P",1]]}"#
        )));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"b","preds":[["P",1]]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("session-limit"));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["P(1)"]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("backpressure"));
        // Rejections must not leak inflight slots.
        assert_eq!(server.inflight.load(Ordering::SeqCst), 0);
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"ghost","insert":["P(1)"]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("unknown-session"));
    }

    #[test]
    fn close_then_reopen_ephemeral_is_fresh() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["P",1]]}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["P(1)"]}"#
        )));
        let r = request(&server, &mut hello, r#"{"op":"close","session":"a"}"#);
        assert!(ok_true(&r), "{r:?}");
        // Closed means gone: ops answer unknown-session, and a second
        // close does too.
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["P(1)"]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("unknown-session"));
        let r = request(&server, &mut hello, r#"{"op":"close","session":"a"}"#);
        assert_eq!(r.get("code").unwrap().as_str(), Some("unknown-session"));
        // No durable backend, so the reopen starts fresh.
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["P",1]]}"#,
        );
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("resumed").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("states").unwrap().as_u64(), Some(0));
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ticc-server-{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn close_parks_wal_backed_session_for_reopen() {
        use ticc_core::Durability;
        let path = tmp("close-park");
        let _ = std::fs::remove_file(&path);
        let opts = CheckOptions::builder()
            .durability(Durability::WalFsync)
            .build();
        let server = Server::with_wal(opts, Limits::default(), &path).unwrap();
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","forall x. G (Sub(x) -> X G !Sub(x))"]]}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"close","session":"a"}"#
        )));
        // The closing checkpoint is parked: the live reopen resumes
        // the durably checkpointed state (schema, history, constraint
        // residues) instead of binding a fresh empty session to the
        // same group-log id.
        assert_eq!(server.parked_sessions(), vec!["a".to_owned()]);
        let r = request(&server, &mut hello, r#"{"op":"open","session":"a"}"#);
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("resumed").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("states").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("constraints").unwrap().as_u64(), Some(1));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#,
        );
        assert_eq!(
            r.get("events").unwrap().as_arr().unwrap().len(),
            1,
            "restored constraint catches the resubmission: {r:?}"
        );
        // Crash-recovered state matches the served state: snapshot
        // plus the reopened session's logged transaction, nothing
        // merged from a phantom fresh session.
        drop(server);
        let server = Server::with_wal(opts, Limits::default(), &path).unwrap();
        assert_eq!(server.parked_sessions(), vec!["a".to_owned()]);
        let r = request(&server, &mut hello, r#"{"op":"open","session":"a"}"#);
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("resumed").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("states").unwrap().as_u64(), Some(2));
        assert_eq!(r.get("constraints").unwrap().as_u64(), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_carry_the_server_object() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["P",1]]}"#,
        );
        request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["P(1)"]}"#,
        );
        let r = request(&server, &mut hello, r#"{"op":"stats","session":"a"}"#);
        assert!(ok_true(&r), "{r:?}");
        let stats = r.get("stats").unwrap();
        assert_eq!(stats.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(stats.get("appends").unwrap().as_u64(), Some(1));
        let sv = stats.get("server").unwrap();
        assert_eq!(sv.get("sessions").unwrap().as_u64(), Some(1));
        assert_eq!(sv.get("schema").unwrap().as_str(), Some(wire::WIRE_SCHEMA));
        assert_eq!(sv.get("group"), Some(&Json::Null), "ephemeral server");
    }

    #[test]
    fn per_tenant_quota_refuses_with_quota_code() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        // A tenant that allows itself zero inflight appends: every
        // append answers `quota`, its neighbour keeps committing.
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"starved","preds":[["P",1]],"max_inflight":0}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"fine","preds":[["P",1]]}"#
        )));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"starved","insert":["P(1)"]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("quota"), "{r:?}");
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"fine","insert":["P(1)"]}"#,
        );
        assert!(ok_true(&r), "neighbour unaffected: {r:?}");
        // Byte quota: a 1-byte budget refuses any real frame. The
        // refusal must release its reservation — a later re-open with
        // a sane budget commits.
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"starved","max_pending_bytes":1,"max_inflight":8}"#
        )));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"starved","insert":["P(1)"]}"#,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("quota"), "{r:?}");
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"starved","max_pending_bytes":1000000}"#
        )));
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"starved","insert":["P(1)"]}"#,
        );
        assert!(ok_true(&r), "refusals released their budget: {r:?}");
        assert!(server.quota_refusals.load(Ordering::Relaxed) >= 2);
        // Quota values clamp to the global ceilings.
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"greedy","max_inflight":99999999}"#
        )));
        let t = server.tenant("greedy");
        assert_eq!(
            t.max_inflight.load(Ordering::Relaxed),
            server.limits.max_inflight_appends
        );
    }

    #[test]
    fn idle_sessions_park_and_resume_transparently() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","forall x. G (Sub(x) -> X G !Sub(x))"]]}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#
        )));
        // Zero idle deadline: everything idle parks right now.
        assert_eq!(server.park_idle_sessions(Duration::ZERO), 1);
        assert_eq!(server.parks.load(Ordering::Relaxed), 1);
        assert_eq!(server.sessions.lock().unwrap().len(), 0, "not resident");
        assert_eq!(server.parked_sessions(), vec!["a".to_owned()]);
        // The next op revives it transparently — same history, same
        // constraint residues, no explicit open.
        let r = request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["Sub(1)"]}"#,
        );
        assert!(ok_true(&r), "transparent resume: {r:?}");
        assert_eq!(r.get("t").unwrap().as_u64(), Some(1));
        assert_eq!(
            r.get("events").unwrap().as_arr().unwrap().len(),
            1,
            "resumed constraint catches the resubmission: {r:?}"
        );
        assert_eq!(server.resumes.load(Ordering::Relaxed), 1);
        assert!(server.parked_sessions().is_empty(), "entry consumed");
        // Counters survive the park/resume cycle (the stats document
        // reports lifetime commits, not since-resume commits).
        let r = request(&server, &mut hello, r#"{"op":"stats","session":"a"}"#);
        let stats = r.get("stats").unwrap();
        assert_eq!(
            stats
                .get("session")
                .unwrap()
                .get("commits")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        // A busy (recently touched) session does not park under a
        // real deadline.
        assert_eq!(server.park_idle_sessions(Duration::from_secs(3600)), 0);
        assert_eq!(server.sessions.lock().unwrap().len(), 1, "still resident");
    }

    #[test]
    fn explicit_open_also_resumes_an_idle_parked_session() {
        let server = Server::new(CheckOptions::default(), Limits::default());
        let mut hello = true;
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"open","session":"a","preds":[["P",1]]}"#
        )));
        assert!(ok_true(&request(
            &server,
            &mut hello,
            r#"{"op":"append","session":"a","insert":["P(1)"]}"#
        )));
        assert_eq!(server.park_idle_sessions(Duration::ZERO), 1);
        let r = request(&server, &mut hello, r#"{"op":"open","session":"a"}"#);
        assert!(ok_true(&r), "{r:?}");
        assert_eq!(r.get("resumed").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("states").unwrap().as_u64(), Some(1));
    }

    #[cfg(unix)]
    #[test]
    fn served_over_tcp_end_to_end() {
        use std::io::{BufReader, BufWriter};
        use std::net::TcpListener;
        let server = Arc::new(Server::new(CheckOptions::default(), Limits::default()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let running = mux::start_mux(Arc::clone(&server), listener).unwrap();
        let stream = TcpStream::connect(running.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut ask = |src: &str| -> Json {
            wire::write_frame(&mut writer, src.as_bytes()).unwrap();
            let bytes = wire::read_frame(&mut reader, 1 << 20).unwrap().unwrap();
            json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap()
        };
        assert!(ok_true(&ask(r#"{"op":"hello","schema":"ticc-wire-v1"}"#)));
        assert!(ok_true(&ask(
            r#"{"op":"open","session":"a","preds":[["P",1]],"constraints":[["cap","G !P(9)"]]}"#
        )));
        let r = ask(r#"{"op":"append","session":"a","insert":["P(9)"]}"#);
        assert_eq!(r.get("events").unwrap().as_arr().unwrap().len(), 1);
        // A malformed frame gets a parse error, then the connection keeps working.
        let r = ask("{not json");
        assert_eq!(r.get("code").unwrap().as_str(), Some("parse"));
        let r = ask(r#"{"op":"status","session":"a"}"#);
        assert!(ok_true(&r));
        assert!(ok_true(&ask(r#"{"op":"shutdown"}"#)));
        running.join();
    }
}
