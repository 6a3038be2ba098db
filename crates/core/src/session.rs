//! First-class session lifecycle: schema definition, constraints,
//! triggers, staged updates, durability, and versioned stats — one
//! handle.
//!
//! Historically this logic lived inside the interactive shell, which
//! meant every other embedder (benchmarks, tests, and now the
//! multi-tenant server) re-derived its own engine/trigger/store
//! plumbing. A [`Session`] is that lifecycle extracted into `ticc-core`:
//!
//! ```text
//! Session::builder() ── open() ──► Defining ── freeze() ──► Running
//!        │                          declare_pred/const       add_constraint
//!        │                                                   add_trigger
//!        ├─ .store(path)  its own log file                   stage/commit
//!        └─ .group(wal)   a shared group-commit log          checkpoint/compact/stats
//! ```
//!
//! A session is either **durable** or ephemeral, and a durable session
//! always logs through a [`GroupWal`]: `.store(path)` opens (or
//! creates) the log at `path` and resumes the session registered there
//! under the builder's name — a single-tenant store is a group log with
//! one registered session, exactly the `ticc-shell --store` behaviour —
//! while `.group(wal)` binds to a log shared with other sessions (the
//! multi-tenant server path: one fsync per commit window covers many
//! sessions). The [`Engine`] owns no store: the session logs, snapshots
//! and recovers it. The durability policy is
//! [`CheckOptions::durability`]: `WalFsync` is a *synced* append
//! (waits for its commit window), `Wal` an unsynced one, `Off` logs no
//! transactions.
//!
//! Appends are apply-then-log: the transaction is applied (and
//! checked) first, then logged, so nothing unreplayable reaches the
//! log; a log failure surfaces as [`Error::Store`] with the state
//! applied.
//!
//! Trigger definitions persist inside the checkpoint's application
//! blob (the versioned encoding the shell introduced, now owned here),
//! so a restored session fires the same triggers the original did.

use std::path::Path;
use std::sync::Arc;

use crate::engine::{ConstraintId, Engine, MonitorEvent, Status};
use crate::error::Error;
use crate::extension::{CheckOptions, Durability};
use crate::obs::EngineStats;
use crate::trigger::{Action, FiredTrigger, Trigger, TriggerEngine};
use ticc_fotl::Formula;
use ticc_store::codec::{formula_decode, formula_encode, tx_from_bytes};
use ticc_store::{Dec, Enc, GroupStats, GroupWal, StoreError};
use ticc_tdb::{History, Schema, Transaction, Value};

/// Version tag of the session's application blob inside checkpoints
/// (currently: the registered triggers).
const APP_VERSION: u32 = 1;

/// The JSON schema tag emitted by [`Session::stats_json`] and the
/// server's `stats` frames. v2 folded the `automata` object into the
/// documented schema and added the `session` and `server` objects; v3
/// drops the worker-pool keys (`par_*`, `pool_workers`, the server's
/// `workers`) and renames `pool_buf_allocs` to `scratch_allocs`; v4
/// makes `store` the session log's [`GroupStats`] ([`group_stats_json`])
/// or `null` for an ephemeral session.
pub const STATS_SCHEMA: &str = "ticc-engine-stats-v4";

/// One committed state: where it landed and everything that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committed {
    /// Index of the new state (`history.len() - 1` after the append).
    pub t: usize,
    /// Constraint violations that became unavoidable at this state.
    pub events: Vec<MonitorEvent>,
    /// Trigger firings evaluated at this state.
    pub fired: Vec<FiredTrigger>,
    /// Staged operations folded into this commit (0 for a direct
    /// [`Session::append`]).
    pub ops: usize,
}

/// What opening a session found in its backing store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenSummary {
    /// A checkpoint was found and the whole session resumed from it.
    pub resumed: bool,
    /// States in the history after any replay.
    pub states: usize,
    /// Constraints restored from the checkpoint.
    pub constraints: usize,
    /// Triggers restored from the application blob.
    pub triggers: usize,
    /// Logged transactions replayed on top of the checkpoint.
    pub replayed: usize,
    /// Logged transactions parked until the schema is (re)declared —
    /// non-zero only when a store exists but holds no checkpoint.
    pub pending_replay: usize,
    /// Bytes of torn/corrupt tail recovery discarded.
    pub truncated_bytes: u64,
}

/// Session-level counters layered over [`EngineStats`] — the `session`
/// object of the v2 stats schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// The engine's counters, gauges, and timers.
    pub engine: EngineStats,
    /// Committed transactions (staged commits and direct appends).
    pub commits: u64,
    /// Violation events across all commits.
    pub violations: u64,
    /// Trigger firings across all commits.
    pub trigger_firings: u64,
    /// Registered constraints.
    pub constraints: u64,
    /// Registered triggers.
    pub triggers: u64,
    /// States in the history.
    pub history_len: u64,
    /// Operations currently staged for the next commit.
    pub staged: u64,
    /// Whether the session has a durable log.
    pub durable: bool,
    /// The session log's counters (`None` for an ephemeral session).
    pub store: Option<GroupStats>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    commits: u64,
    violations: u64,
    trigger_firings: u64,
}

struct GroupBinding {
    wal: Arc<GroupWal>,
    id: u32,
}

enum Phase {
    /// Collecting schema declarations.
    Defining {
        preds: Vec<(String, usize)>,
        consts: Vec<(String, Value)>,
    },
    /// Schema frozen; engine live.
    Running(Box<Running>),
}

struct Running {
    engine: Engine,
    triggers: TriggerEngine,
    trigger_defs: Vec<(String, Formula)>,
    pending: Transaction,
    pending_ops: usize,
}

/// A monitored session: schema lifecycle, constraints, triggers,
/// staged updates, and durability behind one handle. See the module
/// docs for the phase diagram.
pub struct Session {
    name: String,
    opts: CheckOptions,
    phase: Phase,
    /// Logged transactions replayed at freeze (recovery without a
    /// checkpoint).
    pending_replay: Vec<Vec<u8>>,
    group: Option<GroupBinding>,
    counters: Counters,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder()
            .open()
            .expect("ephemeral open cannot fail")
            .0
    }
}

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's name (registry key on a server; cosmetic
    /// elsewhere).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The options every engine, trigger, and check in this session
    /// uses.
    pub fn options(&self) -> CheckOptions {
        self.opts
    }

    /// Whether the schema is still open for declarations.
    pub fn is_defining(&self) -> bool {
        matches!(self.phase, Phase::Defining { .. })
    }

    /// Predicates declared so far (meaningful while defining; the
    /// schema's count afterwards).
    pub fn declared_preds(&self) -> usize {
        match &self.phase {
            Phase::Defining { preds, .. } => preds.len(),
            Phase::Running(r) => r.engine.history().schema().pred_count(),
        }
    }

    /// Declares a predicate. Errors once the schema is frozen or on a
    /// duplicate symbol.
    pub fn declare_pred(&mut self, name: &str, arity: usize) -> Result<(), Error> {
        if arity == 0 {
            return Err(Error::Session("arity must be at least 1".to_owned()));
        }
        let (preds, consts) = self.defining_mut()?;
        if preds.iter().any(|(n, _)| n == name) || consts.iter().any(|(n, _)| n == name) {
            return Err(Error::Session(format!("duplicate symbol '{name}'")));
        }
        preds.push((name.to_owned(), arity));
        Ok(())
    }

    /// Declares a rigid constant with its interpretation. Errors once
    /// the schema is frozen or on a duplicate symbol.
    pub fn declare_const(&mut self, name: &str, value: Value) -> Result<(), Error> {
        let (preds, consts) = self.defining_mut()?;
        if preds.iter().any(|(n, _)| n == name) || consts.iter().any(|(n, _)| n == name) {
            return Err(Error::Session(format!("duplicate symbol '{name}'")));
        }
        consts.push((name.to_owned(), value));
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn defining_mut(
        &mut self,
    ) -> Result<(&mut Vec<(String, usize)>, &mut Vec<(String, Value)>), Error> {
        match &mut self.phase {
            Phase::Defining { preds, consts } => Ok((preds, consts)),
            Phase::Running(_) => Err(Error::Session(
                "the schema is frozen once constraints or updates exist".to_owned(),
            )),
        }
    }

    /// Freezes the schema and brings the engine up: builds the
    /// history (with constant interpretations) and replays any parked
    /// transactions. Idempotent once running; errors if no predicate
    /// was declared.
    pub fn freeze(&mut self) -> Result<(), Error> {
        let Phase::Defining { preds, consts } = &self.phase else {
            return Ok(());
        };
        if preds.is_empty() {
            return Err(Error::Session(
                "declare at least one predicate before the schema can freeze".to_owned(),
            ));
        }
        let mut b = Schema::builder();
        for (name, arity) in preds {
            b = b.pred(name, *arity);
        }
        for (name, _) in consts {
            b = b.constant(name);
        }
        let schema = b.build();
        let mut history = History::new(schema.clone());
        for (name, value) in consts {
            let c = schema.constant(name).expect("just declared");
            history.set_constant(c, *value);
        }
        let mut engine = Engine::with_history(history, self.opts);
        // Parked transactions (a log that predates this schema
        // declaration): replay through the ordinary append path, which
        // logs nothing — they are in the log already.
        for payload in std::mem::take(&mut self.pending_replay) {
            let tx = tx_from_bytes(&payload, &schema).map_err(|e| {
                Error::Session(format!(
                    "logged transaction does not match the declared schema: {e}"
                ))
            })?;
            engine
                .append(&tx)
                .map_err(|e| Error::Session(format!("cannot replay logged transaction: {e}")))?;
        }
        self.phase = Phase::Running(Box::new(Running {
            engine,
            triggers: TriggerEngine::new(self.opts),
            trigger_defs: Vec::new(),
            pending: Transaction::new(),
            pending_ops: 0,
        }));
        Ok(())
    }

    fn running_mut(&mut self) -> Result<&mut Running, Error> {
        self.freeze()?;
        match &mut self.phase {
            Phase::Running(r) => Ok(r),
            Phase::Defining { .. } => unreachable!("freeze() leaves the session running"),
        }
    }

    fn running(&self) -> Option<&Running> {
        match &self.phase {
            Phase::Running(r) => Some(r),
            Phase::Defining { .. } => None,
        }
    }

    /// Registers a universal safety constraint (freezing the schema if
    /// needed) and returns its id plus current status.
    pub fn add_constraint(&mut self, name: &str, phi: Formula) -> Result<ConstraintId, Error> {
        let r = self.running_mut()?;
        r.engine.add_constraint(name.to_owned(), phi)
    }

    /// Registers a condition–action trigger with the `Log` action
    /// (freezing the schema if needed).
    pub fn add_trigger(&mut self, name: &str, condition: Formula) -> Result<(), Error> {
        let r = self.running_mut()?;
        r.triggers.add(Trigger {
            name: name.to_owned(),
            condition: condition.clone(),
            action: Action::Log,
        })?;
        r.trigger_defs.push((name.to_owned(), condition));
        Ok(())
    }

    /// Stages one tuple insertion or deletion for the next
    /// [`Session::commit`] (freezing the schema if needed).
    pub fn stage(
        &mut self,
        insert: bool,
        pred: ticc_tdb::PredId,
        tuple: Vec<Value>,
    ) -> Result<(), Error> {
        let r = self.running_mut()?;
        let staged = std::mem::take(&mut r.pending);
        r.pending = if insert {
            staged.insert(pred, tuple)
        } else {
            staged.delete(pred, tuple)
        };
        r.pending_ops += 1;
        Ok(())
    }

    /// Operations staged for the next commit.
    pub fn staged_ops(&self) -> usize {
        self.running().map_or(0, |r| r.pending_ops)
    }

    /// Commits the staged operations as the next state: applies the
    /// transaction, checks every constraint, logs it per the
    /// durability policy, and evaluates triggers.
    pub fn commit(&mut self) -> Result<Committed, Error> {
        let r = self.running_mut()?;
        let tx = std::mem::take(&mut r.pending);
        let ops = std::mem::replace(&mut r.pending_ops, 0);
        let mut out = self.append(&tx)?;
        out.ops = ops;
        Ok(out)
    }

    /// Appends `tx` directly as the next state (the staged buffer is
    /// untouched): apply + check, log per the durability policy, then
    /// evaluate triggers — the one-transaction case of
    /// [`Session::append_batch`].
    pub fn append(&mut self, tx: &Transaction) -> Result<Committed, Error> {
        let mut out = self.append_batch(std::slice::from_ref(tx))?;
        Ok(out.pop().expect("one committed state per transaction"))
    }

    /// Appends a batch of transactions as consecutive states in one
    /// constraint sweep — [`Engine::append_batch`], so statuses,
    /// events, and stats are bit-identical to appending them one at a
    /// time. A durable session logs every transaction and lets the
    /// final one carry the fsync request: one commit window covers the
    /// whole batch. Triggers are evaluated at every new
    /// state (over the history prefix for intermediate ones), so the
    /// returned [`Committed`] values match a per-transaction
    /// [`Session::append`] loop. The staged buffer is untouched.
    pub fn append_batch(&mut self, txs: &[Transaction]) -> Result<Vec<Committed>, Error> {
        self.freeze()?;
        let durability = self.opts.durability;
        let group = &self.group;
        let Phase::Running(r) = &mut self.phase else {
            unreachable!("freeze() leaves the session running")
        };
        let base = r.engine.history().len();
        // Apply-then-log, mapping WalFsync to a synced append (whose
        // fsync the commit window shares).
        let per_tx_events = r.engine.append_batch(txs)?;
        if let Some(g) = group {
            let sync = match durability {
                Durability::Off => None,
                Durability::Wal => Some(false),
                Durability::WalFsync => Some(true),
            };
            if let Some(sync) = sync {
                for (i, tx) in txs.iter().enumerate() {
                    let last = i + 1 == txs.len();
                    g.wal.append_tx(g.id, tx, sync && last).map_err(store_err)?;
                }
            }
        }
        let mut out = Vec::with_capacity(per_tx_events.len());
        for (t, events) in per_tx_events.into_iter().enumerate() {
            let fired = if r.trigger_defs.is_empty() {
                Vec::new()
            } else if base + t + 1 == r.engine.history().len() {
                // Triggers ground the history from instant 0, so a
                // budgeted engine hands them a materialised view
                // (borrowed when nothing was truncated): firings are
                // budget-invariant.
                let hist = r.engine.full_history()?;
                r.triggers.evaluate(hist.as_ref())?
            } else {
                // `history_prefix` materialises through the spill tier,
                // so mid-batch trigger sweeps see the same prefix a
                // per-transaction append loop would have.
                let prefix = r.engine.history_prefix(base + t + 1)?;
                r.triggers.evaluate(&prefix)?
            };
            self.counters.commits += 1;
            self.counters.violations += events.len() as u64;
            self.counters.trigger_firings += fired.len() as u64;
            out.push(Committed {
                t: base + t,
                events,
                fired,
                ops: 0,
            });
        }
        Ok(out)
    }

    /// The history, once the schema is frozen. Under a bounded
    /// [`HistoryBudget`](crate::HistoryBudget) this is the *resident*
    /// view (`base() > 0` once truncation has run); callers that need
    /// instants behind the horizon should use
    /// [`Session::full_history`].
    pub fn history(&self) -> Option<&History> {
        self.running().map(|r| r.engine.history())
    }

    /// The full history, rehydrating any truncated prefix from the
    /// spill tier — borrowed (free) when nothing was truncated. `None`
    /// before the schema freezes.
    pub fn full_history(&self) -> Result<Option<std::borrow::Cow<'_, History>>, Error> {
        match self.running() {
            Some(r) => r.engine.full_history().map(Some),
            None => Ok(None),
        }
    }

    /// The frozen schema.
    pub fn schema(&self) -> Option<Arc<Schema>> {
        self.running().map(|r| r.engine.history().schema().clone())
    }

    /// A constraint's current status.
    ///
    /// # Panics
    /// Panics if the schema has not frozen (no constraint can exist).
    pub fn status(&self, id: ConstraintId) -> Status {
        self.running()
            .expect("no constraints before freeze")
            .engine
            .status(id)
    }

    /// Registered constraints in registration order:
    /// `(id, name, formula)`.
    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &str, &Formula)> {
        self.running().into_iter().flat_map(|r| {
            r.engine
                .constraints()
                .map(move |id| (id, r.engine.name(id), r.engine.formula(id)))
        })
    }

    /// Registered trigger definitions in registration order.
    pub fn trigger_defs(&self) -> &[(String, Formula)] {
        self.running().map_or(&[], |r| &r.trigger_defs)
    }

    /// Whether the session has a durable log.
    pub fn has_store(&self) -> bool {
        self.group.is_some()
    }

    /// The counters of the session's log, if durable (shared with
    /// every other session on the same log).
    pub fn store_stats(&self) -> Option<GroupStats> {
        self.group.as_ref().map(|g| g.wal.stats())
    }

    /// Cumulative trigger-engine counters (one-shot checks driven by
    /// trigger evaluation).
    pub fn trigger_stats(&self) -> EngineStats {
        self.running()
            .map_or_else(EngineStats::default, |r| r.triggers.stats())
    }

    /// Session-level stats: engine counters plus commit/violation/
    /// firing totals and gauge context.
    pub fn stats(&self) -> SessionStats {
        let engine = self
            .running()
            .map_or_else(EngineStats::default, |r| r.engine.stats());
        SessionStats {
            engine,
            commits: self.counters.commits,
            violations: self.counters.violations,
            trigger_firings: self.counters.trigger_firings,
            constraints: self
                .running()
                .map_or(0, |r| r.engine.constraints().count() as u64),
            triggers: self.running().map_or(0, |r| r.trigger_defs.len() as u64),
            history_len: self
                .running()
                .map_or(0, |r| r.engine.history().len() as u64),
            staged: self.staged_ops() as u64,
            durable: self.has_store(),
            store: self.store_stats(),
        }
    }

    /// Renders the versioned stats JSON (schema [`STATS_SCHEMA`]) with
    /// `"server":null` — servers splice their own object via
    /// [`stats_json_with`].
    pub fn stats_json(&self) -> String {
        stats_json_with(&self.stats(), None)
    }

    /// Writes a checkpoint — a full snapshot of the session (schema,
    /// history, constraints, residues, triggers) — to the session's
    /// log. Returns the snapshot size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, Error> {
        self.checkpoint_inner().map(|snap| snap.len() as u64)
    }

    /// Checkpoint, returning the snapshot bytes themselves (a shared
    /// log cannot be re-scanned per session, so a server keeps them to
    /// hand a later reopen).
    fn checkpoint_inner(&mut self) -> Result<Vec<u8>, Error> {
        let Some(g) = &self.group else {
            return Err(Error::Store("no store attached".to_owned()));
        };
        let (wal, id) = (Arc::clone(&g.wal), g.id);
        let r = self.running_mut()?;
        let snap = r.engine.snapshot_bytes(&encode_app(&r.trigger_defs));
        wal.append_snapshot(id, &snap).map_err(store_err)?;
        Ok(snap)
    }

    /// Checkpoints, then compacts the log ([`GroupWal::compact`]): every
    /// session on it keeps only its newest snapshot and the suffix after
    /// it, so this session's log prefix drops away. Returns the snapshot
    /// size in bytes.
    pub fn compact(&mut self) -> Result<u64, Error> {
        let bytes = self.checkpoint()?;
        let g = self
            .group
            .as_ref()
            .expect("checkpoint succeeded, so a log exists");
        g.wal.compact().map_err(store_err)?;
        Ok(bytes)
    }

    /// Closes the session: checkpoints to the log (if durable and the
    /// schema froze) so a reopen resumes without replay, and flushes
    /// the log.
    pub fn close(mut self) -> Result<(), Error> {
        self.close_snapshot().map(|_| ())
    }

    /// The work of [`Session::close`] — checkpoint (if durable and
    /// frozen) plus log flush — without consuming the handle: on error
    /// the session stays usable. For a durable session the
    /// checkpoint's snapshot bytes are returned; a server parks
    /// them so a later open of the same name resumes from exactly the
    /// state this close made durable (the shared log is never
    /// re-scanned while the server is live).
    pub fn close_snapshot(&mut self) -> Result<Option<Vec<u8>>, Error> {
        let mut snapshot = None;
        if self.has_store() && self.running().is_some() {
            snapshot = Some(self.checkpoint_inner()?);
        }
        if let Some(g) = &self.group {
            g.wal.flush().map_err(store_err)?;
        }
        Ok(snapshot)
    }

    /// Escape hatch: the underlying engine (once running). Prefer the
    /// session surface; this exists for diagnostics and tests.
    pub fn engine(&self) -> Option<&Engine> {
        self.running().map(|r| &r.engine)
    }

    /// Idle-parking hook: checkpoints the session and returns the
    /// state a server needs to transparently resume it later via
    /// [`SessionBuilder::resume`]. Durability is left exactly as a
    /// [`Session::close`] would leave it — a durable session appends
    /// the checkpoint to its log and flushes it, so a
    /// crash while parked recovers the same state the park captured;
    /// an ephemeral session parks purely in memory (its snapshot bytes
    /// live only in the returned [`ParkedSession`]).
    ///
    /// Errors while the schema is still defining (no engine to
    /// checkpoint) or with staged-but-uncommitted operations (parking
    /// would silently drop them).
    pub fn park(&mut self) -> Result<ParkedSession, Error> {
        if self.running().is_none() {
            return Err(Error::Session(
                "cannot park a session whose schema never froze".to_owned(),
            ));
        }
        if self.staged_ops() > 0 {
            return Err(Error::Session(
                "cannot park with staged uncommitted operations".to_owned(),
            ));
        }
        let snapshot = if self.group.is_some() {
            self.checkpoint_inner()?
        } else {
            let r = self.running_mut()?;
            r.engine.snapshot_bytes(&encode_app(&r.trigger_defs))
        };
        if let Some(g) = &self.group {
            g.wal.flush().map_err(store_err)?;
        }
        Ok(ParkedSession {
            name: self.name.clone(),
            snapshot,
            opts: self.opts,
            counters: self.counters,
        })
    }
}

/// Everything needed to transparently resume an idle-parked session:
/// the engine checkpoint plus the session-level state a snapshot alone
/// does not carry (effective options, commit/violation counters).
/// Produced by [`Session::park`], consumed by
/// [`SessionBuilder::resume`].
#[derive(Clone)]
pub struct ParkedSession {
    name: String,
    snapshot: Vec<u8>,
    opts: CheckOptions,
    counters: Counters,
}

impl ParkedSession {
    /// The parked session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The checkpoint bytes the parked engine resumes from (for a
    /// durable session, the same bytes its log now holds).
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }
}

/// Configures and opens a [`Session`]. See the module docs for the
/// backend shapes.
pub struct SessionBuilder {
    name: String,
    opts: CheckOptions,
    store: Option<std::path::PathBuf>,
    group: Option<(Arc<GroupWal>, String)>,
    snapshot: Option<Vec<u8>>,
    replay: Vec<Vec<u8>>,
    preds: Vec<(String, usize)>,
    consts: Vec<(String, Value)>,
    resume_counters: Option<Counters>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// A builder with default options and no backend.
    pub fn new() -> Self {
        Self {
            name: "session".to_owned(),
            opts: CheckOptions::default(),
            store: None,
            group: None,
            snapshot: None,
            replay: Vec::new(),
            preds: Vec::new(),
            consts: Vec::new(),
            resume_counters: None,
        }
    }

    /// Names the session (the registry key on a server).
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Uses `opts` for every engine, trigger, and check.
    pub fn options(mut self, opts: CheckOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Backs the session with its own log file at `path`
    /// ([`GroupWal::open_or_create`]; takes precedence over
    /// [`SessionBuilder::group`]): the session registered there under
    /// the builder's name resumes from its newest checkpoint if one
    /// exists, and its logged transactions are parked otherwise.
    pub fn store(mut self, path: impl AsRef<Path>) -> Self {
        self.store = Some(path.as_ref().to_path_buf());
        self
    }

    /// Backs the session with a shared group-commit log, registering
    /// it under the builder's name. Recovery of sessions on a shared
    /// log is the *caller's* job (it opened the log): pass the
    /// recovered snapshot/suffix via [`SessionBuilder::snapshot`] and
    /// [`SessionBuilder::replay`].
    pub fn group(mut self, wal: Arc<GroupWal>) -> Self {
        self.group = Some((wal, self.name.clone()));
        self
    }

    /// Restores the session from checkpoint bytes (a group recovery's
    /// [`ticc_store::RecoveredSession::snapshot`]).
    pub fn snapshot(mut self, bytes: Vec<u8>) -> Self {
        self.snapshot = Some(bytes);
        self
    }

    /// Transactions to replay after the snapshot (or after the schema
    /// freezes, if there is no snapshot).
    pub fn replay(mut self, payloads: Vec<Vec<u8>>) -> Self {
        self.replay = payloads;
        self
    }

    /// Resumes an idle-parked session from [`Session::park`]'s state:
    /// name, snapshot, options, and session counters, so observable
    /// behaviour continues exactly where the parked session left off.
    /// Call before [`SessionBuilder::group`] (the group registration
    /// uses the builder's name at the time it is called); not with
    /// [`SessionBuilder::store`], whose recovery supplies its own
    /// snapshot.
    pub fn resume(mut self, parked: ParkedSession) -> Self {
        self.name = parked.name;
        self.opts = parked.opts;
        self.snapshot = Some(parked.snapshot);
        self.resume_counters = Some(parked.counters);
        self
    }

    /// Declares a predicate up front; with at least one, `open()`
    /// freezes the schema immediately.
    pub fn pred(mut self, name: &str, arity: usize) -> Self {
        self.preds.push((name.to_owned(), arity));
        self
    }

    /// Declares a rigid constant up front.
    pub fn constant(mut self, name: &str, value: Value) -> Self {
        self.consts.push((name.to_owned(), value));
        self
    }

    /// Opens the session. See [`OpenSummary`] for what recovery found;
    /// error messages carry the failing path.
    pub fn open(self) -> Result<(Session, OpenSummary), Error> {
        let mut summary = OpenSummary::default();
        let mut snapshot = self.snapshot;
        let mut replay = self.replay;
        let mut group = self.group;
        if let Some(path) = &self.store {
            let (wal, recovered) = GroupWal::open_or_create(path)
                .map_err(|e| Error::Store(format!("cannot open store {}: {e}", path.display())))?;
            summary.truncated_bytes = recovered.truncated_bytes;
            let mine = recovered.sessions.into_iter().find(|s| s.name == self.name);
            (snapshot, replay) = mine.map_or((None, Vec::new()), |s| (s.snapshot, s.suffix));
            group = Some((Arc::new(wal), self.name.clone()));
        }
        let group = match group {
            Some((wal, name)) => {
                let id = wal
                    .register(&name)
                    .map_err(|e| Error::Store(format!("cannot register session: {e}")))?;
                Some(GroupBinding { wal, id })
            }
            None => None,
        };

        if let Some(snap) = snapshot {
            // Resume: engine + statuses from the snapshot, triggers
            // from the app blob, then the logged suffix on top.
            let at = self
                .store
                .as_ref()
                .map_or(String::new(), |p| format!(" in {}", p.display()));
            let (mut engine, app) = Engine::restore_bytes(&snap, self.opts)
                .map_err(|e| Error::Store(format!("cannot restore checkpoint{at}: {e}")))?;
            let schema = engine.history().schema().clone();
            for payload in &replay {
                // The engine logs nothing: the suffix is in the log.
                let tx = tx_from_bytes(payload, &schema)
                    .map_err(|e| Error::Store(format!("corrupt logged transaction{at}: {e}")))?;
                engine.append(&tx).map_err(|e| {
                    Error::Session(format!("cannot replay logged transaction: {e}"))
                })?;
            }
            let trigger_defs = decode_app(&app, &schema)?;
            let mut triggers = TriggerEngine::new(self.opts);
            for (name, phi) in &trigger_defs {
                triggers
                    .add(Trigger {
                        name: name.clone(),
                        condition: phi.clone(),
                        action: Action::Log,
                    })
                    .map_err(|e| Error::Session(format!("cannot restore trigger '{name}': {e}")))?;
            }
            summary.resumed = true;
            summary.states = engine.history().len();
            summary.constraints = engine.constraints().count();
            summary.triggers = trigger_defs.len();
            summary.replayed = replay.len();
            let session = Session {
                name: self.name,
                opts: self.opts,
                phase: Phase::Running(Box::new(Running {
                    engine,
                    triggers,
                    trigger_defs,
                    pending: Transaction::new(),
                    pending_ops: 0,
                })),
                pending_replay: Vec::new(),
                group,
                counters: self.resume_counters.unwrap_or_default(),
            };
            return Ok((session, summary));
        }

        summary.pending_replay = replay.len();
        let mut session = Session {
            name: self.name,
            opts: self.opts,
            phase: Phase::Defining {
                preds: self.preds,
                consts: self.consts,
            },
            pending_replay: replay,
            group,
            counters: Counters::default(),
        };
        if session.declared_preds() > 0 {
            session.freeze()?;
            summary.states = session.history().map_or(0, |h| h.len());
            summary.replayed = std::mem::take(&mut summary.pending_replay);
        }
        Ok((session, summary))
    }
}

/// Encodes the session's trigger definitions into the checkpoint's
/// application blob.
fn encode_app(trigger_defs: &[(String, Formula)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(APP_VERSION);
    e.usize(trigger_defs.len());
    for (name, phi) in trigger_defs {
        e.str(name);
        formula_encode(&mut e, phi);
    }
    e.into_bytes()
}

/// A log failure as a session error.
fn store_err(e: StoreError) -> Error {
    Error::Store(e.to_string())
}

/// Decodes the application blob back into trigger definitions. An
/// empty blob (a checkpoint written by a non-session embedder) simply
/// restores no triggers.
fn decode_app(bytes: &[u8], schema: &Schema) -> Result<Vec<(String, Formula)>, Error> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let fail = |e: ticc_store::StoreError| {
        Error::Session(format!("corrupt session state in checkpoint: {e}"))
    };
    let mut d = Dec::new(bytes);
    let version = d.u32().map_err(fail)?;
    if version != APP_VERSION {
        return Err(Error::Session(format!(
            "checkpoint written by a newer session (app blob version {version}, \
             this build speaks {APP_VERSION})"
        )));
    }
    let n = d.usize().map_err(fail)?;
    let mut defs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str().map_err(fail)?.to_owned();
        let phi = formula_decode(&mut d, schema).map_err(fail)?;
        defs.push((name, phi));
    }
    d.finish().map_err(fail)?;
    Ok(defs)
}

/// Renders session statistics as the versioned
/// [`STATS_SCHEMA`] JSON object. `server` is a pre-rendered JSON
/// object spliced in verbatim by the server (null when absent);
/// durations are nanoseconds.
pub fn stats_json_with(stats: &SessionStats, server: Option<&str>) -> String {
    use std::fmt::Write as _;
    let s = &stats.engine;
    let mut o = String::from("{");
    let _ = write!(o, "\"schema\":\"{STATS_SCHEMA}\"");
    let _ = write!(o, ",\"appends\":{}", s.appends);
    let _ = write!(o, ",\"fast_appends\":{}", s.fast_appends);
    let _ = write!(o, ",\"grounds\":{}", s.grounds);
    let _ = write!(o, ",\"regrounds\":{}", s.regrounds);
    let _ = write!(o, ",\"delta_grounds\":{}", s.delta_grounds);
    let _ = write!(o, ",\"new_conjuncts\":{}", s.new_conjuncts);
    let _ = write!(o, ",\"replayed_conjuncts\":{}", s.replayed_conjuncts);
    let _ = write!(o, ",\"progress_steps\":{}", s.progress_steps);
    let _ = write!(o, ",\"replay_steps\":{}", s.replay_steps);
    let _ = write!(o, ",\"encode_patched_atoms\":{}", s.encode_patched_atoms);
    let _ = write!(o, ",\"sat_checks\":{}", s.sat_checks);
    let _ = write!(
        o,
        ",\"automata\":{{\"templates_compiled\":{},\"automaton_states\":{},\
         \"automaton_insts\":{},\"automaton_appends\":{},\"automaton_steps\":{},\
         \"compile_time_ns\":{}}}",
        s.templates_compiled,
        s.automaton_states,
        s.automaton_insts,
        s.automaton_appends,
        s.automaton_steps,
        s.automaton_compile_time.as_nanos()
    );
    let _ = write!(
        o,
        ",\"cache\":{{\"sat_hits\":{},\"sat_evictions\":{},\"transition_hits\":{},\
         \"transition_misses\":{},\"transition_evictions\":{},\"letter_index_len\":{}}}",
        s.cache.sat_hits,
        s.cache.sat_evictions,
        s.cache.transition_hits,
        s.cache.transition_misses,
        s.cache.transition_evictions,
        s.cache.letter_index_len
    );
    let store = stats.store.as_ref().map(group_stats_json);
    let _ = write!(o, ",\"store\":{}", store.as_deref().unwrap_or("null"));
    let _ = write!(
        o,
        ",\"history\":{{\"resident_states\":{},\"resident_bytes\":{},\"spilled_instants\":{},\
         \"spilled_distinct\":{},\"spilled_bytes\":{},\"truncations\":{},\"page_loads\":{},\
         \"reclaimed_bytes\":{}}}",
        s.history.resident_states,
        s.history.resident_bytes,
        s.history.spilled_instants,
        s.history.spilled_distinct,
        s.history.spilled_bytes,
        s.history.truncations,
        s.history.page_loads,
        s.history.reclaimed_bytes
    );
    let _ = write!(o, ",\"letters\":{}", s.letters);
    let _ = write!(o, ",\"arena_nodes\":{}", s.arena_nodes);
    let _ = write!(o, ",\"mappings\":{}", s.mappings);
    let _ = write!(o, ",\"inst_enumerated\":{}", s.inst_enumerated);
    let _ = write!(o, ",\"inst_pruned\":{}", s.inst_pruned);
    let _ = write!(o, ",\"inst_shared\":{}", s.inst_shared);
    let _ = write!(o, ",\"ground_time_ns\":{}", s.ground_time.as_nanos());
    let _ = write!(
        o,
        ",\"index_build_time_ns\":{}",
        s.index_build_time.as_nanos()
    );
    let _ = write!(o, ",\"progress_time_ns\":{}", s.progress_time.as_nanos());
    let _ = write!(o, ",\"sat_time_ns\":{}", s.sat_time.as_nanos());
    let _ = write!(o, ",\"batches\":{}", s.batches);
    let _ = write!(o, ",\"batched_txs\":{}", s.batched_txs);
    let _ = write!(o, ",\"scratch_allocs\":{}", s.scratch_allocs);
    let _ = write!(
        o,
        ",\"session\":{{\"commits\":{},\"violations\":{},\"trigger_firings\":{},\
         \"constraints\":{},\"triggers\":{},\"history_len\":{},\"staged\":{},\"durable\":{}}}",
        stats.commits,
        stats.violations,
        stats.trigger_firings,
        stats.constraints,
        stats.triggers,
        stats.history_len,
        stats.staged,
        stats.durable
    );
    let _ = write!(o, ",\"server\":{}", server.unwrap_or("null"));
    o.push('}');
    o
}

/// Renders a log's [`GroupStats`] as the JSON object the stats schema
/// uses for a session's `store` and the server's `group`.
pub fn group_stats_json(g: &GroupStats) -> String {
    format!(
        "{{\"frames\":{},\"windows\":{},\"fsyncs\":{},\"batched_frames\":{},\
         \"max_batch\":{},\"bytes_written\":{},\"recovered_sessions\":{},\
         \"truncated_bytes\":{}}}",
        g.frames,
        g.windows,
        g.fsyncs,
        g.batched_frames,
        g.max_batch,
        g.bytes_written,
        g.recovered_sessions,
        g.truncated_bytes
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ticc_fotl::parser::parse;

    fn formula(session: &Session, src: &str) -> Formula {
        parse(&session.schema().expect("frozen"), src).expect("parses")
    }

    fn tx(session: &Session, pred: &str, v: Value) -> Transaction {
        let p = session.schema().unwrap().pred(pred).unwrap();
        Transaction::new().insert(p, vec![v])
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ticc-session-{tag}-{}.wal", std::process::id()))
    }

    #[test]
    fn lifecycle_defining_to_running() {
        let (mut s, summary) = Session::builder().open().unwrap();
        assert_eq!(summary, OpenSummary::default());
        assert!(s.is_defining());
        s.declare_pred("Sub", 1).unwrap();
        assert!(s.declare_pred("Sub", 2).is_err(), "duplicate symbol");
        assert!(s.declare_pred("Zero", 0).is_err(), "zero arity");
        s.freeze().unwrap();
        assert!(!s.is_defining());
        // Frozen means frozen.
        let err = s.declare_pred("Late", 1).unwrap_err();
        assert!(err.to_string().contains("frozen"), "{err}");
        // Idempotent.
        s.freeze().unwrap();
    }

    #[test]
    fn freeze_without_preds_is_an_error() {
        let (mut s, _) = Session::builder().open().unwrap();
        assert!(matches!(s.freeze(), Err(Error::Session(_))));
        let (mut s2, _) = Session::builder().open().unwrap();
        assert!(
            s2.commit().is_err(),
            "commit auto-freeze hits the same rule"
        );
    }

    #[test]
    fn builder_schema_opens_running() {
        let (mut s, summary) = Session::builder()
            .pred("Sub", 1)
            .constant("vip", 7)
            .open()
            .unwrap();
        assert!(!s.is_defining());
        assert_eq!(summary.states, 0);
        let phi = formula(&s, "G !Sub(vip)");
        let id = s.add_constraint("novip", phi).unwrap();
        let t = tx(&s, "Sub", 7);
        let out = s.append(&t).unwrap();
        assert_eq!(out.t, 0);
        assert_eq!(out.events.len(), 1, "constant resolves and violates");
        assert!(matches!(s.status(id), Status::Violated { .. }));
    }

    #[test]
    fn commit_folds_staged_ops_and_counts() {
        let (mut s, _) = Session::builder().pred("P", 1).open().unwrap();
        let p = s.schema().unwrap().pred("P").unwrap();
        s.stage(true, p, vec![1]).unwrap();
        s.stage(true, p, vec![2]).unwrap();
        assert_eq!(s.staged_ops(), 2);
        let out = s.commit().unwrap();
        assert_eq!(out.ops, 2);
        assert_eq!(s.staged_ops(), 0);
        assert_eq!(s.history().unwrap().len(), 1);
        let st = s.stats();
        assert_eq!(st.commits, 1);
        assert_eq!(st.history_len, 1);
        assert!(!st.durable);
    }

    #[test]
    fn triggers_fire_and_are_counted() {
        let (mut s, _) = Session::builder().pred("Sub", 1).open().unwrap();
        let cond = formula(&s, "F (Sub(x) & X F Sub(x))");
        s.add_trigger("dup", cond).unwrap();
        s.append(&tx(&s, "Sub", 2)).unwrap();
        let out = s.append(&tx(&s, "Sub", 2)).unwrap();
        assert_eq!(out.fired.len(), 1);
        assert_eq!(out.fired[0].name, "dup");
        assert_eq!(s.stats().trigger_firings, 1);
        assert_eq!(s.trigger_defs().len(), 1);
    }

    #[test]
    fn append_batch_commits_each_state() {
        // A batch must hand back one Committed per transaction —
        // events, trigger firings, and counters exactly as a
        // per-transaction append loop would produce them.
        let (mut s, _) = Session::builder().pred("Sub", 1).open().unwrap();
        let phi = formula(&s, "forall x. G (Sub(x) -> X G !Sub(x))");
        let id = s.add_constraint("once", phi).unwrap();
        let cond = formula(&s, "F (Sub(x) & X F Sub(x))");
        s.add_trigger("dup", cond).unwrap();
        let p = s.schema().unwrap().pred("Sub").unwrap();
        let txs = [
            Transaction::new().insert(p, vec![1]),
            Transaction::new().delete(p, vec![1]).insert(p, vec![2]),
            Transaction::new().delete(p, vec![2]).insert(p, vec![1]), // re-submission
        ];
        let out = s.append_batch(&txs).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].t, 0);
        assert!(out[0].events.is_empty());
        assert!(out[0].fired.is_empty(), "no duplicate yet at state 0");
        assert_eq!(out[2].t, 2);
        assert_eq!(out[2].events.len(), 1, "re-submission violates");
        assert_eq!(out[2].fired.len(), 1, "dup fires at the violating state");
        assert!(matches!(s.status(id), Status::Violated { .. }));
        let st = s.stats();
        assert_eq!(st.commits, 3);
        assert_eq!(st.violations, 1);
        assert_eq!(st.trigger_firings, 1);
        assert_eq!(st.engine.batches, 1);
        assert_eq!(st.engine.batched_txs, 3);
        assert_eq!(st.history_len, 3);
    }

    #[test]
    fn own_store_round_trip_via_builder() {
        let path = tmp("own-store");
        let _ = std::fs::remove_file(&path);
        {
            let (mut s, summary) = Session::builder()
                .store(&path)
                .pred("Sub", 1)
                .open()
                .unwrap();
            assert!(!summary.resumed);
            let phi = formula(&s, "forall x. G (Sub(x) -> X G !Sub(x))");
            s.add_constraint("once", phi).unwrap();
            s.append(&tx(&s, "Sub", 1)).unwrap();
            s.checkpoint().unwrap();
            let p = s.schema().unwrap().pred("Sub").unwrap();
            s.append(&Transaction::new().delete(p, vec![1])).unwrap();
        }
        let (mut s, summary) = Session::builder().store(&path).open().unwrap();
        assert!(summary.resumed);
        assert_eq!(summary.replayed, 1);
        assert_eq!(summary.states, 2);
        assert_eq!(summary.constraints, 1);
        let out = s.append(&tx(&s, "Sub", 1)).unwrap();
        assert_eq!(out.events.len(), 1, "restored constraint still live");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_backed_session_logs_and_recovers() {
        let path = tmp("group");
        let _ = std::fs::remove_file(&path);
        let wal = Arc::new(GroupWal::create(&path).unwrap());
        {
            let (mut s, _) = Session::builder()
                .name("alice")
                .options(
                    CheckOptions::builder()
                        .durability(Durability::WalFsync)
                        .build(),
                )
                .group(Arc::clone(&wal))
                .pred("Sub", 1)
                .open()
                .unwrap();
            assert!(s.has_store());
            let phi = formula(&s, "forall x. G (Sub(x) -> X G !Sub(x))");
            s.add_constraint("once", phi).unwrap();
            s.append(&tx(&s, "Sub", 1)).unwrap();
            s.checkpoint().unwrap();
            let before = std::fs::metadata(&path).unwrap().len();
            s.compact().unwrap();
            assert!(
                std::fs::metadata(&path).unwrap().len() < before,
                "compaction drops the logged prefix and the older snapshot"
            );
            s.close().unwrap();
        }
        drop(wal);
        // Recover via the group log: the closing checkpoint restores
        // the whole session without redeclaring the schema.
        let (wal, rec) = GroupWal::open(&path).unwrap();
        let wal = Arc::new(wal);
        let r = &rec.sessions[0];
        assert_eq!(r.name, "alice");
        assert!(
            r.suffix.is_empty(),
            "the closing checkpoint covers every append"
        );
        let (mut s, summary) = Session::builder()
            .name("alice")
            .group(Arc::clone(&wal))
            .snapshot(r.snapshot.clone().expect("close checkpoints"))
            .replay(r.suffix.clone())
            .open()
            .unwrap();
        assert!(summary.resumed);
        assert_eq!(summary.constraints, 1);
        let out = s.append(&tx(&s, "Sub", 1)).unwrap();
        assert_eq!(out.events.len(), 1, "resubmission violates after recovery");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_json_is_v4_with_session_object() {
        let (mut s, _) = Session::builder().pred("P", 1).open().unwrap();
        s.append(&tx(&s, "P", 1)).unwrap();
        let j = s.stats_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"schema\":\"ticc-engine-stats-v4\""), "{j}");
        assert!(j.contains("\"store\":null"), "ephemeral: {j}");
        assert!(j.contains("\"appends\":1"), "{j}");
        assert!(j.contains("\"automata\":{\"templates_compiled\":"), "{j}");
        assert!(!j.contains("pool_workers") && !j.contains("par_"), "{j}");
        assert!(j.contains("\"scratch_allocs\":"), "{j}");
        assert!(j.contains("\"batches\":0"), "{j}");
        assert!(j.contains("\"session\":{\"commits\":1"), "{j}");
        assert!(j.contains("\"server\":null"), "{j}");
        let spliced = stats_json_with(&s.stats(), Some("{\"sessions\":3}"));
        assert!(spliced.contains("\"server\":{\"sessions\":3}"), "{spliced}");

        // A durable session reports its log's counters: registration,
        // one transaction and one snapshot frame.
        let path = tmp("stats-v4");
        let _ = std::fs::remove_file(&path);
        let (mut d, _) = Session::builder().store(&path).pred("P", 1).open().unwrap();
        d.append(&tx(&d, "P", 1)).unwrap();
        d.checkpoint().unwrap();
        let j = d.stats_json();
        let store = format!("\"store\":{}", group_stats_json(&d.store_stats().unwrap()));
        assert!(j.contains(&store), "{j}");
        assert!(j.contains("\"store\":{\"frames\":3,"), "{j}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_between_checkpoints_recovers_full_horizon() {
        // Truncation needs no checkpoint: a crash *between* a
        // truncation and the next checkpoint recovers from the older
        // snapshot (self-contained, spilled pages included) plus the
        // logged suffix, whose replay re-truncates on the way.
        let path = tmp("budget-crash");
        let _ = std::fs::remove_file(&path);
        let opts = CheckOptions::builder()
            .history_budget(crate::HistoryBudget::Window(2))
            .durability(Durability::Wal)
            .build();
        let open = || {
            Session::builder()
                .options(opts)
                .store(&path)
                .pred("Sub", 1)
                .pred("Fill", 1)
                .open()
                .unwrap()
        };
        let churn_tx = |s: &Session, i: u64| {
            let sub = s.schema().unwrap().pred("Sub").unwrap();
            let tx = Transaction::new();
            let tx = if i > 0 {
                tx.delete(sub, vec![i - 1])
            } else {
                tx
            };
            tx.insert(sub, vec![i])
        };
        let (mut s, summary) = open();
        assert!(!summary.resumed);
        let phi = formula(&s, "forall x. G (Sub(x) -> X G !Sub(x))");
        s.add_constraint("once", phi.clone()).unwrap();
        for i in 0..8u64 {
            s.append(&churn_tx(&s, i)).unwrap();
        }
        s.checkpoint().unwrap();
        assert!(
            s.history().unwrap().base() > 0,
            "the window truncated before the checkpoint"
        );
        // Grow past the window again; truncation moves on past the
        // checkpoint while the log suffix accumulates.
        for i in 8..16u64 {
            s.append(&churn_tx(&s, i)).unwrap();
        }
        assert_eq!(s.history().unwrap().len(), 16);
        drop(s); // crash: the post-checkpoint instants exist only in the log

        let (s2, summary) = open();
        assert!(summary.resumed);
        assert_eq!(summary.replayed, 8);
        let e2 = s2.engine().unwrap();
        assert_eq!(e2.history().len(), 16, "full horizon restored");
        // Oracle: a never-crashed unbounded twin over the same stream.
        let mut twin = Engine::new(s2.schema().unwrap(), CheckOptions::default());
        let t_id = twin.add_constraint("once", phi).unwrap();
        for i in 0..16u64 {
            twin.append(&churn_tx(&s2, i)).unwrap();
        }
        let ids: Vec<_> = e2.constraints().collect();
        assert_eq!(ids.len(), 1);
        assert_eq!(e2.status(ids[0]), twin.status(t_id));
        let full = e2.full_history().unwrap();
        for t in 0..16 {
            assert_eq!(full.state(t), twin.history().state(t), "instant {t}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
