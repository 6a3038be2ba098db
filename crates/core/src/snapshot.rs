//! Engine snapshot codec — the serialisation half of the durability
//! layer.
//!
//! Theorem 4.1 is what makes an engine snapshot *small*: the monitor
//! never needs the history to keep checking, only the current database
//! and, per constraint, the grounding vocabulary plus the progressed
//! residue. A snapshot therefore serialises the schema, the constant
//! interpretation, the database states, and for every registered
//! constraint a grounding dump (arena nodes, letter table, trace,
//! known-value universe) together with the residue id — everything a
//! restore needs to be *bit-identical* to the engine that wrote it:
//! same atom ids, same formula ids, same residues, so the restored
//! engine and a never-crashed twin progress in lockstep.
//!
//! The byte format reuses the `ticc-store` primitives: canonical LEB128
//! varints ([`Enc`]/[`Dec`]) and the shared schema/formula/transaction
//! codec. Every id decoded from the payload is validated against the
//! table it references, so corrupt snapshot bytes surface as
//! [`Error::Store`] instead of a panic or an out-of-bounds index.

use crate::engine::{CompiledSet, Engine, Entry, GroundingContext, Status};
use crate::error::Error;
use crate::extension::CheckOptions;
use crate::ground::{GArg, GroundStats, Grounding, GroundingDump, LetterKey};
use crate::obs::{CacheStats, EngineStats};
use crate::spill::HistoryPager;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use ticc_ptl::arena::{AtomId, FormulaId, Node};
use ticc_ptl::automaton::{CanonNode, SafetyAutomaton, TemplateKey, MAX_ARITY};
use ticc_ptl::trace::PropState;
use ticc_store::codec::{formula_decode, formula_encode, schema_decode, schema_encode};
use ticc_store::{Dec, Enc, StoreError};
use ticc_tdb::{ConstId, History, PredId, State};

/// Version of the snapshot payload layout. Bump on any change to the
/// byte format; [`restore_engine`] accepts only the current version,
/// with no reader for older ones.
///
/// A payload stays fully self-contained under truncation — the
/// distinct-state table leads with the spill tier's pages (in page-id
/// order, so cold per-instant indices are page ids) followed by
/// resident states deduped against them, and the history section
/// carries the truncation base plus the frozen active-domain set.
/// Restore rebuilds the same tiered shape it wrote: cold instants are
/// re-spilled to a fresh pager instead of being materialised, so a
/// restart's resident footprint matches the writer's.
///
/// Each template automaton persists its discovered states (its arena
/// as one canonical-node table plus each state's residue index, in
/// discovery order), so unit state ids survive a restore. Its key
/// carries its support and internal-letter counts, and a grounding's
/// letter table its internal letters ([`LetterKey::Past`]), which the
/// restore marks internal again.
///
/// Two bytes are fixed tags: the violation-notion tag after the
/// constants and the ground-mode tag leading each grounding dump. The
/// engine decides one notion (potential satisfaction) over folded
/// groundings, so both are always written as `0` and any other value
/// is rejected as corrupt.
pub const SNAP_VERSION: u32 = 6;

/// The fixed value of the notion and ground-mode tags (see
/// [`SNAP_VERSION`]).
const FIXED_TAG: u8 = 0;

/// Reads one fixed tag, rejecting any other value as corrupt.
fn fixed_tag(d: &mut Dec<'_>, what: &str) -> Result<(), Error> {
    match d.u8()? {
        FIXED_TAG => Ok(()),
        n => Err(corrupt(&format!("unsupported {what} tag {n}"))),
    }
}

fn corrupt(msg: &str) -> Error {
    Error::Store(format!("snapshot: {msg}"))
}

/// Serialises the complete engine state plus an opaque application
/// blob (a session stores its trigger definitions there). The result
/// is what [`crate::Session::checkpoint`] logs as a snapshot frame.
pub fn snapshot_engine(engine: &Engine, app: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(SNAP_VERSION);
    let history = engine.history();
    let schema = history.schema();
    schema_encode(&mut e, schema);
    for c in schema.consts() {
        e.u64(history.const_value(c));
    }
    // Notion tag: always potential satisfaction.
    e.u8(FIXED_TAG);
    // Distinct-state table + per-instant indices: long histories repeat
    // states heavily (churn workloads cycle through a handful of
    // databases), so both the wire size and the decode cost of the
    // history section scale with the number of *distinct* states.
    //
    // A truncated history contributes its spill pages first, in
    // page-id order (so a cold instant's table index is its page id),
    // then the resident states deduped against them — the snapshot is
    // fully self-contained regardless of budget, and the spill segment
    // itself never needs to survive a crash.
    let mut distinct: Vec<State> = Vec::new();
    let mut index_of: std::collections::HashMap<Vec<u8>, usize> = std::collections::HashMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(history.len());
    if history.base() > 0 {
        let pager = engine
            .pager
            .as_ref()
            .expect("truncated history has a pager");
        for id in 0..pager.distinct() as u32 {
            let bytes = pager
                .page_bytes(id)
                .expect("spill segment unreadable during snapshot");
            let state =
                state_decode(&mut Dec::new(&bytes), schema).expect("spill page fails to decode");
            index_of.insert(bytes, id as usize);
            distinct.push(state);
        }
        for t in 0..history.base() {
            indices.push(pager.page_of(t).expect("spilled instant missing") as usize);
        }
    }
    for state in history.states() {
        let mut se = Enc::new();
        state_encode(&mut se, schema, state);
        let idx = *index_of.entry(se.into_bytes()).or_insert_with(|| {
            distinct.push(state.clone());
            distinct.len() - 1
        });
        indices.push(idx);
    }
    e.usize(distinct.len());
    for state in &distinct {
        state_encode(&mut e, schema, state);
    }
    e.usize(indices.len());
    for idx in indices {
        e.usize(idx);
    }
    e.usize(history.base());
    let frozen = history.frozen();
    e.usize(frozen.len());
    for &v in frozen {
        e.u64(v);
    }
    let mut stats = engine.stats;
    if let Some(p) = engine.pager.as_ref() {
        stats.history.page_loads += p.loads();
    }
    stats_encode(&mut e, &stats);
    e.usize(engine.entries.len());
    for entry in &engine.entries {
        e.str(&entry.name);
        formula_encode(&mut e, &entry.phi);
        match entry.status {
            Status::Satisfied => e.u8(0),
            Status::Violated { at } => {
                e.u8(1);
                e.usize(at);
            }
        }
        // Kind tag: 0 = symbolic residue (the reference pipeline), 1 =
        // compiled automata (production). A compiled context's
        // `residue()` is held at `⊤`; its live state is the
        // template/unit section, persisted so a restore resumes
        // u32-state stepping without replaying the prefix.
        match entry.ctx.compiled.as_ref() {
            None => {
                e.u8(0);
                e.u32(entry.ctx.residue().0);
            }
            Some(set) => {
                e.u8(1);
                RawCompiled::of(set).encode(&mut e);
            }
        }
        dump_encode(&mut e, &entry.ctx.grounding().dump());
    }
    e.bytes(app);
    e.into_bytes()
}

/// Rebuilds an engine from a snapshot payload. Returns the engine and
/// the application blob the snapshot carried. `opts` are the caller's: run
/// options (durability, history budget) are a property of the process,
/// not of the persisted state.
pub fn restore_engine(bytes: &[u8], opts: CheckOptions) -> Result<(Engine, Vec<u8>), Error> {
    let mut d = Dec::new(bytes);
    let version = d.u32()?;
    if version != SNAP_VERSION {
        return Err(corrupt(&format!(
            "unsupported snapshot version {version} (expected {SNAP_VERSION})"
        )));
    }
    let schema = schema_decode(&mut d)?;
    let mut consts = Vec::with_capacity(schema.const_count());
    for _ in schema.consts() {
        consts.push(d.u64()?);
    }
    fixed_tag(&mut d, "notion")?;
    let distinct = list(&mut d, |d| state_decode(d, &schema))?;
    let state_idxs = list(&mut d, |d| match d.usize()? {
        idx if idx < distinct.len() => Ok(idx),
        _ => Err(corrupt("state index out of range")),
    })?;
    let base = d.usize()?;
    if base > state_idxs.len() {
        return Err(corrupt("truncation base out of range"));
    }
    let frozen: BTreeSet<u64> = list(&mut d, |d| Ok(d.u64()?))?.into_iter().collect();
    // Rebuild the writer's tiered shape: cold instants are re-spilled
    // to a fresh pager (deduped pages, not materialised states), the
    // resident suffix becomes the in-memory history. A restart's
    // resident footprint therefore matches the writer's — this is
    // what makes recovery from a truncated checkpoint cheap.
    let mut pager = None;
    if base > 0 {
        let mut p = HistoryPager::new(schema.clone())?;
        for &idx in &state_idxs[..base] {
            let mut se = Enc::new();
            state_encode(&mut se, &schema, &distinct[idx]);
            p.spill_encoded(&se.into_bytes())?;
        }
        pager = Some(p);
    }
    let resident: Vec<State> = state_idxs[base..]
        .iter()
        .map(|&idx| distinct[idx].clone())
        .collect();
    let history = History::from_parts(schema.clone(), consts, base, frozen, resident);
    let stats = stats_decode(&mut d)?;
    let n_entries = d.usize()?;
    let mut entries = Vec::new();
    enum Persisted {
        Symbolic(FormulaId),
        Compiled(RawCompiled),
    }
    for _ in 0..n_entries {
        let name = d.str()?.to_owned();
        let phi = formula_decode(&mut d, &schema)?;
        let status = match d.u8()? {
            0 => Status::Satisfied,
            1 => Status::Violated { at: d.usize()? },
            n => return Err(corrupt(&format!("unknown status tag {n}"))),
        };
        let persisted = match d.u8()? {
            0 => Persisted::Symbolic(FormulaId(d.u32()?)),
            1 => Persisted::Compiled(RawCompiled::decode(&mut d)?),
            n => return Err(corrupt(&format!("unknown residue kind tag {n}"))),
        };
        let dump = dump_decode(&mut d, &schema)?;
        let mut g = Grounding::restore(schema.clone(), dump)
            .map_err(|m| corrupt(&format!("grounding: {m}")))?;
        let mut ctx = match persisted {
            Persisted::Symbolic(residue) => {
                if residue.index() >= g.arena.dag_len() {
                    return Err(corrupt("residue id out of range"));
                }
                GroundingContext::from_parts(g, residue)
            }
            Persisted::Compiled(raw) => {
                let set = restore_compiled(raw, &g)?;
                let tru = g.arena.tru();
                let mut ctx = GroundingContext::from_parts(g, tru);
                ctx.compiled = Some(set);
                ctx
            }
        };
        // Run options are the caller's: a context written by the other
        // pipeline converts to this one's runtime.
        ctx.adopt(opts.pipeline)?;
        entries.push(Entry {
            name,
            phi,
            status,
            ctx,
        });
    }
    let app = d.bytes()?.to_vec();
    d.finish()?;
    let mut engine = Engine::with_history(history, opts);
    engine.entries = entries;
    engine.stats = stats;
    engine.pager = pager;
    // Wall-clock timers measure this process, not the one that wrote
    // the snapshot: a resumed engine reports the time it spent itself,
    // so `stats --json` after a restore starts the clocks at zero.
    engine.stats.ground_time = Duration::ZERO;
    engine.stats.progress_time = Duration::ZERO;
    engine.stats.sat_time = Duration::ZERO;
    engine.stats.index_build_time = Duration::ZERO;
    Ok((engine, app))
}

/// Canonical state codec, shared with the spill tier
/// ([`crate::spill::HistoryPager`]): per predicate in schema order, a
/// tuple count then the raw tuple values. Identical bytes ⟺ identical
/// states, which is what both the snapshot's distinct-state dedup and
/// the pager's page dedup rely on.
pub(crate) fn state_encode(e: &mut Enc, schema: &ticc_tdb::Schema, state: &State) {
    for p in schema.preds() {
        let rel = state.relation(p);
        e.usize(rel.len());
        for tuple in rel.iter() {
            for &v in tuple {
                e.u64(v);
            }
        }
    }
}

/// Decodes one state written by [`state_encode`].
pub(crate) fn state_decode(
    d: &mut Dec<'_>,
    schema: &Arc<ticc_tdb::Schema>,
) -> Result<State, Error> {
    let mut s = State::empty(schema.clone());
    for p in schema.preds() {
        let n = d.usize()?;
        let arity = schema.arity(p);
        for _ in 0..n {
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                tuple.push(d.u64()?);
            }
            s.insert(p, tuple)
                .map_err(|e| corrupt(&format!("state tuple rejected: {e}")))?;
        }
    }
    Ok(s)
}

fn duration_encode(e: &mut Enc, d: Duration) {
    e.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn duration_decode(d: &mut Dec<'_>) -> Result<Duration, StoreError> {
    Ok(Duration::from_nanos(d.u64()?))
}

fn stats_encode(e: &mut Enc, s: &EngineStats) {
    for v in [
        s.appends,
        s.fast_appends,
        s.grounds,
        s.regrounds,
        s.delta_grounds,
        s.new_conjuncts,
        s.replayed_conjuncts,
        s.progress_steps,
        s.encode_patched_atoms,
        s.sat_checks,
        s.cache.sat_hits,
        s.cache.sat_evictions,
        s.cache.transition_hits,
        s.cache.transition_misses,
        s.cache.transition_evictions,
        s.replay_steps,
    ] {
        e.u64(v);
    }
    duration_encode(e, s.ground_time);
    duration_encode(e, s.progress_time);
    duration_encode(e, s.sat_time);
    // Automaton lifetime counters. The automaton gauges (templates,
    // states, bound instantiations, discovery time) are recomputed by
    // `Engine::stats` from the restored contexts.
    e.u64(s.automaton_appends);
    e.u64(s.automaton_steps);
    // History-tier lifetime counters. The tier gauges (resident/spilled
    // sizes) are recomputed by `Engine::stats` from the restored
    // history and pager.
    e.u64(s.history.truncations);
    e.u64(s.history.page_loads);
    e.u64(s.history.reclaimed_bytes);
}

fn stats_decode(d: &mut Dec<'_>) -> Result<EngineStats, StoreError> {
    // Gauges (letters, arena nodes, mappings, letter index) are
    // refreshed by `Engine::stats`, so only the lifetime counters and
    // timers persist. Struct-literal fields evaluate in source order,
    // which matches the encode order.
    let mut s = EngineStats {
        appends: d.u64()?,
        fast_appends: d.u64()?,
        grounds: d.u64()?,
        regrounds: d.u64()?,
        delta_grounds: d.u64()?,
        new_conjuncts: d.u64()?,
        replayed_conjuncts: d.u64()?,
        progress_steps: d.u64()?,
        encode_patched_atoms: d.u64()?,
        sat_checks: d.u64()?,
        cache: CacheStats {
            sat_hits: d.u64()?,
            sat_evictions: d.u64()?,
            transition_hits: d.u64()?,
            transition_misses: d.u64()?,
            transition_evictions: d.u64()?,
            letter_index_len: 0,
        },
        replay_steps: d.u64()?,
        ..EngineStats::default()
    };
    s.ground_time = duration_decode(d)?;
    s.progress_time = duration_decode(d)?;
    s.sat_time = duration_decode(d)?;
    s.automaton_appends = d.u64()?;
    s.automaton_steps = d.u64()?;
    s.history.truncations = d.u64()?;
    s.history.page_loads = d.u64()?;
    s.history.reclaimed_bytes = d.u64()?;
    Ok(s)
}

fn canon_node_encode(e: &mut Enc, n: CanonNode) {
    let (tag, a, b) = match n {
        CanonNode::True => (0u8, 0, 0),
        CanonNode::False => (1, 0, 0),
        CanonNode::Atom(a) => (2, a, 0),
        CanonNode::Not(g) => (3, g, 0),
        CanonNode::And(a, b) => (4, a, b),
        CanonNode::Or(a, b) => (5, a, b),
        CanonNode::Next(g) => (6, g, 0),
        CanonNode::Until(a, b) => (7, a, b),
        CanonNode::Release(a, b) => (8, a, b),
    };
    e.u8(tag);
    match tag {
        0 | 1 => {}
        2 | 3 | 6 => e.u32(a),
        _ => {
            e.u32(a);
            e.u32(b);
        }
    }
}

fn canon_node_decode(d: &mut Dec<'_>) -> Result<CanonNode, Error> {
    Ok(match d.u8()? {
        0 => CanonNode::True,
        1 => CanonNode::False,
        2 => CanonNode::Atom(d.u32()?),
        3 => CanonNode::Not(d.u32()?),
        4 => CanonNode::And(d.u32()?, d.u32()?),
        5 => CanonNode::Or(d.u32()?, d.u32()?),
        6 => CanonNode::Next(d.u32()?),
        7 => CanonNode::Until(d.u32()?, d.u32()?),
        8 => CanonNode::Release(d.u32()?, d.u32()?),
        n => return Err(corrupt(&format!("unknown canonical-node tag {n}"))),
    })
}

/// Encodes a canonical-node table: its length, then its nodes.
fn canon_table_encode(e: &mut Enc, nodes: &[CanonNode]) {
    e.usize(nodes.len());
    for &n in nodes {
        canon_node_encode(e, n);
    }
}

/// Decodes a length-prefixed list, one `item` per entry. Every entry
/// takes at least one byte, so a length past the bytes left is corrupt:
/// it fails before driving a long decode loop or a large allocation.
fn list<'a, T>(
    d: &mut Dec<'a>,
    mut item: impl FnMut(&mut Dec<'a>) -> Result<T, Error>,
) -> Result<Vec<T>, Error> {
    let n = d.usize()?;
    if n > d.remaining() {
        return Err(corrupt("length exceeds the remaining input"));
    }
    (0..n).map(|_| item(d)).collect()
}

/// A decoded template: its key, residue table, and state roots.
type RawTemplate = (TemplateKey, Vec<CanonNode>, Vec<u32>);

/// The compiled section of one entry: per template its canonical key
/// and its discovered states ([`SafetyAutomaton::residues`]: the
/// states' residues as one canonical-node table, then each state's
/// residue index in discovery order), and per unit its template,
/// current state, and support letters. Edges are not persisted (a
/// restore rediscovers them); columns and the active set are derived
/// from the trace. Decoded bytes are validated only once the grounding
/// is restored ([`restore_compiled`]).
struct RawCompiled {
    templates: Vec<RawTemplate>,
    units: Vec<(u32, u32, Vec<AtomId>)>,
}

impl RawCompiled {
    fn of(set: &CompiledSet) -> Self {
        let templates = set
            .templates
            .iter()
            .map(|t| {
                let (nodes, roots) = t.residues();
                (t.key().clone(), nodes, roots)
            })
            .collect();
        let units = set
            .units
            .iter()
            .map(|u| (u.tmpl, u.state, set.support(u).to_vec()))
            .collect();
        RawCompiled { templates, units }
    }

    fn encode(&self, e: &mut Enc) {
        e.usize(self.templates.len());
        for (key, nodes, roots) in &self.templates {
            e.u32(key.arity);
            e.u32(key.internal);
            e.u32(key.root);
            canon_table_encode(e, &key.nodes);
            canon_table_encode(e, nodes);
            e.usize(roots.len());
            for &r in roots {
                e.u32(r);
            }
        }
        e.usize(self.units.len());
        for (tmpl, state, support) in &self.units {
            e.u32(*tmpl);
            e.u32(*state);
            e.usize(support.len());
            for a in support {
                e.u32(a.0);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, Error> {
        // Table structure is validated by whoever interns it.
        let templates = list(d, |d| {
            let (arity, internal, root) = (d.u32()?, d.u32()?, d.u32()?);
            let nodes = list(d, canon_node_decode)?;
            let key = TemplateKey {
                nodes,
                root,
                arity,
                internal,
            };
            Ok((key, list(d, canon_node_decode)?, list(d, |d| Ok(d.u32()?))?))
        })?;
        let units = list(d, |d| {
            let (tmpl, state) = (d.u32()?, d.u32()?);
            let support = list(d, |d| Ok(AtomId(d.u32()?)))?;
            if support.len() > MAX_ARITY as usize {
                return Err(corrupt("unit support too wide"));
            }
            Ok((tmpl, state, support))
        })?;
        Ok(RawCompiled { templates, units })
    }
}

/// Restores the persisted templates — each re-interns its residue
/// table and relabels its states ([`SafetyAutomaton::restore`]), so
/// unit state ids survive bit-identically — and reattaches the units
/// to the restored grounding.
fn restore_compiled(raw: RawCompiled, g: &Grounding) -> Result<CompiledSet, Error> {
    let mut templates = Vec::with_capacity(raw.templates.len());
    for (key, nodes, roots) in raw.templates {
        let auto = SafetyAutomaton::restore(&key, &nodes, &roots)
            .map_err(|m| corrupt(&format!("template: {m}")))?;
        templates.push(auto);
    }
    CompiledSet::from_restored(templates, raw.units, g.arena.atom_count(), g.trace.last())
        .map_err(|m| corrupt(&format!("compiled section: {m}")))
}

fn garg_encode(e: &mut Enc, g: GArg) {
    match g {
        GArg::Rel(v) => {
            e.u8(0);
            e.u64(v);
        }
        GArg::Fresh(i) => {
            e.u8(1);
            e.usize(i);
        }
        GArg::Const(c) => {
            e.u8(2);
            e.u32(c.0);
        }
    }
}

fn garg_decode(d: &mut Dec<'_>) -> Result<GArg, Error> {
    Ok(match d.u8()? {
        0 => GArg::Rel(d.u64()?),
        1 => GArg::Fresh(d.usize()?),
        2 => GArg::Const(ConstId(d.u32()?)),
        n => return Err(corrupt(&format!("unknown ground-argument tag {n}"))),
    })
}

fn letter_key_encode(e: &mut Enc, k: &LetterKey) {
    match k {
        LetterKey::Pred(p, args) => {
            e.u8(0);
            e.u32(p.0);
            e.usize(args.len());
            for &a in args {
                garg_encode(e, a);
            }
        }
        LetterKey::Eq(a, b) => {
            e.u8(1);
            garg_encode(e, *a);
            garg_encode(e, *b);
        }
        LetterKey::Past(n) => {
            e.u8(2);
            e.u32(*n);
        }
    }
}

fn letter_key_decode(d: &mut Dec<'_>) -> Result<LetterKey, Error> {
    Ok(match d.u8()? {
        0 => {
            let p = PredId(d.u32()?);
            LetterKey::Pred(p, list(d, garg_decode)?)
        }
        1 => LetterKey::Eq(garg_decode(d)?, garg_decode(d)?),
        2 => LetterKey::Past(d.u32()?),
        n => return Err(corrupt(&format!("unknown letter-key tag {n}"))),
    })
}

fn node_encode(e: &mut Enc, n: Node) {
    let (tag, a, b) = match n {
        Node::True => (0u8, 0, 0),
        Node::False => (1, 0, 0),
        Node::Atom(a) => (2, a.0, 0),
        Node::Not(a) => (3, a.0, 0),
        Node::And(a, b) => (4, a.0, b.0),
        Node::Or(a, b) => (5, a.0, b.0),
        Node::Next(a) => (6, a.0, 0),
        Node::Until(a, b) => (7, a.0, b.0),
        Node::Release(a, b) => (8, a.0, b.0),
        Node::Prev(a) => (9, a.0, 0),
        Node::Since(a, b) => (10, a.0, b.0),
    };
    e.u8(tag);
    match tag {
        0 | 1 => {}
        2 | 3 | 6 | 9 => e.u32(a),
        _ => {
            e.u32(a);
            e.u32(b);
        }
    }
}

fn node_decode(d: &mut Dec<'_>) -> Result<Node, Error> {
    let tag = d.u8()?;
    let unary = |d: &mut Dec<'_>| -> Result<FormulaId, StoreError> { Ok(FormulaId(d.u32()?)) };
    Ok(match tag {
        0 => Node::True,
        1 => Node::False,
        2 => Node::Atom(AtomId(d.u32()?)),
        3 => Node::Not(unary(d)?),
        4 => Node::And(unary(d)?, unary(d)?),
        5 => Node::Or(unary(d)?, unary(d)?),
        6 => Node::Next(unary(d)?),
        7 => Node::Until(unary(d)?, unary(d)?),
        8 => Node::Release(unary(d)?, unary(d)?),
        9 => Node::Prev(unary(d)?),
        10 => Node::Since(unary(d)?, unary(d)?),
        n => return Err(corrupt(&format!("unknown arena-node tag {n}"))),
    })
}

fn dump_encode(e: &mut Enc, d: &GroundingDump) {
    // Ground-mode tag: always folded.
    e.u8(FIXED_TAG);
    e.usize(d.consts.len());
    for &v in &d.consts {
        e.u64(v);
    }
    e.usize(d.letters.len());
    for (key, atom) in &d.letters {
        letter_key_encode(e, key);
        e.u32(atom.0);
    }
    e.usize(d.external.len());
    for name in &d.external {
        e.str(name);
    }
    formula_encode(e, &d.matrix);
    e.usize(d.known.len());
    for &v in &d.known {
        e.u64(v);
    }
    e.usize(d.arena_nodes.len());
    for &n in &d.arena_nodes {
        node_encode(e, n);
    }
    e.usize(d.atom_names.len());
    for name in &d.atom_names {
        e.str(name);
    }
    e.u32(d.formula.0);
    // Like the history section: a distinct-state table plus per-instant
    // indices, because the propositional trace of a cyclic workload
    // revisits the same states over and over.
    let mut distinct: Vec<&PropState> = Vec::new();
    let mut index_of: std::collections::HashMap<&[u64], usize> = std::collections::HashMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(d.trace.len());
    for w in &d.trace {
        let idx = *index_of.entry(w.words()).or_insert_with(|| {
            distinct.push(w);
            distinct.len() - 1
        });
        indices.push(idx);
    }
    e.usize(distinct.len());
    for w in distinct {
        // Per-state hybrid: a sparse true-atom list when few letters
        // hold (typical small-residue states), raw bitset words when
        // dense — whichever is smaller on the wire.
        let n_true = w.count_true();
        if n_true * 2 <= w.words().len() * 8 {
            e.u8(0);
            e.usize(n_true);
            for a in w.true_atoms() {
                e.u32(a.0);
            }
        } else {
            e.u8(1);
            e.usize(w.words().len());
            for &word in w.words() {
                e.u64_fixed(word);
            }
        }
    }
    e.usize(indices.len());
    for idx in indices {
        e.usize(idx);
    }
    e.usize(d.m.len());
    for &g in &d.m {
        garg_encode(e, g);
    }
    for v in [
        d.stats.m_size,
        d.stats.external_vars,
        d.stats.mappings,
        d.stats.letters,
        d.stats.axiom_conjuncts,
        d.stats.formula_tree_size,
        d.stats.formula_dag_size,
        d.stats.inst_enumerated,
        d.stats.inst_pruned,
        d.stats.inst_shared,
    ] {
        e.usize(v);
    }
    e.u8(u8::from(d.indexed));
    e.usize(d.occ.len());
    for (p, tuples) in &d.occ {
        e.u32(p.0);
        e.usize(tuples.len());
        for tuple in tuples {
            for &v in tuple {
                e.u64(v);
            }
        }
    }
}

fn dump_decode(d: &mut Dec<'_>, schema: &ticc_tdb::Schema) -> Result<GroundingDump, Error> {
    fixed_tag(d, "ground-mode")?;
    let consts = list(d, |d| Ok(d.u64()?))?;
    let letters = list(d, |d| Ok((letter_key_decode(d)?, AtomId(d.u32()?))))?;
    let external = list(d, |d| Ok(d.str()?.to_owned()))?;
    let matrix = formula_decode(d, schema)?;
    let known = list(d, |d| Ok(d.u64()?))?;
    let arena_nodes = list(d, node_decode)?;
    let atom_names = list(d, |d| Ok(d.str()?.to_owned()))?;
    let formula = FormulaId(d.u32()?);
    // 2^20 letters per trace state is far beyond any real grounding;
    // the caps keep a corrupt length from pre-allocating gigabytes.
    const MAX_TRACE_ATOMS: usize = 1 << 20;
    const MAX_TRACE_WORDS: usize = MAX_TRACE_ATOMS / 64;
    let distinct = list(d, |d| match d.u8()? {
        0 => {
            let k = d.usize()?;
            if k > MAX_TRACE_ATOMS {
                return Err(corrupt(&format!("trace state with {k} true atoms")));
            }
            let mut s = PropState::new();
            for _ in 0..k {
                s.set(AtomId(d.u32()?), true);
            }
            Ok(s)
        }
        1 => {
            let k = d.usize()?;
            if k > MAX_TRACE_WORDS {
                return Err(corrupt(&format!("trace state of {k} words")));
            }
            let words = (0..k).map(|_| d.u64_fixed()).collect::<Result<_, _>>()?;
            Ok(PropState::from_words(words))
        }
        t => Err(corrupt(&format!("unknown trace state tag {t}"))),
    })?;
    let trace = list(d, |d| {
        let idx = d.usize()?;
        let s = distinct.get(idx);
        s.cloned()
            .ok_or_else(|| corrupt("trace state index out of range"))
    })?;
    let m = list(d, garg_decode)?;
    let stats = GroundStats {
        m_size: d.usize()?,
        external_vars: d.usize()?,
        mappings: d.usize()?,
        letters: d.usize()?,
        axiom_conjuncts: d.usize()?,
        formula_tree_size: d.usize()?,
        formula_dag_size: d.usize()?,
        inst_enumerated: d.usize()?,
        inst_pruned: d.usize()?,
        inst_shared: d.usize()?,
    };
    let indexed = match d.u8()? {
        0 => false,
        1 => true,
        n => return Err(corrupt(&format!("unknown indexed tag {n}"))),
    };
    let n = d.usize()?;
    let mut occ = Vec::new();
    for _ in 0..n {
        let p = PredId(d.u32()?);
        if p.index() >= schema.pred_count() {
            return Err(corrupt("occurrence-index predicate out of range"));
        }
        let arity = schema.arity(p);
        let k = d.usize()?;
        let mut tuples = Vec::new();
        for _ in 0..k {
            let mut tuple = Vec::with_capacity(arity);
            for _ in 0..arity {
                tuple.push(d.u64()?);
            }
            tuples.push(tuple);
        }
        occ.push((p, tuples));
    }
    Ok(GroundingDump {
        consts,
        letters,
        external,
        matrix,
        known,
        arena_nodes,
        atom_names,
        formula,
        trace,
        m,
        stats,
        indexed,
        occ,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ticc_fotl::parser::parse;
    use ticc_fotl::Term;
    use ticc_tdb::{Schema, Transaction};

    fn order_schema() -> Arc<ticc_tdb::Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    fn engine_with_appends() -> Engine {
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let fill = sc.pred("Fill").unwrap();
        let mut e = Engine::new(sc, CheckOptions::default());
        let phi = parse(e.history().schema(), "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        e.add_constraint("once", phi).unwrap();
        e.append(
            &Transaction::new()
                .insert(sub, vec![1])
                .insert(fill, vec![1]),
        )
        .unwrap();
        // Registered over a nonempty history, so its grounding and its
        // templates carry internal letters.
        let past = parse(e.history().schema(), "forall x. G (Fill(x) -> O Sub(x))").unwrap();
        e.add_constraint("audit", past).unwrap();
        e.append(&Transaction::new().delete(sub, vec![1]).insert(sub, vec![2]))
            .unwrap();
        e
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let engine = engine_with_appends();
        let bytes = snapshot_engine(&engine, b"app-blob");
        let (back, app) = restore_engine(&bytes, CheckOptions::default()).unwrap();
        assert_eq!(app, b"app-blob");
        assert_eq!(back.history().len(), engine.history().len());
        assert_eq!(back.history().states(), engine.history().states());
        for id in engine.constraints() {
            assert_eq!(back.status(id), engine.status(id));
            assert_eq!(back.name(id), engine.name(id));
            let (g0, g1) = (engine.context(id).grounding(), back.context(id).grounding());
            assert_eq!(engine.context(id).residue(), back.context(id).residue());
            assert_eq!(g0.formula, g1.formula);
            assert_eq!(g0.arena.dag_len(), g1.arena.dag_len());
            assert_eq!(g0.trace.len(), g1.trace.len());
            assert_eq!(g0.stats, g1.stats);
        }
        let s0 = engine.stats();
        let s1 = back.stats();
        assert_eq!(s0.appends, s1.appends);
        assert_eq!(s0.grounds, s1.grounds);
        assert_eq!(s0.letters, s1.letters);
        assert_eq!(s0.replay_steps, s1.replay_steps);
        assert_eq!(compiled_state(&engine), compiled_state(&back));
    }

    /// Per entry: each template's discovered state count, and each
    /// unit's template and state.
    #[allow(clippy::type_complexity)]
    fn compiled_state(e: &Engine) -> Vec<(Vec<usize>, Vec<(u32, u32)>)> {
        e.entries
            .iter()
            .map(|entry| {
                let set = entry.ctx.compiled.as_ref().expect("production is compiled");
                (
                    set.templates.iter().map(|t| t.state_count()).collect(),
                    set.units.iter().map(|u| (u.tmpl, u.state)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn restored_engine_continues_in_lockstep() {
        let engine = engine_with_appends();
        let bytes = snapshot_engine(&engine, &[]);
        let (mut back, _) = restore_engine(&bytes, CheckOptions::default()).unwrap();
        let mut fwd = engine_with_appends();
        let sc = fwd.history().schema().clone();
        let sub = sc.pred("Sub").unwrap();
        // Continue both: re-submit 1 → violation, same events both sides.
        let txs = [
            Transaction::new().delete(sub, vec![2]),
            Transaction::new().insert(sub, vec![1]),
        ];
        for tx in &txs {
            let a = fwd.append(tx).unwrap();
            let b = back.append(tx).unwrap();
            assert_eq!(a, b);
        }
        for id in fwd.constraints() {
            assert_eq!(fwd.status(id), back.status(id));
        }
        let once = fwd.constraints().next().unwrap();
        assert!(matches!(fwd.status(once), Status::Violated { .. }));
    }

    #[test]
    fn restore_respects_caller_options() {
        // Run options are the caller's: a production snapshot restored
        // under the reference pipeline rebuilds its symbolic residue at
        // restore and still lands the violation.
        let engine = engine_with_appends();
        assert!(engine.stats().templates_compiled >= 1);
        let bytes = snapshot_engine(&engine, &[]);
        let (mut back, _) = restore_engine(&bytes, CheckOptions::reference()).unwrap();
        assert_eq!(back.opts().pipeline, crate::extension::Pipeline::Reference);
        assert_eq!(back.stats().templates_compiled, 0, "{:?}", back.stats());
        let id = back.constraints().next().unwrap();
        let ctx = back.context(id);
        assert_ne!(ctx.grounding().arena.node(ctx.residue()), Node::True);
        let sub = back.history().schema().pred("Sub").unwrap();
        back.append(&Transaction::new().insert(sub, vec![2]))
            .unwrap();
        assert!(matches!(back.status(id), Status::Violated { .. }));
    }

    #[test]
    fn corrupt_snapshots_error_instead_of_panicking() {
        let engine = engine_with_appends();
        let bytes = snapshot_engine(&engine, b"x");
        // Wrong version: only v6 restores; v5 has no reader.
        let mut head = Enc::new();
        head.u32(SNAP_VERSION);
        let body = &bytes[head.into_bytes().len()..];
        for version in [2u32, 3, 4, 5, 7] {
            let mut e = Enc::new();
            e.u32(version);
            let mut v = e.into_bytes();
            v.extend_from_slice(body);
            match restore_engine(&v, CheckOptions::default()) {
                Err(Error::Store(m)) => assert!(
                    m.contains(&format!(
                        "unsupported snapshot version {version} (expected 6)"
                    )),
                    "{m}"
                ),
                other => panic!("v{version} payload restored: {:?}", other.map(|_| ())),
            }
        }
        // The notion and ground-mode tags are fixed at 0; a 1 in either
        // (an older writer's bad-prefix notion or full-mode grounding)
        // is corrupt.
        let mut prefix = Enc::new();
        prefix.u32(SNAP_VERSION);
        let history = engine.history();
        schema_encode(&mut prefix, history.schema());
        for c in history.schema().consts() {
            prefix.u64(history.const_value(c));
        }
        let notion_at = prefix.into_bytes().len();
        let id = engine.constraints().next().unwrap();
        let mut dump = Enc::new();
        dump_encode(&mut dump, &engine.context(id).grounding().dump());
        let dump = dump.into_bytes();
        let mode_at = find(&bytes, &dump);
        for (at, what) in [(notion_at, "notion"), (mode_at, "ground-mode")] {
            assert_eq!(bytes[at], 0, "{what} tag");
            let mut b = bytes.clone();
            b[at] = 1;
            match restore_engine(&b, CheckOptions::default()) {
                Err(Error::Store(m)) => {
                    assert!(m.contains(&format!("unsupported {what} tag 1")), "{m}")
                }
                other => panic!("{what} tag 1 restored: {:?}", other.map(|_| ())),
            }
        }
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(
                restore_engine(&bytes[..cut], CheckOptions::default()).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // Single-byte corruption must never panic (it may decode to an
        // equivalent payload when it hits the app blob, but id and
        // arity validation catches structural damage).
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x55;
            let _ = restore_engine(&b, CheckOptions::default());
        }
    }

    /// The offset of `needle` inside `bytes`.
    fn find(bytes: &[u8], needle: &[u8]) -> usize {
        bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("section inside the payload")
    }

    #[test]
    fn corrupt_template_sections_error_instead_of_panicking() {
        // A response constraint with a pending obligation: its template
        // has discovered several states and its unit sits past state 0.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let mut resp = Engine::new(sc.clone(), CheckOptions::default());
        let phi = parse(&sc, "forall x. G (Sub(x) -> X Fill(x))").unwrap();
        resp.add_constraint("resp", phi).unwrap();
        resp.append(&Transaction::new().insert(sub, vec![1]))
            .unwrap();
        let bytes = snapshot_engine(&resp, b"x");
        let set = resp.entries[0].ctx.compiled.as_ref().unwrap();
        let raw = RawCompiled::of(set);
        let mut sec = Enc::new();
        raw.encode(&mut sec);
        let sec = sec.into_bytes();
        let at = find(&bytes, &sec);
        let (_, nodes, roots) = &raw.templates[0];
        assert!(roots.len() >= 3, "{roots:?}");
        assert!(raw.units.iter().any(|u| u.1 > 0));
        // Truncation at every byte of the section errors; cutting bytes
        // out of it mid-payload never panics.
        for cut in at..at + sec.len() {
            assert!(restore_engine(&bytes[..cut], CheckOptions::default()).is_err());
            let spliced = [&bytes[..cut], &bytes[at + sec.len()..]].concat();
            let _ = restore_engine(&spliced, CheckOptions::default());
        }
        // Each structural corruption is refused with its own message.
        let corrupt_with = |edit: &dyn Fn(&mut RawCompiled), expect: &str| {
            let mut bad = RawCompiled::of(set);
            edit(&mut bad);
            let mut e = Enc::new();
            bad.encode(&mut e);
            let b = [&bytes[..at], &e.into_bytes(), &bytes[at + sec.len()..]].concat();
            match restore_engine(&b, CheckOptions::default()) {
                Err(Error::Store(m)) => assert!(m.contains(expect), "{expect}: {m}"),
                other => panic!("{expect}: restored {:?}", other.map(|_| ())),
            }
        };
        let n = nodes.len() as u32;
        corrupt_with(&|r| r.templates[0].2[1] = n, "residue index out of range");
        corrupt_with(
            &|r| r.templates[0].1.push(CanonNode::Not(n + 7)),
            "malformed residue table",
        );
        corrupt_with(
            &|r| {
                let dup = r.templates[0].2[1];
                r.templates[0].2.push(dup);
            },
            "duplicate residue",
        );
        corrupt_with(
            &|r| r.templates[0].2.swap(0, 1),
            "state 0 is not the key's root",
        );
        corrupt_with(
            &|r| r.units[0].1 = r.templates[0].2.len() as u32,
            "unit state out of range",
        );
        // Units may share letters with each other, but a unit whose own
        // support names one letter twice is corrupt.
        corrupt_with(
            &|r| {
                let u = r.units.iter_mut().find(|u| u.2.len() == 2).unwrap();
                u.2[1] = u.2[0];
            },
            "unit support repeats a letter",
        );
    }

    #[test]
    fn corrupt_internal_letter_fields_are_refused() {
        // A past constraint registered over a nonempty history: its
        // templates count internal letters and its grounding's letter
        // table holds `Past` keys.
        let engine = engine_with_appends();
        let bytes = snapshot_engine(&engine, b"x");
        let id = engine.constraints().nth(1).unwrap();
        let set = engine.entries[id.0].ctx.compiled.as_ref().unwrap();
        let raw = RawCompiled::of(set);
        let t = raw
            .templates
            .iter()
            .position(|(key, _, _)| key.internal > 0)
            .expect("a template with internal letters");
        let mut sec = Enc::new();
        raw.encode(&mut sec);
        let sec = sec.into_bytes();
        let at = find(&bytes, &sec);
        // Too few internal letters for the key's atoms, or more letters
        // than a word holds: the key is malformed.
        for internal in [0, MAX_ARITY] {
            let mut bad = RawCompiled::of(set);
            bad.templates[t].0.internal = internal;
            let mut e = Enc::new();
            bad.encode(&mut e);
            let b = [&bytes[..at], &e.into_bytes(), &bytes[at + sec.len()..]].concat();
            match restore_engine(&b, CheckOptions::default()) {
                Err(Error::Store(m)) => assert!(m.contains("malformed template key"), "{m}"),
                other => panic!("internal {internal}: restored {:?}", other.map(|_| ())),
            }
        }
        // A `Past` letter key with an unknown tag, or naming an atom
        // past the arena, is corrupt.
        let dump = engine.context(id).grounding().dump();
        let (key, a) = dump
            .letters
            .iter()
            .find(|(k, _)| matches!(k, LetterKey::Past(_)))
            .cloned()
            .expect("a past letter in the grounding");
        let mut entry = Enc::new();
        letter_key_encode(&mut entry, &key);
        entry.u32(a.0);
        let entry = entry.into_bytes();
        let mut d = Enc::new();
        dump_encode(&mut d, &dump);
        let d = d.into_bytes();
        let at = find(&bytes, &d) + find(&d, &entry);
        let mut b = bytes.clone();
        b[at] = 7;
        match restore_engine(&b, CheckOptions::default()) {
            Err(Error::Store(m)) => assert!(m.contains("unknown letter-key tag 7"), "{m}"),
            other => panic!("tag 7 restored: {:?}", other.map(|_| ())),
        }
        let mut bad = engine.context(id).grounding().dump();
        let past = bad.letters.iter().position(|(k, _)| *k == key).unwrap();
        bad.letters[past].1 = AtomId(1 << 20);
        let mut e = Enc::new();
        dump_encode(&mut e, &bad);
        let at = find(&bytes, &d);
        let b = [&bytes[..at], &e.into_bytes(), &bytes[at + d.len()..]].concat();
        match restore_engine(&b, CheckOptions::default()) {
            Err(Error::Store(m)) => assert!(m.contains("letter id out of range"), "{m}"),
            other => panic!("letter id restored: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn repeated_states_are_stored_once() {
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let flip = Transaction::new().insert(sub, vec![1]);
        let flop = Transaction::new().delete(sub, vec![1]);
        let run = |instants: usize| {
            let mut e = Engine::new(sc.clone(), CheckOptions::default());
            for i in 0..instants {
                e.append(if i % 2 == 0 { &flip } else { &flop }).unwrap();
            }
            snapshot_engine(&e, &[])
        };
        let short = run(20);
        let long = run(200);
        // The extra 180 instants repeat the same two states, so they
        // only cost one table index each on the wire.
        assert!(
            long.len() < short.len() + 2 * 180,
            "{} bytes for t=200 vs {} for t=20",
            long.len(),
            short.len()
        );
        let (back, _) = restore_engine(&long, CheckOptions::default()).unwrap();
        assert_eq!(back.history().len(), 200);
        assert!(back.history().state(198).holds(sub, &[1]));
        assert!(!back.history().state(199).holds(sub, &[1]));
    }

    #[test]
    fn compiled_state_survives_the_round_trip() {
        let engine = engine_with_appends();
        let s0 = engine.stats();
        assert!(
            s0.templates_compiled >= 1 && s0.automaton_appends >= 1,
            "precondition: the writer runs compiled: {s0:?}"
        );
        let bytes = snapshot_engine(&engine, &[]);
        let (back, _) = restore_engine(&bytes, CheckOptions::default()).unwrap();
        let s1 = back.stats();
        // The restored engine resumes u32-state stepping, not the
        // symbolic residue: the same templates with the same discovered
        // states, the same units at the same state ids, and the
        // lifetime counters carried over.
        assert_eq!(s0.templates_compiled, s1.templates_compiled);
        assert_eq!(s0.automaton_states, s1.automaton_states);
        assert_eq!(s0.automaton_insts, s1.automaton_insts);
        assert_eq!(s0.automaton_appends, s1.automaton_appends);
        assert_eq!(s0.automaton_steps, s1.automaton_steps);
        assert_eq!(compiled_state(&engine), compiled_state(&back));
    }

    #[test]
    fn symbolic_entries_stay_symbolic() {
        // A reference-pipeline snapshot holds symbolic residues: the
        // reference restores them as they were and continues in
        // lockstep with the writer. Production steps template automata
        // only and refuses them.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::reference());
        let phi = parse(e.history().schema(), "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let id = e.add_constraint("once", phi).unwrap();
        e.append(&Transaction::new().insert(sub, vec![1])).unwrap();
        e.append(&Transaction::new().delete(sub, vec![1])).unwrap();
        let bytes = snapshot_engine(&e, &[]);
        let (mut sym, _) = restore_engine(&bytes, CheckOptions::reference()).unwrap();
        assert_eq!(sym.stats().templates_compiled, 0, "{:?}", sym.stats());
        assert_eq!(sym.context(id).residue(), e.context(id).residue());
        for tx in [Transaction::new(), Transaction::new().insert(sub, vec![1])] {
            assert_eq!(sym.append(&tx).unwrap(), e.append(&tx).unwrap());
        }
        assert!(matches!(sym.status(id), Status::Violated { .. }));
        let err = restore_engine(&bytes, CheckOptions::default()).map(|_| ());
        assert!(
            matches!(&err, Err(Error::Store(m)) if m.contains("reference")),
            "{err:?}"
        );
    }

    #[test]
    fn templates_past_any_fixed_node_bound_round_trip() {
        // `forall x. G (!P0(x) | ⋁ᵢ (P0(x) U ⋁ⱼ (Pi(x) U Pj(x))))` over 63
        // letters: one unit per element whose key has thousands of
        // nodes, past any small fixed bound a reader might set. The
        // writer bounds nothing but the letters, so the reader bounds
        // lengths by the bytes left and restores it. (The outer `U`
        // keeps each disjunction chain short: arena walks recurse along
        // them, and `simplify` would merge `○`- or `◇`-disjuncts.)
        let sc = (0..63)
            .fold(Schema::builder(), |b, i| b.pred(&format!("P{i}"), 1))
            .build();
        let p = |i: usize| {
            ticc_fotl::Formula::pred(sc.pred(&format!("P{i}")).unwrap(), vec![Term::var("x")])
        };
        let any = |fs: Vec<ticc_fotl::Formula>| fs.into_iter().reduce(|a, b| a.or(b)).unwrap();
        let groups = (1..63)
            .map(|i| {
                let untils = (1..63).filter(|&j| j != i).map(|j| p(i).until(p(j)));
                p(0).until(any(untils.collect()))
            })
            .collect();
        let body = p(0).not().or(any(groups)).always();
        let phi = ticc_fotl::Formula::forall("x", body);
        let p1 = sc.pred("P1").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        let id = e.add_constraint("wide", phi).unwrap();
        e.append(&Transaction::new().insert(p1, vec![7])).unwrap();
        e.append(&Transaction::new()).unwrap();
        let set = e.context(id).compiled.as_ref().unwrap();
        assert!(
            set.templates.iter().any(|t| t.key().nodes.len() > 1 << 12),
            "precondition: a key past 2^12 nodes"
        );
        let bytes = snapshot_engine(&e, &[]);
        let (mut back, _) = restore_engine(&bytes, CheckOptions::default()).unwrap();
        assert_eq!(compiled_state(&back), compiled_state(&e));
        let tables = |e: &Engine| {
            let set = e.context(id).compiled.as_ref().unwrap();
            set.templates
                .iter()
                .map(|t| t.residues())
                .collect::<Vec<_>>()
        };
        assert_eq!(tables(&back), tables(&e));
        for tx in [
            Transaction::new().insert(p1, vec![7]),
            Transaction::new().insert(p1, vec![8]),
            Transaction::new().delete(p1, vec![7]),
        ] {
            assert_eq!(back.append(&tx).unwrap(), e.append(&tx).unwrap());
            assert_eq!(back.status(id), e.status(id));
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let engine = engine_with_appends();
        let mut bytes = snapshot_engine(&engine, &[]);
        bytes.push(0);
        assert!(restore_engine(&bytes, CheckOptions::default()).is_err());
    }
}
