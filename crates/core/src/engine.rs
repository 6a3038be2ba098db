//! The persistent incremental engine — the online integrity monitor.
//!
//! One layer owns what the online monitor, the trigger engine, and the
//! one-shot extension checker previously each re-derived for
//! themselves: groundings (Theorem 4.1), progressed residues
//! (Lemma 4.2 phase 1), satisfiability memoisation (phase 2), and the
//! observability counters ([`EngineStats`]).
//!
//! Every production append takes one route per live constraint
//! (`GroundingContext::step`): grow, encode, bind, step, decide.
//! The grounding depends on the history only through `R_D` and the
//! occurrence index, and `Ψ_D` only grows with them: a new relevant
//! element, or a first-occurring tuple, adds the instantiations it
//! makes data-supported. The old instantiations' letters mention only
//! old elements, so their units stay valid (old trace states assign
//! `false` to every letter mentioning a new element, exactly what
//! re-encoding them would produce). The new ones are not grounded:
//! each binds from a seed unit (`core::seed`) — the instantiation
//! with the new element a placeholder, whose letters were false all
//! along just as the new element's were — by copying the seed's states
//! and renaming its letters, then steps with every other unit. Seeds
//! move only when their context grows, so a growth costs the new
//! instantiations plus the seeds' catch-up over the instants since the
//! previous growth, not a replay of the whole prefix per instantiation.
//! Progression distributes over conjunction, which makes this equal to
//! progressing the grown `Ψ_D` from the start; the 120-seed suites
//! check the route against the reference pipeline's full rebuilds.
//!
//! Production has one stepping mechanism: lazily built template
//! automata ([`SafetyAutomaton`]). Each `∧`-part of `Ψ_D` at
//! registration binds as a unit whose template runs over the stored
//! prefix's columns, one edge-memo lookup per instant (Lemma 4.2: an
//! instance's state after a prefix is a function of that prefix
//! alone); seed units run the same templates, and every append steps
//! the units the same way. A template discovers its states only as
//! runs reach them, so no constraint is too large to step this way;
//! the one static limit is a 64-letter column, which
//! [`Engine::add_constraint`] checks against the matrix. Symbolic
//! progression of a grounding's residue is left to the reference
//! pipeline and the one-shot `check_once`.
//!
//! The engine always grounds with the folded construction
//! ([`GroundMode::Folded`]) and decides phase 2 with the Büchi solver.
//! The paper-literal [`GroundMode::Full`] construction and the other
//! solvers stay reachable through [`crate::ground::ground`] and
//! [`ticc_ptl::sat::extends_with`], where the equivalence tests and
//! experiments use them as oracles.

use crate::error::Error;
use crate::extension::{CheckOptions, HistoryBudget, Pipeline};
use crate::fact::{FactTable, Net, NetFact};
use crate::ground::{ground_with, GroundMode, Grounding};
use crate::obs::{CacheStats, EngineStats, Timer};
use crate::seed::Seeds;
use crate::spill::HistoryPager;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use ticc_fotl::Formula;
use ticc_ptl::arena::{AtomId, FormulaId};
use ticc_ptl::automaton::{self, SafetyAutomaton, TemplateKey};
use ticc_ptl::progression::{progress, progress_trace};
use ticc_ptl::sat::{extends, is_satisfiable, SatError, SatResult};
use ticc_ptl::simplify::simplify;
use ticc_ptl::trace::PropState;
use ticc_tdb::{History, Schema, State, Transaction};

/// Why a production constraint is refused: a unit's letters, its
/// support and its internal letters, share one `u64` word, and the
/// matrix's atoms and past subformulas bound them.
const TOO_WIDE: &str = "a production constraint's matrix may mention at most 64 distinct atoms \
     and past subformulas";

/// Handle to a registered constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub usize);

/// Status of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Every prefix so far has an extension satisfying the constraint.
    Satisfied,
    /// No extension exists; `at` is the history length at which the
    /// violation became unavoidable (the violating state has index
    /// `at - 1`; `at == 0` means the constraint is unsatisfiable
    /// outright).
    Violated {
        /// History length at detection.
        at: usize,
    },
}

/// A violation notice produced by [`Engine::append`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Which constraint.
    pub constraint: ConstraintId,
    /// Its registered name.
    pub name: String,
    /// History length at which the violation became unavoidable.
    pub at: usize,
}

/// Size bound of the per-context satisfiability memo. Reaching it
/// drops the whole table (epoch eviction) — deterministic regardless
/// of hash iteration order, which a pick-a-victim policy would not be.
const SAT_CACHE_CAP: usize = 1 << 16;

/// One conjunct of a compiled residue bound to a template automaton:
/// which template, the current `u32` state, the cached column (the
/// valuation of the unit's support letters in the latest trace state)
/// and the state's successor under it, and where the unit's support
/// letters sit in [`CompiledSet`]'s pool — support letter `i`
/// instantiates the template's canonical atom `i`.
pub(crate) struct Unit {
    pub(crate) tmpl: u32,
    pub(crate) state: u32,
    /// The successor of `state` under `col`, read from the template's
    /// edge memo whenever either changes, so a step needs no lookup.
    next: u32,
    col: u64,
    /// Offset and length of the support in `CompiledSet::supports`.
    at: u32,
    len: u8,
    /// Some support letter also belongs to another unit, so this
    /// unit's verdict does not compose on its own (see [`CompiledSet`]).
    shared: bool,
}

/// One entry of the letter → units multimap: a unit holding the
/// letter, the letter's bit position in that unit's column, and the
/// next entry for the same letter ([`NO_OWNER`] ends the chain).
#[derive(Clone, Copy)]
struct Owner {
    unit: u32,
    bit: u8,
    next: u32,
}

const NO_OWNER: u32 = u32::MAX;

/// `CompiledSet::active_at` of a unit outside the active set.
const DORMANT: u32 = u32::MAX;

/// Whether a unit at `state` keeps the verdict open: satisfiable, but
/// not by `∅^ω`.
fn is_open(auto: &SafetyAutomaton, state: u32) -> bool {
    auto.sat(state) && !auto.holds_on_empty(state)
}

/// The successor of `state` under `col`: the template's edge memo,
/// discovering the edge on a miss. Every lookup counts as a transition
/// hit or miss, every evicted edge as a transition eviction.
pub(crate) fn edge(
    auto: &mut SafetyAutomaton,
    state: u32,
    col: u64,
    cache: &mut CacheStats,
) -> u32 {
    if let Some(next) = auto.lookup(state, col) {
        cache.transition_hits += 1;
        return next;
    }
    cache.transition_misses += 1;
    let (next, evicted) = auto.discover(state, col);
    cache.transition_evictions += evicted as u64;
    next
}

/// The compiled-automaton runtime of one production grounding context:
/// the residue, split into its `∧`-parts, each stepping through a
/// template [`SafetyAutomaton`] shared by every isomorphic part. It
/// replaces the symbolic residue entirely (the context's `residue` is
/// held at `⊤`); [`CompiledSet::rebuild`] reconstructs the symbolic
/// residue when the reference pipeline restores a production snapshot.
///
/// Units may share letters: progression distributes over `∧`, so each
/// unit steps exactly on its own. The phase-2 verdict is read off two
/// counters in the common case. If a unit is unsatisfiable
/// (`n_unsat > 0`) so is the residue. If no *shared* unit is open
/// (`n_open == 0`: every shared unit holds on `∅^ω`), the residue is
/// satisfiable — the units over unshared letters combine pointwise
/// with any model of the rest, and `∅^ω` satisfies every shared unit
/// at once. Otherwise the engine reconstructs the shared units and
/// runs one joint phase-2 test, memoised like a symbolic residue's.
#[derive(Default)]
pub(crate) struct CompiledSet {
    pub(crate) templates: Vec<SafetyAutomaton>,
    /// Canonical key → index into `templates` (the hash-consing that
    /// makes isomorphic instantiations share one machine).
    keys: HashMap<TemplateKey, u32>,
    pub(crate) units: Vec<Unit>,
    /// Every unit's support letters, pooled in one allocation.
    supports: Vec<AtomId>,
    /// Letter (indexed by `AtomId`) → its latest entry in `owners`, the
    /// head of the chain of units whose support holds it, or
    /// [`NO_OWNER`]. Chains in one vector keep the multimap to one
    /// allocation however many units share a letter.
    atom_index: Vec<u32>,
    owners: Vec<Owner>,
    /// Units whose transition under their current column is *not* a
    /// self-loop, in no particular order (units step independently).
    /// Everything else is dormant: stepping it is the identity, so the
    /// append loop touches only this set — `O(|Δtx|)` in steady state.
    active: Vec<u32>,
    /// Per unit, its index in `active`, or [`DORMANT`].
    active_at: Vec<u32>,
    /// Units whose current state is unsatisfiable.
    pub(crate) n_unsat: usize,
    /// Shared units whose current state is open ([`is_open`]).
    n_open: usize,
    /// Reused by [`CompiledSet::step_active`] to walk the active set.
    step_buf: Vec<u32>,
}

/// The column of `w` restricted to `support` (bit `i` = letter
/// `support[i]`).
pub(crate) fn col_of(w: Option<&PropState>, support: &[AtomId]) -> u64 {
    let Some(w) = w else { return 0 };
    let mut col = 0u64;
    for (i, &a) in support.iter().enumerate() {
        if w.get(a) {
            col |= 1 << i;
        }
    }
    col
}

impl CompiledSet {
    /// The concrete support letters of `unit`, in canonical-atom order.
    pub(crate) fn support(&self, unit: &Unit) -> &[AtomId] {
        &self.supports[unit.at as usize..][..unit.len as usize]
    }

    /// The index of `key`'s template, built on first sight. A key wider
    /// than [`automaton::MAX_ARITY`] letters is refused, which
    /// [`Engine::add_constraint`]'s matrix check rules out up front.
    pub(crate) fn template(&mut self, key: &TemplateKey) -> Result<u32, Error> {
        if let Some(&i) = self.keys.get(key) {
            return Ok(i);
        }
        let auto = SafetyAutomaton::new(key).ok_or(Error::UnsupportedShape(TOO_WIDE))?;
        let i = self.templates.len() as u32;
        self.templates.push(auto);
        self.keys.insert(key.clone(), i);
        Ok(i)
    }

    /// Refreshes one unit's successor and its membership in the active
    /// set after its column (or state) changed.
    fn refresh_active(&mut self, u: u32, cache: &mut CacheStats) {
        let unit = &mut self.units[u as usize];
        unit.next = edge(
            &mut self.templates[unit.tmpl as usize],
            unit.state,
            unit.col,
            cache,
        );
        let live = unit.next != unit.state;
        let at = self.active_at[u as usize];
        if live && at == DORMANT {
            self.active_at[u as usize] = self.active.len() as u32;
            self.active.push(u);
        } else if !live && at != DORMANT {
            self.active.swap_remove(at as usize);
            if let Some(&moved) = self.active.get(at as usize) {
                self.active_at[moved as usize] = at;
            }
            self.active_at[u as usize] = DORMANT;
        }
    }

    /// Updates the columns of the units owning any of `patched` from
    /// the new valuation `w` (letters outside every unit — e.g. fresh
    /// letters of a just-delta-ground block — are ignored).
    fn patch_cols(&mut self, patched: &[AtomId], w: &PropState, cache: &mut CacheStats) {
        for &a in patched {
            let mut at = self.atom_index.get(a.index()).copied().unwrap_or(NO_OWNER);
            let on = w.get(a);
            while at != NO_OWNER {
                let Owner { unit: u, bit, next } = self.owners[at as usize];
                let unit = &mut self.units[u as usize];
                if on {
                    unit.col |= 1 << bit;
                } else {
                    unit.col &= !(1 << bit);
                }
                self.refresh_active(u, cache);
                at = next;
            }
        }
    }

    /// Advances every active unit one letter to its cached successor:
    /// no progression, no phase 2. Units whose new state self-loops
    /// under the (already updated) column go dormant.
    fn step_active(&mut self, stats: &mut EngineStats) {
        let mut active = std::mem::take(&mut self.step_buf);
        active.clear();
        active.extend_from_slice(&self.active);
        for &u in &active {
            let unit = &mut self.units[u as usize];
            let auto = &self.templates[unit.tmpl as usize];
            let next = unit.next;
            if next != unit.state {
                stats.automaton_steps += 1;
                match (auto.sat(unit.state), auto.sat(next)) {
                    (true, false) => self.n_unsat += 1,
                    (false, true) => self.n_unsat -= 1,
                    _ => {}
                }
                if unit.shared {
                    match (is_open(auto, unit.state), is_open(auto, next)) {
                        (false, true) => self.n_open += 1,
                        (true, false) => self.n_open -= 1,
                        _ => {}
                    }
                }
                unit.state = next;
            }
            self.refresh_active(u, &mut stats.cache);
        }
        self.step_buf = active;
    }

    /// Marks unit `u` as sharing a letter with another unit.
    fn mark_shared(&mut self, u: u32) {
        let unit = &mut self.units[u as usize];
        if !unit.shared {
            unit.shared = true;
            if is_open(&self.templates[unit.tmpl as usize], unit.state) {
                self.n_open += 1;
            }
        }
    }

    /// Appends a unit of template `tmpl` (already in `templates`) at
    /// `state` over `support`, indexing its letters and marking it and
    /// every unit it overlaps as shared. Its column is taken from
    /// `last`.
    pub(crate) fn push_unit(
        &mut self,
        tmpl: u32,
        state: u32,
        support: &[AtomId],
        last: Option<&PropState>,
        cache: &mut CacheStats,
    ) {
        let u = self.units.len() as u32;
        if !self.templates[tmpl as usize].sat(state) {
            self.n_unsat += 1;
        }
        self.units.push(Unit {
            tmpl,
            state,
            next: state,
            col: col_of(last, support),
            at: self.supports.len() as u32,
            len: support.len() as u8,
            shared: false,
        });
        self.supports.extend_from_slice(support);
        self.active_at.push(DORMANT);
        for (bit, &a) in support.iter().enumerate() {
            let entry = self.owners.len() as u32;
            if a.index() >= self.atom_index.len() {
                self.atom_index.resize(a.index() + 1, NO_OWNER);
            }
            let next = std::mem::replace(&mut self.atom_index[a.index()], entry);
            self.owners.push(Owner {
                unit: u,
                bit: bit as u8,
                next,
            });
            if next != NO_OWNER {
                self.mark_shared(u);
                // The previous head is the letter's only other owner,
                // or shares it with an earlier one and is marked.
                self.mark_shared(self.owners[next as usize].unit);
            }
        }
        self.refresh_active(u, cache);
    }

    /// The conjunction of the current residues of the units `pick`
    /// selects, rebuilt in the grounding's arena and simplified. The
    /// units' internal letters become the grounding's `Past(0)`,
    /// `Past(1)`, …, numbered across the picked units, so no two units
    /// share one.
    pub(crate) fn rebuild(&self, g: &mut Grounding, pick: impl Fn(&Unit) -> bool) -> FormulaId {
        let mut parts = Vec::new();
        let mut letters = Vec::new();
        let mut past = 0;
        for unit in self.units.iter().filter(|u| pick(u)) {
            let auto = &self.templates[unit.tmpl as usize];
            letters.clear();
            letters.extend_from_slice(self.support(unit));
            for _ in 0..auto.internal_len() {
                letters.push(g.internal_letter(past));
                past += 1;
            }
            // Fresh memo per unit: the template arena is shared, but
            // each unit maps its canonical atoms to different letters.
            let mut memo = HashMap::new();
            parts.push(auto.reconstruct(&mut g.arena, unit.state, &letters, &mut memo));
        }
        let combined = g.arena.and_all(parts);
        simplify(&mut g.arena, combined)
    }

    /// Sum of discovered states over all templates (the
    /// `automaton_states` gauge).
    pub(crate) fn state_total(&self) -> u64 {
        self.templates.iter().map(|t| t.state_count() as u64).sum()
    }

    /// Reassembles a compiled set from persisted parts — the decode
    /// half of a snapshot's compiled section: the restored templates
    /// and, per unit, its template, state and support. Validates every
    /// id against the table it references (template indices, states,
    /// support arities, letters within `n_atoms`, no letter repeated
    /// within one unit's support) and rebuilds all derived state: the
    /// key map, the atom index, the shared flags, the unsat and open
    /// counters, and per-unit columns/activity from the last trace
    /// state.
    pub(crate) fn from_restored(
        templates: Vec<SafetyAutomaton>,
        units: Vec<(u32, u32, Vec<AtomId>)>,
        n_atoms: usize,
        last: Option<&PropState>,
    ) -> Result<Self, String> {
        let mut set = Self::default();
        for (i, t) in templates.iter().enumerate() {
            if set.keys.insert(t.key().clone(), i as u32).is_some() {
                return Err("duplicate template key".into());
            }
        }
        for (tmpl, state, support) in &units {
            let auto = templates
                .get(*tmpl as usize)
                .ok_or("unit template out of range")?;
            if *state as usize >= auto.state_count() {
                return Err("unit state out of range".into());
            }
            if support.len() != auto.support_len() {
                return Err("unit support does not match template arity".into());
            }
            if support.iter().any(|a| a.index() >= n_atoms) {
                return Err("unit support letter out of range".into());
            }
            if (1..support.len()).any(|i| support[..i].contains(&support[i])) {
                return Err("unit support repeats a letter".into());
            }
        }
        set.templates = templates;
        set.units.reserve_exact(units.len());
        set.active_at.reserve_exact(units.len());
        let letters = units.iter().map(|u| u.2.len()).sum();
        set.supports.reserve_exact(letters);
        set.owners.reserve_exact(letters);
        // Rediscovering the units' edges is restore work, not appends'.
        let mut cache = CacheStats::default();
        for (tmpl, state, support) in units {
            set.push_unit(tmpl, state, &support, last, &mut cache);
        }
        Ok(set)
    }
}

/// The cold tier of a truncated history: the pager holding the spilled
/// instants `[0, base)`, and `base`. `None` when nothing is truncated.
pub(crate) type Cold<'a> = Option<(&'a HistoryPager, usize)>;

/// The cold tier of `history`: the pager and `base` once instants are
/// truncated, else `None`.
fn cold<'a>(history: &History, pager: Option<&'a HistoryPager>) -> Cold<'a> {
    let base = history.base();
    (base > 0).then(|| (pager.expect("truncated history has a pager"), base))
}

/// Length of the stored prefix: the cold instants plus the resident
/// trace.
pub(crate) fn stored_len(g: &Grounding, cold: Cold<'_>) -> usize {
    cold.map_or(0, |(_, base)| base) + g.trace.len()
}

/// Feeds the stored instants from `from` on to `step`, one
/// propositional state per instant: first the cold (truncated and
/// spilled) instants, each faulted in from the pager and re-encoded via
/// frozen letter lookup — bit-identical to its original encoding — then
/// the resident trace.
pub(crate) fn for_each_stored_state(
    g: &mut Grounding,
    cold: Cold<'_>,
    from: usize,
    mut step: impl FnMut(&PropState),
) -> Result<(), Error> {
    let base = cold.map_or(0, |(_, base)| base);
    if let Some((pager, base)) = cold {
        for t in from..base {
            let s = pager.load(t)?;
            step(&g.encode_state_frozen(&s));
        }
    }
    g.trace[from.saturating_sub(base)..].iter().for_each(step);
    Ok(())
}

/// Runs `runs` (template and support, the state in `states`) through
/// the stored instants from `from` on ([`for_each_stored_state`]), one
/// edge-memo lookup per instant and run. Registration's units and the
/// seed units ([`crate::seed`]) are brought up to date this way. An
/// error reading a cold instant leaves `states` partly advanced; the
/// templates keep the edges they memoised, which are pure functions of
/// the template.
pub(crate) fn replay(
    templates: &mut [SafetyAutomaton],
    runs: &[(u32, &[AtomId])],
    states: &mut [u32],
    g: &mut Grounding,
    cold: Cold<'_>,
    from: usize,
    cache: &mut CacheStats,
) -> Result<(), Error> {
    for_each_stored_state(g, cold, from, |w| {
        for (&(tmpl, support), state) in runs.iter().zip(states.iter_mut()) {
            let col = col_of(Some(w), support);
            *state = edge(&mut templates[tmpl as usize], *state, col, cache);
        }
    })
}

/// The distinct atoms and past subformulas of `phi`'s quantifier-free
/// matrix: a bound on the letters, support and internal, of every unit
/// its grounding binds (an instantiation maps each atom to at most one
/// letter and each past subformula to at most one internal letter, a
/// unit holds letters of one instantiation, and progression only
/// removes letters).
fn matrix_letters(phi: &Formula) -> usize {
    let (_, matrix) = ticc_fotl::classify::external_prefix(phi);
    let mut letters = HashSet::new();
    let mut stack = vec![matrix];
    while let Some(f) = stack.pop() {
        match f {
            Formula::Atom(_) | Formula::Prev(_) | Formula::Since(_, _) => {
                letters.insert(f);
            }
            _ => {}
        }
        stack.extend(f.children());
    }
    letters.len()
}

/// A grounding plus the derived per-constraint runtime state: in
/// production the compiled units and their seeds, in the reference
/// pipeline the progressed symbolic residue; and the satisfiability
/// memo of either. The engine keeps one per registered constraint; the
/// grounding's stored trace is kept in sync on every append so seeds
/// can catch up through it.
///
/// The memo is bounded (`SAT_CACHE_CAP`) with evictions counted in
/// [`CacheStats`]. Entries never go stale:
/// phase 2 is a pure function of the residue's DAG, immutable once
/// hash-consed.
pub struct GroundingContext {
    g: Grounding,
    residue: FormulaId,
    sat_cache: HashMap<FormulaId, bool>,
    /// Production's runtime: the residue lives here as template
    /// automaton states and `residue` is held at `⊤` (see
    /// [`CompiledSet`]). `None` in the reference pipeline.
    pub(crate) compiled: Option<CompiledSet>,
    /// Production's seed units, which growth appends bind new
    /// instantiations from ([`crate::seed`]). `None` until the context
    /// first grows, and after a restore: snapshots do not carry them.
    seeds: Option<Seeds>,
}

impl GroundingContext {
    /// Grounds `phi` over `history` and brings `Ψ_D` up to date over
    /// the whole stored prefix: in production by binding its `∧`-parts
    /// to template automata replayed over the prefix
    /// ([`GroundingContext::bind_units`]), in the reference by symbolic
    /// progression. Counts toward `ground_time`/`progress_time` but not
    /// `grounds`/`regrounds` — the caller decides which kind of
    /// (re)build this is.
    fn build(
        history: &History,
        phi: &Formula,
        opts: &CheckOptions,
        stats: &mut EngineStats,
    ) -> Result<Self, Error> {
        let t = Timer::start();
        let mut g = ground_with(history, phi, GroundMode::Folded, opts.ground_strategy())?;
        t.finish(&mut stats.ground_time);
        let psi = g.formula;
        if opts.pipeline == Pipeline::Production {
            let t = Timer::start();
            let mut set = CompiledSet::default();
            Self::bind_units(&mut set, &mut g, psi, stats)?;
            t.finish(&mut stats.progress_time);
            let tru = g.arena.tru();
            let mut ctx = Self::from_parts(g, tru);
            ctx.compiled = Some(set);
            return Ok(ctx);
        }
        let t = Timer::start();
        let progressed =
            progress_trace(&mut g.arena, psi, &g.trace).map_err(|_| Error::Sat(SatError::Past))?;
        let residue = simplify(&mut g.arena, progressed);
        t.finish(&mut stats.progress_time);
        stats.progress_steps += history.len() as u64;
        Ok(Self::from_parts(g, residue))
    }

    /// Reassembles a context from a grounding and a symbolic residue —
    /// also the decode half of a durable snapshot. The memo starts
    /// empty: it is a pure cache, so the restored engine recomputes
    /// the verdicts it had memoised; so do the seeds.
    pub(crate) fn from_parts(g: Grounding, residue: FormulaId) -> Self {
        Self {
            g,
            residue,
            sat_cache: HashMap::new(),
            compiled: None,
            seeds: None,
        }
    }

    /// The underlying grounding.
    pub fn grounding(&self) -> &Grounding {
        &self.g
    }

    /// The current progressed residue (`⊤` in production — the live
    /// residue then lives in the compiled set as per-unit automaton
    /// states).
    pub fn residue(&self) -> FormulaId {
        self.residue
    }

    /// Converts a restored context to `pipeline`'s runtime. The
    /// reference pipeline rebuilds a compiled set's symbolic residue
    /// ([`CompiledSet::rebuild`]). Production steps template automata
    /// only, so it refuses a symbolic residue, which only the reference
    /// pipeline writes.
    pub(crate) fn adopt(&mut self, pipeline: Pipeline) -> Result<(), Error> {
        match (pipeline, self.compiled.take()) {
            (Pipeline::Reference, Some(set)) => {
                self.residue = set.rebuild(&mut self.g, |_| true);
            }
            (Pipeline::Production, None) => {
                return Err(Error::Store(
                    "snapshot: a symbolic residue, written by the reference pipeline, \
                     does not restore under production"
                        .into(),
                ));
            }
            (_, set) => self.compiled = set,
        }
        Ok(())
    }

    /// Binds the `∧`-parts of a freshly grounded `Ψ_D` into `set` as
    /// units, creating new templates as needed and reusing existing
    /// ones via the canonical key; each starts where its template's run
    /// over the grounding's trace (the whole history at registration)
    /// ends. That is `Ψ_D`'s progression, split: Lemma 4.2 makes an
    /// instance's state a function of the prefix alone, progression
    /// distributes over `∧`, and a template's states are its instance's
    /// (ACI-normal) residues. A part whose run ends in `⊤` is dropped,
    /// as splitting a progressed residue drops it.
    fn bind_units(
        set: &mut CompiledSet,
        g: &mut Grounding,
        psi: FormulaId,
        stats: &mut EngineStats,
    ) -> Result<(), Error> {
        let mut staged: Vec<(u32, Vec<AtomId>)> = Vec::new();
        for u in automaton::split_units(&mut g.arena, psi) {
            let (key, support) =
                automaton::canonicalize(&g.arena, u).ok_or(Error::Sat(SatError::Past))?;
            staged.push((set.template(&key)?, support));
        }
        if staged.is_empty() {
            return Ok(());
        }
        let runs: Vec<(u32, &[AtomId])> = staged.iter().map(|(t, s)| (*t, &s[..])).collect();
        let mut states = vec![0u32; staged.len()];
        replay(
            &mut set.templates,
            &runs,
            &mut states,
            g,
            None,
            0,
            &mut stats.cache,
        )?;
        stats.replay_steps += g.trace.len() as u64;
        for ((tmpl, support), state) in staged.into_iter().zip(states) {
            if !set.templates[tmpl as usize].is_true(state) {
                set.push_unit(tmpl, state, &support, g.trace.last(), &mut stats.cache);
            }
        }
        Ok(())
    }

    /// One append step, the one production route: `net` is the net
    /// effect of the transaction whose state is instant
    /// `history_len - 1`, computed once for every constraint
    /// ([`crate::fact`]).
    ///
    /// 1. *Grow* `M` ([`Grounding::grow`]): a new relevant element or a
    ///    first-occurring tuple lists the instantiations joining `Ψ_D`;
    ///    any other transaction passes the allocation-free gate and
    ///    does none of steps 1 and 3's growth work.
    /// 2. *Encode* `w`, patched from the previous trace state in
    ///    `O(|Δtx|)` through the fact memo — after the grow every
    ///    element the transaction mentions has letters to patch against.
    /// 3. *Bind* the new instantiations from the seed units
    ///    ([`Seeds::grow`]), at their states before this instant: old
    ///    trace states need no re-encoding, since letters mentioning a
    ///    new element are false there, as they are a placeholder's.
    /// 4. *Step* the units, the new ones included: update the touched
    ///    units' columns, then advance the active units through their
    ///    templates' edge memo.
    /// 5. *Decide* — read off the unit counters.
    ///
    /// Only step 3 reads stored instants, and it reads them all before
    /// binding anything, so an error there (a cold page the pager
    /// cannot load) leaves the units and the trace as they were, in
    /// lockstep. `M` has grown by then, though, and the history holds
    /// the transaction: the engine cannot take the append back, and is
    /// to be dropped ([`Engine::append_batch`]).
    ///
    /// The reference pipeline's contexts hold a symbolic residue
    /// instead: see [`GroundingContext::step_symbolic`].
    fn step(
        &mut self,
        net: Net<'_>,
        state: &State,
        history_len: usize,
        cold: Cold<'_>,
        stats: &mut EngineStats,
    ) -> Result<Option<Status>, Error> {
        let Some(set) = self.compiled.as_mut() else {
            return self.step_symbolic(net, state, history_len, stats);
        };
        let grown = self.g.grow(net)?;
        let w = self
            .g
            .patch_state(net)
            .expect("the grow covers every element the transaction mentions");
        stats.encode_patched_atoms += self.g.patched_letters().len() as u64;
        match &grown {
            Some(growth) => {
                if growth.new_elements {
                    stats.delta_grounds += 1;
                } else {
                    stats.fast_appends += 1;
                }
                stats.ground_time += growth.time;
                let t = Timer::start();
                Seeds::grow(&mut self.seeds, set, &mut self.g, growth, &w, cold, stats)?;
                t.finish(&mut stats.progress_time);
            }
            None => stats.fast_appends += 1,
        }
        let t = Timer::start();
        set.patch_cols(self.g.patched_letters(), &w, &mut stats.cache);
        set.step_active(stats);
        self.g.trace.push(w);
        t.finish(&mut stats.progress_time);
        stats.automaton_appends += 1;
        self.decide(history_len, stats).map(Some)
    }

    /// The reference pipeline's step: re-encode the whole state,
    /// progress the symbolic residue and decide phase 2 on it. Returns
    /// `Ok(None)` (doing nothing) on a new relevant element: the caller
    /// rebuilds.
    fn step_symbolic(
        &mut self,
        net: Net<'_>,
        state: &State,
        history_len: usize,
        stats: &mut EngineStats,
    ) -> Result<Option<Status>, Error> {
        if self.g.tx_has_delta(net) {
            return Ok(None);
        }
        let w = self
            .g
            .state_to_prop(state)
            .expect("a state with no new element is over M");
        let t = Timer::start();
        let progressed = progress(&mut self.g.arena, self.residue, &w)
            .map_err(|_| Error::Sat(SatError::Past))?;
        // Keep residues compact (□□/◇◇ and duplicate boxes otherwise
        // accumulate across appends).
        self.residue = simplify(&mut self.g.arena, progressed);
        self.g.trace.push(w);
        t.finish(&mut stats.progress_time);
        stats.progress_steps += 1;
        stats.fast_appends += 1;
        self.decide(history_len, stats).map(Some)
    }

    /// Phase 2 on the residue, with memoisation. A compiled context
    /// reads its verdict off its counters unless a shared unit is open.
    fn decide(&mut self, history_len: usize, stats: &mut EngineStats) -> Result<Status, Error> {
        let f = match &self.compiled {
            Some(set) if set.n_unsat > 0 => return Ok(Status::Violated { at: history_len }),
            Some(set) if set.n_open == 0 => return Ok(Status::Satisfied),
            // Units over unshared letters are satisfiable on their own
            // and independent of the rest; only the shared ones need
            // the joint test.
            Some(set) => set.rebuild(&mut self.g, |u| u.shared),
            None => self.residue,
        };
        let sat = if let Some(&cached) = self.sat_cache.get(&f) {
            stats.cache.sat_hits += 1;
            cached
        } else {
            stats.sat_checks += 1;
            let t = Timer::start();
            let r = is_satisfiable(&mut self.g.arena, f)?;
            t.finish(&mut stats.sat_time);
            if self.sat_cache.len() >= SAT_CACHE_CAP {
                stats.cache.sat_evictions += self.sat_cache.len() as u64;
                self.sat_cache.clear();
            }
            self.sat_cache.insert(f, r.satisfiable);
            r.satisfiable
        };
        Ok(if sat {
            Status::Satisfied
        } else {
            Status::Violated { at: history_len }
        })
    }
}

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) phi: Formula,
    pub(crate) status: Status,
    pub(crate) ctx: GroundingContext,
}

/// The shared incremental engine: owns the history, the per-constraint
/// [`GroundingContext`]s, and the observability spine. It is the
/// online monitor; the trigger engine and the extension checker use its
/// one-shot path.
pub struct Engine {
    history: History,
    pub(crate) entries: Vec<Entry>,
    opts: CheckOptions,
    pub(crate) stats: EngineStats,
    /// The cold-state spill tier, present once the engine has
    /// truncated its history under a bounded [`HistoryBudget`]:
    /// instants `[0, history.base())` live here as deduped pages and
    /// are faulted back in only on the rare slow paths (seed catch-up,
    /// full materialisation).
    pub(crate) pager: Option<HistoryPager>,
    /// The engine-wide fact ids every context's memo is keyed by.
    facts: FactTable,
    /// The net effects of the transactions being swept, each
    /// transaction's list ending at its entry of `net_ends`; reused
    /// across sweeps.
    net: Vec<NetFact>,
    net_ends: Vec<usize>,
}

/// Rough heap footprint of one database state: per-tuple values plus
/// container overhead. Only used for the `Bytes` budget conversion and
/// the `resident`/`reclaimed` byte gauges — relative accuracy across
/// states of one workload is what matters, not absolute bytes.
fn approx_state_bytes(schema: &Schema, state: &State) -> usize {
    let mut bytes = 64usize;
    for p in schema.preds() {
        let rel = state.relation(p);
        bytes += rel.len() * (8 * schema.arity(p).max(1) + 16);
    }
    bytes
}

/// Materialises the full untruncated history of a truncated engine:
/// the cold prefix faulted in from the pager followed by the resident
/// suffix, rebased to `base == 0`.
fn materialize_full(history: &History, pager: Option<&HistoryPager>) -> Result<History, Error> {
    let pager = pager.expect("truncated history has a pager");
    let mut states = Vec::with_capacity(history.len());
    for t in 0..history.base() {
        states.push((*pager.load(t)?).clone());
    }
    states.extend(history.states().iter().cloned());
    Ok(History::from_parts(
        history.schema().clone(),
        history.constants().to_vec(),
        0,
        BTreeSet::new(),
        states,
    ))
}

impl Engine {
    /// An engine over an empty history.
    pub fn new(schema: Arc<Schema>, opts: CheckOptions) -> Self {
        Self::with_history(History::new(schema), opts)
    }

    /// An engine taking over an existing history.
    pub fn with_history(history: History, opts: CheckOptions) -> Self {
        Self {
            history,
            entries: Vec::new(),
            opts,
            stats: EngineStats::default(),
            pager: None,
            facts: FactTable::default(),
            net: Vec::new(),
            net_ends: Vec::new(),
        }
    }

    /// The engine's options.
    pub fn opts(&self) -> CheckOptions {
        self.opts
    }

    /// The current history. Under a bounded [`HistoryBudget`] this may
    /// be truncated: instants before [`History::base`] live in the
    /// spill tier and direct `state` access to them panics — callers
    /// that need the whole timeline use [`Engine::full_history`].
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The full untruncated history: borrowed when nothing has been
    /// truncated (the common case, and always under
    /// [`HistoryBudget::Unbounded`]), otherwise materialised from the
    /// spill tier plus the resident suffix. Output over this history —
    /// explain traces, trigger evaluation, `:history` listings — is
    /// identical under every budget.
    pub fn full_history(&self) -> Result<Cow<'_, History>, Error> {
        if self.history.base() == 0 {
            Ok(Cow::Borrowed(&self.history))
        } else {
            Ok(Cow::Owned(materialize_full(
                &self.history,
                self.pager.as_ref(),
            )?))
        }
    }

    /// The first `upto` instants as an untruncated history (prefix
    /// analogue of [`Engine::full_history`], used for prefix-scoped
    /// trigger evaluation mid-batch).
    pub fn history_prefix(&self, upto: usize) -> Result<History, Error> {
        assert!(upto <= self.history.len(), "prefix beyond history");
        let base = self.history.base();
        if base == 0 {
            return Ok(self.history.prefix(upto));
        }
        let pager = self.pager.as_ref().expect("truncated history has a pager");
        let mut states = Vec::with_capacity(upto);
        for t in 0..upto.min(base) {
            states.push((*pager.load(t)?).clone());
        }
        if upto > base {
            states.extend(self.history.states()[..upto - base].iter().cloned());
        }
        Ok(History::from_parts(
            self.history.schema().clone(),
            self.history.constants().to_vec(),
            0,
            BTreeSet::new(),
            states,
        ))
    }

    /// The budget expressed as a window of instants: `Window(n)` is
    /// itself, `Bytes(b)` divides by the mean resident state
    /// footprint, `Unbounded` is `None`. At least one instant: the
    /// encoding patches the newest state's valuation, and a unit's
    /// template state carries everything else it needs of the past,
    /// its past connectives included.
    fn budget_window(&self) -> Option<usize> {
        match self.opts.history_budget {
            HistoryBudget::Unbounded => None,
            HistoryBudget::Window(n) => Some(n.max(1)),
            HistoryBudget::Bytes(b) => {
                let states = self.history.states();
                if states.is_empty() {
                    return None;
                }
                // Mean footprint sampled over the newest states only:
                // this runs on every append, and O(resident) sums would
                // tax exactly the configurations the budget exists for.
                let schema = self.history.schema();
                let sample = &states[states.len().saturating_sub(64)..];
                let total: usize = sample.iter().map(|s| approx_state_bytes(schema, s)).sum();
                let per = (total / sample.len()).max(1);
                Some((b / per).max(1))
            }
        }
    }

    /// Enforces the [`HistoryBudget`]: when the resident window has
    /// grown past twice the target (hysteresis — truncation runs in
    /// batches, not per append), spills the prefix behind it to the
    /// pager and drops it from the in-memory history and every
    /// context's trace in lockstep.
    ///
    /// Truncation is gated on the pipeline whose slow paths can rebase
    /// onto (pager, suffix) offsets — production (seed catch-up).
    /// It needs no checkpoint: a snapshot carries its spilled pages, so
    /// it is self-contained at any horizon, and replaying the logged
    /// suffix truncates at exactly the instants the original run did.
    fn enforce_budget(&mut self) -> Result<(), Error> {
        if self.opts.history_budget == HistoryBudget::Unbounded {
            return Ok(());
        }
        if self.opts.pipeline == Pipeline::Reference {
            return Ok(());
        }
        let Some(target) = self.budget_window() else {
            return Ok(());
        };
        let len = self.history.len();
        let resident = len - self.history.base();
        if resident <= target.saturating_mul(2) {
            return Ok(());
        }
        let k = (len - target).saturating_sub(self.history.base());
        if k == 0 {
            return Ok(());
        }
        if self.pager.is_none() {
            self.pager = Some(HistoryPager::new(self.history.schema().clone())?);
        }
        let pager = self.pager.as_mut().expect("just ensured");
        let spilled_before = pager.spilled_instants();
        let mut reclaimed = 0u64;
        let schema = self.history.schema();
        for s in &self.history.states()[..k] {
            reclaimed += approx_state_bytes(schema, s) as u64;
            if let Err(e) = pager.spill(s) {
                // Keep the pager's instant index aligned with the
                // (untruncated) base; the pages already appended stay
                // in the dedup table and cost nothing.
                pager.rollback_to(spilled_before);
                return Err(e);
            }
        }
        self.history.truncate_prefix(k);
        for e in &mut self.entries {
            e.ctx.g.truncate_trace(k);
        }
        self.stats.history.truncations += 1;
        self.stats.history.reclaimed_bytes += reclaimed;
        Ok(())
    }

    /// Growth instantiations constraint `id` bound by their own
    /// grounding and replay, as no seed gives them ([`crate::seed`]),
    /// since its context last built its seeds (a restore drops them).
    /// A probe for tests of that route.
    #[cfg(any(test, feature = "reference"))]
    #[doc(hidden)]
    pub fn seedless_binds(&self, id: ConstraintId) -> u64 {
        self.entries[id.0]
            .ctx
            .seeds
            .as_ref()
            .map_or(0, |s| s.seedless)
    }

    /// A snapshot of the observability spine, with the size gauges
    /// (letters, arena nodes, mappings) refreshed over the live
    /// grounding contexts.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.history.resident_states = self.history.states().len() as u64;
        s.history.resident_bytes = {
            let schema = self.history.schema();
            self.history
                .states()
                .iter()
                .map(|st| approx_state_bytes(schema, st) as u64)
                .sum()
        };
        if let Some(p) = &self.pager {
            s.history.spilled_instants = p.spilled_instants() as u64;
            s.history.spilled_distinct = p.distinct() as u64;
            s.history.spilled_bytes = p.bytes();
            s.history.page_loads += p.loads();
        }
        s.letters = 0;
        s.arena_nodes = 0;
        s.mappings = 0;
        s.inst_enumerated = 0;
        s.inst_pruned = 0;
        s.inst_shared = 0;
        s.templates_compiled = 0;
        s.automaton_states = 0;
        s.automaton_insts = 0;
        s.index_build_time = Duration::ZERO;
        s.automaton_compile_time = Duration::ZERO;
        s.cache.letter_index_len = 0;
        for e in &self.entries {
            let g = e.ctx.grounding();
            s.letters += g.letter_count() as u64;
            s.arena_nodes += g.arena.dag_len() as u64;
            s.mappings += g.stats.mappings as u64;
            s.inst_enumerated += g.stats.inst_enumerated as u64;
            s.inst_pruned += g.stats.inst_pruned as u64;
            s.inst_shared += g.stats.inst_shared as u64;
            s.index_build_time += g.index_build;
            s.cache.letter_index_len += g.fact_memo_len() as u64;
            if let Some(set) = &e.ctx.compiled {
                s.templates_compiled += set.templates.len() as u64;
                s.automaton_states += set.state_total();
                s.automaton_insts += set.units.len() as u64;
                for t in &set.templates {
                    s.automaton_compile_time += t.discover_time();
                }
            }
        }
        s
    }

    /// Registers a universal safety constraint and checks it against
    /// the current history immediately.
    ///
    /// Past connectives over past formulas are allowed in the matrix:
    /// the grounding rewrites each into an internal letter with a
    /// future-form definition (see [`mod@crate::ground`]), and a unit's
    /// template state carries its value. A past connective over a
    /// future one (`●○p`) is refused by classification
    /// ([`Error::Ground`]), with the engine unchanged.
    ///
    /// Production steps every `∧`-part of the grounding through a
    /// template automaton whose letters share one `u64` word, so it
    /// refuses, up front and with the engine unchanged, a constraint
    /// whose matrix mentions more than [`automaton::MAX_ARITY`] (64)
    /// distinct atoms and past subformulas: [`Error::UnsupportedShape`].
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        phi: Formula,
    ) -> Result<ConstraintId, Error> {
        if self.opts.pipeline == Pipeline::Production
            && matrix_letters(&phi) > automaton::MAX_ARITY as usize
        {
            return Err(Error::UnsupportedShape(TOO_WIDE));
        }
        let name = name.into();
        let id = ConstraintId(self.entries.len());
        // A constraint registered after a truncation grounds over the
        // materialised full history, then drops the cold prefix of its
        // fresh trace so the per-entry invariant
        // `trace.len() == history.len() - base` holds for it too.
        let base = self.history.base();
        let owned = if base > 0 {
            Some(materialize_full(&self.history, self.pager.as_ref())?)
        } else {
            None
        };
        let hist = owned.as_ref().unwrap_or(&self.history);
        let mut ctx = GroundingContext::build(hist, &phi, &self.opts, &mut self.stats)?;
        self.stats.grounds += 1;
        if base > 0 {
            ctx.g.truncate_trace(base);
        }
        let len = self.history.len();
        let status = ctx.decide(len, &mut self.stats)?;
        self.entries.push(Entry {
            name,
            phi,
            status,
            ctx,
        });
        Ok(id)
    }

    /// Status of a constraint.
    pub fn status(&self, id: ConstraintId) -> Status {
        self.entries[id.0].status
    }

    /// Read access to the grounding context of a constraint (used by
    /// diagnostics and the determinism test suite).
    pub fn context(&self, id: ConstraintId) -> &GroundingContext {
        &self.entries[id.0].ctx
    }

    /// Name of a constraint.
    pub fn name(&self, id: ConstraintId) -> &str {
        &self.entries[id.0].name
    }

    /// The registered formula of a constraint (as given to
    /// [`Engine::add_constraint`], before grounding).
    pub fn formula(&self, id: ConstraintId) -> &Formula {
        &self.entries[id.0].phi
    }

    /// Ids of all registered constraints.
    pub fn constraints(&self) -> impl Iterator<Item = ConstraintId> {
        (0..self.entries.len()).map(ConstraintId)
    }

    /// One append step for one constraint: [`GroundingContext::step`],
    /// or on the reference pipeline's new relevant element a full
    /// rebuild, then the violation decision. Every sweep — single or
    /// batched — steps entries through this.
    ///
    /// `upto` is the history length *after* `tx`: the step reasons over
    /// the prefix `history[..upto]`. During a batched append the
    /// history already holds the whole batch, and each constraint is
    /// stepped through the batch one transaction at a time with
    /// `upto` advancing — only the reference's rebuild needs to
    /// materialise the prefix.
    fn step_entry(
        history: &History,
        net: Net<'_>,
        entry: &mut Entry,
        opts: &CheckOptions,
        upto: usize,
        cold: Cold<'_>,
        stats: &mut EngineStats,
    ) -> Result<Status, Error> {
        let state = history.state(upto - 1);
        // After warm-up a steady-state append must leave
        // `scratch_allocs` flat.
        let scratch0 = entry.ctx.g.scratch_allocs();
        let stepped = entry.ctx.step(net, state, upto, cold, stats);
        stats.scratch_allocs += entry.ctx.g.scratch_allocs() - scratch0;
        if let Some(status) = stepped? {
            return Ok(status);
        }
        // Full rebuild over the enlarged history (prefix view when
        // stepping mid-batch).
        stats.regrounds += 1;
        entry.ctx = if upto == history.len() {
            GroundingContext::build(history, &entry.phi, opts, stats)?
        } else {
            let prefix = history.prefix(upto);
            GroundingContext::build(&prefix, &entry.phi, opts, stats)?
        };
        entry.ctx.decide(upto, stats)
    }

    /// Applies a transaction, producing the next state, and re-checks
    /// every live constraint. Returns the violations that became
    /// unavoidable with this update, in [`ConstraintId`] order.
    ///
    /// This is the one-transaction case of [`Engine::append_batch`]'s
    /// sweep.
    pub fn append(&mut self, tx: &Transaction) -> Result<Vec<MonitorEvent>, Error> {
        let mut events = Vec::new();
        self.sweep(std::slice::from_ref(tx), |_, e| events.push(e))?;
        Ok(events)
    }

    /// Appends a batch of transactions in one constraint sweep.
    ///
    /// All transactions are applied first; each constraint is then
    /// stepped through the whole batch before the next one is.
    ///
    /// Returns one event list per transaction, each in
    /// [`ConstraintId`] order — exactly what the same transactions
    /// appended one at a time would produce (a constraint violated at
    /// transaction `t` is not stepped past `t`, matching the per-append
    /// skip rule).
    ///
    /// An error from stepping the constraints — a spilled instant the
    /// pager cannot load while a growth catches its seeds up — comes
    /// after the history took the batch and may leave constraints
    /// stepped unevenly through it. The engine cannot take that back:
    /// drop it and restore from a snapshot and log, as a session's
    /// recovery does.
    pub fn append_batch(&mut self, txs: &[Transaction]) -> Result<Vec<Vec<MonitorEvent>>, Error> {
        let mut events: Vec<Vec<MonitorEvent>> = txs.iter().map(|_| Vec::new()).collect();
        self.sweep(txs, |t, e| events[t].push(e))?;
        Ok(events)
    }

    /// The sweep behind [`Engine::append`] and [`Engine::append_batch`].
    /// Applies `txs` to the history — `History::apply` validates each
    /// transaction (arity, predicate range), so a session logs only
    /// transactions that applied — then steps every live constraint
    /// through `txs`, passing each violation to `emit` with its
    /// transaction's index.
    fn sweep(
        &mut self,
        txs: &[Transaction],
        mut emit: impl FnMut(usize, MonitorEvent),
    ) -> Result<(), Error> {
        if txs.is_empty() {
            return Ok(());
        }
        for tx in txs {
            self.history.apply(tx)?;
            self.stats.appends += 1;
        }
        if txs.len() > 1 {
            self.stats.batches += 1;
            self.stats.batched_txs += txs.len() as u64;
        }
        if !self.entries.iter().any(|e| e.status == Status::Satisfied) {
            return self.enforce_budget();
        }
        // Each transaction's net effect, once for every constraint.
        let cap = (self.net.capacity(), self.net_ends.capacity());
        self.net.clear();
        self.net_ends.clear();
        for tx in txs {
            self.facts.net_into(tx, &mut self.net);
            self.net_ends.push(self.net.len());
        }
        if (self.net.capacity(), self.net_ends.capacity()) != cap {
            self.stats.scratch_allocs += 1;
        }
        let base = self.history.len() - txs.len();
        let cold = cold(&self.history, self.pager.as_ref());
        for i in 0..self.entries.len() {
            if matches!(self.entries[i].status, Status::Violated { .. }) {
                continue; // safety: violations are permanent
            }
            for (t, tx) in txs.iter().enumerate() {
                let start = t.checked_sub(1).map_or(0, |p| self.net_ends[p]);
                let net = Net::new(tx, &self.net[start..self.net_ends[t]]);
                let status = Self::step_entry(
                    &self.history,
                    net,
                    &mut self.entries[i],
                    &self.opts,
                    base + t + 1,
                    cold,
                    &mut self.stats,
                )?;
                if let Status::Violated { at } = status {
                    self.entries[i].status = status;
                    emit(
                        t,
                        MonitorEvent {
                            constraint: ConstraintId(i),
                            name: self.entries[i].name.clone(),
                            at,
                        },
                    );
                    break; // violations are permanent; stop mid-batch
                }
            }
        }
        self.enforce_budget()
    }

    // ----- durability: the engine's whole surface is its snapshot -----

    /// Serialises the complete engine state (plus an opaque application
    /// blob) into a snapshot payload — see [`crate::snapshot`]. Logging
    /// and checkpointing belong to [`crate::Session`]; the engine owns
    /// no store.
    pub fn snapshot_bytes(&self, app: &[u8]) -> Vec<u8> {
        crate::snapshot::snapshot_engine(self, app)
    }

    /// Rebuilds an engine from [`Engine::snapshot_bytes`] output.
    /// Returns the engine and the application blob. `opts` are the
    /// caller's: run options are a property of the process, not of the
    /// persisted state.
    pub fn restore_bytes(bytes: &[u8], opts: CheckOptions) -> Result<(Engine, Vec<u8>), Error> {
        crate::snapshot::restore_engine(bytes, opts)
    }
}

/// The result of a one-shot extension check routed through the engine
/// layer: the grounding, the raw satisfiability result (with witness
/// lasso), and the phase timings.
pub(crate) struct OneShot {
    pub grounding: Grounding,
    pub result: SatResult,
    pub ground_time: Duration,
    pub decide_time: Duration,
}

/// One-shot potential-satisfaction decision: ground, then decide
/// extendability of `w_D` (progression + phase-2 satisfiability inside
/// the PTL facade). Used by the extension checker and the trigger
/// engine; callers fold the timings into their own stats.
pub(crate) fn check_once(
    history: &History,
    phi: &Formula,
    opts: &CheckOptions,
) -> Result<OneShot, Error> {
    let t0 = Timer::start();
    let mut ground_time = Duration::ZERO;
    let mut grounding = ground_with(history, phi, GroundMode::Folded, opts.ground_strategy())?;
    t0.finish(&mut ground_time);

    let t1 = Timer::start();
    let mut decide_time = Duration::ZERO;
    let trace = std::mem::take(&mut grounding.trace);
    let result = extends(&mut grounding.arena, &trace, grounding.formula)?;
    grounding.trace = trace;
    t1.finish(&mut decide_time);

    Ok(OneShot {
        grounding,
        result,
        ground_time,
        decide_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundError;
    use ticc_fotl::classify::{FormulaClass, NotBiquantifiedReason};
    use ticc_fotl::parser::parse;

    fn order_schema() -> Arc<Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    #[test]
    fn delta_and_full_agree_on_growing_domain() {
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut delta = Engine::new(sc.clone(), CheckOptions::default());
        let mut full = Engine::new(sc.clone(), CheckOptions::reference());
        let d_id = delta.add_constraint("once", phi.clone()).unwrap();
        let f_id = full.add_constraint("once", phi).unwrap();
        // Each append clears the previous submission and introduces a
        // fresh element; the final one re-submits element 100 →
        // violation.
        for i in 0..3u64 {
            let mut tx = Transaction::new().insert(sub, vec![100 + i]);
            if i > 0 {
                tx = tx.delete(sub, vec![100 + i - 1]);
            }
            let de = delta.append(&tx).unwrap();
            let fe = full.append(&tx).unwrap();
            assert_eq!(de, fe, "append {i}");
        }
        let tx = Transaction::new()
            .delete(sub, vec![102])
            .insert(sub, vec![100]);
        let de = delta.append(&tx).unwrap();
        let fe = full.append(&tx).unwrap();
        assert_eq!(de.len(), 1);
        assert_eq!(de, fe);
        assert_eq!(delta.status(d_id), full.status(f_id));
        // The delta engine actually took the delta path.
        assert!(delta.stats().delta_grounds >= 3);
        assert_eq!(delta.stats().regrounds, 0);
        assert_eq!(full.stats().delta_grounds, 0);
        assert!(full.stats().regrounds >= 3);
    }

    #[test]
    fn replayed_conjuncts_stay_linear_in_delta() {
        // k = 1 and one new element per append: every delta re-ground
        // adds exactly one new instantiation, so the replayed-conjunct
        // counter grows by 1 per append — O(|Δ-part|) — while the total
        // instantiation count |M|^k keeps growing.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("once", phi).unwrap();
        let n = 6u64;
        for i in 0..n {
            let tx = Transaction::new()
                .delete(sub, vec![100 + i.saturating_sub(1)])
                .insert(sub, vec![100 + i]);
            e.append(&tx).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.delta_grounds, n);
        assert_eq!(
            s.replayed_conjuncts, n,
            "one new instantiation per new element at k = 1"
        );
        // A full re-ground at step i would have re-derived i+2
        // instantiations; the delta path replays far fewer in total.
        assert!(s.replayed_conjuncts < s.mappings, "{s:?}");
    }

    /// FIFO over the order schema, as the benchmark suites state it.
    const FIFO: &str = "forall x y. G !(x != y & Sub(x) & \
                        ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";

    #[test]
    fn reference_fifo_residue_stays_flat_under_unfilled_submissions() {
        // Each instant with Sub(1) true and Fill(1) false opens another
        // copy of the same `Fill(1) R (…)` obligation; only ACI
        // normalisation of the residue identifies the copies, so the
        // residue's size must not depend on how many instants passed.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::reference());
        let id = e.add_constraint("fifo", parse(&sc, FIFO).unwrap()).unwrap();
        e.append(&Transaction::new().insert(sub, vec![2])).unwrap();
        let size_at = |e: &mut Engine, n: usize| {
            while e.history().len() < n {
                let tx = Transaction::new().insert(sub, vec![1]);
                assert!(e.append(&tx).unwrap().is_empty());
            }
            let ctx = e.context(id);
            ctx.grounding().arena.tree_size(ctx.residue())
        };
        let early = size_at(&mut e, 100);
        let late = size_at(&mut e, 2000);
        assert_eq!(early, late, "the FIFO residue grows with t");
        assert_eq!(e.status(id), Status::Satisfied);
    }

    #[test]
    fn past_over_future_is_refused() {
        // `●○p` has no value the prefix decides, so classification
        // refuses it on both pipelines, before any grounding, and the
        // constraint list and the counters stay as they were.
        let sc = order_schema();
        let once = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let bad = parse(&sc, "forall x. G (Fill(x) -> Y X Sub(x))").unwrap();
        for opts in [CheckOptions::default(), CheckOptions::reference()] {
            let mut e = Engine::new(sc.clone(), opts);
            e.add_constraint("once", once.clone()).unwrap();
            let before = e.stats();
            let err = e.add_constraint("bad", bad.clone());
            assert!(
                matches!(
                    err,
                    Err(Error::Ground(GroundError::NotUniversal(
                        FormulaClass::NotBiquantified(NotBiquantifiedReason::FutureUnderPast)
                    )))
                ),
                "{err:?}"
            );
            assert_eq!(e.constraints().count(), 1);
            assert_eq!(e.name(ConstraintId(0)), "once");
            assert_eq!(e.stats(), before);
        }
    }

    #[test]
    fn past_violation_is_detected_at_the_first_state() {
        // `G ¬●P(x)` is violated by `P(1)` at instant 0 already: every
        // extension makes `●P(1)` true at instant 1. Potential
        // satisfaction reports it there, on both pipelines, as the
        // future form `G ¬P(x)` does.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        for opts in [CheckOptions::default(), CheckOptions::reference()] {
            let mut e = Engine::new(sc.clone(), opts);
            let past = e
                .add_constraint("past", parse(&sc, "forall x. G !(Y Sub(x))").unwrap())
                .unwrap();
            let future = e
                .add_constraint("future", parse(&sc, "forall x. G !Sub(x)").unwrap())
                .unwrap();
            let events = e.append(&Transaction::new().insert(sub, vec![1])).unwrap();
            assert_eq!(e.status(past), Status::Violated { at: 1 });
            assert_eq!(e.status(future), Status::Violated { at: 1 });
            assert_eq!(events.len(), 2, "{events:?}");
        }
    }

    #[test]
    fn past_letters_count_toward_the_column_width() {
        // 63 atoms and one past subformula fill the 64 letters a
        // template may have; a second past subformula is refused up
        // front with the engine unchanged.
        let sc = wide_schema(63);
        let atoms = |n: usize| {
            (0..n)
                .map(|i| format!("P{i}(x)"))
                .collect::<Vec<_>>()
                .join(" & ")
        };
        let fits = parse(&sc, &format!("forall x. G !({} & Y P0(x))", atoms(63))).unwrap();
        let wide = parse(
            &sc,
            &format!("forall x. G !({} & Y P0(x) & Y P1(x))", atoms(63)),
        )
        .unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("fits", fits).unwrap();
        let before = e.stats();
        let err = e.add_constraint("wide", wide);
        assert!(
            matches!(err, Err(Error::UnsupportedShape(m)) if m.contains("past")),
            "{err:?}"
        );
        assert_eq!(e.constraints().count(), 1);
        assert_eq!(e.stats(), before);
    }

    #[test]
    fn transition_cache_hits_on_cyclic_appends() {
        // A stable two-element domain churned cyclically: after the
        // first lap every (state, column) edge recurs, so steady state
        // is all template-memo hits with no discovery, no progression
        // and no phase-2 work.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let fill = sc.pred("Fill").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> Fill(x))").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("covered", phi).unwrap();
        let on = Transaction::new()
            .insert(sub, vec![1])
            .insert(fill, vec![1]);
        let off = Transaction::new()
            .delete(sub, vec![1])
            .delete(fill, vec![1]);
        e.append(&on).unwrap();
        e.append(&off).unwrap();
        e.append(&on).unwrap();
        let lap = e.stats();
        for _ in 0..5 {
            e.append(&off).unwrap();
            e.append(&on).unwrap();
        }
        let s = e.stats();
        assert!(lap.cache.transition_misses >= 1, "{lap:?}");
        assert_eq!(
            s.cache.transition_misses, lap.cache.transition_misses,
            "steady laps discover nothing: {s:?}"
        );
        assert!(
            s.cache.transition_hits >= lap.cache.transition_hits + 10,
            "{s:?}"
        );
        assert_eq!(s.automaton_states, lap.automaton_states);
        assert!(s.encode_patched_atoms > 0, "incremental encoding ran");
        assert!(s.cache.letter_index_len > 0);
        assert_eq!(s.cache.transition_evictions, 0);
        assert_eq!(s.progress_steps, 0, "{s:?}");
        assert_eq!(s.sat_checks, 0, "{s:?}");
    }

    #[test]
    fn hot_path_matches_rebuild_encoding() {
        // The same workload — including a mid-stream new element and a
        // final violation — through the production pipeline and through
        // the reference (full re-encode, no template automata) must
        // produce identical events and statuses.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut hot = Engine::new(sc.clone(), CheckOptions::default());
        let mut cold = Engine::new(sc.clone(), CheckOptions::reference());
        let h_id = hot.add_constraint("once", phi.clone()).unwrap();
        let c_id = cold.add_constraint("once", phi).unwrap();
        let txs = [
            Transaction::new().insert(sub, vec![1]),
            Transaction::new().delete(sub, vec![1]),
            Transaction::new(),
            Transaction::new().insert(sub, vec![2]), // new element: delta path
            Transaction::new().delete(sub, vec![2]),
            Transaction::new().insert(sub, vec![1]), // re-submission: violation
        ];
        for (i, tx) in txs.iter().enumerate() {
            let he = hot.append(tx).unwrap();
            let ce = cold.append(tx).unwrap();
            assert_eq!(he, ce, "append {i}");
            assert_eq!(hot.status(h_id), cold.status(c_id), "append {i}");
        }
        assert!(matches!(hot.status(h_id), Status::Violated { .. }));
        let hs = hot.stats();
        let cs = cold.stats();
        assert!(hs.encode_patched_atoms > 0);
        assert_eq!(cs.encode_patched_atoms, 0);
        assert_eq!(cs.cache.transition_hits + cs.cache.transition_misses, 0);
        // Identical groundings either way.
        assert_eq!(hs.letters, cs.letters);
        assert_eq!(hs.mappings, cs.mappings);
    }

    #[test]
    fn stats_track_timers_and_gauges() {
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("once", phi).unwrap();
        e.append(&Transaction::new().insert(sub, vec![1])).unwrap();
        e.append(&Transaction::new().delete(sub, vec![1])).unwrap();
        let s = e.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.grounds, 1);
        assert!(s.letters > 0);
        assert!(s.arena_nodes > 0);
        assert!(s.mappings > 0);
        // Under the default options both appends run compiled: table
        // lookups instead of symbolic progression steps.
        assert_eq!(s.automaton_appends, 2);
        assert!(s.templates_compiled >= 1);
        assert!(s.automaton_states > 0);
        assert!(s.automaton_insts >= 1);
        assert!(s.ground_time > Duration::ZERO);
        assert!(s.render().contains("delta regrounds"));
        assert!(s.render().contains("templates compiled"));
    }

    #[test]
    fn compiled_and_symbolic_paths_agree_end_to_end() {
        // The compiled path must be observationally identical to the
        // symbolic reference on a workload that exercises violation,
        // delta re-grounding, and the steady state — and must actually
        // share templates across instantiations.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut auto = Engine::new(sc.clone(), CheckOptions::default());
        let mut sym = Engine::new(sc.clone(), CheckOptions::reference());
        let a_id = auto.add_constraint("once", phi.clone()).unwrap();
        let s_id = sym.add_constraint("once", phi).unwrap();
        let txs = [
            Transaction::new().insert(sub, vec![1]),
            Transaction::new().insert(sub, vec![2]).delete(sub, vec![1]),
            Transaction::new().delete(sub, vec![2]),
            Transaction::new(),
            Transaction::new().insert(sub, vec![1]), // re-submission
        ];
        for (i, tx) in txs.iter().enumerate() {
            let ea = auto.append(tx).unwrap();
            let es = sym.append(tx).unwrap();
            assert_eq!(ea, es, "append {i}");
            assert_eq!(auto.status(a_id), sym.status(s_id), "append {i}");
        }
        assert!(matches!(auto.status(a_id), Status::Violated { .. }));
        let sa = auto.stats();
        let ss = sym.stats();
        assert!(sa.automaton_appends > 0, "{sa:?}");
        assert!(sa.automaton_steps > 0, "{sa:?}");
        assert_eq!(ss.automaton_appends, 0);
        // Sharing: both elements instantiate the same once-only
        // template shape.
        assert!(sa.templates_compiled < sa.automaton_insts, "{sa:?}");
        // Compiled appends never run per-append phase 2.
        assert!(sa.sat_checks <= ss.sat_checks, "{sa:?} vs {ss:?}");
        assert!(sa.automaton_compile_time > Duration::ZERO);
    }

    /// A schema with `n` unary predicates `P0 … P{n-1}`.
    fn wide_schema(n: usize) -> Arc<Schema> {
        (0..n)
            .fold(Schema::builder(), |b, i| b.pred(&format!("P{i}"), 1))
            .build()
    }

    /// `forall x. G !(P0(x) & … & P{n-1}(x))`: one unit per element,
    /// over `n` letters.
    fn all_of(sc: &Schema, n: usize) -> Formula {
        let all = (0..n)
            .map(|i| format!("P{i}(x)"))
            .collect::<Vec<_>>()
            .join(" & ");
        parse(sc, &format!("forall x. G !({all})")).unwrap()
    }

    #[test]
    fn wide_units_stay_compiled() {
        // A unit over 12 letters: its template discovers the states
        // the run reaches instead of enumerating 2^12 columns per
        // state, so the context stays on template automata throughout
        // and lands the violation where the reference does.
        let n = 12;
        let sc = wide_schema(n);
        let p: Vec<_> = (0..n).map(|i| sc.pred(&format!("P{i}")).unwrap()).collect();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        let mut r = Engine::new(sc.clone(), CheckOptions::reference());
        let id = e.add_constraint("wide", all_of(&sc, n)).unwrap();
        r.add_constraint("wide", all_of(&sc, n)).unwrap();
        for (i, &pred) in p.iter().enumerate() {
            let tx = Transaction::new().insert(pred, vec![7]);
            assert_eq!(e.append(&tx).unwrap(), r.append(&tx).unwrap(), "{i}");
            assert_eq!(e.status(id), r.status(id), "append {i}");
        }
        assert_eq!(e.status(id), Status::Violated { at: n });
        let s = e.stats();
        assert_eq!(s.templates_compiled, 1, "{s:?}");
        assert_eq!(s.automaton_appends, s.appends, "{s:?}");
        assert_eq!(s.progress_steps, 0, "{s:?}");
        assert!(s.automaton_states <= 2 * n as u64 + 2, "{s:?}");
        assert!(s.automaton_compile_time > Duration::ZERO);
    }

    #[test]
    fn matrices_over_64_atoms_are_refused() {
        // 64 atoms fit one column; a 65th is refused up front with the
        // engine unchanged. The reference, which steps symbolically,
        // takes it.
        let sc = wide_schema(65);
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("fits", all_of(&sc, 64)).unwrap();
        let before = e.stats();
        let err = e.add_constraint("wide", all_of(&sc, 65));
        assert!(
            matches!(err, Err(Error::UnsupportedShape(m)) if m.contains("64")),
            "{err:?}"
        );
        assert_eq!(e.constraints().count(), 1);
        assert_eq!(e.stats(), before);
        let mut r = Engine::new(sc.clone(), CheckOptions::reference());
        r.add_constraint("wide", all_of(&sc, 65)).unwrap();
    }

    #[test]
    fn append_batch_matches_per_tx_appends() {
        // One batched sweep must be observationally identical to the
        // same transactions appended one at a time — per-transaction
        // events, final statuses, and the semantic counters.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let fill = sc.pred("Fill").unwrap();
        let txs = [
            Transaction::new()
                .insert(sub, vec![1])
                .insert(fill, vec![1]),
            Transaction::new()
                .insert(sub, vec![2])
                .insert(fill, vec![2]),
            Transaction::new().delete(fill, vec![2]), // violates "covered"
            Transaction::new().insert(sub, vec![1]),  // violates "once"
            Transaction::new().delete(sub, vec![2]),
        ];
        let build = || {
            let mut e = Engine::new(sc.clone(), CheckOptions::default());
            let once = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
            let cov = parse(&sc, "forall x. G (Sub(x) -> Fill(x))").unwrap();
            let cap = parse(&sc, "G !Sub(999)").unwrap();
            let ids = vec![
                e.add_constraint("once", once).unwrap(),
                e.add_constraint("covered", cov).unwrap(),
                e.add_constraint("cap", cap).unwrap(),
            ];
            (e, ids)
        };
        let (mut batched, b_ids) = build();
        let (mut serial, s_ids) = build();
        let be = batched.append_batch(&txs).unwrap();
        let se: Vec<_> = txs.iter().map(|tx| serial.append(tx).unwrap()).collect();
        assert_eq!(be, se);
        for (b, s) in b_ids.iter().zip(&s_ids) {
            assert_eq!(batched.status(*b), serial.status(*s));
        }
        let bs = batched.stats();
        let ss = serial.stats();
        assert_eq!(bs.appends, ss.appends);
        assert_eq!(bs.grounds, ss.grounds);
        assert_eq!(bs.delta_grounds, ss.delta_grounds);
        assert_eq!(bs.fast_appends, ss.fast_appends);
        assert_eq!(bs.sat_checks, ss.sat_checks);
        assert_eq!(bs.batches, 1);
        assert_eq!(bs.batched_txs, txs.len() as u64);
        assert_eq!(ss.batches, 0);
    }

    #[test]
    fn append_batch_rejects_invalid_mid_batch_tx() {
        // `History::apply` validates before anything is swept; a bad
        // arity mid-batch errors out without stepping constraints.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        e.add_constraint("once", parse(&sc, "G !Sub(999)").unwrap())
            .unwrap();
        let txs = [
            Transaction::new().insert(sub, vec![1]),
            Transaction::new().insert(sub, vec![1, 2]), // wrong arity
        ];
        assert!(e.append_batch(&txs).is_err());
    }

    #[test]
    fn steady_appends_allocate_no_scratch_across_1k() {
        // A steady churn (known elements only, no first-occurrence
        // tuples) must leave the grounding-scratch counter flat across
        // 1k appends once the buffers have warmed up.
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let fill = sc.pred("Fill").unwrap();
        let phi = parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
        let mut e = Engine::new(sc.clone(), CheckOptions::default());
        for name in ["a", "b"] {
            e.add_constraint(name, phi.clone()).unwrap();
        }
        // Warm-up: introduce the elements the churn cycles over (delta
        // re-grounds), retire the Sub tuples (a re-insert would
        // violate), and run one full churn cycle so every scratch
        // buffer and letter reaches steady state.
        e.append(&Transaction::new().insert(sub, vec![1])).unwrap();
        e.append(&Transaction::new().delete(sub, vec![1]).insert(sub, vec![2]))
            .unwrap();
        e.append(
            &Transaction::new()
                .delete(sub, vec![2])
                .insert(fill, vec![1]),
        )
        .unwrap();
        e.append(
            &Transaction::new()
                .insert(fill, vec![2])
                .delete(fill, vec![1]),
        )
        .unwrap();
        e.append(
            &Transaction::new()
                .insert(fill, vec![1])
                .delete(fill, vec![2]),
        )
        .unwrap();
        let warm = e.stats().scratch_allocs;
        for i in 0..1000u64 {
            let (on, off) = if i % 2 == 0 { (2, 1) } else { (1, 2) };
            let events = e
                .append(
                    &Transaction::new()
                        .insert(fill, vec![on])
                        .delete(fill, vec![off]),
                )
                .unwrap();
            assert!(events.is_empty(), "steady churn never violates");
        }
        let s = e.stats();
        assert_eq!(
            s.scratch_allocs, warm,
            "1k steady appends must not grow grounding-scratch buffers: {s:?}"
        );
        assert!(
            s.fast_appends >= 2000,
            "churn stays on the fast path for both constraints: {s:?}"
        );
    }

    /// Churn workload for the budget tests: cycles `Sub` values so
    /// spilled states dedup, with a fresh element every 5th step so
    /// seeds catch up through the cold tier.
    fn churn_tx(i: u64) -> Transaction {
        let sc = order_schema();
        let sub = sc.pred("Sub").unwrap();
        let mut tx = Transaction::new();
        if i > 0 {
            tx = tx.delete(sub, vec![i - 1]);
        }
        tx.insert(sub, vec![i])
    }

    #[test]
    fn add_constraint_after_truncation_sees_the_full_history() {
        // A constraint registered after instants were spilled grounds
        // over the materialised full history — its violation instant
        // must match a twin that never truncated.
        let sc = order_schema();
        let opts = CheckOptions::builder()
            .history_budget(HistoryBudget::Window(2))
            .build();
        let mut e = Engine::new(sc.clone(), opts);
        let mut twin = Engine::new(sc.clone(), CheckOptions::default());
        // `Sub(3)` occurs at t=3 and is gone by t=4; by t=12 that
        // instant is far behind the retention horizon.
        for i in 0..12u64 {
            e.append(&churn_tx(i)).unwrap();
            twin.append(&churn_tx(i)).unwrap();
        }
        assert!(e.history().base() > 3, "t=3 must be spilled for this test");
        let phi = parse(&sc, "G !Sub(3)").unwrap();
        let id = e.add_constraint("no3", phi.clone()).unwrap();
        let t_id = twin.add_constraint("no3", phi).unwrap();
        assert!(matches!(e.status(id), Status::Violated { .. }));
        assert_eq!(e.status(id), twin.status(t_id));
        // And the late constraint keeps monitoring correctly.
        for i in 12..15u64 {
            let ev = e.append(&churn_tx(i)).unwrap();
            let tv = twin.append(&churn_tx(i)).unwrap();
            assert_eq!(
                ev.iter().map(|v| (&v.name, v.at)).collect::<Vec<_>>(),
                tv.iter().map(|v| (&v.name, v.at)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn truncated_snapshot_round_trip_preserves_tier_shape() {
        // Snapshot v4 is fully self-contained: restoring a truncated
        // engine rebuilds the same (spilled, resident) split — the
        // restored process's footprint matches the writer's, and the
        // full history still materialises bit-identically.
        let sc = order_schema();
        let opts = CheckOptions::builder()
            .history_budget(HistoryBudget::Window(2))
            .build();
        let mut e = Engine::new(sc.clone(), opts);
        e.add_constraint(
            "once",
            parse(&sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap(),
        )
        .unwrap();
        for i in 0..10u64 {
            e.append(&churn_tx(i)).unwrap();
        }
        let base = e.history().base();
        assert!(base > 0);
        let snap = e.snapshot_bytes(b"app");
        let (mut r, app) = Engine::restore_bytes(&snap, opts).unwrap();
        assert_eq!(app, b"app");
        assert_eq!(r.history().len(), e.history().len());
        assert_eq!(
            r.history().base(),
            base,
            "tier shape survives the round trip"
        );
        let es = e.stats().history;
        let rs = r.stats().history;
        assert_eq!(rs.resident_states, es.resident_states);
        assert_eq!(rs.spilled_instants, es.spilled_instants);
        assert_eq!(rs.spilled_distinct, es.spilled_distinct);
        let e_full = e.full_history().unwrap();
        let r_full = r.full_history().unwrap();
        for t in 0..e.history().len() {
            assert_eq!(e_full.state(t), r_full.state(t), "instant {t}");
        }
        // Both continue in lockstep past the restore.
        for i in 10..14u64 {
            assert_eq!(
                e.append(&churn_tx(i)).unwrap(),
                r.append(&churn_tx(i)).unwrap()
            );
        }
    }

    #[test]
    fn a_growth_that_cannot_read_the_cold_tier_binds_nothing() {
        // A growth stages every new instantiation before binding any.
        // Here the first binds from a seed while the second (`x = 12`,
        // whose renamed letters coincide with the matrix's `Sub(12)`)
        // must be replayed over spilled instants the pager can no
        // longer load: the append fails, and the context's units and
        // trace stay as they were, in lockstep.
        let sc = order_schema();
        let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
        let opts = CheckOptions::builder()
            .history_budget(HistoryBudget::Window(2))
            .build();
        let mut e = Engine::new(sc.clone(), opts);
        e.append(&Transaction::new().insert(fill, vec![3])).unwrap();
        e.add_constraint(
            "c",
            parse(&sc, "forall x. G (Sub(x) -> X !Sub(12))").unwrap(),
        )
        .unwrap();
        let mut tx = |t: Transaction| assert!(e.append(&t).unwrap().is_empty());
        // The first growth builds the seed while everything is resident.
        tx(Transaction::new().insert(sub, vec![7]));
        tx(Transaction::new().delete(sub, vec![7]));
        for _ in 0..8 {
            tx(Transaction::new().delete(fill, vec![3]));
            tx(Transaction::new().insert(fill, vec![3]));
        }
        // A growth, then an instant without one: the next growth's
        // seed catch-up reads resident instants only.
        tx(Transaction::new().insert(sub, vec![8]));
        tx(Transaction::new().delete(sub, vec![8]));
        assert!(e.history().base() > 2, "instant 1 must be spilled");
        let path = e.pager.as_ref().unwrap().path().to_path_buf();
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(0)
            .unwrap();
        let shape = |e: &Engine| {
            let ctx = &e.entries[0].ctx;
            let set = ctx.compiled.as_ref().unwrap();
            (set.units.len(), set.n_open, set.n_unsat, ctx.g.trace.len())
        };
        let before = shape(&e);
        let grow = Transaction::new()
            .insert(sub, vec![3])
            .insert(sub, vec![12]);
        assert!(e.append(&grow).is_err());
        assert_eq!(shape(&e), before);
    }

    /// Every live context's newest valuation, patched through the fact
    /// memo, equals a full encode of the newest state (which must find
    /// every letter interned already).
    fn assert_patched_like_full_encode(e: &mut Engine) {
        let state = e.history.state(e.history.len() - 1).clone();
        for entry in &mut e.entries {
            if matches!(entry.status, Status::Violated { .. }) {
                continue;
            }
            let g = &mut entry.ctx.g;
            let letters = g.letter_count();
            let full = g.state_to_prop(&state).expect("the state is over M");
            assert_eq!(
                g.letter_count(),
                letters,
                "{}: a letter was missing",
                entry.name
            );
            assert_eq!(g.trace.last(), Some(&full), "{}", entry.name);
        }
    }

    /// The engine-wide fact table and the per-context memos against a
    /// full encode and the reference pipeline: constraints registered
    /// after appends and after a truncation, a constraint with a
    /// constant, a batch that inserts and deletes one tuple in one
    /// transaction and repeats facts across transactions, a delete of a
    /// never-seen fact, growths, and a restore mid-run (which starts
    /// the table and the memos empty).
    #[test]
    fn shared_fact_ids_encode_every_context_like_a_full_encode() {
        let sc = order_schema();
        let (sub, fill) = (sc.pred("Sub").unwrap(), sc.pred("Fill").unwrap());
        let opts = CheckOptions::builder()
            .history_budget(HistoryBudget::Window(8))
            .build();
        let mut prod = Engine::new(sc.clone(), opts);
        let mut refr = Engine::new(sc.clone(), CheckOptions::reference());
        // Churn over ids 1..=8 (consecutive ids differ), plus a new
        // id every eleventh step.
        let id = |i: u64| {
            if i % 11 == 10 {
                100 + i
            } else {
                (i * 5) % 8 + 1
            }
        };
        let step = |i: u64| {
            let mut tx = Transaction::new();
            if i >= 1 {
                tx = tx
                    .delete(sub, vec![id(i - 1)])
                    .insert(fill, vec![id(i - 1)]);
            }
            if i >= 2 {
                tx = tx.delete(fill, vec![id(i - 2)]);
            }
            tx.insert(sub, vec![id(i)])
        };
        let suite = [
            ("resp", "forall x. G (Sub(x) -> X Fill(x))"),
            ("past", "forall x. !Fill(x) & G (!Sub(x) -> X !Fill(x))"),
            ("cap", "G !Sub(999)"),
            ("once", "forall x. G (Fill(x) -> X G !(Sub(x) & Fill(x)))"),
        ];
        let add = |prod: &mut Engine, refr: &mut Engine, (name, src): (&str, &str)| {
            let phi = parse(&sc, src).unwrap();
            let p = prod.add_constraint(name, phi.clone()).unwrap();
            let r = refr.add_constraint(name, phi).unwrap();
            assert_eq!(prod.status(p), refr.status(r), "{name}");
        };
        let names = |ev: &[MonitorEvent]| {
            ev.iter()
                .map(|v| (v.name.clone(), v.at))
                .collect::<Vec<_>>()
        };
        let append = |prod: &mut Engine, refr: &mut Engine, txs: &[Transaction]| {
            let (p, r) = (
                prod.append_batch(txs).unwrap(),
                refr.append_batch(txs).unwrap(),
            );
            for (pe, re) in p.iter().zip(&r) {
                assert_eq!(names(pe), names(re));
            }
            assert_patched_like_full_encode(prod);
        };
        add(&mut prod, &mut refr, suite[0]);
        for i in 0..5 {
            append(&mut prod, &mut refr, &[step(i)]);
        }
        assert_eq!(prod.history().base(), 0);
        add(&mut prod, &mut refr, suite[1]);
        for i in 5..30 {
            append(&mut prod, &mut refr, &[step(i)]);
        }
        assert!(prod.history().base() > 0, "truncated before the constant");
        add(&mut prod, &mut refr, suite[2]);
        add(&mut prod, &mut refr, suite[3]);
        // One batch: Sub(50) inserted and deleted in one transaction
        // (a never-seen element, net absent), facts repeated across it.
        let mut batch: Vec<Transaction> = (30..34).map(step).collect();
        batch[1] = batch[1].clone().insert(sub, vec![50]).delete(sub, vec![50]);
        batch[2] = batch[2].clone().delete(fill, vec![777]);
        append(&mut prod, &mut refr, &batch);
        assert!(!prod
            .history()
            .state(prod.history().len() - 3)
            .holds(sub, &[50]));
        let restored_at = 60;
        for i in 34..restored_at {
            append(&mut prod, &mut refr, &[step(i)]);
        }
        let (mut prod, _) = Engine::restore_bytes(&prod.snapshot_bytes(&[]), opts).unwrap();
        for i in restored_at..120 {
            let mut tx = step(i);
            if i % 7 == 0 {
                tx = tx.delete(fill, vec![600 + i]);
            }
            append(&mut prod, &mut refr, &[tx]);
        }
        let statuses = |e: &Engine| e.constraints().map(|c| e.status(c)).collect::<Vec<_>>();
        assert_eq!(statuses(&prod), statuses(&refr));
        assert!(
            prod.entries.iter().any(|e| e.status == Status::Satisfied),
            "some context stays live to the end"
        );
    }
}
