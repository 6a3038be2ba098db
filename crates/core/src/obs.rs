//! Observability spine: counters and timers for the incremental engine.
//!
//! Every grounding, progression, and satisfiability decision in the
//! [`engine`](crate::engine) layer increments monotonic counters and
//! accumulates wall-clock time here, so the shell's `:stats` command
//! and the bench harness can read one machine-readable snapshot
//! ([`EngineStats`]) instead of scraping logs. No external
//! dependencies — plain `u64` counters and [`std::time`] durations.

use std::time::{Duration, Instant};

/// Counters for the engine's bounded memo layers — the residue
/// satisfiability memo and the template automata's edge memo — plus
/// the letter-index gauge. One sub-struct so the engine, the
/// shell's `:stats` view, and the bench columns all read cache activity
/// from a single source of truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Satisfiability answers served from the per-residue memo.
    pub sat_hits: u64,
    /// Entries dropped from the satisfiability memo at its size bound.
    pub sat_evictions: u64,
    /// Template edge-memo lookups answered from the memo: a unit's
    /// `(state, column)` successor known without progression.
    pub transition_hits: u64,
    /// Template edge-memo lookups that discovered the edge: one
    /// progression in the template's arena, plus the labelling of the
    /// successor if that state is new.
    pub transition_misses: u64,
    /// Edges dropped from template edge memos at their size bound
    /// (states are never dropped).
    pub transition_evictions: u64,
    /// Gauge: engine fact ids resolved to a letter, summed over the
    /// groundings' fact → letter memos (the incremental encoding's
    /// lookups; the name predates the memo).
    pub letter_index_len: u64,
}

impl CacheStats {
    /// Whether any cache activity has been observed (gates the
    /// `cache:` section of [`EngineStats::render`]).
    pub fn any(&self) -> bool {
        self.sat_hits
            + self.sat_evictions
            + self.transition_hits
            + self.transition_misses
            + self.transition_evictions
            + self.letter_index_len
            > 0
    }
}

/// Counters and gauges for the tiered history store — truncation
/// behind the retention horizon and the cold-state spill segment.
/// Gauges describe the current tiering; counters are monotonic over
/// the engine's lifetime. All zero while the history budget is
/// `Unbounded` (the default), which gates the `history:` section of
/// [`EngineStats::render`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryStats {
    /// Gauge: states resident in memory (the retained suffix).
    pub resident_states: u64,
    /// Gauge: estimated bytes held by resident states and
    /// per-constraint traces.
    pub resident_bytes: u64,
    /// Gauge: instants truncated behind the retention horizon (the
    /// history's `base`; also the first spilled-to-disk instant
    /// count).
    pub spilled_instants: u64,
    /// Gauge: distinct states in the spill segment (instants dedup to
    /// pages, so this is ≤ `spilled_instants`).
    pub spilled_distinct: u64,
    /// Gauge: bytes of the spill segment file.
    pub spilled_bytes: u64,
    /// Truncations performed (each drops a prefix of resident states).
    pub truncations: u64,
    /// Cold states paged back in from the spill segment (delta
    /// re-ground replays reaching behind the horizon).
    pub page_loads: u64,
    /// Estimated heap bytes reclaimed by truncations (states plus
    /// trace words dropped).
    pub reclaimed_bytes: u64,
}

impl HistoryStats {
    /// Whether the tiered history store has done anything (gates the
    /// `history:` section of [`EngineStats::render`]).
    pub fn any(&self) -> bool {
        self.spilled_instants
            + self.spilled_distinct
            + self.spilled_bytes
            + self.truncations
            + self.page_loads
            + self.reclaimed_bytes
            > 0
    }
}

/// A machine-readable snapshot of the engine's counters, timers, and
/// size gauges. Counters are monotonic over the engine's lifetime;
/// gauges reflect the moment the snapshot was taken.
///
/// `appends` counts transactions. `fast_appends`, `regrounds`,
/// `delta_grounds` and `automaton_appends` count *constraint-steps*:
/// one per live constraint per transaction, so an append over `n` live
/// constraints adds `n` to them. Every constraint-step is exactly one
/// of a fast append, a delta re-ground, or (reference pipeline only) a
/// full re-ground.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Transactions applied.
    pub appends: u64,
    /// Constraint-steps that brought no new relevant element: encode
    /// one state and step the residue (an occurrence activation counts
    /// here too).
    pub fast_appends: u64,
    /// Initial groundings (constraint registration, one-shot checks).
    pub grounds: u64,
    /// Constraint-steps that rebuilt the grounding from scratch over
    /// the whole history (the reference pipeline's route for a new
    /// relevant element).
    pub regrounds: u64,
    /// Constraint-steps that brought new relevant elements and grew
    /// `Ψ_D` incrementally: only the instantiations mentioning them
    /// joined, bound from the context's seed units.
    pub delta_grounds: u64,
    /// Instantiations added to `Ψ_D` by delta re-groundings and
    /// occurrence activations. Production binds each from a seed unit
    /// (copied states, renamed letters) without grounding it, so the
    /// grounding's formula and its size gauges do not grow with them.
    pub new_conjuncts: u64,
    /// Instantiations brought up to date over the stored prefix by
    /// delta re-groundings and occurrence activations — stays
    /// `O(|Δ-part|)`, while a full rebuild re-derives all `|M|^k`
    /// instantiations. Production brings each up to date by copying
    /// its seed's states, so this equals `new_conjuncts`; the trace
    /// reads behind it are in `replay_steps`.
    pub replayed_conjuncts: u64,
    /// Single-state *symbolic* progression steps of the reference
    /// pipeline: a build's pass over the history and every append.
    /// Production never progresses a grounding's residue, so it reads
    /// 0 there.
    pub progress_steps: u64,
    /// Template runs over stored instants, edge-memo lookups with no
    /// progression of the grounding: the instants registration replays
    /// its units over; per growth, seeds × the instants since the
    /// previous growth (the seed catch-up, through the growing
    /// instant); and the instants a seed built by grounding and replay
    /// (a context's first growth, after a restore) runs over.
    pub replay_steps: u64,
    /// Letters patched in place by the incremental encoding (tuples
    /// inserted/deleted by transactions) — the
    /// `O(|Δtx|)` work a full re-encode of the state would hide.
    pub encode_patched_atoms: u64,
    /// Phase-2 satisfiability runs.
    pub sat_checks: u64,
    /// Constraint-steps taken on template automata: every unit advanced
    /// through its template's edge memo, no progression of the
    /// grounding, and phase 2 only for an open shared unit. Every
    /// production constraint-step is one.
    pub automaton_appends: u64,
    /// Individual unit state transitions taken inside compiled
    /// template automata (dormant units — self-loops under an
    /// unchanged column — are skipped, so this stays `O(|Δtx|)` per
    /// append).
    pub automaton_steps: u64,
    /// Cache-layer counters (satisfiability memo, template edge memo,
    /// letter index).
    pub cache: CacheStats,
    /// Tiered-history counters and gauges (truncation + spill); all
    /// zero under the default `HistoryBudget::Unbounded`.
    pub history: HistoryStats,
    /// Gauge: interned propositional letters across live groundings.
    pub letters: u64,
    /// Gauge: formula-arena DAG nodes across live groundings.
    pub arena_nodes: u64,
    /// Gauge: ground instantiations (`|M|^k`) across live groundings.
    pub mappings: u64,
    /// Gauge: instantiations actually enumerated and ground across live
    /// groundings — equals `mappings` under the odometer, the pruned
    /// count under the indexed strategy.
    pub inst_enumerated: u64,
    /// Gauge: instantiations the indexed strategy skipped because none
    /// of their flexible atoms ever occur in the history (each is
    /// subsumed by the canonical rigid-false residue).
    pub inst_pruned: u64,
    /// Gauge: enumerated instantiations whose entire ground conjunct
    /// hash-consed to a formula already produced by an earlier
    /// instantiation (cross-instantiation structure sharing).
    pub inst_shared: u64,
    /// Gauge: distinct template automata across live contexts — one
    /// per residue shape modulo letter renaming, shared by every
    /// isomorphic instantiation.
    pub templates_compiled: u64,
    /// Gauge: automaton states discovered so far across all templates
    /// (templates discover states lazily, as runs reach them).
    pub automaton_states: u64,
    /// Gauge: instantiation units currently bound to a compiled
    /// template (each carries only a `u32` state).
    pub automaton_insts: u64,
    /// Wall-clock spent grounding (initial, full, and delta).
    pub ground_time: Duration,
    /// Wall-clock spent building and joining the atom-occurrence index
    /// (subset of `ground_time`'s phase; zero under the odometer).
    pub index_build_time: Duration,
    /// Wall-clock this process spent discovering template states and
    /// edges (progression in the template arenas plus labelling) — a
    /// gauge over the live templates, so a restored engine counts only
    /// what it rediscovered itself.
    pub automaton_compile_time: Duration,
    /// Wall-clock spent advancing residues: template stepping and
    /// replay (discovery included), or the reference's progression.
    pub progress_time: Duration,
    /// Wall-clock spent in phase-2 satisfiability.
    pub sat_time: Duration,
    /// Batched appends committed through `Engine::append_batch` (each
    /// steps the whole batch in one constraint sweep).
    pub batches: u64,
    /// Transactions that went through batched appends;
    /// `batched_txs / batches` is the mean drained batch size.
    pub batched_txs: u64,
    /// Capacity growths of the encoding scratch buffers: the engine's
    /// net-effect lists and the groundings' patched-letter lists.
    /// After warm-up a steady-state append reuses them, so this stays
    /// flat no matter how many appends run (asserted by test) — part
    /// of the no-alloc hot-path discipline.
    pub scratch_allocs: u64,
}

impl EngineStats {
    /// A human-readable multi-line rendering (the `:stats` shell view).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("engine counters:\n");
        s.push_str(&format!("  appends             {}\n", self.appends));
        s.push_str(&format!("  fast appends        {}\n", self.fast_appends));
        s.push_str(&format!("  grounds             {}\n", self.grounds));
        s.push_str(&format!("  full regrounds      {}\n", self.regrounds));
        s.push_str(&format!("  delta regrounds     {}\n", self.delta_grounds));
        s.push_str(&format!("  new conjuncts       {}\n", self.new_conjuncts));
        s.push_str(&format!(
            "  replayed conjuncts  {}\n",
            self.replayed_conjuncts
        ));
        s.push_str(&format!("  progress steps      {}\n", self.progress_steps));
        s.push_str(&format!("  replay steps        {}\n", self.replay_steps));
        s.push_str(&format!(
            "  patched atoms       {}\n",
            self.encode_patched_atoms
        ));
        s.push_str(&format!("  sat checks          {}\n", self.sat_checks));
        s.push_str(&format!("  batches             {}\n", self.batches));
        s.push_str(&format!("  batched txs         {}\n", self.batched_txs));
        s.push_str(&format!("  scratch allocs      {}\n", self.scratch_allocs));
        s.push_str("engine gauges:\n");
        s.push_str(&format!("  letters             {}\n", self.letters));
        s.push_str(&format!("  arena nodes         {}\n", self.arena_nodes));
        s.push_str(&format!("  mappings            {}\n", self.mappings));
        s.push_str(&format!("  inst enumerated     {}\n", self.inst_enumerated));
        s.push_str(&format!("  inst pruned         {}\n", self.inst_pruned));
        s.push_str(&format!("  inst shared         {}\n", self.inst_shared));
        s.push_str("engine timers:\n");
        s.push_str(&format!("  ground time         {:?}\n", self.ground_time));
        s.push_str(&format!(
            "  index build time    {:?}\n",
            self.index_build_time
        ));
        s.push_str(&format!("  progress time       {:?}\n", self.progress_time));
        s.push_str(&format!("  sat time            {:?}", self.sat_time));
        if self.automata_any() {
            s.push_str("\nautomata:\n");
            s.push_str(&format!(
                "  templates compiled  {}\n",
                self.templates_compiled
            ));
            s.push_str(&format!(
                "  automaton states    {}\n",
                self.automaton_states
            ));
            s.push_str(&format!("  bound insts         {}\n", self.automaton_insts));
            s.push_str(&format!(
                "  automaton appends   {}\n",
                self.automaton_appends
            ));
            s.push_str(&format!("  automaton steps     {}\n", self.automaton_steps));
            s.push_str(&format!(
                "  compile time        {:?}",
                self.automaton_compile_time
            ));
        }
        if self.cache.any() {
            let c = &self.cache;
            s.push_str("\ncache:\n");
            s.push_str(&format!("  sat memo hits       {}\n", c.sat_hits));
            s.push_str(&format!("  sat memo evictions  {}\n", c.sat_evictions));
            s.push_str(&format!("  transition hits     {}\n", c.transition_hits));
            s.push_str(&format!("  transition misses   {}\n", c.transition_misses));
            s.push_str(&format!(
                "  transition evicted  {}\n",
                c.transition_evictions
            ));
            s.push_str(&format!("  letter index        {}", c.letter_index_len));
        }
        if self.history.any() {
            let h = &self.history;
            s.push_str("\nhistory:\n");
            s.push_str(&format!("  resident states     {}\n", h.resident_states));
            s.push_str(&format!("  resident bytes      {}\n", h.resident_bytes));
            s.push_str(&format!("  spilled instants    {}\n", h.spilled_instants));
            s.push_str(&format!("  spilled distinct    {}\n", h.spilled_distinct));
            s.push_str(&format!("  spilled bytes       {}\n", h.spilled_bytes));
            s.push_str(&format!("  truncations         {}\n", h.truncations));
            s.push_str(&format!("  page loads          {}\n", h.page_loads));
            s.push_str(&format!("  reclaimed bytes     {}", h.reclaimed_bytes));
        }
        s
    }

    /// Whether any template-automaton activity has been observed (gates
    /// the `automata:` section of [`EngineStats::render`]).
    pub fn automata_any(&self) -> bool {
        self.templates_compiled
            + self.automaton_states
            + self.automaton_insts
            + self.automaton_appends
            + self.automaton_steps
            > 0
            || self.automaton_compile_time > Duration::ZERO
    }
}

/// A running wall-clock timer; [`Timer::finish`] adds the elapsed time
/// to an accumulator on the stats struct.
#[derive(Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the clock.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Stops the clock, adding the elapsed time to `acc`.
    pub fn finish(self, acc: &mut Duration) {
        *acc += self.0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = EngineStats::default();
        assert_eq!(s.appends, 0);
        assert_eq!(s.ground_time, Duration::ZERO);
    }

    #[test]
    fn render_mentions_every_counter() {
        let s = EngineStats {
            appends: 3,
            delta_grounds: 2,
            replayed_conjuncts: 5,
            ..Default::default()
        };
        let r = s.render();
        for needle in [
            "appends",
            "delta regrounds",
            "replayed conjuncts",
            "replay steps",
            "patched atoms",
            "ground time",
            "inst enumerated",
            "inst pruned",
            "inst shared",
            "index build time",
            "batched txs",
            "scratch allocs",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in render");
        }
        assert!(r.contains("  appends             3"));
    }

    #[test]
    fn automata_section_renders_only_when_used() {
        let s = EngineStats::default();
        assert!(!s.render().contains("automata:"));
        let s = EngineStats {
            templates_compiled: 2,
            automaton_states: 9,
            automaton_insts: 100,
            automaton_appends: 40,
            automaton_steps: 7,
            ..Default::default()
        };
        let r = s.render();
        assert!(r.contains("automata:"));
        assert!(r.contains("templates compiled  2"));
        assert!(r.contains("automaton states    9"));
        assert!(r.contains("bound insts         100"));
        assert!(r.contains("automaton appends   40"));
        assert!(r.contains("automaton steps     7"));
        assert!(r.contains("compile time"));
    }

    #[test]
    fn cache_section_renders_only_when_used() {
        let s = EngineStats::default();
        assert!(!s.render().contains("cache:"));
        let s = EngineStats {
            cache: CacheStats {
                sat_hits: 2,
                transition_hits: 7,
                transition_misses: 3,
                letter_index_len: 11,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = s.render();
        assert!(r.contains("cache:"));
        assert!(r.contains("transition hits     7"));
        assert!(r.contains("letter index        11"));
    }

    #[test]
    fn history_section_renders_only_when_used() {
        let s = EngineStats::default();
        assert!(!s.render().contains("history:"));
        let s = EngineStats {
            history: HistoryStats {
                resident_states: 64,
                spilled_instants: 936,
                spilled_distinct: 12,
                truncations: 3,
                page_loads: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = s.render();
        assert!(r.contains("history:"));
        assert!(r.contains("resident states     64"));
        assert!(r.contains("spilled instants    936"));
        assert!(r.contains("spilled distinct    12"));
        assert!(r.contains("truncations         3"));
        assert!(r.contains("page loads          5"));
    }

    #[test]
    fn timer_accumulates() {
        let mut acc = Duration::ZERO;
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(2));
        t.finish(&mut acc);
        assert!(acc >= Duration::from_millis(2));
        let t2 = Timer::start();
        t2.finish(&mut acc);
        assert!(acc >= Duration::from_millis(2));
    }
}
