//! Temporal integrity checking — the core of Chomicki & Niwiński (PODS
//! 1993).
//!
//! Given a finite history `D = (D0, …, Dt)` and a *universal safety
//! sentence* `φ ≡ ∀x1 … xk ψ` (external universal quantifiers only,
//! quantifier-free matrix under the future temporal connectives), this
//! crate decides **potential constraint satisfaction**: does `D` extend
//! to an infinite temporal database satisfying `φ`?
//!
//! The pipeline is the paper's Section 4:
//!
//! 1. [`mod@ground`] — Theorem 4.1: reduce `(D, φ)` to a propositional
//!    temporal formula `φ_D` over the vocabulary `L_D` (letters `(a=b)`
//!    and `p(a1,…,ar)` for `a_i ∈ M ∪ CL`, `M = R_D ∪ {z1…zk}`) plus a
//!    propositional state sequence `w_D`;
//! 2. [`extension`] — Theorem 4.2: decide whether `w_D` extends to a
//!    model of `φ_D` via prefix rewriting + PTL satisfiability
//!    (Lemma 4.2, implemented in `ticc-ptl`), in time
//!    `O(t·(|φ|·|R_D|)^max(k,l)) + 2^O((|φ|·|R_D|)^max(k,l))`.
//!
//! On top of the decision procedure sits one shared persistent layer:
//! * [`engine`] — the incremental [`Engine`]: per-constraint grounding
//!   contexts with residue progression, memoised satisfiability, and
//!   **delta re-grounding** (when `R_D` grows by Δ, only instantiations
//!   mentioning Δ are ground and replayed through the stored trace —
//!   `O(t·|Δ-part|)` instead of `O(t·|φ_D|)`);
//! * [`obs`] — the observability spine: [`EngineStats`] counters,
//!   gauges, and timers, rendered by the shell's `:stats` command.
//!
//! The engine is the online integrity monitor. Its other consumers:
//! * [`trigger`] — condition–action triggers via the paper's duality:
//!   *"if C then A" fires for θ iff `¬Cθ` is **not** potentially
//!   satisfied*;
//! * [`extension`] — one-shot potential-satisfaction checks
//!   (Theorem 4.2) through the engine's `check_once` path;
//! * [`diagnostics`] — earliest-violation search;
//! * [`counter`] — the binary-counter constraint family realising the
//!   exponential lower-bound shape argued in Section 6.

pub mod counter;
pub mod diagnostics;
pub mod engine;
pub mod error;
pub mod explain;
pub mod extension;
mod fact;
pub mod ground;
#[cfg(test)]
mod monitor;
pub mod obs;
mod seed;
pub mod session;
pub mod snapshot;
pub mod spill;
pub mod trigger;

pub use diagnostics::earliest_violation;
pub use engine::{ConstraintId, Engine, GroundingContext, MonitorEvent, Status};
pub use error::Error;
pub use explain::explain;
pub use extension::{
    check_potential_satisfaction, CheckOptions, CheckOptionsBuilder, CheckOutcome, CheckStats,
    Durability, HistoryBudget,
};
pub use ground::{
    ground, ground_indexed, GroundError, GroundMode, GroundStats, GroundStrategy, Grounding,
    LetterKey,
};
pub use obs::{CacheStats, EngineStats, HistoryStats};
pub use session::{
    group_stats_json, stats_json_with, Committed, OpenSummary, ParkedSession, Session,
    SessionBuilder, SessionStats, STATS_SCHEMA,
};
pub use ticc_store::{GroupStats, GroupWal, StoreError};
pub use trigger::{Action, FiredTrigger, Trigger, TriggerEngine};
