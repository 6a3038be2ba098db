//! The extension checker — Theorem 4.2.
//!
//! Decides *potential constraint satisfaction*: a constraint `φ` is
//! potentially satisfied at instant `t` if the current history
//! `(D0, …, Dt)` has an infinite extension to a model of `φ`. The
//! pipeline is ground (Theorem 4.1) → progress `w_D` (Lemma 4.2 phase 1)
//! → PTL satisfiability (phase 2). When an extension exists, the
//! ultimately-periodic propositional witness is decoded back to database
//! states (the decoding direction in the proof of Theorem 4.1).

use crate::engine::check_once;
use crate::error::Error;
use crate::ground::{GroundStats, GroundStrategy, Grounding};
use std::time::Duration;
use ticc_fotl::Formula;
use ticc_ptl::sat::SatStats;
use ticc_tdb::{History, State};

/// How eagerly a durable [`crate::Session`] hardens appended
/// transactions in its log (an ephemeral session logs nothing
/// regardless).
///
/// Theorem 4.1 makes durability cheap: the monitor's whole state is the
/// current database plus bounded per-constraint residues, so a snapshot
/// is `O(|snapshot|)` to write and restore, and the WAL only has to
/// carry the transactions since the last snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead logging even with a store (snapshots via
    /// explicit checkpoints still work).
    Off,
    /// Log every transaction to the WAL before returning, letting the
    /// OS schedule the flush. A crash can lose the tail the kernel had
    /// not written; recovery truncates to the last intact frame.
    #[default]
    Wal,
    /// Log and `fsync` every transaction. Nothing acknowledged is ever
    /// lost, at one device flush per append.
    WalFsync,
}

/// Memory budget for the history and the per-constraint traces — the
/// bounded-memory knob the paper's §3 feasibility separation makes
/// sound: each unit's template state is a function of the prefix that
/// carries everything its future steps need of it, past connectives
/// included (the grounding turns them into internal letters the state
/// pins), so the append path reads only the newest instant, and older
/// ones can be dropped from memory, with cold states paged to a
/// checksummed spill segment for the rare replay that still needs them
/// (seed catch-up on a growth).
///
/// Every setting is **bit-identical** on events and statuses to
/// [`HistoryBudget::Unbounded`] (property-tested across 120 seeds):
/// the budget changes *where* states live, never what the monitor
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistoryBudget {
    /// Keep every instant in memory (today's behaviour).
    #[default]
    Unbounded,
    /// Keep roughly `n` resident instants (at least one; truncation is
    /// hysteretic, so up to `2n` may be resident between truncations).
    Window(usize),
    /// Keep roughly `b` bytes of resident history, converted to a
    /// window via a per-instant size estimate.
    Bytes(usize),
}

impl HistoryBudget {
    /// Parses the shell / server syntax: `unbounded`, a window count
    /// `n`, or a byte budget like `64mb` / `512kb`.
    pub fn parse(s: &str) -> Result<HistoryBudget, String> {
        let s = s.trim().to_ascii_lowercase();
        if s == "unbounded" {
            return Ok(HistoryBudget::Unbounded);
        }
        let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
        let invalid = || format!("invalid history budget '{s}' (want unbounded|<n>|<n>kb|<n>mb)");
        let n: usize = digits.parse().map_err(|_| invalid())?;
        let bytes = |scale: usize| {
            n.checked_mul(scale)
                .map(HistoryBudget::Bytes)
                .ok_or_else(invalid)
        };
        match unit {
            "" => Ok(HistoryBudget::Window(n)),
            "kb" => bytes(1 << 10),
            "mb" => bytes(1 << 20),
            other => Err(format!(
                "invalid history budget unit '{other}' (want kb|mb)"
            )),
        }
    }
}

impl std::fmt::Display for HistoryBudget {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryBudget::Unbounded => write!(out, "unbounded"),
            HistoryBudget::Window(n) => write!(out, "window({n})"),
            HistoryBudget::Bytes(b) => write!(out, "bytes({b})"),
        }
    }
}

/// Which pipeline the engine runs. Crate-private: production is the
/// only pipeline reachable through the public API; the paper-shaped
/// reference exists for the equivalence suites and experiments (see
/// `CheckOptions::reference`, compiled only for tests and under the
/// `reference` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Pipeline {
    /// Indexed grounding, delta re-grounding, incremental encoding,
    /// and lazily built template automata stepping every constraint.
    #[default]
    Production,
    /// The paper-shaped oracle: odometer grounding, a full re-ground
    /// whenever the domain grows, a full re-encode of every state, and
    /// symbolic progression plus phase-2 satisfiability on every
    /// append — no template automata.
    Reference,
}

/// Options for [`check_potential_satisfaction`] and the
/// [`Engine`](crate::engine::Engine) layer.
///
/// Marked `#[non_exhaustive]`: construct through
/// [`CheckOptions::default()`] or [`CheckOptions::builder()`] so that
/// future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct CheckOptions {
    /// WAL write policy of a durable session.
    pub durability: Durability,
    /// Memory budget for the history and per-constraint traces.
    /// Bounded budgets truncate the in-memory prefix behind the
    /// budget's window and page cold states to a spill segment;
    /// results are bit-identical to
    /// [`HistoryBudget::Unbounded`].
    pub history_budget: HistoryBudget,
    /// Production unless built by `CheckOptions::reference`.
    pub(crate) pipeline: Pipeline,
}

impl CheckOptions {
    /// A builder starting from the defaults.
    pub fn builder() -> CheckOptionsBuilder {
        CheckOptionsBuilder {
            opts: CheckOptions::default(),
        }
    }

    /// The instantiation enumeration the pipeline grounds with: the
    /// indexed join in production (which itself falls back to the
    /// odometer outside the indexed class), the odometer in the
    /// reference.
    pub(crate) fn ground_strategy(&self) -> GroundStrategy {
        match self.pipeline {
            Pipeline::Production => GroundStrategy::Indexed,
            Pipeline::Reference => GroundStrategy::Odometer,
        }
    }

    /// The paper-shaped reference pipeline: odometer grounding, a full
    /// re-ground whenever the domain grows, a full re-encode of every
    /// state, and symbolic progression plus phase-2 satisfiability on
    /// every append — the oracle every production-vs-reference
    /// equivalence suite and experiment compares against. Compiled only for tests and under
    /// the `reference` feature, so no production build can select it.
    #[cfg(any(test, feature = "reference"))]
    pub fn reference() -> CheckOptions {
        CheckOptions {
            pipeline: Pipeline::Reference,
            ..CheckOptions::default()
        }
    }
}

/// Builder for [`CheckOptions`] — the supported way to construct
/// non-default options outside this crate.
///
/// ```
/// use ticc_core::{CheckOptions, Durability, HistoryBudget};
/// let opts = CheckOptions::builder()
///     .durability(Durability::WalFsync)
///     .history_budget(HistoryBudget::Window(1024))
///     .build();
/// assert_eq!(opts.history_budget, HistoryBudget::Window(1024));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptionsBuilder {
    opts: CheckOptions,
}

impl CheckOptionsBuilder {
    /// WAL write policy of a durable session.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.opts.durability = durability;
        self
    }

    /// Memory budget for the history and per-constraint traces.
    pub fn history_budget(mut self, budget: HistoryBudget) -> Self {
        self.opts.history_budget = budget;
        self
    }

    /// The finished options.
    pub fn build(self) -> CheckOptions {
        self.opts
    }
}

/// Per-phase wall-clock timings (the E5 decomposition).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Grounding (Theorem 4.1).
    pub ground: Duration,
    /// Progression + satisfiability (Lemma 4.2). The `ticc-ptl` facade
    /// runs them together; progression alone is `O(t·|φ_D|)`.
    pub decide: Duration,
}

/// Statistics of one check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Grounding sizes.
    pub ground: GroundStats,
    /// Satisfiability statistics (automaton states etc.).
    pub sat: SatStats,
    /// Wall-clock per phase.
    pub timings: PhaseTimings,
    /// Whether the constraint passed the syntactic safety check
    /// (advisory: Theorem 4.2 assumes a safety sentence; the check is a
    /// sufficient condition only).
    pub syntactically_safe: bool,
}

/// A decoded witness extension: database states whose infinite
/// repetition `prefix · cycleω`, appended after the history, yields a
/// model of the constraint.
#[derive(Debug, Clone)]
pub struct WitnessExtension {
    /// Transient states to append first.
    pub prefix: Vec<State>,
    /// States to repeat forever (non-empty).
    pub cycle: Vec<State>,
}

/// Outcome of a potential-satisfaction check.
pub struct CheckOutcome {
    /// Whether an infinite extension satisfying the constraint exists.
    pub potentially_satisfied: bool,
    /// A concrete witness extension when one exists.
    pub witness: Option<WitnessExtension>,
    /// Run statistics.
    pub stats: CheckStats,
    /// The grounding, for reuse (e.g. incremental monitoring).
    pub grounding: Grounding,
}

/// Decides whether `history` can be extended to an infinite temporal
/// database satisfying the universal safety sentence `phi`
/// (Theorem 4.2).
pub fn check_potential_satisfaction(
    history: &History,
    phi: &Formula,
    opts: &CheckOptions,
) -> Result<CheckOutcome, Error> {
    let shot = check_once(history, phi, opts)?;
    let (grounding, result) = (shot.grounding, shot.result);

    let witness = result.witness.as_ref().map(|lasso| WitnessExtension {
        prefix: lasso
            .prefix
            .iter()
            .map(|w| grounding.prop_to_state(w))
            .collect(),
        cycle: lasso
            .cycle
            .iter()
            .map(|w| grounding.prop_to_state(w))
            .collect(),
    });

    let stats = CheckStats {
        ground: grounding.stats(),
        sat: result.stats,
        timings: PhaseTimings {
            ground: shot.ground_time,
            decide: shot.decide_time,
        },
        syntactically_safe: ticc_fotl::classify::is_syntactically_safe(phi),
    };
    Ok(CheckOutcome {
        potentially_satisfied: result.satisfiable,
        witness,
        stats,
        grounding,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{ground, GroundMode};
    use std::sync::Arc;
    use ticc_fotl::parser::parse;
    use ticc_ptl::sat::{extends_with, SatResult, SatSolver};
    use ticc_tdb::{Schema, Value};

    /// The oracle route: ground with `mode`, then decide extendability
    /// with `solver` directly — no engine, no options.
    fn oracle(h: &History, phi: &Formula, mode: GroundMode, solver: SatSolver) -> SatResult {
        let mut g = ground(h, phi, mode).unwrap();
        extends_with(&mut g.arena, &g.trace, g.formula, solver).unwrap()
    }

    fn order_schema() -> Arc<Schema> {
        Schema::builder().pred("Sub", 1).pred("Fill", 1).build()
    }

    fn history(spec: &[(&[Value], &[Value])]) -> History {
        let sc = order_schema();
        let mut h = History::new(sc.clone());
        for (subs, fills) in spec {
            let mut s = State::empty(sc.clone());
            for &v in *subs {
                s.insert_named("Sub", vec![v]).unwrap();
            }
            for &v in *fills {
                s.insert_named("Fill", vec![v]).unwrap();
            }
            h.push_state(s);
        }
        h
    }

    fn once_only(sc: &Schema) -> Formula {
        parse(sc, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap()
    }

    #[test]
    fn clean_history_is_potentially_satisfied() {
        let h = history(&[(&[1], &[]), (&[2], &[1])]);
        let phi = once_only(h.schema());
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert!(out.potentially_satisfied);
        assert!(out.stats.syntactically_safe);
        let w = out.witness.unwrap();
        assert!(!w.cycle.is_empty());
    }

    #[test]
    fn double_submission_is_violated() {
        let h = history(&[(&[1], &[]), (&[1], &[])]);
        let phi = once_only(h.schema());
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert!(!out.potentially_satisfied);
        assert!(out.witness.is_none());
    }

    #[test]
    fn violation_detected_at_earliest_time_not_later() {
        // Prefix (Sub 1) alone is fine; after the duplicate it is not.
        let sc = order_schema();
        let phi = once_only(&sc);
        let good = history(&[(&[1], &[])]);
        assert!(
            check_potential_satisfaction(&good, &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied
        );
    }

    #[test]
    fn history_budget_parse_accepts_units_and_rejects_overflow() {
        assert_eq!(
            HistoryBudget::parse("unbounded"),
            Ok(HistoryBudget::Unbounded)
        );
        assert_eq!(HistoryBudget::parse("128"), Ok(HistoryBudget::Window(128)));
        assert_eq!(HistoryBudget::parse("4kb"), Ok(HistoryBudget::Bytes(4096)));
        assert_eq!(
            HistoryBudget::parse(" 64MB "),
            Ok(HistoryBudget::Bytes(64 << 20))
        );
        let unit = HistoryBudget::parse("8gb").unwrap_err();
        assert!(unit.contains("unit 'gb'"), "{unit}");
        // 2^44 MiB is 2^64 bytes: the shift used to wrap it to 0.
        for huge in ["17592186044416mb", "18014398509481984kb"] {
            let err = HistoryBudget::parse(huge).unwrap_err();
            assert!(err.contains("invalid history budget"), "{huge}: {err}");
        }
        assert!(HistoryBudget::parse("99999999999999999999").is_err());
    }

    #[test]
    fn full_and_folded_modes_agree() {
        let sc = order_schema();
        let phi = once_only(&sc);
        for h in [
            history(&[(&[1], &[])]),
            history(&[(&[1], &[]), (&[1], &[])]),
            history(&[(&[1], &[]), (&[2], &[1]), (&[], &[2])]),
        ] {
            let folded = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
            let full = oracle(&h, &phi, GroundMode::Full, SatSolver::Buchi);
            assert_eq!(
                folded.potentially_satisfied,
                full.satisfiable,
                "modes disagree on history of length {}",
                h.len()
            );
        }
    }

    #[test]
    fn witness_extension_respects_constraint() {
        // Extend the history by the witness and re-check: still
        // potentially satisfied (safety ⇒ prefix-closed).
        let h = history(&[(&[1], &[]), (&[2], &[1])]);
        let phi = once_only(h.schema());
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        let w = out.witness.unwrap();
        let mut extended = h.clone();
        for s in &w.prefix {
            extended.push_state(s.clone());
        }
        for _ in 0..3 {
            for s in &w.cycle {
                extended.push_state(s.clone());
            }
        }
        let again =
            check_potential_satisfaction(&extended, &phi, &CheckOptions::default()).unwrap();
        assert!(
            again.potentially_satisfied,
            "witness must itself be extensible"
        );
    }

    #[test]
    fn eventually_fill_is_always_potentially_satisfied_but_flagged_unsafe() {
        // ∀x □(Sub(x) ⇒ ◇Fill(x)) — not a safety formula: any history
        // extends (fill everything later). The checker still decides it;
        // stats flag the safety caveat.
        let h = history(&[(&[1], &[]), (&[2], &[])]);
        let phi = parse(h.schema(), "forall x. G (Sub(x) -> F Fill(x))").unwrap();
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert!(out.potentially_satisfied);
        assert!(!out.stats.syntactically_safe);
    }

    #[test]
    fn fifo_constraint_end_to_end() {
        let sc = order_schema();
        let src = "forall x y. G !(x != y & Sub(x) & \
                   ((!Fill(x)) U (Sub(y) & ((!Fill(x)) U (Fill(y) & !Fill(x))))))";
        let phi = parse(&sc, src).unwrap();
        // In-order fills: fine.
        let good = history(&[(&[1], &[]), (&[2], &[]), (&[], &[1]), (&[], &[2])]);
        assert!(
            check_potential_satisfaction(&good, &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied
        );
        // Out-of-order: 2 filled while 1 still pending.
        let bad = history(&[(&[1], &[]), (&[2], &[]), (&[], &[2])]);
        assert!(
            !check_potential_satisfaction(&bad, &phi, &CheckOptions::default())
                .unwrap()
                .potentially_satisfied
        );
    }

    #[test]
    fn empty_history_reduces_to_validity_of_extension() {
        let sc = order_schema();
        let phi = once_only(&sc);
        let h = History::new(sc.clone());
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert!(out.potentially_satisfied);
    }

    #[test]
    fn stats_are_populated() {
        let h = history(&[(&[1], &[]), (&[2], &[1])]);
        let phi = once_only(h.schema());
        let out = check_potential_satisfaction(&h, &phi, &CheckOptions::default()).unwrap();
        assert_eq!(out.stats.ground.external_vars, 1);
        assert!(out.stats.ground.mappings >= 3);
        // The constant-word safety probe may answer without building the
        // automaton (states == 0); the exhaustive engine must not.
        assert_eq!(out.stats.sat.prefix_len, 2);
        let exhaustive = oracle(&h, &phi, GroundMode::Folded, SatSolver::BuchiExhaustive);
        assert!(exhaustive.stats.states > 0);
        assert_eq!(exhaustive.satisfiable, out.potentially_satisfied);
    }
}
