//! # ticc — Temporal Integrity Constraint Checking
//!
//! A Rust implementation of Chomicki & Niwiński, *On the Feasibility of
//! Checking Temporal Integrity Constraints* (PODS 1993; JCSS 1995).
//!
//! Temporal integrity constraints restrict how a database may evolve
//! over time. This workspace implements the paper's decision procedure
//! for the decidable fragment — **universal safety sentences**, checked
//! in exponential time via grounding to propositional temporal logic
//! (Theorems 4.1–4.2) — along with an online monitor, a trigger engine
//! built on the paper's duality, and the Section 3 Turing-machine
//! constructions that delimit the undecidable side.
//!
//! ## Quickstart
//!
//! ```
//! use ticc::prelude::*;
//!
//! // A schema with an event predicate Sub (order submitted).
//! let schema = Schema::builder().pred("Sub", 1).pred("Fill", 1).build();
//!
//! // "An order can be submitted only once" (the paper's example).
//! let phi = parse(&schema, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
//!
//! let mut monitor = Engine::new(schema.clone(), CheckOptions::default());
//! let id = monitor.add_constraint("once-only", phi).unwrap();
//!
//! let sub = schema.pred("Sub").unwrap();
//! // Submit order 1, then clear it, then submit it AGAIN: violation.
//! monitor.append(&Transaction::new().insert(sub, vec![1])).unwrap();
//! monitor.append(&Transaction::new().delete(sub, vec![1])).unwrap();
//! let events = monitor.append(&Transaction::new().insert(sub, vec![1])).unwrap();
//! assert_eq!(events.len(), 1);
//! assert!(matches!(monitor.status(id), Status::Violated { at: 3 }));
//! ```
//!
//! ## Crate map
//!
//! * [`ptl`] — propositional temporal logic: progression, tableau and
//!   on-the-fly Büchi satisfiability (Lemma 4.2);
//! * [`fotl`] — first-order temporal logic: syntax, the paper's formula
//!   classification, parser, finite-history evaluation;
//! * [`tdb`] — the temporal database substrate;
//! * [`store`] — the durability layer: checksummed write-ahead log,
//!   engine snapshots, crash recovery;
//! * [`core`] — grounding (Theorem 4.1), the extension checker
//!   (Theorem 4.2), the incremental monitor, triggers, diagnostics;
//! * [`tm`] — the Section 3 Turing-machine encodings (`φ`, `φ̃`) and the
//!   Σ⁰₂ semi-decision procedure.

pub use ticc_core as core;
pub use ticc_fotl as fotl;
pub use ticc_ptl as ptl;
pub use ticc_store as store;
pub use ticc_tdb as tdb;
pub use ticc_tm as tm;

/// Interactive shell engine (drives the whole stack from text commands;
/// wrapped by the `ticc-shell` binary).
pub mod shell;

/// The one-import API surface: everything a typical checking session
/// needs.
///
/// ```
/// use ticc::prelude::*;
///
/// let schema = Schema::builder().pred("Sub", 1).build();
/// let phi = parse(&schema, "forall x. G (Sub(x) -> X G !Sub(x))").unwrap();
/// let opts = CheckOptions::builder().durability(Durability::Wal).build();
/// let mut monitor = Engine::new(schema.clone(), opts);
/// monitor.add_constraint("once-only", phi).unwrap();
/// ```
///
/// Covers: the lifecycle-owning [`Session`](ticc_core::Session) (opened
/// via [`Session::builder()`](ticc_core::Session::builder)), the
/// incremental [`Engine`](ticc_core::Engine) (the online monitor), the
/// [`TriggerEngine`](ticc_core::TriggerEngine) duality layer, one-shot
/// [`check_potential_satisfaction`](ticc_core::check_potential_satisfaction),
/// the unified [`Error`](ticc_core::Error), the
/// [`CheckOptions`](ticc_core::CheckOptions) builder, the durable log
/// ([`GroupWal`](ticc_core::GroupWal), which `SessionBuilder::store` and
/// `SessionBuilder::group` bind a session to), the database substrate
/// ([`Schema`](ticc_tdb::Schema), [`State`](ticc_tdb::State),
/// [`Transaction`](ticc_tdb::Transaction),
/// [`History`](ticc_tdb::History)), and the constraint
/// [`parse`](ticc_fotl::parser::parse)r.
///
/// [`Session::builder()`](ticc_core::Session::builder) owns the
/// schema/constraint/trigger/durability lifecycle; the bare
/// [`Engine`](ticc_core::Engine) suits embedders with their own
/// persistence and no session semantics.
pub mod prelude {
    pub use ticc_core::{
        check_potential_satisfaction, earliest_violation, explain, Action, CheckOptions,
        CheckOptionsBuilder, CheckOutcome, Committed, ConstraintId, Durability, Engine, Error,
        GroupWal, MonitorEvent, OpenSummary, Session, SessionBuilder, SessionStats, Status,
        Trigger, TriggerEngine,
    };
    pub use ticc_fotl::parser::parse;
    pub use ticc_fotl::Formula;
    pub use ticc_tdb::{History, Schema, State, Transaction, Value};
}
