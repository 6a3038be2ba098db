//! Temporal database substrate.
//!
//! Implements the data model of Section 2 of Chomicki & Niwiński (PODS
//! 1993): a *temporal database* is a sequence of first-order structures
//! (database states) over a fixed vocabulary, sharing one countably
//! infinite universe (here `N`, represented by [`Value`]). Constants are
//! rigid (same interpretation in every state); each predicate is
//! interpreted by a **finite** relation that may change from state to
//! state.
//!
//! The crate provides:
//! * schemas (predicate and constant symbols) — [`schema`],
//! * finite relations and database states — [`relation`], [`state`],
//! * finite-time histories with an append/transaction API — [`history`],
//!   [`update`],
//! * the set `R_D` of *relevant* elements from Lemma 4.1 and restriction
//!   to a subuniverse — [`relevant`],
//! * reproducible workload generators used by the examples and the
//!   benchmark harness — [`workload`] — driven by an in-repo
//!   deterministic PRNG — [`rng`].

pub mod history;
pub mod relation;
pub mod relevant;
pub mod rng;
pub mod schema;
pub mod state;
pub mod update;
pub mod workload;

pub use history::History;
pub use relation::Relation;
pub use relevant::relevant_elements;
pub use schema::{ConstId, PredId, Schema, SchemaBuilder};
pub use state::State;
pub use update::{Transaction, Update};

/// An element of the database universe (the natural numbers).
pub type Value = u64;

/// Errors raised by the substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdbError {
    /// A tuple's length does not match the predicate's declared arity.
    ArityMismatch {
        /// The predicate involved.
        pred: String,
        /// Declared arity.
        expected: usize,
        /// Tuple length supplied.
        got: usize,
    },
    /// A predicate or constant name was not found in the schema.
    UnknownSymbol(String),
}

impl std::fmt::Display for TdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdbError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for {pred}: expected {expected}, got {got}"
            ),
            TdbError::UnknownSymbol(s) => write!(f, "unknown symbol {s}"),
        }
    }
}

impl std::error::Error for TdbError {}
