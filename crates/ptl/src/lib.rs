//! Propositional linear-time temporal logic (PTL).
//!
//! This crate implements the propositional machinery that Section 4 of
//! Chomicki & Niwiński, *On the Feasibility of Checking Temporal Integrity
//! Constraints* (PODS 1993), reduces first-order temporal integrity
//! checking to:
//!
//! * a hash-consed formula arena with constant-folding constructors
//!   ([`Arena`]),
//! * negation normal form ([`nnf`]),
//! * **prefix rewriting / progression** through a sequence of propositional
//!   states — phase 1 of the paper's Lemma 4.2, after Sistla & Wolfson
//!   ([`progression`]),
//! * **satisfiability** — phase 2 of Lemma 4.2 — by two independent
//!   engines: the classic closure-set tableau of Sistla & Clarke
//!   ([`tableau`]) and an on-the-fly construction of a generalized Büchi
//!   automaton ([`buchi`]) with SCC-based emptiness ([`emptiness`]),
//! * the combined *prefix extension* decision ([`sat`]): can a finite
//!   sequence of propositional states be extended to an infinite model of
//!   a formula?
//! * evaluation over finite traces (including the past operators `●` and
//!   `since`) and over ultimately-periodic (lasso) words, used as testing
//!   oracles and to exhibit witnesses ([`trace`], [`lasso`]),
//! * the syntactically safe fragment and bad-prefix detection
//!   ([`safety`]), and rewriting-based simplification ([`simplify`]),
//! * safety automata built lazily per residue *template* (shape modulo
//!   letter renaming): states discovered and labelled with their sat
//!   verdicts as runs reach them, edges memoised, for `u32`-state
//!   online stepping ([`automaton`]),
//! * structured-key atom interning shared by the grounding and the
//!   state encoding ([`interner`]),
//! * a small text syntax for formulas ([`parser`]).
//!
//! Time is isomorphic to the natural numbers; models are infinite
//! sequences of propositional states, exactly as in Section 2 of the
//! paper.

pub mod arena;
pub mod automaton;
pub mod buchi;
pub mod closure;
pub mod emptiness;
pub mod interner;
pub mod lasso;
pub mod nnf;
pub mod parser;
pub mod progression;
pub mod safety;
pub mod sat;
pub mod simplify;
pub mod tableau;
pub mod trace;

pub use arena::{Arena, AtomId, FormulaId, Node};
pub use automaton::{SafetyAutomaton, TemplateKey};
pub use buchi::{Buchi, BuchiNode};
pub use interner::AtomInterner;
pub use lasso::Lasso;
pub use progression::progress;
pub use sat::{extends, is_satisfiable, SatResult, SatSolver};
pub use trace::PropState;
