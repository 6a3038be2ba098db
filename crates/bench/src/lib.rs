//! Shared workload/constraint families and table utilities for the
//! benchmark harness.
//!
//! The paper has no empirical evaluation; the experiments regenerate its
//! *complexity claims* (see `DESIGN.md` §6 and `EXPERIMENTS.md`). Each
//! experiment is a row generator of the table-printing `experiments`
//! binary.

pub mod bad_prefix;
pub mod families;
pub mod json;
pub mod latency;
pub mod server_load;
pub mod table;

pub use families::*;
pub use table::{time_best_of, Table};
