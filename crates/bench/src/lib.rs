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

/// Parses a `--threads off|auto|<n>` argument from the process argument
/// list, defaulting to `Fixed(4)` so every bench reports a sequential
/// vs parallel column pair out of the box.
pub fn threads_arg() -> ticc_core::Threads {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--threads" {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("--threads needs a value (off|auto|<count>)"));
            return ticc_core::Threads::parse(v).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    ticc_core::Threads::Fixed(4)
}
