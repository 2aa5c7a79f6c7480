//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5), plus supporting ablations. See `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Each experiment lives in [`experiments`] as a `run(Speed) -> …Result`
//! function whose result type implements `Display` (the paper-style table).
//! The `repro` binary dispatches on experiment ids; integration tests call
//! the same functions in [`Speed::Fast`] mode. The four `*_bench` bins
//! share their command line, report writer and `--check` gate through
//! [`gate`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod gate;
pub mod json;
pub mod table;

pub use experiments::Speed;
