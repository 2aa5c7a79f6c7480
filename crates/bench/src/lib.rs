//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5), plus supporting ablations. See `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Each experiment lives in [`experiments`] as a `run(Speed) -> …Result`
//! function whose result type implements `Display` (the paper-style table).
//! The `repro` binary dispatches on experiment ids; integration tests call
//! the same functions in [`Speed::Fast`] mode.
//!
//! Performance is measured by one harness, `hwbench` (`src/bin/hwbench/`,
//! a package of its own declared by the root `BENCHMARK.json`), and gated
//! by `ab_gate.py` beside this crate's manifest: it builds `hwbench` at a
//! parent commit and at `HEAD` and fails when the change loses an
//! end-to-end metric in at least nine of ten same-seed pairs by more than
//! the parent's own spread. The correctness checks that once lived in
//! per-area bench bins are tests: `tests/ingest_ledger.rs` here and the
//! fleet, record and meter-trait tests at the repository root.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod json;
pub mod table;

pub use experiments::Speed;
