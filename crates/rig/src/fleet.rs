//! The fleet engine: thousands to millions of concurrent simulated lines
//! behind one declarative spec.
//!
//! The paper's end game is not one water station but a *network* of them —
//! "a smart water grid scenario" where every line carries the same MEMS
//! probe and the operator asks population questions: what resolution does
//! the 99th-percentile meter deliver, how much of the fleet's simulated
//! time was spent degraded, which fault classes actually bite in the
//! field? A [`Campaign`](crate::Campaign) answers per-run questions;
//! [`FleetSpec`] scales the same machinery to populations.
//!
//! # Shape
//!
//! A [`FleetSpec`] is a *template*: one meter configuration, one scenario,
//! one [`Windows`] plan — plus a line count and a [`LineVariation`]
//! describing how individual lines differ (independent component
//! tolerances and turbulence via derived seeds, optional flow-demand
//! jitter, optional fault schedules on a strided subset). Calling
//! [`FleetSpec::run`] stamps out one [`RunSpec`] per line, executes them
//! in fixed-size batches over the deterministic scoped-thread pool
//! ([`exec::parallel_map_indexed`]), and folds each finished line into a
//! compact [`LineSummary`] **inside the worker** — the trace, meter and
//! event log die with the run.
//!
//! Every line is forced to [`RecordPolicy::MetricsOnly`]: the streaming
//! reductions (`rig::record`) carry everything the aggregates need, and
//! the per-line trace heap is **zero bytes** by construction —
//! [`FleetAggregates::trace_heap_bytes`] reports the measured total so tests
//! can pin it.
//!
//! # Bounded memory: sketches and shards
//!
//! Population percentiles fold through a fixed-size
//! [`QuantileSketch`] accumulated in a
//! [`ShardAggregates`], so the running state of a fleet is **O(shard)**,
//! independent of the line count. Small fleets (up to
//! [`FleetSpec::exact_threshold`] lines) additionally retain every
//! [`LineSummary`] and report *exact* nearest-rank percentiles; above the
//! threshold only the sketch survives (α ≈ 1 % relative error, pinned by
//! proptest) and [`FleetOutcome::lines`] comes back empty.
//!
//! Disjoint line ranges run as independent [`FleetShard`]s whose
//! [`ShardAggregates`] merge associatively ([`ShardAggregates::merge`])
//! into the same bits the monolithic run produces — the building block
//! for multi-process fan-out. [`FleetSpec::run_sharded`] demonstrates the
//! split-run-merge cycle in process.
//!
//! # Checkpoint/resume
//!
//! [`FleetSpec::run_checkpointed`] persists the accumulated
//! [`ShardAggregates`] (and retained summaries) every few batches via
//! [`FleetCheckpoint`]; a killed run
//! re-invoked with the same spec and path resumes from the last
//! checkpoint and finishes with **bit-identical** aggregates. This works
//! because line `i`'s spec — including its RNG lanes — is a pure function
//! of the fleet spec and `i`: nothing mid-line ever needs serializing,
//! only the index of the next line to run and the merged prefix.
//!
//! # Determinism
//!
//! Line `i`'s spec is a pure function of the fleet spec and `i` (seeds via
//! [`derive_seed`], jitter from the same stream), each line runs
//! single-threaded, batches merge in line order, and the aggregation fold
//! visits summaries in line order; sketch merges are integer bucket
//! additions, associative under any grouping. The whole [`FleetOutcome`]
//! is therefore bit-for-bit identical at any `--jobs` count, batch size
//! or shard split — the same guarantee the campaign layer makes, lifted
//! to populations.
//!
//! ```no_run
//! use hotwire_core::FlowMeterConfig;
//! use hotwire_rig::fleet::{FleetSpec, LineVariation};
//! use hotwire_rig::{Scenario, Windows};
//!
//! let fleet = FleetSpec::new(
//!     "district-7",
//!     FlowMeterConfig::test_profile(),
//!     Scenario::steady(100.0, 4.0),
//!     0xF1EE7,
//! )
//! .with_lines(1000)
//! .with_windows(Windows::settled(2.0, 2.0).with_err(2.0, f64::INFINITY))
//! .with_variation(LineVariation::new().with_flow_jitter(0.05));
//! let outcome = fleet.run()?;
//! println!("{}", outcome.aggregates);
//! assert_eq!(outcome.aggregates.trace_heap_bytes, 0);
//! # Ok::<(), hotwire_rig::fleet::FleetError>(())
//! ```

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;

use crate::campaign::{
    check_line, derive_seed, Calibration, LineConfig, RunOutcome, RunSpec, SpecError, Windows,
};
use crate::checkpoint::{CheckpointError, FleetCheckpoint};
use crate::exec;
use crate::fault::FaultSchedule;
use crate::maintain::{Maintenance, MaintenanceCounters};
use crate::metrics;
use crate::modality::Modality;
use crate::record::{HealthCensus, RecordPolicy};
use crate::scenario::Scenario;
use crate::sketch::QuantileSketch;
use hotwire_core::config::fnv1a64;
use hotwire_core::{CoreError, FlowMeterConfig, Meter, TickClock};
use hotwire_physics::MafParams;

/// Fault schedules applied to a strided subset of a fleet's lines.
///
/// Every `stride`-th line (phase `offset`) receives a copy of `schedule`
/// with a line-derived seed, so the *timing and kinds* repeat across the
/// afflicted subset while the stochastic fault content (corrupted bytes,
/// flipped bits) stays independent per line.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTemplate {
    /// Apply the schedule to lines where `i % stride == offset`.
    /// [`FleetSpec::validate`] rejects `stride == 0`.
    pub stride: usize,
    /// Phase of the afflicted subset (`offset < stride`).
    pub offset: usize,
    /// The event timeline to copy onto each afflicted line (its `seed` is
    /// replaced by a per-line derived seed).
    pub schedule: FaultSchedule,
}

impl FaultTemplate {
    /// Whether line `i` is in the afflicted subset.
    pub fn applies_to(&self, line: usize) -> bool {
        let stride = self.stride.max(1);
        line % stride == self.offset % stride
    }
}

/// How individual lines of a fleet differ from the template.
///
/// Component-tolerance and turbulence diversity is automatic — every line
/// gets independent meter and line seeds derived from the fleet seed — so
/// the default variation already models a population of distinct physical
/// meters on distinct physical lines. The knobs here add *environmental*
/// diversity on top.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineVariation {
    /// Per-line flow-demand jitter: line `i`'s flow schedule is the
    /// template's scaled by a deterministic uniform factor in
    /// `[1 − j, 1 + j]` ([`Schedule::scaled`](crate::Schedule::scaled)).
    /// `0.0` (default) = every line sees the template demand.
    pub flow_jitter: f64,
    /// Optional fault schedules on a strided subset of lines.
    pub faults: Option<FaultTemplate>,
}

impl LineVariation {
    /// No variation beyond the automatic per-line seed diversity.
    pub fn new() -> Self {
        LineVariation::default()
    }

    /// Sets the per-line flow-demand jitter fraction (e.g. `0.05` = each
    /// line's demand uniformly within ±5 % of the template).
    #[must_use]
    pub fn with_flow_jitter(mut self, fraction: f64) -> Self {
        self.flow_jitter = fraction;
        self
    }

    /// Applies `schedule` to every `stride`-th line (starting at line
    /// `offset`), each copy reseeded per line.
    #[must_use]
    pub fn with_faults_every(
        mut self,
        stride: usize,
        offset: usize,
        schedule: FaultSchedule,
    ) -> Self {
        self.faults = Some(FaultTemplate {
            stride,
            offset,
            schedule,
        });
        self
    }
}

/// A degenerate [`FleetSpec`] caught by [`FleetSpec::validate`] before
/// any line runs (previously these hung the batch loop or produced
/// nonsense deep in the aggregation fold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetSpecError {
    /// The fleet has no lines.
    NoLines,
    /// `batch_size` is zero — the batch loop would never advance.
    ZeroBatchSize,
    /// The fault template's `stride` is zero.
    ZeroFaultStride,
    /// The fault template's `offset` does not lie below its `stride`.
    FaultOffsetOutOfRange {
        /// The out-of-range phase.
        offset: usize,
        /// The template's stride.
        stride: usize,
    },
    /// The template line's run inputs fail the per-line checks
    /// [`RunSpec::validate`] applies too (the fault template's schedule
    /// stands in for the line's faults).
    Line(SpecError),
    /// `flow_jitter` is not a finite fraction in `[0, 1)`.
    BadFlowJitter,
}

impl core::fmt::Display for FleetSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetSpecError::NoLines => write!(f, "fleet has zero lines"),
            FleetSpecError::ZeroBatchSize => {
                write!(f, "fleet batch size is zero (batch loop cannot advance)")
            }
            FleetSpecError::ZeroFaultStride => write!(f, "fault template stride is zero"),
            FleetSpecError::FaultOffsetOutOfRange { offset, stride } => write!(
                f,
                "fault template offset {offset} must lie below its stride {stride}"
            ),
            FleetSpecError::Line(e) => write!(f, "{e}"),
            FleetSpecError::BadFlowJitter => {
                write!(f, "flow jitter must be a finite fraction in [0, 1)")
            }
        }
    }
}

impl std::error::Error for FleetSpecError {}

/// The work a failed or interrupted fleet run had already finished: the
/// merged aggregates of the completed line prefix. Nothing is discarded —
/// a caller can report it, merge it with a retry of the remaining range,
/// or (for checkpointed runs) simply re-invoke and resume.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFleet {
    /// Lines completed, in line order, before the run stopped.
    pub completed_lines: usize,
    /// The merged aggregates of exactly that prefix.
    pub aggregates: ShardAggregates,
}

/// Why a fleet run did not produce a [`FleetOutcome`].
#[derive(Debug)]
pub enum FleetError {
    /// The spec failed [`FleetSpec::validate`].
    Spec(FleetSpecError),
    /// A line failed. Unlike the old all-or-nothing fold, the completed
    /// prefix's aggregates ride along instead of being dropped.
    Line {
        /// The first failing line, in line order.
        line: usize,
        /// The underlying failure.
        source: CoreError,
        /// Everything the run completed before that line.
        partial: Box<PartialFleet>,
    },
    /// A [`FleetSpec::run_checkpointed_with`] observer requested a stop.
    /// The last written checkpoint (if the interval elapsed) survives on
    /// disk for resumption.
    Interrupted(Box<PartialFleet>),
    /// Two [`ShardAggregates`] were merged out of line order.
    ShardMerge {
        /// End (exclusive) of the left shard.
        left_end: usize,
        /// Start of the right shard — must equal `left_end`.
        right_start: usize,
    },
    /// Reading or writing a [`FleetCheckpoint`] failed, or the checkpoint
    /// on disk belongs to a different spec.
    Checkpoint(CheckpointError),
}

impl core::fmt::Display for FleetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FleetError::Spec(e) => write!(f, "invalid fleet spec: {e}"),
            FleetError::Line {
                line,
                source,
                partial,
            } => write!(
                f,
                "fleet line {line} failed after {} completed lines: {source}",
                partial.completed_lines
            ),
            FleetError::Interrupted(partial) => write!(
                f,
                "fleet run interrupted after {} completed lines",
                partial.completed_lines
            ),
            FleetError::ShardMerge {
                left_end,
                right_start,
            } => write!(
                f,
                "shard merge out of line order: left shard ends at {left_end}, \
                 right starts at {right_start}"
            ),
            FleetError::Checkpoint(e) => write!(f, "fleet checkpoint: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Spec(e) => Some(e),
            FleetError::Line { source, .. } => Some(source),
            FleetError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FleetSpecError> for FleetError {
    fn from(e: FleetSpecError) -> Self {
        FleetError::Spec(e)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

/// Progress report handed to a [`FleetSpec::run_checkpointed_with`]
/// observer at every batch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetProgress {
    /// Lines completed so far (including any resumed prefix).
    pub completed_lines: usize,
    /// Total lines in the fleet.
    pub total_lines: usize,
}

/// Seed-stream tags keeping the per-line derived seeds statistically
/// independent of each other (same `derive_seed` base, disjoint index
/// lanes).
const LANE_METER: u64 = 0;
const LANE_LINE: u64 = 1;
const LANE_JITTER: u64 = 2;
const LANE_FAULT: u64 = 3;
const LANES: u64 = 4;

/// Lines at or below which a fleet retains per-line summaries and reports
/// exact percentiles (see [`FleetSpec::with_exact_threshold`]).
pub const DEFAULT_EXACT_THRESHOLD: usize = 10_000;

/// A declarative description of a whole fleet of simulated lines.
///
/// See the [module docs](self) for the execution and determinism story.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Fleet label, carried into per-line labels and reports.
    pub label: String,
    /// Sensing modality every line runs ([`Modality::Cta`] by default).
    pub modality: Modality,
    /// Meter configuration shared by every line.
    pub config: FlowMeterConfig,
    /// Die parameters shared by every line (tolerances still vary per line
    /// through the derived meter seeds).
    pub params: MafParams,
    /// Scenario template (per-line flow jitter applies on top).
    pub scenario: Scenario,
    /// Calibration applied to every line's meter.
    pub calibration: Calibration,
    /// Reduction windows shared by every line.
    pub windows: Windows,
    /// Trace cadence, seconds per sample.
    pub sample_period_s: f64,
    /// Number of lines in the fleet.
    pub lines: usize,
    /// Lines dispatched to the thread pool per batch (bounds peak
    /// in-flight spec/outcome memory; result-invariant).
    pub batch_size: usize,
    /// Fleet-level seed; every per-line seed derives from it.
    pub seed: u64,
    /// Maintenance policy every line runs (inactive by default).
    pub maintenance: Maintenance,
    /// How lines differ from the template.
    pub variation: LineVariation,
    /// Largest fleet (in lines) that retains per-line [`LineSummary`]s and
    /// exact percentiles; above it, only the O(shard) sketch aggregates
    /// survive. See [`FleetSpec::with_exact_threshold`].
    pub exact_threshold: usize,
}

impl FleetSpec {
    /// A fleet of 100 healthy lines on the template scenario, factory
    /// calibration, 20 ms cadence, batches of 256.
    pub fn new(
        label: impl Into<String>,
        config: FlowMeterConfig,
        scenario: Scenario,
        seed: u64,
    ) -> Self {
        FleetSpec {
            label: label.into(),
            modality: Modality::Cta,
            config,
            params: MafParams::nominal(),
            scenario,
            calibration: Calibration::Factory,
            windows: Windows::default(),
            sample_period_s: 0.02,
            lines: 100,
            batch_size: 256,
            seed,
            maintenance: Maintenance::default(),
            variation: LineVariation::default(),
            exact_threshold: DEFAULT_EXACT_THRESHOLD,
        }
    }

    /// Sets the instrument knobs every line shares — modality, AFE tier,
    /// maintenance policy — from one grouped [`LineConfig`], mirroring
    /// [`RunSpec::with_config`]. The config's `obs` and `faults` knobs do
    /// not apply at fleet granularity and are ignored: fleet lines always
    /// run unobserved at [`RecordPolicy::MetricsOnly`], and per-line
    /// fault templates live in [`LineVariation`].
    #[must_use]
    pub fn with_config(mut self, line: LineConfig) -> Self {
        self.modality = line.modality;
        self.config.afe_tier = line.afe_tier;
        self.maintenance = line.maintenance;
        self
    }

    /// Sets the number of lines.
    #[must_use]
    pub fn with_lines(mut self, lines: usize) -> Self {
        self.lines = lines;
        self
    }

    /// Sets the dispatch batch size (memory knob only — results are
    /// batch-size-invariant).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the reduction windows shared by every line (tuple shorthand
    /// works exactly as on [`RunSpec::with_windows`]).
    #[must_use]
    pub fn with_windows(mut self, windows: impl Into<Windows>) -> Self {
        self.windows = windows.into();
        self
    }

    /// Sets the trace cadence.
    #[must_use]
    pub fn with_sample_period(mut self, seconds: f64) -> Self {
        self.sample_period_s = seconds;
        self
    }

    /// Sets how lines differ from the template.
    #[must_use]
    pub fn with_variation(mut self, variation: LineVariation) -> Self {
        self.variation = variation;
        self
    }

    /// Sets the exact/sketch crossover: fleets up to `lines` lines retain
    /// every [`LineSummary`] and report exact nearest-rank percentiles;
    /// larger fleets keep only the fixed-size sketch aggregates (α ≈ 1 %
    /// percentile error, exact min/max/counts) and return an empty
    /// [`FleetOutcome::lines`]. `0` forces the sketch path at any scale.
    #[must_use]
    pub fn with_exact_threshold(mut self, lines: usize) -> Self {
        self.exact_threshold = lines;
        self
    }

    /// Whether this fleet retains per-line summaries (exact path).
    pub fn retains_summaries(&self) -> bool {
        self.lines <= self.exact_threshold
    }

    /// Checks the spec for degenerate parameters that would hang or
    /// corrupt a run. Every `run*` entry point calls this first.
    ///
    /// # Errors
    ///
    /// Returns the first [`FleetSpecError`] found.
    pub fn validate(&self) -> Result<(), FleetSpecError> {
        if self.lines == 0 {
            return Err(FleetSpecError::NoLines);
        }
        if self.batch_size == 0 {
            return Err(FleetSpecError::ZeroBatchSize);
        }
        check_line(
            TickClock::new(self.config.control_period()),
            &self.scenario,
            self.sample_period_s,
            &self.calibration,
            self.variation.faults.as_ref().map(|t| &t.schedule),
            None,
        )
        .map_err(FleetSpecError::Line)?;
        let j = self.variation.flow_jitter;
        if !(j.is_finite() && (0.0..1.0).contains(&j)) {
            return Err(FleetSpecError::BadFlowJitter);
        }
        if let Some(t) = &self.variation.faults {
            if t.stride == 0 {
                return Err(FleetSpecError::ZeroFaultStride);
            }
            if t.offset >= t.stride {
                return Err(FleetSpecError::FaultOffsetOutOfRange {
                    offset: t.offset,
                    stride: t.stride,
                });
            }
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the whole spec (FNV-1a over the
    /// canonical `Debug` rendering mixed with the config's own
    /// fingerprint). Checkpoints store it so a resume under a different
    /// spec is refused instead of silently producing a franken-fleet.
    ///
    /// Because it hashes `Debug` text, renaming, adding, dropping or
    /// reordering a field of any type that text reaches moves the value,
    /// and every checkpoint written before the move then fails with
    /// [`CheckpointError::SpecMismatch`]. `crates/bench/tests/fleet_fingerprint.rs`
    /// pins two values so such a move shows; a change that moves them
    /// records the move in `CHANGES.md`.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(format!("{:?}|config={:016x}", self, self.config.fingerprint()).as_bytes())
    }

    /// Line `i`'s deterministic flow-jitter factor in
    /// `[1 − j, 1 + j]`.
    fn jitter_factor(&self, line: usize) -> f64 {
        let j = self.variation.flow_jitter;
        if j == 0.0 {
            return 1.0;
        }
        // Uniform in [0, 1) from the line's jitter-lane seed; exact for
        // the 53-bit mantissa (top 53 bits of the 64-bit stream).
        let u = (derive_seed(self.seed, LANES * line as u64 + LANE_JITTER) >> 11) as f64
            / (1u64 << 53) as f64;
        1.0 + j * (2.0 * u - 1.0)
    }

    /// The [`RunSpec`] for line `i` — a pure function of the fleet spec
    /// and the index, which is the whole determinism story: any thread may
    /// execute it at any time and produce the same bits. It is also the
    /// whole *checkpoint* story: an interrupted line costs nothing to
    /// re-run from scratch, so checkpoints only record which lines
    /// finished, never mid-line meter state.
    ///
    /// Lines always record at [`RecordPolicy::MetricsOnly`] (fleet memory
    /// stays bounded) and run without the observability hot-loop hooks
    /// (at thousands of lines the event logs would dominate the cost of
    /// the simulation itself).
    pub fn line_spec(&self, line: usize) -> RunSpec {
        let i = line as u64;
        let scenario = if self.variation.flow_jitter == 0.0 {
            self.scenario.clone()
        } else {
            self.scenario.with_flow_scaled(self.jitter_factor(line))
        };
        let faults = self.variation.faults.as_ref().and_then(|template| {
            template.applies_to(line).then(|| {
                let mut schedule = template.schedule.clone();
                schedule.seed = derive_seed(self.seed, LANES * i + LANE_FAULT);
                schedule
            })
        });
        let mut line_config = LineConfig::new()
            .with_modality(self.modality)
            .with_maintenance(self.maintenance)
            .without_obs();
        line_config.afe_tier = self.config.afe_tier;
        line_config.faults = faults;
        RunSpec::new(
            format!("{}/line-{line:04}", self.label),
            self.config,
            scenario,
            self.seed,
        )
        .with_config(line_config)
        .with_params(self.params)
        .with_meter_seed(derive_seed(self.seed, LANES * i + LANE_METER))
        .with_line_seed(derive_seed(self.seed, LANES * i + LANE_LINE))
        .with_calibration(self.calibration.clone())
        .with_sample_period(self.sample_period_s)
        .with_windows(self.windows.clone())
        .with_record(RecordPolicy::MetricsOnly)
    }

    /// The shard covering lines `[start, end)`. Panics if the range is
    /// not within the fleet.
    pub fn shard(&self, start: usize, end: usize) -> FleetShard<'_> {
        assert!(
            start <= end && end <= self.lines,
            "shard [{start}, {end}) outside fleet of {} lines",
            self.lines
        );
        FleetShard {
            spec: self,
            start,
            end,
        }
    }

    /// Splits the fleet into `count` contiguous, near-equal shards (the
    /// last shards are one line shorter when the split is uneven; empty
    /// shards are dropped when `count > lines`).
    pub fn shards(&self, count: usize) -> Vec<FleetShard<'_>> {
        let count = count.max(1);
        let base = self.lines / count;
        let rem = self.lines % count;
        let mut shards = Vec::with_capacity(count.min(self.lines));
        let mut start = 0usize;
        for i in 0..count {
            let len = base + usize::from(i < rem);
            if len == 0 {
                break;
            }
            shards.push(self.shard(start, start + len));
            start += len;
        }
        shards
    }

    /// Executes the fleet with the process-wide default job count
    /// ([`exec::default_jobs`]).
    ///
    /// # Errors
    ///
    /// See [`FleetSpec::run_jobs`].
    pub fn run(&self) -> Result<FleetOutcome, FleetError> {
        self.run_jobs(exec::default_jobs())
    }

    /// Executes the fleet with an explicit job count. The outcome is
    /// bit-for-bit identical for any `jobs`, including `1`.
    ///
    /// # Errors
    ///
    /// [`FleetError::Spec`] for a degenerate spec; [`FleetError::Line`]
    /// carrying the first failing line (in line order) *and* the
    /// completed prefix's aggregates.
    pub fn run_jobs(&self, jobs: usize) -> Result<FleetOutcome, FleetError> {
        self.validate()?;
        let mut acc = ShardAggregates::empty(0);
        self.run_batches(&mut acc, self.lines, jobs, |_| {
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(self.finalize(acc))
    }

    /// Runs the fleet as `shards` sequential [`FleetShard`]s and merges
    /// their [`ShardAggregates`] in line order — bit-identical to
    /// [`FleetSpec::run_jobs`] by construction (the monolithic run *is*
    /// one shard). In a multi-process deployment each shard would run
    /// elsewhere and ship its serialized aggregates home; this entry
    /// point exercises the same split-run-merge cycle in process.
    ///
    /// # Errors
    ///
    /// See [`FleetSpec::run_jobs`]; shard-local failures carry the
    /// merged prefix of all earlier shards plus the failing shard's own
    /// completed lines.
    pub fn run_sharded(&self, shards: usize, jobs: usize) -> Result<FleetOutcome, FleetError> {
        self.validate()?;
        let mut acc = ShardAggregates::empty(0);
        for shard in self.shards(shards) {
            let part = match shard.run_jobs(jobs) {
                Ok(part) => part,
                Err(FleetError::Line {
                    line,
                    source,
                    partial,
                }) => {
                    acc.merge(&partial.aggregates)?;
                    let completed_lines = acc.lines();
                    return Err(FleetError::Line {
                        line,
                        source,
                        partial: Box::new(PartialFleet {
                            completed_lines,
                            aggregates: acc,
                        }),
                    });
                }
                Err(e) => return Err(e),
            };
            acc.merge(&part)?;
        }
        Ok(self.finalize(acc))
    }

    /// Executes the fleet with a checkpoint file at `path`, written every
    /// `interval_lines` completed lines (rounded up to the next batch
    /// boundary). If `path` already holds a checkpoint of **this** spec,
    /// the run resumes after its completed prefix instead of starting
    /// over; the final outcome is bit-identical to an uninterrupted run.
    /// On success the finished checkpoint is left on disk (a further
    /// resume is a no-op that just finalizes it).
    ///
    /// # Errors
    ///
    /// Everything [`FleetSpec::run_jobs`] returns, plus
    /// [`FleetError::Checkpoint`] for unreadable/unwritable checkpoint
    /// files, a checkpoint written by a different spec
    /// ([`CheckpointError::SpecMismatch`]), or one this spec could not have
    /// written ([`CheckpointError::Unresumable`]).
    pub fn run_checkpointed(
        &self,
        path: &Path,
        interval_lines: usize,
        jobs: usize,
    ) -> Result<FleetOutcome, FleetError> {
        self.run_checkpointed_with(path, interval_lines, jobs, |_| ControlFlow::Continue(()))
    }

    /// [`FleetSpec::run_checkpointed`] with a progress observer invoked at
    /// every batch boundary. Returning [`ControlFlow::Break`] stops the
    /// run with [`FleetError::Interrupted`] — the deterministic stand-in
    /// for a kill, used by the resume tests (one of which also ends its
    /// own child process from the observer, a real kill).
    ///
    /// # Errors
    ///
    /// See [`FleetSpec::run_checkpointed`].
    pub fn run_checkpointed_with(
        &self,
        path: &Path,
        interval_lines: usize,
        jobs: usize,
        mut observer: impl FnMut(FleetProgress) -> ControlFlow<()>,
    ) -> Result<FleetOutcome, FleetError> {
        self.validate()?;
        let fingerprint = self.fingerprint();
        let interval = interval_lines.max(1);
        let mut acc = match FleetCheckpoint::load_if_present(path)? {
            Some(ck) => self.resumable(ck.into_verified_shard(fingerprint, self.lines)?)?,
            None => ShardAggregates::empty(0),
        };
        let mut last_written = acc.lines();
        let total_lines = self.lines;
        self.run_batches(&mut acc, self.lines, jobs, |acc| {
            if acc.lines() - last_written >= interval {
                FleetCheckpoint::new(fingerprint, total_lines, acc.clone()).write(path)?;
                last_written = acc.lines();
            }
            Ok(observer(FleetProgress {
                completed_lines: acc.lines(),
                total_lines,
            }))
        })?;
        if last_written != acc.lines() {
            FleetCheckpoint::new(fingerprint, total_lines, acc.clone()).write(path)?;
        }
        Ok(self.finalize(acc))
    }

    /// Passes a checkpointed prefix through unless this fleet could not have
    /// written it: a range other than `0..k` with `k ≤ lines`, or a counter
    /// above what `k` of its lines can record — the bound that keeps the
    /// remaining lines from overflowing it.
    fn resumable(&self, acc: ShardAggregates) -> Result<ShardAggregates, CheckpointError> {
        let refuse = |reason: String| Err(CheckpointError::Unresumable { reason });
        if acc.start != 0 || acc.end > self.lines {
            return refuse(format!(
                "range {}..{} is not a prefix of its {} lines",
                acc.start, acc.end, self.lines
            ));
        }
        // A line records at most one sample and takes at most one
        // maintenance action per control frame, and stores no trace samples
        // (`MetricsOnly`).
        let frames = TickClock::new(self.config.control_period())
            .frames(self.scenario.duration_s)
            .unwrap_or(u64::MAX);
        let ticks = frames.saturating_mul(acc.lines() as u64);
        let m = &acc.maintenance;
        for (counter, value, bound) in [
            ("total_samples", acc.total_samples, ticks),
            ("re_zeros", m.re_zeros, ticks),
            ("refits", m.refits, ticks),
            ("persists", m.persists, ticks),
            ("persists_skipped", m.persists_skipped, ticks),
            ("trace_heap_bytes", acc.trace_heap_bytes as u64, 0),
        ] {
            if value > bound {
                return refuse(format!(
                    "{counter} {value} exceeds the {bound} its lines can record"
                ));
            }
        }
        Ok(acc)
    }

    /// The batch loop shared by every entry point: runs lines
    /// `[acc.end, end)` in batches over the thread pool, folding each
    /// completed batch into `acc` in line order. `on_batch` fires at each
    /// batch boundary; `Break` aborts with [`FleetError::Interrupted`].
    fn run_batches(
        &self,
        acc: &mut ShardAggregates,
        end: usize,
        jobs: usize,
        mut on_batch: impl FnMut(&mut ShardAggregates) -> Result<ControlFlow<()>, FleetError>,
    ) -> Result<(), FleetError> {
        let full_scale = self.config.full_scale.to_cm_per_s();
        let retain = self.retains_summaries();
        while acc.end < end {
            let batch_len = self.batch_size.min(end - acc.end);
            let indices: Vec<usize> = (acc.end..acc.end + batch_len).collect();
            // Summarize inside the worker: the outcome (meter, empty
            // trace, reductions) drops before the next line starts, so
            // in-flight memory is O(batch), retained memory O(shard).
            let batch = exec::parallel_map_indexed(&indices, jobs, |_, &line| {
                let spec = self.line_spec(line);
                let fault_kinds: Vec<&'static str> = spec
                    .faults
                    .as_ref()
                    .map(|s| s.events.iter().map(|e| e.kind.name()).collect())
                    .unwrap_or_default();
                spec.execute()
                    .map(|outcome| LineSummary::from_outcome(line, &outcome, fault_kinds))
                    .map_err(|source| (line, source))
            });
            for result in batch {
                match result {
                    Ok(summary) => acc.push(summary, full_scale, retain),
                    Err((line, source)) => {
                        // The completed prefix (earlier batches plus this
                        // batch's lines before the failure) rides along
                        // instead of being dropped on the floor.
                        return Err(FleetError::Line {
                            line,
                            source,
                            partial: Box::new(PartialFleet {
                                completed_lines: acc.lines(),
                                aggregates: acc.clone(),
                            }),
                        });
                    }
                }
            }
            if let ControlFlow::Break(()) = on_batch(acc)? {
                return Err(FleetError::Interrupted(Box::new(PartialFleet {
                    completed_lines: acc.lines(),
                    aggregates: acc.clone(),
                })));
            }
        }
        Ok(())
    }

    /// Folds a completed full-fleet [`ShardAggregates`] into the final
    /// outcome.
    fn finalize(&self, acc: ShardAggregates) -> FleetOutcome {
        let aggregates = acc.finalize(
            self.config.full_scale.to_cm_per_s(),
            self.scenario.duration_s * self.lines as f64,
        );
        FleetOutcome {
            aggregates,
            lines: acc.summaries,
        }
    }
}

/// A contiguous range of a fleet's lines, runnable independently of the
/// other ranges — the unit of multi-process fan-out. Shards of the same
/// spec produce [`ShardAggregates`] that [`merge`](ShardAggregates::merge)
/// in line order into exactly the monolithic run's aggregates.
#[derive(Debug, Clone, Copy)]
pub struct FleetShard<'a> {
    /// The fleet this shard belongs to.
    pub spec: &'a FleetSpec,
    /// First line of the shard.
    pub start: usize,
    /// One past the last line of the shard.
    pub end: usize,
}

impl FleetShard<'_> {
    /// Lines in the shard.
    pub fn lines(&self) -> usize {
        self.end - self.start
    }

    /// Runs the shard's lines with an explicit job count.
    ///
    /// # Errors
    ///
    /// See [`FleetSpec::run_jobs`]; the partial aggregates cover the
    /// shard's completed prefix.
    pub fn run_jobs(&self, jobs: usize) -> Result<ShardAggregates, FleetError> {
        self.spec.validate()?;
        let mut acc = ShardAggregates::empty(self.start);
        self.spec
            .run_batches(&mut acc, self.end, jobs, |_| Ok(ControlFlow::Continue(())))?;
        Ok(acc)
    }
}

/// The compact per-line residue a fleet run keeps: what population
/// statistics need, nothing a trace would hold.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSummary {
    /// Line index in the fleet.
    pub line: usize,
    /// Samples recorded (streamed, not stored).
    pub samples: u64,
    /// Settled-window mean, cm/s.
    pub settled_mean: f64,
    /// Settled-window ±σ (the line's resolution), cm/s.
    pub settled_std: f64,
    /// DUT-vs-truth RMS error over the err window, cm/s (`NaN` when the
    /// fleet declares no err window).
    pub err_rms: f64,
    /// Worst |DUT − truth| over the err window, cm/s.
    pub err_max_abs: f64,
    /// Samples recorded while a fault was active.
    pub fault_samples: u64,
    /// Maintenance-policy actions the line's engine took (all zero when
    /// the fleet carries no active [`Maintenance`] config).
    pub maintenance: MaintenanceCounters,
    /// Health-state census over the line's simulated time.
    pub health: HealthCensus,
    /// Names of the fault kinds scheduled on this line (empty = healthy
    /// template line).
    pub fault_kinds: Vec<&'static str>,
    /// Bytes of trace sample storage the run held — 0 under the forced
    /// [`RecordPolicy::MetricsOnly`]; summed and pinned by tests.
    pub trace_heap_bytes: usize,
    /// [`FlowMeter::state_digest`](hotwire_core::FlowMeter::state_digest)
    /// of the line's meter at the end of the run — a 64-bit witness of the
    /// part of the end state that digest folds (its doc lists what it
    /// leaves out), which lets the jobs-invariance and checkpoint
    /// round-trip tests compare meter state without serializing meters.
    pub meter_digest: u64,
}

impl LineSummary {
    /// Folds one finished run into its summary (everything copied out;
    /// the outcome can drop).
    fn from_outcome(line: usize, outcome: &RunOutcome, fault_kinds: Vec<&'static str>) -> Self {
        let red = &outcome.reduced;
        LineSummary {
            line,
            samples: red.samples,
            settled_mean: red.settled.mean(),
            settled_std: red.settled.std_dev(),
            err_rms: red.err_rms(),
            err_max_abs: red.err_max_abs,
            fault_samples: red.fault_samples,
            maintenance: outcome.maintenance,
            health: red.health_census,
            fault_kinds,
            trace_heap_bytes: outcome.trace.samples.heap_bytes(),
            meter_digest: outcome.meter.state_digest(),
        }
    }
}

/// Nearest-rank percentiles of a population statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Smallest value.
    pub min: f64,
    /// 50th percentile (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest value.
    pub max: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `values`. NaNs are **excluded from the
    /// ranks** (they used to sort last via `total_cmp` and silently
    /// poison `p99`/`max`); the caller learns how many there were from
    /// [`FleetAggregates::nan_lines`]. Returns all-NaN for an empty (or
    /// all-NaN) population.
    pub fn of(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return Percentiles {
                min: f64::NAN,
                p50: f64::NAN,
                p90: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
            };
        }
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| -> f64 {
            let n = sorted.len();
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[idx]
        };
        Percentiles {
            min: sorted[0],
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Per-statistic counts of lines whose value was NaN and therefore
/// excluded from the percentile ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NanLines {
    /// Lines whose settled-window resolution was NaN (e.g. an empty
    /// settled window).
    pub resolution: u64,
    /// Lines whose RMS error was NaN. When the fleet declares no err
    /// window this equals the line count by design (every line reports
    /// `NaN` there).
    pub err_rms: u64,
}

/// The mergeable, serializable accumulator of one contiguous line range —
/// the fleet's unit of aggregation, checkpointing and multi-process
/// fan-out.
///
/// Everything in here merges associatively: integer counts add, the
/// [`QuantileSketch`]es add bucket-wise, the settled-mean extrema combine
/// through exact `f64::min`/`max`. Merging shards in line order therefore
/// reproduces the monolithic run's accumulator bit for bit — the
/// invariance the fleet tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAggregates {
    /// First line of the covered range.
    pub start: usize,
    /// One past the last covered line.
    pub end: usize,
    /// Total samples streamed across the range.
    pub total_samples: u64,
    /// Samples recorded under an active fault.
    pub fault_samples: u64,
    /// Lines that recorded at least one faulted sample.
    pub lines_faulted: u64,
    /// Summed per-line trace storage, bytes (0 under `MetricsOnly`).
    pub trace_heap_bytes: usize,
    /// Maintenance-policy actions summed over the range — the
    /// recalibration-cost axis of the f4 frontier.
    pub maintenance: MaintenanceCounters,
    /// Health-state census summed over the range's simulated time.
    pub health: HealthCensus,
    /// Lines per scheduled fault kind, keyed by
    /// [`FaultKind::name`](crate::FaultKind::name) (owned strings so the
    /// accumulator serializes).
    pub fault_incidence: BTreeMap<String, u64>,
    /// Sketch of per-line resolution (settled ±σ), % of full scale.
    pub resolution_pct_fs: QuantileSketch,
    /// Sketch of per-line RMS error, cm/s.
    pub err_rms_cm_s: QuantileSketch,
    /// Smallest per-line settled mean, cm/s (`+∞` until a line lands;
    /// NaN means never enter — mirrors [`metrics::repeatability`]).
    pub settled_mean_min: f64,
    /// Largest per-line settled mean, cm/s (`−∞` until a line lands).
    pub settled_mean_max: f64,
    /// Retained per-line summaries, in line order — populated only when
    /// the owning spec [`retains_summaries`](FleetSpec::retains_summaries)
    /// (small fleets); empty above the exact threshold, keeping the
    /// accumulator O(shard).
    pub summaries: Vec<LineSummary>,
}

impl ShardAggregates {
    /// An empty accumulator whose range starts (and ends) at `start`.
    pub fn empty(start: usize) -> Self {
        ShardAggregates {
            start,
            end: start,
            total_samples: 0,
            fault_samples: 0,
            lines_faulted: 0,
            trace_heap_bytes: 0,
            maintenance: MaintenanceCounters::default(),
            health: HealthCensus::default(),
            fault_incidence: BTreeMap::new(),
            resolution_pct_fs: QuantileSketch::new(),
            err_rms_cm_s: QuantileSketch::new(),
            settled_mean_min: f64::INFINITY,
            settled_mean_max: f64::NEG_INFINITY,
            summaries: Vec::new(),
        }
    }

    /// Lines covered.
    pub fn lines(&self) -> usize {
        self.end - self.start
    }

    /// Folds one finished line (the next in line order) into the
    /// accumulator. `retain` keeps the summary for the exact path.
    pub fn push(&mut self, summary: LineSummary, full_scale_cm_s: f64, retain: bool) {
        debug_assert_eq!(
            summary.line, self.end,
            "summaries must arrive in line order"
        );
        self.end = summary.line + 1;
        self.total_samples += summary.samples;
        self.fault_samples += summary.fault_samples;
        self.trace_heap_bytes += summary.trace_heap_bytes;
        if summary.fault_samples > 0 {
            self.lines_faulted += 1;
        }
        self.maintenance.merge(&summary.maintenance);
        self.health.merge(&summary.health);
        let mut seen: Vec<&'static str> = Vec::new();
        for &kind in &summary.fault_kinds {
            if !seen.contains(&kind) {
                seen.push(kind);
                *self.fault_incidence.entry(kind.to_string()).or_insert(0) += 1;
            }
        }
        self.resolution_pct_fs
            .push(summary.settled_std / full_scale_cm_s * 100.0);
        self.err_rms_cm_s.push(summary.err_rms);
        // min/max ignore a NaN operand, exactly like the folds inside
        // `metrics::repeatability` — so the merged extrema match the
        // exact fold's bit for bit.
        self.settled_mean_min = self.settled_mean_min.min(summary.settled_mean);
        self.settled_mean_max = self.settled_mean_max.max(summary.settled_mean);
        if retain {
            self.summaries.push(summary);
        }
    }

    /// Merges the adjacent shard `other` (covering the range starting
    /// exactly where `self` ends) into `self`. Associative: any grouping
    /// of in-order merges produces identical bits.
    ///
    /// # Errors
    ///
    /// [`FleetError::ShardMerge`] when the ranges are not contiguous in
    /// line order.
    pub fn merge(&mut self, other: &ShardAggregates) -> Result<(), FleetError> {
        if self.end != other.start {
            return Err(FleetError::ShardMerge {
                left_end: self.end,
                right_start: other.start,
            });
        }
        self.end = other.end;
        self.total_samples += other.total_samples;
        self.fault_samples += other.fault_samples;
        self.lines_faulted += other.lines_faulted;
        self.trace_heap_bytes += other.trace_heap_bytes;
        self.maintenance.merge(&other.maintenance);
        self.health.merge(&other.health);
        for (kind, count) in &other.fault_incidence {
            *self.fault_incidence.entry(kind.clone()).or_insert(0) += count;
        }
        self.resolution_pct_fs.merge(&other.resolution_pct_fs);
        self.err_rms_cm_s.merge(&other.err_rms_cm_s);
        self.settled_mean_min = self.settled_mean_min.min(other.settled_mean_min);
        self.settled_mean_max = self.settled_mean_max.max(other.settled_mean_max);
        self.summaries.extend(other.summaries.iter().cloned());
        Ok(())
    }

    /// Approximate retained heap of the accumulator, bytes — what the
    /// fleet tests bound to show O(shard) memory. Sketch buckets plus
    /// incidence keys plus any retained summaries.
    pub fn heap_bytes(&self) -> usize {
        let incidence: usize = self
            .fault_incidence
            .keys()
            .map(|k| k.capacity() + std::mem::size_of::<(String, u64)>())
            .sum();
        let summaries: usize = self.summaries.capacity() * std::mem::size_of::<LineSummary>()
            + self
                .summaries
                .iter()
                .map(|s| s.fault_kinds.capacity() * std::mem::size_of::<&'static str>())
                .sum::<usize>();
        self.resolution_pct_fs.heap_bytes() + self.err_rms_cm_s.heap_bytes() + incidence + summaries
    }

    /// Line-to-line repeatability over the covered range, % of full scale
    /// — `(max − min) / 2 / full_scale`, NaN below two lines, matching
    /// [`metrics::repeatability`] bit for bit.
    fn repeatability_pct_fs(&self, full_scale_cm_s: f64) -> f64 {
        if self.lines() < 2 || full_scale_cm_s <= 0.0 {
            return f64::NAN;
        }
        (self.settled_mean_max - self.settled_mean_min) / 2.0 / full_scale_cm_s * 100.0
    }

    /// Folds the accumulator into the population-level
    /// [`FleetAggregates`]. With every summary retained (small fleets)
    /// the percentiles are the exact nearest-rank fold; otherwise they
    /// come from the sketches (α-bounded mid-ranks, exact min/max).
    pub fn finalize(&self, full_scale_cm_s: f64, simulated_s: f64) -> FleetAggregates {
        let exact = !self.summaries.is_empty() && self.summaries.len() == self.lines();
        let (resolution_pct_fs, err_rms_cm_s, repeatability) = if exact {
            let resolutions: Vec<f64> = self
                .summaries
                .iter()
                .map(|s| s.settled_std / full_scale_cm_s * 100.0)
                .collect();
            let err_rms: Vec<f64> = self.summaries.iter().map(|s| s.err_rms).collect();
            let means: Vec<f64> = self.summaries.iter().map(|s| s.settled_mean).collect();
            (
                Percentiles::of(&resolutions),
                Percentiles::of(&err_rms),
                metrics::repeatability(&means, full_scale_cm_s) * 100.0,
            )
        } else {
            (
                self.resolution_pct_fs.percentiles(),
                self.err_rms_cm_s.percentiles(),
                self.repeatability_pct_fs(full_scale_cm_s),
            )
        };
        FleetAggregates {
            lines: self.lines(),
            total_samples: self.total_samples,
            simulated_s,
            resolution_pct_fs,
            err_rms_cm_s,
            repeatability_pct_fs: repeatability,
            nan_lines: NanLines {
                resolution: self.resolution_pct_fs.nan_count(),
                err_rms: self.err_rms_cm_s.nan_count(),
            },
            health: self.health,
            fault_incidence: self.fault_incidence.clone(),
            lines_faulted: self.lines_faulted,
            fault_samples: self.fault_samples,
            trace_heap_bytes: self.trace_heap_bytes,
            maintenance: self.maintenance,
        }
    }
}

/// Population-level aggregates of a fleet run, folded in line order
/// (jobs-, batch-size- and shard-invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregates {
    /// Lines aggregated.
    pub lines: usize,
    /// Total samples streamed across the fleet.
    pub total_samples: u64,
    /// Fleet simulated time, line-seconds.
    pub simulated_s: f64,
    /// Population percentiles of per-line resolution (settled ±σ), % of
    /// full scale. Exact below the spec's
    /// [`exact_threshold`](FleetSpec::exact_threshold), sketch-derived
    /// (α ≈ 1 %) above it.
    pub resolution_pct_fs: Percentiles,
    /// Population percentiles of per-line RMS error, cm/s (all-NaN when
    /// no err window was declared).
    pub err_rms_cm_s: Percentiles,
    /// Line-to-line repeatability: half-spread of the per-line settled
    /// means, % of full scale ([`metrics::repeatability`]).
    pub repeatability_pct_fs: f64,
    /// Lines whose per-line statistics were NaN and therefore excluded
    /// from the percentile ranks (instead of silently poisoning
    /// `p99`/`max` as they used to).
    pub nan_lines: NanLines,
    /// Health-state census summed over every line's simulated time.
    pub health: HealthCensus,
    /// Lines per scheduled fault kind (a line with two kinds counts once
    /// under each), keyed by [`FaultKind::name`](crate::FaultKind::name).
    pub fault_incidence: BTreeMap<String, u64>,
    /// Lines that recorded at least one faulted sample.
    pub lines_faulted: u64,
    /// Total samples recorded under an active fault.
    pub fault_samples: u64,
    /// Summed per-line trace sample storage, bytes — 0 by construction
    /// under the forced `MetricsOnly` policy.
    pub trace_heap_bytes: usize,
    /// Maintenance-policy actions summed across the fleet (all zero
    /// when the spec carries no active [`Maintenance`] config).
    pub maintenance: MaintenanceCounters,
}

impl core::fmt::Display for FleetAggregates {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{} lines, {} samples, {:.0} line-s simulated",
            self.lines, self.total_samples, self.simulated_s
        )?;
        let r = &self.resolution_pct_fs;
        writeln!(
            f,
            "resolution ±% FS: p50 {:.3}  p90 {:.3}  p99 {:.3}  worst {:.3}",
            r.p50, r.p90, r.p99, r.max
        )?;
        writeln!(
            f,
            "line-to-line repeatability: ±{:.2} % FS",
            self.repeatability_pct_fs
        )?;
        if self.nan_lines.resolution > 0 {
            writeln!(
                f,
                "({} lines reported NaN resolution — excluded from ranks)",
                self.nan_lines.resolution
            )?;
        }
        let h = &self.health;
        writeln!(
            f,
            "health census: healthy {:.4}  degraded {:.4}  faulted {:.4}  recovering {:.4}",
            h.counts[0] as f64 / h.total().max(1) as f64,
            h.counts[1] as f64 / h.total().max(1) as f64,
            h.counts[2] as f64 / h.total().max(1) as f64,
            h.counts[3] as f64 / h.total().max(1) as f64,
        )?;
        if self.fault_incidence.is_empty() {
            writeln!(f, "faults: none scheduled")?;
        } else {
            write!(f, "fault incidence (lines):")?;
            for (kind, count) in &self.fault_incidence {
                write!(f, " {kind}={count}")?;
            }
            writeln!(
                f,
                "  ({} lines saw an active fault, {} faulted samples)",
                self.lines_faulted, self.fault_samples
            )?;
        }
        let m = &self.maintenance;
        if m.actions() > 0 || m.persists_skipped > 0 {
            writeln!(
                f,
                "maintenance: {} re-zeros, {} refits, {} persists ({} skipped)",
                m.re_zeros, m.refits, m.persists, m.persists_skipped
            )?;
        }
        write!(f, "trace heap: {} bytes", self.trace_heap_bytes)
    }
}

/// The result of a fleet run: population aggregates plus the per-line
/// summaries they were folded from (empty above the spec's
/// [`exact_threshold`](FleetSpec::exact_threshold) — large fleets keep
/// only the O(shard) aggregates).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Population aggregates (line-order fold; jobs-invariant).
    pub aggregates: FleetAggregates,
    /// Per-line summaries, in line order; empty above the exact
    /// threshold.
    pub lines: Vec<LineSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FieldCalibration;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::scenario::Schedule;

    /// The test profile on the fast AFE tier, for runs that only need to
    /// return.
    fn fast_profile() -> FlowMeterConfig {
        FlowMeterConfig {
            afe_tier: hotwire_core::config::AfeTier::Fast,
            ..FlowMeterConfig::test_profile()
        }
    }

    fn small_fleet() -> FleetSpec {
        FleetSpec::new(
            "test-fleet",
            FlowMeterConfig::test_profile(),
            Scenario::steady(100.0, 1.5),
            0xF1EE7,
        )
        .with_lines(12)
        .with_sample_period(0.05)
        .with_windows(Windows::settled(0.5, 1.0).with_err(0.5, f64::INFINITY))
    }

    #[test]
    fn line_specs_are_pure_and_distinct() {
        let fleet = small_fleet().with_variation(LineVariation::new().with_flow_jitter(0.05));
        let a = fleet.line_spec(3);
        let b = fleet.line_spec(3);
        assert_eq!(a, b, "line_spec must be a pure function of the index");
        let c = fleet.line_spec(4);
        assert_ne!(a.meter_seed, c.meter_seed);
        assert_ne!(a.line_seed, c.line_seed);
        assert_ne!(
            a.scenario, c.scenario,
            "flow jitter must differentiate line scenarios"
        );
        assert_eq!(a.record, RecordPolicy::MetricsOnly);
        assert!(!a.obs.enabled);
    }

    #[test]
    fn maintenance_config_reaches_every_line_spec() {
        let maintenance = Maintenance::new(crate::maintain::Policy::Hybrid {
            period_s: 40.0,
            on_degraded: true,
            drift_threshold: 0.05,
            temp_delta_c: 2.0,
        });
        let fleet = small_fleet().with_config(LineConfig::new().with_maintenance(maintenance));
        for line in 0..12 {
            assert_eq!(fleet.line_spec(line).maintenance, maintenance);
        }
    }

    #[test]
    fn jitter_factor_stays_in_band() {
        let fleet = small_fleet().with_variation(LineVariation::new().with_flow_jitter(0.1));
        for line in 0..200 {
            let f = fleet.jitter_factor(line);
            assert!((0.9..=1.1).contains(&f), "line {line}: factor {f}");
        }
        // And it actually spreads: not all lines identical.
        let f0 = fleet.jitter_factor(0);
        assert!((1..200).any(|i| fleet.jitter_factor(i) != f0));
    }

    #[test]
    fn fault_template_strides() {
        let schedule =
            FaultSchedule::new(1).with_event(0.5, 0.3, FaultKind::AdcStuck { code: 1000 });
        let fleet =
            small_fleet().with_variation(LineVariation::new().with_faults_every(3, 1, schedule));
        for line in 0..12 {
            let spec = fleet.line_spec(line);
            assert_eq!(spec.faults.is_some(), line % 3 == 1, "line {line}");
        }
        // Afflicted lines share the timeline but not the seed.
        let a = fleet.line_spec(1).faults.unwrap();
        let b = fleet.line_spec(4).faults.unwrap();
        assert_eq!(a.events, b.events);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert_eq!(
            small_fleet().with_lines(0).validate(),
            Err(FleetSpecError::NoLines)
        );
        // `with_batch_size` clamps, but the field is public — a zero set
        // directly used to hang the batch loop forever.
        let mut zero_batch = small_fleet();
        zero_batch.batch_size = 0;
        assert_eq!(zero_batch.validate(), Err(FleetSpecError::ZeroBatchSize));
        assert!(matches!(
            zero_batch.run_jobs(1),
            Err(FleetError::Spec(FleetSpecError::ZeroBatchSize))
        ));
        let mut zero_stride = small_fleet().with_variation(LineVariation::new().with_faults_every(
            3,
            1,
            FaultSchedule::new(0),
        ));
        zero_stride.variation.faults.as_mut().unwrap().stride = 0;
        assert_eq!(zero_stride.validate(), Err(FleetSpecError::ZeroFaultStride));
        let bad_offset = small_fleet().with_variation(LineVariation::new().with_faults_every(
            3,
            7,
            FaultSchedule::new(0),
        ));
        assert_eq!(
            bad_offset.validate(),
            Err(FleetSpecError::FaultOffsetOutOfRange {
                offset: 7,
                stride: 3
            })
        );
        assert_eq!(
            small_fleet().with_sample_period(0.0).validate(),
            Err(FleetSpecError::Line(SpecError::BadSamplePeriod))
        );
        assert_eq!(
            small_fleet().with_sample_period(f64::NAN).validate(),
            Err(FleetSpecError::Line(SpecError::BadSamplePeriod))
        );
        assert_eq!(
            small_fleet()
                .with_variation(LineVariation::new().with_flow_jitter(1.5))
                .validate(),
            Err(FleetSpecError::BadFlowJitter)
        );
        for duration in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut endless = small_fleet();
            endless.scenario.duration_s = duration;
            assert_eq!(
                endless.validate(),
                Err(FleetSpecError::Line(SpecError::BadDuration)),
                "duration {duration}"
            );
        }
        for (settle_s, average_s) in [(f64::NAN, 0.2), (0.3, f64::INFINITY), (f64::MAX, f64::MAX)] {
            let mut endless = small_fleet();
            endless.calibration = Calibration::Field(FieldCalibration {
                settle_s,
                average_s,
                ..FieldCalibration::paper(0.3, 0.2, 1)
            });
            assert_eq!(
                endless.validate(),
                Err(FleetSpecError::Line(SpecError::BadDuration)),
                "calibration windows {settle_s} + {average_s}"
            );
        }
        for schedule in ["flow_cm_s", "pressure_bar", "temperature_c"] {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut endless = small_fleet();
                let s = &mut endless.scenario;
                let target = match schedule {
                    "flow_cm_s" => &mut s.flow_cm_s,
                    "pressure_bar" => &mut s.pressure_bar,
                    _ => &mut s.temperature_c,
                };
                *target = Schedule::constant(1.0).then_ramp(value, 0.5);
                assert_eq!(
                    endless.validate(),
                    Err(FleetSpecError::Line(SpecError::NonFiniteSchedule {
                        schedule
                    })),
                    "{schedule} reaching {value}"
                );
            }
        }
        let nan = f64::NAN;
        let bad_events = [
            FaultEvent::new(nan, 0.3, FaultKind::AdcStuck { code: 1 }),
            FaultEvent::new(f64::INFINITY, 0.3, FaultKind::AdcOffset { codes: 1 }),
            FaultEvent {
                duration_s: f64::INFINITY,
                ..FaultEvent::new(0.5, 0.3, FaultKind::EepromBitFlip { slot: 0, byte: 1 })
            },
            FaultEvent {
                duration_s: nan,
                ..FaultEvent::new(0.5, 0.3, FaultKind::AdcStuck { code: 1 })
            },
            FaultEvent::new(0.5, 0.3, FaultKind::SupplyBrownout { fraction: nan }),
            FaultEvent::new(0.5, 0.3, FaultKind::DacElementFail { span_loss: nan }),
            FaultEvent::new(
                0.5,
                0.3,
                FaultKind::UartCorruption {
                    flip_per_byte: nan,
                    drop_per_byte: 0.0,
                },
            ),
            FaultEvent::new(
                0.5,
                0.3,
                FaultKind::UartCorruption {
                    flip_per_byte: 0.0,
                    drop_per_byte: f64::INFINITY,
                },
            ),
            FaultEvent::new(0.5, 0.0, FaultKind::BubbleBurst { coverage: nan }),
            FaultEvent::new(0.5, 0.0, FaultKind::SteppedFouling { microns: nan }),
        ];
        for bad in bad_events {
            let mut schedule =
                FaultSchedule::new(0).with_event(0.2, 0.1, FaultKind::AdcStuck { code: 1 });
            schedule.events.push(bad);
            let fleet = small_fleet()
                .with_variation(LineVariation::new().with_faults_every(3, 1, schedule));
            assert_eq!(
                fleet.validate(),
                Err(FleetSpecError::Line(SpecError::NonFiniteFault {
                    event: 1,
                    fault: bad.kind.name()
                })),
                "{bad:?}"
            );
        }
        let mut instant = small_fleet();
        instant.scenario.duration_s = 0.0;
        assert!(instant.validate().is_ok());
        assert!(small_fleet().validate().is_ok());
    }

    #[test]
    fn nan_fault_parameters_are_spec_errors_not_worker_panics() {
        // Regression: `f64::clamp` passes NaN through, so a NaN brownout
        // fraction reached the supply DAC and panicked the worker.
        for kind in [
            FaultKind::SupplyBrownout { fraction: f64::NAN },
            FaultKind::DacElementFail {
                span_loss: f64::NAN,
            },
        ] {
            let fleet =
                FleetSpec::new("nan-fault", fast_profile(), Scenario::steady(100.0, 1.0), 1)
                    .with_lines(1)
                    .with_variation(LineVariation::new().with_faults_every(
                        1,
                        0,
                        FaultSchedule::new(0).with_event(0.2, 0.3, kind),
                    ));
            let expected = FleetSpecError::Line(SpecError::NonFiniteFault {
                event: 0,
                fault: kind.name(),
            });
            assert!(
                matches!(fleet.run_jobs(1), Err(FleetError::Spec(e)) if e == expected),
                "{kind:?}"
            );
            let config = crate::ingest::IngestConfig::for_fleet(&fleet);
            assert!(
                crate::ingest::ingest_fleet(&fleet, &config, 1).is_err(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn infinite_and_huge_flows_return() {
        // Regression: the turbine reference counted pulses one by one, so
        // an infinite flow never finished a control tick and a 1e12 cm/s
        // one took billions of iterations per tick. A spec with an
        // infinite flow is refused before it runs, alone or in a fleet.
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let fast = fast_profile();
            let spec = RunSpec::new("endless", fast, Scenario::steady(f64::INFINITY, 1.0), 1);
            let single = spec.execute().map(|_| ());
            let fleet = |flow| {
                FleetSpec::new("huge", fast, Scenario::steady(flow, 1.0), 1)
                    .with_lines(1)
                    .run_jobs(1)
                    .map(|_| ())
            };
            let runs = (single, fleet(f64::INFINITY), fleet(1e12));
            done.send(runs).expect("the test thread is waiting");
        });
        let (single, infinite, huge) = finished
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the runs return");
        assert_eq!(
            single,
            Err(CoreError::from(SpecError::NonFiniteSchedule {
                schedule: "flow_cm_s"
            }))
        );
        assert!(huge.is_ok(), "{huge:?}");
        assert!(
            matches!(
                infinite,
                Err(FleetError::Spec(FleetSpecError::Line(
                    SpecError::NonFiniteSchedule {
                        schedule: "flow_cm_s"
                    }
                )))
            ),
            "{infinite:?}"
        );
        worker.join().expect("flow worker panicked");
    }

    #[test]
    fn non_finite_duration_returns_instead_of_running_forever() {
        // Regression: `WaterLine::finished` tests `time >= duration`, which
        // never holds for NaN or +∞, so the fleet and ingest runs never
        // returned. The worker thread lets the test fail on a timeout
        // instead of hanging the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            for duration in [f64::NAN, f64::INFINITY] {
                let fleet = FleetSpec::new(
                    "endless",
                    fast_profile(),
                    Scenario::steady(100.0, duration),
                    1,
                )
                .with_lines(1);
                let run = fleet.run_jobs(1).map(|_| ());
                let ingest = crate::ingest::ingest_fleet(
                    &fleet,
                    &crate::ingest::IngestConfig::for_fleet(&fleet),
                    1,
                )
                .map(|_| ());
                done.send((duration, run, ingest))
                    .expect("the test thread is waiting");
            }
        });
        for _ in 0..2 {
            let (duration, run, ingest) = finished
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("a non-finite duration returns");
            assert!(
                matches!(
                    run,
                    Err(FleetError::Spec(FleetSpecError::Line(
                        SpecError::BadDuration
                    )))
                ),
                "duration {duration}: {run:?}"
            );
            assert!(ingest.is_err(), "duration {duration}: ingest ran");
        }
        worker.join().expect("fleet worker panicked");
    }

    #[test]
    fn line_failure_returns_partial_not_nothing() {
        // An invalid die parameter set fails every line at build time;
        // the typed error must carry the failing index and the (empty)
        // completed prefix instead of a bare CoreError.
        let mut params = MafParams::nominal();
        params.heater_a_tolerance = f64::NAN;
        let mut fleet = small_fleet();
        fleet.params = params;
        match fleet.run_jobs(2) {
            Err(FleetError::Line { line, partial, .. }) => {
                assert_eq!(line, 0, "first failing line in line order");
                assert_eq!(partial.completed_lines, 0);
                assert_eq!(partial.aggregates.lines(), 0);
            }
            other => panic!("expected FleetError::Line, got {other:?}"),
        }
    }

    #[test]
    fn aggregates_are_batch_size_invariant() {
        let outcome_small = small_fleet().with_batch_size(5).run_jobs(2).unwrap();
        let outcome_big = small_fleet().with_batch_size(64).run_jobs(2).unwrap();
        assert_eq!(outcome_small, outcome_big);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 3.0);
        assert_eq!(p.p90, 5.0);
        assert_eq!(p.max, 5.0);
        assert!(Percentiles::of(&[]).p50.is_nan());
    }

    #[test]
    fn percentiles_exclude_nan_from_ranks() {
        // Regression: NaNs used to sort last and report as p99/max.
        let p = Percentiles::of(&[4.0, f64::NAN, 1.0, 3.0, f64::NAN, 2.0, 5.0]);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 3.0);
        assert_eq!(p.p99, 5.0, "NaN must not be the p99");
        assert_eq!(p.max, 5.0, "NaN must not be the max");
        assert!(Percentiles::of(&[f64::NAN, f64::NAN]).max.is_nan());
    }

    #[test]
    fn nan_lines_are_counted_not_poisoning() {
        // A settled window past the end of the scenario leaves every
        // line's resolution NaN — the aggregates must say so explicitly
        // and keep the percentiles NaN-clean (all-NaN here).
        let fleet = small_fleet().with_windows(Windows::settled(9.0, 5.0));
        let outcome = fleet.run_jobs(2).unwrap();
        let a = &outcome.aggregates;
        assert_eq!(a.nan_lines.resolution, 12);
        assert!(a.resolution_pct_fs.max.is_nan());
        // No err window declared → every line's err_rms is NaN by design.
        assert_eq!(a.nan_lines.err_rms, 12);
    }

    #[test]
    fn sharded_merge_matches_monolithic() {
        let spec = small_fleet().with_batch_size(5);
        let mono = spec.run_jobs(2).unwrap();
        for shards in [1, 2, 3, 5, 12] {
            let sharded = spec.run_sharded(shards, 2).unwrap();
            assert_eq!(mono, sharded, "{shards} shards");
        }
        // Out-of-order merges are refused, not silently wrong.
        let parts = spec.shards(3);
        let first = parts[0].run_jobs(1).unwrap();
        let third = parts[2].run_jobs(1).unwrap();
        let mut acc = first;
        assert!(matches!(
            acc.merge(&third),
            Err(FleetError::ShardMerge { .. })
        ));
    }

    #[test]
    fn sketch_path_tracks_exact_path() {
        let spec = small_fleet();
        let exact = spec.run_jobs(2).unwrap();
        let sketched = spec.clone().with_exact_threshold(0).run_jobs(2).unwrap();
        // Sketch path drops the per-line summaries...
        assert!(sketched.lines.is_empty());
        assert_eq!(exact.lines.len(), 12);
        // ...keeps the integer aggregates identical...
        assert_eq!(
            exact.aggregates.total_samples,
            sketched.aggregates.total_samples
        );
        assert_eq!(exact.aggregates.health, sketched.aggregates.health);
        // ...the extrema exact...
        assert_eq!(
            exact.aggregates.resolution_pct_fs.min.to_bits(),
            sketched.aggregates.resolution_pct_fs.min.to_bits()
        );
        assert_eq!(
            exact.aggregates.resolution_pct_fs.max.to_bits(),
            sketched.aggregates.resolution_pct_fs.max.to_bits()
        );
        assert_eq!(
            exact.aggregates.repeatability_pct_fs.to_bits(),
            sketched.aggregates.repeatability_pct_fs.to_bits()
        );
        // ...and the mid-ranks within the sketch's α bound.
        for (e, s) in [
            (
                exact.aggregates.resolution_pct_fs.p50,
                sketched.aggregates.resolution_pct_fs.p50,
            ),
            (
                exact.aggregates.resolution_pct_fs.p99,
                sketched.aggregates.resolution_pct_fs.p99,
            ),
        ] {
            assert!(
                (e - s).abs() <= QuantileSketch::RELATIVE_ERROR * e.abs() + 1e-12,
                "exact {e} vs sketch {s}"
            );
        }
    }

    #[test]
    fn fleet_memory_is_metrics_only() {
        let outcome = small_fleet().run_jobs(2).unwrap();
        assert_eq!(outcome.aggregates.trace_heap_bytes, 0);
        assert_eq!(outcome.lines.len(), 12);
        assert!(outcome.aggregates.total_samples > 0);
        // Healthy fleet: the census saw every sample, all healthy.
        assert_eq!(
            outcome.aggregates.health.total(),
            outcome.aggregates.total_samples
        );
        // No NaN lines in a healthy settled fleet.
        assert_eq!(outcome.aggregates.nan_lines.resolution, 0);
    }
}
