//! The evaluation rig: the Vinci water-station measurement line in software.
//!
//! §5 of the paper: "The whole set-up consisted in a dedicated line for the
//! measurements, derived from conventional water lines, in which pressure
//! and water speed could be fine tuned. The line was also equipped with a
//! commercial high resolution magnetic water meter (Promag 50)…"
//!
//! * [`scenario`] — piecewise flow/pressure/temperature schedules (steps,
//!   ramps, staircases, pressure peaks)
//! * [`mod@line`] — the measurement line: schedules + pipe profile + turbulence
//!   → the instantaneous [`SensorEnvironment`] at the probe
//! * [`maintain`] — deterministic per-line maintenance policies
//!   ([`Policy`], [`MaintenanceEngine`]): scheduled / event-triggered /
//!   hybrid re-zero–refit–persist decisions driven through the
//!   modality-generic `Meter` calibration surface, wear-budgeted and
//!   RNG-neutral
//! * [`promag`] — behavioural model of the Endress+Hauser Promag 50
//!   electromagnetic reference meter
//! * [`turbine`] — behavioural model of a turbine-wheel meter (the
//!   commercial baseline the paper's accuracy is compared against)
//! * [`metrics`] — resolution / repeatability / linearity / response-time
//!   estimators matching the paper's definitions, including the streaming
//!   [`Welford`] accumulator
//! * [`record`] — push-based recording: the [`Recorder`] sink trait, the
//!   columnar [`TraceStore`], streaming [`RunReductions`] reducers, CSV
//!   streaming and the per-spec [`RecordPolicy`] (sweep experiments run in
//!   O(1) sample memory under [`RecordPolicy::MetricsOnly`])
//! * [`runner`] — co-simulation of the device under test and both reference
//!   meters on shared true flow, plus the field-calibration procedure
//! * [`campaign`] — declarative [`RunSpec`]s and the [`Campaign`] executor
//! * [`fleet`] — populations of lines behind one [`FleetSpec`] template:
//!   thousands to millions of seed-diverse lines batched over the same
//!   thread pool at [`RecordPolicy::MetricsOnly`], folded into
//!   jobs-invariant population aggregates (resolution percentiles, health
//!   census, fault incidence) through mergeable O(shard)
//!   [`ShardAggregates`] — the unit of shard fan-out and checkpointing
//! * [`sketch`] — the fixed-size deterministic [`QuantileSketch`]
//!   (log-bucketed, integer counts, associative merge) behind large-fleet
//!   percentiles
//! * [`checkpoint`] — durable fleet progress ([`FleetCheckpoint`]):
//!   atomic bit-exact serialization of a shard accumulator so a killed
//!   fleet run resumes bit-identically
//! * [`ingest`] — the service side of §6's diffuse deployment: per-meter
//!   [`MeterSession`]s reassemble framed telemetry from captured wires
//!   (bounded queues, explicit [`DropPolicy`]), derive a fleet health
//!   census + alert stream purely from the wire records, and score
//!   detection fidelity against the simulator's ground truth —
//!   bit-identical at any job count
//! * [`fault`] — seeded, time-triggered fault schedules ([`FaultSchedule`])
//!   injectable into any run: ADC/DAC/supply/EEPROM/UART faults plus abrupt
//!   physics events, executed deterministically by the campaign layer
//! * [`exec`] — the deterministic scoped-thread parallel map underneath it
//! * [`obs`] — deterministic structured observability: per-run event logs
//!   ([`obs::EventLog`]) fed by the firmware's `Observer` hook, hot-loop
//!   counters and histograms, campaign-wide merged snapshots
//!   ([`obs::ObsSnapshot`], bit-identical at any job count) and the
//!   per-experiment profiling registry behind `repro --json`'s `"obs"`
//!   section
//!
//! # Campaigns
//!
//! Experiments describe their runs as [`RunSpec`]s — meter config, die
//! parameters, calibration step, scenario, seeds, sample cadence, settled
//! windows — and hand the batch to a [`Campaign`]:
//!
//! ```no_run
//! use hotwire_core::FlowMeterConfig;
//! use hotwire_rig::{Campaign, RunSpec, Scenario};
//!
//! let specs: Vec<RunSpec> = [50.0, 100.0, 200.0]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &cm_s)| {
//!         RunSpec::new(
//!             format!("steady-{cm_s}"),
//!             FlowMeterConfig::water_station(),
//!             Scenario::steady(cm_s, 6.0),
//!             hotwire_rig::campaign::derive_seed(42, i as u64),
//!         )
//!         .with_windows((3.0, 3.0))
//!     })
//!     .collect();
//!
//! let outcomes = Campaign::new().run(&specs)?;
//! for o in &outcomes {
//!     println!("{}: {:.1} ± {:.2} cm/s", o.label, o.settled_mean(), o.settled_std());
//! }
//! # Ok::<(), hotwire_core::CoreError>(())
//! ```
//!
//! Runs execute across worker threads (all cores by default; see
//! [`exec::set_default_jobs`] / [`Campaign::with_jobs`]) and the output is
//! **bit-for-bit identical for any job count**: each run is a pure,
//! single-threaded function of its spec, and the executor returns outcomes
//! in spec order regardless of scheduling. For work that isn't a scenario
//! run, [`Campaign::map`] parallelizes any per-item closure under the same
//! guarantee.
//!
//! [`SensorEnvironment`]: hotwire_physics::SensorEnvironment
//! [`Welford`]: metrics::Welford

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::same_name_method)]

pub mod campaign;
pub mod checkpoint;
pub mod exec;
pub mod fault;
pub mod fleet;
pub mod ingest;
pub mod line;
pub mod maintain;
pub mod metrics;
pub mod modality;
pub mod obs;
pub mod promag;
pub mod record;
pub mod runner;
pub mod scenario;
pub mod sketch;
pub mod turbine;

pub use campaign::{
    Calibration, Campaign, FieldCalibration, LineConfig, RunOutcome, RunSpec, Windows,
    PAPER_SETPOINTS_CM_S,
};
pub use checkpoint::{CheckpointError, FleetCheckpoint};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultSchedule, UartStats};
pub use fleet::{
    FleetAggregates, FleetError, FleetOutcome, FleetShard, FleetSpec, FleetSpecError, LineSummary,
    LineVariation, PartialFleet, ShardAggregates,
};
pub use ingest::{
    ingest_fleet, Alert, AlertKind, DropPolicy, Fidelity, IngestConfig, IngestReport, IngestStats,
    MeterSession,
};
pub use line::WaterLine;
pub use maintain::{Maintenance, MaintenanceCounters, MaintenanceEngine, Policy};
pub use metrics::Welford;
pub use modality::{AnyMeter, Modality, ReferenceKind, ReferenceMeter};
pub use obs::{EventLog, Histogram, ObsConfig, ObsSnapshot, RunObs};
pub use promag::Promag50;
pub use record::{
    Channel, CsvSink, PolicyRecorder, RecordPolicy, Recorder, ReductionPlan, RunReductions,
    SeriesReducer, TraceStore,
};
pub use runner::{LineRunner, RunTail, Trace, TraceSample};
pub use scenario::{Scenario, Schedule};
pub use sketch::QuantileSketch;
pub use turbine::TurbineMeter;
