//! # hotwire — facade crate
//!
//! Re-exports the whole workspace behind one dependency, mirroring the layer
//! structure of the reproduction of *"Hot Wire Anemometric MEMS Sensor for
//! Water Flow Monitoring"* (Melani et al., DATE 2008):
//!
//! * [`units`] — physical-quantity newtypes,
//! * [`physics`] — the simulated MEMS die, water, bubbles and scale,
//! * [`afe`] — the analog front end (bridge, in-amp, ΣΔ ADC, DACs),
//! * [`dsp`] — the fixed-point DSP IP library,
//! * [`isif`] — the ISIF platform emulation,
//! * [`core`] — the CTA conditioning firmware (the paper's contribution),
//! * [`rig`] — the water-station evaluation rig, the reference meters and
//!   the deterministic parallel campaign executor
//!   (`rig::Campaign` / `rig::RunSpec`).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

pub use hotwire_afe as afe;
pub use hotwire_core as core;
pub use hotwire_dsp as dsp;
pub use hotwire_isif as isif;
pub use hotwire_physics as physics;
pub use hotwire_rig as rig;
pub use hotwire_units as units;

/// The working set for driving simulations: one `use hotwire::prelude::*`
/// brings in the meter, its configuration, the physics environment, the
/// common unit newtypes and the whole declarative run machinery
/// ([`RunSpec`](prelude::RunSpec) / [`Campaign`](prelude::Campaign) /
/// [`FleetSpec`](prelude::FleetSpec)) without spelling out which layer
/// each name lives in.
///
/// Layer-specific items (ISIF peripherals, DSP blocks, AFE internals,
/// firmware submodules like `core::direction` or `core::burst`) stay
/// behind their module paths on purpose — the prelude is for *running*
/// the system, not for reaching into it.
///
/// ```no_run
/// use hotwire::prelude::*;
///
/// let spec = RunSpec::new(
///     "demo",
///     FlowMeterConfig::water_station(),
///     Scenario::steady(100.0, 10.0),
///     42,
/// )
/// .with_windows((4.0, 6.0));
/// let outcome = Campaign::new().run(&[spec])?;
/// println!("{:.1} cm/s", outcome[0].settled_mean());
/// # Ok::<(), hotwire::core::CoreError>(())
/// ```
pub mod prelude {
    pub use hotwire_core::{
        CoreError, FlowMeter, FlowMeterConfig, HealthState, HeatPulseMeter, Measurement, Meter,
    };
    pub use hotwire_physics::{MafParams, SensorEnvironment};
    pub use hotwire_rig::campaign::{derive_seed, Calibration, FieldCalibration};
    pub use hotwire_rig::checkpoint::{CheckpointError, FleetCheckpoint};
    pub use hotwire_rig::fleet::{
        FleetAggregates, FleetError, FleetOutcome, FleetShard, FleetSpec, FleetSpecError,
        LineSummary, LineVariation, PartialFleet, ShardAggregates,
    };
    pub use hotwire_rig::ingest::{ingest_fleet, IngestConfig, IngestReport, MeterSession};
    pub use hotwire_rig::modality::{AnyMeter, Modality};
    pub use hotwire_rig::sketch::QuantileSketch;
    pub use hotwire_rig::{
        metrics, Campaign, FaultKind, FaultSchedule, LineConfig, LineRunner, Maintenance,
        MaintenanceCounters, ObsConfig, Policy, RecordPolicy, Recorder, RunOutcome, RunReductions,
        RunSpec, Scenario, Schedule, SpecError, TraceStore, Windows,
    };
    pub use hotwire_units::{Celsius, Hertz, KelvinDelta, MetersPerSecond, Seconds};
}
