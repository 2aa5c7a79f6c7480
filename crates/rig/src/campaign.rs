//! Declarative run specifications and the deterministic campaign executor.
//!
//! Every experiment in the benchmark suite is some number of independent
//! co-simulation runs: build a meter, calibrate it, drive it through a
//! scenario, reduce the trace. This module makes that shape explicit —
//! a [`RunSpec`] *describes* one run, a [`Campaign`] *executes* batches of
//! them across worker threads — so experiments declare what to run instead
//! of hand-rolling sweep loops.
//!
//! # Determinism
//!
//! A run's result is a pure function of its spec: the meter is seeded by
//! `meter_seed`, the line by `line_seed`, and each run is single-threaded
//! end to end (see the threading contract in `hotwire_core`). The executor
//! ([`exec::parallel_map_indexed`]) only changes *when* runs happen, never
//! *what* they compute, and returns outcomes in spec order — so a campaign's
//! output is bit-for-bit identical for any job count, including serial.
//!
//! ```no_run
//! use hotwire_rig::{Campaign, RunSpec, Scenario};
//! use hotwire_core::FlowMeterConfig;
//!
//! let specs: Vec<RunSpec> = (0..4)
//!     .map(|i| {
//!         RunSpec::new(
//!             format!("steady-{i}"),
//!             FlowMeterConfig::test_profile(),
//!             Scenario::steady(50.0 + 50.0 * i as f64, 4.0),
//!             hotwire_rig::campaign::derive_seed(0xC0FFEE, i),
//!         )
//!         .with_windows((2.0, 2.0))
//!     })
//!     .collect();
//! let outcomes = Campaign::new().run(&specs)?;
//! for o in &outcomes {
//!     println!("{}: {:.1} ± {:.2} cm/s", o.label, o.settled_mean(), o.settled_std());
//! }
//! # Ok::<(), hotwire_core::CoreError>(())
//! ```

use crate::exec;
use crate::fault::FaultSchedule;
use crate::line::WaterLine;
use crate::maintain::{Maintenance, MaintenanceCounters, MaintenanceEngine};
use crate::metrics::Welford;
use crate::modality::{AnyMeter, Modality};
use crate::obs::{self, EventLog, ObsConfig};
use crate::promag::Promag50;
use crate::record::{PolicyRecorder, RecordPolicy, Recorder, ReductionPlan, RunReductions};
use crate::runner::{LineRunner, RunTail, Trace};
use crate::scenario::Scenario;
use hotwire_core::calibration::CalPoint;
use hotwire_core::config::AfeTier;
use hotwire_core::{CoreError, FlowMeter, FlowMeterConfig, HeatPulseMeter, Meter, TickClock};
use hotwire_physics::{MafParams, SensorEnvironment};
use hotwire_units::{Celsius, MetersPerSecond, ThermalConductance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The five-point field-calibration grid used throughout the paper's §5
/// evaluation (cm/s).
pub const PAPER_SETPOINTS_CM_S: [f64; 5] = [15.0, 50.0, 100.0, 160.0, 220.0];

/// Derives a statistically independent seed for item `index` of a batch
/// from a campaign-level `base` seed (SplitMix64 finalizer).
///
/// Neighbouring indices produce uncorrelated streams, unlike `base + index`
/// which leaves low-bit structure in some generators.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recipe for the paper's field-calibration procedure: visit each setpoint
/// on a steady line against the Promag reference, average conductance and
/// reference velocity, fit King's law.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldCalibration {
    /// Steady setpoints to visit, cm/s.
    pub setpoints_cm_s: Vec<f64>,
    /// Settling time before averaging starts at each setpoint, seconds.
    pub settle_s: f64,
    /// Averaging window at each setpoint, seconds.
    pub average_s: f64,
    /// Base seed for the calibration lines (per-setpoint seeds are derived
    /// from it exactly as the historical serial procedure did).
    pub seed: u64,
}

impl FieldCalibration {
    /// The paper's grid ([`PAPER_SETPOINTS_CM_S`]) with the given windows.
    pub fn paper(settle_s: f64, average_s: f64, seed: u64) -> Self {
        FieldCalibration {
            setpoints_cm_s: PAPER_SETPOINTS_CM_S.to_vec(),
            settle_s,
            average_s,
            seed,
        }
    }

    /// Applies this recipe to `meter`: collect the setpoint observations
    /// (up to `jobs` replicas at a time), adopt the converged
    /// fluid-temperature estimate, fit and install King's law. **The**
    /// single field-calibration path — [`build_meter`]'s
    /// [`Calibration::Field`] arm comes through here, so every caller
    /// gets bit-identical fits.
    ///
    /// Returns the calibration points used.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Calibration`] if a setpoint records no
    /// settled samples or the fit fails.
    pub fn apply(&self, meter: &mut FlowMeter, jobs: usize) -> Result<Vec<CalPoint>, CoreError> {
        let (points, estimate) = collect_calibration_points(meter, self, jobs)?;
        meter.adopt_fluid_estimate(estimate);
        meter.calibrate(&points)?;
        Ok(points)
    }
}

/// Every reduction window a [`RunSpec`] declares, grouped in one value.
///
/// Historically the spec grew one `with_*` method per window class
/// (settled, extra, series, error) — twelve builder methods deep, they
/// stopped composing once fleets needed to stamp out thousands of
/// per-line specs from one template. `Windows` is that template: build it
/// once, hand it to [`RunSpec::with_windows`] (or a
/// [`FleetSpec`](crate::fleet::FleetSpec)), clone it freely.
///
/// All windows are half-open `[t0, t1)` intervals on the scenario clock.
///
/// ```
/// use hotwire_rig::Windows;
///
/// let w = Windows::settled(2.0, 3.0) // ignore 2 s, measure 3 s
///     .with_extra(1.0, 2.0)          // an extra Welford window
///     .with_err(2.0, f64::INFINITY); // DUT-vs-truth error stats
/// assert_eq!(w.settled_window(), (2.0, 5.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Windows {
    /// Settling time ignored by the settled-window statistics, seconds.
    pub settle_s: f64,
    /// Length of the measurement window after settling, seconds
    /// (`0.0` = to the end of the scenario).
    pub measure_s: f64,
    /// Extra `[t0, t1)` DUT Welford windows reduced during the run (e.g.
    /// per-visit repeatability windows) — read back via
    /// [`RunOutcome::window`].
    pub extra: Vec<(f64, f64)>,
    /// If set, retain the `(t, dut)` series inside this window during the
    /// run (bounded by the window), for rise-time analysis under
    /// [`RecordPolicy::MetricsOnly`].
    pub series: Option<(f64, f64)>,
    /// If set, accumulate DUT-vs-truth error statistics (worst |err|, RMS)
    /// over this window during the run.
    pub err: Option<(f64, f64)>,
}

impl Windows {
    /// No settling, no extra windows: every sample is "settled".
    pub fn none() -> Self {
        Windows::default()
    }

    /// Settled statistics ignoring the first `settle_s` seconds, then
    /// measuring for `measure_s` seconds (`0.0` = to the end).
    pub fn settled(settle_s: f64, measure_s: f64) -> Self {
        Windows {
            settle_s,
            measure_s,
            ..Windows::default()
        }
    }

    /// Adds an extra `[t0, t1)` DUT Welford window (read back via
    /// [`RunOutcome::window`], in insertion order).
    #[must_use]
    pub fn with_extra(mut self, t0: f64, t1: f64) -> Self {
        self.extra.push((t0, t1));
        self
    }

    /// Retains the `(t, dut)` series inside `[t0, t1)` for rise-time
    /// analysis without a stored trace.
    #[must_use]
    pub fn with_series(mut self, t0: f64, t1: f64) -> Self {
        self.series = Some((t0, t1));
        self
    }

    /// Accumulates DUT-vs-truth error statistics over `[t0, t1)`
    /// ([`RunReductions::err_rms`], worst |err|).
    #[must_use]
    pub fn with_err(mut self, t0: f64, t1: f64) -> Self {
        self.err = Some((t0, t1));
        self
    }

    /// The settled window as a half-open `[t0, t1)` interval
    /// (`measure_s == 0.0` ⇒ unbounded).
    pub fn settled_window(&self) -> (f64, f64) {
        let t1 = if self.measure_s > 0.0 {
            self.settle_s + self.measure_s
        } else {
            f64::INFINITY
        };
        (self.settle_s, t1)
    }

    /// The streaming-reduction plan these windows describe.
    pub fn reduction_plan(&self) -> ReductionPlan {
        ReductionPlan {
            settle: self.settled_window(),
            windows: self.extra.clone(),
            series: self.series,
            err: self.err,
        }
    }
}

/// `(settle_s, measure_s)` is the overwhelmingly common case, so it
/// converts directly: `spec.with_windows((2.0, 3.0))`.
impl From<(f64, f64)> for Windows {
    fn from((settle_s, measure_s): (f64, f64)) -> Self {
        Windows::settled(settle_s, measure_s)
    }
}

/// Every per-line instrument knob of a spec, grouped in one value.
///
/// The same consolidation [`Windows`] applied to the reduction windows:
/// the spec had grown one `with_*` builder per knob — modality, AFE
/// tier, observability, faults, and now maintenance — which stopped
/// composing once fleets and multi-modality sweeps needed to stamp the
/// same instrument configuration onto many specs. `LineConfig` is that
/// template: build it once, hand it to [`RunSpec::with_config`] or
/// [`FleetSpec::with_config`](crate::fleet::FleetSpec::with_config),
/// clone it freely.
///
/// ```
/// use hotwire_rig::campaign::LineConfig;
/// use hotwire_rig::{Maintenance, Modality, Policy};
///
/// let cfg = LineConfig::new()
///     .with_modality(Modality::HeatPulse)
///     .with_maintenance(Maintenance::new(Policy::Scheduled { period_s: 3600.0 }))
///     .without_obs();
/// assert_eq!(cfg.modality, Modality::HeatPulse);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LineConfig {
    /// Sensing modality of the device under test ([`Modality::Cta`]
    /// by default).
    pub modality: Modality,
    /// AFE fidelity tier ([`AfeTier::Exact`] by default).
    pub afe_tier: AfeTier,
    /// Maintenance policy governing in-run re-zero / refit / persist
    /// (inactive by default).
    pub maintenance: Maintenance,
    /// Observability configuration (enabled by default). Fleet specs
    /// ignore this knob: fleet lines always run unobserved
    /// ([`RecordPolicy::MetricsOnly`]); their maintenance activity rides
    /// the line summaries instead of event logs.
    pub obs: ObsConfig,
    /// Seeded fault schedule injected during the run (`None` = healthy).
    /// Fleet specs ignore this knob: per-line fault templates live in
    /// [`LineVariation`](crate::fleet::LineVariation).
    pub faults: Option<FaultSchedule>,
}

impl LineConfig {
    /// The default instrument: CTA, exact AFE, no maintenance policy,
    /// observability on, no faults.
    pub fn new() -> Self {
        LineConfig::default()
    }

    /// Selects the sensing modality.
    #[must_use]
    pub fn with_modality(mut self, modality: Modality) -> Self {
        self.modality = modality;
        self
    }

    /// Selects the AFE fidelity tier.
    #[must_use]
    pub fn with_afe_tier(mut self, tier: AfeTier) -> Self {
        self.afe_tier = tier;
        self
    }

    /// Sets the maintenance policy.
    #[must_use]
    pub fn with_maintenance(mut self, maintenance: Maintenance) -> Self {
        self.maintenance = maintenance;
        self
    }

    /// Disables observability.
    #[must_use]
    pub fn without_obs(mut self) -> Self {
        self.obs.enabled = false;
        self
    }

    /// Injects a seeded fault schedule.
    #[must_use]
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }
}

impl Default for LineConfig {
    fn default() -> Self {
        LineConfig {
            modality: Modality::Cta,
            afe_tier: AfeTier::Exact,
            maintenance: Maintenance::default(),
            obs: ObsConfig::default(),
            faults: None,
        }
    }
}

/// How a [`RunSpec`]'s meter is calibrated before the scenario starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Calibration {
    /// Keep the factory (design-model) calibration.
    Factory,
    /// Run the field-calibration procedure from scratch.
    Field(FieldCalibration),
    /// Install pre-computed calibration points — the cheap path when many
    /// specs share one calibration (collect once with
    /// [`collect_calibration_points`], fan the points out).
    Points {
        /// The calibration observations to fit.
        points: Vec<CalPoint>,
        /// Converged fluid-temperature estimate to adopt before fitting, so
        /// the temperature-compensation offset learned at calibration time
        /// matches the meter that produced `points`.
        fluid_estimate: Option<Celsius>,
    },
}

/// A run input that no run accepts, found by [`RunSpec::validate`] and
/// [`FleetSpec::validate`](crate::FleetSpec::validate) before any control
/// tick runs. [`RunSpec::execute`] returns it as [`CoreError::Config`],
/// `FleetSpec::validate` wrapped in
/// [`FleetSpecError::Line`](crate::FleetSpecError::Line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// `sample_period_s` is not a positive finite number.
    BadSamplePeriod,
    /// `scenario.duration_s` is NaN, infinite or negative, or holds more
    /// control frames than a `u64` counts; or a [`Calibration::Field`]
    /// recipe's `settle_s + average_s` is not finite (a non-finite run
    /// never finishes).
    BadDuration,
    /// The scenario's flow, pressure or temperature schedule holds a
    /// non-finite value (see [`Schedule::is_finite`](crate::Schedule::is_finite)).
    NonFiniteSchedule {
        /// The offending schedule: `flow_cm_s`, `pressure_bar` or
        /// `temperature_c`.
        schedule: &'static str,
    },
    /// A fault event has a non-finite window or parameter (see
    /// [`FaultEvent::is_finite`](crate::fault::FaultEvent::is_finite)).
    NonFiniteFault {
        /// The event's index in the schedule.
        event: usize,
        /// The event's fault class.
        fault: &'static str,
    },
    /// A windowed fault is shorter than one control tick (see
    /// [`FaultEvent::is_subtick`](crate::fault::FaultEvent::is_subtick)).
    SubTickFault {
        /// The event's index in the schedule.
        event: usize,
        /// The event's fault class.
        fault: &'static str,
    },
    /// [`RunSpec::auto_zero_s`] is NaN or negative, or holds 2⁶⁴ control
    /// frames or more (+∞ included).
    BadAutoZero,
}

impl SpecError {
    /// The rule the input broke, without the offending schedule or event.
    fn reason(&self) -> &'static str {
        match self {
            SpecError::BadSamplePeriod => {
                "sample period must be a positive finite number of seconds"
            }
            SpecError::BadDuration => {
                "scenario duration must be finite, non-negative and hold at most \
                 2^64 control frames, and field-calibration windows finite"
            }
            SpecError::NonFiniteSchedule { .. } => "a scenario schedule holds a non-finite value",
            SpecError::NonFiniteFault { .. } => {
                "a fault event has a non-finite window or parameter"
            }
            SpecError::SubTickFault { .. } => "a windowed fault is shorter than one control tick",
            SpecError::BadAutoZero => "auto-zero must be non-negative and under 2^64 frames",
        }
    }
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.reason())?;
        match self {
            SpecError::NonFiniteSchedule { schedule } => write!(f, " ({schedule})"),
            SpecError::NonFiniteFault { event, fault }
            | SpecError::SubTickFault { event, fault } => write!(f, " (event {event}, {fault})"),
            SpecError::BadSamplePeriod | SpecError::BadDuration | SpecError::BadAutoZero => Ok(()),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for CoreError {
    fn from(e: SpecError) -> Self {
        CoreError::Config { reason: e.reason() }
    }
}

/// Checks one line's run inputs against what a run on `clock` accepts —
/// the sample period, the duration, the field-calibration windows, the
/// scenario schedules, each fault's window and parameters, and the
/// auto-zero — before any of them is converted to control ticks.
/// [`RunSpec::validate`] and [`FleetSpec::validate`](crate::FleetSpec::validate)
/// both come through here.
pub(crate) fn check_line(
    clock: TickClock,
    scenario: &Scenario,
    sample_period_s: f64,
    calibration: &Calibration,
    faults: Option<&FaultSchedule>,
    auto_zero_s: Option<f64>,
) -> Result<(), SpecError> {
    if !(sample_period_s.is_finite() && sample_period_s > 0.0) {
        return Err(SpecError::BadSamplePeriod);
    }
    let duration = scenario.duration_s;
    let endless_calibration = match calibration {
        Calibration::Field(recipe) => !(recipe.settle_s + recipe.average_s).is_finite(),
        _ => false,
    };
    if !(duration >= 0.0 && clock.frames(duration).is_some()) || endless_calibration {
        return Err(SpecError::BadDuration);
    }
    for (schedule, values) in [
        ("flow_cm_s", &scenario.flow_cm_s),
        ("pressure_bar", &scenario.pressure_bar),
        ("temperature_c", &scenario.temperature_c),
    ] {
        if !values.is_finite() {
            return Err(SpecError::NonFiniteSchedule { schedule });
        }
    }
    for (event, e) in faults.iter().flat_map(|s| s.events.iter()).enumerate() {
        let fault = e.kind.name();
        if !e.is_finite() {
            return Err(SpecError::NonFiniteFault { event, fault });
        }
        if e.is_subtick(clock) {
            return Err(SpecError::SubTickFault { event, fault });
        }
    }
    if auto_zero_s.is_some_and(|s| clock.whole_frames(s).is_none()) {
        return Err(SpecError::BadAutoZero);
    }
    Ok(())
}

/// A declarative description of one co-simulation run.
///
/// Everything a run depends on is in the spec; two equal specs produce
/// bit-for-bit equal outcomes, on any thread, at any job count.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Label carried through to the [`RunOutcome`] (for reports).
    pub label: String,
    /// Sensing modality of the device under test
    /// ([`Modality::Cta`] by default). The heat-pulse modality ignores
    /// [`calibration`](Self::calibration) and
    /// [`auto_zero_s`](Self::auto_zero_s): it carries its own factory
    /// calibration.
    pub modality: Modality,
    /// Meter configuration.
    pub config: FlowMeterConfig,
    /// Die parameters.
    pub params: MafParams,
    /// Seed for the meter's component tolerances and noise.
    pub meter_seed: u64,
    /// Calibration applied before the run.
    pub calibration: Calibration,
    /// If set, auto-zero the direction channel in still water over the whole
    /// control frames this many seconds hold before the scenario starts.
    pub auto_zero_s: Option<f64>,
    /// The line scenario to drive.
    pub scenario: Scenario,
    /// Seeded fault schedule injected during the run (`None` = healthy).
    pub faults: Option<FaultSchedule>,
    /// Seed for the line's turbulence and the reference meters' noise.
    pub line_seed: u64,
    /// Trace recording cadence, seconds per sample.
    pub sample_period_s: f64,
    /// Every reduction window of the run, grouped
    /// ([`with_windows`](Self::with_windows)).
    pub windows: Windows,
    /// Maintenance policy governing in-run re-zero / refit / persist
    /// (inactive by default; see [`with_config`](Self::with_config) and
    /// [`crate::maintain`]).
    pub maintenance: Maintenance,
    /// Observability configuration (on by default; see
    /// [`with_config`](Self::with_config) / [`without_obs`](Self::without_obs)).
    pub obs: ObsConfig,
    /// What the stored trace keeps of the raw samples
    /// ([`RecordPolicy::Full`] by default). Streaming reductions
    /// ([`RunOutcome::reduced`]) are computed under every policy.
    pub record: RecordPolicy,
}

impl RunSpec {
    /// A spec with nominal die parameters, factory calibration, no
    /// auto-zero, a 20 ms sample cadence and no settling window. `seed`
    /// seeds both the meter and the line; use the `with_*` builders to
    /// override any of it.
    pub fn new(
        label: impl Into<String>,
        config: FlowMeterConfig,
        scenario: Scenario,
        seed: u64,
    ) -> Self {
        RunSpec {
            label: label.into(),
            modality: Modality::Cta,
            config,
            params: MafParams::nominal(),
            meter_seed: seed,
            calibration: Calibration::Factory,
            auto_zero_s: None,
            scenario,
            faults: None,
            line_seed: seed,
            sample_period_s: 0.02,
            windows: Windows::default(),
            maintenance: Maintenance::default(),
            obs: ObsConfig::default(),
            record: RecordPolicy::Full,
        }
    }

    /// Sets every per-line instrument knob at once — modality, AFE tier,
    /// maintenance policy, observability, faults — from one grouped
    /// [`LineConfig`] (the [`Windows`] consolidation applied to the
    /// instrument knobs). Knobs not touched on the `LineConfig` are set
    /// to its defaults, exactly as [`with_windows`](Self::with_windows)
    /// replaces every window.
    ///
    /// ```
    /// # use hotwire_rig::{RunSpec, Scenario, Modality};
    /// # use hotwire_rig::campaign::LineConfig;
    /// # use hotwire_core::FlowMeterConfig;
    /// # let spec = RunSpec::new("w", FlowMeterConfig::test_profile(),
    /// #                         Scenario::steady(50.0, 4.0), 1);
    /// let spec = spec.with_config(LineConfig::new().with_modality(Modality::HeatPulse));
    /// ```
    pub fn with_config(mut self, line: LineConfig) -> Self {
        self.modality = line.modality;
        self.config.afe_tier = line.afe_tier;
        self.maintenance = line.maintenance;
        self.obs = line.obs;
        self.faults = line.faults;
        self
    }

    /// Overrides the die parameters.
    pub fn with_params(mut self, params: MafParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the meter seed (component tolerances, noise).
    pub fn with_meter_seed(mut self, seed: u64) -> Self {
        self.meter_seed = seed;
        self
    }

    /// Overrides the line seed (turbulence, reference noise).
    pub fn with_line_seed(mut self, seed: u64) -> Self {
        self.line_seed = seed;
        self
    }

    /// Sets the calibration step.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Auto-zeroes the direction channel in still water before the run.
    pub fn with_auto_zero(mut self, seconds: f64) -> Self {
        self.auto_zero_s = Some(seconds);
        self
    }

    /// Sets the trace recording cadence.
    pub fn with_sample_period(mut self, seconds: f64) -> Self {
        self.sample_period_s = seconds;
        self
    }

    /// Sets every reduction window of the run at once.
    ///
    /// Accepts anything convertible to [`Windows`]; the common
    /// settle/measure pair converts from a tuple:
    ///
    /// ```
    /// # use hotwire_rig::{RunSpec, Scenario, Windows};
    /// # use hotwire_core::FlowMeterConfig;
    /// # let spec = RunSpec::new("w", FlowMeterConfig::test_profile(),
    /// #                         Scenario::steady(50.0, 4.0), 1);
    /// let spec = spec.with_windows(Windows::settled(2.0, 2.0).with_err(2.0, 4.0));
    /// // shorthand for plain settled statistics:
    /// let spec = spec.with_windows((2.0, 2.0));
    /// ```
    pub fn with_windows(mut self, windows: impl Into<Windows>) -> Self {
        self.windows = windows.into();
        self
    }

    /// Disables observability for this run: no event log is installed and
    /// the runner skips its hot-loop instrumentation entirely
    /// (`trace.obs` comes back `None`).
    pub fn without_obs(mut self) -> Self {
        self.obs.enabled = false;
        self
    }

    /// Sets the record policy — what the stored trace keeps of the raw
    /// samples. Sweep specs should use [`RecordPolicy::MetricsOnly`] and
    /// read the streaming [`RunOutcome::reduced`] instead of the trace.
    pub fn with_record(mut self, policy: RecordPolicy) -> Self {
        self.record = policy;
        self
    }

    /// The streaming-reduction plan this spec's windows describe.
    pub fn reduction_plan(&self) -> ReductionPlan {
        self.windows.reduction_plan()
    }

    /// The number of samples a run of this spec records — the right
    /// capacity for a full-trace sink (see
    /// [`runner::expected_samples`](crate::runner::expected_samples)).
    pub fn expected_samples(&self) -> usize {
        crate::runner::expected_samples(
            self.scenario.duration_s,
            self.sample_period_s,
            self.config.control_period().get(),
        )
    }

    /// Checks this spec's run inputs on its meter's control clock: the
    /// sample period, the duration, the field-calibration windows, the
    /// scenario schedules, each fault's window and parameters, and the auto-zero.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        check_line(
            TickClock::new(self.config.control_period()),
            &self.scenario,
            self.sample_period_s,
            &self.calibration,
            self.faults.as_ref(),
            self.auto_zero_s,
        )
    }

    /// Executes this spec on the current thread, pushing every recorded
    /// sample into the caller's `recorder` — **the** single execution
    /// path: [`execute`](Self::execute), the campaign executor and the
    /// fleet engine ([`crate::fleet`]) all come through here, exactly as
    /// [`LineRunner::run`] is a thin wrapper over
    /// [`LineRunner::run_with`].
    ///
    /// Returns the run tail (UART statistics, observability) and the meter
    /// (fault latches, calibration, state intact).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if the spec fails
    /// [`validate`](Self::validate), and [`CoreError`] if the meter cannot
    /// be built or the calibration fit fails (e.g. a railed bridge at an
    /// unreachable overheat — experiment `a01` treats that as a data
    /// point).
    pub fn execute_with<R: Recorder + ?Sized>(
        &self,
        recorder: &mut R,
    ) -> Result<(RunTail, AnyMeter), CoreError> {
        let (tail, meter, _) = self.execute_runner(recorder, false)?;
        Ok((tail, meter))
    }

    /// [`execute_with`](Self::execute_with) plus a telemetry wiretap: the
    /// run's framed UART byte stream (post-corruption when the spec carries
    /// a UART fault) is returned alongside the tail and meter. The wire
    /// simulation is forced on even for clean specs, so every recorded
    /// sample frames one telemetry record onto the tap; the capture itself
    /// never perturbs the run (no extra RNG draws), so results stay
    /// bit-identical to [`execute_with`](Self::execute_with).
    ///
    /// # Errors
    ///
    /// See [`execute_with`](Self::execute_with).
    pub fn execute_wiretapped<R: Recorder + ?Sized>(
        &self,
        recorder: &mut R,
    ) -> Result<(RunTail, AnyMeter, Vec<u8>), CoreError> {
        self.execute_runner(recorder, true)
    }

    /// Builds this spec's device under test: the CTA path goes through
    /// [`build_meter`] (calibration step, optional auto-zero) exactly as it
    /// always has; the heat-pulse meter carries its own construction and
    /// ignores the spec's calibration/auto-zero fields.
    fn build_dut(&self) -> Result<AnyMeter, CoreError> {
        Ok(match self.modality {
            Modality::Cta => {
                let mut meter =
                    build_meter(self.config, self.params, self.meter_seed, &self.calibration)?;
                if let Some(seconds) = self.auto_zero_s {
                    meter.auto_zero_direction(seconds, SensorEnvironment::still_water());
                }
                AnyMeter::Cta(meter)
            }
            Modality::HeatPulse => {
                AnyMeter::HeatPulse(HeatPulseMeter::new(self.config, self.meter_seed)?)
            }
        })
    }

    /// Shared body of [`execute_with`](Self::execute_with) and
    /// [`execute_wiretapped`](Self::execute_wiretapped).
    fn execute_runner<R: Recorder + ?Sized>(
        &self,
        recorder: &mut R,
        wiretap: bool,
    ) -> Result<(RunTail, AnyMeter, Vec<u8>), CoreError> {
        self.validate()?;
        let mut meter = self.build_dut()?;
        if self.obs.enabled {
            // Installed after calibration and auto-zero, so the event log
            // covers exactly the scenario run.
            meter.set_observer(Box::new(EventLog::default()));
        }
        let mut runner = LineRunner::new(self.scenario.clone(), meter, self.line_seed);
        if self.maintenance.is_active() {
            let control_dt = runner.meter().control_period();
            runner.install_maintenance(MaintenanceEngine::new(self.maintenance, control_dt));
        }
        if let Some(schedule) = &self.faults {
            runner.install_faults(schedule.clone());
        }
        if wiretap {
            runner.capture_wire();
        }
        let tail = runner.run_with(self.sample_period_s, recorder);
        let wire = runner.take_wire();
        Ok((tail, runner.into_meter(), wire))
    }

    /// Executes this spec on the current thread: build the meter, apply the
    /// calibration, optionally auto-zero, run the scenario. Thin wrapper
    /// over [`execute_with`](Self::execute_with) with a policy-driven
    /// [`PolicyRecorder`] sink.
    ///
    /// # Errors
    ///
    /// See [`execute_with`](Self::execute_with).
    pub fn execute(&self) -> Result<RunOutcome, CoreError> {
        // Refused before the trace is sized, too.
        self.validate()?;
        let mut recorder = PolicyRecorder::new(self.record, self.reduction_plan());
        recorder.reserve(self.expected_samples());
        let (tail, meter) = self.execute_with(&mut recorder)?;
        let (samples, reduced) = recorder.finish();
        Ok(RunOutcome {
            label: self.label.clone(),
            trace: Trace {
                samples,
                uart: tail.uart,
                obs: tail.obs,
            },
            reduced,
            meter,
            maintenance: tail.maintenance,
        })
    }
}

/// The result of one executed [`RunSpec`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The spec's label.
    pub label: String,
    /// The recorded co-simulation trace. Under
    /// [`RecordPolicy::MetricsOnly`] the sample store is empty — read
    /// [`reduced`](Self::reduced) instead.
    pub trace: Trace,
    /// Streaming reductions folded during the run (computed under every
    /// record policy; bit-identical to post-hoc reductions over a
    /// [`RecordPolicy::Full`] trace of the same spec).
    pub reduced: RunReductions,
    /// The meter after the run (fault latches, calibration, state intact).
    /// CTA specs carry an [`AnyMeter::Cta`]; unwrap with
    /// [`AnyMeter::as_cta`] when CTA-specific state is needed.
    pub meter: AnyMeter,
    /// Maintenance-policy actions taken during the run (all zero unless
    /// the spec carried an active [`Maintenance`] config).
    pub maintenance: MaintenanceCounters,
}

impl RunOutcome {
    /// Statistics of the DUT output over the spec's settled window,
    /// reduced while the run streamed — no trace pass, no allocation.
    pub fn settled(&self) -> Welford {
        self.reduced.settled
    }

    /// The spec's `i`-th extra window ([`Windows::with_extra`]), reduced
    /// while the run streamed.
    ///
    /// # Panics
    ///
    /// Panics if the spec declared fewer than `i + 1` extra windows.
    pub fn window(&self, i: usize) -> Welford {
        self.reduced.windows[i]
    }

    /// Mean DUT output over the settled window, cm/s.
    pub fn settled_mean(&self) -> f64 {
        self.settled().mean()
    }

    /// Standard deviation of the DUT output over the settled window, cm/s.
    pub fn settled_std(&self) -> f64 {
        self.settled().std_dev()
    }
}

/// Builds and calibrates a meter per a [`Calibration`] step, without
/// running any scenario. The campaign executor uses this per spec; it is
/// public because experiments that drive meters directly (duty-cycling,
/// profile probes) want the same construction path.
///
/// # Errors
///
/// Returns [`CoreError`] if construction or the calibration fit fails.
pub fn build_meter(
    config: FlowMeterConfig,
    params: MafParams,
    seed: u64,
    calibration: &Calibration,
) -> Result<FlowMeter, CoreError> {
    let mut meter = FlowMeter::new(config, params, seed)?;
    match calibration {
        Calibration::Factory => {}
        Calibration::Field(recipe) => {
            // Setpoints run serially here: the campaign already owns the
            // worker threads, and the result is jobs-invariant anyway.
            recipe.apply(&mut meter, 1)?;
        }
        Calibration::Points {
            points,
            fluid_estimate,
        } => {
            if let Some(estimate) = fluid_estimate {
                meter.adopt_fluid_estimate(*estimate);
            }
            meter.calibrate(points)?;
        }
    }
    Ok(meter)
}

/// Collects field-calibration observations for `prototype`'s build
/// (config, die parameters, seed) by running each setpoint of `recipe` on
/// its own replica meter, up to `jobs` at a time.
///
/// Returns the fitted points plus the mean converged fluid-temperature
/// estimate across setpoints — adopt it
/// ([`FlowMeter::adopt_fluid_estimate`]) before calling
/// [`FlowMeter::calibrate`] so temperature compensation learns the same
/// reference-resistor skew the calibration runs saw.
///
/// Per-setpoint seeds match the historical serial procedure: line
/// `seed + i`, reference noise `seed ^ (i << 8)`.
///
/// # Errors
///
/// Returns [`CoreError::Config`] if the recipe's windows do not add up to
/// a finite run, and [`CoreError`] if a replica cannot be built or a
/// setpoint records no settled samples.
pub fn collect_calibration_points(
    prototype: &FlowMeter,
    recipe: &FieldCalibration,
    jobs: usize,
) -> Result<(Vec<CalPoint>, Celsius), CoreError> {
    let config = *prototype.config();
    let params = *prototype.die().params();
    let meter_seed = prototype.build_seed();
    let control_dt = config.control_period();
    let clock = TickClock::new(control_dt);
    let frames = clock
        .frames(recipe.settle_s + recipe.average_s)
        .ok_or(CoreError::Config {
            reason: "field-calibration windows must add up to a finite run",
        })?;
    let settled_tick = clock.tick_at(recipe.settle_s);
    let results = exec::parallel_map_indexed(
        &recipe.setpoints_cm_s,
        jobs,
        |i, &setpoint| -> Result<(CalPoint, f64), CoreError> {
            let mut meter = FlowMeter::new(config, params, meter_seed)?;
            let scenario = Scenario::steady(setpoint, recipe.settle_s + recipe.average_s);
            let mut line = WaterLine::new(scenario, recipe.seed.wrapping_add(i as u64));
            let mut promag = Promag50::new(config.full_scale);
            let mut ref_rng = StdRng::seed_from_u64(recipe.seed ^ ((i as u64) << 8));
            let mut env = SensorEnvironment::still_water();
            let (mut g_sum, mut v_sum, mut n) = (0.0, 0.0, 0u64);
            for frame in 0..frames {
                // Only the conductance is read, so the velocity is never
                // decoded.
                meter.advance_frame(env);
                env = line.step(control_dt);
                let promag_reading = promag.step(control_dt, line.bulk_velocity(), &mut ref_rng);
                if frame + 1 >= settled_tick {
                    g_sum += meter.instantaneous_conductance().get();
                    v_sum += promag_reading.to_cm_per_s().abs();
                    n += 1;
                }
            }
            if n == 0 {
                return Err(CoreError::Calibration {
                    reason: "calibration setpoint recorded no settled samples",
                });
            }
            let point = CalPoint {
                velocity: MetersPerSecond::from_cm_per_s(v_sum / n as f64),
                conductance: ThermalConductance::new(g_sum / n as f64),
            };
            // Fresh replicas carry no temperature offset, so this is the
            // raw converged estimate.
            Ok((point, meter.fluid_temperature_estimate().get()))
        },
    );

    let mut points = Vec::with_capacity(results.len());
    let mut estimate_sum = 0.0;
    for result in results {
        let (point, estimate) = result?;
        points.push(point);
        estimate_sum += estimate;
    }
    let mean_estimate = Celsius::new(estimate_sum / points.len().max(1) as f64);
    Ok((points, mean_estimate))
}

/// Executes batches of [`RunSpec`]s across worker threads.
///
/// The executor is a thin, copyable handle: it holds only the job count.
/// See the module docs for the determinism guarantee.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    jobs: usize,
}

impl Campaign {
    /// A campaign using the process-wide default job count
    /// ([`exec::default_jobs`] — all cores unless `repro --jobs` or
    /// [`exec::set_default_jobs`] said otherwise).
    pub fn new() -> Self {
        Campaign {
            jobs: exec::default_jobs(),
        }
    }

    /// A campaign with an explicit job count (`1` = serial, on the calling
    /// thread).
    pub fn with_jobs(jobs: usize) -> Self {
        Campaign { jobs: jobs.max(1) }
    }

    /// Executes every spec, returning one `Result` per spec in spec order.
    ///
    /// Use this when a calibration failure is itself a data point (e.g.
    /// the overheat study's railed configurations).
    ///
    /// The batch's merged observability ([`obs::merge_outcomes`], spec
    /// order → jobs-invariant) is recorded into the process-wide registry
    /// under the calling thread's experiment scope, if one is active
    /// ([`obs::scoped`]) — along with the batch's wall-clock, which feeds
    /// the samples/s profiling in `repro --json` and is the only
    /// non-deterministic quantity recorded.
    pub fn try_run(&self, specs: &[RunSpec]) -> Vec<Result<RunOutcome, CoreError>> {
        let started = std::time::Instant::now();
        let results = self.map(specs, |_, spec| spec.execute());
        let wall_s = started.elapsed().as_secs_f64();
        let snapshot = obs::merge_outcomes(results.iter().filter_map(|r| r.as_ref().ok()));
        obs::record_campaign(&snapshot, wall_s);
        results
    }

    /// Executes every spec, failing fast on the first error (in spec
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the first spec's [`CoreError`], if any.
    pub fn run(&self, specs: &[RunSpec]) -> Result<Vec<RunOutcome>, CoreError> {
        self.try_run(specs).into_iter().collect()
    }

    /// Runs an arbitrary per-item job under this campaign's thread budget,
    /// preserving item order. The escape hatch for experiments whose unit
    /// of work is not a scenario run (duty-cycle sweeps, profile probes,
    /// pure-model evaluations).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        exec::parallel_map_indexed(items, self.jobs, f)
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(i: u64) -> RunSpec {
        RunSpec::new(
            format!("s{i}"),
            FlowMeterConfig::test_profile(),
            Scenario::steady(60.0 + 30.0 * i as f64, 2.0),
            derive_seed(0xBEEF, i),
        )
        .with_windows((1.0, 1.0))
    }

    /// `execute` sizes a full trace by what the run can record: one
    /// sample per control tick, however short the spec's cadence.
    #[test]
    fn full_trace_reserves_only_what_a_run_can_record() {
        let s = RunSpec::new(
            "fine-cadence",
            FlowMeterConfig::test_profile(),
            Scenario::steady(100.0, 0.5),
            5,
        )
        .with_sample_period(1e-5);
        let outcome = s.execute().unwrap();
        let rows = outcome.trace.samples.len();
        assert_eq!(s.expected_samples(), rows);
        assert_eq!(
            outcome.trace.samples.heap_bytes(),
            crate::record::TraceStore::with_capacity(rows).heap_bytes()
        );
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn campaign_runs_specs_in_order() {
        let specs: Vec<RunSpec> = (0..3).map(spec).collect();
        let outcomes = Campaign::with_jobs(3).run(&specs).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.label, format!("s{i}"));
            assert!(!o.trace.samples.is_empty());
            // Settled mean should land near the commanded setpoint even on
            // factory calibration.
            let target = 60.0 + 30.0 * i as f64;
            assert!(
                (o.settled_mean() - target).abs() < 0.5 * target,
                "spec {i}: settled mean {} vs target {target}",
                o.settled_mean()
            );
        }
    }

    #[test]
    fn parallel_outcomes_are_bit_identical_to_serial() {
        // The tentpole guarantee: same specs, any job count, identical
        // traces. Comparing through `f64::to_bits` on every field is
        // strictly stronger than comparing serialized bytes.
        let specs: Vec<RunSpec> = (0..4).map(spec).collect();
        let serial = Campaign::with_jobs(1).run(&specs).unwrap();
        let parallel = Campaign::with_jobs(4).run(&specs).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.trace.samples.len(), b.trace.samples.len(), "{}", a.label);
            for (sa, sb) in a.trace.samples.iter().zip(&b.trace.samples) {
                assert_eq!(sa.t.to_bits(), sb.t.to_bits());
                assert_eq!(sa.true_cm_s.to_bits(), sb.true_cm_s.to_bits());
                assert_eq!(sa.dut_cm_s.to_bits(), sb.dut_cm_s.to_bits());
                assert_eq!(sa.promag_cm_s.to_bits(), sb.promag_cm_s.to_bits());
                assert_eq!(sa.turbine_cm_s.to_bits(), sb.turbine_cm_s.to_bits());
                assert_eq!(sa.supply_code, sb.supply_code);
                assert_eq!(sa.bubble_coverage.to_bits(), sb.bubble_coverage.to_bits());
                assert_eq!(sa.fouling_um.to_bits(), sb.fouling_um.to_bits());
                assert_eq!(sa.fault, sb.fault);
                assert_eq!(sa.health, sb.health);
            }
            // The observability layer obeys the same guarantee: per-run
            // counters, histograms and event logs match exactly.
            assert_eq!(a.trace.obs, b.trace.obs, "{}", a.label);
        }
        // And so does the campaign-wide merged snapshot.
        assert_eq!(
            crate::obs::merge_outcomes(&serial),
            crate::obs::merge_outcomes(&parallel)
        );
    }

    #[test]
    fn faulted_campaigns_stay_bit_identical_across_job_counts() {
        use crate::fault::{FaultKind, FaultSchedule};
        // Fault injection must not break the determinism contract: the
        // injection RNG is part of the spec, so traces — and the UART wire
        // statistics — match bit-for-bit at any job count.
        let specs: Vec<RunSpec> = (0..3)
            .map(|i| {
                spec(i).with_config(
                    LineConfig::new().with_faults(
                        FaultSchedule::new(derive_seed(0xFA57, i))
                            .with_event(0.5, 0.4, FaultKind::AdcStuck { code: 900 })
                            .with_event(
                                0.2,
                                1.5,
                                FaultKind::UartCorruption {
                                    flip_per_byte: 0.02,
                                    drop_per_byte: 0.02,
                                },
                            ),
                    ),
                )
            })
            .collect();
        let serial = Campaign::with_jobs(1).run(&specs).unwrap();
        let parallel = Campaign::with_jobs(3).run(&specs).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.trace.uart, b.trace.uart, "{}", a.label);
            assert_eq!(a.trace.samples.len(), b.trace.samples.len(), "{}", a.label);
            for (sa, sb) in a.trace.samples.iter().zip(&b.trace.samples) {
                assert_eq!(sa.dut_cm_s.to_bits(), sb.dut_cm_s.to_bits());
                assert_eq!(sa.supply_code, sb.supply_code);
                assert_eq!(sa.health, sb.health);
            }
            // Fault campaigns carry the densest event logs (activations,
            // clears, frame errors) — they must match too.
            assert_eq!(a.trace.obs, b.trace.obs, "{}", a.label);
            let obs = a.trace.obs.as_ref().unwrap();
            assert!(
                obs.counters.faults_activated >= 2,
                "{}: both scheduled faults should activate",
                a.label
            );
        }
        assert_eq!(
            crate::obs::merge_outcomes(&serial),
            crate::obs::merge_outcomes(&parallel)
        );
    }

    #[test]
    fn shared_points_calibration_matches_field() {
        let proto =
            FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 77).unwrap();
        let recipe = FieldCalibration::paper(0.6, 0.4, 77);
        let (points, estimate) = collect_calibration_points(&proto, &recipe, 2).unwrap();
        assert_eq!(points.len(), PAPER_SETPOINTS_CM_S.len());

        // A meter calibrated via the Points fast path behaves like one
        // that ran the Field procedure itself.
        let via_points = build_meter(
            *proto.config(),
            *proto.die().params(),
            77,
            &Calibration::Points {
                points: points.clone(),
                fluid_estimate: Some(estimate),
            },
        )
        .unwrap();
        let via_field = build_meter(
            *proto.config(),
            *proto.die().params(),
            77,
            &Calibration::Field(recipe),
        )
        .unwrap();
        let a = via_points.calibration().unwrap();
        let b = via_field.calibration().unwrap();
        assert_eq!(a.a.to_bits(), b.a.to_bits());
        assert_eq!(a.b.to_bits(), b.b.to_bits());
        assert_eq!(a.n.to_bits(), b.n.to_bits());
    }

    #[test]
    fn windows_tuple_shorthand_is_settled() {
        let w: Windows = (2.0, 3.0).into();
        assert_eq!(w, Windows::settled(2.0, 3.0));
        assert_eq!(w.settled_window(), (2.0, 5.0));
        assert_eq!(Windows::settled(2.0, 0.0).settled_window().1, f64::INFINITY);
        assert_eq!(Windows::none(), Windows::default());
    }

    #[test]
    fn execute_with_is_the_single_execution_path() {
        // execute() is a thin wrapper over execute_with(): streaming the
        // same spec into an explicit PolicyRecorder reproduces the outcome
        // bit for bit.
        let s = spec(1);
        let via_execute = s.execute().unwrap();
        let mut recorder = PolicyRecorder::new(s.record, s.reduction_plan());
        recorder.reserve(s.expected_samples());
        let (tail, _meter) = s.execute_with(&mut recorder).unwrap();
        let (samples, reduced) = recorder.finish();
        assert_eq!(via_execute.trace.samples, samples);
        assert_eq!(via_execute.trace.uart, tail.uart);
        assert_eq!(via_execute.trace.obs, tail.obs);
        assert_eq!(via_execute.reduced, reduced);
    }

    #[test]
    fn with_config_sets_every_knob_and_routes_maintenance() {
        // with_config stamps each LineConfig knob onto its spec field.
        let schedule = FaultSchedule::new(derive_seed(0xC0FE, 1)).with_event(
            0.5,
            0.4,
            crate::fault::FaultKind::AdcStuck { code: 800 },
        );
        let grouped = spec(0).with_config(
            LineConfig::new()
                .with_modality(Modality::HeatPulse)
                .with_afe_tier(AfeTier::Fast)
                .without_obs()
                .with_faults(schedule.clone()),
        );
        assert_eq!(grouped.modality, Modality::HeatPulse);
        assert_eq!(grouped.config.afe_tier, AfeTier::Fast);
        assert!(!grouped.obs.enabled);
        assert_eq!(grouped.faults, Some(schedule));

        // With maintenance on, the grouped spec routes it through
        // execution: the engine installs and its counters come back on
        // the outcome (zero-drift line ⇒ the scheduled trigger falls
        // back to re-zeros, never refits).
        let eager = Maintenance::new(crate::maintain::Policy::Scheduled { period_s: 0.2 })
            .with_min_service_interval(0.1);
        let outcome = spec(1)
            .with_config(LineConfig::new().with_maintenance(eager))
            .execute()
            .unwrap();
        assert!(
            outcome.maintenance.re_zeros > 0,
            "scheduled policy never serviced: {:?}",
            outcome.maintenance
        );
        assert_eq!(outcome.maintenance.refits, 0);
    }

    #[test]
    fn try_run_surfaces_per_spec_errors() {
        // An impossible calibration (empty grid) must fail its spec only.
        let bad = spec(0).with_calibration(Calibration::Field(FieldCalibration {
            setpoints_cm_s: Vec::new(),
            settle_s: 0.1,
            average_s: 0.1,
            seed: 1,
        }));
        let good = spec(1);
        let results = Campaign::with_jobs(2).try_run(&[bad, good]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }
}
