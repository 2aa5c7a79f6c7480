//! Co-simulation of the device under test and the reference meters.
//!
//! The runner drives one device under test (any [`Meter`]) and both
//! commercial references through a [`Scenario`] on *shared true flow* —
//! the semantics of the paper's evaluation line, where the MAF prototype
//! and the Promag 50 see the same water.
//!
//! A run counts control ticks ([`hotwire_core::clock`]): it steps the
//! frames that start inside `[0, duration]` and records the sample after
//! frames 0, P, 2P, … — control ticks 1, 1 + P, 1 + 2P, … — where P is the
//! sample period rounded to whole ticks.

use crate::fault::{FaultInjector, FaultSchedule, UartStats};
use crate::line::WaterLine;
use crate::maintain::{MaintenanceCounters, MaintenanceEngine};
use crate::metrics::Welford;
use crate::obs::RunObs;
use crate::promag::Promag50;
use crate::record::{CsvSink, Recorder, TraceStore};
use crate::scenario::Scenario;
use crate::turbine::TurbineMeter;
use hotwire_core::{HealthState, Meter, TickClock};
use hotwire_physics::SensorEnvironment;
use hotwire_units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One recorded co-simulation sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TraceSample {
    /// Scenario time, seconds.
    pub t: f64,
    /// True bulk velocity, cm/s (signed).
    pub true_cm_s: f64,
    /// Device-under-test conditioned velocity, cm/s (signed).
    pub dut_cm_s: f64,
    /// Promag 50 reading, cm/s (signed).
    pub promag_cm_s: f64,
    /// Turbine reading, cm/s (unsigned).
    pub turbine_cm_s: f64,
    /// Supply-DAC code commanded by the loop.
    pub supply_code: u32,
    /// Worst heater bubble coverage, 0..=1.
    pub bubble_coverage: f64,
    /// Worst heater CaCO₃ thickness, µm.
    pub fouling_um: f64,
    /// Any fault flag raised this tick.
    pub fault: bool,
    /// Aggregate health state reported by the firmware supervisor.
    pub health: HealthState,
}

/// A recorded co-simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recorded samples, in time order (columnar; see [`TraceStore`]).
    pub samples: TraceStore,
    /// Telemetry-link statistics (non-zero only when the run carried a
    /// UART fault — see [`FaultSchedule`]).
    pub uart: UartStats,
    /// Structured observability for the run — present when the meter
    /// entered [`LineRunner::run`] with an observer installed (which the
    /// campaign layer does unless the spec disabled it). Deterministic:
    /// equal specs produce equal `obs` at any job count.
    pub obs: Option<RunObs>,
}

impl Trace {
    /// Streaming statistics of the DUT series over `[t0, t1)` — window
    /// bounds found by `partition_point` binary search on the time column.
    pub fn window_stats(&self, t0: f64, t1: f64) -> Welford {
        self.samples.window_stats(t0, t1)
    }

    /// Renders the trace as CSV (header + one row per sample) for external
    /// plotting — the raw material of the paper's Fig. 11. Streaming runs
    /// can write rows directly with a [`CsvSink`] instead.
    pub fn to_csv(&self) -> String {
        let mut sink = CsvSink::with_capacity(self.samples.len());
        for s in &self.samples {
            sink.record(&s);
        }
        sink.into_string()
    }
}

/// Everything [`LineRunner::run_with`] produces besides the samples it
/// pushed into the caller's [`Recorder`].
#[derive(Debug, Default)]
pub struct RunTail {
    /// Telemetry-link statistics (non-zero only for UART-faulted runs).
    pub uart: UartStats,
    /// Structured observability, when an observer was installed.
    pub obs: Option<RunObs>,
    /// Maintenance-policy actions taken during the run (all zero unless
    /// an engine was installed — see
    /// [`install_maintenance`](LineRunner::install_maintenance)).
    pub maintenance: MaintenanceCounters,
}

/// The co-simulation runner, generic over the device under test: either
/// [`Meter`] modality (CTA, heat-pulse) drives the same line, reference
/// meters, fault injector and recording machinery.
#[derive(Debug)]
pub struct LineRunner<M: Meter> {
    line: WaterLine,
    meter: M,
    promag: Promag50,
    turbine: TurbineMeter,
    ref_rng: StdRng,
    env: SensorEnvironment,
    control_dt: Seconds,
    clock: TickClock,
    injector: Option<FaultInjector>,
    maintain: Option<MaintenanceEngine>,
}

impl<M: Meter> LineRunner<M> {
    /// Builds a runner for `scenario` around an existing meter
    /// (deterministic under `seed`).
    pub fn new(scenario: Scenario, meter: M, seed: u64) -> Self {
        let control_dt = meter.control_period();
        let full_scale = meter.full_scale();
        LineRunner {
            line: WaterLine::new(scenario, seed),
            meter,
            promag: Promag50::new(full_scale),
            turbine: TurbineMeter::dn50(),
            ref_rng: StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF),
            env: SensorEnvironment::still_water(),
            control_dt,
            clock: TickClock::new(control_dt),
            injector: None,
            maintain: None,
        }
    }

    /// Installs a maintenance-policy engine: it is consulted once per
    /// produced measurement (one control tick, at the frame boundary)
    /// during [`run`](Self::run) and may re-zero / refit / persist the
    /// meter's calibration. RNG-lane-neutral — see
    /// [`maintain`](crate::maintain).
    pub fn install_maintenance(&mut self, engine: MaintenanceEngine) {
        self.maintain = Some(engine);
    }

    /// Installs a fault schedule: its events will fire at the control
    /// ticks their scenario times move to during [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if a windowed fault is shorter than one control tick (see
    /// [`FaultInjector::new`]).
    pub fn install_faults(&mut self, schedule: FaultSchedule) {
        self.injector = Some(FaultInjector::new(schedule, self.clock));
    }

    /// Enables telemetry wire capture for the next run: every byte that
    /// reaches the simulated receiver (post-corruption) is also recorded,
    /// retrievable with [`take_wire`](Self::take_wire). Installs an empty
    /// [`FaultSchedule`] when none is present, so clean lines also frame
    /// their telemetry onto the tap.
    pub fn capture_wire(&mut self) {
        if self.injector.is_none() {
            self.injector = Some(FaultInjector::new(FaultSchedule::new(0), self.clock));
        }
        self.injector
            .as_mut()
            .expect("injector just installed")
            .capture_wire();
    }

    /// Takes the wire bytes captured since [`capture_wire`](Self::capture_wire);
    /// empty if capture was never enabled.
    pub fn take_wire(&mut self) -> Vec<u8> {
        self.injector
            .as_mut()
            .map(FaultInjector::take_wire)
            .unwrap_or_default()
    }

    /// The device under test.
    #[inline]
    pub fn meter(&self) -> &M {
        &self.meter
    }

    /// Takes the meter back out of the runner.
    pub fn into_meter(self) -> M {
        self.meter
    }

    /// The number of samples a run at `sample_period_s` records (see
    /// [`expected_samples`]).
    pub fn expected_samples(&self, sample_period_s: f64) -> usize {
        expected_samples(
            self.line.scenario().duration_s,
            sample_period_s,
            self.control_dt.get(),
        )
    }

    /// Runs the scenario to completion, recording one sample every
    /// `sample_period_s` of scenario time into a full [`Trace`].
    ///
    /// This is a **thin delegating wrapper** over
    /// [`run_with`](Self::run_with) with a pre-sized [`TraceStore`] sink —
    /// `run_with` is the one generic entry point every execution path
    /// (campaign, fleet, direct callers) shares; use it directly to stream
    /// into reducers instead of materializing.
    ///
    /// # Panics
    ///
    /// Panics if `sample_period_s` is not a positive number (see
    /// [`run_with`](Self::run_with)).
    pub fn run(&mut self, sample_period_s: f64) -> Trace {
        // Pre-allocating keeps the hot recording loop free of reallocation.
        let mut store = TraceStore::for_run(self.expected_samples(sample_period_s));
        let tail = self.run_with(sample_period_s, &mut store);
        Trace {
            samples: store,
            uart: tail.uart,
            obs: tail.obs,
        }
    }

    /// Runs the scenario to completion, pushing one sample every
    /// `sample_period_s` of scenario time into `recorder`.
    ///
    /// The run steps every control frame that starts inside
    /// `[0, duration]` and records the sample after frames 0, P, 2P, …,
    /// where P is `sample_period_s` rounded to whole control ticks (at
    /// least one; see [`hotwire_core::clock`]). The line and reference meters
    /// advance at the control rate (the probe environment is held between
    /// control ticks — turbulence above the control bandwidth is invisible
    /// to every instrument on the line).
    ///
    /// # Panics
    ///
    /// Panics if `sample_period_s` is not a positive number, or if the
    /// scenario duration is not finite: the run would never end.
    /// [`RunSpec::execute`](crate::campaign::RunSpec::execute) refuses both
    /// with a typed error before any run. Panics too on a meter that is not
    /// frame-aligned.
    pub fn run_with<R: Recorder + ?Sized>(
        &mut self,
        sample_period_s: f64,
        recorder: &mut R,
    ) -> RunTail {
        assert!(
            sample_period_s > 0.0,
            "LineRunner::run: sample_period_s must be a positive number of \
             seconds, got {sample_period_s}"
        );
        let duration_s = self.line.scenario().duration_s;
        assert!(
            duration_s.is_finite(),
            "LineRunner::run: the scenario duration must be finite or the run \
             never ends, got {duration_s} s"
        );
        let phase = self.meter.frame_phase();
        assert!(
            phase == 0,
            "LineRunner::run: the meter must be frame-aligned, got frame phase {phase}"
        );
        // A duration whose frame count overflows a u64 never ends either.
        let frames = self.clock.frames(duration_s).unwrap_or(u64::MAX);
        let period = self.clock.ticks_in(sample_period_s);
        let mut tail = RunTail::default();
        // Hot-loop instrumentation is gated on the observer's presence:
        // without one, the per-step overhead is a single `bool` test.
        let observing = self.meter.has_observer();
        let mut run_obs = observing.then(RunObs::default);
        let frame_ticks = u64::from(self.meter.ticks_per_frame());
        // The next frame whose sample is due: 0, P, 2P, ….
        let mut next_due = 0;
        for frame in 0..frames {
            // Faults engage/revert before the frame they first affect.
            if let Some(injector) = self.injector.as_mut() {
                injector.apply(frame, &mut self.meter);
            }
            let due = frame == next_due;
            if due {
                next_due = frame.saturating_add(period);
            }
            // Only an observer or a due sample reads the frame's
            // measurement; any other frame skips what only it needs.
            let m = if observing || due {
                Some(self.meter.step_frame(self.env))
            } else {
                self.meter.advance_frame(self.env);
                None
            };
            if let Some(obs) = run_obs.as_mut() {
                let m = m.expect("an observed run reads every frame");
                obs.counters.modulator_steps += frame_ticks;
                obs.counters.control_ticks += 1;
                obs.pi_output.record(m.supply_code as i64);
            }

            // Frame boundary: one maintenance-policy evaluation per
            // produced measurement (draws no RNG, so the reference lanes
            // below are untouched).
            if let Some(engine) = self.maintain.as_mut() {
                engine.service(&mut self.meter);
            }

            // Control tick: refresh environment and references.
            self.env = self.line.step(self.control_dt);
            let bulk = self.line.bulk_velocity();
            let promag = self.promag.step(self.control_dt, bulk, &mut self.ref_rng);
            let turbine = self.turbine.step(self.control_dt, bulk);

            if due {
                let m = m.expect("the frame before a due sample is read");
                if let Some(injector) = self.injector.as_mut() {
                    injector.observe(frame + 1, &m, &mut self.meter);
                }
                if let Some(obs) = run_obs.as_mut() {
                    obs.counters.samples_recorded += 1;
                }
                recorder.record(&TraceSample {
                    t: self.line.time(),
                    true_cm_s: bulk.to_cm_per_s(),
                    dut_cm_s: m.velocity.to_cm_per_s(),
                    promag_cm_s: promag.to_cm_per_s(),
                    turbine_cm_s: turbine.to_cm_per_s(),
                    supply_code: m.supply_code,
                    bubble_coverage: self.meter.worst_bubble_coverage(),
                    fouling_um: self.meter.worst_fouling_um(),
                    fault: m.faults.any(),
                    health: m.health,
                });
            }
        }
        if let Some(injector) = &self.injector {
            tail.uart = injector.stats();
        }
        if let Some(engine) = &self.maintain {
            tail.maintenance = engine.counters();
        }
        if let Some(mut obs) = run_obs {
            // Collect the event log the campaign layer installed; the
            // meter leaves the run unobserved (a second `run` would carry
            // no `obs`, matching the empty observer).
            if let Some(mut observer) = self.meter.take_observer() {
                obs.events = observer.drain();
                obs.counters.events_dropped = observer.dropped();
            }
            obs.counters.absorb_events(&obs.events);
            tail.obs = Some(obs);
        }
        tail
    }
}

/// The samples a run of `duration_s` at `sample_period_s` records on a
/// meter whose control tick is `control_period_s`: `1 + ⌊(N − 1)/P⌋` for
/// `N` frames and a period of `P` ticks (see [`hotwire_core::clock`]) — the
/// capacity a full-trace sink needs. Saturates at `usize::MAX` for a run
/// that never ends, and is 0 for a period the runner refuses.
pub fn expected_samples(duration_s: f64, sample_period_s: f64, control_period_s: f64) -> usize {
    if sample_period_s.is_nan() || sample_period_s <= 0.0 {
        return 0;
    }
    let clock = TickClock::new(Seconds::new(control_period_s));
    match clock.frames(duration_s) {
        Some(0) => 0,
        Some(frames) => {
            let samples = 1 + (frames - 1) / clock.ticks_in(sample_period_s);
            usize::try_from(samples).unwrap_or(usize::MAX)
        }
        None => usize::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FieldCalibration;
    use crate::{exec, metrics};
    use hotwire_core::config::FlowMeterConfig;
    use hotwire_core::FlowMeter;
    use hotwire_physics::MafParams;

    fn test_meter(seed: u64) -> FlowMeter {
        FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), seed).unwrap()
    }

    /// A cadence far below the control tick records one sample per tick,
    /// and the full trace is sized for exactly those, not for the
    /// cadence.
    #[test]
    fn full_trace_reserves_only_what_a_run_can_record() {
        let mut runner = LineRunner::new(Scenario::steady(100.0, 0.5), test_meter(3), 3);
        let trace = runner.run(1e-5);
        let rows = trace.samples.len();
        assert_eq!(
            rows, 251,
            "one sample per 2 ms frame starting in [0, 0.5 s]"
        );
        assert_eq!(
            trace.samples.heap_bytes(),
            TraceStore::with_capacity(rows).heap_bytes()
        );
    }

    #[test]
    fn steady_run_tracks_truth() {
        let meter = test_meter(11);
        let mut runner = LineRunner::new(Scenario::steady(100.0, 4.0), meter, 11);
        let trace = runner.run(0.01);
        assert!(!trace.samples.is_empty());
        let mean = metrics::mean(trace.samples.dut_in(2.0, 4.0));
        assert!(
            (mean - 100.0).abs() < 25.0,
            "factory-calibrated DUT mean {mean} cm/s at 100 cm/s true"
        );
        // Promag stays within its datasheet band.
        let promag_err: Vec<f64> = trace
            .samples
            .iter()
            .filter(|s| s.t > 1.0)
            .map(|s| s.promag_cm_s - s.true_cm_s)
            .collect();
        assert!(metrics::std_dev(&promag_err) < 1.5);
    }

    #[test]
    fn field_calibration_improves_accuracy() {
        let mut meter = test_meter(12);
        FieldCalibration {
            setpoints_cm_s: vec![15.0, 50.0, 100.0, 160.0, 220.0],
            settle_s: 0.6,
            average_s: 0.4,
            seed: 12,
        }
        .apply(&mut meter, exec::default_jobs())
        .unwrap();
        let mut runner = LineRunner::new(Scenario::steady(120.0, 4.0), meter, 13);
        let trace = runner.run(0.01);
        let mean = metrics::mean(trace.samples.dut_in(2.0, 4.0));
        assert!(
            (mean - 120.0).abs() < 8.0,
            "calibrated DUT mean {mean} cm/s at 120 cm/s true"
        );
    }

    #[test]
    fn trace_records_all_instruments() {
        let meter = test_meter(14);
        let mut runner = LineRunner::new(Scenario::steady(150.0, 3.0), meter, 14);
        let trace = runner.run(0.05);
        let last = trace.samples.last().unwrap();
        // The truth comes back through the schedule's piecewise-linear
        // interpolation — compare with a tolerance, not float `==`.
        assert!(
            (last.true_cm_s - 150.0).abs() < 1e-9,
            "true velocity {} cm/s",
            last.true_cm_s
        );
        assert!(last.promag_cm_s > 100.0);
        assert!(last.turbine_cm_s > 100.0);
        assert!(last.supply_code > 0);
        assert!(!last.fault || last.bubble_coverage > 0.0 || last.fouling_um > 0.0);
    }

    #[test]
    fn sample_period_respected() {
        let meter = test_meter(15);
        let mut runner = LineRunner::new(Scenario::steady(100.0, 2.0), meter, 15);
        let trace = runner.run(0.1);
        // 1001 frames of 2 ms, a sample every 50: ticks 1, 51, …, 1001.
        assert_eq!(trace.samples.len(), 21);
        assert_eq!(trace.samples.len(), runner.expected_samples(0.1));
    }

    #[test]
    fn csv_export_round_trips_row_count() {
        let meter = test_meter(17);
        let mut runner = LineRunner::new(Scenario::steady(80.0, 1.0), meter, 17);
        let trace = runner.run(0.1);
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), trace.samples.len() + 1);
        assert!(lines[0].starts_with("t_s,true_cm_s"));
        // Every data row parses back to the right number of fields.
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), 10, "row `{row}`");
        }
    }

    #[test]
    fn window_stats_matches_linear_filter() {
        // The partition_point window bounds agree with the historical
        // linear scan, bit for bit.
        let meter = test_meter(19);
        let mut runner = LineRunner::new(Scenario::steady(90.0, 3.0), meter, 19);
        let trace = runner.run(0.02);
        let post_hoc: Welford = trace
            .samples
            .iter()
            .filter(|s| s.t >= 1.0 && s.t < 2.5)
            .map(|s| s.dut_cm_s)
            .collect();
        assert_eq!(trace.window_stats(1.0, 2.5), post_hoc);
        assert!(trace.window_stats(1.0, 2.5).count() > 0);
    }

    #[test]
    fn run_with_streams_into_custom_recorder() {
        use crate::record::{PolicyRecorder, RecordPolicy, ReductionPlan};
        let meter = test_meter(20);
        let mut runner = LineRunner::new(Scenario::steady(70.0, 2.0), meter, 20);
        let mut rec = PolicyRecorder::new(
            RecordPolicy::MetricsOnly,
            ReductionPlan {
                settle: (1.0, 2.0),
                ..ReductionPlan::default()
            },
        );
        let tail = runner.run_with(0.05, &mut rec);
        assert!(tail.obs.is_none(), "no observer was installed");
        let (store, red) = rec.finish();
        assert!(store.is_empty(), "MetricsOnly must hold no samples");
        assert!(red.samples > 20);
        assert!(red.settled.count() > 0);
        assert!((red.settled.mean() - 70.0).abs() < 35.0);
    }

    #[test]
    #[should_panic(expected = "the meter must be frame-aligned, got frame phase 1")]
    fn run_with_refuses_a_mid_frame_meter() {
        let mut meter = test_meter(17);
        meter.step(SensorEnvironment::still_water());
        LineRunner::new(Scenario::steady(50.0, 0.1), meter, 17).run(0.01);
    }

    #[test]
    fn into_meter_returns_dut() {
        let meter = test_meter(16);
        let mut runner = LineRunner::new(Scenario::steady(50.0, 1.0), meter, 16);
        runner.run(0.1);
        let meter = runner.into_meter();
        assert!(meter.last_measurement().is_some());
    }
}
