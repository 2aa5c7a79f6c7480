//! The control-tick clock end to end: a run steps the frames that start in
//! `[0, D]`, records samples on their tick grid, fires faults on ticks and
//! refuses run inputs no tick count can hold with typed errors — never a
//! panic, never an allocation sized by an untrusted count.

use hotwire::afe::ThermometerDac;
use hotwire::core::config::AfeTier;
use hotwire::core::faults::AdcFault;
use hotwire::core::obs::Observer;
use hotwire::core::EventKind;
use hotwire::prelude::*;
use hotwire::rig::record::MAX_RESERVED_ROWS;
use hotwire::rig::{PolicyRecorder, TickClock, TraceSample};
use hotwire::units::Watts;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The test profile's control period: 64 modulator ticks at 32 kHz.
const DT: f64 = 0.002;

fn fast_profile() -> FlowMeterConfig {
    FlowMeterConfig {
        afe_tier: AfeTier::Fast,
        ..FlowMeterConfig::test_profile()
    }
}

fn clock() -> TickClock {
    TickClock::new(FlowMeterConfig::test_profile().control_period())
}

/// Records every sample's time.
#[derive(Default)]
struct Times(Vec<f64>);

impl Recorder for Times {
    fn record(&mut self, sample: &TraceSample) {
        self.0.push(sample.t);
    }
}

/// A run records exactly ticks 1, 1 + P, 1 + 2P, … of the N frames it
/// steps — 1 + ⌊(N − 1)/P⌋ samples — and equal windows hold equal counts
/// wherever they sit in the run.
#[test]
fn samples_fall_on_the_tick_grid_wherever_windows_sit() {
    // (duration, sample period, N frames, P ticks)
    for (duration, period, frames, p) in [
        (3.0, 0.01, 1501, 5),
        (3.0, 0.005, 1501, 3),
        (2.999, 0.02, 1500, 10),
        (0.7, 0.0071, 351, 4),
        (0.7, 1e-5, 351, 1),
    ] {
        let spec = RunSpec::new("grid", fast_profile(), Scenario::steady(100.0, duration), 3)
            .with_sample_period(period)
            .with_windows(
                Windows::none()
                    .with_extra(0.1, 0.3)
                    .with_extra(0.33, 0.53)
                    .with_extra(0.45, 0.65),
            )
            .without_obs();
        let mut times = Times::default();
        let (_, meter) = spec.execute_with(&mut times).unwrap();
        assert_eq!(meter.as_cta().unwrap().control_ticks(), frames);
        let expected = 1 + (frames - 1) / p;
        assert_eq!(times.0.len() as u64, expected, "{duration} s at {period} s");
        assert_eq!(spec.expected_samples() as u64, expected);
        for (m, t) in times.0.iter().enumerate() {
            let tick = 1 + m as u64 * p;
            assert_eq!(t.to_bits(), (tick as f64 * DT).to_bits(), "sample {m}");
        }
        // Three 0.2-s windows at different offsets: the same count each.
        let outcome = spec
            .with_record(RecordPolicy::MetricsOnly)
            .execute()
            .unwrap();
        let counts: Vec<u64> = (0..3).map(|i| outcome.window(i).count()).collect();
        let per_window = times.0.iter().filter(|&&t| (0.1..0.3).contains(&t)).count() as u64;
        assert_eq!(counts, [per_window; 3], "{duration} s at {period} s");
    }
}

/// Forwards every call to a [`FlowMeter`] and counts the per-tick steps
/// the runner asks of it.
#[derive(Debug)]
struct CountingMeter {
    inner: FlowMeter,
    ticks: u64,
    frames: u64,
}

impl Meter for CountingMeter {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        self.ticks += 1;
        self.inner.step(env)
    }
    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        self.frames += 1;
        Meter::step_frame(&mut self.inner, env)
    }
    fn advance_frame(&mut self, env: SensorEnvironment) {
        self.frames += 1;
        self.inner.advance_frame(env);
    }
    fn frame_phase(&self) -> u32 {
        self.inner.frame_phase()
    }
    fn ticks_per_frame(&self) -> u32 {
        self.inner.ticks_per_frame()
    }
    fn control_period(&self) -> Seconds {
        self.inner.control_period()
    }
    fn full_scale(&self) -> MetersPerSecond {
        self.inner.full_scale()
    }
    fn health(&self) -> HealthState {
        self.inner.health()
    }
    fn power_draw(&self) -> Watts {
        self.inner.power_draw()
    }
    fn state_digest(&self) -> u64 {
        Meter::state_digest(&self.inner)
    }
    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.inner.set_observer(observer);
    }
    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.inner.take_observer()
    }
    fn has_observer(&self) -> bool {
        self.inner.has_observer()
    }
    fn observe(&mut self, kind: EventKind) {
        self.inner.observe(kind);
    }
    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        self.inner.reload_calibration()
    }
    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        self.inner.inject_adc_fault(fault);
    }
    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        self.inner.degrade_supply(fraction)
    }
    fn restore_supply(&mut self, saved: Option<ThermometerDac>) {
        self.inner.restore_supply(saved);
    }
    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        self.inner.corrupt_calibration(slot, byte);
    }
    fn inject_bubble_burst(&mut self, coverage: f64) {
        self.inner.inject_bubble_burst(coverage);
    }
    fn deposit_fouling(&mut self, microns: f64) {
        self.inner.deposit_fouling(microns);
    }
    fn worst_bubble_coverage(&self) -> f64 {
        self.inner.worst_bubble_coverage()
    }
    fn worst_fouling_um(&self) -> f64 {
        self.inner.worst_fouling_um()
    }
}

/// Impulse faults (0-s or windowed) and a one-tick window run on the frame
/// path: no per-tick `step`, one frame per control tick.
#[test]
fn impulse_faults_step_whole_frames_only() {
    let schedule = FaultSchedule::new(7)
        .with_event(0.2, 0.0, FaultKind::BubbleBurst { coverage: 0.3 })
        .with_event(0.3001, 0.0, FaultKind::SteppedFouling { microns: 2.0 })
        .with_event(0.4, 0.25, FaultKind::EepromBitFlip { slot: 0, byte: 3 })
        .with_event(0.5, DT, FaultKind::AdcOffset { codes: 50 });
    let inner = FlowMeter::new(fast_profile(), MafParams::nominal(), 7).unwrap();
    let meter = CountingMeter {
        inner,
        ticks: 0,
        frames: 0,
    };
    let mut runner = LineRunner::new(Scenario::steady(100.0, 1.0), meter, 7);
    runner.install_faults(schedule);
    let trace = runner.run(0.01);
    let meter = runner.into_meter();
    assert_eq!(meter.ticks, 0, "per-tick steps on a frame-aligned meter");
    assert_eq!(meter.frames, 501);
    assert_eq!(trace.samples.len(), 101);
    assert!(trace.samples.iter().any(|s| s.bubble_coverage > 0.1));
}

/// Each impulse fires and clears in one tick, stamped with its onset
/// tick; a window clears at the first frame at or after its end.
#[test]
fn impulse_activation_and_clear_share_one_tick_stamp() {
    let schedule = FaultSchedule::new(8)
        .with_event(0.3, 0.0, FaultKind::BubbleBurst { coverage: 0.2 })
        .with_event(0.5001, 0.2, FaultKind::SteppedFouling { microns: 1.0 })
        .with_event(0.7, 0.0, FaultKind::EepromBitFlip { slot: 0, byte: 3 })
        .with_event(0.9, 0.1, FaultKind::AdcOffset { codes: 40 });
    let outcome = RunSpec::new("stamps", fast_profile(), Scenario::steady(100.0, 1.2), 8)
        .with_config(
            LineConfig::new()
                .with_afe_tier(AfeTier::Fast)
                .with_faults(schedule),
        )
        .execute()
        .unwrap();
    let events = outcome.trace.obs.unwrap().events;
    let stamps = |wanted: &str| -> Vec<(bool, u64)> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultActivated { fault } if fault == wanted => Some((true, e.tick)),
                EventKind::FaultCleared { fault } if fault == wanted => Some((false, e.tick)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(stamps("bubble_burst"), [(true, 150), (false, 150)]);
    assert_eq!(stamps("stepped_fouling"), [(true, 251), (false, 251)]);
    assert_eq!(stamps("eeprom_bit_flip"), [(true, 350), (false, 350)]);
    assert_eq!(stamps("adc_offset"), [(true, 450), (false, 500)]);
}

/// A windowed fault shorter than one control tick is a typed error from
/// both entry points; impulses need no window.
#[test]
fn subtick_windows_are_typed_errors() {
    let impulse =
        FaultSchedule::new(1).with_event(0.1, 0.0, FaultKind::BubbleBurst { coverage: 0.1 });
    for (window, kind) in [
        (0.0, FaultKind::AdcStuck { code: 10 }),
        (0.0019, FaultKind::SupplyBrownout { fraction: 0.5 }),
        (
            1e-9,
            FaultKind::UartCorruption {
                flip_per_byte: 0.1,
                drop_per_byte: 0.0,
            },
        ),
    ] {
        let schedule = impulse.clone().with_event(0.2, window, kind);
        let expected = SpecError::SubTickFault {
            event: 1,
            fault: kind.name(),
        };
        let spec = RunSpec::new("subtick", fast_profile(), Scenario::steady(100.0, 0.5), 1)
            .with_config(
                LineConfig::new()
                    .with_afe_tier(AfeTier::Fast)
                    .with_faults(schedule.clone()),
            );
        assert_eq!(spec.validate(), Err(expected));
        assert_eq!(spec.execute().err(), Some(CoreError::from(expected)));
        let fleet = FleetSpec::new("subtick", fast_profile(), Scenario::steady(100.0, 0.5), 1)
            .with_lines(2)
            .with_variation(LineVariation::new().with_faults_every(2, 1, schedule));
        assert_eq!(fleet.validate(), Err(FleetSpecError::Line(expected)));
    }
}

/// Seconds the runner's and the meter's asserts refuse come back as
/// [`CoreError::Config`] from [`RunSpec::execute`].
#[test]
fn untrusted_run_seconds_are_config_errors() {
    for (sample_period_s, duration_s, auto_zero_s, expected) in [
        (0.0, 1.0, None, SpecError::BadSamplePeriod),
        (-0.1, 1.0, None, SpecError::BadSamplePeriod),
        (f64::NAN, 1.0, None, SpecError::BadSamplePeriod),
        (0.05, f64::NAN, None, SpecError::BadDuration),
        (0.05, f64::INFINITY, None, SpecError::BadDuration),
        (0.05, 1.0, Some(f64::NAN), SpecError::BadAutoZero),
        (0.05, 1.0, Some(f64::INFINITY), SpecError::BadAutoZero),
        (0.05, 1.0, Some(-0.5), SpecError::BadAutoZero),
        (0.05, 1.0, Some(1e300), SpecError::BadAutoZero),
    ] {
        let mut spec = RunSpec::new(
            "untrusted",
            fast_profile(),
            Scenario::steady(50.0, duration_s),
            18,
        )
        .with_sample_period(sample_period_s);
        spec.auto_zero_s = auto_zero_s;
        assert_eq!(
            spec.execute().map(|_| ()),
            Err(CoreError::from(expected)),
            "sample period {sample_period_s} s, duration {duration_s} s, \
             auto-zero {auto_zero_s:?}"
        );
    }
}

/// A valid but enormous spec sizes no allocation by its sample count.
#[test]
fn a_huge_valid_spec_reserves_a_bounded_trace() {
    let spec = RunSpec::new("huge", fast_profile(), Scenario::steady(50.0, 1e12), 1);
    assert_eq!(spec.validate(), Ok(()));
    // 5e14 + 1 frames of 2 ms, a 20-ms sample every tenth.
    assert_eq!(spec.expected_samples(), 50_000_000_000_001);
    let mut recorder = PolicyRecorder::new(RecordPolicy::Full, spec.reduction_plan());
    recorder.reserve(spec.expected_samples());
    let (store, _) = recorder.finish();
    assert_eq!(
        store.heap_bytes(),
        TraceStore::with_capacity(MAX_RESERVED_ROWS).heap_bytes()
    );
}

/// Second-valued inputs a spec may carry: specials, extremes, values near
/// whole ticks and ordinary ones.
struct AnySeconds;

impl Strategy for AnySeconds {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        const SPECIAL: [f64; 12] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -1e-300,
            0.0,
            -0.0,
            5e-324,
            2.2e-308,
            1e300,
            f64::MAX,
            1e12,
        ];
        match rng.below(4) {
            0 => SPECIAL[rng.below(SPECIAL.len() as u128) as usize],
            // Near a whole tick, within a few ulps or a few millionths.
            1 => {
                let ticks = rng.below(200) as f64;
                let nudge = [0.0, 1e-15, -1e-15, 3e-7, -3e-7, 0.3, 0.5][rng.below(7) as usize];
                (ticks + nudge) * DT
            }
            2 => rng.unit_f64() * 0.3,
            _ => 10f64.powf(rng.unit_f64() * 12.0 - 6.0),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Validation never panics; it accepts exactly the inputs a run can
    /// count in ticks, the same way for a run and a fleet, and accepted
    /// inputs convert to the tick counts the rules give. Short accepted
    /// specs run and record exactly their expected samples.
    #[test]
    fn run_seconds_validate_and_convert_by_the_rules(
        duration in AnySeconds,
        period in AnySeconds,
        onset in AnySeconds,
        window in AnySeconds,
        impulse_at in AnySeconds,
        settle in AnySeconds,
        auto_zero in AnySeconds,
    ) {
        let schedule = FaultSchedule::new(3)
            .with_event(impulse_at, 0.0, FaultKind::BubbleBurst { coverage: 0.1 })
            .with_event(onset, window, FaultKind::AdcOffset { codes: 30 });
        let calibration = Calibration::Field(FieldCalibration::paper(settle, 0.01, 3));
        let spec = RunSpec::new("prop", fast_profile(), Scenario::steady(80.0, duration), 3)
            .with_sample_period(period)
            .with_calibration(calibration.clone())
            .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast).with_faults(schedule.clone()))
            .with_record(RecordPolicy::MetricsOnly);
        let verdict = spec.validate();
        let mut fleet = FleetSpec::new("prop", fast_profile(), Scenario::steady(80.0, duration), 3)
            .with_lines(2)
            .with_sample_period(period)
            .with_variation(LineVariation::new().with_faults_every(1, 0, schedule.clone()));
        fleet.calibration = calibration;
        prop_assert_eq!(fleet.validate(), verdict.map_err(FleetSpecError::Line));

        let q = |s: f64| s / DT;
        let frames_fit = duration >= 0.0 && q(duration) < 2f64.powi(64);
        let valid = period.is_finite() && period > 0.0
            && duration.is_finite() && frames_fit
            && (settle + 0.01).is_finite()
            && [impulse_at, onset, window].iter().all(|s| s.is_finite())
            // At least one tick, up to the clock's snapping distance.
            && (q(window) >= 1.0 || (q(window) - 1.0).abs() <= 1e-6);
        prop_assert_eq!(verdict.is_ok(), valid, "{:?}", verdict);
        // An auto-zero holds ⌊A/dt⌋ whole frames, up to snapping; the
        // spec refuses one no u64 counts after every other input.
        let zeroed = spec.clone().with_auto_zero(auto_zero).validate();
        let zero_fits = auto_zero >= 0.0 && q(auto_zero) < 2f64.powi(64);
        prop_assert_eq!(
            zeroed,
            verdict.and(if zero_fits { Ok(()) } else { Err(SpecError::BadAutoZero) })
        );
        if verdict.is_err() {
            return Ok(());
        }

        let clock = clock();
        // N frames start in [0, D]: N − 1 is ⌊D/dt⌋ up to snapping.
        let n = clock.frames(duration).unwrap();
        let last = (n - 1) as f64;
        prop_assert!(last <= q(duration) + 1e-6 && q(duration) < last + 1.0 + 1e-6);
        // P rounds the period to whole ticks, at least one.
        let p = clock.ticks_in(period);
        prop_assert!(
            (p as f64 - q(period)).abs() <= 0.5 + 1e-6
                || (p == 1 && q(period) < 1.5)
                || p == u64::MAX
        );
        let samples = 1 + (n - 1) / p;
        prop_assert_eq!(spec.expected_samples() as u64, samples);
        // Onsets move to the first frame at or after them; impulses clear
        // at their onset; windows hold at least one tick.
        for e in &schedule.events {
            let (on, off) = e.ticks(clock);
            let at = q(e.at_s).max(0.0);
            prop_assert!(on == u64::MAX || (on as f64 >= at - 1e-6 && (on as f64) < at + 1.0 + 1e-6));
            if matches!(e.kind, FaultKind::BubbleBurst { .. }) {
                prop_assert_eq!(on, off);
            } else {
                prop_assert!(off > on || on == u64::MAX);
            }
        }
        // Run the short ones (without the field calibration's setpoints).
        if n <= 150 {
            let outcome = spec.with_calibration(Calibration::Factory).execute().unwrap();
            prop_assert_eq!(outcome.reduced.samples, samples);
        }
    }
}
