//! Transparent timing wrappers at the `Meter` and `Recorder` boundaries.
//!
//! Both forward every call unchanged — a traced run must reproduce its
//! untraced twin bit for bit, which `hwbench trace` checks — and time the
//! calls through a [`Span`]: the first [`HEAD_CALLS`] calls of each kind
//! in full, then a random one in [`SAMPLE_EVERY`], which keeps the clock
//! reads off most of the fast tier's sub-microsecond frames.

use hotwire_afe::ThermometerDac;
use hotwire_core::faults::AdcFault;
use hotwire_core::obs::{EventKind, Observer};
use hotwire_core::{CoreError, HealthState, Measurement, Meter};
use hotwire_physics::SensorEnvironment;
use hotwire_rig::{Recorder, TraceSample};
use hotwire_units::{Celsius, MetersPerSecond, Seconds, Watts};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// A span times its first this-many calls in full.
pub const HEAD_CALLS: u64 = 4;
/// After its head, a span times one call in this many.
pub const SAMPLE_EVERY: u64 = 32;

/// What timing an empty call reads on this host, measured once as the mean
/// over many empty spans. Sampled durations have it taken off, so
/// sub-microsecond calls are not inflated by the clock; single samples may
/// then come out negative, their mean over many calls does not. Calls far
/// cheaper than a clock read (the maintenance engine's polls) stay at the
/// resolution floor and read near zero.
fn clock_read_s() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let spans = 100_000;
        let mut total = 0.0;
        for _ in 0..spans {
            let start = Instant::now();
            std::hint::black_box(());
            total += start.elapsed().as_secs_f64();
        }
        total / f64::from(spans)
    })
}

/// Calls and wall time of one kind of call.
///
/// The first [`HEAD_CALLS`] calls (the *head*) are all timed and count
/// once each, so a cold first call — scratch buffers allocated, caches
/// empty — is not multiplied up, and rare calls are timed exactly. After
/// the head, each call is timed with probability 1/[`SAMPLE_EVERY`],
/// picked by a xorshift generator rather than a fixed stride so a cost
/// that recurs every n-th call is not aliased; the mean of the sampled
/// tail calls stands for every tail call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub calls: u64,
    head_s: f64,
    tail_calls: u64,
    tail_sampled: u64,
    tail_s: f64,
    pick: u64,
}

impl Default for Span {
    fn default() -> Self {
        Span {
            calls: 0,
            head_s: 0.0,
            tail_calls: 0,
            tail_sampled: 0,
            tail_s: 0.0,
            pick: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Span {
    /// Counts a call and runs it, timing it when it is in the head or
    /// drawn for the sample.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let head = self.calls < HEAD_CALLS;
        self.calls += 1;
        if !head {
            self.tail_calls += 1;
            self.pick ^= self.pick << 13;
            self.pick ^= self.pick >> 7;
            self.pick ^= self.pick << 17;
            if self.pick % SAMPLE_EVERY != 0 {
                return f();
            }
        }
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64() - clock_read_s();
        if head {
            self.head_s += seconds;
        } else {
            self.tail_s += seconds;
            self.tail_sampled += 1;
        }
        out
    }

    /// Adds a call timed by the caller (counted exactly, like a head call).
    pub fn add(&mut self, seconds: f64) {
        self.calls += 1;
        self.head_s += seconds;
    }

    /// Estimated total seconds over every call.
    pub fn seconds(&self) -> f64 {
        let head_calls = self.calls - self.tail_calls;
        let tail_mean = if self.tail_sampled > 0 {
            self.tail_s / self.tail_sampled as f64
        } else if head_calls > 0 {
            self.head_s / head_calls as f64
        } else {
            0.0
        };
        (self.head_s + tail_mean * self.tail_calls as f64).max(0.0)
    }

    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.head_s += other.head_s;
        self.tail_calls += other.tail_calls;
        self.tail_sampled += other.tail_sampled;
        self.tail_s += other.tail_s;
    }
}

/// What a [`TimedMeter`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeterSpans {
    /// `step_frame` calls (one per control frame).
    pub frames: Span,
    /// Per-tick `step` calls (de-aligned meters, sub-tick fault windows).
    pub ticks: Span,
    /// The fault-injection hooks.
    pub fault_hooks: Span,
    /// The calibration surface and health query the maintenance engine
    /// polls each control tick, plus calibration reloads.
    pub calibration: Span,
}

impl MeterSpans {
    pub fn seconds(&self) -> f64 {
        self.frames.seconds()
            + self.ticks.seconds()
            + self.fault_hooks.seconds()
            + self.calibration.seconds()
    }

    pub fn merge(&mut self, other: &MeterSpans) {
        self.frames.merge(&other.frames);
        self.ticks.merge(&other.ticks);
        self.fault_hooks.merge(&other.fault_hooks);
        self.calibration.merge(&other.calibration);
    }
}

/// A [`Meter`] that forwards every method to `inner` and times the
/// stepping, fault-hook and calibration calls. It is the benchmark's only
/// coupling to the trait's method list. The spans sit in `Cell`s so the
/// `&self` queries the maintenance engine polls are timed too.
#[derive(Debug)]
pub struct TimedMeter<M> {
    pub inner: M,
    frames: Cell<Span>,
    ticks: Cell<Span>,
    fault_hooks: Cell<Span>,
    calibration: Cell<Span>,
}

fn timed<T>(span: &Cell<Span>, f: impl FnOnce() -> T) -> T {
    let mut s = span.get();
    let out = s.time(f);
    span.set(s);
    out
}

impl<M> TimedMeter<M> {
    pub fn new(inner: M) -> Self {
        TimedMeter {
            inner,
            frames: Cell::default(),
            ticks: Cell::default(),
            fault_hooks: Cell::default(),
            calibration: Cell::default(),
        }
    }

    pub fn spans(&self) -> MeterSpans {
        MeterSpans {
            frames: self.frames.get(),
            ticks: self.ticks.get(),
            fault_hooks: self.fault_hooks.get(),
            calibration: self.calibration.get(),
        }
    }
}

impl<M: Meter> Meter for TimedMeter<M> {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        let inner = &mut self.inner;
        timed(&self.ticks, || inner.step(env))
    }

    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        let inner = &mut self.inner;
        timed(&self.frames, || inner.step_frame(env))
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
        timed(&self.calibration, || self.inner.health())
    }

    fn power_draw(&self) -> Watts {
        self.inner.power_draw()
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
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
        let inner = &mut self.inner;
        timed(&self.calibration, || inner.reload_calibration())
    }

    fn re_zero(&mut self) {
        let inner = &mut self.inner;
        timed(&self.calibration, || inner.re_zero());
    }

    fn refit_from_recent(&mut self) -> bool {
        let inner = &mut self.inner;
        timed(&self.calibration, || inner.refit_from_recent())
    }

    fn persist(&mut self) -> Result<(), CoreError> {
        let inner = &mut self.inner;
        timed(&self.calibration, || inner.persist())
    }

    fn calibration_age(&self) -> u64 {
        timed(&self.calibration, || self.inner.calibration_age())
    }

    fn drift_estimate(&self) -> f64 {
        timed(&self.calibration, || self.inner.drift_estimate())
    }

    fn calibration_wear(&self) -> u64 {
        timed(&self.calibration, || self.inner.calibration_wear())
    }

    fn fluid_temperature(&self) -> Option<Celsius> {
        timed(&self.calibration, || self.inner.fluid_temperature())
    }

    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.inject_adc_fault(fault));
    }

    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.degrade_supply(fraction))
    }

    fn restore_supply(&mut self, saved: Option<ThermometerDac>) {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.restore_supply(saved));
    }

    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.corrupt_calibration(slot, byte));
    }

    fn inject_bubble_burst(&mut self, coverage: f64) {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.inject_bubble_burst(coverage));
    }

    fn deposit_fouling(&mut self, microns: f64) {
        let inner = &mut self.inner;
        timed(&self.fault_hooks, || inner.deposit_fouling(microns));
    }

    fn worst_bubble_coverage(&self) -> f64 {
        self.inner.worst_bubble_coverage()
    }

    fn worst_fouling_um(&self) -> f64 {
        self.inner.worst_fouling_um()
    }
}

/// A [`Recorder`] that forwards every sample to `inner` and times it.
#[derive(Debug)]
pub struct TimedRecorder<R> {
    pub inner: R,
    pub record: Span,
}

impl<R> TimedRecorder<R> {
    pub fn new(inner: R) -> Self {
        TimedRecorder {
            inner,
            record: Span::default(),
        }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn record(&mut self, sample: &TraceSample) {
        let inner = &mut self.inner;
        self.record.time(|| inner.record(sample));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_core::direction::FlowDirection;
    use hotwire_core::faults::FaultFlags;
    use hotwire_units::ThermalConductance;
    use std::sync::Mutex;

    /// A meter whose every method logs its name and answers with a value
    /// no trait default produces, so a wrapper that drops a call — or lets
    /// a defaulted method fall through to its default — is caught.
    #[derive(Debug, Default)]
    struct Probe {
        calls: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.calls.lock().expect("probe log").push(name);
        }
    }

    fn measurement(tick: u64) -> Measurement {
        Measurement {
            velocity: MetersPerSecond::new(0.5),
            speed: MetersPerSecond::new(0.5),
            direction: FlowDirection::Forward,
            supply_code: 1234,
            conditioned_code: 1200,
            conductance: ThermalConductance::ZERO,
            wire_power: Watts::ZERO,
            faults: FaultFlags::default(),
            health: HealthState::Healthy,
            tick,
        }
    }

    impl Meter for Probe {
        fn step(&mut self, _: SensorEnvironment) -> Option<Measurement> {
            self.hit("step");
            Some(measurement(1))
        }
        fn step_frame(&mut self, _: SensorEnvironment) -> Measurement {
            self.hit("step_frame");
            measurement(2)
        }
        fn frame_phase(&self) -> u32 {
            self.hit("frame_phase");
            3
        }
        fn ticks_per_frame(&self) -> u32 {
            self.hit("ticks_per_frame");
            4
        }
        fn control_period(&self) -> Seconds {
            self.hit("control_period");
            Seconds::new(5.0)
        }
        fn full_scale(&self) -> MetersPerSecond {
            self.hit("full_scale");
            MetersPerSecond::new(6.0)
        }
        fn health(&self) -> HealthState {
            self.hit("health");
            HealthState::Degraded
        }
        fn power_draw(&self) -> Watts {
            self.hit("power_draw");
            Watts::new(7.0)
        }
        fn state_digest(&self) -> u64 {
            self.hit("state_digest");
            8
        }
        fn set_observer(&mut self, _: Box<dyn Observer>) {
            self.hit("set_observer");
        }
        fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
            self.hit("take_observer");
            None
        }
        fn has_observer(&self) -> bool {
            self.hit("has_observer");
            true
        }
        fn observe(&mut self, _: EventKind) {
            self.hit("observe");
        }
        fn reload_calibration(&mut self) -> Result<(), CoreError> {
            self.hit("reload_calibration");
            Err(CoreError::Calibration { reason: "probe" })
        }
        fn re_zero(&mut self) {
            self.hit("re_zero");
        }
        fn refit_from_recent(&mut self) -> bool {
            self.hit("refit_from_recent");
            true
        }
        fn persist(&mut self) -> Result<(), CoreError> {
            self.hit("persist");
            Err(CoreError::Calibration { reason: "probe" })
        }
        fn calibration_age(&self) -> u64 {
            self.hit("calibration_age");
            9
        }
        fn drift_estimate(&self) -> f64 {
            self.hit("drift_estimate");
            0.5
        }
        fn calibration_wear(&self) -> u64 {
            self.hit("calibration_wear");
            10
        }
        fn fluid_temperature(&self) -> Option<Celsius> {
            self.hit("fluid_temperature");
            Some(Celsius::new(11.0))
        }
        fn inject_adc_fault(&mut self, _: Option<AdcFault>) {
            self.hit("inject_adc_fault");
        }
        fn degrade_supply(&mut self, _: f64) -> Option<ThermometerDac> {
            self.hit("degrade_supply");
            ThermometerDac::ideal(8, hotwire_units::Volts::new(1.0)).ok()
        }
        fn restore_supply(&mut self, _: Option<ThermometerDac>) {
            self.hit("restore_supply");
        }
        fn corrupt_calibration(&mut self, _: usize, _: usize) {
            self.hit("corrupt_calibration");
        }
        fn inject_bubble_burst(&mut self, _: f64) {
            self.hit("inject_bubble_burst");
        }
        fn deposit_fouling(&mut self, _: f64) {
            self.hit("deposit_fouling");
        }
        fn worst_bubble_coverage(&self) -> f64 {
            self.hit("worst_bubble_coverage");
            0.25
        }
        fn worst_fouling_um(&self) -> f64 {
            self.hit("worst_fouling_um");
            12.0
        }
    }

    #[test]
    fn timed_meter_forwards_every_method() {
        let env = SensorEnvironment::still_water();
        let mut m = TimedMeter::new(Probe::default());
        assert_eq!(m.step(env), Some(measurement(1)));
        assert_eq!(m.step_frame(env), measurement(2));
        assert_eq!(m.frame_phase(), 3);
        assert_eq!(m.ticks_per_frame(), 4);
        assert_eq!(m.control_period().get(), 5.0);
        assert_eq!(m.full_scale().get(), 6.0);
        assert_eq!(m.health(), HealthState::Degraded);
        assert_eq!(m.power_draw().get(), 7.0);
        assert_eq!(m.state_digest(), 8);
        m.set_observer(Box::new(hotwire_rig::EventLog::with_capacity(1)));
        assert!(m.take_observer().is_none());
        assert!(m.has_observer());
        m.observe(EventKind::WatchdogExpired);
        assert!(m.reload_calibration().is_err());
        // The defaulted calibration methods: each must reach the probe,
        // not the trait's inert default.
        m.re_zero();
        assert!(m.refit_from_recent());
        assert!(m.persist().is_err());
        assert_eq!(m.calibration_age(), 9);
        assert_eq!(m.drift_estimate(), 0.5);
        assert_eq!(m.calibration_wear(), 10);
        assert_eq!(m.fluid_temperature().map(|c| c.get()), Some(11.0));
        m.inject_adc_fault(None);
        assert!(m.degrade_supply(0.5).is_some());
        m.restore_supply(None);
        m.corrupt_calibration(0, 0);
        m.inject_bubble_burst(0.1);
        m.deposit_fouling(1.0);
        assert_eq!(m.worst_bubble_coverage(), 0.25);
        assert_eq!(m.worst_fouling_um(), 12.0);

        let calls = m.inner.calls.lock().unwrap().clone();
        assert_eq!(
            calls,
            [
                "step",
                "step_frame",
                "frame_phase",
                "ticks_per_frame",
                "control_period",
                "full_scale",
                "health",
                "power_draw",
                "state_digest",
                "set_observer",
                "take_observer",
                "has_observer",
                "observe",
                "reload_calibration",
                "re_zero",
                "refit_from_recent",
                "persist",
                "calibration_age",
                "drift_estimate",
                "calibration_wear",
                "fluid_temperature",
                "inject_adc_fault",
                "degrade_supply",
                "restore_supply",
                "corrupt_calibration",
                "inject_bubble_burst",
                "deposit_fouling",
                "worst_bubble_coverage",
                "worst_fouling_um",
            ]
        );
        let spans = m.spans();
        assert_eq!(
            (
                spans.frames.calls,
                spans.ticks.calls,
                spans.fault_hooks.calls,
                spans.calibration.calls
            ),
            (1, 1, 6, 9)
        );
    }

    /// Busy-waits at least `micros` microseconds.
    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn sampled_span_scales_to_every_call() {
        // Every call lasts at least 20 µs, so the estimate — head timed in
        // full, tail sampled — cannot fall below that floor per call.
        let calls = 8 * SAMPLE_EVERY;
        let mut span = Span::default();
        for _ in 0..calls {
            span.time(|| spin(20));
        }
        assert_eq!(span.calls, calls);
        assert_eq!(span.tail_calls, calls - HEAD_CALLS);
        assert!(span.tail_sampled > 0 && span.tail_sampled < span.tail_calls);
        let floor = calls as f64 * (20e-6 - clock_read_s());
        assert!(span.seconds() >= floor, "{} < {floor}", span.seconds());

        // Caller-timed calls sum exactly; merging adds the counts.
        let mut manual = Span::default();
        manual.add(0.5);
        manual.add(1.5);
        assert_eq!(manual.seconds(), 2.0);
        span.merge(&manual);
        assert_eq!(span.calls, calls + 2);
    }
}
