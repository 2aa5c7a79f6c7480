//! Sensing-modality selection and meter adapters for the generic engine.
//!
//! The campaign/fleet layers carry a [`Modality`] tag instead of a meter
//! instance (specs stay `Clone + Serialize`); the executor turns the tag
//! into an [`AnyMeter`] — a closed enum over every modality the rig knows
//! how to build — and drives it through the one generic
//! [`LineRunner`](crate::runner::LineRunner). The enum plus generics is
//! the rig's one dispatch mechanism: it keeps specs comparable, the CTA
//! fast path monomorphized, and the meter extractable by value after a
//! run.
//!
//! Two adapter families live here:
//!
//! * [`ReferenceMeter`] — the standalone behavioural models of the
//!   paper's reference instruments ([`Promag50`], [`TurbineMeter`])
//!   plugged in behind the [`Meter`] trait with no AFE pipeline. A fleet
//!   spec can mix reference lines in as ground-truth comparators: they
//!   read the line's bulk velocity directly (plus their own datasheet
//!   noise/dynamics), never fault, and ignore fault-injection hooks.
//! * [`AnyMeter`] — the dispatch enum the executor builds from a
//!   [`Modality`].

use crate::promag::Promag50;
use crate::turbine::TurbineMeter;
use hotwire_afe::ThermometerDac;
use hotwire_core::config::fnv1a64_words;
use hotwire_core::direction::FlowDirection;
use hotwire_core::faults::{AdcFault, FaultFlags};
use hotwire_core::heat_pulse::HeatPulseMeter;
use hotwire_core::obs::{EventKind, Observer};
use hotwire_core::{CoreError, FlowMeter, HealthState, Measurement, Meter};
use hotwire_physics::SensorEnvironment;
use hotwire_units::{MetersPerSecond, Seconds, ThermalConductance, Watts};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which instrument a spec's lines carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Modality {
    /// The paper's CTA MEMS meter (default).
    Cta,
    /// The heat-pulse time-of-flight meter.
    HeatPulse,
    /// A Promag 50 electromagnetic reference line (ground truth).
    PromagRef,
    /// A turbine-wheel reference line (ground truth).
    TurbineRef,
}

impl Modality {
    /// Stable snake_case label (metric keys, logs).
    pub fn name(&self) -> &'static str {
        match self {
            Modality::Cta => "cta",
            Modality::HeatPulse => "heat_pulse",
            Modality::PromagRef => "promag_ref",
            Modality::TurbineRef => "turbine_ref",
        }
    }

    /// The reference instrument this modality wraps, or `None` for the
    /// powered sensing modalities (CTA, heat-pulse).
    pub fn reference_kind(&self) -> Option<ReferenceKind> {
        match self {
            Modality::PromagRef => Some(ReferenceKind::Promag),
            Modality::TurbineRef => Some(ReferenceKind::Turbine),
            Modality::Cta | Modality::HeatPulse => None,
        }
    }
}

/// Which reference instrument a [`ReferenceMeter`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ReferenceKind {
    /// Electromagnetic (Promag 50).
    Promag,
    /// Mechanical turbine wheel.
    Turbine,
}

/// A reference instrument adapted to the [`Meter`] trait.
///
/// The adapter reads the true bulk velocity from the probe environment —
/// reference meters on the evaluation line measure the same water the DUT
/// does, through their own datasheet noise and dynamics. There is no AFE,
/// no calibration storage and no failure model: fault hooks are no-ops
/// and health is permanently [`HealthState::Healthy`]. One control tick
/// per frame; the Promag noise draw (one per tick) comes from a seeded
/// per-meter lane, so reference lines are as deterministic as DUT lines.
#[derive(Debug)]
pub struct ReferenceMeter {
    kind: ReferenceKind,
    promag: Promag50,
    turbine: TurbineMeter,
    rng: StdRng,
    control_dt: Seconds,
    full_scale: MetersPerSecond,
    tick: u64,
    last: MetersPerSecond,
    observer: Option<Box<dyn Observer>>,
}

impl ReferenceMeter {
    /// Ratio of the probe-point (centerline) velocity the runner hands a
    /// meter to the bulk velocity a full-bore instrument reports — the
    /// station's turbulent 1/7-power profile factor. Reference meters
    /// integrate the whole bore, so the adapter divides the probe
    /// environment by this before driving the behavioural models. (The
    /// CTA meter absorbs the same factor through its field calibration.)
    pub fn profile_factor() -> f64 {
        hotwire_physics::pipe::Pipe::profile_factor(1.0e5)
    }

    /// Builds a reference line instrument running at `control_dt` per
    /// tick (deterministic under `seed`).
    pub fn new(
        kind: ReferenceKind,
        full_scale: MetersPerSecond,
        control_dt: Seconds,
        seed: u64,
    ) -> Self {
        ReferenceMeter {
            kind,
            promag: Promag50::new(full_scale),
            turbine: TurbineMeter::dn50(),
            rng: StdRng::seed_from_u64(seed ^ 0x5E_F0_CA_FE),
            control_dt,
            full_scale,
            tick: 0,
            last: MetersPerSecond::ZERO,
            observer: None,
        }
    }

    /// Which instrument this adapter wraps.
    pub fn kind(&self) -> ReferenceKind {
        self.kind
    }
}

impl Meter for ReferenceMeter {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        let bulk = MetersPerSecond::new(env.velocity.get() / Self::profile_factor());
        self.last = match self.kind {
            ReferenceKind::Promag => self.promag.step(self.control_dt, bulk, &mut self.rng),
            ReferenceKind::Turbine => self.turbine.step(self.control_dt, bulk),
        };
        let v = self.last;
        let direction = if v.get() > 0.0 {
            FlowDirection::Forward
        } else if v.get() < 0.0 {
            FlowDirection::Reverse
        } else {
            FlowDirection::Indeterminate
        };
        let m = Measurement {
            velocity: v,
            speed: MetersPerSecond::new(v.get().abs()),
            direction,
            supply_code: 0,
            conditioned_code: 0,
            conductance: ThermalConductance::ZERO,
            wire_power: Watts::ZERO,
            faults: FaultFlags::default(),
            health: HealthState::Healthy,
            tick: self.tick,
        };
        self.tick += 1;
        Some(m)
    }

    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        self.step(env).expect("reference meters emit every tick")
    }

    fn frame_phase(&self) -> u32 {
        0
    }

    fn ticks_per_frame(&self) -> u32 {
        1
    }

    fn control_period(&self) -> Seconds {
        self.control_dt
    }

    fn full_scale(&self) -> MetersPerSecond {
        self.full_scale
    }

    fn health(&self) -> HealthState {
        HealthState::Healthy
    }

    fn power_draw(&self) -> Watts {
        // Mains-powered commercial instruments: not in the probe budget.
        Watts::ZERO
    }

    fn state_digest(&self) -> u64 {
        let rng = self.rng.state();
        let words = [
            self.tick,
            rng[0],
            rng[1],
            rng[2],
            rng[3],
            self.last.get().to_bits(),
            self.promag.reading().get().to_bits(),
            self.turbine.reading().get().to_bits(),
            self.turbine.travel_m().to_bits(),
            match self.kind {
                ReferenceKind::Promag => 1,
                ReferenceKind::Turbine => 2,
            },
        ];
        fnv1a64_words(&words)
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    fn observe(&mut self, kind: EventKind) {
        if let Some(observer) = self.observer.as_mut() {
            observer.record(hotwire_core::ObsEvent {
                tick: self.tick,
                kind,
            });
        }
    }

    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        // Nothing stored, nothing to lose.
        Ok(())
    }

    fn inject_adc_fault(&mut self, _fault: Option<AdcFault>) {}

    fn degrade_supply(&mut self, _fraction: f64) -> Option<ThermometerDac> {
        None
    }

    fn restore_supply(&mut self, _saved: Option<ThermometerDac>) {}

    fn corrupt_calibration(&mut self, _slot: usize, _byte: usize) {}

    fn inject_bubble_burst(&mut self, _coverage: f64) {}

    fn deposit_fouling(&mut self, _microns: f64) {}

    fn worst_bubble_coverage(&self) -> f64 {
        0.0
    }

    fn worst_fouling_um(&self) -> f64 {
        0.0
    }
}

/// A meter of any modality, dispatching the [`Meter`] trait by `match`.
///
/// This is what the campaign executor builds from a spec's [`Modality`]
/// tag and what [`RunOutcome`](crate::campaign::RunOutcome) hands back.
/// CTA-specific post-processing (power maps, conductance analysis) goes
/// through [`as_cta`](Self::as_cta).
// The CTA variant dwarfs the others, but exactly one `AnyMeter` exists
// per in-flight line (never in bulk collections) and boxing it would put
// a pointer chase on the per-tick hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyMeter {
    /// The CTA MEMS instrument.
    Cta(FlowMeter),
    /// The heat-pulse time-of-flight instrument.
    HeatPulse(HeatPulseMeter),
    /// A reference-line adapter.
    Reference(ReferenceMeter),
}

impl AnyMeter {
    /// The modality tag of this instrument.
    pub fn modality(&self) -> Modality {
        match self {
            AnyMeter::Cta(_) => Modality::Cta,
            AnyMeter::HeatPulse(_) => Modality::HeatPulse,
            AnyMeter::Reference(r) => match r.kind() {
                ReferenceKind::Promag => Modality::PromagRef,
                ReferenceKind::Turbine => Modality::TurbineRef,
            },
        }
    }

    /// The CTA meter inside, if this is the CTA modality.
    pub fn as_cta(&self) -> Option<&FlowMeter> {
        match self {
            AnyMeter::Cta(m) => Some(m),
            _ => None,
        }
    }

    /// The heat-pulse meter inside, if this is the heat-pulse modality.
    pub fn as_heat_pulse(&self) -> Option<&HeatPulseMeter> {
        match self {
            AnyMeter::HeatPulse(m) => Some(m),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyMeter::Cta($m) => $body,
            AnyMeter::HeatPulse($m) => $body,
            AnyMeter::Reference($m) => $body,
        }
    };
}

impl Meter for AnyMeter {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        dispatch!(self, m => m.step(env))
    }

    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        dispatch!(self, m => m.step_frame(env))
    }

    fn advance_frame(&mut self, env: SensorEnvironment) {
        dispatch!(self, m => m.advance_frame(env))
    }

    fn frame_phase(&self) -> u32 {
        dispatch!(self, m => m.frame_phase())
    }

    fn ticks_per_frame(&self) -> u32 {
        dispatch!(self, m => m.ticks_per_frame())
    }

    fn control_period(&self) -> Seconds {
        dispatch!(self, m => m.control_period())
    }

    fn full_scale(&self) -> MetersPerSecond {
        dispatch!(self, m => m.full_scale())
    }

    fn health(&self) -> HealthState {
        dispatch!(self, m => m.health())
    }

    fn power_draw(&self) -> Watts {
        dispatch!(self, m => m.power_draw())
    }

    fn state_digest(&self) -> u64 {
        dispatch!(self, m => m.state_digest())
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        dispatch!(self, m => m.set_observer(observer))
    }

    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        dispatch!(self, m => m.take_observer())
    }

    fn has_observer(&self) -> bool {
        dispatch!(self, m => m.has_observer())
    }

    fn observe(&mut self, kind: EventKind) {
        dispatch!(self, m => m.observe(kind))
    }

    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        dispatch!(self, m => m.reload_calibration())
    }

    fn re_zero(&mut self) {
        dispatch!(self, m => m.re_zero())
    }

    fn refit_from_recent(&mut self) -> bool {
        dispatch!(self, m => m.refit_from_recent())
    }

    fn persist(&mut self) -> Result<(), CoreError> {
        dispatch!(self, m => m.persist())
    }

    fn calibration_age(&self) -> u64 {
        dispatch!(self, m => m.calibration_age())
    }

    fn drift_estimate(&self) -> f64 {
        dispatch!(self, m => m.drift_estimate())
    }

    fn calibration_wear(&self) -> u64 {
        dispatch!(self, m => m.calibration_wear())
    }

    fn fluid_temperature(&self) -> Option<hotwire_units::Celsius> {
        dispatch!(self, m => m.fluid_temperature())
    }

    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        dispatch!(self, m => m.inject_adc_fault(fault))
    }

    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        dispatch!(self, m => m.degrade_supply(fraction))
    }

    fn restore_supply(&mut self, saved: Option<ThermometerDac>) {
        dispatch!(self, m => m.restore_supply(saved))
    }

    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        dispatch!(self, m => m.corrupt_calibration(slot, byte))
    }

    fn inject_bubble_burst(&mut self, coverage: f64) {
        dispatch!(self, m => m.inject_bubble_burst(coverage))
    }

    fn deposit_fouling(&mut self, microns: f64) {
        dispatch!(self, m => m.deposit_fouling(microns))
    }

    fn worst_bubble_coverage(&self) -> f64 {
        dispatch!(self, m => m.worst_bubble_coverage())
    }

    fn worst_fouling_um(&self) -> f64 {
        dispatch!(self, m => m.worst_fouling_um())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LineRunner;
    use crate::scenario::Scenario;

    fn env(cm_s: f64) -> SensorEnvironment {
        SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(cm_s),
            ..SensorEnvironment::still_water()
        }
    }

    #[test]
    fn promag_reference_tracks_truth() {
        let mut m = ReferenceMeter::new(
            ReferenceKind::Promag,
            MetersPerSecond::from_cm_per_s(300.0),
            Seconds::new(0.002),
            7,
        );
        // The runner hands the probe-point velocity: bulk × profile factor.
        let probe = 120.0 * ReferenceMeter::profile_factor();
        let mut last = MetersPerSecond::ZERO;
        for _ in 0..500 {
            last = m.step(env(probe)).unwrap().velocity;
        }
        assert!((last.to_cm_per_s() - 120.0).abs() < 5.0);
        assert_eq!(m.health(), HealthState::Healthy);
    }

    #[test]
    fn turbine_reference_through_generic_runner() {
        let m = ReferenceMeter::new(
            ReferenceKind::Turbine,
            MetersPerSecond::from_cm_per_s(300.0),
            Seconds::new(0.002),
            8,
        );
        let mut runner = LineRunner::new(Scenario::steady(150.0, 2.0), m, 8);
        let trace = runner.run(0.05);
        let last = trace.last().unwrap();
        // The DUT is the same behavioural model as the runner's own
        // turbine reference channel, fed the same bulk one tick apart —
        // the two trajectories must agree tightly (spin-up inertia and
        // the meter's systematic under-read affect both identically).
        assert!(
            (last.dut_cm_s - last.turbine_cm_s).abs() < 2.0,
            "turbine DUT {} vs reference channel {}",
            last.dut_cm_s,
            last.turbine_cm_s
        );
        assert!(last.dut_cm_s > 100.0);
    }

    #[test]
    fn reference_fault_hooks_are_inert() {
        let mut a = ReferenceMeter::new(
            ReferenceKind::Promag,
            MetersPerSecond::from_cm_per_s(300.0),
            Seconds::new(0.002),
            9,
        );
        let mut b = ReferenceMeter::new(
            ReferenceKind::Promag,
            MetersPerSecond::from_cm_per_s(300.0),
            Seconds::new(0.002),
            9,
        );
        b.inject_adc_fault(Some(AdcFault::Stuck(0)));
        let saved = b.degrade_supply(0.1);
        b.restore_supply(saved);
        b.corrupt_calibration(0, 0);
        b.inject_bubble_burst(0.9);
        b.deposit_fouling(100.0);
        assert!(b.reload_calibration().is_ok());
        for _ in 0..200 {
            assert_eq!(a.step(env(90.0)), b.step(env(90.0)));
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn any_meter_dispatches_and_digests() {
        let mut any = AnyMeter::Reference(ReferenceMeter::new(
            ReferenceKind::Promag,
            MetersPerSecond::from_cm_per_s(300.0),
            Seconds::new(0.002),
            10,
        ));
        assert_eq!(any.modality(), Modality::PromagRef);
        assert!(any.as_cta().is_none());
        let d0 = any.state_digest();
        any.step(env(50.0));
        assert_ne!(d0, any.state_digest());
    }
}
