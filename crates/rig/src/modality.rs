//! Sensing-modality selection for the generic engine.
//!
//! The campaign/fleet layers carry a [`Modality`] tag instead of a meter
//! instance (specs stay `Clone + Serialize`); the executor turns the tag
//! into an [`AnyMeter`] — a closed enum over the two modalities the rig
//! knows how to build, the CTA meter and the heat-pulse meter — and
//! drives it through the one generic
//! [`LineRunner`](crate::runner::LineRunner). The enum plus generics is
//! the rig's one dispatch mechanism: it keeps specs comparable, the CTA
//! fast path monomorphized, and the meter extractable by value after a
//! run.

use hotwire_afe::ThermometerDac;
use hotwire_core::faults::AdcFault;
use hotwire_core::heat_pulse::HeatPulseMeter;
use hotwire_core::obs::{EventKind, Observer};
use hotwire_core::{CoreError, FlowMeter, HealthState, Measurement, Meter};
use hotwire_physics::SensorEnvironment;
use hotwire_units::{MetersPerSecond, Seconds, Watts};

/// Which instrument a spec's lines carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Modality {
    /// The paper's CTA MEMS meter (default).
    Cta,
    /// The heat-pulse time-of-flight meter.
    HeatPulse,
}

impl Modality {
    /// Stable snake_case label (metric keys, logs).
    pub fn name(&self) -> &'static str {
        match self {
            Modality::Cta => "cta",
            Modality::HeatPulse => "heat_pulse",
        }
    }
}

/// A meter of any modality, dispatching the [`Meter`] trait by `match`.
///
/// This is what the campaign executor builds from a spec's [`Modality`]
/// tag and what [`RunOutcome`](crate::campaign::RunOutcome) hands back.
/// CTA-specific post-processing (power maps, conductance analysis) goes
/// through [`as_cta`](Self::as_cta).
// The CTA variant dwarfs the heat-pulse one, but exactly one `AnyMeter` exists
// per in-flight line (never in bulk collections) and boxing it would put
// a pointer chase on the per-tick hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyMeter {
    /// The CTA MEMS instrument.
    Cta(FlowMeter),
    /// The heat-pulse time-of-flight instrument.
    HeatPulse(HeatPulseMeter),
}

impl AnyMeter {
    /// The CTA meter inside, if this is the CTA modality.
    pub fn as_cta(&self) -> Option<&FlowMeter> {
        match self {
            AnyMeter::Cta(m) => Some(m),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyMeter::Cta($m) => $body,
            AnyMeter::HeatPulse($m) => $body,
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
    use hotwire_core::FlowMeterConfig;

    fn env(cm_s: f64) -> SensorEnvironment {
        SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(cm_s),
            ..SensorEnvironment::still_water()
        }
    }

    /// Steps the wrapped and the bare meter `frames` frames at `cm_s`,
    /// then checks that they agree on every measurement and every state
    /// accessor.
    fn step_both(any: &mut AnyMeter, bare: &mut HeatPulseMeter, frames: usize, cm_s: f64) {
        for _ in 0..frames {
            assert_eq!(any.step_frame(env(cm_s)), bare.step_frame(env(cm_s)));
        }
        assert_eq!(any.state_digest(), bare.state_digest());
        assert_eq!(any.health(), bare.health());
        assert_eq!(any.power_draw(), bare.power_draw());
        assert_eq!(any.calibration_age(), bare.calibration_age());
        assert_eq!(
            any.drift_estimate().to_bits(),
            bare.drift_estimate().to_bits()
        );
        assert_eq!(any.calibration_wear(), bare.calibration_wear());
        assert_eq!(
            any.worst_bubble_coverage().to_bits(),
            bare.worst_bubble_coverage().to_bits()
        );
        assert_eq!(
            any.worst_fouling_um().to_bits(),
            bare.worst_fouling_um().to_bits()
        );
    }

    #[test]
    fn any_meter_dispatches_and_digests() {
        let config = FlowMeterConfig::test_profile();
        let mut any = AnyMeter::HeatPulse(HeatPulseMeter::new(config, 10).unwrap());
        let mut bare = HeatPulseMeter::new(config, 10).unwrap();
        assert!(matches!(any, AnyMeter::HeatPulse(_)));
        assert!(any.as_cta().is_none());
        let d0 = any.state_digest();
        step_both(&mut any, &mut bare, 400, 80.0);
        assert_ne!(d0, any.state_digest());

        // Every fault hook reaches the meter inside: the same calls on
        // both handles keep them on one trajectory.
        any.inject_adc_fault(Some(AdcFault::Stuck(0)));
        bare.inject_adc_fault(Some(AdcFault::Stuck(0)));
        step_both(&mut any, &mut bare, 100, 80.0);
        any.inject_adc_fault(None);
        bare.inject_adc_fault(None);
        step_both(&mut any, &mut bare, 100, 80.0);

        let saved_any = any.degrade_supply(0.5);
        let saved_bare = bare.degrade_supply(0.5);
        assert!(saved_any.is_none() && saved_bare.is_none());
        step_both(&mut any, &mut bare, 200, 80.0);
        any.restore_supply(saved_any);
        bare.restore_supply(saved_bare);
        step_both(&mut any, &mut bare, 200, 80.0);

        any.corrupt_calibration(1, 3);
        bare.corrupt_calibration(1, 3);
        assert!(any.reload_calibration().is_ok());
        assert!(bare.reload_calibration().is_ok());
        assert_eq!(any.health(), HealthState::Recovering);
        step_both(&mut any, &mut bare, 200, 80.0);

        any.inject_bubble_burst(0.4);
        bare.inject_bubble_burst(0.4);
        step_both(&mut any, &mut bare, 200, 80.0);
        assert!(any.worst_bubble_coverage() > 0.0);

        any.deposit_fouling(20.0);
        bare.deposit_fouling(20.0);
        step_both(&mut any, &mut bare, 400, 80.0);
        assert!(any.worst_fouling_um() > 0.0);
    }
}
