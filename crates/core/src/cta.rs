//! The constant-temperature closed loop.
//!
//! "Closed loop is implemented by software-emulated IPs which feature
//! reference subtraction, PI controller and feedback actuation directly to
//! supply the two bridges. Since the driving scheme … keeps constant
//! temperature, the digital output of the PI controller, which represents
//! the voltage supplied to the two bridges, is proportional to the water
//! flow." (§4)
//!
//! [`CtaLoop`] is that software IP: it consumes the decimated bridge-error
//! code from the input channel and produces the supply-DAC code.
//! [`ConductanceEstimator`] is its observer: it converts the commanded
//! supply voltage back into the wire-to-fluid thermal conductance that
//! King's law maps to velocity.

use crate::config::FlowMeterConfig;
use crate::CoreError;
use hotwire_afe::bridge::BridgeConfig;
use hotwire_dsp::fix::Q16;
use hotwire_dsp::pi::PiController;
use hotwire_units::{Ohms, ThermalConductance, Volts, Watts};

/// Largest supply-DAC code (12-bit).
pub const SUPPLY_CODE_MAX: i32 = 4095;

/// The reference-subtraction + PI software IP.
#[derive(Debug, Clone)]
pub struct CtaLoop {
    pi: PiController,
}

impl CtaLoop {
    /// Builds the loop from the firmware configuration.
    ///
    /// The PI output is clamped to `[supply_code_min, 4095]`; the lower
    /// clamp keeps the bridge observable (a fully-off bridge produces no
    /// error signal, so the loop could never start).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dsp`] for unrepresentable gains or an empty
    /// clamp range.
    pub fn new(config: &FlowMeterConfig) -> Result<Self, CoreError> {
        let mut pi = PiController::new(
            Q16::from_f64(config.kp),
            Q16::from_f64(config.ki),
            config.supply_code_min as i32,
            SUPPLY_CODE_MAX,
        )?;
        // Bumpless start at the minimum observable supply.
        pi.preset_output(config.supply_code_min as i32);
        Ok(CtaLoop { pi })
    }

    /// Runs one control step on the decimated bridge code and returns the
    /// next supply-DAC code.
    ///
    /// Sign convention: the channel measures `V(heater mid) − V(reference
    /// mid)`, which is *positive when the wire is hotter than the setpoint* —
    /// so the loop error is the negated code (reference subtraction with a
    /// zero setpoint).
    pub fn update(&mut self, bridge_code: i32) -> u32 {
        let error = bridge_code.saturating_neg();
        self.pi.update(error) as u32
    }

    /// Presets the actuator output (used when resuming from pulsed-off
    /// phases).
    pub fn preset_output(&mut self, code: u32) {
        self.pi.preset_output(code as i32);
    }
}

/// Observer converting the commanded supply into wire conductance.
#[derive(Debug, Clone, Copy)]
pub struct ConductanceEstimator {
    /// Series resistance in the heater branch.
    r_series: Ohms,
    /// Series resistance in the reference branch.
    r_series_ref: Ohms,
    /// The regulated heater resistance at the calibration temperature.
    rh_star: Ohms,
    /// Design overheat at the calibration temperature.
    overheat_k: f64,
    /// Nominal heater RTD law (for the ambient-aware balance).
    heater_rtd: hotwire_physics::resistor::Rtd,
    /// Nominal reference RTD law.
    reference_rtd: hotwire_physics::resistor::Rtd,
    /// Number of heater bridges the supply feeds (the paper drives two).
    bridges: f64,
}

impl ConductanceEstimator {
    /// Builds the observer from the bridge design and configuration.
    pub fn new(
        bridge: &BridgeConfig,
        rh_star: Ohms,
        config: &FlowMeterConfig,
        bridges: u32,
    ) -> Self {
        ConductanceEstimator {
            r_series: bridge.r_series_heater,
            r_series_ref: bridge.r_series_reference,
            rh_star,
            overheat_k: config.overheat.get(),
            heater_rtd: hotwire_physics::resistor::Rtd::heater(),
            reference_rtd: hotwire_physics::resistor::Rtd::ambient_reference(),
            bridges: bridges as f64,
        }
    }

    /// Heater power (per heater) at a commanded supply voltage, assuming the
    /// loop holds the wire at balance.
    pub fn heater_power(&self, supply: Volts) -> Watts {
        let i = supply / (self.r_series + self.rh_star);
        Watts::from_joule_heating(i, self.rh_star)
    }

    /// Wire-to-fluid conductance (per heater) implied by the supply voltage,
    /// using the calibration-temperature balance point.
    pub fn conductance(&self, supply: Volts) -> ThermalConductance {
        ThermalConductance::new(self.heater_power(supply).get() / self.overheat_k)
    }

    /// Ambient-aware conductance: at fluid temperatures away from the
    /// calibration point, the ratio bridge regulates to a slightly different
    /// resistance and overheat (a second-order `α²` effect worth ~+5 % per
    /// 15 K). The firmware knows the bridge arithmetic, so it can evaluate
    /// the true balance at the *measured* fluid temperature.
    pub fn conductance_at_ambient(
        &self,
        supply: Volts,
        fluid: hotwire_units::Celsius,
    ) -> ThermalConductance {
        let rt = self.reference_rtd.resistance(fluid);
        let rh_star_t = Ohms::new(self.r_series.get() * rt.get() / self.r_series_ref.get());
        let i = supply / (self.r_series + rh_star_t);
        let p = Watts::from_joule_heating(i, rh_star_t);
        let overheat = (self.heater_rtd.temperature(rh_star_t) - fluid).get();
        if overheat <= 0.5 {
            return ThermalConductance::ZERO;
        }
        ThermalConductance::new(p.get() / overheat)
    }

    /// Total electrical power drawn by all driven bridges at this supply
    /// (heater + series arm + reference branch), for the power budget.
    pub fn total_bridge_power(&self, supply: Volts, r_series_ref: Ohms, rt: Ohms) -> Watts {
        let branch_heater = Watts::from_voltage_across(supply, self.r_series + self.rh_star);
        let branch_ref = Watts::from_voltage_across(supply, r_series_ref + rt);
        (branch_heater + branch_ref) * self.bridges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowMeterConfig;
    use hotwire_physics::resistor::Rtd;

    fn setup() -> (FlowMeterConfig, BridgeConfig, Ohms) {
        let cfg = FlowMeterConfig::water_station();
        let heater = Rtd::heater();
        let bridge = cfg
            .design_bridge(&heater, &Rtd::ambient_reference())
            .unwrap();
        let rh_star = cfg.target_heater_resistance(&heater);
        (cfg, bridge, rh_star)
    }

    #[test]
    fn loop_starts_at_minimum_supply() {
        let (cfg, ..) = setup();
        let mut cta = CtaLoop::new(&cfg).unwrap();
        assert_eq!(cta.update(0), cfg.supply_code_min);
    }

    #[test]
    fn cold_wire_raises_supply() {
        let (cfg, ..) = setup();
        let mut cta = CtaLoop::new(&cfg).unwrap();
        // Wire colder than setpoint → negative bridge code.
        let mut code = 0;
        for _ in 0..50 {
            code = cta.update(-5000);
        }
        assert!(code > cfg.supply_code_min, "supply did not rise: {code}");
    }

    #[test]
    fn hot_wire_lowers_supply() {
        let (cfg, ..) = setup();
        let mut cta = CtaLoop::new(&cfg).unwrap();
        cta.preset_output(3000);
        let mut code = 3000;
        for _ in 0..50 {
            code = cta.update(8000);
        }
        assert!(code < 3000, "supply did not fall: {code}");
    }

    #[test]
    fn supply_clamps_to_dac_range() {
        let (cfg, ..) = setup();
        let mut cta = CtaLoop::new(&cfg).unwrap();
        for _ in 0..10_000 {
            let code = cta.update(-30_000);
            assert!(code <= SUPPLY_CODE_MAX as u32);
        }
        assert_eq!(cta.update(-30_000), SUPPLY_CODE_MAX as u32);
        for _ in 0..10_000 {
            let code = cta.update(30_000);
            assert!(code >= cfg.supply_code_min);
        }
    }

    #[test]
    fn estimator_power_magnitude() {
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        // Equal arms: heater sees U/2 → P = U²/(4·Rh*).
        let p = est.heater_power(Volts::new(3.0));
        let expected = 9.0 / (4.0 * rh_star.get());
        assert!((p.get() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn estimator_conductance_scales_with_power() {
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        let g1 = est.conductance(Volts::new(1.5));
        let g2 = est.conductance(Volts::new(3.0));
        // G ∝ U².
        assert!((g2.get() / g1.get() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ambient_aware_conductance_matches_design_at_calibration() {
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        let u = Volts::new(3.0);
        let g_design = est.conductance(u);
        let g_ambient = est.conductance_at_ambient(u, cfg.calibration_temperature);
        assert!(
            (g_design.get() - g_ambient.get()).abs() / g_design.get() < 0.01,
            "design {} vs ambient-aware {}",
            g_design.get(),
            g_ambient.get()
        );
    }

    #[test]
    fn ambient_aware_conductance_corrects_second_order_overheat() {
        // At +15 K fluid the ratio bridge regulates ≈ 15.8 K overheat; the
        // naive estimator divides by 15.0 and over-reads by ~5 %. The
        // ambient-aware estimator removes that bias.
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        let u = Volts::new(3.0);
        let warm = hotwire_units::Celsius::new(30.0);
        let g_naive = est.conductance(u);
        let g_aware = est.conductance_at_ambient(u, warm);
        let ratio = g_naive.get() / g_aware.get();
        assert!(
            (1.02..1.12).contains(&ratio),
            "expected ~5 % naive over-read, got ratio {ratio}"
        );
    }

    #[test]
    fn ambient_aware_conductance_finite_across_wide_band() {
        // The ratio bridge keeps the overheat positive (it *grows* ~0.05 K/K
        // of ambient), so the estimator must stay positive and finite over
        // any plausible — and implausible — fluid estimate.
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        for t in [-20.0, 0.0, 15.0, 40.0, 90.0] {
            let g = est.conductance_at_ambient(Volts::new(3.0), hotwire_units::Celsius::new(t));
            assert!(
                g.get().is_finite() && g.get() > 0.0,
                "G {} at {t} °C",
                g.get()
            );
        }
    }

    #[test]
    fn total_power_includes_reference_branch() {
        let (cfg, bridge, rh_star) = setup();
        let est = ConductanceEstimator::new(&bridge, rh_star, &cfg, 2);
        let total = est.total_bridge_power(
            Volts::new(3.0),
            bridge.r_series_reference,
            Ohms::new(1965.0),
        );
        // Two bridges, heater branch ≈ 87 mW each + ref branch ≈ 2.3 mW each.
        assert!(total.get() > 0.15 && total.get() < 0.25, "total {total}");
    }
}
