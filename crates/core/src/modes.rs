//! Baseline operating modes and the wire-state estimator.
//!
//! §2 of the paper contrasts three drives: constant current, constant power
//! and constant temperature. CC and CP are "simple circuit implementations";
//! CT "maintains a fixed value of the sensing resistor thus achieving more
//! robustness respect to changes of the temperature of the fluid itself".
//! This module implements the two baselines so experiment E12 can reproduce
//! that claim quantitatively.
//!
//! Both baselines need what CT gets for free from the bridge: an estimate of
//! the wire's resistance/temperature. [`WireStateEstimator`] recovers it
//! from the bridge-differential code and the commanded supply voltage, using
//! *nominal* (calibration-time) values for the reference branch — which is
//! precisely why these modes drift when the fluid temperature moves.

use crate::config::FlowMeterConfig;
use hotwire_afe::bridge::BridgeConfig;
use hotwire_physics::resistor::Rtd;
use hotwire_units::{Celsius, Ohms, ThermalConductance, Volts, Watts};

/// Firmware-side estimate of the wire's electrical/thermal state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireState {
    /// Estimated electrical power in the wire.
    pub power: Watts,
    /// Estimated wire-to-fluid conductance, using the *assumed* fluid
    /// temperature.
    pub conductance: ThermalConductance,
}

/// Recovers the wire state from `(code, supply)` using nominal constants.
#[derive(Debug, Clone, Copy)]
pub struct WireStateEstimator {
    r_series_heater: Ohms,
    /// Nominal reference-branch ratio `Rt/(R2+Rt)` frozen at calibration.
    ref_ratio: f64,
    /// Nominal heater RTD law.
    heater_rtd: Rtd,
    /// Assumed (calibration-time) fluid temperature.
    assumed_fluid: Celsius,
    /// Channel scale: volts of bridge differential per output code.
    volts_per_code: f64,
}

impl WireStateEstimator {
    /// Builds the estimator from the bridge design and firmware config.
    /// `volts_per_code` is the input-referred LSB of the acquisition channel.
    pub fn new(
        bridge: &BridgeConfig,
        heater_rtd: Rtd,
        reference_rtd: &Rtd,
        config: &FlowMeterConfig,
        volts_per_code: Volts,
    ) -> Self {
        let rt_cal = reference_rtd.resistance(config.calibration_temperature);
        WireStateEstimator {
            r_series_heater: bridge.r_series_heater,
            ref_ratio: rt_cal.get() / (bridge.r_series_reference.get() + rt_cal.get()),
            heater_rtd,
            assumed_fluid: config.calibration_temperature,
            volts_per_code: volts_per_code.get(),
        }
    }

    /// Estimates the wire state from a bridge-differential code and the
    /// commanded supply.
    ///
    /// Returns `None` when the supply is too low for a meaningful estimate
    /// (the divider becomes singular as `U → 0`).
    pub fn estimate(&self, code: i32, supply: Volts) -> Option<WireState> {
        let u = supply.get();
        if u < 0.05 {
            return None;
        }
        let v_diff = code as f64 * self.volts_per_code;
        let v_ref_mid = u * self.ref_ratio;
        let v_mid = (v_diff + v_ref_mid).clamp(0.0, u * 0.999);
        let i = (u - v_mid) / self.r_series_heater.get();
        if i <= 0.0 {
            return None;
        }
        let rh = Ohms::new(v_mid / i);
        let temperature = self.heater_rtd.temperature(rh);
        let power = Watts::new(i * i * rh.get());
        let overheat = (temperature - self.assumed_fluid).get();
        let conductance = if overheat > 0.5 {
            ThermalConductance::new(power.get() / overheat)
        } else {
            ThermalConductance::ZERO
        };
        Some(WireState { power, conductance })
    }
}

/// The constant-current baseline: a fixed supply code (the bridge's series
/// arm makes heater current nearly constant as `Rh` moves a few per cent).
#[derive(Debug, Clone, Copy)]
pub struct ConstantCurrentDrive {
    code: u32,
}

impl ConstantCurrentDrive {
    /// Picks the fixed code that reaches the design overheat at the
    /// calibration point (fluid at `calibration_temperature`, velocity
    /// `v_design`), given the expected conductance there.
    pub fn design(
        config: &FlowMeterConfig,
        rh_star: Ohms,
        bridge: &BridgeConfig,
        expected_conductance: ThermalConductance,
        dac_vref: Volts,
        dac_max_code: u32,
    ) -> Self {
        // P = G·ΔT; U = √(P·(R1+Rh*)²/Rh*).
        let p = expected_conductance.get() * config.overheat.get();
        let rtot = bridge.r_series_heater.get() + rh_star.get();
        let u = (p * rtot * rtot / rh_star.get()).sqrt();
        let code = ((u / dac_vref.get()) * dac_max_code as f64).round() as u32;
        ConstantCurrentDrive {
            code: code.min(dac_max_code),
        }
    }

    /// The fixed supply code.
    #[inline]
    pub fn code(&self) -> u32 {
        self.code
    }
}

/// The constant-power baseline: integrating supply adjustment holding the
/// estimated wire power at a setpoint.
#[derive(Debug, Clone, Copy)]
pub struct ConstantPowerDrive {
    target: Watts,
    code: u32,
    max_code: u32,
    /// Integral gain: codes per watt of power error per tick.
    gain: f64,
}

impl ConstantPowerDrive {
    /// Creates a CP drive holding `target` wire power, starting from
    /// `initial_code`.
    pub fn new(target: Watts, initial_code: u32, max_code: u32) -> Self {
        ConstantPowerDrive {
            target,
            code: initial_code.min(max_code),
            max_code,
            gain: 2000.0,
        }
    }

    /// Updates the drive from the latest wire-power estimate; returns the
    /// next supply code.
    pub fn update(&mut self, measured: Watts) -> u32 {
        let error = self.target.get() - measured.get();
        let next = self.code as f64 + self.gain * error;
        self.code = next.clamp(100.0, self.max_code as f64) as u32;
        self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_physics::KingsLaw;
    use hotwire_units::MetersPerSecond;

    fn setup() -> (FlowMeterConfig, BridgeConfig, Ohms, WireStateEstimator) {
        let cfg = FlowMeterConfig::water_station();
        let heater = Rtd::heater();
        let reference = Rtd::ambient_reference();
        let bridge = cfg.design_bridge(&heater, &reference).unwrap();
        let rh_star = cfg.target_heater_resistance(&heater);
        let est = WireStateEstimator::new(
            &bridge,
            heater,
            &reference,
            &cfg,
            Volts::new(2.5 / 32768.0 / 50.0),
        );
        (cfg, bridge, rh_star, est)
    }

    #[test]
    fn estimator_recovers_balanced_state() {
        let (cfg, _bridge, rh_star, est) = setup();
        // At balance the code is zero and the wire sits at Rh*, the design
        // overheat above the calibration temperature.
        let state = est.estimate(0, Volts::new(3.0)).unwrap();
        // Power: equal arms → U²/(4Rh*).
        let p_expected = 9.0 / (4.0 * rh_star.get());
        assert!((state.power.get() - p_expected).abs() / p_expected < 0.01);
        // Conductance = P/ΔT.
        let g_expected = p_expected / cfg.overheat.get();
        assert!((state.conductance.get() - g_expected).abs() / g_expected < 0.05);
    }

    #[test]
    fn estimator_sees_off_balance_codes() {
        let (.., est) = setup();
        // A positive code means a hotter (higher-R) wire: more overheat at
        // nearly the same power, so less conductance.
        let hot = est.estimate(4000, Volts::new(3.0)).unwrap();
        let balanced = est.estimate(0, Volts::new(3.0)).unwrap();
        let cold = est.estimate(-4000, Volts::new(3.0)).unwrap();
        assert!(hot.conductance < balanced.conductance);
        assert!(balanced.conductance < cold.conductance);
    }

    #[test]
    fn estimator_rejects_dead_supply() {
        let (.., est) = setup();
        assert!(est.estimate(0, Volts::ZERO).is_none());
        assert!(est.estimate(0, Volts::new(0.01)).is_none());
    }

    #[test]
    fn cc_design_reaches_plausible_code() {
        let (cfg, bridge, rh_star, _) = setup();
        let king = KingsLaw::from_kramers(
            &hotwire_physics::Water::potable(),
            hotwire_units::Celsius::new(15.0),
            hotwire_physics::kings_law::WireGeometry::maf_heater(),
        );
        let g = king.conductance(MetersPerSecond::new(1.0));
        let cc = ConstantCurrentDrive::design(&cfg, rh_star, &bridge, g, Volts::new(5.0), 4095);
        // Expected supply ≈ √(G·15·(2Rh*)²/Rh*) ≈ 2.7 V → code ≈ 2230.
        assert!((1500..3200).contains(&cc.code()), "cc code {}", cc.code());
    }

    #[test]
    fn cp_drive_converges_on_static_plant() {
        // Plant: P = (U·k)² with k chosen so code 2000 → 30 mW.
        let mut cp = ConstantPowerDrive::new(Watts::new(0.030), 1000, 4095);
        let mut code = cp.code;
        for _ in 0..500 {
            let u = code as f64 * 5.0 / 4095.0;
            let p = u * u * 0.030 / (2000.0f64 * 5.0 / 4095.0).powi(2);
            code = cp.update(Watts::new(p));
        }
        assert!(
            (code as i64 - 2000).unsigned_abs() < 60,
            "cp settled at {code}"
        );
    }

    #[test]
    fn cp_drive_clamps() {
        let mut cp = ConstantPowerDrive::new(Watts::new(10.0), 100, 4095);
        for _ in 0..100 {
            cp.update(Watts::ZERO);
        }
        assert_eq!(cp.code, 4095);
        let mut cp = ConstantPowerDrive::new(Watts::ZERO, 4000, 4095);
        for _ in 0..100 {
            cp.update(Watts::new(1.0));
        }
        assert_eq!(cp.code, 100);
    }
}
