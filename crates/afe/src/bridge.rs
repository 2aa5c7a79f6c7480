//! The Wheatstone bridge connecting the MAF die to the input channel.
//!
//! Topology (paper Fig. 5): the controlled supply `U_b` feeds two parallel
//! branches — the *heater branch* (series resistor `R1` on top of the heater
//! `Rh`) and the *reference branch* (series resistor `R2` on top of the
//! ambient reference `Rt`). "The signal is acquired between the heater
//! resistance and the reference resistance which are connected in a standard
//! Wheatstone bridge structure."
//!
//! At balance `Rh/(R1+Rh) = Rt/(R2+Rt)`, i.e. the loop regulates the heater
//! to `Rh* = R1·Rt/R2`. Because `Rt` carries the same TCR as `Rh` and tracks
//! the fluid, the balance point — and therefore the *overheat* — rides on the
//! ambient temperature: this is exactly the paper's constant-temperature
//! scheme with an ambient-compensated setpoint.

use crate::error::ensure_positive;
use crate::AfeError;
use hotwire_units::{Amps, Ohms, Volts, Watts};

/// Static bridge component values.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BridgeConfig {
    /// Series resistor above the heater (`R1`).
    pub r_series_heater: Ohms,
    /// Series resistor above the ambient reference (`R2`).
    pub r_series_reference: Ohms,
}

impl BridgeConfig {
    /// Creates a bridge from its two series resistors.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if either resistance is not positive.
    pub fn new(r_series_heater: Ohms, r_series_reference: Ohms) -> Result<Self, AfeError> {
        ensure_positive("r_series_heater", r_series_heater.get())?;
        ensure_positive("r_series_reference", r_series_reference.get())?;
        Ok(BridgeConfig {
            r_series_heater,
            r_series_reference,
        })
    }

    /// Designs the bridge for a target heater operating resistance given the
    /// reference resistance at the calibration temperature: picks `R1 = Rh*`
    /// (equal-arm heater branch, maximizing power transfer head-room) and
    /// `R2 = R1·Rt/Rh*` so the balance lands on `Rh*`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if either resistance is not positive.
    pub fn for_operating_point(rh_target: Ohms, rt_nominal: Ohms) -> Result<Self, AfeError> {
        ensure_positive("rh_target", rh_target.get())?;
        ensure_positive("rt_nominal", rt_nominal.get())?;
        let r1 = rh_target;
        let r2 = Ohms::new(r1.get() * rt_nominal.get() / rh_target.get());
        BridgeConfig::new(r1, r2)
    }

    /// The heater resistance at which the bridge balances, given the current
    /// reference resistance.
    pub fn balance_heater_resistance(&self, rt: Ohms) -> Ohms {
        Ohms::new(self.r_series_heater.get() * rt.get() / self.r_series_reference.get())
    }

    /// Solves the bridge DC operating point for supply `u_b` and instantaneous
    /// element resistances.
    pub fn solve(&self, u_b: Volts, rh: Ohms, rt: Ohms) -> BridgeOutputs {
        let i_heater: Amps = u_b / (self.r_series_heater + rh);
        let i_reference: Amps = u_b / (self.r_series_reference + rt);
        let v_heater_mid: Volts = i_heater * rh;
        let v_reference_mid: Volts = i_reference * rt;
        BridgeOutputs {
            differential: v_heater_mid - v_reference_mid,
            reference_mid: v_reference_mid,
            heater_power: Watts::from_joule_heating(i_heater, rh),
        }
    }
}

/// The solved DC operating point of the bridge.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BridgeOutputs {
    /// Midpoint difference `V(heater mid) − V(reference mid)` — the input to
    /// the instrumentation amplifier. Positive when the heater is *colder*
    /// (higher `Rh` fraction needed to balance… see module docs).
    pub differential: Volts,
    /// Reference-branch midpoint voltage (carries the fluid temperature via
    /// `Rt` — the paper's "temperature sensor for tracking thermal flow
    /// variation").
    pub reference_mid: Volts,
    /// Joule power dissipated in the heater element.
    pub heater_power: Watts,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bridge() -> BridgeConfig {
        // Rh* = 52.8 Ω (≈ 15 K overheat on a 50 Ω/20 °C heater at 15 °C
        // fluid), Rt = 1996.5 Ω at 15 °C.
        BridgeConfig::for_operating_point(Ohms::new(52.8), Ohms::new(1996.5)).unwrap()
    }

    #[test]
    fn balance_condition() {
        let b = bridge();
        let rt = Ohms::new(1996.5);
        let rh_star = b.balance_heater_resistance(rt);
        assert!((rh_star.get() - 52.8).abs() < 1e-9);
        let out = b.solve(Volts::new(3.0), rh_star, rt);
        assert!(
            out.differential.abs().get() < 1e-12,
            "differential {} at balance",
            out.differential
        );
    }

    #[test]
    fn differential_sign_encodes_heater_state() {
        let b = bridge();
        let rt = Ohms::new(1996.5);
        // Heater hotter than setpoint → Rh above balance → midpoint above
        // reference → positive differential.
        let hot = b.solve(Volts::new(3.0), Ohms::new(54.0), rt);
        assert!(hot.differential.get() > 0.0);
        let cold = b.solve(Volts::new(3.0), Ohms::new(51.0), rt);
        assert!(cold.differential.get() < 0.0);
    }

    #[test]
    fn balance_tracks_ambient_via_rt() {
        let b = bridge();
        // Warmer fluid → Rt rises → balance Rh* rises → constant overheat.
        let cold = b.balance_heater_resistance(Ohms::new(1996.5));
        let warm = b.balance_heater_resistance(Ohms::new(2030.0));
        assert!(warm > cold);
        let ratio = warm.get() / cold.get();
        assert!((ratio - 2030.0 / 1996.5).abs() < 1e-12);
    }

    #[test]
    fn heater_power_magnitude() {
        let b = bridge();
        // 3 V supply, equal arms: heater sees 1.5 V → ~43 mW. Sanity anchor
        // against King's law full-scale demand (tens of mW).
        let out = b.solve(Volts::new(3.0), Ohms::new(52.8), Ohms::new(1996.5));
        assert!(
            (0.03..0.06).contains(&out.heater_power.get()),
            "heater power {}",
            out.heater_power
        );
    }

    #[test]
    fn reference_self_heating_small_relative_to_heater() {
        // The interdigitated Rt spreads over a large die area with strong
        // coupling to the fluid, so its self-heating appears only as a
        // sub-kelvin setpoint shift absorbed by calibration. The design
        // criterion enforced here: the reference branch burns a few per cent
        // of the heater power at most.
        let b = bridge();
        let rt = Ohms::new(1996.5);
        let out = b.solve(Volts::new(5.0), Ohms::new(52.8), rt);
        let reference_power = Watts::from_joule_heating(out.reference_mid / rt, rt);
        assert!(reference_power.get() > 0.0);
        assert!(
            reference_power.get() < 0.05 * out.heater_power.get(),
            "reference {} vs heater {}",
            reference_power,
            out.heater_power
        );
    }

    #[test]
    fn midpoints_reconstruct_differential() {
        let b = bridge();
        let out = b.solve(Volts::new(3.0), Ohms::new(53.0), Ohms::new(1990.0));
        let heater_mid = 3.0 * 53.0 / (b.r_series_heater.get() + 53.0);
        assert!(((out.differential + out.reference_mid).get() - heater_mid).abs() < 1e-12);
        // The reference midpoint carries Rt: warmer fluid (higher Rt) raises it.
        let warm = b.solve(Volts::new(3.0), Ohms::new(53.0), Ohms::new(2040.0));
        assert!(warm.reference_mid > out.reference_mid);
    }

    #[test]
    fn zero_supply_zero_everything() {
        let b = bridge();
        let out = b.solve(Volts::ZERO, Ohms::new(52.8), Ohms::new(1996.5));
        assert_eq!(out.differential.get(), 0.0);
        assert_eq!(out.heater_power.get(), 0.0);
    }

    #[test]
    fn rejects_non_positive_resistors() {
        assert!(BridgeConfig::new(Ohms::ZERO, Ohms::new(100.0)).is_err());
        assert!(BridgeConfig::new(Ohms::new(100.0), Ohms::new(-5.0)).is_err());
        assert!(BridgeConfig::for_operating_point(Ohms::ZERO, Ohms::new(2000.0)).is_err());
    }
}
