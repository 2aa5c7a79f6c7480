//! CaCO₃ scale deposition on the sensor face — the paper's Fig. 8 failure
//! mode.
//!
//! Heating hard water shifts the carbonate equilibrium
//! `Ca(HCO₃)₂ → CaCO₃↓ + CO₂ + H₂O` (the paper's reaction (3)): calcium
//! carbonate precipitates preferentially on the *hot* surface. The deposit
//! layer adds a series thermal resistance between heater and water, which
//! reads as a slow sensitivity drift. The paper's countermeasure is the
//! PECVD silicon-nitride passivation ("the right choice of a passivation
//! layer results in a better protection against deposits"); after several
//! months in the Vinci station the passivated prototype showed "no deposit of
//! calcium carbonate".
//!
//! Model: deposit thickness `δ` grows at a rate proportional to water
//! hardness, exponentially accelerated by wall temperature (precipitation
//! kinetics), and scaled by a surface *sticking factor* (≈1 for a bare oxide,
//! ≪1 for the inert SiN passivation). Bubble coverage locally concentrates
//! the reaction (the paper notes the effect "is enforced by the concomitant
//! deposition"), modelled as a multiplicative enhancement.

use crate::error::{ensure_in_range, ensure_positive};
use crate::PhysicsError;
use hotwire_units::{Celsius, Seconds, ThermalResistance};

/// Thermal conductivity of calcite scale, W/(m·K).
pub const CACO3_CONDUCTIVITY: f64 = 2.2;

/// Surface finish of the sensor face, which sets the deposit sticking factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Passivation {
    /// Bare SiO₂/metal face — deposits stick readily.
    Bare,
    /// PECVD silicon-nitride final passivation — "inert against most
    /// environmental detrimental effects and is also biocompatible".
    SiliconNitride,
}

impl Passivation {
    /// Fraction of precipitating CaCO₃ that adheres to this surface.
    pub fn sticking_factor(self) -> f64 {
        match self {
            Passivation::Bare => 1.0,
            Passivation::SiliconNitride => 0.04,
        }
    }
}

/// Rate parameters of the scale-deposition model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FoulingParams {
    /// Deposition rate at reference conditions (30 °f water, 25 °C wall,
    /// bare surface), in µm per hour of exposure.
    pub base_rate_um_per_hour: f64,
    /// Wall-temperature acceleration scale in kelvin (Arrhenius-like
    /// `exp((T_wall − 25 °C)/scale)`).
    pub temperature_scale_k: f64,
    /// Enhancement factor at full bubble coverage.
    pub bubble_enhancement: f64,
    /// Effective heat-exchange area of the heater face, m² (converts
    /// thickness to thermal resistance).
    pub face_area_m2: f64,
}

impl FoulingParams {
    /// Defaults calibrated to the field reality: a bare hot surface in hard
    /// 45 °C-wall conditions accumulates ~20 µm over three months, while the
    /// SiN-passivated face at moderate overheat stays below half a micron
    /// (the paper's "no deposit of calcium carbonate" after months of test).
    pub fn potable_defaults() -> Self {
        FoulingParams {
            base_rate_um_per_hour: 0.002,
            temperature_scale_k: 12.0,
            bubble_enhancement: 4.0,
            face_area_m2: 1.0e-8,
        }
    }

    /// Time-compressed rates (100×) for experiments that want visible fouling
    /// within simulated hours rather than months.
    pub fn accelerated() -> Self {
        FoulingParams {
            base_rate_um_per_hour: 0.2,
            ..FoulingParams::potable_defaults()
        }
    }

    /// Validates rate plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if any rate or scale is non-positive, or the
    /// bubble enhancement is below 1.
    pub fn validate(&self) -> Result<(), PhysicsError> {
        ensure_positive("base_rate_um_per_hour", self.base_rate_um_per_hour)?;
        ensure_positive("temperature_scale_k", self.temperature_scale_k)?;
        ensure_in_range("bubble_enhancement", self.bubble_enhancement, 1.0, 100.0)?;
        ensure_positive("face_area_m2", self.face_area_m2)?;
        Ok(())
    }
}

impl Default for FoulingParams {
    fn default() -> Self {
        FoulingParams::potable_defaults()
    }
}

/// The evolving CaCO₃ layer on one heater face.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FoulingLayer {
    params: FoulingParams,
    passivation: Passivation,
    thickness_um: f64,
}

impl FoulingLayer {
    /// A clean face with the given surface finish.
    pub fn new(params: FoulingParams, passivation: Passivation) -> Self {
        FoulingLayer {
            params,
            passivation,
            thickness_um: 0.0,
        }
    }

    /// Current deposit thickness in micrometres.
    #[inline]
    pub fn thickness_um(&self) -> f64 {
        self.thickness_um
    }

    /// Series thermal resistance added by the deposit (K/W):
    /// `R = δ / (k_CaCO₃ · A_face)`.
    pub fn thermal_resistance(&self) -> ThermalResistance {
        ThermalResistance::new(
            self.thickness_um * 1e-6 / (CACO3_CONDUCTIVITY * self.params.face_area_m2),
        )
    }

    /// Advances deposition by `dt` at the given wall temperature, water
    /// hardness (°f) and instantaneous bubble coverage.
    pub fn step(&mut self, dt: Seconds, wall: Celsius, hardness_f: f64, bubble_coverage: f64) {
        if hardness_f <= 0.0 {
            return;
        }
        let sticking = self.passivation.sticking_factor();
        let hardness_factor = hardness_f / 30.0;
        let temp_factor = ((wall.get() - 25.0) / self.params.temperature_scale_k).exp();
        let bubble_factor =
            1.0 + (self.params.bubble_enhancement - 1.0) * bubble_coverage.clamp(0.0, 1.0);
        let rate_um_per_s = self.params.base_rate_um_per_hour / 3600.0
            * sticking
            * hardness_factor
            * temp_factor
            * bubble_factor;
        self.thickness_um += rate_um_per_s * dt.get();
    }

    /// Advances deposition by a coarse interval at (assumed constant)
    /// conditions — fouling evolves over hours, so scenario code may step it
    /// far less often than the electrical simulation.
    pub fn advance_hours(&mut self, hours: f64, wall: Celsius, hardness_f: f64, coverage: f64) {
        self.step(Seconds::new(hours * 3600.0), wall, hardness_f, coverage);
    }

    /// Deposits extra scale instantaneously (a fault-injection step event:
    /// debris lodging on the face reads the same as a sudden deposit).
    pub fn deposit(&mut self, microns: f64) {
        self.thickness_um += microns.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(p: Passivation) -> FoulingLayer {
        FoulingLayer::new(FoulingParams::potable_defaults(), p)
    }

    #[test]
    fn bare_surface_fouls_in_hard_water() {
        let mut l = layer(Passivation::Bare);
        l.advance_hours(24.0 * 30.0, Celsius::new(45.0), 30.0, 0.0);
        assert!(
            l.thickness_um() > 1.0,
            "thickness {} µm after a month",
            l.thickness_um()
        );
    }

    #[test]
    fn passivation_suppresses_fouling() {
        let mut bare = layer(Passivation::Bare);
        let mut passivated = layer(Passivation::SiliconNitride);
        for _ in 0..100 {
            bare.advance_hours(10.0, Celsius::new(45.0), 30.0, 0.0);
            passivated.advance_hours(10.0, Celsius::new(45.0), 30.0, 0.0);
        }
        assert!(
            passivated.thickness_um() < 0.1 * bare.thickness_um(),
            "passivated {} vs bare {}",
            passivated.thickness_um(),
            bare.thickness_um()
        );
    }

    #[test]
    fn hotter_wall_fouls_faster() {
        let mut cool = layer(Passivation::Bare);
        let mut hot = layer(Passivation::Bare);
        cool.advance_hours(100.0, Celsius::new(30.0), 30.0, 0.0);
        hot.advance_hours(100.0, Celsius::new(55.0), 30.0, 0.0);
        assert!(hot.thickness_um() > 2.0 * cool.thickness_um());
    }

    #[test]
    fn bubbles_enhance_deposition() {
        let mut clean = layer(Passivation::Bare);
        let mut bubbly = layer(Passivation::Bare);
        clean.advance_hours(100.0, Celsius::new(45.0), 30.0, 0.0);
        bubbly.advance_hours(100.0, Celsius::new(45.0), 30.0, 0.8);
        assert!(bubbly.thickness_um() > 2.0 * clean.thickness_um());
    }

    #[test]
    fn soft_water_does_not_foul() {
        let mut l = layer(Passivation::Bare);
        l.advance_hours(1000.0, Celsius::new(55.0), 0.0, 0.0);
        assert_eq!(l.thickness_um(), 0.0);
    }

    #[test]
    fn thermal_resistance_scales_with_thickness() {
        let mut l = layer(Passivation::Bare);
        assert_eq!(l.thermal_resistance().get(), 0.0);
        l.advance_hours(24.0 * 60.0, Celsius::new(45.0), 30.0, 0.0);
        let r1 = l.thermal_resistance().get();
        let t1 = l.thickness_um();
        // R = δ/(k·A): 1 µm over 1e-8 m² of calcite is 1e-6/(2.2·1e-8) ≈ 45 K/W.
        assert!((r1 - t1 * 1e-6 / (2.2 * 1e-8)).abs() < 1e-9);
        assert!(r1 > 0.0);
    }

    #[test]
    fn deposit_adds_thickness_immediately() {
        let mut l = layer(Passivation::Bare);
        l.deposit(3.5);
        assert!((l.thickness_um() - 3.5).abs() < 1e-12);
        l.deposit(-1.0); // negative deposits are ignored
        assert!((l.thickness_um() - 3.5).abs() < 1e-12);
        assert!(l.thermal_resistance().get() > 0.0);
    }

    #[test]
    fn params_validation() {
        assert!(FoulingParams::potable_defaults().validate().is_ok());
        assert!(FoulingParams::accelerated().validate().is_ok());
        let bad = FoulingParams {
            bubble_enhancement: 0.5,
            ..FoulingParams::potable_defaults()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn accelerated_is_faster_than_potable() {
        let mut slow = FoulingLayer::new(FoulingParams::potable_defaults(), Passivation::Bare);
        let mut fast = FoulingLayer::new(FoulingParams::accelerated(), Passivation::Bare);
        slow.advance_hours(10.0, Celsius::new(45.0), 30.0, 0.0);
        fast.advance_hours(10.0, Celsius::new(45.0), 30.0, 0.0);
        assert!(fast.thickness_um() > 10.0 * slow.thickness_um());
    }

    #[test]
    fn sticking_factors_ordered() {
        assert!(
            Passivation::SiliconNitride.sticking_factor() < Passivation::Bare.sticking_factor()
        );
    }
}
