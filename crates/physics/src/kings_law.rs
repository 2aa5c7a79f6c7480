//! King's law — the empirical heat-loss law of the hot wire (Eq. 2).
//!
//! The paper writes the heat balance of the heated wire as
//!
//! ```text
//! I²·R_w = U²/R_w = (T_w − T_ref) · (A + B·vⁿ)
//! ```
//!
//! i.e. the total thermal conductance from wire to fluid is `G(v) = A + B·vⁿ`
//! with empirically determined, fluid-specific constants `A`, `B` and
//! exponent `n` (≈ 0.5 after L.V. King's 1914 analysis). The law is built
//! from the Kramers Nusselt correlation for a cylinder in cross-flow, so the
//! simulated sensor's constants are *derived* from water properties instead
//! of assumed.

use crate::fluid::Water;
use hotwire_units::{Celsius, Meters, MetersPerSecond, ThermalConductance};

/// King's-law heat-loss model `G(v) = A + B·vⁿ`.
///
/// ```
/// use hotwire_physics::kings_law::{KingsLaw, WireGeometry};
/// use hotwire_physics::Water;
/// use hotwire_units::{Celsius, MetersPerSecond};
///
/// let king = KingsLaw::from_kramers(&Water::potable(), Celsius::new(15.0), WireGeometry::maf_heater());
/// let g0 = king.conductance(MetersPerSecond::ZERO);
/// let g1 = king.conductance(MetersPerSecond::new(1.0));
/// assert!(g1 > g0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KingsLaw {
    /// Free-convection/conduction term `A` in W/K.
    a: f64,
    /// Forced-convection coefficient `B` in W/(K·(m/s)ⁿ).
    b: f64,
    /// Velocity exponent `n` (0 < n ≤ 1, classically 0.5).
    n: f64,
}

/// Geometry of the heated wire/film for the first-principles constructor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireGeometry {
    /// Effective hydraulic diameter of the hot film/wire.
    pub diameter: Meters,
    /// Active length exposed to the flow.
    pub length: Meters,
}

impl WireGeometry {
    /// The MAF die's heater geometry: a thin-film strip on a 2 µm membrane,
    /// modelled as an equivalent cylinder of 10 µm diameter and 0.3 mm
    /// length.
    pub fn maf_heater() -> Self {
        WireGeometry {
            diameter: Meters::from_micrometers(10.0),
            length: Meters::from_millimeters(0.3),
        }
    }
}

impl Default for WireGeometry {
    fn default() -> Self {
        WireGeometry::maf_heater()
    }
}

impl KingsLaw {
    /// Derives King's-law constants from the Kramers correlation for a
    /// cylinder in cross-flow:
    ///
    /// ```text
    /// Nu = 0.42·Pr^0.20 + 0.57·Pr^0.33·Re^0.50
    /// ```
    ///
    /// with `G = Nu·k·π·L` (since `h = Nu·k/D` and the lateral area is
    /// `π·D·L`). The film temperature used for properties is the mean of wall
    /// and fluid temperatures.
    pub fn from_kramers(fluid: &Water, film_temperature: Celsius, geometry: WireGeometry) -> Self {
        let props = fluid.properties(film_temperature);
        let pr = props.prandtl();
        let k = props.thermal_conductivity;
        let nu = props.kinematic_viscosity();
        let pi_l_k = core::f64::consts::PI * geometry.length.get() * k;
        let a = pi_l_k * 0.42 * pr.powf(0.20);
        let b = pi_l_k * 0.57 * pr.powf(0.33) * (geometry.diameter.get() / nu).sqrt();
        KingsLaw { a, b, n: 0.5 }
    }

    /// The zero-flow term `A` in W/K.
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The forced-convection coefficient `B` in W/(K·(m/s)ⁿ).
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The velocity exponent `n`.
    #[inline]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// Total wire-to-fluid thermal conductance at flow speed `v` (uses the
    /// speed's magnitude: heat loss is direction-independent for a single
    /// wire).
    #[inline]
    pub fn conductance(&self, v: MetersPerSecond) -> ThermalConductance {
        ThermalConductance::new(self.a + self.b * v.get().abs().powf(self.n))
    }

    /// Sensitivity `dG/dv` at speed `v`, in W/(K·m/s). Diverges at `v → 0`
    /// for `n < 1`; callers should evaluate at the operating point.
    #[inline]
    pub fn conductance_slope(&self, v: MetersPerSecond) -> f64 {
        let vv = v.get().abs().max(1e-12);
        self.b * self.n * vv.powf(self.n - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_units::KelvinDelta;

    fn water_law() -> KingsLaw {
        KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(15.0),
            WireGeometry::maf_heater(),
        )
    }

    #[test]
    fn water_constants_have_expected_magnitude() {
        let king = water_law();
        // π·L·k ≈ π·3e-4·0.59 ≈ 5.6e-4; A ≈ 0.42·Pr^0.2·that ≈ 3.5e-4 W/K.
        assert!(
            (1e-4..1e-3).contains(&king.a()),
            "A = {} W/K out of expected MEMS-in-water range",
            king.a()
        );
        assert!(
            (5e-4..1e-2).contains(&king.b()),
            "B = {} out of expected range",
            king.b()
        );
        assert_eq!(king.n(), 0.5);
    }

    #[test]
    fn full_scale_power_is_tens_of_milliwatts() {
        // Sanity anchor for the electronics: at 250 cm/s and 15 K overheat the
        // heater must burn tens of mW — drivable from a 5 V bridge.
        let king = water_law();
        let p = king.conductance(MetersPerSecond::new(2.5)) * KelvinDelta::new(15.0);
        assert!(
            (0.01..0.12).contains(&p.get()),
            "P = {} W at full scale",
            p.get()
        );
    }

    #[test]
    fn conductance_monotonic_in_speed() {
        let king = water_law();
        let mut prev = king.conductance(MetersPerSecond::ZERO);
        for i in 1..=50 {
            let g = king.conductance(MetersPerSecond::new(i as f64 * 0.05));
            assert!(g > prev);
            prev = g;
        }
    }

    #[test]
    fn direction_independence_of_heat_loss() {
        let king = water_law();
        let g_fwd = king.conductance(MetersPerSecond::new(1.0));
        let g_rev = king.conductance(MetersPerSecond::new(-1.0));
        assert_eq!(g_fwd, g_rev);
    }

    #[test]
    fn slope_decreases_with_speed_for_sqrt_law() {
        // dG/dv ∝ v^(-1/2): the sensitivity *compresses* at high flow, which
        // is exactly why the paper's resolution degrades from ±0.75 cm/s at
        // low flow to ±4 cm/s at 250 cm/s.
        let king = water_law();
        let s_low = king.conductance_slope(MetersPerSecond::new(0.1));
        let s_high = king.conductance_slope(MetersPerSecond::new(2.5));
        assert!(s_low > 4.0 * s_high);
    }

    #[test]
    fn kramers_uses_film_properties() {
        let cold = KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(5.0),
            WireGeometry::maf_heater(),
        );
        let warm = KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(45.0),
            WireGeometry::maf_heater(),
        );
        // Warmer water: higher conductivity, lower viscosity → both A and B
        // shift; the derived law must differ measurably.
        assert!((warm.a() - cold.a()).abs() / cold.a() > 0.01);
        assert!((warm.b() - cold.b()).abs() / cold.b() > 0.01);
    }
}
