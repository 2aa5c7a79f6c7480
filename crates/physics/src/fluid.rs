//! Temperature-dependent property model of the working fluid, water.
//!
//! King's-law coefficients and the bubble/fouling models all depend on the
//! working fluid. The paper's sensor was designed for air (MAF = mass *air*
//! flow) and redeployed in potable water; water conducts ~25× better than
//! air, which is what motivates the paper's reduced overheat.

use hotwire_units::{Celsius, Pascals};

/// A snapshot of thermophysical fluid properties at one temperature.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FluidProperties {
    /// Density ρ in kg/m³.
    pub density: f64,
    /// Dynamic viscosity µ in Pa·s.
    pub dynamic_viscosity: f64,
    /// Thermal conductivity k in W/(m·K).
    pub thermal_conductivity: f64,
    /// Isobaric specific heat c_p in J/(kg·K).
    pub specific_heat: f64,
}

impl FluidProperties {
    /// Prandtl number `Pr = µ·c_p / k`.
    #[inline]
    pub fn prandtl(&self) -> f64 {
        self.dynamic_viscosity * self.specific_heat / self.thermal_conductivity
    }

    /// Kinematic viscosity `ν = µ / ρ` in m²/s.
    #[inline]
    pub fn kinematic_viscosity(&self) -> f64 {
        self.dynamic_viscosity / self.density
    }
}

/// Liquid water (potable, air-saturated by default).
///
/// Property fits are low-order polynomials valid over 0–90 °C, accurate to a
/// few per mil against IAPWS tabulations — far tighter than the model error
/// anywhere else in this simulator.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Water {
    /// Dissolved-air saturation fraction (1.0 = fully air-saturated at
    /// atmospheric pressure, 0.0 = perfectly degassed).
    pub dissolved_air: f64,
    /// Water hardness in °f (French degrees); Tuscan network water is hard,
    /// typically 25–35 °f. Drives CaCO₃ deposition.
    pub hardness_f: f64,
}

impl Water {
    /// Potable network water: air-saturated, hard (30 °f) — the Vinci test
    /// station conditions.
    pub fn potable() -> Self {
        Water {
            dissolved_air: 1.0,
            hardness_f: 30.0,
        }
    }

    /// Thermophysical properties at the given bulk temperature; the
    /// correlations in [`crate::kings_law`] consume the snapshot.
    pub fn properties(&self, temperature: Celsius) -> FluidProperties {
        let t = temperature.get().clamp(0.0, 95.0);
        // Density: quadratic fit around the 4 °C maximum (kg/m³).
        let density = 999.97 - 4.87e-3 * (t - 4.0).powi(2) + 1.5e-5 * (t - 4.0).powi(3);
        // Dynamic viscosity: Vogel-type fit (Pa·s).
        let dynamic_viscosity = 2.414e-5 * 10f64.powf(247.8 / (t + 273.15 - 140.0));
        // Thermal conductivity (W/m·K): quadratic fit.
        let thermal_conductivity = 0.5562 + 1.99e-3 * t - 8.0e-6 * t * t;
        // Specific heat (J/kg·K): cubic fit, max error < 4 J/(kg·K) vs
        // IAPWS over 0–95 °C.
        let specific_heat = 4214.9 - 2.2972 * t + 0.040428 * t * t - 1.7859e-4 * t * t * t;
        FluidProperties {
            density,
            dynamic_viscosity,
            thermal_conductivity,
            specific_heat,
        }
    }

    /// Saturation temperature of the dissolved-gas/vapour system at the
    /// given absolute pressure: above this wall temperature the water
    /// releases bubbles onto the heater (outgassing well below boiling for
    /// air-saturated water).
    #[inline]
    pub fn bubble_onset_temperature(&self, pressure: Pascals) -> Celsius {
        // Outgassing onset: air-saturated water sheds dissolved gas onto a
        // heated wall well below boiling. Henry's law: solubility scales with
        // pressure, so the onset wall temperature rises with line pressure
        // and falls with dissolved-gas content. Anchors: ~40 °C at 1 bar
        // saturated; ~+8 °C per bar; degassed water only bubbles near
        // saturation (approach 100 °C-ish cap).
        let bar = pressure.get() / 1e5;
        let saturated_onset = 40.0 + 8.0 * (bar - 1.0);
        let degassed_onset = 98.0 + 10.0 * (bar - 1.0);
        let f = self.dissolved_air.clamp(0.0, 1.0);
        Celsius::new(f * saturated_onset + (1.0 - f) * degassed_onset)
    }
}

impl Default for Water {
    fn default() -> Self {
        Water::potable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_at_20c_matches_handbook() {
        let p = Water::potable().properties(Celsius::new(20.0));
        assert!((p.density - 998.2).abs() < 1.5, "density {}", p.density);
        assert!(
            (p.dynamic_viscosity - 1.002e-3).abs() < 5e-5,
            "viscosity {}",
            p.dynamic_viscosity
        );
        assert!(
            (p.thermal_conductivity - 0.598).abs() < 0.01,
            "conductivity {}",
            p.thermal_conductivity
        );
        assert!(
            (p.specific_heat - 4182.0).abs() < 25.0,
            "cp {}",
            p.specific_heat
        );
        let pr = p.prandtl();
        assert!((6.0..8.0).contains(&pr), "Prandtl {}", pr);
    }

    #[test]
    fn water_viscosity_falls_with_temperature() {
        let w = Water::potable();
        let v10 = w.properties(Celsius::new(10.0)).dynamic_viscosity;
        let v50 = w.properties(Celsius::new(50.0)).dynamic_viscosity;
        assert!(v10 > 1.5 * v50);
    }

    #[test]
    fn bubble_onset_rises_with_pressure() {
        let w = Water::potable();
        let t1 = w.bubble_onset_temperature(Pascals::from_bar(1.0));
        let t3 = w.bubble_onset_temperature(Pascals::from_bar(3.0));
        assert!(t3 > t1);
        assert!((t1.get() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn degassed_water_bubbles_much_later() {
        let sat = Water::potable().bubble_onset_temperature(Pascals::from_bar(1.0));
        let degassed = Water {
            dissolved_air: 0.05,
            ..Water::potable()
        };
        let deg = degassed.bubble_onset_temperature(Pascals::from_bar(1.0));
        assert!(deg.get() > sat.get() + 40.0);
    }

    #[test]
    fn kinematic_viscosity_consistent() {
        let p = Water::potable().properties(Celsius::new(20.0));
        assert!((p.kinematic_viscosity() - p.dynamic_viscosity / p.density).abs() < 1e-18);
    }
}
