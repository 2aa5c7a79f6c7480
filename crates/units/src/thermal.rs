//! Thermal quantities: temperature points, temperature intervals, thermal
//! conductance/resistance, heat capacity.
//!
//! Temperature is affine: a point on the Celsius scale ([`Celsius`]) and a
//! temperature *difference* ([`KelvinDelta`]) are distinct types, so `20 °C +
//! 15 °C` does not compile but `20 °C + ΔT(15 K)` does.

use crate::{Seconds, Watts};

quantity! {
    /// A temperature difference in kelvin (K).
    ///
    /// This is the "overheat" type of the anemometer: the constant-temperature
    /// loop regulates `T_hot − T_fluid` to a fixed [`KelvinDelta`].
    KelvinDelta, "K"
}

quantity! {
    /// Thermal conductance in watts per kelvin (W/K).
    ///
    /// King's law expresses the hot wire's total conductance to the fluid as
    /// `G(v) = A + B·vⁿ`.
    ThermalConductance, "W/K"
}

quantity! {
    /// Thermal resistance in kelvin per watt (K/W).
    ThermalResistance, "K/W"
}

quantity! {
    /// Heat capacity in joules per kelvin (J/K).
    ///
    /// The membrane's heat capacity sets the sensor time constant
    /// `τ = C_th / G`.
    HeatCapacity, "J/K"
}

relation!(Watts / KelvinDelta = ThermalConductance);
relation!(HeatCapacity / ThermalConductance = Seconds);

/// A temperature point on the Celsius scale (°C).
///
/// ```
/// use hotwire_units::{Celsius, KelvinDelta};
/// let fluid = Celsius::new(15.0);
/// let wire = fluid + KelvinDelta::new(20.0);
/// assert_eq!(wire.get(), 35.0);
/// assert_eq!((wire - fluid).get(), 20.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize,
)]
#[repr(transparent)]
#[serde(transparent)]
pub struct Celsius(f64);

impl Celsius {
    /// Wraps a raw value in degrees Celsius.
    #[inline]
    pub const fn new(value: f64) -> Self {
        Self(value)
    }

    /// Returns the raw value in degrees Celsius.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl core::ops::Sub for Celsius {
    type Output = KelvinDelta;
    #[inline]
    fn sub(self, rhs: Self) -> KelvinDelta {
        KelvinDelta::new(self.0 - rhs.0)
    }
}

impl core::ops::Add<KelvinDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn add(self, rhs: KelvinDelta) -> Celsius {
        Celsius::new(self.0 + rhs.get())
    }
}

impl core::ops::Sub<KelvinDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn sub(self, rhs: KelvinDelta) -> Celsius {
        Celsius::new(self.0 - rhs.get())
    }
}

impl core::ops::AddAssign<KelvinDelta> for Celsius {
    #[inline]
    fn add_assign(&mut self, rhs: KelvinDelta) {
        self.0 += rhs.get();
    }
}

impl core::fmt::Display for Celsius {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*} °C", precision, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_arithmetic() {
        let fluid = Celsius::new(15.0);
        let overheat = KelvinDelta::new(20.0);
        let wire = fluid + overheat;
        assert_eq!(wire.get(), 35.0);
        assert_eq!((wire - fluid).get(), 20.0);
        assert_eq!((wire - overheat).get(), 15.0);
        let mut t = fluid;
        t += KelvinDelta::new(5.0);
        assert_eq!(t.get(), 20.0);
    }

    #[test]
    fn power_from_conductance_and_overheat() {
        let g = ThermalConductance::new(1.5e-3);
        let dt = KelvinDelta::new(20.0);
        let p: Watts = g * dt;
        assert!((p.get() - 0.03).abs() < 1e-12);
        let g2: ThermalConductance = p / dt;
        assert!((g2.get() - 1.5e-3).abs() < 1e-15);
    }

    #[test]
    fn time_constant_from_capacity_and_conductance() {
        let c = HeatCapacity::new(4.0e-6);
        let g = ThermalConductance::new(2.0e-3);
        let tau: Seconds = c / g;
        assert!((tau.get() - 2.0e-3).abs() < 1e-15);
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{:.1}", Celsius::new(15.04)), "15.0 °C");
        assert_eq!(format!("{:.1}", KelvinDelta::new(20.0)), "20.0 K");
    }
}
