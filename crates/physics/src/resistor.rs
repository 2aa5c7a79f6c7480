//! The resistance–temperature law of the Ti/TiN thin-film resistors (Eq. 1).
//!
//! The paper's die carries two kinds of resistor, both following
//! `R(T) = R₀·(1 + α·(T − T_ref))`:
//!
//! * the heater `Rh = 50.0 ± 0.5 Ω`, exposed to the flow, and
//! * the ambient reference `Rt = 2000 ± 30 Ω`, interdigitated so both
//!   half-bridges share the same reference.
//!
//! Titanium's temperature coefficient is ≈ 3.5·10⁻³ /K; the TiN nanolayer
//! passivation makes the film drift-free ("no drift due to electrical or
//! temperature stress"), so no aging term is modelled on the resistor itself —
//! drift enters only through the fouling layer on top of it.

use hotwire_units::{Celsius, Ohms};

/// A thin-film resistance-temperature device (Eq. 1 of the paper).
///
/// ```
/// use hotwire_physics::Rtd;
/// use hotwire_units::{Celsius, Ohms};
///
/// let heater = Rtd::heater();
/// let r = heater.resistance(Celsius::new(40.0));
/// // 50 Ω · (1 + 3.5e-3 · 20) = 53.5 Ω
/// assert!((r.get() - 53.5).abs() < 1e-9);
/// assert!((heater.temperature(r).get() - 40.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rtd {
    r0: Ohms,
    alpha_per_k: f64,
    reference: Celsius,
}

impl Rtd {
    /// Temperature coefficient of the Ti/TiN film, per kelvin.
    pub const TITANIUM_ALPHA: f64 = 3.5e-3;

    /// The paper's heater: 50.0 Ω at 20 °C, titanium TCR.
    pub fn heater() -> Self {
        Rtd {
            r0: Ohms::new(50.0),
            alpha_per_k: Self::TITANIUM_ALPHA,
            reference: Celsius::new(20.0),
        }
    }

    /// The paper's ambient reference: 2000 Ω at 20 °C, titanium TCR.
    pub fn ambient_reference() -> Self {
        Rtd {
            r0: Ohms::new(2000.0),
            alpha_per_k: Self::TITANIUM_ALPHA,
            reference: Celsius::new(20.0),
        }
    }

    /// Returns a copy with `r0` offset by the given manufacturing tolerance
    /// fraction (e.g. `0.01` = +1 %). The paper quotes ±0.5 Ω on 50 Ω (±1 %)
    /// and ±30 Ω on 2000 Ω (±1.5 %).
    #[must_use]
    pub fn with_tolerance(mut self, fraction: f64) -> Self {
        self.r0 = self.r0 * (1.0 + fraction);
        self
    }

    /// Resistance at film temperature `t` (Eq. 1).
    #[inline]
    pub fn resistance(&self, t: Celsius) -> Ohms {
        self.r0 * (1.0 + self.alpha_per_k * (t - self.reference).get())
    }

    /// Film temperature for a measured resistance (inverse of Eq. 1).
    #[inline]
    pub fn temperature(&self, r: Ohms) -> Celsius {
        Celsius::new(self.reference.get() + (r / self.r0 - 1.0) / self.alpha_per_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heater_nominals() {
        let h = Rtd::heater();
        assert_eq!(h.r0.get(), 50.0);
        assert!((h.resistance(Celsius::new(20.0)).get() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn resistance_temperature_round_trip() {
        let h = Rtd::heater();
        for t in [-10.0, 0.0, 20.0, 35.0, 60.0, 90.0] {
            let r = h.resistance(Celsius::new(t));
            let back = h.temperature(r);
            assert!((back.get() - t).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn tolerance_shifts_r0() {
        let h = Rtd::heater().with_tolerance(0.01);
        assert!((h.r0.get() - 50.5).abs() < 1e-12);
        // ±0.5 Ω on 50 Ω is the paper's quoted spread.
    }

    #[test]
    fn reference_resistor_nominals() {
        let rt = Rtd::ambient_reference();
        assert_eq!(rt.r0.get(), 2000.0);
        let r25 = rt.resistance(Celsius::new(25.0));
        assert!((r25.get() - 2000.0 * (1.0 + 3.5e-3 * 5.0)).abs() < 1e-9);
    }
}
