//! Electrical quantities: resistance, voltage, current, power.

quantity! {
    /// Electrical resistance in ohms (Ω).
    ///
    /// ```
    /// use hotwire_units::{Ohms, Volts, Amps};
    /// let heater = Ohms::new(50.0);
    /// let i: Amps = Volts::new(2.5) / heater;
    /// assert!((i.get() - 0.05).abs() < 1e-12);
    /// ```
    Ohms, "Ω"
}

quantity! {
    /// Electrical potential in volts (V).
    ///
    /// ```
    /// use hotwire_units::{Volts, Amps, Watts};
    /// let p: Watts = Volts::new(5.0) * Amps::new(0.1);
    /// assert!((p.get() - 0.5).abs() < 1e-12);
    /// ```
    Volts, "V"
}

quantity! {
    /// Electrical current in amperes (A).
    Amps, "A"
}

quantity! {
    /// Power in watts (W).
    Watts, "W"
}

relation!(Volts / Ohms = Amps);
relation!(Watts / Volts = Amps);

impl Watts {
    /// Joule heating `I²·R` dissipated by a current through a resistance.
    ///
    /// ```
    /// use hotwire_units::{Amps, Ohms, Watts};
    /// let p = Watts::from_joule_heating(Amps::new(0.1), Ohms::new(50.0));
    /// assert!((p.get() - 0.5).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_joule_heating(current: Amps, resistance: Ohms) -> Self {
        Watts::new(current.get() * current.get() * resistance.get())
    }

    /// Joule heating `V²/R` dissipated by a voltage across a resistance.
    #[inline]
    pub fn from_voltage_across(voltage: Volts, resistance: Ohms) -> Self {
        Watts::new(voltage.get() * voltage.get() / resistance.get())
    }

    /// Returns the value in milliwatts.
    #[inline]
    pub fn to_milliwatts(self) -> f64 {
        self.get() * 1e3
    }
}

impl Volts {
    /// Converts millivolts to volts.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Volts::new(mv * 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trips() {
        let v = Volts::new(5.0);
        let r = Ohms::new(50.0);
        let i = v / r;
        assert!(((i * r) - v).abs().get() < 1e-12);
        assert!(((v / i) - r).abs().get() < 1e-12);
    }

    #[test]
    fn power_relations_agree() {
        let v = Volts::new(3.0);
        let r = Ohms::new(50.0);
        let i = v / r;
        let p1 = v * i;
        let p2 = Watts::from_joule_heating(i, r);
        let p3 = Watts::from_voltage_across(v, r);
        assert!((p1 - p2).abs().get() < 1e-12);
        assert!((p1 - p3).abs().get() < 1e-12);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(format!("{:.2}", Volts::new(1.234)), "1.23 V");
        assert_eq!(format!("{}", Ohms::new(50.0)), "50 Ω");
    }

    #[test]
    fn arithmetic_identities() {
        let a = Volts::new(2.0);
        let b = Volts::new(3.0);
        assert_eq!((a + b).get(), 5.0);
        assert_eq!((b - a).get(), 1.0);
        assert_eq!((-a).get(), -2.0);
        assert_eq!((a * 2.0).get(), 4.0);
        assert_eq!((2.0 * a).get(), 4.0);
        assert_eq!((a / 2.0).get(), 1.0);
        assert_eq!(a / b, 2.0 / 3.0);
    }

    #[test]
    fn sum_and_assign_ops() {
        let total: Volts = [1.0, 2.0, 3.0].iter().map(|&x| Volts::new(x)).sum();
        assert_eq!(total.get(), 6.0);
        let mut v = Volts::new(1.0);
        v += Volts::new(2.0);
        v -= Volts::new(0.5);
        assert_eq!(v.get(), 2.5);
    }

    #[test]
    fn milli_conversions() {
        assert!((Volts::from_millivolts(1500.0).get() - 1.5).abs() < 1e-12);
        assert!((Watts::new(0.25).to_milliwatts() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_min_max() {
        let v = Volts::new(7.0);
        assert_eq!(v.clamp(Volts::ZERO, Volts::new(5.0)).get(), 5.0);
        assert_eq!(v.max(Volts::new(9.0)).get(), 9.0);
        assert_eq!(v.min(Volts::new(3.0)).get(), 3.0);
    }
}
