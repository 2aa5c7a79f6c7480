//! Flow and hydraulic quantities: velocity, length, pressure.

use crate::Seconds;

quantity! {
    /// Flow speed in metres per second (m/s).
    ///
    /// The paper's full scale is 0–250 cm/s, i.e. 2.5 m/s; helper conversions
    /// to/from cm/s are provided because the paper quotes everything in cm/s.
    ///
    /// ```
    /// use hotwire_units::MetersPerSecond;
    /// let v = MetersPerSecond::from_cm_per_s(250.0);
    /// assert_eq!(v.get(), 2.5);
    /// assert_eq!(v.to_cm_per_s(), 250.0);
    /// ```
    MetersPerSecond, "m/s"
}

quantity! {
    /// Length in metres (m).
    Meters, "m"
}

quantity! {
    /// Pressure in pascals (Pa).
    Pascals, "Pa"
}

relation!(Meters / Seconds = MetersPerSecond);

impl MetersPerSecond {
    /// Builds a velocity from a value in centimetres per second.
    #[inline]
    pub fn from_cm_per_s(cm_per_s: f64) -> Self {
        MetersPerSecond::new(cm_per_s * 1e-2)
    }

    /// Returns the value in centimetres per second.
    #[inline]
    pub fn to_cm_per_s(self) -> f64 {
        self.get() * 1e2
    }
}

impl Pascals {
    /// Builds a pressure from bar (1 bar = 100 kPa), the paper's unit for
    /// line pressure.
    #[inline]
    pub fn from_bar(bar: f64) -> Self {
        Pascals::new(bar * 1e5)
    }
}

impl Meters {
    /// Builds a length from millimetres.
    #[inline]
    pub fn from_millimeters(mm: f64) -> Self {
        Meters::new(mm * 1e-3)
    }

    /// Builds a length from micrometres.
    #[inline]
    pub fn from_micrometers(um: f64) -> Self {
        Meters::new(um * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_unit_conversions() {
        let v = MetersPerSecond::from_cm_per_s(250.0);
        assert!((v.get() - 2.5).abs() < 1e-12);
        assert!((v.to_cm_per_s() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_unit_conversions() {
        let p = Pascals::from_bar(3.0);
        assert!((p.get() - 3.0e5).abs() < 1e-6);
    }

    #[test]
    fn length_conversions() {
        assert!((Meters::from_millimeters(2.0).get() - 2e-3).abs() < 1e-15);
        assert!((Meters::from_micrometers(2.0).get() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn distance_velocity_time_relation() {
        let d: Meters = MetersPerSecond::new(2.0) * Seconds::new(3.0);
        assert_eq!(d.get(), 6.0);
        let v: MetersPerSecond = Meters::new(6.0) / Seconds::new(3.0);
        assert_eq!(v.get(), 2.0);
    }
}
