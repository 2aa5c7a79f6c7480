//! Time-domain quantities: duration and frequency.

quantity! {
    /// A duration in seconds (s).
    Seconds, "s"
}

quantity! {
    /// A frequency in hertz (Hz).
    Hertz, "Hz"
}

impl Seconds {
    /// Builds a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }
}

impl Hertz {
    /// Builds a frequency from kilohertz.
    #[inline]
    pub fn from_kilohertz(khz: f64) -> Self {
        Hertz::new(khz * 1e3)
    }

    /// The period of one cycle (`T = 1/f`).
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_frequency_reciprocal() {
        let f = Hertz::from_kilohertz(256.0);
        let t = f.period();
        assert!((t.get() - 1.0 / 256_000.0).abs() < 1e-18);
    }

    #[test]
    fn sub_second_conversions() {
        assert!((Seconds::from_millis(2.5).get() - 2.5e-3).abs() < 1e-15);
    }
}
