//! Continuous-time anti-alias low-pass ahead of the ΣΔ modulator.
//!
//! The paper: "Further stages perform signal analog processing, signal
//! recovery, and low-pass filtering for anti-aliasing purpose." Modelled as a
//! cascade of two RC poles (a behavioural Sallen–Key), integrated per
//! modulator sample with the exact single-pole discretization.

use crate::error::ensure_positive;
use crate::AfeError;
use hotwire_units::{Hertz, Volts};

/// A two-pole continuous-time anti-alias filter.
#[derive(Debug, Clone)]
pub struct AntiAliasFilter {
    pub(crate) alpha: f64,
    pub(crate) s1: f64,
    pub(crate) s2: f64,
}

impl AntiAliasFilter {
    /// Creates a filter with both poles at `corner`, stepped at
    /// `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if either frequency is not positive or the corner
    /// is above half the sample rate.
    pub fn new(corner: Hertz, sample_rate: Hertz) -> Result<Self, AfeError> {
        ensure_positive("corner", corner.get())?;
        ensure_positive("sample_rate", sample_rate.get())?;
        if corner.get() >= sample_rate.get() / 2.0 {
            return Err(AfeError::OutOfRange {
                name: "corner",
                value: corner.get(),
                min: 0.0,
                max: sample_rate.get() / 2.0,
            });
        }
        let alpha = 1.0 - (-core::f64::consts::TAU * corner.get() / sample_rate.get()).exp();
        Ok(AntiAliasFilter {
            alpha,
            s1: 0.0,
            s2: 0.0,
        })
    }

    /// Filters one sample.
    pub fn push(&mut self, x: Volts) -> Volts {
        self.s1 += self.alpha * (x.get() - self.s1);
        self.s2 += self.alpha * (self.s1 - self.s2);
        Volts::new(self.s2)
    }

    /// Filters a block of samples (volts) in place. Bit-identical to calling
    /// [`push`](Self::push) per element — both pole states are hoisted into
    /// locals so the loop runs over registers.
    pub fn push_block(&mut self, samples: &mut [f64]) {
        let alpha = self.alpha;
        let mut s1 = self.s1;
        let mut s2 = self.s2;
        for x in samples.iter_mut() {
            s1 += alpha * (*x - s1);
            s2 += alpha * (s1 - s2);
            *x = s2;
        }
        self.s1 = s1;
        self.s2 = s2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_dc() {
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(30.0), Hertz::from_kilohertz(256.0))
            .unwrap();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = f.push(Volts::new(1.25));
        }
        assert!((y.get() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn attenuates_near_nyquist() {
        let fs = 256_000.0;
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(30.0), Hertz::new(fs)).unwrap();
        let mut peak: f64 = 0.0;
        for i in 0..100_000 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let y = f.push(Volts::new(x));
            if i > 50_000 {
                peak = peak.max(y.get().abs());
            }
        }
        // Two discrete poles with α ≈ 0.52: per-pole Nyquist gain
        // α/(2−α) ≈ 0.35 → cascade ≈ 0.125.
        assert!(peak < 0.15, "nyquist leakage {peak}");
        assert!(peak > 0.0, "signal vanished entirely");
    }

    #[test]
    fn two_poles_beat_one_pole_rolloff() {
        // The cascade's step response is slower than a single pole — check
        // the 1-sample step response is quadratic-ish (tiny), i.e. s2 lags.
        let mut f = AntiAliasFilter::new(Hertz::from_kilohertz(10.0), Hertz::from_kilohertz(256.0))
            .unwrap();
        let y1 = f.push(Volts::new(1.0));
        // After one sample, a single pole would already sit at α ≈ 0.22; the
        // cascade sits at α² ≈ 0.05.
        assert!(y1.get() < 0.1, "first-step output {y1}");
    }

    #[test]
    fn rejects_bad_corners() {
        assert!(AntiAliasFilter::new(Hertz::new(0.0), Hertz::new(256e3)).is_err());
        assert!(AntiAliasFilter::new(Hertz::new(200e3), Hertz::new(256e3)).is_err());
    }
}
