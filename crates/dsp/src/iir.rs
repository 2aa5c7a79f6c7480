//! The single-pole IIR output filter.
//!
//! [`SinglePoleLp`] is the very-low-frequency output smoother ("further
//! filtering with an IIR filter down to the bandwidth of 0.1 Hz in order to
//! improve the sensitivity"), kept in extended precision because a 0.1 Hz
//! corner at a 1 kHz sample rate has a coefficient of ~6·10⁻⁴ that would
//! dead-band a plain 32-bit state.

use crate::error::DspError;
use crate::fix::{saturate_i32, Q30};

/// A single-pole low-pass `y += α·(x − y)` with extended-precision state,
/// for sub-hertz corners at kilohertz sample rates.
///
/// ```
/// use hotwire_dsp::iir::SinglePoleLp;
///
/// let mut lp = SinglePoleLp::design(0.1, 1000.0)?; // the paper's 0.1 Hz
/// let mut y = 0;
/// for _ in 0..20_000 { y = lp.push(1_000_000); }
/// assert!((y - 1_000_000).abs() < 5_000); // converges to DC within ~2τ
/// # Ok::<(), hotwire_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SinglePoleLp {
    /// α in Q30.
    alpha: Q30,
    /// State `y` in Q30-extended precision (value · 2³⁰).
    state: i64,
}

impl SinglePoleLp {
    /// Designs the pole for a −3 dB corner `fc` at sample rate `fs` using the
    /// exact mapping `α = 1 − exp(−2π·fc/fs)`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::UnrealizableDesign`] unless `0 < fc < fs/2`.
    pub fn design(fc: f64, fs: f64) -> Result<Self, DspError> {
        if !(fc > 0.0 && fc < fs / 2.0 && fs > 0.0) {
            return Err(DspError::UnrealizableDesign {
                reason: "corner must lie strictly between 0 and nyquist",
            });
        }
        let alpha = 1.0 - (-core::f64::consts::TAU * fc / fs).exp();
        Ok(SinglePoleLp {
            alpha: Q30::from_f64(alpha),
            state: 0,
        })
    }

    /// Pushes one sample; returns the smoothed output.
    pub fn push(&mut self, x: i32) -> i32 {
        let x_ext = (x as i64) << 30;
        let err = x_ext - self.state;
        // α·err without losing the low bits: α is Q30, err is Q30-extended;
        // multiply in i128 then drop 30 bits.
        let delta = ((self.alpha.raw() as i128 * err as i128) >> 30) as i64;
        self.state += delta;
        saturate_i32((self.state + (1 << 29)) >> 30)
    }

    /// Jumps the state directly to `y` (loop pre-charging).
    pub fn preset(&mut self, y: i32) {
        self.state = (y as i64) << 30;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pole_time_constant() {
        // 0.1 Hz at 1 kHz: τ = fs/(2π·fc) ≈ 1592 samples. After exactly τ
        // samples of a unit step the output is 1 − e⁻¹ ≈ 63.2 %.
        let mut lp = SinglePoleLp::design(0.1, 1000.0).unwrap();
        let tau = (1000.0 / (core::f64::consts::TAU * 0.1)).round() as usize;
        let mut y = 0;
        for _ in 0..tau {
            y = lp.push(1_000_000);
        }
        let frac = y as f64 / 1_000_000.0;
        assert!((frac - 0.632).abs() < 0.01, "step fraction {frac}");
    }

    #[test]
    fn single_pole_no_deadband_at_tiny_alpha() {
        // A plain 32-bit state would stall: α·err < 1 count. The extended
        // state must keep integrating a 10-count step.
        let mut lp = SinglePoleLp::design(0.1, 1000.0).unwrap();
        let mut y = 0;
        for _ in 0..100_000 {
            y = lp.push(10);
        }
        assert_eq!(y, 10, "deadband detected: y={y}");
    }

    #[test]
    fn single_pole_preset() {
        let mut lp = SinglePoleLp::design(1.0, 1000.0).unwrap();
        lp.preset(5000);
        assert_eq!(lp.push(5000), 5000);
    }

    #[test]
    fn single_pole_smooths_noise() {
        // White ±1000-count noise through the 0.1 Hz pole: variance shrinks
        // by ≈ α/(2−α) ≈ 3.1e-4 → rms from ~577 to ~10 counts.
        let mut lp = SinglePoleLp::design(0.1, 1000.0).unwrap();
        let mut seed = 0x12345u64;
        let mut rand = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as i32 % 2001) - 1000
        };
        let mut sum2 = 0f64;
        let n = 50_000;
        for i in 0..n + 10_000 {
            let y = lp.push(rand());
            if i >= 10_000 {
                sum2 += (y as f64) * (y as f64);
            }
        }
        let rms = (sum2 / n as f64).sqrt();
        assert!(rms < 30.0, "smoothed rms {rms}");
    }

    #[test]
    fn rejects_bad_corners() {
        assert!(SinglePoleLp::design(0.0, 1000.0).is_err());
        assert!(SinglePoleLp::design(500.0, 1000.0).is_err());
    }
}
