//! Behavioural model of the Endress+Hauser Promag 50 electromagnetic
//! reference meter.
//!
//! The paper's reference: "a commercial high resolution magnetic water meter
//! (Promag 50) … resolution lower than ±0.5 % respect to full scale".
//! Electromagnetic meters measure the Faraday voltage induced by the bulk
//! flow through a magnetic field: direction-sensitive, no moving parts, no
//! profile dependence (electrode geometry averages the profile), with a
//! low-flow cutoff and a ~10 Hz internal update rate.

use hotwire_units::{MetersPerSecond, Seconds};
use rand::distributions::StandardNormal;
use rand::Rng;

/// The Promag 50 behavioural model.
#[derive(Debug, Clone)]
pub struct Promag50 {
    /// Full-scale velocity.
    full_scale: MetersPerSecond,
    /// RMS noise as a fraction of full scale.
    noise_fs: f64,
    /// Low-flow cutoff (readings below this clamp to zero).
    cutoff: MetersPerSecond,
    /// Internal update period.
    update_period: Seconds,
    /// Time since the last update.
    since_update: f64,
    /// Latest held reading.
    reading: MetersPerSecond,
}

impl Promag50 {
    /// A Promag 50 spanning the paper's 0–250 cm/s line, with ±0.25 % FS rms
    /// noise (comfortably inside the "< ±0.5 % FS" datasheet bound) and a
    /// 1 cm/s low-flow cutoff.
    pub fn new(full_scale: MetersPerSecond) -> Self {
        Promag50 {
            full_scale,
            noise_fs: 0.0025,
            cutoff: MetersPerSecond::from_cm_per_s(1.0),
            update_period: Seconds::from_millis(100.0),
            since_update: f64::INFINITY, // update immediately on first step
            reading: MetersPerSecond::ZERO,
        }
    }

    /// Advances the meter by `dt` with the true *bulk* velocity and returns
    /// the current (held) reading.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: Seconds,
        bulk: MetersPerSecond,
        rng: &mut R,
    ) -> MetersPerSecond {
        self.since_update += dt.get();
        if self.since_update >= self.update_period.get() {
            self.since_update = 0.0;
            let noise =
                rng.sample::<f64, _>(StandardNormal) * (self.noise_fs * self.full_scale.get());
            let noisy = bulk.get() + noise;
            self.reading = if noisy.abs() < self.cutoff.get() {
                MetersPerSecond::ZERO
            } else {
                MetersPerSecond::new(noisy)
            };
        }
        self.reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x9A)
    }

    fn meter() -> Promag50 {
        Promag50::new(MetersPerSecond::from_cm_per_s(250.0))
    }

    #[test]
    fn mean_reading_is_unbiased() {
        let mut m = meter();
        let mut r = rng();
        let dt = Seconds::from_millis(100.0);
        let truth = MetersPerSecond::from_cm_per_s(123.0);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| m.step(dt, truth, &mut r).get()).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - truth.get()).abs() < 0.005,
            "mean {mean} vs {}",
            truth.get()
        );
    }

    #[test]
    fn noise_within_datasheet_bound() {
        let mut m = meter();
        let mut r = rng();
        let dt = Seconds::from_millis(100.0);
        let truth = MetersPerSecond::from_cm_per_s(123.0);
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| m.step(dt, truth, &mut r).get()).collect();
        let mean = readings.iter().sum::<f64>() / n as f64;
        let sd = (readings.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        let pct_fs = sd / m.full_scale.get() * 100.0;
        assert!(pct_fs < 0.5, "noise {pct_fs} % FS exceeds datasheet");
        assert!(pct_fs > 0.05, "noise {pct_fs} % FS implausibly clean");
    }

    #[test]
    fn reading_held_between_updates() {
        let mut m = meter();
        let mut r = rng();
        let truth = MetersPerSecond::from_cm_per_s(100.0);
        let first = m.step(Seconds::from_millis(1.0), truth, &mut r);
        // 50 ms later, still inside the 100 ms update window.
        let held = m.step(Seconds::from_millis(50.0), truth, &mut r);
        assert_eq!(first, held);
    }

    #[test]
    fn low_flow_cutoff() {
        let mut m = meter();
        let mut r = rng();
        let dt = Seconds::from_millis(100.0);
        for _ in 0..100 {
            let reading = m.step(dt, MetersPerSecond::from_cm_per_s(0.1), &mut r);
            assert!(
                reading.get() == 0.0 || reading.get().abs() >= 0.01,
                "reading {reading} inside the cutoff band"
            );
        }
    }

    #[test]
    fn direction_sensitive() {
        let mut m = meter();
        let mut r = rng();
        let dt = Seconds::from_millis(100.0);
        let reading = m.step(dt, MetersPerSecond::from_cm_per_s(-150.0), &mut r);
        assert!(reading.get() < -1.0);
    }
}
