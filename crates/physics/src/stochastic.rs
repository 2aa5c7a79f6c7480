//! Deterministic-seed random-process helpers shared by the physics models.
//!
//! Everything stochastic in the simulator — turbulence, bubble detachment,
//! electronic noise — draws from an explicitly seeded RNG so experiments are
//! reproducible bit-for-bit. Gaussian draws use the vendored `rand`'s
//! ziggurat [`StandardNormal`], the one normal sampler in the tree.

use hotwire_units::Seconds;
use rand::distributions::StandardNormal;
use rand::Rng;

/// A first-order Ornstein–Uhlenbeck process: band-limited noise with
/// correlation time `tau` and stationary standard deviation `sigma`.
///
/// Used for pipe turbulence (velocity fluctuation with eddy-turnover
/// correlation time) and slow drift processes.
///
/// ```
/// use hotwire_physics::stochastic::OrnsteinUhlenbeck;
/// use hotwire_units::Seconds;
/// use rand::SeedableRng;
///
/// let mut ou = OrnsteinUhlenbeck::new(Seconds::new(0.1), 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let x = ou.step(Seconds::from_millis(1.0), &mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrnsteinUhlenbeck {
    tau: Seconds,
    sigma: f64,
    state: f64,
    /// Memo of the update coefficients `(ρ, σ·√(1−ρ²))`, keyed on the
    /// step's bit pattern (τ and σ are fixed), so a constant-`dt` caller
    /// skips the `exp` and `sqrt`. A hit returns the exact values a
    /// recomputation would.
    coefficients: Option<(u64, f64, f64)>,
}

impl OrnsteinUhlenbeck {
    /// Creates a process with correlation time `tau` and stationary standard
    /// deviation `sigma`, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not positive or `sigma` is negative.
    pub fn new(tau: Seconds, sigma: f64) -> Self {
        assert!(tau.get() > 0.0, "OU correlation time must be positive");
        assert!(sigma >= 0.0, "OU sigma must be non-negative");
        OrnsteinUhlenbeck {
            tau,
            sigma,
            state: 0.0,
            coefficients: None,
        }
    }

    /// Advances the process by `dt` using the exact discrete-time update
    /// `x' = ρ·x + σ·√(1−ρ²)·ξ` with `ρ = exp(−dt/τ)`, and returns the new
    /// value.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&mut self, dt: Seconds, rng: &mut R) -> f64 {
        let dt_bits = dt.get().to_bits();
        let (rho, innovation) = match self.coefficients {
            Some((bits, rho, innovation)) if bits == dt_bits => (rho, innovation),
            _ => {
                let rho = (-dt.get() / self.tau.get()).exp();
                let innovation = self.sigma * (1.0 - rho * rho).sqrt();
                self.coefficients = Some((dt_bits, rho, innovation));
                (rho, innovation)
            }
        };
        self.state = rho * self.state + innovation * rng.sample::<f64, _>(StandardNormal);
        self.state
    }
}

/// A Poisson event clock: `fire(dt, rate, rng)` returns `true` with
/// probability `1 − exp(−rate·dt)` — used for discrete bubble-detachment
/// events.
pub fn poisson_fires<R: Rng + ?Sized>(rng: &mut R, dt: Seconds, rate_hz: f64) -> bool {
    if rate_hz <= 0.0 {
        return false;
    }
    let p = 1.0 - (-rate_hz * dt.get()).exp();
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xD1CE)
    }

    #[test]
    fn ou_stationary_variance() {
        let mut r = rng();
        let sigma = 2.0;
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(0.01), sigma);
        // Burn in, then sample.
        let dt = Seconds::from_millis(1.0);
        for _ in 0..10_000 {
            ou.step(dt, &mut r);
        }
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = ou.step(dt, &mut r);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!(
            (var - sigma * sigma).abs() / (sigma * sigma) < 0.1,
            "variance {var} vs {}",
            sigma * sigma
        );
    }

    #[test]
    fn ou_is_correlated_at_short_lags() {
        let mut r = rng();
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(1.0), 1.0);
        let dt = Seconds::from_millis(1.0);
        for _ in 0..5_000 {
            ou.step(dt, &mut r);
        }
        // Over one step with dt ≪ τ, consecutive values are nearly equal.
        let a = ou.step(dt, &mut r);
        let b = ou.step(dt, &mut r);
        assert!((a - b).abs() < 0.5);
    }

    #[test]
    fn memoized_step_matches_the_formula_as_dt_changes() {
        let (tau, sigma) = (0.05, 1.5);
        let mut ou = OrnsteinUhlenbeck::new(Seconds::new(tau), sigma);
        let (mut a, mut b) = (rng(), rng());
        let mut fresh = 0.0;
        for dt in [1e-3, 1e-3, 2e-3, 2e-3, 1e-3, 5e-4, 5e-4, 1e-3] {
            let rho = (-dt / tau).exp();
            let z: f64 = b.sample(StandardNormal);
            fresh = rho * fresh + sigma * (1.0 - rho * rho).sqrt() * z;
            assert_eq!(ou.step(Seconds::new(dt), &mut a).to_bits(), fresh.to_bits());
        }
    }

    #[test]
    fn poisson_rates() {
        let mut r = rng();
        let dt = Seconds::from_millis(1.0);
        let trials = 100_000;
        let rate = 100.0; // expect p ≈ 1 − e^(−0.1) ≈ 0.0952
        let fires = (0..trials)
            .filter(|_| poisson_fires(&mut r, dt, rate))
            .count();
        let p = fires as f64 / trials as f64;
        assert!((p - 0.0952).abs() < 0.005, "p {p}");
        assert!(!poisson_fires(&mut r, dt, 0.0));
        assert!(!poisson_fires(&mut r, dt, -1.0));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (mut a, mut b) = (rng(), rng());
        let mut ou_a = OrnsteinUhlenbeck::new(Seconds::new(0.01), 1.0);
        let mut ou_b = ou_a;
        let dt = Seconds::from_millis(1.0);
        for _ in 0..100 {
            assert_eq!(
                ou_a.step(dt, &mut a).to_bits(),
                ou_b.step(dt, &mut b).to_bits()
            );
        }
    }
}
