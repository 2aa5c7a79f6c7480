//! Outgassing-bubble formation on the heater surface — the paper's Fig. 7
//! failure mode.
//!
//! Hot-wire anemometry "proved less success in liquids because of bubbles and
//! deposits, which disturb the signal". In air-saturated potable water,
//! dissolved gas comes out of solution on a wall heated above an onset
//! temperature well below boiling (gas solubility drops with temperature,
//! Henry's law makes the onset rise with line pressure). Bubbles stick to the
//! sensor face, blanket the heater, corrupt the heat transfer, and promote
//! local CaCO₃ deposition.
//!
//! The model is a surface-coverage ODE with stochastic detachment:
//!
//! ```text
//! dθ/dt = k_grow·(T_w − T_on)₊·(1 − θ)  −  k_dissolve·(T_on − T_w)₊·θ
//! ```
//!
//! plus Poisson detachment events that remove a random chunk of coverage
//! (the discrete signal "spikes" seen in practice). The paper's mitigation —
//! pulsed drive and reduced overheat — works here for exactly the physical
//! reason it works on the bench: the wall spends most of its time below the
//! onset temperature, so dissolution wins.
//!
//! Time scales are accelerated (~minutes → seconds) so experiments complete
//! in simulated seconds; the *ordering* of continuous-vs-pulsed outcomes is
//! insensitive to the acceleration factor (see tests).

use crate::error::ensure_positive;
use crate::stochastic::poisson_fires;
use crate::PhysicsError;
use hotwire_units::{Celsius, Seconds};
use rand::Rng;

/// Rate parameters of the bubble coverage model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BubbleParams {
    /// Coverage growth rate per kelvin of excess superheat, 1/(K·s).
    pub growth_rate_per_k: f64,
    /// Coverage dissolution rate per kelvin below onset, 1/(K·s).
    pub dissolve_rate_per_k: f64,
    /// Baseline dissolution rate at the onset temperature, 1/s (slow
    /// shrinkage even without subcooling, e.g. flow shear).
    pub baseline_dissolve_rate: f64,
    /// Poisson rate of detachment events at full coverage, 1/s.
    pub detach_rate_at_full: f64,
    /// Largest fraction of current coverage removed by one detachment.
    pub max_detach_fraction: f64,
}

impl BubbleParams {
    /// Accelerated-time defaults (minutes of real fouling compressed into
    /// seconds of simulation).
    pub fn accelerated() -> Self {
        BubbleParams {
            growth_rate_per_k: 0.02,
            dissolve_rate_per_k: 0.05,
            baseline_dissolve_rate: 0.01,
            detach_rate_at_full: 0.8,
            max_detach_fraction: 0.35,
        }
    }

    /// Validates rate plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if any rate is non-positive or the detach
    /// fraction is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), PhysicsError> {
        ensure_positive("growth_rate_per_k", self.growth_rate_per_k)?;
        ensure_positive("dissolve_rate_per_k", self.dissolve_rate_per_k)?;
        ensure_positive("baseline_dissolve_rate", self.baseline_dissolve_rate)?;
        ensure_positive("detach_rate_at_full", self.detach_rate_at_full)?;
        crate::error::ensure_in_range("max_detach_fraction", self.max_detach_fraction, 1e-6, 1.0)?;
        Ok(())
    }
}

impl Default for BubbleParams {
    fn default() -> Self {
        BubbleParams::accelerated()
    }
}

/// The evolving bubble layer on one heater face.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BubbleLayer {
    params: BubbleParams,
    coverage: f64,
    detachments: u64,
}

impl BubbleLayer {
    /// A clean heater face with the given rate parameters.
    pub fn new(params: BubbleParams) -> Self {
        BubbleLayer {
            params,
            coverage: 0.0,
            detachments: 0,
        }
    }

    /// Fraction of the face currently blanketed, `0..=1`.
    #[inline]
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Number of discrete detachment events so far (each one is a signal
    /// spike in the conditioned output).
    #[inline]
    pub fn detachment_count(&self) -> u64 {
        self.detachments
    }

    /// Advances the layer by `dt` given the wall temperature and the
    /// outgassing onset temperature (from
    /// [`Water::bubble_onset_temperature`](crate::fluid::Water::bubble_onset_temperature)).
    ///
    /// Returns `true` if a detachment event fired during this step.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: Seconds,
        wall: Celsius,
        onset: Celsius,
        rng: &mut R,
    ) -> bool {
        if !onset.get().is_finite() {
            // Gas medium: no bubbles, ever.
            self.coverage = 0.0;
            return false;
        }
        let superheat = (wall - onset).get();
        let grow = self.params.growth_rate_per_k * superheat.max(0.0) * (1.0 - self.coverage);
        let dissolve = (self.params.dissolve_rate_per_k * (-superheat).max(0.0)
            + self.params.baseline_dissolve_rate)
            * self.coverage;
        self.coverage = (self.coverage + dt.get() * (grow - dissolve)).clamp(0.0, 1.0);

        let rate = self.params.detach_rate_at_full * self.coverage;
        if poisson_fires(rng, dt, rate) {
            let frac = rng.gen_range(0.0..self.params.max_detach_fraction);
            self.coverage *= 1.0 - frac;
            self.detachments += 1;
            true
        } else {
            false
        }
    }

    /// Deposits extra coverage instantaneously (a slug of entrained gas
    /// bursting against the face — fault-injection's abrupt bubble event).
    /// Coverage clamps to the unit interval.
    pub fn deposit(&mut self, coverage: f64) {
        self.coverage = (self.coverage + coverage.max(0.0)).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn run(
        layer: &mut BubbleLayer,
        wall: f64,
        onset: f64,
        seconds: f64,
        rng: &mut rand::rngs::StdRng,
    ) {
        let dt = Seconds::from_millis(10.0);
        let steps = (seconds / dt.get()).round() as usize;
        for _ in 0..steps {
            layer.step(dt, Celsius::new(wall), Celsius::new(onset), rng);
        }
    }

    #[test]
    fn hot_wall_grows_coverage() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        run(&mut layer, 55.0, 40.0, 30.0, &mut r);
        assert!(
            layer.coverage() > 0.3,
            "coverage {} after 30 s at 15 K excess superheat",
            layer.coverage()
        );
    }

    #[test]
    fn cool_wall_stays_clean() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        run(&mut layer, 30.0, 40.0, 30.0, &mut r);
        assert_eq!(layer.coverage(), 0.0);
    }

    #[test]
    fn coverage_dissolves_after_cooldown() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        run(&mut layer, 55.0, 40.0, 30.0, &mut r);
        let peak = layer.coverage();
        run(&mut layer, 25.0, 40.0, 30.0, &mut r);
        assert!(
            layer.coverage() < 0.2 * peak,
            "coverage {} did not dissolve from {}",
            layer.coverage(),
            peak
        );
    }

    #[test]
    fn duty_cycling_bounds_coverage() {
        // The paper's mitigation: pulsed drive keeps mean superheat low.
        let mut r1 = rng();
        let mut r2 = rng();
        let mut continuous = BubbleLayer::new(BubbleParams::accelerated());
        let mut pulsed = BubbleLayer::new(BubbleParams::accelerated());
        let dt = Seconds::from_millis(10.0);
        for i in 0..6000 {
            continuous.step(dt, Celsius::new(55.0), Celsius::new(40.0), &mut r1);
            // 20 % duty: heater hot 1 tick out of 5.
            let wall = if i % 5 == 0 { 55.0 } else { 20.0 };
            pulsed.step(dt, Celsius::new(wall), Celsius::new(40.0), &mut r2);
        }
        assert!(
            pulsed.coverage() < 0.3 * continuous.coverage().max(1e-9),
            "pulsed {} vs continuous {}",
            pulsed.coverage(),
            continuous.coverage()
        );
    }

    #[test]
    fn detachments_eventually_fire_on_covered_surface() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        run(&mut layer, 60.0, 40.0, 120.0, &mut r);
        assert!(layer.detachment_count() > 0);
    }

    #[test]
    fn coverage_never_leaves_unit_interval() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        for i in 0..10_000 {
            let wall = if i % 2 == 0 { 90.0 } else { 5.0 };
            layer.step(
                Seconds::from_millis(50.0),
                Celsius::new(wall),
                Celsius::new(40.0),
                &mut r,
            );
            assert!((0.0..=1.0).contains(&layer.coverage()));
        }
    }

    #[test]
    fn gas_medium_never_bubbles() {
        let mut r = rng();
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        let fired = layer.step(
            Seconds::new(1.0),
            Celsius::new(200.0),
            Celsius::new(f64::INFINITY),
            &mut r,
        );
        assert!(!fired);
        assert_eq!(layer.coverage(), 0.0);
    }

    #[test]
    fn deposit_clamps_to_unit_interval() {
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        layer.deposit(0.4);
        assert!((layer.coverage() - 0.4).abs() < 1e-12);
        layer.deposit(0.9);
        assert_eq!(layer.coverage(), 1.0);
        layer.deposit(-5.0); // negative deposits are ignored
        assert_eq!(layer.coverage(), 1.0);
    }

    #[test]
    fn params_validation() {
        assert!(BubbleParams::accelerated().validate().is_ok());
        let bad = BubbleParams {
            max_detach_fraction: 1.5,
            ..BubbleParams::accelerated()
        };
        assert!(bad.validate().is_err());
    }
}
