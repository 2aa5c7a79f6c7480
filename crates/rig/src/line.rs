//! The measurement line: schedules → the instantaneous probe environment.
//!
//! Translates a [`Scenario`]'s bulk-flow schedule into the *local* velocity
//! the insertion probe actually sees (profile factor + turbulence), and
//! packages pressure and temperature into a [`SensorEnvironment`].
//!
//! The line keeps time as a count of steps: after `k` steps of `dt` its
//! clock reads `k × dt` (see [`hotwire_core::clock`]), never a running sum.

use crate::scenario::Scenario;
use hotwire_physics::fluid::Water;
use hotwire_physics::pipe::{Pipe, ProbeFlow};
use hotwire_physics::SensorEnvironment;
use hotwire_units::{Celsius, MetersPerSecond, Pascals, Seconds};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The simulated measurement line.
#[derive(Debug)]
pub struct WaterLine {
    scenario: Scenario,
    probe: ProbeFlow,
    rng: StdRng,
    /// Steps taken.
    ticks: u64,
    /// The period of the latest step, seconds.
    dt: f64,
    /// Most recent bulk velocity (signed, m/s).
    bulk: MetersPerSecond,
    /// Most recent local probe velocity (signed, m/s).
    local: MetersPerSecond,
}

impl WaterLine {
    /// Builds a line running `scenario` through a DN50 pipe of potable
    /// water, deterministic under `seed`.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        WaterLine {
            scenario,
            probe: ProbeFlow::new(Pipe::dn50(), Water::potable()),
            rng: StdRng::seed_from_u64(seed),
            ticks: 0,
            dt: 0.0,
            bulk: MetersPerSecond::ZERO,
            local: MetersPerSecond::ZERO,
        }
    }

    /// Elapsed scenario time in seconds: the steps taken times the step
    /// period.
    #[inline]
    pub fn time(&self) -> f64 {
        self.ticks as f64 * self.dt
    }

    /// The scenario being run.
    #[inline]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The true bulk velocity at the current time (the references' ground
    /// truth).
    #[inline]
    pub fn bulk_velocity(&self) -> MetersPerSecond {
        self.bulk
    }

    /// Advances the line by `dt` and returns the probe environment for the
    /// new instant.
    pub fn step(&mut self, dt: Seconds) -> SensorEnvironment {
        self.ticks += 1;
        self.dt = dt.get();
        let t = self.time();
        self.bulk = MetersPerSecond::from_cm_per_s(self.scenario.flow_cm_s.value_at(t));
        let temperature = Celsius::new(self.scenario.temperature_c.value_at(t));
        let pressure = Pascals::from_bar(self.scenario.pressure_bar.value_at(t));
        self.local = self.probe.step(dt, temperature, self.bulk, &mut self.rng);
        SensorEnvironment {
            fluid_temperature: temperature,
            velocity: self.local,
            pressure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Schedule;
    use hotwire_core::TickClock;
    use rand::distributions::StandardNormal;
    use rand::Rng;

    /// The probe's memos (mean velocity and turbulence intensity per
    /// temperature and bulk velocity, OU coefficients per step) return
    /// exactly what recomputing the model every tick returns: over a
    /// steady day (a hit on every tick) and a diurnal one (ramps miss,
    /// plateaus hit). The reference clock is the tick count times `dt`.
    #[test]
    fn memoized_line_matches_fresh_recomputation_bit_for_bit() {
        let dt = Seconds::from_millis(1.0);
        let (pipe, water) = (Pipe::dn50(), Water::potable());
        // `ProbeFlow`'s turbulence: τ = 50 ms, σ = 1.
        let rho = (-dt.get() / 0.05).exp();
        let innovation = (1.0 - rho * rho).sqrt();
        for scenario in [
            Scenario::steady(100.0, 4.0),
            Scenario::diurnal_demand(20.0, 200.0, 4.0),
        ] {
            let mut line = WaterLine::new(scenario.clone(), 11);
            let mut rng = StdRng::seed_from_u64(11);
            let mut xi = 0.0;
            let frames = TickClock::new(dt).frames(scenario.duration_s).unwrap();
            for k in 1..=frames {
                let env = line.step(dt);
                let t = k as f64 * dt.get();
                assert_eq!(line.time().to_bits(), t.to_bits());
                let bulk = MetersPerSecond::from_cm_per_s(scenario.flow_cm_s.value_at(t));
                let temperature = Celsius::new(scenario.temperature_c.value_at(t));
                let re = pipe.reynolds(&water, temperature, bulk);
                xi = rho * xi + innovation * rng.sample::<f64, _>(StandardNormal);
                let local =
                    bulk * Pipe::profile_factor(re) * (1.0 + Pipe::turbulence_intensity(re) * xi);
                assert_eq!(
                    env.velocity.get().to_bits(),
                    local.get().to_bits(),
                    "t = {t}"
                );
            }
        }
    }

    #[test]
    fn steady_line_produces_steady_env() {
        let mut line = WaterLine::new(Scenario::steady(100.0, 10.0), 1);
        let dt = Seconds::from_millis(1.0);
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            let env = line.step(dt);
            sum += env.velocity.get();
            assert_eq!(env.fluid_temperature.get(), 15.0);
            assert!((env.pressure.get() - 1.0e5).abs() < 1.0);
        }
        let mean = sum / n as f64;
        // Local mean = bulk × profile factor (turbulent ≈ 1.22).
        assert!(
            (mean - 1.0 * 1.224).abs() < 0.05,
            "local mean {mean} m/s for 1 m/s bulk"
        );
    }

    #[test]
    fn local_velocity_fluctuates_in_turbulent_flow() {
        let mut line = WaterLine::new(Scenario::steady(100.0, 10.0), 2);
        let dt = Seconds::from_millis(1.0);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..5000 {
            let v = line.step(dt).velocity.get();
            min = min.min(v);
            max = max.max(v);
        }
        assert!(max - min > 0.02, "no turbulence visible: [{min}, {max}]");
    }

    /// A 2-s line at 10 ms runs the 201 frames that start in [0, 2 s].
    #[test]
    fn schedule_is_followed() {
        let scenario = Scenario {
            flow_cm_s: Schedule::staircase(&[50.0, 150.0], 1.0),
            ..Scenario::steady(0.0, 2.0)
        };
        let dt = Seconds::from_millis(10.0);
        let frames = TickClock::new(dt).frames(scenario.duration_s);
        assert_eq!(frames, Some(201));
        let mut line = WaterLine::new(scenario, 3);
        let mut first_phase = 0.0;
        let mut second_phase = 0.0;
        for i in 0..201 {
            line.step(dt);
            if i == 50 {
                first_phase = line.bulk_velocity().to_cm_per_s();
            }
            if i == 150 {
                second_phase = line.bulk_velocity().to_cm_per_s();
            }
        }
        assert_eq!(first_phase, 50.0);
        assert_eq!(second_phase, 150.0);
        assert_eq!(line.time(), 201.0 * dt.get());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = WaterLine::new(Scenario::steady(120.0, 5.0), 7);
        let mut b = WaterLine::new(Scenario::steady(120.0, 5.0), 7);
        let dt = Seconds::from_millis(1.0);
        for _ in 0..100 {
            assert_eq!(a.step(dt).velocity, b.step(dt).velocity);
        }
    }
}
