//! The measurement line: bulk-vs-local velocity, flow regime, turbulence.
//!
//! The prototype is an insertion probe: the sensor head sits near the pipe
//! axis, so it samples a *local* velocity that relates to the *bulk* (area
//! mean) velocity through the velocity profile. The profile factor depends on
//! the Reynolds regime (parabolic laminar profile → centreline = 2× bulk;
//! flat turbulent 1/7-power profile → ≈1.22× bulk). Turbulent fluctuation is
//! modelled as an Ornstein–Uhlenbeck process with an eddy-turnover
//! correlation time.

use crate::fluid::Water;
use crate::stochastic::OrnsteinUhlenbeck;
use hotwire_units::{Celsius, Meters, MetersPerSecond, Seconds};
use rand::Rng;

/// Reynolds number below which pipe flow is laminar.
pub const RE_LAMINAR: f64 = 2300.0;
/// Reynolds number above which pipe flow is fully turbulent.
pub const RE_TURBULENT: f64 = 4000.0;

/// A straight measurement pipe with an insertion probe near the axis.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Pipe {
    inner_diameter: Meters,
}

impl Pipe {
    /// The DN50 line used in the paper's dedicated measurement section.
    pub fn dn50() -> Self {
        Pipe {
            inner_diameter: Meters::from_millimeters(50.0),
        }
    }

    /// Reynolds number of the bulk flow at the given fluid temperature.
    pub fn reynolds(&self, fluid: &Water, temperature: Celsius, bulk: MetersPerSecond) -> f64 {
        let props = fluid.properties(temperature);
        bulk.get().abs() * self.inner_diameter.get() / props.kinematic_viscosity()
    }

    /// Ratio of centreline (probe) velocity to bulk velocity for the given
    /// Reynolds number, blending smoothly through the transition region.
    pub fn profile_factor(reynolds: f64) -> f64 {
        const LAMINAR: f64 = 2.0;
        // 1/7-power law: v_max / v_bulk = (n+1)(2n+1)/(2n²) with n = 7 → 1.224.
        const TURBULENT: f64 = 1.224;
        if reynolds <= RE_LAMINAR {
            LAMINAR
        } else if reynolds >= RE_TURBULENT {
            TURBULENT
        } else {
            let x = (reynolds - RE_LAMINAR) / (RE_TURBULENT - RE_LAMINAR);
            LAMINAR + (TURBULENT - LAMINAR) * x
        }
    }

    /// Turbulence intensity (rms fluctuation / mean) at the centreline for
    /// the given Reynolds number. Zero in laminar flow; ~4–6 % when fully
    /// turbulent (decaying weakly with Re).
    pub fn turbulence_intensity(reynolds: f64) -> f64 {
        if reynolds <= RE_LAMINAR {
            0.0
        } else {
            let re = reynolds.max(RE_TURBULENT);
            // Fully-developed pipe-core correlation: I ≈ 0.16·Re^(−1/8).
            let full = 0.16 * re.powf(-1.0 / 8.0);
            if reynolds >= RE_TURBULENT {
                full
            } else {
                full * (reynolds - RE_LAMINAR) / (RE_TURBULENT - RE_LAMINAR)
            }
        }
    }

    /// Velocity-profile ratio `v(r)/v_bulk` at radial position
    /// `r_over_radius ∈ [0, 1)` (0 = centreline, 1 = wall):
    /// parabolic in laminar flow, 1/7-power in turbulent flow, blended
    /// through the transition — the reason the paper's rig had "a
    /// transparent section for monitoring … the correct position of the
    /// sensor in the tube".
    pub fn profile_ratio_at(reynolds: f64, r_over_radius: f64) -> f64 {
        let r = r_over_radius.clamp(0.0, 0.999);
        // Laminar Poiseuille: v(r)/v_bulk = 2·(1 − r²).
        let laminar = 2.0 * (1.0 - r * r);
        // Turbulent 1/7-power: v(r)/v_max = (1 − r)^(1/7), v_max/v_bulk = 1.224.
        let turbulent = 1.224 * (1.0 - r).powf(1.0 / 7.0);
        if reynolds <= RE_LAMINAR {
            laminar
        } else if reynolds >= RE_TURBULENT {
            turbulent
        } else {
            let x = (reynolds - RE_LAMINAR) / (RE_TURBULENT - RE_LAMINAR);
            laminar + (turbulent - laminar) * x
        }
    }

    /// Local mean velocity at an off-centre probe position.
    pub fn local_mean_velocity_at(
        &self,
        fluid: &Water,
        temperature: Celsius,
        bulk: MetersPerSecond,
        r_over_radius: f64,
    ) -> MetersPerSecond {
        let re = self.reynolds(fluid, temperature, bulk);
        bulk * Self::profile_ratio_at(re, r_over_radius)
    }
}

/// Stateful generator of the instantaneous velocity seen by the probe:
/// profile-corrected mean plus OU turbulence.
#[derive(Debug, Clone)]
pub struct ProbeFlow {
    pipe: Pipe,
    water: Water,
    turbulence: OrnsteinUhlenbeck,
    /// Memo of the profile-corrected mean velocity and the turbulence
    /// intensity, keyed on the bit patterns of temperature and bulk
    /// velocity (the pipe and the water are fixed). Both are pure functions
    /// of the two, so steady flow skips the property snapshot, the Reynolds
    /// number and both `powf`s on every tick; a hit returns the exact
    /// values a recomputation would.
    flow_cache: Option<(u64, u64, MetersPerSecond, f64)>,
}

impl ProbeFlow {
    /// Creates a probe-flow generator for `water` in the given pipe. The OU
    /// correlation time approximates one eddy turnover at mid-range flow.
    pub fn new(pipe: Pipe, water: Water) -> Self {
        ProbeFlow {
            pipe,
            water,
            turbulence: OrnsteinUhlenbeck::new(Seconds::from_millis(50.0), 1.0),
            flow_cache: None,
        }
    }

    /// Advances by `dt` and returns the instantaneous local velocity at the
    /// probe for bulk velocity `bulk` (sign preserved — the probe senses
    /// direction through the dual heaters).
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: Seconds,
        temperature: Celsius,
        bulk: MetersPerSecond,
        rng: &mut R,
    ) -> MetersPerSecond {
        let (t_bits, v_bits) = (temperature.get().to_bits(), bulk.get().to_bits());
        let (mean, intensity) = match self.flow_cache {
            Some((t, v, mean, intensity)) if (t, v) == (t_bits, v_bits) => (mean, intensity),
            _ => {
                let re = self.pipe.reynolds(&self.water, temperature, bulk);
                let mean = bulk * Pipe::profile_factor(re);
                let intensity = Pipe::turbulence_intensity(re);
                self.flow_cache = Some((t_bits, v_bits, mean, intensity));
                (mean, intensity)
            }
        };
        let xi = self.turbulence.step(dt, rng);
        mean * (1.0 + intensity * xi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reynolds_magnitude_in_water() {
        let pipe = Pipe::dn50();
        // 1 m/s in a DN50 water pipe at 15 °C: Re = v·D/ν ≈ 0.05/1.14e-6 ≈ 44 000.
        let re = pipe.reynolds(
            &Water::potable(),
            Celsius::new(15.0),
            MetersPerSecond::new(1.0),
        );
        assert!((35_000.0..55_000.0).contains(&re), "Re = {re}");
    }

    #[test]
    fn profile_factor_limits() {
        assert_eq!(Pipe::profile_factor(1000.0), 2.0);
        assert!((Pipe::profile_factor(1e5) - 1.224).abs() < 1e-9);
        // Transition is monotone between the limits.
        let mid = Pipe::profile_factor(3000.0);
        assert!(mid < 2.0 && mid > 1.224);
    }

    #[test]
    fn turbulence_intensity_regimes() {
        assert_eq!(Pipe::turbulence_intensity(1500.0), 0.0);
        let i = Pipe::turbulence_intensity(44_000.0);
        assert!((0.02..0.08).contains(&i), "intensity {i}");
        // Intensity decays weakly with Re.
        assert!(Pipe::turbulence_intensity(1e6) < Pipe::turbulence_intensity(1e4));
    }

    #[test]
    fn local_velocity_above_bulk() {
        let pipe = Pipe::dn50();
        let local = pipe.local_mean_velocity_at(
            &Water::potable(),
            Celsius::new(15.0),
            MetersPerSecond::new(1.0),
            0.0,
        );
        assert!(local.get() > 1.0 && local.get() < 2.1);
    }

    #[test]
    fn probe_flow_fluctuates_around_mean() {
        let water = Water::potable();
        let mut probe = ProbeFlow::new(Pipe::dn50(), water);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bulk = MetersPerSecond::new(1.0);
        let dt = Seconds::from_millis(1.0);
        let n = 50_000;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..n {
            let v = probe.step(dt, Celsius::new(15.0), bulk, &mut rng).get();
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let mean = sum / n as f64;
        let re = Pipe::dn50().reynolds(&water, Celsius::new(15.0), bulk);
        let expected = bulk.get() * Pipe::profile_factor(re);
        assert!((mean - expected).abs() / expected < 0.02, "mean {mean}");
        assert!(max > mean && min < mean, "fluctuation missing");
    }

    #[test]
    fn laminar_probe_flow_is_noiseless() {
        let mut probe = ProbeFlow::new(Pipe::dn50(), Water::potable());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // 1 cm/s in DN50: Re ≈ 440 → laminar.
        let bulk = MetersPerSecond::from_cm_per_s(1.0);
        let dt = Seconds::from_millis(1.0);
        let a = probe.step(dt, Celsius::new(15.0), bulk, &mut rng);
        let b = probe.step(dt, Celsius::new(15.0), bulk, &mut rng);
        assert_eq!(a, b, "laminar flow must carry no turbulence");
        assert!((a.get() - 2.0 * bulk.get()).abs() < 1e-12);
    }

    #[test]
    fn profile_ratio_limits() {
        // Centreline matches the profile factor in both regimes.
        assert!((Pipe::profile_ratio_at(1000.0, 0.0) - 2.0).abs() < 1e-12);
        assert!((Pipe::profile_ratio_at(1e5, 0.0) - 1.224).abs() < 1e-9);
        // Velocity falls toward the wall, monotonically.
        let mut prev = f64::INFINITY;
        for i in 0..10 {
            let r = i as f64 / 10.0;
            let v = Pipe::profile_ratio_at(1e5, r);
            assert!(v < prev, "profile not monotone at r={r}");
            prev = v;
        }
        // The turbulent profile is flatter than the laminar one at mid-radius.
        let lam = Pipe::profile_ratio_at(1000.0, 0.5) / Pipe::profile_ratio_at(1000.0, 0.0);
        let turb = Pipe::profile_ratio_at(1e5, 0.5) / Pipe::profile_ratio_at(1e5, 0.0);
        assert!(turb > lam, "turbulent {turb} vs laminar {lam}");
    }

    #[test]
    fn off_center_velocity_below_centerline() {
        let pipe = Pipe::dn50();
        let water = Water::potable();
        let center =
            pipe.local_mean_velocity_at(&water, Celsius::new(15.0), MetersPerSecond::new(1.0), 0.0);
        let off =
            pipe.local_mean_velocity_at(&water, Celsius::new(15.0), MetersPerSecond::new(1.0), 0.5);
        assert!(off < center);
        assert!(off.get() > 0.8, "still most of bulk at mid-radius: {off}");
    }

    #[test]
    fn negative_bulk_keeps_sign() {
        let pipe = Pipe::dn50();
        let local = pipe.local_mean_velocity_at(
            &Water::potable(),
            Celsius::new(15.0),
            MetersPerSecond::new(-1.0),
            0.0,
        );
        assert!(local.get() < 0.0);
    }
}
