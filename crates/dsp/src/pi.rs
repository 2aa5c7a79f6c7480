//! The PI controller closing the constant-temperature loop.
//!
//! The paper: "Closed loop is implemented by software-emulated IPs which
//! feature reference subtraction, PI controller and feedback actuation
//! directly to supply the two bridges." This is that software IP, written the
//! way it runs on an integer core: Q16.16 gains, 64-bit integrator,
//! conditional anti-windup, output clamped to the DAC range.

use crate::error::DspError;
use crate::fix::{saturate_i32, Q16};

/// A discrete-time PI controller with clamped output and anti-windup.
///
/// `u[k] = clamp(Kp·e[k] + Σ Ki·e[j])`, with the integrator frozen whenever
/// the output is pinned at a rail and the error would push it further out
/// (conditional integration).
///
/// ```
/// use hotwire_dsp::pi::PiController;
/// use hotwire_dsp::fix::Q16;
///
/// let mut pi = PiController::new(Q16::from_f64(0.5), Q16::from_f64(0.01), 0, 4095)?;
/// // A persistent positive error drives the output up…
/// let mut u = 0;
/// for _ in 0..100 { u = pi.update(100); }
/// assert!(u > 100);
/// // …but never past the rail.
/// for _ in 0..100_000 { u = pi.update(100_000); }
/// assert_eq!(u, 4095);
/// # Ok::<(), hotwire_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PiController {
    kp: Q16,
    ki: Q16,
    out_min: i32,
    out_max: i32,
    /// Integrator in Q16.16-extended precision.
    integrator: i64,
}

impl PiController {
    /// Creates a controller with proportional gain `kp`, per-sample integral
    /// gain `ki`, and output clamps `[out_min, out_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] if `out_min >= out_max` or either
    /// gain is negative.
    pub fn new(kp: Q16, ki: Q16, out_min: i32, out_max: i32) -> Result<Self, DspError> {
        if out_min >= out_max {
            return Err(DspError::InvalidConfig {
                name: "out_min/out_max",
                constraint: "out_min must be strictly below out_max",
            });
        }
        if kp.raw() < 0 || ki.raw() < 0 {
            return Err(DspError::InvalidConfig {
                name: "kp/ki",
                constraint: "gains must be non-negative",
            });
        }
        Ok(PiController {
            kp,
            ki,
            out_min,
            out_max,
            integrator: 0,
        })
    }

    /// Runs one control step on error `e` (setpoint − measurement) and
    /// returns the clamped actuator command.
    pub fn update(&mut self, e: i32) -> i32 {
        let p = self.kp.raw() as i64 * e as i64; // Q16.16
        let i_step = self.ki.raw() as i64 * e as i64;
        let unclamped = (p + self.integrator + i_step) >> 16;
        let clamped = saturate_i32(unclamped).clamp(self.out_min, self.out_max);
        // Conditional integration: accept the integrator step only if it does
        // not push the output further past an already-hit rail.
        let pushing_out = (unclamped > self.out_max as i64 && e > 0)
            || (unclamped < self.out_min as i64 && e < 0);
        if !pushing_out {
            self.integrator += i_step;
        }
        clamped
    }

    /// Presets the integrator so the next zero-error output equals `u`
    /// (bumpless start at a known operating point).
    pub fn preset_output(&mut self, u: i32) {
        self.integrator = (u.clamp(self.out_min, self.out_max) as i64) << 16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi(kp: f64, ki: f64) -> PiController {
        PiController::new(Q16::from_f64(kp), Q16::from_f64(ki), -10_000, 10_000).unwrap()
    }

    #[test]
    fn proportional_action() {
        let mut c = pi(2.0, 0.0);
        assert_eq!(c.update(100), 200);
        assert_eq!(c.update(-50), -100);
        assert_eq!(c.update(0), 0);
    }

    #[test]
    fn integral_accumulates() {
        let mut c = pi(0.0, 0.1);
        let mut last = 0;
        for _ in 0..10 {
            last = c.update(100);
        }
        // 10 samples × 0.1 × 100 = 100.
        assert!((last - 100).abs() <= 1, "integ {last}");
    }

    #[test]
    fn zero_error_holds_output() {
        let mut c = pi(1.0, 0.05);
        for _ in 0..50 {
            c.update(200);
        }
        let held = c.update(0);
        for _ in 0..100 {
            assert_eq!(c.update(0), held);
        }
    }

    #[test]
    fn output_clamps_and_recovers() {
        let mut c = pi(1.0, 0.5);
        for _ in 0..10_000 {
            assert!(c.update(1_000_000) <= 10_000);
        }
        assert_eq!(c.update(1_000_000), 10_000);
        // Anti-windup: after the error flips, the output must leave the rail
        // promptly rather than unwinding a huge integrator.
        let mut steps = 0;
        while c.update(-1000) >= 10_000 && steps < 100 {
            steps += 1;
        }
        assert!(
            steps < 20,
            "took {steps} steps to leave the rail — wound up"
        );
    }

    #[test]
    fn closed_loop_settles_on_first_order_plant() {
        // Plant: y += 0.1·(u − y); controller drives y to the setpoint.
        let mut c = pi(0.8, 0.2);
        let mut y = 0.0f64;
        let setpoint = 3000.0;
        for _ in 0..500 {
            let u = c.update((setpoint - y) as i32) as f64;
            y += 0.1 * (u - y);
        }
        assert!(
            (y - setpoint).abs() < 10.0,
            "loop settled at {y} instead of {setpoint}"
        );
    }

    #[test]
    fn preset_output_is_bumpless() {
        let mut c = pi(1.0, 0.1);
        c.preset_output(5000);
        assert_eq!(c.update(0), 5000);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(PiController::new(Q16::from_f64(1.0), Q16::from_f64(1.0), 10, 10).is_err());
        assert!(PiController::new(Q16::from_f64(-1.0), Q16::from_f64(1.0), 0, 10).is_err());
        assert!(PiController::new(Q16::from_f64(1.0), Q16::from_f64(-1.0), 0, 10).is_err());
    }
}
