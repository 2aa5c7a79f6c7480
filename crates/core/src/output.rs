//! The output conditioning pipeline.
//!
//! "This output signal requires further filtering (with an IIR filter down
//! to the bandwidth of 0.1 Hz) in order to improve the sensitivity." (§4)
//!
//! The pipeline runs at the control rate on the PI's supply-code output:
//! a 5-tap median (kills the discrete spikes of bubble-detachment events)
//! followed by the paper's very-low-bandwidth IIR smoother.

use crate::CoreError;
use hotwire_dsp::despike::Median5;
use hotwire_dsp::iir::SinglePoleLp;
use hotwire_units::Hertz;

/// Median despike + 0.1 Hz IIR smoothing of the supply code.
#[derive(Debug, Clone)]
pub struct OutputPipeline {
    median: Median5,
    smoother: SinglePoleLp,
    /// Latest smoothed code.
    smoothed: i32,
    /// Latest despiked (median) code — the fast reference the spike monitor
    /// compares raw samples against.
    despiked: i32,
    warmed_up: bool,
}

impl OutputPipeline {
    /// Creates the pipeline for corner `corner` at control rate
    /// `control_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dsp`] for an unrealizable corner.
    pub fn new(corner: Hertz, control_rate: Hertz) -> Result<Self, CoreError> {
        Ok(OutputPipeline {
            median: Median5::new(),
            smoother: SinglePoleLp::design(corner.get(), control_rate.get())?,
            smoothed: 0,
            despiked: 0,
            warmed_up: false,
        })
    }

    /// Pushes one control-rate supply code; returns the conditioned code.
    pub fn push(&mut self, code: i32) -> i32 {
        let despiked = self.median.push(code);
        self.despiked = despiked;
        if !self.warmed_up {
            // Pre-charge the smoother so the 0.1 Hz corner does not impose a
            // multi-second power-on ramp from zero.
            self.smoother.preset(despiked);
            self.warmed_up = true;
        }
        self.smoothed = self.smoother.push(despiked);
        self.smoothed
    }

    /// The latest conditioned code without pushing a new sample.
    #[inline]
    pub fn value(&self) -> i32 {
        self.smoothed
    }

    /// The latest despiked (pre-smoothing) code. Tracks ramps within a
    /// couple of ticks, so `raw − despiked` isolates genuine spikes.
    #[inline]
    pub fn despiked(&self) -> i32 {
        self.despiked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline(corner: f64) -> OutputPipeline {
        OutputPipeline::new(Hertz::new(corner), Hertz::new(1000.0)).unwrap()
    }

    #[test]
    fn precharges_to_first_sample() {
        let mut p = pipeline(0.1);
        assert_eq!(p.push(2000), 2000, "no multi-second power-on ramp");
    }

    #[test]
    fn constant_input_passes() {
        let mut p = pipeline(0.1);
        let mut y = 0;
        for _ in 0..100 {
            y = p.push(1234);
        }
        assert_eq!(y, 1234);
        assert_eq!(p.value(), 1234);
    }

    #[test]
    fn spikes_are_removed() {
        let mut p = pipeline(0.1);
        for _ in 0..10 {
            p.push(2000);
        }
        // A two-tick bubble-detachment spike.
        p.push(3500);
        let y = p.push(3500);
        assert!((y - 2000).abs() <= 1, "spike leaked: {y}");
    }

    #[test]
    fn slow_steps_do_pass() {
        let mut p = pipeline(10.0); // faster corner for the test
        for _ in 0..10 {
            p.push(1000);
        }
        let mut y = 0;
        for _ in 0..2000 {
            y = p.push(2000);
        }
        assert!((y - 2000).abs() <= 1, "step blocked: {y}");
    }

    #[test]
    fn narrow_filter_smooths_noise() {
        let mut narrow = pipeline(0.1);
        let mut wide = pipeline(50.0);
        let mut seed = 1u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 200) as i32 - 100
        };
        let (mut var_narrow, mut var_wide) = (0.0f64, 0.0f64);
        for i in 0..20_000 {
            let x = 2000 + rand();
            let yn = narrow.push(x) - 2000;
            let yw = wide.push(x) - 2000;
            if i > 5000 {
                var_narrow += (yn as f64).powi(2);
                var_wide += (yw as f64).powi(2);
            }
        }
        assert!(
            var_narrow < 0.05 * var_wide,
            "0.1 Hz filter did not improve sensitivity: {var_narrow} vs {var_wide}"
        );
    }
}
