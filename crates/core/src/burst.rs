//! Burst-mode (deep-sleep) operation — the §7 battery-powered probe's
//! firmware.
//!
//! The ASIC's one-year autonomy comes from waking every couple of minutes,
//! measuring for ~2 s, and deep-sleeping in between. A 0.1 Hz output filter
//! cannot settle in 2 s, so burst firmware conditions differently: it lets
//! the CTA loop settle (tens of milliseconds — the thermal loop is fast),
//! then *boxcar-averages* the instantaneous King decode over the remainder
//! of the burst. This module implements that schedule.

use crate::flow_meter::FlowMeter;
use crate::CoreError;
use hotwire_physics::SensorEnvironment;
use hotwire_units::{MetersPerSecond, Seconds};

/// Burst schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BurstConfig {
    /// Loop settle time at the start of the burst (discarded).
    pub settle: Seconds,
    /// Averaging window after settling.
    pub measure: Seconds,
}

impl BurstConfig {
    /// The §7 profile: 0.3 s settle + 0.7 s averaging (a 1 s burst). The
    /// CTA loop settles in tens of milliseconds, so a 1 s burst is
    /// generous; keeping it short matters because the two driven bridges
    /// burn ~150 mW while awake.
    pub fn asic_default() -> Self {
        BurstConfig {
            settle: Seconds::new(0.3),
            measure: Seconds::new(0.7),
        }
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for non-positive or NaN durations.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.settle.get() > 0.0 && self.measure.get() > 0.0) {
            return Err(CoreError::Config {
                reason: "burst settle and measure durations must be positive",
            });
        }
        Ok(())
    }
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig::asic_default()
    }
}

/// One burst's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstReading {
    /// Boxcar-averaged speed over the measurement window.
    pub speed: MetersPerSecond,
}

/// Burst-mode wrapper around a [`FlowMeter`].
#[derive(Debug)]
pub struct BurstController {
    meter: FlowMeter,
    config: BurstConfig,
}

impl BurstController {
    /// Wraps a (calibrated) meter in the burst schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an invalid schedule.
    pub fn new(meter: FlowMeter, config: BurstConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(BurstController { meter, config })
    }

    /// The wrapped meter.
    #[inline]
    pub fn meter(&self) -> &FlowMeter {
        &self.meter
    }

    /// Executes one wake→settle→measure→sleep burst at the given
    /// environment and returns the reading. Each window runs the whole
    /// control frames it holds; panics as [`FlowMeter::run`] does.
    pub fn measure_once(&mut self, env: SensorEnvironment) -> BurstReading {
        self.meter.drive(self.config.settle.get(), env, |_| {});
        let mut sum = 0.0;
        let n = self.meter.drive(self.config.measure.get(), env, |meter| {
            sum += meter.instantaneous_speed().get();
        });
        BurstReading {
            speed: MetersPerSecond::new(sum / n.max(1) as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowMeterConfig;
    use crate::meter::Meter;
    use hotwire_physics::MafParams;

    fn controller() -> BurstController {
        let meter = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 11)
            .expect("meter builds");
        BurstController::new(meter, BurstConfig::asic_default()).expect("valid schedule")
    }

    fn env(v_cm_s: f64) -> SensorEnvironment {
        SensorEnvironment {
            velocity: hotwire_units::MetersPerSecond::from_cm_per_s(v_cm_s),
            ..SensorEnvironment::still_water()
        }
    }

    #[test]
    fn burst_reading_lands_near_truth() {
        let mut c = controller();
        let reading = c.measure_once(env(100.0));
        let cm = reading.speed.to_cm_per_s();
        assert!(
            (cm - 100.0).abs() < 20.0,
            "2 s burst read {cm:.1} cm/s at 100 true"
        );
    }

    #[test]
    fn burst_windows_step_whole_frames() {
        let mut c = controller();
        c.measure_once(env(100.0));
        // 0.3 s + 0.7 s at 2 ms: 150 + 350 frames (0.7 / 0.002 is
        // 349.99999999999994 in f64).
        assert_eq!(c.meter().frame_phase(), 0);
        assert_eq!(c.meter().control_ticks(), 500);
    }

    #[test]
    fn consecutive_bursts_are_consistent() {
        let mut c = controller();
        let a = c.measure_once(env(150.0)).speed.to_cm_per_s();
        let b = c.measure_once(env(150.0)).speed.to_cm_per_s();
        assert!((a - b).abs() < 10.0, "bursts disagree: {a:.1} vs {b:.1}");
    }

    #[test]
    fn rejects_bad_schedule() {
        let meter = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 1)
            .expect("meter builds");
        let bad = BurstConfig {
            settle: Seconds::ZERO,
            ..BurstConfig::asic_default()
        };
        assert!(BurstController::new(meter, bad).is_err());
    }
}
