//! The battery power budget of the §7 probe.
//!
//! "The dedicated asic, currently in fab, features advanced low power
//! techniques with deep sleep mode for a considerable power saving allowing
//! the whole system to be supplied by rechargeable batteries (4 alkaline AA)
//! that guarantees autonomy of one year for a typical sensor usage."
//!
//! Experiment E11 reproduces that claim with this duty-cycled energy model.

use crate::CoreError;
use hotwire_units::{Seconds, Watts};

/// Energy capacity of four alkaline AA cells in watt-hours
/// (4 × 1.5 V × 2.5 Ah).
pub const FOUR_AA_WH: f64 = 15.0;

/// One operating state of the probe's duty cycle.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PowerState {
    /// Human-readable state name.
    pub name: &'static str,
    /// Total draw in this state (heater + analog + digital).
    pub draw: Watts,
    /// Time spent in this state per cycle.
    pub duration: Seconds,
}

/// A repeating duty cycle of power states.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DutyCycle {
    states: Vec<PowerState>,
}

impl DutyCycle {
    /// Builds a duty cycle from its states.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if no states are given or any duration
    /// is non-positive.
    pub fn new(states: Vec<PowerState>) -> Result<Self, CoreError> {
        if states.is_empty() {
            return Err(CoreError::Config {
                reason: "duty cycle needs at least one state",
            });
        }
        if states.iter().any(|s| s.duration.get() <= 0.0) {
            return Err(CoreError::Config {
                reason: "power-state durations must be positive",
            });
        }
        Ok(DutyCycle { states })
    }

    /// "Typical sensor usage" per §7: a 1 s measurement burst every three
    /// minutes — ample for network-level leak monitoring — deep sleep
    /// (~25 µW) otherwise, plus a daily 5 s telemetry window at 40 mW. The
    /// burst draw (~160 mW) is what the two driven Wheatstone bridges plus
    /// awake electronics actually cost (see `hotwire_core::burst`).
    pub fn typical_usage() -> Self {
        DutyCycle::new(vec![
            PowerState {
                name: "measure",
                draw: Watts::new(0.160),
                duration: Seconds::new(1.0),
            },
            PowerState {
                name: "sleep",
                draw: Watts::new(25e-6),
                duration: Seconds::new(179.0),
            },
            PowerState {
                name: "telemetry",
                draw: Watts::new(0.040),
                // 5 s/day amortized into the 180 s cycle.
                duration: Seconds::new(5.0 * 180.0 / 86_400.0),
            },
        ])
        .expect("static duty cycle is valid")
    }

    /// Continuous operation (no deep sleep) — the pre-ASIC prototype.
    pub fn continuous(draw: Watts) -> Self {
        DutyCycle::new(vec![PowerState {
            name: "measure",
            draw,
            duration: Seconds::new(1.0),
        }])
        .expect("single state is valid")
    }

    /// Cycle period.
    pub fn period(&self) -> Seconds {
        self.states.iter().map(|s| s.duration).sum()
    }

    /// Time-averaged power draw.
    pub fn average_power(&self) -> Watts {
        let energy: f64 = self
            .states
            .iter()
            .map(|s| s.draw.get() * s.duration.get())
            .sum();
        Watts::new(energy / self.period().get())
    }

    /// Autonomy in hours on a battery of `capacity_wh` watt-hours, with a
    /// 15 % derating for alkaline self-discharge and low-temperature loss.
    pub fn autonomy_hours(&self, capacity_wh: f64) -> f64 {
        capacity_wh * 0.85 / self.average_power().get()
    }

    /// Autonomy in days on four AA cells.
    pub fn autonomy_days_on_4aa(&self) -> f64 {
        self.autonomy_hours(FOUR_AA_WH) / 24.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_usage_reaches_a_year() {
        let cycle = DutyCycle::typical_usage();
        let days = cycle.autonomy_days_on_4aa();
        assert!(
            days > 365.0,
            "autonomy {days:.0} days — paper claims one year"
        );
        assert!(
            days < 5.0 * 365.0,
            "autonomy {days:.0} days implausibly long"
        );
    }

    #[test]
    fn continuous_operation_dies_in_days() {
        let cycle = DutyCycle::continuous(Watts::new(0.160));
        let days = cycle.autonomy_days_on_4aa();
        assert!(days < 5.0, "continuous autonomy {days:.1} days");
    }

    #[test]
    fn average_power_weighted_by_duration() {
        let cycle = DutyCycle::new(vec![
            PowerState {
                name: "a",
                draw: Watts::new(1.0),
                duration: Seconds::new(1.0),
            },
            PowerState {
                name: "b",
                draw: Watts::new(0.0),
                duration: Seconds::new(3.0),
            },
        ])
        .unwrap();
        assert!((cycle.average_power().get() - 0.25).abs() < 1e-12);
        assert!((cycle.period().get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_interval_trades_autonomy() {
        // Halving the measurement rate roughly doubles sleep-dominated
        // autonomy… until sleep power floors it.
        let fast = DutyCycle::new(vec![
            PowerState {
                name: "measure",
                draw: Watts::new(0.160),
                duration: Seconds::new(1.0),
            },
            PowerState {
                name: "sleep",
                draw: Watts::new(25e-6),
                duration: Seconds::new(29.0),
            },
        ])
        .unwrap();
        let slow = DutyCycle::new(vec![
            PowerState {
                name: "measure",
                draw: Watts::new(0.160),
                duration: Seconds::new(1.0),
            },
            PowerState {
                name: "sleep",
                draw: Watts::new(25e-6),
                duration: Seconds::new(119.0),
            },
        ])
        .unwrap();
        let ratio = slow.autonomy_days_on_4aa() / fast.autonomy_days_on_4aa();
        assert!((3.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejects_bad_cycles() {
        assert!(DutyCycle::new(vec![]).is_err());
        assert!(DutyCycle::new(vec![PowerState {
            name: "zero",
            draw: Watts::new(1.0),
            duration: Seconds::ZERO,
        }])
        .is_err());
    }
}
