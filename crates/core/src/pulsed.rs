//! The pulsed-voltage driving scheme.
//!
//! "The first problem [bubble generation] can be overcome adopting a pulsed
//! voltage driving technique instead of continuous sensor biasing in
//! conjunction with reduced overtemperature of the heating element." (§4)
//!
//! The scheduler divides time into periods of `period_ticks` control ticks;
//! for the first `duty` fraction the heater is driven and the CTA loop runs,
//! for the rest the supply drops to the keep-alive floor and the loop
//! freezes. Measurements are taken only in the *settled* tail of the ON
//! phase (after the thermal + loop transient of the pulse edge has died).

use crate::config::PulsedConfig;

/// The phase of the pulse schedule at one control tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PulsePhase {
    /// Heater driven; `settled` marks the tail of the ON window where the
    /// loop output is trustworthy.
    On {
        /// Whether the pulse transient has settled enough to measure.
        settled: bool,
    },
    /// Heater at the keep-alive floor; loop frozen, output held.
    Off,
}

/// Tick-driven pulse scheduler.
#[derive(Debug, Clone)]
pub struct PulsedScheduler {
    config: PulsedConfig,
    tick: u32,
    on_ticks: u32,
    /// First ON tick considered settled.
    settle_ticks: u32,
}

impl PulsedScheduler {
    /// Creates a scheduler; the first 60 % of each ON window is treated as
    /// transient, the rest as settled measurement time.
    pub fn new(config: PulsedConfig) -> Self {
        let on_ticks = config.on_ticks();
        let settle_ticks = ((on_ticks as f64) * 0.6).ceil() as u32;
        PulsedScheduler {
            config,
            tick: 0,
            on_ticks,
            settle_ticks,
        }
    }

    /// Advances one control tick and returns the phase for that tick.
    pub fn advance(&mut self) -> PulsePhase {
        let phase = if self.tick < self.on_ticks {
            PulsePhase::On {
                settled: self.tick >= self.settle_ticks,
            }
        } else {
            PulsePhase::Off
        };
        self.tick = (self.tick + 1) % self.config.period_ticks;
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(period: u32, duty: f64) -> PulsedScheduler {
        PulsedScheduler::new(PulsedConfig {
            period_ticks: period,
            duty,
        })
    }

    #[test]
    fn phase_sequence() {
        let mut s = sched(10, 0.4); // 4 ON, 6 OFF
        let phases: Vec<PulsePhase> = (0..10).map(|_| s.advance()).collect();
        assert!(matches!(phases[0], PulsePhase::On { settled: false }));
        assert!(matches!(phases[2], PulsePhase::On { .. }));
        assert!(matches!(phases[3], PulsePhase::On { settled: true }));
        assert!(matches!(phases[4], PulsePhase::Off));
        assert!(matches!(phases[9], PulsePhase::Off));
    }

    #[test]
    fn schedule_repeats() {
        let mut s = sched(10, 0.4);
        let first: Vec<PulsePhase> = (0..10).map(|_| s.advance()).collect();
        let second: Vec<PulsePhase> = (0..10).map(|_| s.advance()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn duty_accounting() {
        let s = sched(100, 0.25);
        assert_eq!(s.on_ticks, 25);
        // Settled measurement time exists.
        let mut s = sched(100, 0.25);
        let settled = (0..100)
            .filter(|_| matches!(s.advance(), PulsePhase::On { settled: true }))
            .count();
        assert!(settled >= 5, "settled ticks {settled}");
    }

    #[test]
    fn full_duty_never_off() {
        let mut s = sched(10, 1.0);
        for _ in 0..30 {
            assert!(matches!(s.advance(), PulsePhase::On { .. }));
        }
    }

    #[test]
    fn tiny_duty_still_gets_one_on_tick() {
        let mut s = sched(100, 0.001);
        let on = (0..100)
            .filter(|_| matches!(s.advance(), PulsePhase::On { .. }))
            .count();
        assert_eq!(on, 1);
    }
}
