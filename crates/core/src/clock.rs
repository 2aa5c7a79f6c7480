//! The control-tick clock: time is a count of control ticks.
//!
//! The paper's ISIF firmware does all its work on a count of decimated ΣΔ
//! frames, and the simulation keeps time the same way. Every span the
//! firmware is given in seconds and every second-valued run input of the
//! rig turn into whole ticks once, through one [`TickClock`]; from then on
//! the meter steps whole frames, the rig counts ticks, and the time a
//! sample reports is `tick × period`.
//!
//! The rules, for a control period `dt`:
//!
//! * a run of `D` seconds steps every frame that *starts* inside the
//!   closed interval `[0, D]`: `⌊D/dt⌋ + 1` frames
//!   ([`frames`](TickClock::frames));
//! * a span of `D` seconds holds `⌊D/dt⌋` whole frames
//!   ([`whole_frames`](TickClock::whole_frames));
//! * an instant moves to the first frame that starts at or after it:
//!   tick `⌈t/dt⌉` ([`tick_at`](TickClock::tick_at));
//! * a period rounds to whole ticks, at least one
//!   ([`ticks_in`](TickClock::ticks_in)).
//!
//! A quotient within a millionth of a tick of a whole number counts as that
//! number, so decimal inputs that binary floating point cannot hold exactly
//! (0.7 s at 2 ms is 349.99999999999994 ticks) land on the tick they name.

use hotwire_units::Seconds;

/// How close to a whole number of ticks, in ticks, a quotient must lie to
/// count as that number.
const SNAP_TICKS: f64 = 1e-6;

/// Converts seconds into control ticks of one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickClock {
    dt: f64,
}

impl TickClock {
    /// A clock ticking once per `control_period`.
    pub fn new(control_period: Seconds) -> Self {
        TickClock {
            dt: control_period.get(),
        }
    }

    /// `seconds` in ticks — the one conversion every rounding rule starts
    /// from (see the [module docs](self)).
    pub fn ticks(&self, seconds: f64) -> f64 {
        let q = seconds / self.dt;
        let whole = q.round();
        if (q - whole).abs() <= SNAP_TICKS {
            whole
        } else {
            q
        }
    }

    /// The frames a run of `duration_s` steps — every frame that starts
    /// inside `[0, duration_s]`, none for a negative duration — or `None`
    /// when the duration is NaN or its frame count does not fit in a
    /// `u64` (+∞ included).
    pub fn frames(&self, duration_s: f64) -> Option<u64> {
        let last = self.ticks(duration_s).floor();
        if last < 0.0 {
            Some(0)
        } else if last < u64::MAX as f64 {
            // 2^64 is exact in f64, so `last` lies below it here.
            Some(last as u64 + 1)
        } else {
            None
        }
    }

    /// The whole frames a span of `span_s` holds, `⌊span_s/dt⌋`, or `None`
    /// when the span is negative or NaN or holds 2⁶⁴ frames or more.
    pub fn whole_frames(&self, span_s: f64) -> Option<u64> {
        let whole = self.ticks(span_s).floor();
        (span_s >= 0.0 && whole < u64::MAX as f64).then_some(whole as u64)
    }

    /// The first tick that starts at or after `t_s` (tick 0 for any
    /// instant at or before the run's start; saturating at `u64::MAX` for
    /// instants no run reaches).
    pub fn tick_at(&self, t_s: f64) -> u64 {
        // Float-to-int `as` saturates and maps NaN to 0.
        self.ticks(t_s).ceil() as u64
    }

    /// `seconds` rounded to whole ticks, at least one (sample periods,
    /// maintenance intervals and the heat-pulse cycle's windows).
    pub fn ticks_in(&self, seconds: f64) -> u64 {
        (self.ticks(seconds).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(dt: f64) -> TickClock {
        TickClock::new(Seconds::from_millis(dt))
    }

    #[test]
    fn frames_cover_the_closed_run() {
        let clock = ms(2.0);
        assert_eq!(clock.frames(0.0), Some(1));
        assert_eq!(clock.frames(0.001), Some(1));
        assert_eq!(clock.frames(0.002), Some(2));
        assert_eq!(clock.frames(2.0), Some(1001));
        // 0.7 / 0.002 is 349.99999999999994 in f64.
        assert_eq!(clock.frames(0.7), Some(351));
        assert_eq!(ms(1.0).frames(40.0), Some(40_001));
        assert_eq!(clock.frames(-0.001), Some(0));
        assert_eq!(clock.frames(f64::NEG_INFINITY), Some(0));
        for bad in [f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(clock.frames(bad), None, "{bad}");
        }
    }

    #[test]
    fn spans_hold_their_whole_frames() {
        let clock = ms(2.0);
        assert_eq!(clock.whole_frames(0.0), Some(0));
        assert_eq!(clock.whole_frames(0.001), Some(0));
        assert_eq!(clock.whole_frames(0.002), Some(1));
        assert_eq!(clock.whole_frames(2.0), Some(1000));
        assert_eq!(ms(1.0).whole_frames(40.0), Some(40_000));
        // 0.7 / 0.002 is 349.99999999999994 in f64: the span it names.
        assert_eq!(clock.whole_frames(0.7), Some(350));
        // Half a frame short of 938: the floor, not the nearest.
        assert_eq!(clock.whole_frames(1.875), Some(937));
        for bad in [-0.001, -1e-300, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(clock.whole_frames(bad), None, "{bad}");
        }
        for huge in [f64::INFINITY, 1e300, 0.002 * 2f64.powi(64)] {
            assert_eq!(clock.whole_frames(huge), None, "{huge}");
        }
        // The largest span below 2^64 frames still counts.
        let below = 0.002 * 2f64.powi(63);
        assert_eq!(clock.whole_frames(below), Some(1 << 63));
    }

    #[test]
    fn instants_move_to_the_next_frame_start() {
        let clock = ms(2.0);
        assert_eq!(clock.tick_at(0.0), 0);
        assert_eq!(clock.tick_at(-5.0), 0);
        assert_eq!(clock.tick_at(0.0001), 1);
        assert_eq!(clock.tick_at(0.002), 1);
        assert_eq!(clock.tick_at(0.0021), 2);
        assert_eq!(clock.tick_at(0.7), 350);
        assert_eq!(clock.tick_at(1e300), u64::MAX);
        assert_eq!(clock.tick_at(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn periods_round_to_at_least_one_tick() {
        let clock = ms(2.0);
        assert_eq!(clock.ticks_in(0.01), 5);
        assert_eq!(clock.ticks_in(0.005), 3);
        assert_eq!(clock.ticks_in(0.0049), 2);
        assert_eq!(clock.ticks_in(1e-5), 1);
        assert_eq!(clock.ticks_in(0.0), 1);
        assert_eq!(clock.ticks_in(f64::NAN), 1);
        assert_eq!(clock.ticks_in(1e300), u64::MAX);
    }
}
