//! Piecewise schedules for flow, pressure and temperature.

use hotwire_units::Seconds;

/// One piecewise-linear segment: holds `start` and ramps linearly to `end`
/// over `duration`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Segment {
    /// Value at the start of the segment.
    pub start: f64,
    /// Value at the end of the segment.
    pub end: f64,
    /// Segment duration in seconds.
    pub duration: f64,
}

/// A piecewise-linear schedule of a scalar quantity over time.
///
/// ```
/// use hotwire_rig::Schedule;
///
/// let s = Schedule::constant(1.0)
///     .then_ramp(2.0, 5.0)   // ramp 1→2 over 5 s
///     .then_hold(2.0, 10.0); // hold 2 for 10 s
/// assert_eq!(s.value_at(0.0), 1.0);
/// assert!((s.value_at(2.5) - 1.5).abs() < 1e-12);
/// assert_eq!(s.value_at(100.0), 2.0); // clamps to the last value
/// ```
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Schedule {
    segments: Vec<Segment>,
}

impl Schedule {
    /// A schedule that holds `value` forever.
    pub fn constant(value: f64) -> Self {
        Schedule {
            segments: vec![Segment {
                start: value,
                end: value,
                duration: f64::INFINITY,
            }],
        }
    }

    /// An empty schedule to be built with the `then_*` methods (reads 0.0
    /// until the first segment is added).
    pub fn new() -> Self {
        Schedule::default()
    }

    fn last_value(&self) -> f64 {
        self.segments.last().map(|s| s.end).unwrap_or(0.0)
    }

    fn push(&mut self, segment: Segment) {
        // Make earlier `constant` segments finite so later ones are
        // reachable.
        if let Some(last) = self.segments.last_mut() {
            if last.duration.is_infinite() {
                last.duration = 0.0;
            }
        }
        self.segments.push(segment);
    }

    /// Appends a hold at `value` for `duration` seconds.
    #[must_use]
    pub fn then_hold(mut self, value: f64, duration: f64) -> Self {
        self.push(Segment {
            start: value,
            end: value,
            duration,
        });
        self
    }

    /// Appends a linear ramp from the current end value to `target`.
    #[must_use]
    pub fn then_ramp(mut self, target: f64, duration: f64) -> Self {
        let from = self.last_value();
        self.push(Segment {
            start: from,
            end: target,
            duration,
        });
        self
    }

    /// Appends a step (instant jump) to `value` held for `duration`.
    #[must_use]
    pub fn then_step(self, value: f64, duration: f64) -> Self {
        self.then_hold(value, duration)
    }

    /// A staircase visiting each level for `dwell` seconds (instant
    /// transitions) — the shape of the paper's Fig. 11 evaluation.
    pub fn staircase(levels: &[f64], dwell: f64) -> Self {
        let mut s = Schedule::new();
        for &level in levels {
            s = s.then_hold(level, dwell);
        }
        s
    }

    /// A diurnal water-demand curve over one `day_s`-second "day":
    /// overnight minimum, a morning rise to `peak`, a midday plateau
    /// between the extremes, an evening peak, and the fall back to the
    /// overnight floor. The shape of a municipal demand profile,
    /// piecewise-linear so fleets stay bit-deterministic.
    ///
    /// ```
    /// use hotwire_rig::Schedule;
    ///
    /// let day = Schedule::diurnal(20.0, 220.0, 240.0);
    /// assert_eq!(day.value_at(0.0), 20.0);            // overnight
    /// assert_eq!(day.value_at(0.75 * 240.0), 220.0);  // evening peak
    /// assert_eq!(day.duration().get(), 240.0);
    /// ```
    pub fn diurnal(min: f64, peak: f64, day_s: f64) -> Self {
        let midday = 0.5 * (min + peak);
        // Fractions of the day: night hold, morning rise, morning peak,
        // relax to midday, midday plateau, evening rise, evening peak,
        // night fall, night hold. They sum to 1.
        Schedule::new()
            .then_hold(min, 0.15 * day_s)
            .then_ramp(peak, 0.10 * day_s)
            .then_hold(peak, 0.05 * day_s)
            .then_ramp(midday, 0.10 * day_s)
            .then_hold(midday, 0.20 * day_s)
            .then_ramp(peak, 0.10 * day_s)
            .then_hold(peak, 0.10 * day_s)
            .then_ramp(min, 0.10 * day_s)
            .then_hold(min, 0.10 * day_s)
    }

    /// The same schedule with every value multiplied by `factor` (segment
    /// timing untouched). This is how the fleet layer jitters a scenario
    /// template per line without reaching into the segment list.
    ///
    /// ```
    /// use hotwire_rig::Schedule;
    ///
    /// let s = Schedule::staircase(&[100.0, 200.0], 5.0).scaled(1.1);
    /// assert!((s.value_at(1.0) - 110.0).abs() < 1e-12);
    /// assert!((s.value_at(6.0) - 220.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Schedule {
            segments: self
                .segments
                .iter()
                .map(|s| Segment {
                    start: s.start * factor,
                    end: s.end * factor,
                    duration: s.duration,
                })
                .collect(),
        }
    }

    /// Whether every segment's values are finite and every duration finite
    /// or `+∞` (the one segment of [`Schedule::constant`]).
    pub fn is_finite(&self) -> bool {
        self.segments.iter().all(|s| {
            s.start.is_finite()
                && s.end.is_finite()
                && (s.duration.is_finite() || s.duration == f64::INFINITY)
        })
    }

    /// Total scheduled duration (infinite for `constant`).
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.segments.iter().map(|s| s.duration).sum())
    }

    /// The schedule value at time `t` (seconds); clamps to the final value
    /// beyond the end.
    pub fn value_at(&self, t: f64) -> f64 {
        let mut remaining = t.max(0.0);
        for seg in &self.segments {
            if remaining < seg.duration {
                if seg.duration.is_infinite() || seg.duration == 0.0 {
                    return seg.start;
                }
                let x = remaining / seg.duration;
                return seg.start + (seg.end - seg.start) * x;
            }
            remaining -= seg.duration;
        }
        self.last_value()
    }
}

/// A complete line scenario: bulk flow (cm/s), absolute pressure (bar) and
/// fluid temperature (°C) schedules.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Bulk flow speed in cm/s (signed; negative = reverse).
    pub flow_cm_s: Schedule,
    /// Line pressure in bar.
    pub pressure_bar: Schedule,
    /// Fluid temperature in °C.
    pub temperature_c: Schedule,
    /// Scenario length in seconds.
    pub duration_s: f64,
}

impl Scenario {
    /// A steady operating point.
    pub fn steady(flow_cm_s: f64, duration_s: f64) -> Self {
        Scenario {
            flow_cm_s: Schedule::constant(flow_cm_s),
            pressure_bar: Schedule::constant(1.0),
            temperature_c: Schedule::constant(15.0),
            duration_s,
        }
    }

    /// The Fig. 11 evaluation: a staircase up through the station's range
    /// and back down, at 1 bar and 15 °C.
    pub fn fig11_staircase(dwell_s: f64) -> Self {
        let up = [0.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0];
        let down = [200.0, 150.0, 100.0, 50.0, 25.0, 0.0];
        let levels: Vec<f64> = up.iter().chain(down.iter()).copied().collect();
        let flow = Schedule::staircase(&levels, dwell_s);
        let duration = flow.duration().get();
        Scenario {
            flow_cm_s: flow,
            pressure_bar: Schedule::constant(1.0),
            temperature_c: Schedule::constant(15.0),
            duration_s: duration,
        }
    }

    /// The §5 pressure robustness test: 0→3 bar sweep with 7 bar peaks at
    /// constant flow.
    pub fn pressure_torture(flow_cm_s: f64) -> Self {
        let pressure = Schedule::new()
            .then_hold(1.0, 10.0)
            .then_ramp(3.0, 20.0)
            .then_hold(3.0, 10.0)
            .then_step(7.0, 2.0) // peak
            .then_step(3.0, 10.0)
            .then_step(7.0, 2.0) // second peak
            .then_ramp(0.5, 10.0)
            .then_hold(0.5, 6.0);
        let duration = pressure.duration().get();
        Scenario {
            flow_cm_s: Schedule::constant(flow_cm_s),
            pressure_bar: pressure,
            temperature_c: Schedule::constant(15.0),
            duration_s: duration,
        }
    }

    /// A fluid-temperature ramp at constant flow (experiment E12).
    ///
    /// Runs at 2 bar so the outgassing onset (≈48 °C at 2 bar) stays above
    /// the wire temperature even at the warm end — isolating the *thermal
    /// compensation* question from the bubble failure mode (which E5 covers).
    pub fn temperature_ramp(flow_cm_s: f64, from_c: f64, to_c: f64, duration_s: f64) -> Self {
        Scenario {
            flow_cm_s: Schedule::constant(flow_cm_s),
            pressure_bar: Schedule::constant(2.0),
            temperature_c: Schedule::new()
                .then_hold(from_c, duration_s * 0.2)
                .then_ramp(to_c, duration_s * 0.6)
                .then_hold(to_c, duration_s * 0.2),
            duration_s,
        }
    }

    /// One diurnal demand "day" ([`Schedule::diurnal`]) at 1 bar and
    /// 15 °C: overnight minimum `min_cm_s`, morning and evening peaks at
    /// `peak_cm_s`, compressed into `day_s` seconds of simulated time.
    pub fn diurnal_demand(min_cm_s: f64, peak_cm_s: f64, day_s: f64) -> Self {
        Scenario {
            flow_cm_s: Schedule::diurnal(min_cm_s, peak_cm_s, day_s),
            pressure_bar: Schedule::constant(1.0),
            temperature_c: Schedule::constant(15.0),
            duration_s: day_s,
        }
    }

    /// The same scenario with the flow schedule scaled by `factor`
    /// (pressure, temperature and duration untouched). See
    /// [`Schedule::scaled`].
    #[must_use]
    pub fn with_flow_scaled(&self, factor: f64) -> Self {
        Scenario {
            flow_cm_s: self.flow_cm_s.scaled(factor),
            ..self.clone()
        }
    }

    /// A bidirectional flow exercise (experiment E4).
    pub fn direction_sweep(magnitude_cm_s: f64, dwell_s: f64) -> Self {
        let flow = Schedule::staircase(
            &[
                magnitude_cm_s,
                0.0,
                -magnitude_cm_s,
                0.0,
                magnitude_cm_s,
                -magnitude_cm_s,
            ],
            dwell_s,
        );
        let duration = flow.duration().get();
        Scenario {
            flow_cm_s: flow,
            pressure_bar: Schedule::constant(1.0),
            temperature_c: Schedule::constant(15.0),
            duration_s: duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_holds_forever() {
        let s = Schedule::constant(3.0);
        assert_eq!(s.value_at(0.0), 3.0);
        assert_eq!(s.value_at(1e9), 3.0);
    }

    #[test]
    fn ramp_interpolates() {
        let s = Schedule::new().then_hold(1.0, 10.0).then_ramp(3.0, 10.0);
        assert_eq!(s.value_at(5.0), 1.0);
        assert!((s.value_at(15.0) - 2.0).abs() < 1e-12);
        assert_eq!(s.value_at(25.0), 3.0);
    }

    #[test]
    fn staircase_levels() {
        let s = Schedule::staircase(&[0.0, 10.0, 20.0], 5.0);
        assert_eq!(s.value_at(2.0), 0.0);
        assert_eq!(s.value_at(7.0), 10.0);
        assert_eq!(s.value_at(12.0), 20.0);
        assert_eq!(s.duration().get(), 15.0);
    }

    #[test]
    fn negative_time_clamps_to_start() {
        let s = Schedule::staircase(&[5.0, 10.0], 1.0);
        assert_eq!(s.value_at(-3.0), 5.0);
    }

    #[test]
    fn constant_then_hold_becomes_reachable() {
        let s = Schedule::constant(1.0).then_hold(2.0, 5.0);
        // The infinite constant segment is truncated by the builder.
        assert_eq!(s.value_at(0.0), 2.0);
    }

    #[test]
    fn fig11_covers_full_scale() {
        let sc = Scenario::fig11_staircase(10.0);
        let mut max = 0.0f64;
        let mut t = 0.0;
        while t < sc.duration_s {
            max = max.max(sc.flow_cm_s.value_at(t));
            t += 1.0;
        }
        assert_eq!(max, 250.0);
        assert_eq!(sc.duration_s, 130.0);
    }

    #[test]
    fn pressure_torture_peaks_at_7_bar() {
        let sc = Scenario::pressure_torture(100.0);
        let mut max = 0.0f64;
        let mut t = 0.0;
        while t < sc.duration_s {
            max = max.max(sc.pressure_bar.value_at(t));
            t += 0.5;
        }
        assert_eq!(max, 7.0);
    }

    #[test]
    fn direction_sweep_goes_negative() {
        let sc = Scenario::direction_sweep(80.0, 5.0);
        let mut min = f64::INFINITY;
        let mut t = 0.0;
        while t < sc.duration_s {
            min = min.min(sc.flow_cm_s.value_at(t));
            t += 0.5;
        }
        assert_eq!(min, -80.0);
    }

    #[test]
    fn temperature_ramp_reaches_target() {
        let sc = Scenario::temperature_ramp(100.0, 15.0, 30.0, 100.0);
        assert_eq!(sc.temperature_c.value_at(5.0), 15.0);
        assert_eq!(sc.temperature_c.value_at(95.0), 30.0);
    }

    #[test]
    fn diurnal_hits_both_peaks_and_the_overnight_floor() {
        let day = Schedule::diurnal(20.0, 220.0, 240.0);
        assert_eq!(day.duration().get(), 240.0);
        assert_eq!(day.value_at(0.05 * 240.0), 20.0); // overnight
        assert_eq!(day.value_at(0.27 * 240.0), 220.0); // morning peak
        assert_eq!(day.value_at(0.50 * 240.0), 120.0); // midday plateau
        assert_eq!(day.value_at(0.75 * 240.0), 220.0); // evening peak
                                                       // back to the floor
        assert_eq!(day.value_at(0.97 * 240.0), 20.0);
        // The whole curve stays inside [min, peak].
        let mut t = 0.0;
        while t < 240.0 {
            let v = day.value_at(t);
            assert!((20.0..=220.0).contains(&v), "v={v} at t={t}");
            t += 0.25;
        }
    }
}
