//! Runtime fault detectors: bubbles, fouling drift, loop health.
//!
//! §6 motivates diffuse deployment with self-diagnosis: "allowing also any
//! malfunction behavior … to be immediately localized and isolated". The
//! firmware watches its own conditioned signal for the two liquid-specific
//! failure signatures of §4:
//!
//! * **bubble activity** — detachment events appear as isolated spikes of
//!   the supply code; a spike-rate monitor flags them;
//! * **fouling drift** — scale growth reads as a slow monotonic sensitivity
//!   loss; comparing the zero-flow (or any steady) conductance against its
//!   long-term baseline flags it.

/// Health flags raised by the detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct FaultFlags {
    /// Spike rate above threshold: bubbles are forming/detaching.
    pub bubble_activity: bool,
    /// Long-term conductance fell below the drift threshold: probable scale.
    pub fouling_suspected: bool,
    /// The control loop pinned at a rail for a sustained period.
    pub loop_saturated: bool,
}

impl FaultFlags {
    /// `true` if any flag is raised.
    pub fn any(&self) -> bool {
        self.bubble_activity || self.fouling_suspected || self.loop_saturated
    }
}

/// An injected failure of the CTA acquisition channel, applied to the
/// decimated control code before the firmware sees it (the campaign layer's
/// ADC fault-injection hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdcFault {
    /// The converter output is frozen at a fixed code (stuck comparator /
    /// dead modulator). Frozen codes starve the watchdog: healthy ΣΔ output
    /// always carries noise, so a long identical-code streak is the
    /// firmware's freeze discriminator.
    Stuck(i32),
    /// A constant offset is added to every code (reference drift, leakage).
    Offset(i32),
}

impl AdcFault {
    /// Applies the fault to a converted code.
    pub fn apply(self, code: i32) -> i32 {
        match self {
            AdcFault::Stuck(c) => c,
            AdcFault::Offset(o) => code.saturating_add(o),
        }
    }
}

/// Spike detector: counts control samples deviating from the despiked
/// output by more than a threshold, over a sliding window, and tracks how
/// many *consecutive* windows were spike-active. A single violent flow
/// transition dirties one window; bubble activity keeps firing window after
/// window — that persistence is the discriminator.
#[derive(Debug, Clone)]
pub struct SpikeMonitor {
    threshold: i32,
    window: u32,
    /// Windowed rate above which a window counts as spike-active.
    rate_threshold: f64,
    count_in_window: u32,
    tick: u32,
    last_rate: f64,
    active_streak: u32,
}

impl SpikeMonitor {
    /// Creates a monitor flagging deviations beyond `threshold` codes,
    /// reporting a rate every `window` ticks; a window is *active* when its
    /// rate exceeds `rate_threshold`.
    pub fn new(threshold: i32, window: u32, rate_threshold: f64) -> Self {
        SpikeMonitor {
            threshold: threshold.abs().max(1),
            window: window.max(1),
            rate_threshold,
            count_in_window: 0,
            tick: 0,
            last_rate: 0.0,
            active_streak: 0,
        }
    }

    /// Feeds the raw and despiked codes for one tick; each completed window
    /// updates the spike rate (spikes per tick) that
    /// [`sustained`](Self::sustained) judges.
    pub fn update(&mut self, raw: i32, despiked: i32) {
        if (raw - despiked).abs() > self.threshold {
            self.count_in_window += 1;
        }
        self.tick += 1;
        if self.tick >= self.window {
            self.last_rate = self.count_in_window as f64 / self.window as f64;
            if self.last_rate > self.rate_threshold {
                self.active_streak = self.active_streak.saturating_add(1);
            } else {
                self.active_streak = 0;
            }
            self.tick = 0;
            self.count_in_window = 0;
        }
    }

    /// `true` once at least `windows` consecutive windows were spike-active.
    pub fn sustained(&self, windows: u32) -> bool {
        self.active_streak >= windows
    }

    /// Clears all window state (diagnostic reset).
    pub fn reset(&mut self) {
        self.count_in_window = 0;
        self.tick = 0;
        self.last_rate = 0.0;
        self.active_streak = 0;
    }
}

/// Slow-drift monitor comparing a conditioned value against an exponentially
/// aged baseline.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    baseline: Option<f64>,
    /// Baseline time constant in updates.
    tau_updates: f64,
    /// Relative deviation that raises the flag.
    threshold: f64,
    /// The most recent observed value (re-zero anchor).
    last_value: Option<f64>,
    /// The most recent relative deviation.
    last_deviation: f64,
}

impl DriftMonitor {
    /// Creates a monitor with baseline time constant `tau_updates` and
    /// relative flag threshold `threshold` (e.g. 0.05 = 5 %).
    pub fn new(tau_updates: f64, threshold: f64) -> Self {
        DriftMonitor {
            baseline: None,
            tau_updates: tau_updates.max(1.0),
            threshold: threshold.abs(),
            last_value: None,
            last_deviation: 0.0,
        }
    }

    /// Feeds one steady-state observation; returns the relative deviation
    /// from the (slowly updated) baseline.
    pub fn update(&mut self, value: f64) -> f64 {
        self.last_value = Some(value);
        let dev = match &mut self.baseline {
            None => {
                self.baseline = Some(value);
                0.0
            }
            Some(b) => {
                let dev = (value - *b) / b.abs().max(1e-12);
                // The baseline ages slowly so genuine drift is visible
                // against it before being absorbed.
                *b += (value - *b) / self.tau_updates;
                dev
            }
        };
        self.last_deviation = dev;
        dev
    }

    /// Whether the latest deviation magnitude breaches the threshold.
    pub fn is_drifting(&self, deviation: f64) -> bool {
        deviation.abs() > self.threshold
    }

    /// The most recent relative deviation (0 before the first update and
    /// after a [`re_zero`](Self::re_zero)).
    #[inline]
    pub fn deviation(&self) -> f64 {
        self.last_deviation
    }

    /// The aged baseline, if one has been seeded (state-digest
    /// introspection).
    #[inline]
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// The most recently observed value, if any (state-digest
    /// introspection).
    #[inline]
    pub fn last_value(&self) -> Option<f64> {
        self.last_value
    }

    /// Accepts the most recently observed value as the new baseline and
    /// clears the deviation — the maintenance-policy re-zero. A monitor
    /// that has never observed a value keeps its empty baseline, so
    /// re-zeroing under zero drift is an exact no-op (the property the
    /// `properties` proptest pins at digest level).
    pub fn re_zero(&mut self) {
        if let Some(v) = self.last_value {
            self.baseline = Some(v);
        }
        self.last_deviation = 0.0;
    }
}

/// Saturation monitor: flags the loop when the actuator sits at a rail for
/// `limit` consecutive ticks.
#[derive(Debug, Clone)]
pub struct SaturationMonitor {
    min: u32,
    max: u32,
    consecutive: u32,
    limit: u32,
}

impl SaturationMonitor {
    /// Creates a monitor for actuator range `[min, max]` with the given
    /// consecutive-tick limit.
    pub fn new(min: u32, max: u32, limit: u32) -> Self {
        SaturationMonitor {
            min,
            max,
            consecutive: 0,
            limit: limit.max(1),
        }
    }

    /// Feeds one actuator code; returns `true` while saturation persists
    /// beyond the limit.
    pub fn update(&mut self, code: u32) -> bool {
        if code <= self.min || code >= self.max {
            self.consecutive = self.consecutive.saturating_add(1);
        } else {
            self.consecutive = 0;
        }
        self.consecutive >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_monitor_counts_outliers() {
        let mut m = SpikeMonitor::new(50, 100, 0.002);
        for i in 0..100 {
            let raw = if i % 10 == 0 { 2300 } else { 2000 };
            m.update(raw, 2000);
        }
        assert!((m.last_rate - 0.1).abs() < 1e-9, "rate {}", m.last_rate);
    }

    #[test]
    fn spike_monitor_quiet_signal() {
        let mut m = SpikeMonitor::new(50, 100, 0.002);
        for _ in 0..200 {
            m.update(2010, 2000);
        }
        assert_eq!(m.last_rate, 0.0);
        assert!(!m.sustained(1));
    }

    #[test]
    fn spike_monitor_persistence_discriminates() {
        let mut m = SpikeMonitor::new(50, 100, 0.002);
        // One dirty window (a flow transition): not sustained.
        for i in 0..100 {
            let raw = if i < 10 { 3000 } else { 2000 };
            m.update(raw, 2000);
        }
        for _ in 0..100 {
            m.update(2000, 2000);
        }
        assert!(!m.sustained(2), "single dirty window must not sustain");
        // Recurring spikes (bubbles): sustained after two windows.
        for i in 0..200 {
            let raw = if i % 40 == 0 { 2400 } else { 2000 };
            m.update(raw, 2000);
        }
        assert!(m.sustained(2), "recurring spikes must sustain");
    }

    #[test]
    fn drift_monitor_flags_slow_loss() {
        let mut m = DriftMonitor::new(1e5, 0.05);
        let mut dev = 0.0;
        // 1 % loss per 100 updates → after ~1000 updates, ~10 % below
        // the (slow) baseline.
        for i in 0..1000 {
            let value = 1.0 - 1e-4 * i as f64;
            dev = m.update(value);
        }
        assert!(m.is_drifting(dev), "deviation {dev} not flagged");
        assert!(dev < 0.0, "loss must read negative");
    }

    #[test]
    fn drift_monitor_tolerates_noise() {
        let mut m = DriftMonitor::new(1000.0, 0.05);
        let mut flagged = false;
        for i in 0..5000 {
            let noise = if i % 2 == 0 { 0.005 } else { -0.005 };
            let dev = m.update(1.0 + noise);
            flagged |= m.is_drifting(dev);
        }
        assert!(!flagged, "±0.5 % noise must not flag a 5 % threshold");
    }

    #[test]
    fn drift_monitor_re_zero_adopts_last_value() {
        let mut m = DriftMonitor::new(100.0, 0.05);
        // Fresh monitor: re-zero with nothing observed is inert.
        m.re_zero();
        assert_eq!(m.deviation(), 0.0);
        assert_eq!(m.update(1.0), 0.0, "first update seeds the baseline");
        for _ in 0..50 {
            m.update(0.8);
        }
        assert!(m.deviation() < -0.05, "deviation {}", m.deviation());
        m.re_zero();
        assert_eq!(m.deviation(), 0.0);
        // The new baseline is the last observed value: the next identical
        // observation reads exactly zero deviation.
        assert_eq!(m.update(0.8), 0.0);
    }

    #[test]
    fn drift_monitor_zero_drift_re_zero_is_identity() {
        // The core of the digest-level no-op proptest: with the latest
        // deviation exactly zero, re-zero changes nothing observable.
        let mut m = DriftMonitor::new(10.0, 0.05);
        m.update(2.5);
        assert_eq!(m.deviation(), 0.0);
        let before = format!("{m:?}");
        m.re_zero();
        assert_eq!(format!("{m:?}"), before);
    }

    #[test]
    fn saturation_monitor_needs_persistence() {
        let mut m = SaturationMonitor::new(410, 4095, 10);
        for _ in 0..9 {
            assert!(!m.update(4095));
        }
        assert!(m.update(4095), "10th consecutive railed tick must flag");
        assert!(!m.update(2000), "recovery clears immediately");
        assert!(!m.update(4095));
    }

    #[test]
    fn flags_aggregate() {
        let mut f = FaultFlags::default();
        assert!(!f.any());
        f.fouling_suspected = true;
        assert!(f.any());
    }
}
