//! Graceful-degradation state machine for the assembled instrument.
//!
//! §6 of the paper motivates self-diagnosis ("allowing also any malfunction
//! behavior … to be immediately localized and isolated"); this module closes
//! the loop from *detection* to *reaction*. The fault monitors of
//! [`faults`](crate::faults), the ISIF watchdog and the EEPROM CRC checks
//! all feed a single supervisor, [`HealthMonitor`], which tracks the
//! instrument through four states:
//!
//! ```text
//!            any fault            fault persists
//! Healthy ─────────────► Degraded ─────────────► Faulted
//!    ▲                      │                       │
//!    │   faults clear       │     faults clear      │
//!    └─────── Recovering ◄──┴───────────────────────┘
//!         (watchdog expiry and EEPROM fallback also land here)
//! ```
//!
//! and emits at most one [`RecoveryAction`] per control tick: engage the
//! pulsed drive against bubble activity (§4's mitigation), re-zero the drift
//! baseline after a fouling event, or soft-reset the conditioning firmware
//! after a watchdog expiry. The supervisor is plain owned state — stepping
//! it is deterministic, so campaign runs with fault injection stay
//! bit-identical across thread counts.

use crate::clock::TickClock;
use crate::faults::FaultFlags;

/// The instrument's aggregate health, reported in every
/// [`Measurement`](crate::flow_meter::Measurement) and telemetry record.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum HealthState {
    /// No active faults; all monitors quiet.
    #[default]
    Healthy,
    /// At least one fault monitor is firing; measurements still flow but
    /// should be treated with suspicion.
    Degraded,
    /// A fault has persisted past the tolerance window, or an unrecoverable
    /// error (both calibration copies corrupt) occurred.
    Faulted,
    /// The instrument is coming back: a recovery action ran (soft reset,
    /// EEPROM fallback) or faults just cleared, and the supervisor is
    /// holding until the monitors stay quiet.
    Recovering,
}

impl HealthState {
    /// The 2-bit wire code used in telemetry (bits 3–4 of the flags word).
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Faulted => 2,
            HealthState::Recovering => 3,
        }
    }

    /// Decodes a 2-bit wire code (only the low two bits are examined, so
    /// every input maps to a valid state).
    pub fn from_code(code: u8) -> Self {
        match code & 0b11 {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            2 => HealthState::Faulted,
            _ => HealthState::Recovering,
        }
    }
}

/// What the supervisor asks the firmware to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryAction {
    /// Nothing to do.
    #[default]
    None,
    /// Switch the heater drive to the pulsed scheme (bubble mitigation, §4).
    EngagePulsedDrive,
    /// Re-learn the drift baseline — accept the post-fouling conductance as
    /// the new normal instead of flagging it forever.
    ReZero,
    /// Reset the conditioning firmware's transient state after a watchdog
    /// expiry (the simulated equivalent of the hardware reset the ISIF
    /// watchdog would pull).
    SoftReset,
}

/// The graceful-degradation supervisor.
///
/// Call [`update`](Self::update) once per control tick with the current
/// fault flags and watchdog status; call
/// [`note_eeprom_fallback`](Self::note_eeprom_fallback) /
/// [`note_unrecoverable`](Self::note_unrecoverable) from calibration-reload
/// paths. The one-shot actions re-arm after a full recovery, so separate
/// fault episodes each get their reaction.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    state: HealthState,
    /// Consecutive fault-free update ticks.
    clean_streak: u64,
    /// Consecutive faulty update ticks.
    degraded_streak: u64,
    /// Faulty ticks tolerated in `Degraded` before escalating to `Faulted`.
    fault_limit: u64,
    /// Clean ticks required to advance one recovery stage.
    recover_hold: u64,
    /// One-shot latch: pulsed drive already requested this episode.
    pulsed_engaged: bool,
    /// One-shot latch: re-zero already requested this episode.
    rezeroed: bool,
    /// Last state handed out by [`take_transition`](Self::take_transition);
    /// lets observers see edges without hooking every state change.
    observed_state: HealthState,
}

impl HealthMonitor {
    /// Creates a supervisor that escalates to `Faulted` after `fault_limit`
    /// consecutive faulty ticks and needs `recover_hold` consecutive clean
    /// ticks per recovery stage (both clamped to ≥ 1).
    pub fn new(fault_limit: u64, recover_hold: u64) -> Self {
        HealthMonitor {
            state: HealthState::Healthy,
            clean_streak: 0,
            degraded_streak: 0,
            fault_limit: fault_limit.max(1),
            recover_hold: recover_hold.max(1),
            pulsed_engaged: false,
            rezeroed: false,
            observed_state: HealthState::Healthy,
        }
    }

    /// The firmware's supervisor on `clock`, shared by every meter:
    /// escalates `Degraded` → `Faulted` after 5 s of continuous fault, and
    /// each recovery stage needs 0.5 s of quiet monitors.
    pub fn firmware(clock: TickClock) -> Self {
        HealthMonitor::new(clock.ticks_in(5.0), clock.ticks_in(0.5))
    }

    /// The current state.
    #[inline]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Returns `Some((from, to))` if the state changed since the last call
    /// (or since construction), `None` otherwise.
    ///
    /// The edge is computed against the last *observed* state, not the last
    /// internal transition, so several state changes within one control
    /// tick collapse into a single edge — and a change that nets out back to
    /// the observed state reports nothing. Callers poll this once per tick
    /// to turn the supervisor's state into observability events; polling is
    /// read-only with respect to the supervisor's behaviour.
    pub fn take_transition(&mut self) -> Option<(HealthState, HealthState)> {
        if self.observed_state != self.state {
            let from = self.observed_state;
            self.observed_state = self.state;
            Some((from, self.state))
        } else {
            None
        }
    }

    /// Advances the supervisor one control tick and returns the recovery
    /// action the firmware should take (at most one per tick; watchdog
    /// expiry preempts everything else).
    pub fn update(&mut self, faults: FaultFlags, watchdog_expired: bool) -> RecoveryAction {
        if watchdog_expired {
            // The loop stopped kicking: firmware-level freeze. Reset takes
            // priority over the slower fault reactions.
            self.clean_streak = 0;
            self.degraded_streak = 0;
            self.state = HealthState::Recovering;
            return RecoveryAction::SoftReset;
        }
        if faults.any() {
            self.clean_streak = 0;
            if self.state != HealthState::Faulted {
                self.degraded_streak += 1;
                if self.degraded_streak >= self.fault_limit {
                    self.state = HealthState::Faulted;
                } else {
                    self.state = HealthState::Degraded;
                }
            }
            if faults.bubble_activity && !self.pulsed_engaged {
                self.pulsed_engaged = true;
                return RecoveryAction::EngagePulsedDrive;
            }
            if faults.fouling_suspected && !self.rezeroed {
                self.rezeroed = true;
                return RecoveryAction::ReZero;
            }
            RecoveryAction::None
        } else {
            self.degraded_streak = 0;
            if self.state != HealthState::Healthy {
                self.clean_streak += 1;
                if self.clean_streak >= self.recover_hold {
                    self.clean_streak = 0;
                    match self.state {
                        // Degraded/Faulted pass through Recovering: the
                        // instrument announces it is coming back before
                        // declaring itself healthy again.
                        HealthState::Degraded | HealthState::Faulted => {
                            self.state = HealthState::Recovering;
                        }
                        HealthState::Recovering => {
                            self.state = HealthState::Healthy;
                            // Full recovery re-arms the one-shot reactions
                            // for the next episode.
                            self.pulsed_engaged = false;
                            self.rezeroed = false;
                        }
                        HealthState::Healthy => {}
                    }
                }
            }
            RecoveryAction::None
        }
    }

    /// Records that the calibration loaded from the *redundant* EEPROM slot
    /// because the primary failed its CRC — recoverable, but worth a
    /// `Recovering` excursion so telemetry surfaces the event.
    pub fn note_eeprom_fallback(&mut self) {
        self.clean_streak = 0;
        self.state = HealthState::Recovering;
    }

    /// Records an unrecoverable error (e.g. every calibration copy corrupt):
    /// the instrument goes straight to `Faulted`.
    pub fn note_unrecoverable(&mut self) {
        self.clean_streak = 0;
        self.degraded_streak = 0;
        self.state = HealthState::Faulted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bubble() -> FaultFlags {
        FaultFlags {
            bubble_activity: true,
            ..FaultFlags::default()
        }
    }

    fn fouling() -> FaultFlags {
        FaultFlags {
            fouling_suspected: true,
            ..FaultFlags::default()
        }
    }

    #[test]
    fn healthy_stays_healthy_on_quiet_monitors() {
        let mut h = HealthMonitor::new(100, 10);
        for _ in 0..1000 {
            assert_eq!(h.update(FaultFlags::default(), false), RecoveryAction::None);
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn fault_degrades_then_escalates() {
        let mut h = HealthMonitor::new(5, 10);
        assert_eq!(h.update(bubble(), false), RecoveryAction::EngagePulsedDrive);
        assert_eq!(h.state(), HealthState::Degraded);
        // Only one pulsed-drive request per episode.
        for _ in 0..3 {
            assert_eq!(h.update(bubble(), false), RecoveryAction::None);
        }
        assert_eq!(h.state(), HealthState::Degraded);
        h.update(bubble(), false); // 5th faulty tick
        assert_eq!(h.state(), HealthState::Faulted);
    }

    #[test]
    fn recovery_passes_through_recovering() {
        let mut h = HealthMonitor::new(100, 3);
        h.update(fouling(), false);
        assert_eq!(h.state(), HealthState::Degraded);
        for _ in 0..3 {
            h.update(FaultFlags::default(), false);
        }
        assert_eq!(h.state(), HealthState::Recovering);
        for _ in 0..3 {
            h.update(FaultFlags::default(), false);
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn watchdog_expiry_forces_soft_reset() {
        let mut h = HealthMonitor::new(100, 3);
        assert_eq!(
            h.update(FaultFlags::default(), true),
            RecoveryAction::SoftReset
        );
        assert_eq!(h.state(), HealthState::Recovering);
        // Expiry preempts even an active fault.
        assert_eq!(h.update(bubble(), true), RecoveryAction::SoftReset);
    }

    #[test]
    fn fouling_requests_one_rezero_per_episode() {
        let mut h = HealthMonitor::new(100, 2);
        assert_eq!(h.update(fouling(), false), RecoveryAction::ReZero);
        assert_eq!(h.update(fouling(), false), RecoveryAction::None);
        // Full recovery re-arms.
        for _ in 0..4 {
            h.update(FaultFlags::default(), false);
        }
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.update(fouling(), false), RecoveryAction::ReZero);
    }

    #[test]
    fn eeprom_notes_move_the_state() {
        let mut h = HealthMonitor::new(100, 2);
        h.note_eeprom_fallback();
        assert_eq!(h.state(), HealthState::Recovering);
        h.note_unrecoverable();
        assert_eq!(h.state(), HealthState::Faulted);
    }

    #[test]
    fn take_transition_reports_collapsed_edges() {
        let mut h = HealthMonitor::new(100, 2);
        assert_eq!(h.take_transition(), None);
        h.update(bubble(), false);
        assert_eq!(
            h.take_transition(),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        // No change since last poll.
        assert_eq!(h.take_transition(), None);
        // Two internal transitions before one poll collapse to one edge.
        h.note_eeprom_fallback();
        h.note_unrecoverable();
        assert_eq!(
            h.take_transition(),
            Some((HealthState::Degraded, HealthState::Faulted))
        );
    }

    #[test]
    fn wire_code_round_trips() {
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Faulted,
            HealthState::Recovering,
        ] {
            assert_eq!(HealthState::from_code(s.code()), s);
        }
        // High bits are masked, never invalid.
        assert_eq!(HealthState::from_code(0b1110), HealthState::Faulted);
    }
}
