//! Structured observability events emitted by the conditioning firmware.
//!
//! The paper's prototype was judged by its *measured* behaviour; §6's
//! diffuse-deployment vision additionally demands that "any malfunction
//! behavior … be immediately localized and isolated". Between the headline
//! metrics and that vision sits a gap: nothing in the stack records *when*
//! the PI loop saturated, *when* the health supervisor changed its mind, or
//! *when* a calibration reload had to fall back to the mirror slot. This
//! module closes the gap on the firmware side.
//!
//! # Design
//!
//! `hotwire_core` stays dependency-free: the firmware does not know (or
//! care) what collects its events. It emits tick-stamped [`ObsEvent`]s
//! through the light [`Observer`] trait, whose methods all have no-op
//! defaults; the evaluation rig (`hotwire_rig::obs`) installs a bounded
//! event log per run, and a meter without an observer pays only an
//! `Option` check per event site — zero allocation, zero bookkeeping.
//!
//! # Determinism
//!
//! Events are part of the instrument's deterministic output: they are a
//! pure function of the meter's inputs and seed, stamped with the control
//! tick (never wall-clock), so two runs of equal specs produce equal event
//! streams — the property the rig's jobs-invariance tests assert.

use crate::health::HealthState;

/// Which calibration EEPROM slot a reload served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum CalSlot {
    /// The primary record passed its CRC.
    Primary,
    /// The primary failed; the redundant mirror served the reload.
    Redundant,
}

/// What happened. Variants carry only plain copyable data so events stay
/// cheap to record and trivially comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EventKind {
    /// The PI loop pinned the supply DAC at a rail for the saturation
    /// monitor's window (entry edge).
    PiSaturationEnter,
    /// The supply code came off the rail (exit edge).
    PiSaturationExit,
    /// The graceful-degradation supervisor changed state.
    HealthTransition {
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
    /// The ISIF watchdog expired (frozen acquisition front end); a soft
    /// reset follows on the same tick.
    WatchdogExpired,
    /// The fault injector engaged a scheduled fault (rig-side; the label is
    /// the fault kind's stable snake_case name).
    FaultActivated {
        /// Stable name of the fault kind.
        fault: &'static str,
    },
    /// The fault injector reverted a windowed fault.
    FaultCleared {
        /// Stable name of the fault kind.
        fault: &'static str,
    },
    /// A calibration reload succeeded from the given slot.
    CalibrationReloaded {
        /// The slot that served the reload.
        slot: CalSlot,
    },
    /// Every calibration copy was missing or corrupt; the instrument is
    /// `Faulted`.
    CalibrationReloadFailed,
    /// The telemetry receiver dropped a frame on a CRC mismatch.
    UartFrameError,
    /// A maintenance policy re-zeroed the drift baseline (the current
    /// operating point becomes the new reference; no stored calibration
    /// changes).
    CalibrationReZeroed,
    /// A maintenance policy refit the active calibration from the
    /// instrument's recent drift estimate (in RAM only — persistence is a
    /// separate, wear-limited action).
    CalibrationRefit,
    /// A maintenance policy persisted the active calibration to EEPROM
    /// (primary + redundant slot, one write cycle each).
    CalibrationPersisted,
}

/// One observability event, stamped with the control tick it occurred on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ObsEvent {
    /// Control-tick index at emission ([`FlowMeter::control_ticks`]).
    ///
    /// [`FlowMeter::control_ticks`]: crate::FlowMeter::control_ticks
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A sink for firmware observability events.
///
/// # Contract
///
/// * Every method has a no-op default, so `impl Observer for MySink {}` is
///   a valid (blind) observer and implementors override only what they
///   need.
/// * Recording must be infallible and cheap: the meter calls
///   [`record`](Observer::record) from its control path. Sinks that bound
///   their memory drop events and report the loss via
///   [`dropped`](Observer::dropped) instead of blocking or reallocating
///   without bound.
/// * `Send + Debug` because the meter that owns the sink is itself `Send`
///   (the campaign executor moves meters into worker threads) and `Debug`.
/// * Observers must not influence behaviour: a meter with an observer and
///   a meter without one compute bit-identical measurements. Observation
///   is read-only by construction — the trait receives events, never the
///   meter.
pub trait Observer: Send + std::fmt::Debug {
    /// Accepts one event. Default: discard it.
    fn record(&mut self, event: ObsEvent) {
        let _ = event;
    }

    /// Removes and returns everything recorded so far, oldest first.
    /// Default: nothing was kept, so nothing comes back.
    fn drain(&mut self) -> Vec<ObsEvent> {
        Vec::new()
    }

    /// How many events the sink discarded (e.g. for capacity). Default: 0.
    fn dropped(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The no-op defaults make an empty impl a valid blind observer.
    #[derive(Debug)]
    struct Blind;
    impl Observer for Blind {}

    #[test]
    fn default_observer_is_a_no_op() {
        let mut blind = Blind;
        blind.record(ObsEvent {
            tick: 1,
            kind: EventKind::WatchdogExpired,
        });
        assert!(blind.drain().is_empty());
        assert_eq!(blind.dropped(), 0);
    }

    #[test]
    fn events_compare_by_value() {
        let a = ObsEvent {
            tick: 7,
            kind: EventKind::CalibrationReloaded {
                slot: CalSlot::Primary,
            },
        };
        assert_eq!(a, a);
        assert_ne!(a, ObsEvent { tick: 8, ..a });
    }
}
