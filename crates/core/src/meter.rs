//! The modality-neutral meter contract the evaluation engine drives.
//!
//! Everything above the firmware — the line runner, the campaign executor,
//! the fleet engine, the fault injector, checkpointing — used to be
//! hard-coded to the CTA [`FlowMeter`](crate::FlowMeter). This trait
//! extracts the surface those engines actually touch, so a second sensing
//! modality (the heat-pulse time-of-flight meter of [`crate::heat_pulse`])
//! plugs into the same physics substrate and the same deterministic
//! execution machinery. This module holds only the contract; each
//! implementation sits beside its type.
//!
//! # Contract
//!
//! Implementations are deterministic instruments: a meter built from a
//! seed and stepped through a fixed environment sequence must produce a
//! bit-identical measurement stream and [`state_digest`](Meter::state_digest)
//! on every run, on any thread, at any job count. Concretely:
//!
//! * **Frame alignment** — [`step_frame`](Meter::step_frame) advances
//!   exactly [`ticks_per_frame`](Meter::ticks_per_frame) modulator ticks
//!   and must be bit-identical to that many [`step`](Meter::step) calls
//!   under a constant environment; it may only be called when
//!   [`frame_phase`](Meter::frame_phase) is 0 and must panic otherwise.
//!   A meter is aligned when built and the engines step whole frames only,
//!   so no engine calls `step`: it is that identity's per-tick reference.
//!   Meters without a modulator-rate inner loop report
//!   `ticks_per_frame() == 1` and are trivially frame-aligned.
//!   [`advance_frame`](Meter::advance_frame) is `step_frame` for a caller
//!   that drops the measurement, and leaves the same state.
//! * **RNG-lane draw order** — all randomness must be drawn from seeded
//!   generators owned by the meter, in an order that is a pure function of
//!   the tick count and the meter's own state (never of wall-clock,
//!   thread identity, or observer presence). Fault hooks must not draw.
//! * **Digest semantics** — [`state_digest`](Meter::state_digest) folds
//!   a subset of the meter's mutable state (tick counters, RNG state, the
//!   main estimator and latch state, health verdict, slow physical state)
//!   into one stable 64-bit word. Two meters that walked bit-identical
//!   trajectories digest equal. A divergence shows up at once only if it
//!   reaches that subset; state left out of it
//!   ([`FlowMeter::state_digest`](crate::FlowMeter::state_digest) lists
//!   the CTA meter's) shows only through the later measurements it moves.
//!   The fleet layer checkpoints this per line.
//! * **Observation is read-only** — a meter with an observer installed
//!   and one without compute bit-identical measurements; observers only
//!   receive events.
//!
//! The engines are generic (`LineRunner<M>`), so the hot loop
//! monomorphizes; the rig's closed `AnyMeter` enum carries every modality
//! through one generic instantiation.

use crate::error::CoreError;
use crate::faults::AdcFault;
use crate::flow_meter::Measurement;
use crate::health::HealthState;
use crate::obs::{EventKind, Observer};
use hotwire_afe::ThermometerDac;
use hotwire_physics::SensorEnvironment;
use hotwire_units::{Celsius, MetersPerSecond, Seconds, Watts};

/// The meter-facing surface of the evaluation engine: stepping, drive
/// timing, health, telemetry emission, calibration reload, fault hooks and
/// state digest. See the [module docs](self) for the determinism contract.
pub trait Meter: Send + std::fmt::Debug {
    // --- stepping and drive timing ---

    /// One modulator tick of co-simulation; returns a measurement on
    /// control ticks (every [`ticks_per_frame`](Self::ticks_per_frame)-th
    /// call), `None` in between.
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement>;

    /// Advances one full control frame — [`ticks_per_frame`](Self::ticks_per_frame)
    /// modulator ticks under a constant environment — and returns the
    /// control-tick measurement the frame ends on. Bit-identical to the
    /// equivalent [`step`](Self::step) sequence (or a documented
    /// bounded-error fast tier the implementation opts into).
    ///
    /// # Panics
    ///
    /// Panics if the meter is not frame-aligned
    /// ([`frame_phase`](Self::frame_phase) != 0).
    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement;

    /// Advances one control frame as [`step_frame`](Self::step_frame) does,
    /// for a caller that will not read the frame's measurement: the meter's
    /// state, its later measurements and its
    /// [`state_digest`](Self::state_digest) must come out bit-identical.
    /// A meter may skip work that only the returned measurement needs
    /// (the CTA meter defers its King's-law inversion). Default:
    /// `step_frame`, its measurement dropped.
    ///
    /// # Panics
    ///
    /// As [`step_frame`](Self::step_frame).
    fn advance_frame(&mut self, env: SensorEnvironment) {
        self.step_frame(env);
    }

    /// Modulator ticks into the current frame; 0 means frame-aligned.
    fn frame_phase(&self) -> u32;

    /// Modulator ticks per control frame (1 for meters without an
    /// oversampled inner loop).
    fn ticks_per_frame(&self) -> u32;

    /// Scenario time advanced per control tick — the runner's line/probe
    /// update period.
    fn control_period(&self) -> Seconds;

    /// The instrument's full-scale velocity.
    fn full_scale(&self) -> MetersPerSecond;

    // --- health, power, digest ---

    /// The graceful-degradation supervisor's current verdict.
    fn health(&self) -> HealthState;

    /// Steady electrical power the instrument draws from the line supply
    /// (sensing plus drive, averaged over its duty cycle) — the m1
    /// head-to-head's power axis.
    fn power_draw(&self) -> Watts;

    /// Stable 64-bit digest of all observable mutable state (see the
    /// [module docs](self) for the exact semantics).
    fn state_digest(&self) -> u64;

    // --- telemetry emission (structured observability) ---

    /// Installs an event observer (replacing any previous one).
    fn set_observer(&mut self, observer: Box<dyn Observer>);

    /// Removes and returns the installed observer, if any.
    fn take_observer(&mut self) -> Option<Box<dyn Observer>>;

    /// Whether an observer is installed (the runner gates its hot-loop
    /// instrumentation on this).
    fn has_observer(&self) -> bool;

    /// Emits one observability event (stamped with the meter's control
    /// tick). No-op without an observer.
    fn observe(&mut self, kind: EventKind);

    // --- calibration surface ---
    //
    // The modality-generic maintenance interface: a policy engine
    // (`hotwire_rig::maintain`) decides *when* to act and drives every
    // modality through these five actions/observables without knowing
    // whether the calibration underneath is a King's-law fit or a
    // time-of-flight scale. The defaults are inert no-ops: the CTA meter
    // overrides every one, the heat-pulse meter all but
    // `fluid_temperature` (it has no temperature channel), and a test
    // double that forwards only stepping and fault hooks
    // (`tests/tick_clock.rs`'s `CountingMeter`) takes them all.
    //
    // Determinism: none of these methods may draw from the meter's RNG
    // lanes (they run at frame boundaries between RNG-consuming steps, and
    // the runner's jobs-invariance tests pin that a policy-managed run
    // stays bit-identical at any job count).

    /// Re-reads the calibration record from persistent storage, falling
    /// back to the redundant slot on a CRC failure (and repairing the
    /// primary), latching a fault when every copy is gone.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when no valid calibration copy survives.
    fn reload_calibration(&mut self) -> Result<(), CoreError>;

    /// Accepts the current operating point as the new drift reference,
    /// clearing the drift estimate without touching the calibration
    /// itself. Must be an exact state no-op when
    /// [`drift_estimate`](Self::drift_estimate) is already `0.0` (pinned
    /// at digest level by proptest). Default: no-op.
    fn re_zero(&mut self) {}

    /// Refits the active calibration from the instrument's recent drift
    /// estimate (in RAM only — pair with [`persist`](Self::persist) to
    /// survive a power cycle) and re-zeroes the drift reference around the
    /// corrected fit. Returns `true` when the calibration actually
    /// changed, `false` when there was nothing to correct (zero drift or
    /// no calibration installed). Default: `false`.
    fn refit_from_recent(&mut self) -> bool {
        false
    }

    /// Writes the active calibration to persistent storage (primary plus
    /// redundant slot — one write cycle of wear on each).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when no calibration is installed or the
    /// write fails. Default: `Ok(())` for meters without storage.
    fn persist(&mut self) -> Result<(), CoreError> {
        Ok(())
    }

    /// Control ticks elapsed since the active calibration was installed or
    /// last refit — the age a `Scheduled` policy compares against its
    /// period. Default: 0 (an ageless instrument never triggers a
    /// scheduled refit).
    fn calibration_age(&self) -> u64 {
        0
    }

    /// The instrument's current relative drift estimate (signed; `0.0`
    /// means no observed drift). For the CTA meter this is the
    /// conductance-baseline deviation; for the heat-pulse meter the
    /// received-amplitude droop. Default: `0.0`.
    fn drift_estimate(&self) -> f64 {
        0.0
    }

    /// The highest per-slot EEPROM write-cycle count — the wear figure an
    /// event-triggered policy rate-limits persists against. Default: 0.
    fn calibration_wear(&self) -> u64 {
        0
    }

    /// The instrument's own fluid-temperature estimate, when it carries a
    /// temperature channel (the CTA meter's compensated estimate) — the
    /// observable behind an `EventTriggered` policy's temperature-delta
    /// trigger. Default: `None` (no temperature channel; the trigger
    /// never fires).
    fn fluid_temperature(&self) -> Option<Celsius> {
        None
    }

    // --- fault hooks (the injector's attack surface) ---

    /// Installs (or clears, with `None`) an acquisition-path fault on the
    /// instrument's primary ADC.
    fn inject_adc_fault(&mut self, fault: Option<AdcFault>);

    /// Derates the drive/supply rail to `fraction` of nominal (the caller
    /// clamps to a sane range). Returns the saved pre-fault supply DAC for
    /// meters that model one — the injector hands it back to
    /// [`restore_supply`](Self::restore_supply) on revert, preserving
    /// per-event save/restore semantics for overlapping windows.
    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac>;

    /// Reverts a supply derate, restoring `saved` when the meter returned
    /// one from [`degrade_supply`](Self::degrade_supply).
    fn restore_supply(&mut self, saved: Option<ThermometerDac>);

    /// Flips one bit in byte `byte` of calibration-storage slot `slot`
    /// (the EEPROM attack; pair with
    /// [`reload_calibration`](Self::reload_calibration) to exercise the
    /// CRC check and redundant-slot fallback).
    fn corrupt_calibration(&mut self, slot: usize, byte: usize);

    /// An abrupt vapor/air burst blankets the sensing surfaces with extra
    /// bubble coverage (impulse; coverage then decays naturally).
    fn inject_bubble_burst(&mut self, coverage: f64);

    /// A step of scale lands on the sensing surfaces at once (impulse;
    /// scale does not clear on its own).
    fn deposit_fouling(&mut self, microns: f64);

    // --- slow physical state the trace records ---

    /// Worst-case bubble coverage fraction across the sensing surfaces.
    fn worst_bubble_coverage(&self) -> f64;

    /// Worst-case fouling thickness across the sensing surfaces, µm.
    fn worst_fouling_um(&self) -> f64;
}
