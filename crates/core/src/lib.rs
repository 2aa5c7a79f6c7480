//! Constant-temperature hot-wire conditioning firmware — the contribution of
//! *"Hot Wire Anemometric MEMS Sensor for Water Flow Monitoring"* (Melani et
//! al., DATE 2008).
//!
//! The signal chain this crate implements (paper Fig. 5):
//!
//! ```text
//!            ┌────────────── ISIF platform ───────────────┐
//! MAF die →  bridge → in-amp → AA LPF → ΣΔ → CIC ──┐      │
//!   ↑                                              ▼      │
//!   └── supply DAC ←── PI ←── reference subtraction ┘      │
//!                      │                                   │
//!                      └→ King inversion → 0.1 Hz IIR → v  │
//! ```
//!
//! * [`cta`] — the closed loop: reference subtraction, PI controller,
//!   feedback actuation to the bridge supply (constant-temperature mode).
//! * [`modes`] — the constant-current and constant-power baseline drives the
//!   paper contrasts in §2.
//! * [`pulsed`] — the pulsed-voltage driving scheme that suppresses bubble
//!   formation (§4, Fig. 7).
//! * [`calibration`] — King's-law fitting and inversion, with EEPROM
//!   persistence.
//! * [`direction`] — flow-direction detection from the dual-heater
//!   differential.
//! * [`output`] — despike + 0.1 Hz smoothing + unit conversion.
//! * [`faults`] — bubble/fouling detectors and watchdog wiring.
//! * [`health`] — the graceful-degradation supervisor turning detections
//!   into reactions (pulsed fallback, re-zero, soft reset, EEPROM
//!   fallback).
//! * [`obs`] — tick-stamped observability events ([`obs::ObsEvent`]) and the
//!   [`obs::Observer`] sink trait the firmware emits them through; the crate
//!   stays dependency-free while the rig collects structured telemetry.
//! * [`power`] — the duty-cycled power budget of the §7 battery-operated
//!   probe.
//! * [`flow_meter`] — [`FlowMeter`], the assembled instrument
//!   (die + platform + firmware), stepped sample-by-sample.
//! * [`clock`] — [`TickClock`], the one conversion of seconds into whole
//!   control ticks, for the firmware's spans and the rig's run inputs.
//!
//! # Threading contract
//!
//! [`FlowMeter`] (and everything it owns) is [`Send`]: a meter can be moved
//! into a worker thread. Each *run* of a meter is single-threaded and
//! bit-for-bit deterministic under its seed; `hotwire_rig`'s campaign
//! executor exploits the `Send` bound to execute independent runs in
//! parallel without changing any result.
//!
//! # Quickstart
//!
//! ```
//! use hotwire_core::{FlowMeter, FlowMeterConfig};
//! use hotwire_physics::{MafParams, SensorEnvironment};
//! use hotwire_units::MetersPerSecond;
//!
//! let mut meter = FlowMeter::new(FlowMeterConfig::water_station(), MafParams::nominal(), 42)?;
//! let env = SensorEnvironment {
//!     velocity: MetersPerSecond::from_cm_per_s(100.0),
//!     ..SensorEnvironment::still_water()
//! };
//! // Run 0.2 simulated seconds and take the last conditioned measurement.
//! let m = meter.run(0.2, env).expect("control loop produced measurements");
//! assert!(m.velocity.get() >= 0.0);
//! # Ok::<(), hotwire_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::same_name_method)]

pub mod burst;
pub mod calibration;
pub mod clock;
pub mod config;
pub mod cta;
pub mod direction;
pub mod error;
pub mod faults;
pub mod flow_meter;
pub mod health;
pub mod heat_pulse;
pub mod meter;
pub mod modes;
pub mod obs;
pub mod output;
pub mod power;
pub mod pulsed;
pub mod telemetry;

pub use burst::{BurstConfig, BurstController, BurstReading};
pub use calibration::{KingCalibration, TempCorrect};
pub use clock::TickClock;
pub use config::{FlowMeterConfig, OperatingMode};
pub use error::CoreError;
pub use flow_meter::{FlowMeter, Measurement};
pub use health::{HealthMonitor, HealthState, RecoveryAction};
pub use heat_pulse::{HeatPulseCalibration, HeatPulseConfig, HeatPulseMeter};
pub use meter::Meter;
pub use obs::{CalSlot, EventKind, ObsEvent, Observer};
pub use telemetry::{RecordDecodeStats, RecordError, TelemetryRecord};
