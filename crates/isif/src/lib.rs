//! Behavioural emulation of the ISIF (Intelligent Sensor InterFace) platform
//! SoC.
//!
//! ISIF is the paper's mixed-signal platform-on-chip (0.35 µm BCD6, 72 mm²):
//! an analog front end with four configurable input channels, a LEON-based
//! digital section with hardware DSP IPs and *exactly-matching software
//! peripherals*, plus standard peripherals (timers, watchdog, memories,
//! UART/SPI). Its purpose is fast prototyping: a sensor interface is explored
//! by configuring channels and interconnecting IPs, with software IPs
//! standing in for future hardware.
//!
//! This crate models only the parts the flow meter's conditioning firmware
//! drives:
//!
//! * [`channel`] — one analog input channel in its instrumentation-amplifier
//!   mode: in-amp → anti-alias → ΣΔ modulator → decimation chain to 16-bit
//!   samples
//! * [`timer`] — the watchdog
//! * [`eeprom`] — CRC-protected calibration storage
//! * [`uart`] — telemetry framing (frame encoder and resynchronizing
//!   slice decoder)
//! * [`platform`] — the assembled [`platform::IsifPlatform`]: the channels,
//!   the 12-bit bridge-supply DAC, the watchdog and the EEPROM
//!
//! The substitution from the real chip is documented in `DESIGN.md`: no
//! SPARC-V8 interpreter — the firmware is plain Rust that runs once per
//! decimated control tick, which preserves the data rates, wordlengths and
//! HW/SW split without emulating an ISA.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod eeprom;
pub mod error;
pub mod platform;
pub mod timer;
pub mod uart;

pub use channel::{ChannelConfig, InputChannel};
pub use eeprom::CalibrationStore;
pub use error::IsifError;
pub use platform::IsifPlatform;
pub use timer::Watchdog;
