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
//! This crate reproduces that platform shape:
//!
//! * [`regs`] — the configuration register file (the "JLCC" config bus)
//! * [`channel`] — one analog input channel: readout mode → in-amp →
//!   anti-alias → ΣΔ modulator → decimation chain to 16-bit samples
//! * [`sched`] — the software-IP scheduler with a per-tick LEON cycle budget
//! * [`timer`] — the watchdog
//! * [`eeprom`] — CRC-protected calibration storage
//! * [`uart`] — telemetry framing (frame encoder and resynchronizing
//!   slice decoder)
//! * [`platform`] — the assembled [`platform::IsifPlatform`]
//!
//! The substitution from the real chip is documented in `DESIGN.md`: no
//! SPARC-V8 interpreter — software IPs are Rust closures scheduled at the
//! decimated control rate with an explicit cycle budget, which preserves the
//! data rates, wordlengths and HW/SW structure without emulating an ISA.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod eeprom;
pub mod error;
pub mod platform;
pub mod regs;
pub mod sched;
pub mod timer;
pub mod uart;

pub use channel::{ChannelConfig, InputChannel, ReadoutMode};
pub use eeprom::CalibrationStore;
pub use error::IsifError;
pub use platform::IsifPlatform;
pub use regs::RegisterFile;
pub use sched::{IpTask, Scheduler};
pub use timer::Watchdog;
