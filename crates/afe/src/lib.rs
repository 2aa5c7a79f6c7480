//! Analog front-end models: the ISIF input channel and sensor-driving stage.
//!
//! The paper's signal chain (Fig. 4/5): the MAF heater and reference sit in a
//! Wheatstone bridge; the bridge midpoints feed an input channel configured
//! as an *instrumentation amplifier*, then analog low-pass filtering for
//! anti-aliasing, then a 16-bit ΣΔ ADC. The platform's sensor-driving stage
//! offers 12- and 10-bit *thermometer* DACs; the meter actuates its bridge
//! supply with one 12-bit DAC, the one modelled here.
//!
//! Everything in this crate is an "analog" behavioural model: floating-point
//! voltages with explicitly injected noise, offsets and saturation, advanced
//! sample-by-sample at the ΣΔ modulator rate. The digital world begins at the
//! modulator's 1-bit output (see `hotwire-dsp` for the decimators).
//!
//! * [`bridge`] — Wheatstone bridge DC solver
//! * [`inamp`] — instrumentation amplifier (gain, offset, bandwidth, noise)
//! * [`filter`] — continuous-time anti-alias low-pass
//! * [`adc`] — 2nd-order 1-bit ΣΔ modulator
//! * [`dac`] — the ideal thermometer-coded DAC
//! * [`noise`] — the amplifier's 1/f (flicker) noise source

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod bridge;
pub mod chain;
pub mod dac;
pub mod error;
pub mod filter;
pub mod inamp;
pub mod noise;

pub use adc::SigmaDeltaModulator;
pub use bridge::{BridgeConfig, BridgeOutputs};
pub use dac::ThermometerDac;
pub use error::AfeError;
pub use filter::AntiAliasFilter;
pub use inamp::InstrumentationAmp;
