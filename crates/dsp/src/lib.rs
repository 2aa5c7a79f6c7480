//! Fixed-point DSP IP library mirroring the ISIF digital section.
//!
//! The ISIF platform's digital signal processing is "composed by dedicated
//! IPs optimized for low power consumption such as ΣΔ modulator and channel
//! demodulators, DAC controllers, filters (FIR and IIR) and sine wave
//! generator", with an exactly-matching library of *software* peripherals run
//! on the LEON core. This crate holds the blocks of that library the
//! constant-temperature conditioning chain runs: every block is
//! integer/fixed-point exactly as silicon (or LEON assembly) would compute
//! it, because the quantization of these blocks is what bounds the
//! measurement resolution the paper reports.
//!
//! Blocks:
//!
//! * [`fix`] — saturating Q-format quantization ([`fix::Fx`], [`fix::Q16`],
//!   [`fix::Q30`])
//! * [`cic`] — CIC decimator for the ΣΔ bitstream
//! * [`iir`] — the single-pole 0.1 Hz output filter
//! * [`pi`] — the PI controller closing the constant-temperature loop
//! * [`despike`] — the 5-sample median despiker
//!
//! # Example: decimating a ΣΔ bitstream
//!
//! ```
//! use hotwire_dsp::cic::CicDecimator;
//!
//! let mut cic = CicDecimator::new(3, 64)?;
//! let mut out = Vec::new();
//! // A constant +1 bitstream decimates to full scale.
//! for _ in 0..640 {
//!     if let Some(y) = cic.push(1) {
//!         out.push(y);
//!     }
//! }
//! assert_eq!(out.len(), 10);
//! assert_eq!(*out.last().unwrap(), cic.gain());
//! # Ok::<(), hotwire_dsp::DspError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cic;
pub mod despike;
pub mod error;
pub mod fix;
pub mod iir;
pub mod pi;

pub use cic::CicDecimator;
pub use despike::Median5;
pub use error::DspError;
pub use fix::{Fx, Q16, Q30};
pub use iir::SinglePoleLp;
pub use pi::PiController;
