//! The 16-bit ΣΔ ADC — modelled at the modulator level.
//!
//! "Eventually the signal is converted by a 16 bits Sigma Delta ADC." The
//! model is a real 2nd-order single-bit modulator (Boser–Wooley topology with
//! halved integrator gains for stability margin), not an ideal quantizer:
//! the decimation chain in `hotwire-dsp` turns its bitstream into the 16-bit
//! samples the digital section consumes, so quantization noise shaping,
//! overload behaviour and idle tones are all physically present in the
//! simulation.

use crate::error::ensure_positive;
use crate::AfeError;
use hotwire_units::Volts;

/// A 2nd-order single-bit ΣΔ modulator with full-scale input ±`vref`.
///
/// ```
/// use hotwire_afe::SigmaDeltaModulator;
/// use hotwire_units::Volts;
///
/// let mut adc = SigmaDeltaModulator::new(Volts::new(2.5))?;
/// // A mid-scale DC input produces a bitstream whose mean approaches 0.5.
/// let n = 100_000;
/// let ones: i64 = (0..n).map(|_| adc.push(Volts::new(1.25)) as i64).sum();
/// let mean = ones as f64 / n as f64;
/// assert!((mean - 0.5).abs() < 0.01);
/// # Ok::<(), hotwire_afe::AfeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SigmaDeltaModulator {
    pub(crate) vref: f64,
    pub(crate) i1: f64,
    pub(crate) i2: f64,
}

impl SigmaDeltaModulator {
    /// Creates a modulator with differential full scale ±`vref`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] if `vref` is not positive.
    pub fn new(vref: Volts) -> Result<Self, AfeError> {
        ensure_positive("vref", vref.get())?;
        Ok(SigmaDeltaModulator {
            vref: vref.get(),
            i1: 0.0,
            i2: 0.0,
        })
    }

    /// Converts one input sample to a ±1 bit.
    ///
    /// Inputs beyond ±vref are clipped (the modulator overloads gracefully
    /// rather than going unstable).
    pub fn push(&mut self, v_in: Volts) -> i32 {
        // Normalize, clip to the stable input range of a 2nd-order 1-bit
        // loop (~±0.9 FS).
        let u = (v_in.get() / self.vref).clamp(-0.9, 0.9);
        let y = if self.i2 >= 0.0 { 1.0 } else { -1.0 };
        // Boser–Wooley: halved gains, feedback into both integrators.
        self.i1 += 0.5 * (u - y);
        self.i2 += 0.5 * (self.i1 - y);
        y as i32
    }

    /// Converts a block of input samples (volts) to ±1 bits, advancing one
    /// modulator tick per element. Bit-identical to calling
    /// [`push`](Self::push) per element — the loop integrators are hoisted
    /// into locals so the inner loop runs over registers with no
    /// pointer-chased state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `bits` differ in length.
    pub fn step_block(&mut self, inputs: &[f64], bits: &mut [i32]) {
        assert_eq!(inputs.len(), bits.len());
        // `v / vref` must stay a division (not a reciprocal multiply) to
        // keep the block path bit-identical to `push`.
        let vref = self.vref;
        let mut i1 = self.i1;
        let mut i2 = self.i2;
        for (&v, b) in inputs.iter().zip(bits.iter_mut()) {
            let u = (v / vref).clamp(-0.9, 0.9);
            let y = if i2 >= 0.0 { 1.0 } else { -1.0 };
            i1 += 0.5 * (u - y);
            i2 += 0.5 * (i1 - y);
            *b = y as i32;
        }
        self.i1 = i1;
        self.i2 = i2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitstream_mean(adc: &mut SigmaDeltaModulator, v: f64, n: usize) -> f64 {
        let sum: i64 = (0..n).map(|_| adc.push(Volts::new(v)) as i64).sum();
        sum as f64 / n as f64
    }

    #[test]
    fn dc_transfer_is_linear() {
        for &frac in &[-0.8, -0.5, -0.1, 0.0, 0.1, 0.5, 0.8] {
            let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
            let mean = bitstream_mean(&mut adc, 2.5 * frac, 200_000);
            assert!(
                (mean - frac).abs() < 0.005,
                "input {frac} FS decoded as {mean}"
            );
        }
    }

    #[test]
    fn overload_clips_not_diverges() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let mean = bitstream_mean(&mut adc, 10.0, 100_000);
        assert!((mean - 0.9).abs() < 0.01, "overloaded mean {mean}");
        assert!(adc.i1.is_finite() && adc.i2.is_finite());
    }

    #[test]
    fn integrators_stay_bounded() {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        for i in 0..1_000_000 {
            let v = 2.0 * (core::f64::consts::TAU * 1000.0 * i as f64 / 256_000.0).sin();
            adc.push(Volts::new(v));
            assert!(adc.i1.abs() < 20.0 && adc.i2.abs() < 20.0, "state blew up");
        }
    }

    #[test]
    fn noise_shaping_pushes_error_to_high_frequency() {
        // Compare in-band error after heavy averaging (low-pass) for a DC
        // input: a 2nd-order modulator decimated by 256 must be accurate to
        // well below 1e-3 of full scale.
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let target = 0.37;
        let n = 256 * 4000;
        let mean = bitstream_mean(&mut adc, 2.5 * target, n);
        assert!(
            (mean - target).abs() < 2e-4,
            "decimated DC error {}",
            (mean - target).abs()
        );
    }

    #[test]
    fn effective_resolution_16_bits_with_cic3_r256() {
        // End-to-end check against the paper's "16 bits" figure: a 3rd-order
        // CIC at R=256 on the bitstream recovers a DC level with error below
        // 1 LSB₁₆ = 2⁻¹⁶ of full scale (averaged over several outputs).
        use hotwire_dsp::cic::CicDecimator;
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let mut cic = CicDecimator::new(3, 256).unwrap();
        let target = 0.2371;
        let mut outputs = Vec::new();
        for _ in 0..256 * 400 {
            if let Some(y) = cic.push(adc.push(Volts::new(2.5 * target))) {
                outputs.push(y as f64 / cic.gain() as f64);
            }
        }
        // Discard CIC settling.
        let settled = &outputs[8..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        let err = (mean - target).abs();
        assert!(
            err < 1.0 / 65_536.0,
            "DC error {err} exceeds 1 LSB of 16 bits"
        );
    }

    #[test]
    fn rejects_bad_vref() {
        assert!(SigmaDeltaModulator::new(Volts::ZERO).is_err());
        assert!(SigmaDeltaModulator::new(Volts::new(-1.0)).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn step_block_is_bit_identical_to_scalar_push(
                // ±30 V on a 2.5 V vref drives the loop deep into overload
                // clipping as well as across the linear range.
                xs in proptest::collection::vec(-30.0f64..30.0, 1..300),
                split in 0usize..300
            ) {
                let mut scalar = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
                let mut block = scalar.clone();
                let expected: Vec<i32> =
                    xs.iter().map(|&v| scalar.push(Volts::new(v))).collect();
                // Split the block at an arbitrary point: integrator state
                // must carry across the seam exactly as per-sample calls
                // would leave it.
                let mut bits = vec![0i32; xs.len()];
                let cut = split % xs.len();
                let (lo, hi) = xs.split_at(cut);
                let (bl, bh) = bits.split_at_mut(cut);
                block.step_block(lo, bl);
                block.step_block(hi, bh);
                prop_assert_eq!(&bits, &expected);
                prop_assert_eq!(block.i1.to_bits(), scalar.i1.to_bits());
                prop_assert_eq!(block.i2.to_bits(), scalar.i2.to_bits());
            }
        }
    }
}
