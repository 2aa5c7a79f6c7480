//! CIC (cascaded integrator-comb) decimator — the first stage after the ΣΔ
//! modulator.
//!
//! The paper: "The digital section decimates the ΣΔ ADC output and low-pass
//! filters". A CIC is the canonical multiplier-free decimator for a 1-bit
//! oversampled stream: `N` integrators at the modulator rate, decimation by
//! `R`, then `N` combs at the low rate. DC gain is `R^N`; with a 1-bit input
//! and `N ≤ 6`, `R ≤ 4096` the 64-bit accumulators never overflow, so the
//! classic modular-arithmetic trick is exact here.

use crate::error::DspError;

/// Maximum supported CIC order.
pub const MAX_ORDER: usize = 6;

/// A CIC decimator of order `N` and decimation ratio `R` (differential delay
/// fixed at 1).
///
/// ```
/// use hotwire_dsp::cic::CicDecimator;
///
/// let mut cic = CicDecimator::new(2, 8)?;
/// // Feed an alternating ±1 stream: decimated output averages to ~0.
/// let mut last = None;
/// for i in 0..64 {
///     if let Some(y) = cic.push(if i % 2 == 0 { 1 } else { -1 }) {
///         last = Some(y);
///     }
/// }
/// assert!(last.unwrap().abs() <= cic.gain() / 8);
/// # Ok::<(), hotwire_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CicDecimator {
    order: usize,
    ratio: u32,
    integrators: [i64; MAX_ORDER],
    combs: [i64; MAX_ORDER],
    phase: u32,
}

impl CicDecimator {
    /// Creates a CIC with the given order (1..=6) and decimation ratio
    /// (2..=4096).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidConfig`] for an unsupported order or ratio.
    pub fn new(order: usize, ratio: u32) -> Result<Self, DspError> {
        if !(1..=MAX_ORDER).contains(&order) {
            return Err(DspError::InvalidConfig {
                name: "order",
                constraint: "must lie in 1..=6",
            });
        }
        if !(2..=4096).contains(&ratio) {
            return Err(DspError::InvalidConfig {
                name: "ratio",
                constraint: "must lie in 2..=4096",
            });
        }
        Ok(CicDecimator {
            order,
            ratio,
            integrators: [0; MAX_ORDER],
            combs: [0; MAX_ORDER],
            phase: 0,
        })
    }

    /// Filter order `N`.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Decimation ratio `R`.
    #[inline]
    pub fn ratio(&self) -> u32 {
        self.ratio
    }

    /// DC gain `R^N`: a constant input `x` produces output `x · gain()`.
    pub fn gain(&self) -> i64 {
        (self.ratio as i64).pow(self.order as u32)
    }

    /// Number of output bits needed: `input_bits + N·log2(R)`.
    pub fn output_bits(&self, input_bits: u32) -> u32 {
        input_bits + self.order as u32 * (32 - (self.ratio - 1).leading_zeros())
    }

    /// Pushes one high-rate sample; returns a decimated output every `R`
    /// samples.
    pub fn push(&mut self, x: i32) -> Option<i64> {
        let acc = integrate(&mut self.integrators[..self.order], x);
        self.phase += 1;
        if self.phase < self.ratio {
            return None;
        }
        self.phase = 0;
        Some(comb(&mut self.combs[..self.order], acc))
    }

    /// Pushes a block of high-rate samples, appending every decimated output
    /// produced along the way to `out`. Bit-identical to calling
    /// [`push`](Self::push) per element. The block runs in one walk
    /// specialised to the filter's order, so the stage loops unroll and the
    /// integrator/comb states and the phase counter stay in registers
    /// instead of bouncing through `&mut self` per tick.
    ///
    /// Feeding exactly `ratio()` samples from a frame-aligned phase (phase
    /// 0) yields exactly one output.
    pub fn push_block(&mut self, xs: &[i32], out: &mut Vec<i64>) {
        match self.order {
            1 => self.push_block_of::<1>(xs, out),
            2 => self.push_block_of::<2>(xs, out),
            3 => self.push_block_of::<3>(xs, out),
            4 => self.push_block_of::<4>(xs, out),
            5 => self.push_block_of::<5>(xs, out),
            6 => self.push_block_of::<6>(xs, out),
            _ => unreachable!("order checked in new()"),
        }
    }

    /// [`push_block`](Self::push_block) for order `N`.
    fn push_block_of<const N: usize>(&mut self, xs: &[i32], out: &mut Vec<i64>) {
        let ratio = self.ratio;
        let mut integrators: [i64; N] = std::array::from_fn(|i| self.integrators[i]);
        let mut combs: [i64; N] = std::array::from_fn(|i| self.combs[i]);
        let mut phase = self.phase;
        for &x in xs {
            let acc = integrate(&mut integrators, x);
            phase += 1;
            if phase < ratio {
                continue;
            }
            phase = 0;
            out.push(comb(&mut combs, acc));
        }
        self.integrators[..N].copy_from_slice(&integrators);
        self.combs[..N].copy_from_slice(&combs);
        self.phase = phase;
    }

    /// The current intra-frame phase: number of samples accepted since the
    /// last decimated output, in `0..ratio()`. Phase 0 means the next
    /// `ratio()` pushes produce exactly one output on the last push.
    #[inline]
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Clears all integrator and comb state.
    pub fn reset(&mut self) {
        self.integrators = [0; MAX_ORDER];
        self.combs = [0; MAX_ORDER];
        self.phase = 0;
    }
}

/// Runs one sample through the integrator cascade (wrapping, as the
/// modular-arithmetic CIC requires); returns the last stage's output.
#[inline(always)]
fn integrate(stages: &mut [i64], x: i32) -> i64 {
    let mut acc = x as i64;
    for stage in stages {
        *stage = stage.wrapping_add(acc);
        acc = *stage;
    }
    acc
}

/// Runs one decimated sample through the comb cascade.
#[inline(always)]
fn comb(stages: &mut [i64], mut y: i64) -> i64 {
    for stage in stages {
        let prev = *stage;
        *stage = y;
        y = y.wrapping_sub(prev);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cic: &mut CicDecimator, input: impl Iterator<Item = i32>) -> Vec<i64> {
        input.filter_map(|x| cic.push(x)).collect()
    }

    #[test]
    fn dc_gain_is_r_to_the_n() {
        for (order, ratio) in [(1usize, 4u32), (2, 8), (3, 64), (4, 16)] {
            let mut cic = CicDecimator::new(order, ratio).unwrap();
            let settle = ratio as usize * (order + 2);
            let out = collect(&mut cic, std::iter::repeat(1).take(settle * 4));
            let expected = (ratio as i64).pow(order as u32);
            assert_eq!(*out.last().unwrap(), expected, "N={order} R={ratio}");
            assert_eq!(cic.gain(), expected);
        }
    }

    #[test]
    fn zero_in_zero_out() {
        let mut cic = CicDecimator::new(3, 32).unwrap();
        let out = collect(&mut cic, std::iter::repeat(0).take(320));
        assert!(out.iter().all(|&y| y == 0));
    }

    #[test]
    fn output_cadence() {
        let mut cic = CicDecimator::new(2, 16).unwrap();
        let out = collect(&mut cic, std::iter::repeat(1).take(160));
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn linearity() {
        let signal: Vec<i32> = (0..1024).map(|i| ((i * 7) % 13) - 6).collect();
        let mut a = CicDecimator::new(3, 16).unwrap();
        let mut b = CicDecimator::new(3, 16).unwrap();
        let out1 = collect(&mut a, signal.iter().copied());
        let out3 = collect(&mut b, signal.iter().map(|&x| 3 * x));
        for (y1, y3) in out1.iter().zip(&out3) {
            assert_eq!(*y3, 3 * *y1);
        }
    }

    #[test]
    fn attenuates_high_frequency() {
        // Nyquist-rate tone (+1,-1,...) vs DC: CIC must crush the tone.
        let mut cic_dc = CicDecimator::new(3, 64).unwrap();
        let mut cic_ny = CicDecimator::new(3, 64).unwrap();
        let n = 64 * 32;
        let dc = collect(&mut cic_dc, std::iter::repeat(1).take(n));
        let ny = collect(&mut cic_ny, (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }));
        let dc_level = *dc.last().unwrap();
        let ny_level = ny.iter().skip(4).map(|y| y.abs()).max().unwrap();
        assert!(
            ny_level < dc_level / 1000,
            "nyquist leakage {ny_level} vs dc {dc_level}"
        );
    }

    #[test]
    fn one_bit_stream_density_recovered() {
        // A 75 %-ones bitstream (+1/−1) has mean 0.5.
        let mut cic = CicDecimator::new(3, 128).unwrap();
        let n = 128 * 64;
        let out = collect(&mut cic, (0..n).map(|i| if i % 4 != 3 { 1 } else { -1 }));
        let level = *out.last().unwrap() as f64 / cic.gain() as f64;
        assert!((level - 0.5).abs() < 0.01, "level {level}");
    }

    #[test]
    fn output_bits_estimate() {
        let cic = CicDecimator::new(3, 256).unwrap();
        assert_eq!(cic.output_bits(1), 1 + 3 * 8);
    }

    #[test]
    fn reset_clears_state() {
        let mut cic = CicDecimator::new(2, 8).unwrap();
        collect(&mut cic, std::iter::repeat(1).take(80));
        cic.reset();
        let out = collect(&mut cic, std::iter::repeat(0).take(80));
        assert!(out.iter().all(|&y| y == 0));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(CicDecimator::new(0, 8).is_err());
        assert!(CicDecimator::new(7, 8).is_err());
        assert!(CicDecimator::new(3, 1).is_err());
        assert!(CicDecimator::new(3, 8192).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn push_block_is_bit_identical_to_scalar_push(
                // Full-range i32 samples exercise the wrapping accumulator
                // arithmetic far beyond the ±1 bitstream the ΣΔ feeds it.
                xs in proptest::collection::vec(i32::MIN..=i32::MAX, 1..600),
                order in 1usize..=6,
                ratio in 2u32..=64,
                split in 0usize..600
            ) {
                let mut scalar = CicDecimator::new(order, ratio).unwrap();
                let mut block = scalar.clone();
                let expected: Vec<i64> =
                    xs.iter().filter_map(|&x| scalar.push(x)).collect();
                // An arbitrary mid-block split: integrator/comb state and
                // the decimation phase must carry across the seam.
                let mut out = Vec::new();
                let cut = split % xs.len();
                block.push_block(&xs[..cut], &mut out);
                block.push_block(&xs[cut..], &mut out);
                prop_assert_eq!(&out, &expected);
                prop_assert_eq!(block.integrators, scalar.integrators);
                prop_assert_eq!(block.combs, scalar.combs);
                prop_assert_eq!(block.phase(), scalar.phase());
            }
        }
    }
}
