//! Saturating Q-format fixed-point arithmetic.
//!
//! ISIF's digital IPs and the LEON software peripherals compute in two's
//! complement integers; [`Fx`] reproduces that bit-exactly: an `i32` holding
//! `value · 2^FRAC`, quantized with saturation at the `i32` rails (the
//! hardware behaviour of the DSP datapath). The blocks compute on the raw
//! words in 64-bit intermediates and clamp back with [`saturate_i32`].
//!
//! ```
//! use hotwire_dsp::fix::Q16;
//!
//! let gain = Q16::from_f64(0.25);
//! assert_eq!(gain.raw(), 1 << 14);
//! // Saturation instead of wrap-around (Q16.16 tops out at 32768):
//! let big = Q16::from_f64(1.0e6);
//! assert_eq!(big.raw(), i32::MAX);
//! ```

/// A fixed-point number with `FRAC` fractional bits stored in an `i32`.
///
/// `FRAC` must be ≤ 31 (enforced at compile time via the `from_f64` scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Fx<const FRAC: u32>(i32);

/// Q16.16: ±32768 range — controller gains.
pub type Q16 = Fx<16>;
/// Q2.30: ±2 range, 9.3·10⁻¹⁰ resolution — IIR coefficients.
pub type Q30 = Fx<30>;

impl<const FRAC: u32> Fx<FRAC> {
    /// The raw two's-complement word.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Quantizes an `f64`, rounding to nearest and saturating at the rails.
    ///
    /// `NaN` saturates to zero — the DSP datapath has no quiet-NaN code, so
    /// a poisoned upstream value must map to *something*; zero is the choice
    /// the hardware's clamp network makes. Debug builds assert so the
    /// upstream source gets caught instead of laundered.
    pub fn from_f64(x: f64) -> Self {
        debug_assert!(!x.is_nan(), "Fx::<{FRAC}>::from_f64 called with NaN");
        if x.is_nan() {
            return Fx(0);
        }
        let scaled = x * (1u64 << FRAC) as f64;
        if scaled >= i32::MAX as f64 {
            Fx(i32::MAX)
        } else if scaled <= i32::MIN as f64 {
            Fx(i32::MIN)
        } else {
            Fx(scaled.round() as i32)
        }
    }

    /// The represented value as `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1u64 << FRAC) as f64
    }
}

impl<const FRAC: u32> core::fmt::Display for Fx<FRAC> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}q{}", self.to_f64(), FRAC)
    }
}

/// Clamps a 64-bit intermediate to the `i32` rails — the saturation logic at
/// the output of every hardware accumulator.
#[inline]
pub fn saturate_i32(x: i64) -> i32 {
    x.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// `x.round() as i64` for every `f64` — half away from zero, saturating at
/// the `i64` rails, `NaN` to 0 — without branches.
///
/// On the x86-64 baseline `f64::round` is a library call into a generic
/// software `round`; this form is a truncating conversion, one exact
/// subtraction and two range tests. Wherever the truncation `t` did not
/// saturate, `x − t` is exact (Sterbenz) and lies in (−1, 1), so the half
/// tests decide the rounding; where it saturated, `x − t` is 0, at least
/// 2048 in magnitude, or infinite, and for `NaN` it is `NaN`: neither test
/// admits those, so the sum cannot overflow.
///
/// ```
/// use hotwire_dsp::fix::round_i64;
///
/// assert_eq!(round_i64(2.5), 3);
/// assert_eq!(round_i64(-2.5), -3);
/// assert_eq!(round_i64(0.49999999999999994), 0);
/// assert_eq!(round_i64(f64::NAN), 0);
/// assert_eq!(round_i64(f64::INFINITY), i64::MAX);
/// ```
#[inline]
pub fn round_i64(x: f64) -> i64 {
    let t = x as i64;
    let frac = x - t as f64;
    let up = (0.5..1.0).contains(&frac);
    let down = (0.5..1.0).contains(&-frac);
    t + i64::from(up) - i64::from(down)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_accuracy() {
        for &x in &[0.0, 0.5, -0.25, 0.999, -0.999, 0.123456] {
            let q = Fx::<15>::from_f64(x);
            assert!((q.to_f64() - x).abs() <= 1.0 / 32768.0, "x={x}");
        }
    }

    #[test]
    fn from_f64_nan_saturates_to_zero() {
        // Regression: NaN used to quantize silently (`NaN.round() as i32`
        // → 0). It still maps to zero, but explicitly — and debug builds
        // trap it at the boundary.
        #[cfg(debug_assertions)]
        {
            let caught = std::panic::catch_unwind(|| Fx::<15>::from_f64(f64::NAN));
            assert!(caught.is_err(), "debug build must assert on NaN");
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(Fx::<15>::from_f64(f64::NAN).raw(), 0);
            assert_eq!(Fx::<0>::from_f64(f64::NAN).raw(), 0);
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Fx::<15>::from_f64(1e9).raw(), i32::MAX);
        assert_eq!(Fx::<15>::from_f64(-1e9).raw(), i32::MIN);
    }

    #[test]
    fn saturate_helpers() {
        assert_eq!(saturate_i32(i64::MAX), i32::MAX);
        assert_eq!(saturate_i32(i64::MIN), i32::MIN);
        assert_eq!(saturate_i32(42), 42);
    }

    #[test]
    fn round_i64_matches_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let two63 = 9_223_372_036_854_775_808.0_f64;
        let named = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            0.5000000000000001,
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two63,
            two63 - 1024.0,
            two63 + 2048.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::EPSILON,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ];
        for &x in &named {
            for v in [x, -x] {
                // Each edge and its neighbours in the bit order, ties' too.
                let bits = v.to_bits();
                for w in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)].map(f64::from_bits) {
                    assert_eq!(round_i64(w), w.round() as i64, "{w:e} ({:#x})", w.to_bits());
                }
            }
        }
    }

    #[test]
    fn display_shows_format() {
        let s = format!("{}", Fx::<15>::from_f64(0.5));
        assert!(s.contains("q15"), "{s}");
    }
}
