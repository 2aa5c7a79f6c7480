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
    fn display_shows_format() {
        let s = format!("{}", Fx::<15>::from_f64(0.5));
        assert!(s.contains("q15"), "{s}");
    }
}
