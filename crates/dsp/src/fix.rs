//! Saturating Q-format fixed-point arithmetic.
//!
//! ISIF's digital IPs and the LEON software peripherals compute in two's
//! complement integers; [`Fx`] reproduces that bit-exactly: an `i32` holding
//! `value · 2^FRAC`, with all arithmetic saturating at the `i32` rails (the
//! hardware behaviour of the DSP datapath) and multiplication carried out in
//! a 64-bit intermediate with round-half-up, as a MAC unit would.
//!
//! ```
//! use hotwire_dsp::fix::Q15;
//!
//! let a = Q15::from_f64(0.5);
//! let b = Q15::from_f64(0.25);
//! assert!((a.mul(b).to_f64() - 0.125).abs() < 1e-4);
//! // Saturation instead of wrap-around (Q17.15 tops out at 65536):
//! let big = Q15::from_f64(1.0e6);
//! assert_eq!(big, Q15::MAX);
//! ```

/// A fixed-point number with `FRAC` fractional bits stored in an `i32`.
///
/// `FRAC` must be ≤ 31 (enforced at compile time via the `from_f64` scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Fx<const FRAC: u32>(i32);

/// Q17.15: ±65536 range, 2⁻¹⁵ ≈ 3.05·10⁻⁵ resolution — FIR coefficients and
/// audio-rate samples.
pub type Q15 = Fx<15>;
/// Q16.16: ±32768 range — controller gains.
pub type Q16 = Fx<16>;
/// Q2.30: ±2 range, 9.3·10⁻¹⁰ resolution — IIR coefficients.
pub type Q30 = Fx<30>;

#[allow(clippy::should_implement_trait)] // saturating ops deliberately named add/sub/mul/div/neg
impl<const FRAC: u32> Fx<FRAC> {
    /// The largest representable value.
    pub const MAX: Self = Fx(i32::MAX);
    /// The smallest (most negative) representable value.
    pub const MIN: Self = Fx(i32::MIN);
    /// Zero.
    pub const ZERO: Self = Fx(0);
    /// One (saturates to `MAX` if `FRAC == 31`).
    pub const ONE: Self = Fx(if FRAC >= 31 { i32::MAX } else { 1 << FRAC });

    /// Builds from a raw two's-complement word.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Fx(raw)
    }

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

    /// Saturating addition.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        Fx(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        Fx(self.0.saturating_sub(rhs.0))
    }

    /// Saturating negation (`-MIN` saturates to `MAX`).
    #[inline]
    pub fn neg(self) -> Self {
        Fx(self.0.checked_neg().unwrap_or(i32::MAX))
    }

    /// Saturating multiplication with round-half-up in a 64-bit intermediate,
    /// as the hardware MAC computes it.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        let wide = self.0 as i64 * rhs.0 as i64;
        // FRAC == 0 (integer format) has no half-LSB to add — and the naive
        // `1 << (FRAC - 1)` rounding bias would shift by u32::MAX.
        let half = if FRAC == 0 { 0 } else { 1i64 << (FRAC - 1) };
        let rounded = (wide + half) >> FRAC;
        Fx(saturate_i32(rounded))
    }

    /// Multiplies by a fixed-point value with a *different* Q format,
    /// returning `self`'s format — the common "sample × coefficient" MAC.
    #[inline]
    pub fn mul_q<const F2: u32>(self, rhs: Fx<F2>) -> Self {
        let wide = self.0 as i64 * rhs.0 as i64;
        let half = if F2 == 0 { 0 } else { 1i64 << (F2 - 1) };
        let rounded = (wide + half) >> F2;
        Fx(saturate_i32(rounded))
    }

    /// Saturating division (rounds toward nearest).
    ///
    /// # Panics
    ///
    /// Panics on division by zero, like integer division.
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        let num = (self.0 as i64) << FRAC;
        let half = (rhs.0 as i64).abs() / 2 * (num.signum() * (rhs.0 as i64).signum());
        Fx(saturate_i32((num + half) / rhs.0 as i64))
    }

    /// Absolute value, saturating (`|MIN|` → `MAX`).
    #[inline]
    pub fn abs(self) -> Self {
        Fx(self.0.checked_abs().unwrap_or(i32::MAX))
    }

    /// `true` if the value sits at either saturation rail.
    #[inline]
    pub fn is_saturated(self) -> bool {
        self.0 == i32::MAX || self.0 == i32::MIN
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

/// Clamps a 128-bit-safe accumulator to an arbitrary signed bit width
/// (`bits ≤ 63`), used by wide datapaths (CIC output registers).
#[inline]
pub fn saturate_bits(x: i64, bits: u32) -> i64 {
    debug_assert!((1..=63).contains(&bits));
    let max = (1i64 << (bits - 1)) - 1;
    x.clamp(-max - 1, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_accuracy() {
        for &x in &[0.0, 0.5, -0.25, 0.999, -0.999, 0.123456] {
            let q = Q15::from_f64(x);
            assert!((q.to_f64() - x).abs() <= 1.0 / 32768.0, "x={x}");
        }
    }

    #[test]
    fn one_constant() {
        assert_eq!(Q15::ONE.raw(), 1 << 15);
        assert!((Q15::ONE.to_f64() - 1.0).abs() < 1e-12);
        assert_eq!(Fx::<31>::ONE.raw(), i32::MAX);
    }

    #[test]
    fn addition_saturates() {
        let a = Q15::MAX;
        let b = Q15::from_f64(1.0);
        assert_eq!(a.add(b), Q15::MAX);
        assert_eq!(Q15::MIN.sub(b), Q15::MIN);
    }

    #[test]
    fn multiplication_accuracy() {
        let a = Q30::from_f64(core::f64::consts::FRAC_1_SQRT_2);
        let b = Q30::from_f64(core::f64::consts::FRAC_1_SQRT_2);
        assert!((a.mul(b).to_f64() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn multiplication_saturates() {
        let a = Q15::from_f64(65535.0);
        assert_eq!(a.mul(a), Q15::MAX);
        let n = Q15::from_f64(-65535.0);
        assert_eq!(n.mul(a), Q15::MIN);
    }

    #[test]
    fn mixed_format_mac() {
        let sample = Q15::from_f64(0.5);
        let coeff = Q30::from_f64(0.25);
        let y = sample.mul_q(coeff);
        assert!((y.to_f64() - 0.125).abs() < 1e-4);
    }

    #[test]
    fn division() {
        let a = Q16::from_f64(1.0);
        let b = Q16::from_f64(4.0);
        assert!((a.div(b).to_f64() - 0.25).abs() < 1e-4);
        let c = Q16::from_f64(-1.0);
        assert!((c.div(b).to_f64() + 0.25).abs() < 1e-4);
    }

    #[test]
    fn negation_and_abs_saturate() {
        assert_eq!(Q15::MIN.neg(), Q15::MAX);
        assert_eq!(Q15::MIN.abs(), Q15::MAX);
        assert_eq!(Q15::from_f64(-0.5).abs(), Q15::from_f64(0.5));
    }

    #[test]
    fn integer_format_mul_has_no_rounding_bias() {
        // Regression: Fx<0> (pure integer) used to compute the rounding
        // term as `1 << (FRAC - 1)` — a shift by u32::MAX.
        type Int = Fx<0>;
        assert_eq!(
            Int::from_f64(6.0).mul(Int::from_f64(7.0)),
            Int::from_f64(42.0)
        );
        assert_eq!(
            Int::from_f64(-6.0).mul(Int::from_f64(7.0)),
            Int::from_f64(-42.0)
        );
        assert_eq!(Int::MAX.mul(Int::MAX), Int::MAX);
        assert_eq!(Int::ONE.raw(), 1);
        // Mixed-format MAC with a zero-fraction coefficient.
        let sample = Q15::from_f64(0.5);
        let gain = Fx::<0>::from_f64(3.0);
        assert!((sample.mul_q(gain).to_f64() - 1.5).abs() < 1e-4);
    }

    #[test]
    fn from_f64_nan_saturates_to_zero() {
        // Regression: NaN used to quantize silently (`NaN.round() as i32`
        // → 0). It still maps to zero, but explicitly — and debug builds
        // trap it at the boundary.
        #[cfg(debug_assertions)]
        {
            let caught = std::panic::catch_unwind(|| Q15::from_f64(f64::NAN));
            assert!(caught.is_err(), "debug build must assert on NaN");
        }
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(Q15::from_f64(f64::NAN), Q15::ZERO);
            assert_eq!(Fx::<0>::from_f64(f64::NAN), Fx::<0>::ZERO);
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q15::from_f64(1e9), Q15::MAX);
        assert_eq!(Q15::from_f64(-1e9), Q15::MIN);
        assert!(Q15::from_f64(1e9).is_saturated());
    }

    #[test]
    fn saturate_helpers() {
        assert_eq!(saturate_i32(i64::MAX), i32::MAX);
        assert_eq!(saturate_i32(i64::MIN), i32::MIN);
        assert_eq!(saturate_i32(42), 42);
        assert_eq!(saturate_bits(1 << 40, 24), (1 << 23) - 1);
        assert_eq!(saturate_bits(-(1 << 40), 24), -(1 << 23));
        assert_eq!(saturate_bits(1000, 24), 1000);
    }

    #[test]
    fn display_shows_format() {
        let s = format!("{}", Q15::from_f64(0.5));
        assert!(s.contains("q15"), "{s}");
    }
}
