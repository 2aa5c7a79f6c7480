//! Thermometer-coded DACs — the sensor-driving stage.
//!
//! "The sensor driving stage of the platform is provided by a set of
//! configurable 12 bit and 10 bit thermometer DACs." A thermometer DAC
//! switches in one nominally-equal element per code, so it is monotonic *by
//! construction* regardless of element mismatch — exactly the property a
//! control loop actuator needs. Element mismatch shows up as integral
//! nonlinearity only.

use crate::error::{ensure_in_range, ensure_positive};
use crate::AfeError;
use hotwire_units::Volts;
use rand::distributions::StandardNormal;
use rand::Rng;

/// A thermometer-coded DAC with per-element mismatch.
///
/// ```
/// use hotwire_afe::ThermometerDac;
/// use hotwire_units::Volts;
///
/// let dac = ThermometerDac::ideal(12, Volts::new(5.0))?;
/// assert_eq!(dac.convert(0).get(), 0.0);
/// assert!((dac.convert(4095).get() - 5.0).abs() < 1e-9);
/// assert!((dac.convert(2048).get() - 2.5).abs() < 0.01);
/// # Ok::<(), hotwire_afe::AfeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThermometerDac {
    bits: u32,
    vref: Volts,
    /// Cumulative element weights, pre-summed: `cumulative[c]` = output
    /// fraction at code `c`.
    cumulative: Vec<f64>,
}

impl ThermometerDac {
    /// Creates an ideal DAC (zero mismatch) with `bits` resolution and output
    /// span `0..=vref`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for unsupported bit widths (4..=14) or a
    /// non-positive reference.
    pub fn ideal(bits: u32, vref: Volts) -> Result<Self, AfeError> {
        Self::with_mismatch(bits, vref, 0.0, &mut NoRng)
    }

    /// Creates a DAC whose unit elements carry Gaussian mismatch with the
    /// given relative sigma (e.g. `0.001` = 0.1 % element matching).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for unsupported bit widths, a non-positive
    /// reference, or a mismatch sigma outside `[0, 0.05]`.
    pub fn with_mismatch<R: Rng + ?Sized>(
        bits: u32,
        vref: Volts,
        element_sigma: f64,
        rng: &mut R,
    ) -> Result<Self, AfeError> {
        ensure_in_range("bits", bits as f64, 4.0, 14.0)?;
        ensure_positive("vref", vref.get())?;
        ensure_in_range("element_sigma", element_sigma, 0.0, 0.05)?;
        let n = 1usize << bits;
        let mut weights: Vec<f64> = (0..n - 1)
            .map(|_| 1.0 + element_sigma * rng.sample::<f64, _>(StandardNormal))
            .collect();
        // Elements are physical resistor/current cells: never negative.
        for w in &mut weights {
            *w = w.max(0.0);
        }
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(n);
        cumulative.push(0.0);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        Ok(ThermometerDac {
            bits,
            vref,
            cumulative,
        })
    }

    /// Resolution in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale output.
    #[inline]
    pub fn vref(&self) -> Volts {
        self.vref
    }

    /// Largest accepted code.
    #[inline]
    pub fn max_code(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// One ideal LSB step.
    pub fn lsb(&self) -> Volts {
        self.vref / (self.max_code() as f64)
    }

    /// Converts a code to the output voltage. Codes above full scale clamp.
    pub fn convert(&self, code: u32) -> Volts {
        let c = (code.min(self.max_code())) as usize;
        self.vref * self.cumulative[c]
    }

    /// The code whose nominal output is closest to `v` (inverse conversion
    /// for loop pre-charging).
    pub fn code_for(&self, v: Volts) -> u32 {
        let frac = (v.get() / self.vref.get()).clamp(0.0, 1.0);
        (frac * self.max_code() as f64).round() as u32
    }

    /// Worst-case integral nonlinearity in LSBs.
    pub fn inl_lsb(&self) -> f64 {
        let n = self.max_code() as f64;
        self.cumulative
            .iter()
            .enumerate()
            .map(|(c, &f)| (f - c as f64 / n).abs() * n)
            .fold(0.0, f64::max)
    }
}

/// Zero-sized RNG stand-in for the ideal constructor (never actually
/// sampled because sigma = 0 still draws — so it must produce values).
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        0x8000_0000
    }
    fn next_u64(&mut self) -> u64 {
        0x8000_0000_8000_0000
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0x80);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xDAC)
    }

    #[test]
    fn ideal_endpoints_and_midpoint() {
        let dac = ThermometerDac::ideal(10, Volts::new(5.0)).unwrap();
        assert_eq!(dac.convert(0).get(), 0.0);
        assert!((dac.convert(dac.max_code()).get() - 5.0).abs() < 1e-12);
        assert!((dac.convert(512).get() - 5.0 * 512.0 / 1023.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_is_perfectly_linear() {
        let dac = ThermometerDac::ideal(8, Volts::new(2.0)).unwrap();
        assert!(dac.inl_lsb() < 1e-9, "INL {}", dac.inl_lsb());
    }

    #[test]
    fn monotonic_even_with_heavy_mismatch() {
        let mut r = rng();
        let dac = ThermometerDac::with_mismatch(10, Volts::new(5.0), 0.05, &mut r).unwrap();
        let mut prev = -1.0;
        for code in 0..=dac.max_code() {
            let v = dac.convert(code).get();
            assert!(v >= prev, "non-monotonic at code {code}");
            prev = v;
        }
    }

    #[test]
    fn mismatch_produces_nonzero_inl() {
        let mut r = rng();
        let dac = ThermometerDac::with_mismatch(12, Volts::new(5.0), 0.01, &mut r).unwrap();
        let inl = dac.inl_lsb();
        assert!(inl > 0.05, "INL {inl} suspiciously small for 1 % elements");
        assert!(inl < 5.0, "INL {inl} too large");
    }

    #[test]
    fn codes_clamp_at_full_scale() {
        let dac = ThermometerDac::ideal(10, Volts::new(5.0)).unwrap();
        assert_eq!(dac.convert(100_000), dac.convert(dac.max_code()));
    }

    #[test]
    fn code_for_round_trips_nominal_levels() {
        let dac = ThermometerDac::ideal(12, Volts::new(5.0)).unwrap();
        for code in [0u32, 1, 100, 2048, 4095] {
            let v = dac.convert(code);
            assert_eq!(dac.code_for(v), code, "code {code}");
        }
        assert_eq!(dac.code_for(Volts::new(99.0)), dac.max_code());
        assert_eq!(dac.code_for(Volts::new(-1.0)), 0);
    }

    #[test]
    fn lsb_magnitude() {
        let dac = ThermometerDac::ideal(12, Volts::new(5.0)).unwrap();
        assert!((dac.lsb().get() - 5.0 / 4095.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(ThermometerDac::ideal(2, Volts::new(5.0)).is_err());
        assert!(ThermometerDac::ideal(20, Volts::new(5.0)).is_err());
        assert!(ThermometerDac::ideal(10, Volts::ZERO).is_err());
        let mut r = rng();
        assert!(ThermometerDac::with_mismatch(10, Volts::new(5.0), 0.5, &mut r).is_err());
    }
}
