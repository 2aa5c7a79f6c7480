//! Thermometer-coded DACs — the sensor-driving stage.
//!
//! "The sensor driving stage of the platform is provided by a set of
//! configurable 12 bit and 10 bit thermometer DACs." A thermometer DAC
//! switches in one nominally-equal element per code, so it is monotonic *by
//! construction* — exactly the property a control loop actuator needs. The
//! flow meter drives its bridge supply from one 12-bit instance; the model
//! is ideal, with every element an equal share of full scale.

use crate::error::{ensure_in_range, ensure_positive};
use crate::AfeError;
use hotwire_units::Volts;
use std::sync::OnceLock;

/// The narrowest supported resolution, in bits.
const MIN_BITS: u32 = 4;
/// The widest supported resolution, in bits.
const MAX_BITS: u32 = 14;

#[allow(clippy::declare_interior_mutable_const)] // only an array initialiser
const UNBUILT: OnceLock<Box<[f64]>> = OnceLock::new();

/// One running-sum table per supported width, built on first use and shared
/// by every DAC of that width.
static TABLES: [OnceLock<Box<[f64]>>; (MAX_BITS - MIN_BITS + 1) as usize] =
    [UNBUILT; (MAX_BITS - MIN_BITS + 1) as usize];

/// The output fraction of every code of a `bits`-wide DAC, `table[c]` for
/// code `c`. Each element switches in one equal share of full scale, and
/// the table is the running sum of those shares, not `code × share`: the
/// two differ in the last bit at most 12-bit codes, and the pinned digests
/// hold the sum's. The sum depends on the width alone, so it is built once
/// per width.
fn running_sum(bits: u32) -> &'static [f64] {
    TABLES[(bits - MIN_BITS) as usize].get_or_init(|| {
        let elements = (1usize << bits) - 1;
        let share = 1.0 / elements as f64;
        let mut cumulative = Vec::with_capacity(elements + 1);
        cumulative.push(0.0);
        let mut acc = 0.0;
        for _ in 0..elements {
            acc += share;
            cumulative.push(acc);
        }
        cumulative.into_boxed_slice()
    })
}

/// An ideal thermometer-coded DAC.
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
    /// fraction at code `c` (the width's shared [`running_sum`]).
    cumulative: &'static [f64],
}

impl ThermometerDac {
    /// Creates an ideal DAC with `bits` resolution and output span
    /// `0..=vref`.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for unsupported bit widths (4..=14) or a
    /// non-positive reference.
    pub fn ideal(bits: u32, vref: Volts) -> Result<Self, AfeError> {
        ensure_in_range("bits", bits as f64, MIN_BITS as f64, MAX_BITS as f64)?;
        ensure_positive("vref", vref.get())?;
        Ok(ThermometerDac {
            bits,
            vref,
            cumulative: running_sum(bits),
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

    /// Converts a code to the output voltage. Codes above full scale clamp.
    #[inline]
    pub fn convert(&self, code: u32) -> Volts {
        let c = (code.min(self.max_code())) as usize;
        self.vref * self.cumulative[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let n = dac.max_code() as f64;
        for code in 0..=dac.max_code() {
            let err = dac.convert(code).get() - 2.0 * code as f64 / n;
            assert!(err.abs() < 1e-12, "code {code}: {err}");
        }
    }

    /// Every width's shared table is the running sum summed afresh, bit
    /// for bit, and DACs of one width share it whatever their reference.
    #[test]
    fn shared_tables_equal_a_fresh_running_sum() {
        for bits in MIN_BITS..=MAX_BITS {
            let elements = (1usize << bits) - 1;
            let share = 1.0 / elements as f64;
            let mut fresh = vec![0.0_f64];
            let mut acc = 0.0;
            for _ in 0..elements {
                acc += share;
                fresh.push(acc);
            }
            let dac = ThermometerDac::ideal(bits, Volts::new(5.0)).unwrap();
            let bits_of = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits_of(dac.cumulative), bits_of(&fresh), "{bits} bits");
            let other = ThermometerDac::ideal(bits, Volts::new(1.25)).unwrap();
            assert!(
                std::ptr::eq(dac.cumulative, other.cumulative),
                "{bits} bits"
            );
        }
    }

    #[test]
    fn codes_clamp_at_full_scale() {
        let dac = ThermometerDac::ideal(10, Volts::new(5.0)).unwrap();
        assert_eq!(dac.convert(100_000), dac.convert(dac.max_code()));
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(ThermometerDac::ideal(2, Volts::new(5.0)).is_err());
        assert!(ThermometerDac::ideal(20, Volts::new(5.0)).is_err());
        assert!(ThermometerDac::ideal(10, Volts::ZERO).is_err());
    }
}
