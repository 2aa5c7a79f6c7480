//! CRC-protected calibration storage — ISIF's EEPROM.
//!
//! Calibration (King's-law constants, bridge trims) must survive power
//! cycles and be trusted: each record slot carries a CRC-16/CCITT over its
//! payload, checked on every read.

use crate::IsifError;

/// Number of record slots.
pub const SLOT_COUNT: usize = 8;
/// Payload capacity of one slot in bytes.
pub const SLOT_CAPACITY: usize = 64;

/// CRC-16/CCITT generator polynomial.
const CRC16_POLY: u16 = 0x1021;

/// Slice-by-4 tables for [`crc16_ccitt`], built at compile time:
/// `CRC16_TABLES[k][i]` is the CRC contribution of byte `i` followed by
/// `k` zero bytes, i.e. `i·x^(16+8k) mod P`.
static CRC16_TABLES: [[u16; 256]; 4] = {
    let mut tables = [[0u16; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC16_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
///
/// Four bytes per step through independent table lookups (slice-by-4),
/// then one byte per step for the tail.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let [t0, t1, t2, t3] = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        let [hi, lo] = crc.to_be_bytes();
        crc = t3[(hi ^ w[0]) as usize]
            ^ t2[(lo ^ w[1]) as usize]
            ^ t1[w[2] as usize]
            ^ t0[w[3] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc << 8) ^ t0[((crc >> 8) as u8 ^ byte) as usize];
    }
    crc
}

#[derive(Debug, Clone)]
struct Slot {
    len: usize,
    crc: u16,
    data: [u8; SLOT_CAPACITY],
    written: bool,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            len: 0,
            crc: 0,
            data: [0; SLOT_CAPACITY],
            written: false,
        }
    }
}

/// A slot-organized calibration EEPROM with per-record CRC.
///
/// ```
/// use hotwire_isif::CalibrationStore;
///
/// let mut eeprom = CalibrationStore::new();
/// eeprom.write_record(0, b"king a=3.5e-4")?;
/// assert_eq!(eeprom.read_record(0)?, b"king a=3.5e-4");
/// # Ok::<(), hotwire_isif::IsifError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CalibrationStore {
    slots: [Slot; SLOT_COUNT],
    slot_write_cycles: [u64; SLOT_COUNT],
}

impl CalibrationStore {
    /// Creates an erased store.
    pub fn new() -> Self {
        CalibrationStore::default()
    }

    /// Writes a record into `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::NoSuchChannel`]-style slot error for an invalid
    /// slot, or [`IsifError::RecordTooLarge`] if the payload exceeds
    /// [`SLOT_CAPACITY`].
    pub fn write_record(&mut self, slot: usize, payload: &[u8]) -> Result<(), IsifError> {
        let s = self
            .slots
            .get_mut(slot)
            .ok_or(IsifError::EmptySlot { slot })?;
        if payload.len() > SLOT_CAPACITY {
            return Err(IsifError::RecordTooLarge {
                size: payload.len(),
                capacity: SLOT_CAPACITY,
            });
        }
        s.data[..payload.len()].copy_from_slice(payload);
        s.len = payload.len();
        s.crc = crc16_ccitt(payload);
        s.written = true;
        self.slot_write_cycles[slot] += 1;
        Ok(())
    }

    /// Reads the record in `slot`, verifying its CRC.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::EmptySlot`] if nothing was written, or
    /// [`IsifError::CorruptRecord`] if the CRC check fails.
    pub fn read_record(&self, slot: usize) -> Result<&[u8], IsifError> {
        let s = self.slots.get(slot).ok_or(IsifError::EmptySlot { slot })?;
        if !s.written {
            return Err(IsifError::EmptySlot { slot });
        }
        let payload = &s.data[..s.len];
        if crc16_ccitt(payload) != s.crc {
            return Err(IsifError::CorruptRecord { slot });
        }
        Ok(payload)
    }

    /// Write cycles accumulated by one slot (per-slot wear accounting).
    ///
    /// EEPROM endurance is a per-cell limit, not a device-global one: a
    /// policy that hammers the primary slot while barely touching the
    /// mirror wears the primary out first even though the global counter
    /// looks fine. Out-of-range slots report 0.
    #[inline]
    pub fn slot_write_cycles(&self, slot: usize) -> u64 {
        self.slot_write_cycles.get(slot).copied().unwrap_or(0)
    }

    /// The highest per-slot write-cycle count — the wear-levelling figure
    /// an event-triggered persistence policy rate-limits against.
    #[inline]
    pub fn max_slot_wear(&self) -> u64 {
        self.slot_write_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Deliberately corrupts a byte of a slot (for fault-injection tests).
    pub fn corrupt(&mut self, slot: usize, byte: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            if byte < s.len {
                s.data[byte] ^= 0xFF;
            }
        }
    }

    /// Serializes an `f64` array into a record payload (little-endian).
    pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes a record payload back into `f64`s.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::FrameError`] if the payload length is not a
    /// multiple of 8.
    pub fn decode_f64s(payload: &[u8]) -> Result<Vec<f64>, IsifError> {
        if payload.len() % 8 != 0 {
            return Err(IsifError::FrameError {
                reason: "payload length not a multiple of 8",
            });
        }
        Ok(payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn write_read_round_trip() {
        let mut e = CalibrationStore::new();
        e.write_record(3, b"hello").unwrap();
        assert_eq!(e.read_record(3).unwrap(), b"hello");
        assert_eq!(e.slot_write_cycles(3), 1);
    }

    #[test]
    fn empty_slot_reports() {
        let e = CalibrationStore::new();
        assert!(matches!(e.read_record(0), Err(IsifError::EmptySlot { .. })));
        assert!(matches!(
            e.read_record(99),
            Err(IsifError::EmptySlot { .. })
        ));
    }

    #[test]
    fn per_slot_wear_is_counted() {
        let mut e = CalibrationStore::new();
        e.write_record(0, b"a").unwrap();
        e.write_record(0, b"b").unwrap();
        e.write_record(7, b"m").unwrap();
        assert_eq!(e.slot_write_cycles(0), 2);
        assert_eq!(e.slot_write_cycles(7), 1);
        assert_eq!(e.slot_write_cycles(3), 0);
        assert_eq!(e.slot_write_cycles(99), 0);
        assert_eq!(e.max_slot_wear(), 2);
    }

    #[test]
    fn corruption_is_detected() {
        let mut e = CalibrationStore::new();
        e.write_record(1, b"calibration").unwrap();
        e.corrupt(1, 4);
        assert!(matches!(
            e.read_record(1),
            Err(IsifError::CorruptRecord { slot: 1 })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut e = CalibrationStore::new();
        let big = [0u8; SLOT_CAPACITY + 1];
        assert!(matches!(
            e.write_record(0, &big),
            Err(IsifError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn f64_encoding_round_trip() {
        let values = [3.5e-4, 1.1e-3, 0.5, -273.15];
        let payload = CalibrationStore::encode_f64s(&values);
        let back = CalibrationStore::decode_f64s(&payload).unwrap();
        assert_eq!(back, values);
        assert!(CalibrationStore::decode_f64s(&payload[..7]).is_err());
    }

    #[test]
    fn f64_record_survives_eeprom() {
        let mut e = CalibrationStore::new();
        let king = [3.47e-4, 1.92e-3, 0.5];
        e.write_record(2, &CalibrationStore::encode_f64s(&king))
            .unwrap();
        let back = CalibrationStore::decode_f64s(e.read_record(2).unwrap()).unwrap();
        assert_eq!(back, king);
    }
}
