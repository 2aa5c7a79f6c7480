//! Error type for platform emulation.

/// Errors produced by the ISIF platform emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsifError {
    /// A channel index outside 0..4 was requested.
    NoSuchChannel {
        /// The offending index.
        index: usize,
    },
    /// EEPROM record failed its CRC check.
    CorruptRecord {
        /// Record slot index.
        slot: usize,
    },
    /// EEPROM slot does not contain a record.
    EmptySlot {
        /// Record slot index.
        slot: usize,
    },
    /// EEPROM record payload too large for a slot.
    RecordTooLarge {
        /// Requested payload size in bytes.
        size: usize,
        /// Slot capacity in bytes.
        capacity: usize,
    },
    /// A UART frame failed to decode.
    FrameError {
        /// What went wrong.
        reason: &'static str,
    },
    /// A sub-block rejected its configuration.
    Config {
        /// Description of the rejected configuration.
        reason: String,
    },
}

impl core::fmt::Display for IsifError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IsifError::NoSuchChannel { index } => {
                write!(f, "no such input channel: {index} (platform has 4)")
            }
            IsifError::CorruptRecord { slot } => {
                write!(f, "eeprom record in slot {slot} failed crc check")
            }
            IsifError::EmptySlot { slot } => write!(f, "eeprom slot {slot} is empty"),
            IsifError::RecordTooLarge { size, capacity } => {
                write!(f, "record of {size} bytes exceeds slot capacity {capacity}")
            }
            IsifError::FrameError { reason } => write!(f, "uart frame error: {reason}"),
            IsifError::Config { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for IsifError {}

impl From<hotwire_afe::AfeError> for IsifError {
    fn from(e: hotwire_afe::AfeError) -> Self {
        IsifError::Config {
            reason: e.to_string(),
        }
    }
}

impl From<hotwire_dsp::DspError> for IsifError {
    fn from(e: hotwire_dsp::DspError) -> Self {
        IsifError::Config {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(IsifError::NoSuchChannel { index: 9 }
            .to_string()
            .contains('9'));
        assert!(IsifError::CorruptRecord { slot: 2 }
            .to_string()
            .contains("crc"));
    }

    #[test]
    fn conversions_from_subcrates() {
        let afe_err = hotwire_afe::AfeError::NonPositive {
            name: "vref",
            value: 0.0,
        };
        let e: IsifError = afe_err.into();
        assert!(matches!(e, IsifError::Config { .. }));
        let dsp_err = hotwire_dsp::DspError::InvalidConfig {
            name: "order",
            constraint: "1..=6",
        };
        let e: IsifError = dsp_err.into();
        assert!(e.to_string().contains("order"));
    }
}
