//! Telemetry encoding of measurements for the probe's UART/SPI link.
//!
//! §6 envisions probes "widely diffused all over the water distribution
//! channels" reporting to the network operator. This module defines the wire
//! record — fixed-point fields, explicitly little-endian — and rides it on
//! the CRC-framed UART transport from `hotwire-isif`.

use crate::direction::FlowDirection;
use crate::flow_meter::Measurement;
use crate::health::HealthState;
use crate::CoreError;
use hotwire_isif::uart::encode_frame;

/// Wire version tag of the record layout.
pub const RECORD_VERSION: u8 = 1;
/// Encoded record length in bytes.
pub const RECORD_LEN: usize = 16;

/// Why a CRC-valid frame payload failed to parse as a [`TelemetryRecord`].
///
/// The UART CRC guards against *transport* corruption; these are *content*
/// errors — a well-framed payload that is not a valid record (foreign
/// traffic on the link, a newer firmware's layout, or corruption that
/// happened before framing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Payload length differs from [`RECORD_LEN`].
    WrongLength,
    /// Version byte is not [`RECORD_VERSION`].
    UnknownVersion,
    /// Direction code is outside 0..=2.
    BadDirection,
}

/// Tally of record-level decode outcomes from a frame stream.
///
/// An ingest service [`tally`](Self::tally)s the [`TelemetryRecord::parse`]
/// outcome of every CRC-valid payload here, malformed ones included, so it
/// can account for every frame the link layer delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordDecodeStats {
    /// Frames that parsed into valid records.
    pub records: u64,
    /// Frames whose payload length was not [`RECORD_LEN`].
    pub wrong_length: u64,
    /// Frames with an unknown version byte.
    pub unknown_version: u64,
    /// Frames with an invalid direction code.
    pub bad_direction: u64,
}

impl RecordDecodeStats {
    /// Records one parse outcome.
    pub fn tally(&mut self, outcome: &Result<TelemetryRecord, RecordError>) {
        match outcome {
            Ok(_) => self.records += 1,
            Err(RecordError::WrongLength) => self.wrong_length += 1,
            Err(RecordError::UnknownVersion) => self.unknown_version += 1,
            Err(RecordError::BadDirection) => self.bad_direction += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &RecordDecodeStats) {
        self.records += other.records;
        self.wrong_length += other.wrong_length;
        self.unknown_version += other.unknown_version;
        self.bad_direction += other.bad_direction;
    }
}

/// The compact telemetry record sent per reporting interval.
///
/// Layout (little-endian):
///
/// ```text
/// 0      version (u8)
/// 1      direction (0 = indeterminate, 1 = forward, 2 = reverse)
/// 2..4   flags (u16): bit0 bubble, bit1 fouling, bit2 saturated,
///        bits 3–4 health state ([`HealthState::code`])
/// 4..8   signed velocity in hundredths of cm/s (i32)
/// 8..12  conductance in nW/K (u32)
/// 12..16 control tick (u32, wrapping)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Signed velocity in hundredths of cm/s.
    pub velocity_centi_cm_s: i32,
    /// Direction code.
    pub direction: FlowDirection,
    /// Fault bits.
    pub bubble: bool,
    /// Fouling-drift bit.
    pub fouling: bool,
    /// Loop-saturation bit.
    pub saturated: bool,
    /// Aggregate health state (2-bit field on the wire).
    pub health: HealthState,
    /// Conductance in nW/K.
    pub conductance_nw_per_k: u32,
    /// Control tick (wrapping).
    pub tick: u32,
}

impl TelemetryRecord {
    /// Builds a record from a conditioned measurement.
    ///
    /// Non-finite values cannot ride the fixed-point wire honestly: `clamp`
    /// preserves NaN and the saturating `as` cast would then encode it as a
    /// plausible-looking 0. A NaN velocity or conductance (a poisoned King
    /// inversion, e.g. from a corrupt calibration record) is therefore
    /// encoded as 0 **with the `saturated` flag raised**, so the receiver
    /// sees an out-of-band measurement instead of a silent zero-flow report.
    pub fn from_measurement(m: &Measurement) -> Self {
        let v = m.velocity.to_cm_per_s() * 100.0;
        let g = m.conductance.get() * 1e9;
        let poisoned = v.is_nan() || g.is_nan();
        TelemetryRecord {
            velocity_centi_cm_s: if v.is_nan() {
                0
            } else {
                v.clamp(i32::MIN as f64, i32::MAX as f64) as i32
            },
            direction: m.direction,
            bubble: m.faults.bubble_activity,
            fouling: m.faults.fouling_suspected,
            saturated: m.faults.loop_saturated || poisoned,
            health: m.health,
            conductance_nw_per_k: if g.is_nan() {
                0
            } else {
                g.clamp(0.0, u32::MAX as f64) as u32
            },
            tick: (m.tick & 0xFFFF_FFFF) as u32,
        }
    }

    /// Serializes to the 16-byte wire layout.
    pub fn to_bytes(&self) -> [u8; RECORD_LEN] {
        let mut out = [0u8; RECORD_LEN];
        out[0] = RECORD_VERSION;
        out[1] = match self.direction {
            FlowDirection::Indeterminate => 0,
            FlowDirection::Forward => 1,
            FlowDirection::Reverse => 2,
        };
        let flags: u16 = (self.bubble as u16)
            | ((self.fouling as u16) << 1)
            | ((self.saturated as u16) << 2)
            | ((self.health.code() as u16) << 3);
        out[2..4].copy_from_slice(&flags.to_le_bytes());
        out[4..8].copy_from_slice(&self.velocity_centi_cm_s.to_le_bytes());
        out[8..12].copy_from_slice(&self.conductance_nw_per_k.to_le_bytes());
        out[12..16].copy_from_slice(&self.tick.to_le_bytes());
        out
    }

    /// Deserializes from the wire layout.
    ///
    /// # Errors
    ///
    /// Returns a [`RecordError`] naming which validation failed, suitable for
    /// tallying into [`RecordDecodeStats`].
    pub fn parse(bytes: &[u8]) -> Result<Self, RecordError> {
        if bytes.len() != RECORD_LEN {
            return Err(RecordError::WrongLength);
        }
        if bytes[0] != RECORD_VERSION {
            return Err(RecordError::UnknownVersion);
        }
        let direction = match bytes[1] {
            0 => FlowDirection::Indeterminate,
            1 => FlowDirection::Forward,
            2 => FlowDirection::Reverse,
            _ => return Err(RecordError::BadDirection),
        };
        let flags = u16::from_le_bytes([bytes[2], bytes[3]]);
        Ok(TelemetryRecord {
            velocity_centi_cm_s: i32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
            direction,
            bubble: flags & 1 != 0,
            fouling: flags & 2 != 0,
            saturated: flags & 4 != 0,
            health: HealthState::from_code((flags >> 3) as u8),
            conductance_nw_per_k: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            tick: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
        })
    }

    /// Encodes the record into a complete UART frame (SOH + len + payload +
    /// CRC-16).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Platform`] only on framing errors (cannot happen
    /// for the fixed 16-byte payload).
    pub fn to_frame(&self) -> Result<Vec<u8>, CoreError> {
        Ok(encode_frame(&self.to_bytes())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultFlags;
    use hotwire_isif::uart::{FrameDecoder, FrameEvent};
    use hotwire_units::{MetersPerSecond, ThermalConductance, Watts};

    fn sample_measurement() -> Measurement {
        Measurement {
            velocity: MetersPerSecond::from_cm_per_s(-123.45),
            speed: MetersPerSecond::from_cm_per_s(123.45),
            direction: FlowDirection::Reverse,
            supply_code: 2100,
            conditioned_code: 2100,
            conductance: ThermalConductance::new(2.345e-3),
            wire_power: Watts::new(0.033),
            faults: FaultFlags {
                bubble_activity: true,
                fouling_suspected: false,
                loop_saturated: true,
            },
            health: HealthState::Recovering,
            tick: 77_000,
        }
    }

    #[test]
    fn record_round_trips_bytes() {
        let rec = TelemetryRecord::from_measurement(&sample_measurement());
        let back = TelemetryRecord::parse(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.velocity_centi_cm_s, -12345);
        assert!(back.bubble && back.saturated && !back.fouling);
        assert_eq!(back.health, HealthState::Recovering);
        assert_eq!(back.direction, FlowDirection::Reverse);
        assert_eq!(back.conductance_nw_per_k, 2_345_000);
    }

    #[test]
    fn health_states_round_trip_on_the_wire() {
        for h in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Faulted,
            HealthState::Recovering,
        ] {
            let rec = TelemetryRecord {
                health: h,
                ..TelemetryRecord::from_measurement(&sample_measurement())
            };
            let back = TelemetryRecord::parse(&rec.to_bytes()).unwrap();
            assert_eq!(back.health, h);
            // The neighbouring fault bits are untouched by the 2-bit field.
            assert!(back.bubble && back.saturated && !back.fouling);
        }
    }

    #[test]
    fn record_rides_the_uart_framing() {
        let rec = TelemetryRecord::from_measurement(&sample_measurement());
        let mut wire = vec![0x00, 0xFF]; // line noise
        wire.extend(rec.to_frame().unwrap());
        wire.push(0x55); // more noise
        wire.extend(rec.to_frame().unwrap());
        let mut records = Vec::new();
        FrameDecoder::new().feed(&wire, |event| {
            if let FrameEvent::Payload(payload) = event {
                records.push(TelemetryRecord::parse(payload));
            }
        });
        assert_eq!(records, vec![Ok(rec), Ok(rec)]);
    }

    #[test]
    fn corrupt_frame_dropped_cleanly() {
        let rec = TelemetryRecord::from_measurement(&sample_measurement());
        let mut frame = rec.to_frame().unwrap();
        frame[6] ^= 0xA5;
        let mut decoder = FrameDecoder::new();
        let mut payloads = 0;
        decoder.feed(&frame, |event| {
            payloads += u32::from(matches!(event, FrameEvent::Payload(_)));
        });
        assert_eq!(payloads, 0);
        assert_eq!(decoder.crc_errors(), 1);
    }

    #[test]
    fn tally_counts_malformed_records() {
        let rec = TelemetryRecord::from_measurement(&sample_measurement());
        // Four CRC-valid frames: one good record, one truncated payload, one
        // future-version record, one with a bogus direction code.
        let mut short = rec.to_bytes()[..RECORD_LEN - 2].to_vec();
        short[0] = RECORD_VERSION;
        let mut versioned = rec.to_bytes();
        versioned[0] = RECORD_VERSION + 7;
        let mut misdirected = rec.to_bytes();
        misdirected[1] = 9;
        let mut wire = rec.to_frame().unwrap();
        wire.extend(encode_frame(&short).unwrap());
        wire.extend(encode_frame(&versioned).unwrap());
        wire.extend(encode_frame(&misdirected).unwrap());

        let mut decoder = FrameDecoder::new();
        let mut stats = RecordDecodeStats::default();
        let mut records = Vec::new();
        decoder.feed(&wire, |event| {
            if let FrameEvent::Payload(payload) = event {
                let outcome = TelemetryRecord::parse(payload);
                stats.tally(&outcome);
                records.extend(outcome.ok());
            }
        });
        assert_eq!(records, vec![rec]);
        assert_eq!(
            stats,
            RecordDecodeStats {
                records: 1,
                wrong_length: 1,
                unknown_version: 1,
                bad_direction: 1,
            }
        );
        // Every CRC-valid frame is accounted for: none eaten invisibly.
        let malformed = stats.wrong_length + stats.unknown_version + stats.bad_direction;
        assert_eq!(decoder.stats().good_frames, stats.records + malformed);

        let mut merged = RecordDecodeStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(
            merged,
            RecordDecodeStats {
                records: 2,
                wrong_length: 2,
                unknown_version: 2,
                bad_direction: 2,
            }
        );
    }

    #[test]
    fn parse_names_each_validation_failure() {
        assert_eq!(
            TelemetryRecord::parse(&[0u8; 4]),
            Err(RecordError::WrongLength)
        );
        let mut bytes = [0u8; RECORD_LEN];
        bytes[0] = 99;
        assert_eq!(
            TelemetryRecord::parse(&bytes),
            Err(RecordError::UnknownVersion)
        );
        let mut bytes = [0u8; RECORD_LEN];
        bytes[0] = RECORD_VERSION;
        bytes[1] = 9;
        assert_eq!(
            TelemetryRecord::parse(&bytes),
            Err(RecordError::BadDirection)
        );
    }

    #[test]
    fn velocity_clamps_at_wire_limits() {
        let m = Measurement {
            velocity: MetersPerSecond::new(1e9),
            ..sample_measurement()
        };
        let rec = TelemetryRecord::from_measurement(&m);
        assert_eq!(rec.velocity_centi_cm_s, i32::MAX);
    }

    #[test]
    fn nan_measurement_is_flagged_not_zeroed_silently() {
        // Start from a measurement with NO fault flags, so the only way the
        // wire record can carry `saturated` is the NaN detection itself.
        let m = Measurement {
            velocity: MetersPerSecond::new(f64::NAN),
            faults: FaultFlags::default(),
            ..sample_measurement()
        };
        let rec = TelemetryRecord::from_measurement(&m);
        assert_eq!(rec.velocity_centi_cm_s, 0);
        assert!(rec.saturated, "NaN velocity must raise the saturated flag");
        // The flag survives the wire round trip.
        let back = TelemetryRecord::parse(&rec.to_bytes()).unwrap();
        assert_eq!(back, rec);
        assert!(back.saturated);

        // A NaN conductance is caught the same way.
        let m = Measurement {
            conductance: ThermalConductance::new(f64::NAN),
            faults: FaultFlags::default(),
            ..sample_measurement()
        };
        let rec = TelemetryRecord::from_measurement(&m);
        assert_eq!(rec.conductance_nw_per_k, 0);
        assert!(rec.saturated);

        // And a clean measurement still reports a clean flag word.
        let m = Measurement {
            faults: FaultFlags::default(),
            ..sample_measurement()
        };
        assert!(!TelemetryRecord::from_measurement(&m).saturated);
    }
}
