//! Property-based tests of the platform blocks: storage and framing must
//! round-trip arbitrary payloads and survive arbitrary corruption, and the
//! frame decoder must not care how the stream is sliced.

use hotwire_isif::eeprom::{crc16_ccitt, CalibrationStore, SLOT_CAPACITY, SLOT_COUNT};
use hotwire_isif::uart::{encode_frame, FrameDecoder, FrameEvent, LinkStats, MAX_PAYLOAD, SOH};
use hotwire_isif::IsifError;
use proptest::prelude::*;

/// How a test slices a stream for `FrameDecoder::feed`: mode 0 feeds it
/// whole, mode 1 a byte at a time, mode 2 in slices of the cycled lengths
/// (empty slices included).
type Split = (u8, Vec<usize>);

fn split_strategy() -> impl Strategy<Value = Split> {
    (0u8..3, prop::collection::vec(0usize..48, 1..16))
}

fn slices<'a>(wire: &'a [u8], (mode, lens): &Split) -> Vec<&'a [u8]> {
    match mode {
        0 => vec![wire],
        1 => wire.chunks(1).collect(),
        _ if lens.iter().all(|&n| n == 0) => vec![wire],
        _ => {
            let mut out = Vec::new();
            let mut rest = wire;
            for &n in lens.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (slice, tail) = rest.split_at(n.min(rest.len()));
                out.push(slice);
                rest = tail;
            }
            out
        }
    }
}

/// One decoder event, payload copied out.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Payload(Vec<u8>),
    CrcError,
}

impl Event {
    fn of(event: FrameEvent<'_>) -> Event {
        match event {
            FrameEvent::Payload(p) => Event::Payload(p.to_vec()),
            FrameEvent::CrcError => Event::CrcError,
        }
    }
}

/// The decoder's observable state after a prefix of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Seen {
    events: usize,
    stats: LinkStats,
    in_flight: u64,
}

/// What decoding one stream, sliced one way, produced.
struct Run {
    /// Events from `feed`, in wire order.
    events: Vec<Event>,
    /// Bytes fed so far and the state after each slice.
    after: Vec<(usize, Seen)>,
    /// Events from the closing `flush`.
    flushed: Vec<Event>,
    /// Counters after the flush.
    stats: LinkStats,
    in_flight: u64,
}

impl Run {
    fn new(wire: &[u8], split: &Split) -> Run {
        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        let mut after = Vec::new();
        let mut fed = 0;
        for slice in slices(wire, split) {
            dec.feed(slice, |e| events.push(Event::of(e)));
            fed += slice.len();
            let seen = Seen {
                events: events.len(),
                stats: dec.stats(),
                in_flight: dec.in_flight_bytes(),
            };
            after.push((fed, seen));
        }
        let mut flushed = Vec::new();
        dec.flush(|e| flushed.push(Event::of(e)));
        Run {
            events,
            after,
            flushed,
            stats: dec.stats(),
            in_flight: dec.in_flight_bytes(),
        }
    }

    /// Every payload delivered, flushed ones last.
    fn payloads(&self) -> Vec<Vec<u8>> {
        self.events
            .iter()
            .chain(&self.flushed)
            .filter_map(|e| match e {
                Event::Payload(p) => Some(p.clone()),
                Event::CrcError => None,
            })
            .collect()
    }
}

/// A hostile stream: arbitrary bytes, SOH-heavy garbage, and encoded
/// frames intact, with a bit flipped or with a byte dropped.
fn hostile_stream(parts: &[(u8, Vec<u8>, u16)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (kind, bytes, at) in parts {
        let at = *at as usize;
        match kind {
            0 => wire.extend(bytes),
            1 => wire.extend(bytes.iter().map(|&b| if b % 2 == 0 { SOH } else { b })),
            _ => {
                let mut frame = encode_frame(bytes).unwrap();
                let i = at % frame.len();
                match kind {
                    3 => frame[i] ^= 1 << (at / frame.len() % 8),
                    4 => {
                        frame.remove(i);
                    }
                    _ => {}
                }
                wire.extend(frame);
            }
        }
    }
    wire
}

/// CRC-16/CCITT-FALSE one bit at a time: the reference the table CRC
/// must match.
fn crc16_bitwise(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

proptest! {
    #[test]
    fn eeprom_round_trips_any_payload(
        slot in 0usize..SLOT_COUNT,
        payload in prop::collection::vec(any::<u8>(), 0..=SLOT_CAPACITY),
    ) {
        let mut store = CalibrationStore::new();
        store.write_record(slot, &payload).unwrap();
        prop_assert_eq!(store.read_record(slot).unwrap(), &payload[..]);
    }

    #[test]
    fn eeprom_detects_any_single_byte_corruption(
        payload in prop::collection::vec(any::<u8>(), 4..=SLOT_CAPACITY),
        byte in 0usize..SLOT_CAPACITY,
    ) {
        prop_assume!(byte < payload.len());
        let mut store = CalibrationStore::new();
        store.write_record(0, &payload).unwrap();
        store.corrupt(0, byte);
        let result = store.read_record(0);
        let corrupt = matches!(result, Err(IsifError::CorruptRecord { slot: 0 }));
        prop_assert!(corrupt, "corruption not detected");
    }

    #[test]
    fn f64_records_round_trip(values in prop::collection::vec(-1e12f64..1e12, 0..8)) {
        let payload = CalibrationStore::encode_f64s(&values);
        let back = CalibrationStore::decode_f64s(&payload).unwrap();
        prop_assert_eq!(back, values);
    }

    #[test]
    fn uart_round_trips_any_payload(
        payload in prop::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD),
        split in split_strategy(),
    ) {
        let wire = encode_frame(&payload).unwrap();
        let run = Run::new(&wire, &split);
        prop_assert_eq!(run.events, vec![Event::Payload(payload)]);
        prop_assert!(run.flushed.is_empty());
    }

    #[test]
    fn uart_survives_garbage_followed_by_idle_flush(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        payload in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Garbage may contain an accidental SOH whose false length field
        // would swallow real frames; the idle-line flush between bursts (as
        // a real UART receiver implements) restores framing deterministically.
        let mut dec = FrameDecoder::new();
        dec.feed(&garbage, |_| {});
        dec.flush(|_| {}); // inter-frame idle detected
        let mut frames = Vec::new();
        dec.feed(&encode_frame(&payload).unwrap(), |e| frames.push(Event::of(e)));
        prop_assert_eq!(frames, vec![Event::Payload(payload)]);
    }

    #[test]
    fn uart_embedded_frame_always_recovered(
        prefix in prop::collection::vec(any::<u8>(), 0..48),
        payload in prop::collection::vec(any::<u8>(), 0..48),
        suffix in prop::collection::vec(any::<u8>(), 0..48),
        split in split_strategy(),
    ) {
        // Any byte stream containing an intact encoded frame must yield
        // that frame after at most one idle flush, no matter what corrupt
        // prefix/suffix surrounds it — including prefixes ending in a
        // spurious SOH whose false length field spans the genuine frame
        // (the swallowing bug the re-hunt fix closes).
        let frame = encode_frame(&payload).unwrap();
        let mut wire = prefix.clone();
        wire.extend(&frame);
        wire.extend(&suffix);
        // The run ends in the single idle flush.
        let frames = Run::new(&wire, &split).payloads();
        prop_assert!(
            frames.contains(&payload),
            "intact frame lost: prefix {prefix:02x?}, payload {payload:02x?}, suffix {suffix:02x?}"
        );
    }

    #[test]
    fn uart_byte_ledger_is_exact(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..8),
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..4),
        split in split_strategy(),
    ) {
        // Conservation law of the decode counters: after a final flush,
        // every pushed byte was either skipped while hunting (resyncs),
        // part of a decoded frame (payload + 4 framing bytes), or
        // discarded — nothing vanishes from LinkStats, which is exactly
        // the accounting hole the flush() fix closed.
        let mut wire = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            wire.extend(chunk);
            if let Some(p) = payloads.get(i) {
                wire.extend(encode_frame(p).unwrap());
            }
        }
        let run = Run::new(&wire, &split);
        let decoded = run.payloads();
        let stats = run.stats;
        let frame_bytes: u64 = decoded.iter().map(|p| p.len() as u64 + 4).sum();
        prop_assert_eq!(
            wire.len() as u64,
            stats.resyncs + stats.discarded_bytes + frame_bytes,
            "ledger mismatch: {:?} over wire {:02x?}", stats, wire
        );
        prop_assert_eq!(stats.good_frames, decoded.len() as u64);
    }

    #[test]
    fn uart_decode_is_invariant_to_slicing(
        parts in prop::collection::vec(
            (0u8..5, prop::collection::vec(any::<u8>(), 0..40), any::<u16>()),
            0..12,
        ),
        lens in prop::collection::vec(0usize..48, 1..16),
    ) {
        // Whole, byte by byte, or in arbitrary slices: the same events in
        // the same order, and after every slice the same counters and
        // in-flight bytes as the byte-wise run at that point of the stream.
        let wire = hostile_stream(&parts);
        let bytewise = Run::new(&wire, &(1, Vec::new()));
        for split in [(0, Vec::new()), (2, lens.clone())] {
            let run = Run::new(&wire, &split);
            prop_assert_eq!(&run.events, &bytewise.events, "{:?} over {:02x?}", split, wire);
            prop_assert_eq!(&run.flushed, &bytewise.flushed);
            prop_assert_eq!(run.stats, bytewise.stats);
            for (fed, seen) in &run.after {
                let reference = match fed {
                    0 => Seen::default(),
                    n => bytewise.after[n - 1].1,
                };
                prop_assert_eq!(*seen, reference, "after {} bytes of {:02x?}", fed, wire);
            }
        }
        // The byte ledger closes before the flush (counting what is still
        // in flight) and after it (nothing is).
        let frame_bytes = |events: &[Event]| -> u64 {
            events
                .iter()
                .map(|e| match e {
                    Event::Payload(p) => p.len() as u64 + 4,
                    Event::CrcError => 0,
                })
                .sum()
        };
        let (_, last) = bytewise.after.last().copied().unwrap_or_default();
        prop_assert_eq!(
            wire.len() as u64,
            last.stats.resyncs + last.stats.discarded_bytes + frame_bytes(&bytewise.events)
                + last.in_flight
        );
        let stats = bytewise.stats;
        prop_assert_eq!(
            wire.len() as u64,
            stats.resyncs + stats.discarded_bytes
                + frame_bytes(&bytewise.events) + frame_bytes(&bytewise.flushed)
        );
        prop_assert_eq!(bytewise.in_flight, 0);
        prop_assert_eq!(stats.good_frames, bytewise.payloads().len() as u64);
        let edges = bytewise.events.iter().filter(|e| **e == Event::CrcError).count();
        prop_assert_eq!(stats.crc_errors, edges as u64);
    }

    #[test]
    fn crc16_table_matches_the_bitwise_reference(
        payload in prop::collection::vec(any::<u8>(), MAX_PAYLOAD),
    ) {
        for len in 0..=MAX_PAYLOAD {
            prop_assert_eq!(crc16_ccitt(&payload[..len]), crc16_bitwise(&payload[..len]), "length {}", len);
        }
    }

    #[test]
    fn crc16_detects_single_bit_flips(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        bit in 0usize..512,
    ) {
        prop_assume!(bit < payload.len() * 8);
        let crc = crc16_ccitt(&payload);
        let mut corrupted = payload.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc, crc16_ccitt(&corrupted));
    }
}
