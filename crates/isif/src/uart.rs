//! UART telemetry framing — the link carrying measurements off the probe.
//!
//! Frame format: `0xA5 | len(1) | payload(len) | crc16(2, big-endian)`,
//! CRC-16/CCITT over the payload. The decoder resynchronizes over whatever
//! slices of the stream it is fed: garbage between frames is skipped,
//! truncated or corrupt frames are counted and dropped, and a frame that
//! lies whole inside one slice is checked and delivered in place.

use crate::eeprom::crc16_ccitt;
use crate::IsifError;

/// Frame start-of-header byte.
pub const SOH: u8 = 0xA5;
/// Maximum payload bytes per frame.
pub const MAX_PAYLOAD: usize = 255;

/// Encodes one telemetry frame.
///
/// # Errors
///
/// Returns [`IsifError::FrameError`] if the payload exceeds
/// [`MAX_PAYLOAD`].
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, IsifError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(IsifError::FrameError {
            reason: "payload exceeds 255 bytes",
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.push(SOH);
    out.push(payload.len() as u8);
    out.extend_from_slice(payload);
    let crc = crc16_ccitt(payload);
    out.extend_from_slice(&crc.to_be_bytes());
    Ok(out)
}

/// A snapshot of the decoder's cumulative link counters.
///
/// The first three counters keep their historical semantics exactly; the
/// remaining three were added with the re-hunt/flush accounting fixes and
/// together close the byte ledger: every byte fed is either skipped
/// while hunting (`resyncs`), part of a decoded frame, discarded
/// (`discarded_bytes`), or still in flight inside the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct LinkStats {
    /// Frames decoded successfully (including recovered ones).
    pub good_frames: u64,
    /// Frames dropped for CRC mismatch.
    pub crc_errors: u64,
    /// Bytes skipped while hunting for a start-of-header.
    pub resyncs: u64,
    /// Frames recovered by re-scanning the bytes of a dropped or aborted
    /// frame (also counted in `good_frames`).
    pub recovered_frames: u64,
    /// In-flight frames abandoned by an idle-line [`FrameDecoder::flush`]
    /// (including partial frames re-adopted and re-abandoned within one
    /// flush).
    pub aborted_frames: u64,
    /// Bytes consumed into a committed frame and ultimately thrown away
    /// without decoding into any frame — counted when a CRC mismatch or a
    /// flush discards the frame's bytes, net of any recovered frames.
    pub discarded_bytes: u64,
}

impl LinkStats {
    /// Adds another snapshot's counters into this one (service-side
    /// aggregation across many line decoders).
    pub fn merge(&mut self, other: &LinkStats) {
        self.good_frames += other.good_frames;
        self.crc_errors += other.crc_errors;
        self.resyncs += other.resyncs;
        self.recovered_frames += other.recovered_frames;
        self.aborted_frames += other.aborted_frames;
        self.discarded_bytes += other.discarded_bytes;
    }
}

/// What a candidate frame starting at a given span offset turned out to be
/// during a re-hunt ([`FrameDecoder`] internal).
enum FrameAt {
    /// A complete, CRC-valid frame of this payload length.
    Valid { payload_len: usize },
    /// A complete frame shape whose CRC mismatched (noise alignment).
    BadCrc,
    /// The span ends before the candidate completes.
    Incomplete,
}

/// Classifies the candidate frame at `span[i]` (which must be an SOH).
fn frame_at(span: &[u8], i: usize) -> FrameAt {
    let Some(&len) = span.get(i + 1) else {
        return FrameAt::Incomplete;
    };
    let len = len as usize;
    let end = i + 2 + len + 2;
    if end > span.len() {
        return FrameAt::Incomplete;
    }
    let payload = &span[i + 2..i + 2 + len];
    let crc = u16::from_be_bytes([span[end - 2], span[end - 1]]);
    if crc == crc16_ccitt(payload) {
        FrameAt::Valid { payload_len: len }
    } else {
        FrameAt::BadCrc
    }
}

/// A resynchronizing frame decoder, fed the wire a slice at a time.
///
/// Decoded frames and CRC failures go to a sink, a closure taking
/// [`FrameEvent`]s; payloads are borrowed, not copied.
///
/// ```
/// use hotwire_isif::uart::{encode_frame, FrameDecoder, FrameEvent};
///
/// let mut dec = FrameDecoder::new();
/// let wire = encode_frame(b"v=123")?;
/// let mut got = Vec::new();
/// // Any split of the stream decodes the same.
/// for slice in wire.chunks(3) {
///     dec.feed(slice, |event| {
///         if let FrameEvent::Payload(payload) = event {
///             got.push(payload.to_vec());
///         }
///     });
/// }
/// assert_eq!(got, [b"v=123"]);
/// # Ok::<(), hotwire_isif::IsifError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    /// Whether a start-of-header is committed (the decoder is inside a
    /// frame rather than hunting).
    in_frame: bool,
    /// The bytes consumed since (not including) the committed SOH of a
    /// frame that did not lie whole inside one slice — length byte,
    /// payload and CRC bytes, at most `3 + MAX_PAYLOAD`. This is what gets
    /// re-hunted when the frame is dropped (CRC mismatch) or aborted
    /// (flush). Empty while hunting.
    carry: Vec<u8>,
    stats: LinkStats,
}

/// What a [`FrameDecoder`] hands its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// A frame closed with a valid CRC (frames recovered by a re-hunt
    /// included); here is its payload.
    Payload(&'a [u8]),
    /// A frame closed with a mismatched CRC and was dropped. Any frames
    /// recovered by re-scanning its bytes for an embedded start-of-header
    /// follow as [`Payload`](Self::Payload)s: a false `0xA5` in line noise
    /// whose bogus length field spans a real frame would otherwise
    /// swallow that frame.
    CrcError,
}

impl FrameDecoder {
    /// Creates a decoder in hunt state.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feeds the next slice of the wire. Every frame it closes goes to
    /// `sink` in wire order: a valid one as its payload, a CRC failure as
    /// [`FrameEvent::CrcError`] followed by any frames recovered from the
    /// dropped bytes. A frame still open at the end of the slice is
    /// carried into the next call, so the events and counters do not
    /// depend on how the stream is split.
    pub fn feed(&mut self, bytes: &[u8], mut sink: impl FnMut(FrameEvent<'_>)) {
        let mut pos = 0;
        // A frame split across calls: top its carry up, then close it.
        while self.in_frame {
            let Some(used) = self.top_up(&bytes[pos..]) else {
                return;
            };
            pos += used;
            let mut span = std::mem::take(&mut self.carry);
            match self.close(&span, &mut sink) {
                Some(at) => {
                    span.drain(..=at);
                }
                None => {
                    span.clear();
                    self.in_frame = false;
                }
            }
            self.carry = span;
        }
        // Hunting: a frame that lies whole in `bytes` closes in place.
        while let Some(skip) = bytes[pos..].iter().position(|&b| b == SOH) {
            self.stats.resyncs += skip as u64;
            let rest = &bytes[pos + skip + 1..];
            let whole = rest.first().map(|&len| len as usize + 3);
            let Some(span) = whole.and_then(|n| rest.get(..n)) else {
                self.in_frame = true;
                self.carry.extend_from_slice(rest);
                return;
            };
            pos += skip + 1;
            // A partial frame adopted by the re-hunt resumes at its SOH.
            pos += self.close(span, &mut sink).unwrap_or(span.len());
        }
        self.stats.resyncs += (bytes.len() - pos) as u64;
    }

    /// Moves bytes from the head of `bytes` into the carry until it holds
    /// the in-flight frame whole; returns how many it took, or `None` when
    /// `bytes` ran out first (all of it then sits in the carry).
    fn top_up(&mut self, bytes: &[u8]) -> Option<usize> {
        let mut used = 0;
        if self.carry.is_empty() {
            self.carry.push(*bytes.first()?);
            used = 1;
        }
        let need = self.carry[0] as usize + 3;
        let take = (need - self.carry.len()).min(bytes.len() - used);
        self.carry.extend_from_slice(&bytes[used..used + take]);
        used += take;
        (self.carry.len() == need).then_some(used)
    }

    /// Closes the frame whose bytes after the SOH are `span` (exactly its
    /// `3 + len` bytes). On a CRC mismatch the span is re-hunted; returns
    /// the span offset of the SOH of a trailing partial frame that re-hunt
    /// adopted as the new in-flight frame.
    fn close(&mut self, span: &[u8], sink: &mut impl FnMut(FrameEvent<'_>)) -> Option<usize> {
        let (payload, crc) = span[1..].split_at(span.len() - 3);
        if u16::from_be_bytes([crc[0], crc[1]]) == crc16_ccitt(payload) {
            self.stats.good_frames += 1;
            sink(FrameEvent::Payload(payload));
            None
        } else {
            self.stats.crc_errors += 1;
            sink(FrameEvent::CrcError);
            self.rescan(span, sink)
        }
    }

    /// Re-hunts a discarded in-flight span (the bytes that followed a
    /// committed SOH) for embedded genuine frames.
    ///
    /// Complete CRC-valid frames decode and go to `sink`; a complete but
    /// CRC-mismatched candidate is treated as a noise alignment (only its
    /// SOH is skipped, so a real frame starting inside it is still found);
    /// a trailing incomplete candidate is adopted as the new in-flight
    /// frame so subsequent stream bytes can complete it — its SOH's span
    /// offset is returned. Bytes that end up in none of those count into
    /// `discarded_bytes`, keeping the byte ledger exact.
    fn rescan(&mut self, span: &[u8], sink: &mut impl FnMut(FrameEvent<'_>)) -> Option<usize> {
        // The SOH that committed the discarded frame is itself lost.
        self.stats.discarded_bytes += 1;
        let mut i = 0;
        while i < span.len() {
            if span[i] != SOH {
                self.stats.discarded_bytes += 1;
                i += 1;
                continue;
            }
            match frame_at(span, i) {
                FrameAt::Valid { payload_len } => {
                    self.stats.good_frames += 1;
                    self.stats.recovered_frames += 1;
                    sink(FrameEvent::Payload(&span[i + 2..i + 2 + payload_len]));
                    i += payload_len + 4;
                }
                FrameAt::BadCrc => {
                    self.stats.discarded_bytes += 1;
                    i += 1;
                }
                FrameAt::Incomplete => return Some(i),
            }
        }
        None
    }

    /// Frames dropped for CRC mismatch.
    #[inline]
    pub fn crc_errors(&self) -> u64 {
        self.stats.crc_errors
    }

    /// Bytes currently held inside the decoder (the committed SOH plus
    /// everything consumed after it), zero when hunting.
    #[inline]
    pub fn in_flight_bytes(&self) -> u64 {
        if self.in_frame {
            self.carry.len() as u64 + 1
        } else {
            0
        }
    }

    /// Snapshot of all cumulative link counters.
    #[inline]
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Idle-line flush: a UART receiver detects inter-frame silence and
    /// resets its framing, so a spurious start-of-header in line noise
    /// whose false length field is large cannot swallow genuine frames
    /// indefinitely (a classic length-prefixed-framing failure mode — found
    /// by the property tests).
    ///
    /// The abandoned in-flight bytes are re-hunted exactly as on a CRC
    /// mismatch, so a genuine frame buried inside a false frame still
    /// decodes: its payload goes to `sink`. Each abandoned partial counts
    /// into `aborted_frames` and its unrecovered bytes into
    /// `discarded_bytes`; the three historical counters are untouched.
    pub fn flush(&mut self, mut sink: impl FnMut(FrameEvent<'_>)) {
        let mut span = std::mem::take(&mut self.carry);
        while self.in_frame {
            self.stats.aborted_frames += 1;
            // The re-hunt may adopt a shorter trailing partial; an idle
            // line truncates that too, so the loop aborts it as well. Each
            // pass strictly shrinks the span, so this terminates.
            match self.rescan(&span, &mut sink) {
                Some(at) => {
                    span.drain(..=at);
                }
                None => {
                    span.clear();
                    self.in_frame = false;
                }
            }
        }
        self.carry = span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event `feed` (then `flush`, when `flush` is set) hands the
    /// sink, payloads copied out.
    fn events(dec: &mut FrameDecoder, bytes: &[u8], flush: bool) -> Vec<Option<Vec<u8>>> {
        let mut out = Vec::new();
        let mut sink = |event: FrameEvent<'_>| {
            out.push(match event {
                FrameEvent::Payload(p) => Some(p.to_vec()),
                FrameEvent::CrcError => None,
            })
        };
        dec.feed(bytes, &mut sink);
        if flush {
            dec.flush(&mut sink);
        }
        out
    }

    fn decode_all(dec: &mut FrameDecoder, bytes: &[u8]) -> Vec<Vec<u8>> {
        events(dec, bytes, false).into_iter().flatten().collect()
    }

    #[test]
    fn round_trip_single_frame() {
        let mut dec = FrameDecoder::new();
        let wire = encode_frame(b"flow=42.5cm/s").unwrap();
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![b"flow=42.5cm/s".to_vec()]);
        assert_eq!(dec.stats().good_frames, 1);
    }

    #[test]
    fn back_to_back_frames() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"a").unwrap();
        wire.extend(encode_frame(b"bb").unwrap());
        wire.extend(encode_frame(b"ccc").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2], b"ccc");
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let mut dec = FrameDecoder::new();
        let mut wire = vec![0x00, 0x12, 0x99];
        wire.extend(encode_frame(b"x").unwrap());
        wire.extend([0xFF, 0x33]);
        wire.extend(encode_frame(b"y").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames.len(), 2);
        assert!(dec.stats().resyncs >= 5);
    }

    #[test]
    fn corrupt_payload_dropped() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"important").unwrap();
        wire[4] ^= 0x01; // flip a payload bit
        let frames = decode_all(&mut dec, &wire);
        assert!(frames.is_empty());
        assert_eq!(dec.crc_errors(), 1);
    }

    #[test]
    fn decoder_recovers_after_corrupt_frame() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"bad").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0xFF; // corrupt CRC
        wire.extend(encode_frame(b"good").unwrap());
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![b"good".to_vec()]);
    }

    #[test]
    fn empty_payload_frame() {
        let mut dec = FrameDecoder::new();
        let wire = encode_frame(b"").unwrap();
        let frames = decode_all(&mut dec, &wire);
        assert_eq!(frames, vec![Vec::<u8>::new()]);
    }

    #[test]
    fn oversized_payload_rejected() {
        let big = vec![0u8; 256];
        assert!(encode_frame(&big).is_err());
        let max = vec![7u8; 255];
        assert!(encode_frame(&max).is_ok());
    }

    #[test]
    fn crc_errors_reach_the_sink_as_edges() {
        let mut dec = FrameDecoder::new();
        let mut wire = encode_frame(b"payload").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0x01; // corrupt the CRC low byte
                             // Fed a byte at a time, only the frame's last byte concludes
                             // anything; the dropped span contains no embedded SOH, so nothing
                             // recovers.
        let (last, head) = wire.split_last().unwrap();
        for &b in head {
            assert!(events(&mut dec, &[b], false).is_empty());
        }
        assert_eq!(events(&mut dec, &[*last], false), vec![None]);

        // A good frame closes with its payload.
        let wire = encode_frame(b"ok").unwrap();
        assert_eq!(events(&mut dec, &wire, false), vec![Some(b"ok".to_vec())]);
        assert_eq!(
            dec.stats(),
            LinkStats {
                good_frames: 1,
                crc_errors: 1,
                resyncs: 0,
                recovered_frames: 0,
                aborted_frames: 0,
                // The dropped frame's SOH + len + 7 payload + 2 CRC bytes.
                discarded_bytes: 11,
            }
        );
    }

    #[test]
    fn false_soh_spanning_a_genuine_frame_recovers_it() {
        // Regression: a spurious 0xA5 whose bogus length field spans a
        // genuine frame used to swallow that frame silently. The re-hunt
        // inside the dropped span must decode it, right after the edge.
        let mut dec = FrameDecoder::new();
        let inner = encode_frame(b"hello").unwrap(); // 9 wire bytes
        let mut wire = vec![SOH, 25]; // false header claiming 25 payload bytes
        wire.extend([0x11; 16]); // bogus "payload" prefix
        wire.extend(&inner); // the genuine frame, inside the false payload
        wire.extend([0x00, 0x00]); // false CRC (mismatches)
        let got = events(&mut dec, &wire, true);
        assert_eq!(got, vec![None, Some(b"hello".to_vec())]);
        let stats = dec.stats();
        assert_eq!(stats.crc_errors, 1);
        assert_eq!(stats.good_frames, 1);
        assert_eq!(stats.recovered_frames, 1);
        // Ledger: 29 wire bytes = 9 recovered + 20 discarded, 0 resyncs.
        assert_eq!(stats.resyncs, 0);
        assert_eq!(stats.discarded_bytes, 20);
    }

    #[test]
    fn unterminated_false_frame_yields_genuine_frame_on_flush() {
        // A false SOH whose length field points past the end of the burst
        // keeps the decoder mid-frame; the idle-line flush must re-hunt the
        // in-flight bytes and hand back the genuine frame buried in them.
        let mut dec = FrameDecoder::new();
        let mut wire = vec![SOH, 0xFF]; // claims 255 payload bytes
        wire.extend(encode_frame(b"hello").unwrap());
        assert!(
            decode_all(&mut dec, &wire).is_empty(),
            "frame is still swallowed mid-burst"
        );
        assert_eq!(dec.in_flight_bytes(), wire.len() as u64);
        let recovered = events(&mut dec, &[], true);
        assert_eq!(recovered, vec![Some(b"hello".to_vec())]);
        let stats = dec.stats();
        assert_eq!(stats.aborted_frames, 1);
        assert_eq!(stats.recovered_frames, 1);
        // The false SOH and its length byte are all that is lost.
        assert_eq!(stats.discarded_bytes, 2);
        assert_eq!(dec.in_flight_bytes(), 0);
    }

    #[test]
    fn flush_counts_aborted_partial_frames() {
        let mut dec = FrameDecoder::new();
        assert!(events(&mut dec, &[SOH, 0x05, 0x01, 0x02], false).is_empty());
        assert_eq!(dec.in_flight_bytes(), 4);
        assert!(events(&mut dec, &[], true).is_empty());
        let stats = dec.stats();
        assert_eq!(stats.aborted_frames, 1);
        assert_eq!(stats.discarded_bytes, 4);
        // The historical counters are untouched by an abort.
        assert_eq!(
            (stats.good_frames, stats.crc_errors, stats.resyncs),
            (0, 0, 0)
        );
        // Idempotent: flushing a hunting decoder counts nothing.
        assert!(events(&mut dec, &[], true).is_empty());
        assert_eq!(dec.stats(), stats);
    }

    #[test]
    fn link_stats_merge_adds_counters() {
        let mut a = LinkStats {
            good_frames: 1,
            crc_errors: 2,
            resyncs: 3,
            recovered_frames: 4,
            aborted_frames: 5,
            discarded_bytes: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            a,
            LinkStats {
                good_frames: 2,
                crc_errors: 4,
                resyncs: 6,
                recovered_frames: 8,
                aborted_frames: 10,
                discarded_bytes: 12,
            }
        );
    }
}
