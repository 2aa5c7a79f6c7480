//! Durable fleet checkpoints: serialize a [`ShardAggregates`] mid-run so
//! a killed fleet resumes where it stopped and finishes **bit-identical**
//! to an uninterrupted run.
//!
//! # Why this is small
//!
//! Line `i`'s spec — seeds, jitter, faults — is a pure function of the
//! [`FleetSpec`](crate::fleet::FleetSpec) and `i`, so no mid-line meter
//! state ever needs serializing. A checkpoint is just the merged prefix:
//! the accumulator's counters, the two quantile sketches, the settled-mean
//! extrema, the fault incidence map, and (for small fleets on the exact
//! path) the retained [`LineSummary`]s. Resume
//! = load, verify, continue from `shard.end`.
//!
//! # Safety rails
//!
//! * The file stores [`FleetSpec::fingerprint`](crate::fleet::FleetSpec::fingerprint)
//!   and the total line count; a resume under a *different* spec is
//!   refused with [`CheckpointError::SpecMismatch`] instead of silently
//!   stitching two unrelated fleets together.
//! * Writes go through a temp file + atomic rename, so a kill mid-write
//!   leaves the previous checkpoint intact rather than a torn file.
//! * Every `f64` crosses the file as its exact IEEE-754 bit pattern
//!   (`to_bits` hex) — round-tripping is lossless by construction, which
//!   is what the bit-identity contract requires.
//!
//! The format is a versioned line-oriented text codec (the repo's
//! `serde` is a masquerade marker, so the codec is hand-rolled like the
//! trace CSV sink): human-greppable, diff-friendly, no dependencies.

use std::fmt::Write as _;
use std::path::Path;

use crate::fault::FaultKind;
use crate::fleet::{LineSummary, ShardAggregates};
use crate::maintain::MaintenanceCounters;
use crate::record::HealthCensus;
use crate::sketch::QuantileSketch;

/// Codec version written to (and required from) every checkpoint file.
/// v2 added the maintenance-counter totals line and the four per-line
/// counter fields in each summary record.
pub const FORMAT_VERSION: u32 = 2;

/// Why a checkpoint could not be written, read, or adopted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The OS error rendering.
        reason: String,
    },
    /// The file's contents did not parse as a checkpoint.
    Parse {
        /// 1-based line number of the offending line (0 = structural).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The checkpoint belongs to a different fleet spec.
    SpecMismatch {
        /// Fingerprint of the spec trying to resume.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint's total line count disagrees with the spec's.
    WrongLineCount {
        /// Lines in the spec trying to resume.
        expected: usize,
        /// Lines stored in the checkpoint.
        found: usize,
    },
    /// The file declares a codec version this build does not speak.
    UnsupportedVersion(u32),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io { path, reason } => {
                write!(f, "checkpoint io at {path}: {reason}")
            }
            CheckpointError::Parse { line, reason } => {
                write!(f, "checkpoint parse error at line {line}: {reason}")
            }
            CheckpointError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different fleet spec \
                 (expected fingerprint {expected:016x}, file has {found:016x})"
            ),
            CheckpointError::WrongLineCount { expected, found } => write!(
                f,
                "checkpoint fleet has {found} lines, resuming spec has {expected}"
            ),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "checkpoint format v{v} is not supported (this build speaks v{FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A fleet run's durable progress: the merged prefix accumulator plus
/// enough identity to refuse a resume under the wrong spec.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCheckpoint {
    /// Codec version ([`FORMAT_VERSION`] when written by this build).
    pub version: u32,
    /// [`FleetSpec::fingerprint`](crate::fleet::FleetSpec::fingerprint)
    /// of the owning spec.
    pub fingerprint: u64,
    /// Total lines in the owning fleet (so "finished" is recognizable).
    pub total_lines: usize,
    /// The merged prefix: lines `[shard.start, shard.end)` completed.
    pub shard: ShardAggregates,
}

impl FleetCheckpoint {
    /// Packages a prefix accumulator for writing.
    pub fn new(fingerprint: u64, total_lines: usize, shard: ShardAggregates) -> Self {
        FleetCheckpoint {
            version: FORMAT_VERSION,
            fingerprint,
            total_lines,
            shard,
        }
    }

    /// Verifies the checkpoint against the resuming spec and surrenders
    /// its accumulator.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::SpecMismatch`] / [`CheckpointError::WrongLineCount`]
    /// when the checkpoint was written by a different spec.
    pub fn into_verified_shard(
        self,
        fingerprint: u64,
        total_lines: usize,
    ) -> Result<ShardAggregates, CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::SpecMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        if self.total_lines != total_lines {
            return Err(CheckpointError::WrongLineCount {
                expected: total_lines,
                found: self.total_lines,
            });
        }
        Ok(self.shard)
    }

    /// Writes the checkpoint to `path` atomically (temp file in the same
    /// directory, then rename) so a kill mid-write never tears an
    /// existing checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when unreadable, [`CheckpointError::Parse`]
    /// / [`CheckpointError::UnsupportedVersion`] when malformed.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::decode(&text)
    }

    /// [`FleetCheckpoint::load`], treating a missing file as `None`
    /// (fresh start) rather than an error.
    ///
    /// # Errors
    ///
    /// Everything [`FleetCheckpoint::load`] returns except not-found.
    pub fn load_if_present(path: &Path) -> Result<Option<Self>, CheckpointError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::decode(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CheckpointError::Io {
                path: path.display().to_string(),
                reason: e.to_string(),
            }),
        }
    }

    /// Renders the checkpoint as the v2 line-oriented text format.
    pub fn encode(&self) -> String {
        let s = &self.shard;
        let mut out = String::new();
        let _ = writeln!(out, "hotwire-fleet-checkpoint v{}", self.version);
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "total_lines {}", self.total_lines);
        let _ = writeln!(out, "range {} {}", s.start, s.end);
        let _ = writeln!(
            out,
            "samples {} {} {} {}",
            s.total_samples, s.fault_samples, s.lines_faulted, s.trace_heap_bytes
        );
        let h = s.health.counts;
        let _ = writeln!(out, "health {} {} {} {}", h[0], h[1], h[2], h[3]);
        let _ = writeln!(
            out,
            "means {:016x} {:016x}",
            s.settled_mean_min.to_bits(),
            s.settled_mean_max.to_bits()
        );
        let m = &s.maintenance;
        let _ = writeln!(
            out,
            "maintenance {} {} {} {}",
            m.re_zeros, m.refits, m.persists, m.persists_skipped
        );
        let _ = writeln!(out, "incidence {}", s.fault_incidence.len());
        for (kind, count) in &s.fault_incidence {
            let _ = writeln!(out, "{kind} {count}");
        }
        let _ = writeln!(out, "resolution_sketch {}", s.resolution_pct_fs.encode());
        let _ = writeln!(out, "err_sketch {}", s.err_rms_cm_s.encode());
        let _ = writeln!(out, "summaries {}", s.summaries.len());
        for line in &s.summaries {
            let kinds = if line.fault_kinds.is_empty() {
                "-".to_string()
            } else {
                line.fault_kinds.join(",")
            };
            let lh = line.health.counts;
            let lm = &line.maintenance;
            let _ = writeln!(
                out,
                "{} {} {:016x} {:016x} {:016x} {:016x} {} {} {} {} {} {} {:016x} {} {} {} {} {}",
                line.line,
                line.samples,
                line.settled_mean.to_bits(),
                line.settled_std.to_bits(),
                line.err_rms.to_bits(),
                line.err_max_abs.to_bits(),
                line.fault_samples,
                lh[0],
                lh[1],
                lh[2],
                lh[3],
                line.trace_heap_bytes,
                line.meter_digest,
                lm.re_zeros,
                lm.refits,
                lm.persists,
                lm.persists_skipped,
                kinds
            );
        }
        out.push_str("end\n");
        out
    }

    /// Parses the v2 text format.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] naming the first offending line;
    /// [`CheckpointError::UnsupportedVersion`] for a foreign version tag.
    pub fn decode(text: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines().enumerate();
        let mut next = |what: &str| -> Result<(usize, &str), CheckpointError> {
            lines
                .next()
                .map(|(i, l)| (i + 1, l))
                .ok_or_else(|| CheckpointError::Parse {
                    line: 0,
                    reason: format!("unexpected end of file, expected {what}"),
                })
        };
        let parse = |line: usize, what: &str, token: &str| -> Result<u64, CheckpointError> {
            token.parse::<u64>().map_err(|_| CheckpointError::Parse {
                line,
                reason: format!("bad {what}: {token:?}"),
            })
        };
        let parse_hex = |line: usize, what: &str, token: &str| -> Result<u64, CheckpointError> {
            u64::from_str_radix(token, 16).map_err(|_| CheckpointError::Parse {
                line,
                reason: format!("bad {what}: {token:?}"),
            })
        };
        // Fixed fields arrive as `keyword value...` lines in a fixed
        // order; `fields` peels the keyword and returns the payload.
        let fields = |line: usize,
                      text: &str,
                      keyword: &str,
                      arity: usize|
         -> Result<Vec<String>, CheckpointError> {
            let mut parts = text.split_whitespace();
            if parts.next() != Some(keyword) {
                return Err(CheckpointError::Parse {
                    line,
                    reason: format!("expected {keyword:?} line, got {text:?}"),
                });
            }
            let rest: Vec<String> = parts.map(str::to_string).collect();
            if rest.len() != arity {
                return Err(CheckpointError::Parse {
                    line,
                    reason: format!("{keyword:?} wants {arity} fields, got {}", rest.len()),
                });
            }
            Ok(rest)
        };

        let (n, header) = next("header")?;
        let version = header
            .strip_prefix("hotwire-fleet-checkpoint v")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| CheckpointError::Parse {
                line: n,
                reason: format!("bad header: {header:?}"),
            })?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }

        let (n, l) = next("fingerprint")?;
        let fingerprint = parse_hex(n, "fingerprint", &fields(n, l, "fingerprint", 1)?[0])?;
        let (n, l) = next("total_lines")?;
        let total_lines = parse(n, "total_lines", &fields(n, l, "total_lines", 1)?[0])? as usize;
        let (n, l) = next("range")?;
        let range = fields(n, l, "range", 2)?;
        let start = parse(n, "range start", &range[0])? as usize;
        let end = parse(n, "range end", &range[1])? as usize;
        if start > end {
            return Err(CheckpointError::Parse {
                line: n,
                reason: format!("range {start}..{end} runs backwards"),
            });
        }

        let mut shard = ShardAggregates::empty(start);
        shard.end = end;

        let (n, l) = next("samples")?;
        let samples = fields(n, l, "samples", 4)?;
        shard.total_samples = parse(n, "total_samples", &samples[0])?;
        shard.fault_samples = parse(n, "fault_samples", &samples[1])?;
        shard.lines_faulted = parse(n, "lines_faulted", &samples[2])?;
        shard.trace_heap_bytes = parse(n, "trace_heap_bytes", &samples[3])? as usize;

        let (n, l) = next("health")?;
        let health = fields(n, l, "health", 4)?;
        for (slot, token) in shard.health.counts.iter_mut().zip(&health) {
            *slot = parse(n, "health count", token)?;
        }

        let (n, l) = next("means")?;
        let means = fields(n, l, "means", 2)?;
        shard.settled_mean_min = f64::from_bits(parse_hex(n, "mean min", &means[0])?);
        shard.settled_mean_max = f64::from_bits(parse_hex(n, "mean max", &means[1])?);

        let (n, l) = next("maintenance")?;
        let maint = fields(n, l, "maintenance", 4)?;
        shard.maintenance = MaintenanceCounters {
            re_zeros: parse(n, "re_zeros", &maint[0])?,
            refits: parse(n, "refits", &maint[1])?,
            persists: parse(n, "persists", &maint[2])?,
            persists_skipped: parse(n, "persists_skipped", &maint[3])?,
        };

        let (n, l) = next("incidence")?;
        let kinds = parse(n, "incidence count", &fields(n, l, "incidence", 1)?[0])? as usize;
        for _ in 0..kinds {
            let (n, l) = next("incidence entry")?;
            let mut parts = l.split_whitespace();
            let (Some(kind), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(CheckpointError::Parse {
                    line: n,
                    reason: format!("bad incidence entry: {l:?}"),
                });
            };
            shard
                .fault_incidence
                .insert(kind.to_string(), parse(n, "incidence count", count)?);
        }

        let mut sketch = |keyword: &str| -> Result<QuantileSketch, CheckpointError> {
            let (n, l) = next(keyword)?;
            let payload = l
                .strip_prefix(keyword)
                .map(str::trim_start)
                .ok_or_else(|| CheckpointError::Parse {
                    line: n,
                    reason: format!("expected {keyword:?} line, got {l:?}"),
                })?;
            let sketch = QuantileSketch::decode(payload)
                .map_err(|reason| CheckpointError::Parse { line: n, reason })?;
            // Every line pushes exactly one value into each sketch, which
            // bounds every sketch counter by the fleet size.
            let values = sketch.count() + sketch.nan_count();
            if values != (end - start) as u64 {
                return Err(CheckpointError::Parse {
                    line: n,
                    reason: format!(
                        "{keyword} holds {values} values for the {} lines of range {start}..{end}",
                        end - start
                    ),
                });
            }
            Ok(sketch)
        };
        shard.resolution_pct_fs = sketch("resolution_sketch")?;
        shard.err_rms_cm_s = sketch("err_sketch")?;

        let (n, l) = next("summaries")?;
        // The count is untrusted: it bounds the loop, which fails at end
        // of file when the count lies, but sizes no allocation.
        let count = parse(n, "summary count", &fields(n, l, "summaries", 1)?[0])?;
        for _ in 0..count {
            let (n, l) = next("summary record")?;
            let tokens: Vec<&str> = l.split_whitespace().collect();
            if tokens.len() != 18 {
                return Err(CheckpointError::Parse {
                    line: n,
                    reason: format!("summary record wants 18 fields, got {}", tokens.len()),
                });
            }
            let fault_kinds = if tokens[17] == "-" {
                Vec::new()
            } else {
                tokens[17]
                    .split(',')
                    .map(|name| {
                        FaultKind::intern_name(name).ok_or_else(|| CheckpointError::Parse {
                            line: n,
                            reason: format!("unknown fault kind {name:?}"),
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            shard.summaries.push(LineSummary {
                line: parse(n, "line index", tokens[0])? as usize,
                samples: parse(n, "samples", tokens[1])?,
                settled_mean: f64::from_bits(parse_hex(n, "settled_mean", tokens[2])?),
                settled_std: f64::from_bits(parse_hex(n, "settled_std", tokens[3])?),
                err_rms: f64::from_bits(parse_hex(n, "err_rms", tokens[4])?),
                err_max_abs: f64::from_bits(parse_hex(n, "err_max_abs", tokens[5])?),
                fault_samples: parse(n, "fault_samples", tokens[6])?,
                health: HealthCensus {
                    counts: [
                        parse(n, "health count", tokens[7])?,
                        parse(n, "health count", tokens[8])?,
                        parse(n, "health count", tokens[9])?,
                        parse(n, "health count", tokens[10])?,
                    ],
                },
                trace_heap_bytes: parse(n, "trace_heap_bytes", tokens[11])? as usize,
                meter_digest: parse_hex(n, "meter_digest", tokens[12])?,
                maintenance: MaintenanceCounters {
                    re_zeros: parse(n, "re_zeros", tokens[13])?,
                    refits: parse(n, "refits", tokens[14])?,
                    persists: parse(n, "persists", tokens[15])?,
                    persists_skipped: parse(n, "persists_skipped", tokens[16])?,
                },
                fault_kinds,
            });
        }

        let (n, l) = next("end")?;
        if l.trim() != "end" {
            return Err(CheckpointError::Parse {
                line: n,
                reason: format!("expected trailing \"end\", got {l:?}"),
            });
        }
        Ok(FleetCheckpoint {
            version,
            fingerprint,
            total_lines,
            shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shard(with_summaries: bool) -> ShardAggregates {
        let mut shard = ShardAggregates::empty(3);
        for (i, (mean, std, err)) in [
            (101.5, 0.42, 0.9),
            (99.8, 0.55, f64::NAN),
            (100.2, 0.39, 1.1),
        ]
        .into_iter()
        .enumerate()
        {
            let line = 3 + i;
            let summary = LineSummary {
                line,
                samples: 120,
                settled_mean: mean,
                settled_std: std,
                err_rms: err,
                err_max_abs: err * 2.0,
                fault_samples: u64::from(line == 4) * 17,
                health: HealthCensus {
                    counts: [100, 12, 8, 0],
                },
                fault_kinds: if line == 4 {
                    vec!["adc_stuck", "uart_corruption"]
                } else {
                    Vec::new()
                },
                trace_heap_bytes: 0,
                meter_digest: 0xDEAD_BEEF_0000_0000 + line as u64,
                maintenance: MaintenanceCounters {
                    re_zeros: i as u64,
                    refits: 2 * i as u64,
                    persists: u64::from(line == 4),
                    persists_skipped: u64::from(line == 5) * 3,
                },
            };
            shard.push(summary, 628.3, with_summaries);
        }
        shard
    }

    #[test]
    fn round_trips_bit_exactly() {
        for with_summaries in [true, false] {
            let shard = sample_shard(with_summaries);
            let ck = FleetCheckpoint::new(0xFEED_FACE_CAFE_F00D, 12, shard);
            let decoded = FleetCheckpoint::decode(&ck.encode()).unwrap();
            // Compare through Debug: NaN-bearing floats defeat PartialEq,
            // but the Debug rendering (and the to_bits hex on the wire)
            // is exact.
            assert_eq!(format!("{ck:?}"), format!("{decoded:?}"));
            assert_eq!(
                ck.shard.settled_mean_min.to_bits(),
                decoded.shard.settled_mean_min.to_bits()
            );
        }
    }

    #[test]
    fn write_and_load_are_inverse() {
        let dir = std::env::temp_dir().join("hotwire-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ck");
        let ck = FleetCheckpoint::new(1, 12, sample_shard(true));
        ck.write(&path).unwrap();
        let loaded = FleetCheckpoint::load(&path).unwrap();
        assert_eq!(format!("{ck:?}"), format!("{loaded:?}"));
        // Missing file is a fresh start, not an error.
        let missing = dir.join("never-written.ck");
        assert_eq!(FleetCheckpoint::load_if_present(&missing).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verification_refuses_foreign_checkpoints() {
        let ck = FleetCheckpoint::new(7, 12, sample_shard(false));
        assert!(matches!(
            ck.clone().into_verified_shard(8, 12),
            Err(CheckpointError::SpecMismatch {
                expected: 8,
                found: 7
            })
        ));
        assert!(matches!(
            ck.clone().into_verified_shard(7, 24),
            Err(CheckpointError::WrongLineCount {
                expected: 24,
                found: 12
            })
        ));
        assert!(ck.into_verified_shard(7, 12).is_ok());
    }

    #[test]
    fn malformed_files_name_the_offending_line() {
        let ck = FleetCheckpoint::new(1, 12, sample_shard(true));
        let good = ck.encode();
        // Foreign version.
        let foreign = good.replacen("v2", "v9", 1);
        assert_eq!(
            FleetCheckpoint::decode(&foreign),
            Err(CheckpointError::UnsupportedVersion(9))
        );
        // Unknown fault kind in a summary record.
        let bad_kind = good.replace("adc_stuck,uart_corruption", "warp_core_breach");
        assert!(matches!(
            FleetCheckpoint::decode(&bad_kind),
            Err(CheckpointError::Parse { .. })
        ));
        // Truncation (torn write without the atomic rename).
        let torn = &good[..good.len() / 2];
        assert!(FleetCheckpoint::decode(torn).is_err());
        // Garbage.
        assert!(matches!(
            FleetCheckpoint::decode("not a checkpoint"),
            Err(CheckpointError::Parse { line: 1, .. })
        ));
        // A sketch whose value count is not the range's line count fails on
        // the sketch's own line.
        let line_of =
            |keyword: &str| good.lines().position(|l| l.starts_with(keyword)).unwrap() + 1;
        let failing_line = |text: &str| match FleetCheckpoint::decode(text) {
            Err(CheckpointError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        };
        let widened = good.replace("range 3 6", "range 3 7");
        assert_ne!(widened, good);
        assert_eq!(failing_line(&widened), line_of("resolution_sketch"));
        let padded = good.replace("err_sketch nan=1 ", "err_sketch nan=2 ");
        assert_ne!(padded, good);
        assert_eq!(failing_line(&padded), line_of("err_sketch"));
        // A summary count the file cannot back: the decoder must run out
        // of records, not reserve room for them (u64::MAX overflows the
        // capacity; 4e12 records would abort on allocation).
        for count in ["18446744073709551615", "4000000000000"] {
            let lying = good.replace("summaries 3", &format!("summaries {count}"));
            assert_ne!(lying, good);
            assert!(
                matches!(
                    FleetCheckpoint::decode(&lying),
                    Err(CheckpointError::Parse { .. })
                ),
                "summaries {count}"
            );
        }
    }

    mod hostile_text {
        use super::*;
        use proptest::prelude::*;

        /// Stand-ins for a corrupted number: zero, a byte's maximum, a
        /// count whose allocation would abort, `u64::MAX`, and a sign.
        const HOSTILE_TOKENS: [&str; 5] =
            ["0", "255", "4000000000000", "18446744073709551615", "-1"];

        /// Applies mutation `op` to `text`; `a` and `b` pick the position
        /// and the variant.
        fn mutate(text: &str, op: u8, a: usize, b: usize) -> String {
            let mut lines: Vec<&str> = text.lines().collect();
            let pick = |k: usize, n: usize| k % n;
            match op {
                // Truncate at byte k (the codec is ASCII, so every byte
                // index is a char boundary).
                0 => return text[..pick(a, text.len() + 1)].to_string(),
                // Flip one of bits 0–6 of one byte: still ASCII.
                1 => {
                    let mut bytes = text.as_bytes().to_vec();
                    let i = pick(a, bytes.len());
                    bytes[i] ^= 1 << (b % 7);
                    return String::from_utf8(bytes).expect("ASCII stays ASCII");
                }
                2 => {
                    let i = pick(a, lines.len());
                    lines.insert(i, lines[i]);
                }
                3 => {
                    let (i, j) = (pick(a, lines.len()), pick(b, lines.len()));
                    lines.swap(i, j);
                }
                4 => {
                    lines.remove(pick(a, lines.len()));
                }
                // Replace one token: a run between spaces, line breaks and
                // the sketch's `=`, `,` and `:` separators.
                _ => {
                    let is_sep = |c: char| matches!(c, ' ' | '\n' | '=' | ',' | ':');
                    let mut tokens = Vec::new();
                    let mut start = None;
                    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
                        match (start, is_sep(c)) {
                            (None, false) => start = Some(i),
                            (Some(s), true) => {
                                tokens.push(s..i);
                                start = None;
                            }
                            _ => {}
                        }
                    }
                    let range = tokens[pick(a, tokens.len())].clone();
                    let token = HOSTILE_TOKENS[b % HOSTILE_TOKENS.len()];
                    return format!("{}{token}{}", &text[..range.start], &text[range.end..]);
                }
            }
            let mut out = lines.join("\n");
            out.push('\n');
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// A checkpoint file is untrusted input: after any one
            /// mutation, decode returns `Ok` or a typed error and never
            /// panics or sizes an allocation by a count it read. What it
            /// accepts re-encodes to a file that decodes to the same value.
            #[test]
            fn decode_survives_one_mutation(
                with_summaries in any::<bool>(),
                op in 0u8..6,
                a in any::<usize>(),
                b in any::<usize>(),
            ) {
                let good = FleetCheckpoint::new(1, 12, sample_shard(with_summaries)).encode();
                let text = mutate(&good, op, a, b);
                let decoded = std::panic::catch_unwind(|| FleetCheckpoint::decode(&text));
                prop_assert!(decoded.is_ok(), "decode panicked on {:?}", text);
                if let Ok(Ok(ck)) = decoded {
                    let again = FleetCheckpoint::decode(&ck.encode()).unwrap();
                    prop_assert_eq!(format!("{ck:?}"), format!("{again:?}"));
                    // What it accepts merges without overflowing.
                    for sketch in [&ck.shard.resolution_pct_fs, &ck.shard.err_rms_cm_s] {
                        sketch.clone().merge(sketch);
                    }
                }
            }
        }
    }
}
