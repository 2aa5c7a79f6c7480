//! Service-side telemetry ingest: the monitoring backend of §6's diffuse
//! deployment.
//!
//! The paper closes with probes "widely diffused all over the water
//! distribution channels" reporting to the network operator. The simulator
//! side of that story already exists — every line frames CRC-protected
//! [`TelemetryRecord`]s onto a (possibly noisy) UART — and this module
//! supplies the *operator* side: reassemble and validate the framed byte
//! streams of many concurrent lines, keep per-meter session state (last
//! tick, tick-gap/loss detection, flag history), and derive a fleet health
//! census plus an alert stream **purely from the wire records**. Because
//! the simulator also knows the ground truth (the firmware's
//! `HealthMonitor` state recorded in each line's
//! [`RunReductions::health_census`](crate::record::RunReductions::health_census)),
//! ingest can score its own detection
//! fidelity — the quantity the paper's "immediately localized and
//! isolated" claim rests on.
//!
//! # Pipeline
//!
//! ```text
//! FleetSpec ──line_spec(i)──▶ RunSpec::execute_wiretapped ─▶ wire bytes
//!                                                              │ chunks
//!                                                              ▼
//!                              MeterSession (bounded queue, DropPolicy)
//!                                │ FrameDecoder + RecordDecodeStats
//!                                ▼
//!                   per-line census · flag history · tick-gap alerts
//!                                │ merge in line order
//!                                ▼
//!                   IngestReport (stats, census, Fidelity) — bit-identical
//!                   at any job count
//! ```
//!
//! Each line is a pure function of the fleet spec and its index (exactly
//! the fleet engine's determinism contract), and per-line results merge in
//! line order, so the whole report is bit-identical at any `jobs`.
//!
//! # Backpressure
//!
//! Real collectors sit behind finite buffers. [`MeterSession`] owns a
//! bounded byte queue with an explicit [`DropPolicy`]; every byte that
//! cannot be accepted is *counted* ([`IngestStats::bytes_dropped`] /
//! [`IngestStats::bytes_deferred`]), never silently lost — the same
//! no-invisible-loss discipline the decode layer's
//! [`LinkStats`] byte ledger enforces.

use crate::campaign::RunSpec;
use crate::exec;
use crate::fleet::FleetSpec;
use crate::record::{HealthCensus, PolicyRecorder, RecordPolicy};
use hotwire_core::{CoreError, HealthState, RecordDecodeStats, TelemetryRecord};
use hotwire_isif::uart::{FrameDecoder, FrameEvent, LinkStats};
use std::collections::VecDeque;

/// What a [`MeterSession`] does with bytes that arrive while its queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Reject the arriving bytes; the caller must retry after a poll.
    /// Rejected bytes are tallied as `bytes_deferred` (once per rejection,
    /// so retried bytes count each attempt).
    #[default]
    Backpressure,
    /// Discard the arriving bytes (tail drop); tallied as `bytes_dropped`.
    DropNewest,
    /// Evict the oldest queued bytes to make room (head drop); evicted
    /// bytes are tallied as `bytes_dropped`.
    DropOldest,
}

/// Configuration shared by every [`MeterSession`] of an ingest run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Per-line byte queue capacity.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub drop_policy: DropPolicy,
    /// Expected control-tick gap between consecutive records; `0` means
    /// learn it from the first observed gap of each session.
    pub nominal_tick_gap: u32,
    /// Maximum alerts retained per session (the *counts* keep going after
    /// the cap; only the alert objects stop accumulating).
    pub alert_capacity: usize,
    /// Bytes offered to a session per chunk when feeding a captured wire
    /// (models the collector's read granularity).
    pub chunk_bytes: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 4096,
            drop_policy: DropPolicy::Backpressure,
            nominal_tick_gap: 0,
            alert_capacity: 64,
            chunk_bytes: 64,
        }
    }
}

impl IngestConfig {
    /// A config whose expected tick gap is derived from the fleet's sample
    /// cadence and control rate (the records of a healthy line are spaced
    /// by one trace sample, i.e. `sample_period / control_dt` control
    /// ticks).
    pub fn for_fleet(spec: &FleetSpec) -> Self {
        let control_dt = spec.config.control_period().get();
        let gap = (spec.sample_period_s / control_dt).round().max(1.0) as u32;
        IngestConfig {
            nominal_tick_gap: gap,
            ..IngestConfig::default()
        }
    }
}

/// One condition the ingest service flags for the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The reported health state changed between consecutive records.
    HealthChanged {
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
    /// The control-tick gap between consecutive records implies lost
    /// records.
    TickGap {
        /// Estimated records lost in the gap.
        missed: u32,
    },
    /// A CRC-valid frame failed record validation.
    Malformed,
}

/// One alert raised by a [`MeterSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// The line the alert concerns.
    pub line: usize,
    /// Control tick of the record that triggered the alert (the last good
    /// tick for [`AlertKind::Malformed`]).
    pub tick: u32,
    /// What happened.
    pub kind: AlertKind,
}

/// Occurrence counts of the per-record fault flags a session has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagHistory {
    /// Records with the bubble-activity flag set.
    pub bubble: u64,
    /// Records with the fouling-suspected flag set.
    pub fouling: u64,
    /// Records with the loop-saturated flag set.
    pub saturated: u64,
}

impl FlagHistory {
    /// Adds another history into this one.
    pub fn merge(&mut self, other: &FlagHistory) {
        self.bubble += other.bubble;
        self.fouling += other.fouling;
        self.saturated += other.saturated;
    }
}

/// Additive counters describing everything one session (or a whole merged
/// ingest run) did with its byte stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Bytes accepted into the queue.
    pub bytes_in: u64,
    /// Bytes discarded by the [`DropPolicy`].
    pub bytes_dropped: u64,
    /// Byte-rejection tallies under [`DropPolicy::Backpressure`] (retried
    /// bytes count once per rejected attempt).
    pub bytes_deferred: u64,
    /// Frame-layer counters from the session's [`FrameDecoder`].
    pub link: LinkStats,
    /// Record-layer parse tallies.
    pub records: RecordDecodeStats,
    /// Records inferred lost from control-tick gaps.
    pub records_lost: u64,
    /// Tick-gap events observed.
    pub tick_gaps: u64,
    /// Health-state transitions observed on the wire.
    pub health_transitions: u64,
    /// Alerts raised (including those beyond the retention cap).
    pub alerts_raised: u64,
    /// Alerts dropped by the retention cap.
    pub alerts_dropped: u64,
    /// Per-record fault-flag occurrence counts.
    pub flags: FlagHistory,
}

impl IngestStats {
    /// Adds another stat block into this one. Merging per-line stats in
    /// line order is the whole jobs-invariance story: every field is an
    /// additive counter, so the merged result is independent of which
    /// thread produced which line.
    pub fn merge(&mut self, other: &IngestStats) {
        self.bytes_in += other.bytes_in;
        self.bytes_dropped += other.bytes_dropped;
        self.bytes_deferred += other.bytes_deferred;
        self.link.merge(&other.link);
        self.records.merge(&other.records);
        self.records_lost += other.records_lost;
        self.tick_gaps += other.tick_gaps;
        self.health_transitions += other.health_transitions;
        self.alerts_raised += other.alerts_raised;
        self.alerts_dropped += other.alerts_dropped;
        self.flags.merge(&other.flags);
    }
}

/// Per-meter session state: one bounded-queue decoder pipeline plus the
/// derived monitoring state for a single line.
#[derive(Debug)]
pub struct MeterSession {
    config: IngestConfig,
    queue: VecDeque<u8>,
    decoder: FrameDecoder,
    bytes_in: u64,
    bytes_dropped: u64,
    bytes_deferred: u64,
    fold: RecordFold,
}

/// The monitoring state a session derives from its decoded frames — kept
/// apart from the queue and decoder so that `poll` can fold frames while
/// the decoder reads the queue in place.
#[derive(Debug)]
struct RecordFold {
    line: usize,
    alert_capacity: usize,
    records: RecordDecodeStats,
    records_lost: u64,
    tick_gaps: u64,
    health_transitions: u64,
    last_tick: Option<u32>,
    cadence: u32,
    last_health: Option<HealthState>,
    flags: FlagHistory,
    census: HealthCensus,
    alerts: Vec<Alert>,
    alerts_raised: u64,
    alerts_dropped: u64,
}

impl MeterSession {
    /// A fresh session for `line`.
    pub fn new(line: usize, config: IngestConfig) -> Self {
        MeterSession {
            queue: VecDeque::with_capacity(config.queue_capacity.min(4096)),
            decoder: FrameDecoder::new(),
            bytes_in: 0,
            bytes_dropped: 0,
            bytes_deferred: 0,
            fold: RecordFold {
                line,
                alert_capacity: config.alert_capacity,
                records: RecordDecodeStats::default(),
                records_lost: 0,
                tick_gaps: 0,
                health_transitions: 0,
                last_tick: None,
                cadence: config.nominal_tick_gap,
                last_health: None,
                flags: FlagHistory::default(),
                census: HealthCensus::default(),
                alerts: Vec::new(),
                alerts_raised: 0,
                alerts_dropped: 0,
            },
            config,
        }
    }

    /// Offers `bytes` to the session's bounded queue; returns how many were
    /// *consumed* (accepted or deliberately dropped — the caller must only
    /// retry the unconsumed tail, which is non-empty solely under
    /// [`DropPolicy::Backpressure`]).
    pub fn offer(&mut self, bytes: &[u8]) -> usize {
        let free = self.config.queue_capacity.saturating_sub(self.queue.len());
        match self.config.drop_policy {
            DropPolicy::Backpressure => {
                let take = bytes.len().min(free);
                self.queue.extend(&bytes[..take]);
                self.bytes_in += take as u64;
                self.bytes_deferred += (bytes.len() - take) as u64;
                take
            }
            DropPolicy::DropNewest => {
                let take = bytes.len().min(free);
                self.queue.extend(&bytes[..take]);
                self.bytes_in += take as u64;
                self.bytes_dropped += (bytes.len() - take) as u64;
                bytes.len()
            }
            DropPolicy::DropOldest => {
                self.queue.extend(bytes);
                self.bytes_in += bytes.len() as u64;
                while self.queue.len() > self.config.queue_capacity {
                    self.queue.pop_front();
                    self.bytes_dropped += 1;
                }
                bytes.len()
            }
        }
    }

    /// Drains the queue through the frame decoder, folding every decoded
    /// record into the session state. Returns frames processed.
    pub fn poll(&mut self) -> usize {
        let mut processed = 0;
        let fold = &mut self.fold;
        let (head, tail) = self.queue.as_slices();
        for slice in [head, tail] {
            self.decoder.feed(slice, |event| {
                if let FrameEvent::Payload(payload) = event {
                    fold.accept_frame(payload);
                    processed += 1;
                }
            });
        }
        self.queue.clear();
        processed
    }

    /// Ends the stream: drains the queue, then flushes the decoder (an
    /// idle line is end-of-stream), folding any frames the flush recovers.
    pub fn finish(&mut self) {
        self.poll();
        let fold = &mut self.fold;
        self.decoder.flush(|event| {
            if let FrameEvent::Payload(payload) = event {
                fold.accept_frame(payload);
            }
        });
    }

    /// The line index this session monitors.
    pub fn line(&self) -> usize {
        self.fold.line
    }

    /// The health census of every record seen so far.
    pub fn census(&self) -> &HealthCensus {
        &self.fold.census
    }

    /// The most recent health state reported on the wire.
    pub fn last_health(&self) -> Option<HealthState> {
        self.fold.last_health
    }

    /// The alerts retained so far (capped at the config's
    /// `alert_capacity`).
    pub fn alerts(&self) -> &[Alert] {
        &self.fold.alerts
    }

    /// A snapshot of every counter the session maintains.
    pub fn stats(&self) -> IngestStats {
        let fold = &self.fold;
        IngestStats {
            bytes_in: self.bytes_in,
            bytes_dropped: self.bytes_dropped,
            bytes_deferred: self.bytes_deferred,
            link: self.decoder.stats(),
            records: fold.records,
            records_lost: fold.records_lost,
            tick_gaps: fold.tick_gaps,
            health_transitions: fold.health_transitions,
            alerts_raised: fold.alerts_raised,
            alerts_dropped: fold.alerts_dropped,
            flags: fold.flags,
        }
    }
}

impl RecordFold {
    fn accept_frame(&mut self, payload: &[u8]) {
        let outcome = TelemetryRecord::parse(payload);
        self.records.tally(&outcome);
        match outcome {
            Ok(record) => self.accept_record(&record),
            Err(_) => {
                let tick = self.last_tick.unwrap_or(0);
                self.raise(tick, AlertKind::Malformed);
            }
        }
    }

    fn accept_record(&mut self, record: &TelemetryRecord) {
        self.census.record(record.health);
        self.flags.bubble += record.bubble as u64;
        self.flags.fouling += record.fouling as u64;
        self.flags.saturated += record.saturated as u64;
        // Ticks wrap, so the gap is a serial-number difference (RFC 1982):
        // one above half the range is a step back (a meter restart or a
        // reordered frame), which only re-anchors `last_tick` below — it
        // neither teaches the cadence nor implies loss.
        let forward_gap = self
            .last_tick
            .map(|last| record.tick.wrapping_sub(last))
            .filter(|&gap| gap <= u32::MAX / 2);
        if let Some(gap) = forward_gap {
            if self.cadence == 0 {
                // Learning mode: the first gap defines the cadence.
                self.cadence = gap.max(1);
            } else if gap > self.cadence {
                // Round to the nearest whole number of cadences; anything
                // beyond one implies lost records.
                let missed = (gap + self.cadence / 2) / self.cadence - 1;
                if missed > 0 {
                    self.records_lost += u64::from(missed);
                    self.tick_gaps += 1;
                    self.raise(record.tick, AlertKind::TickGap { missed });
                }
            }
        }
        self.last_tick = Some(record.tick);
        if let Some(prev) = self.last_health {
            if prev != record.health {
                self.health_transitions += 1;
                self.raise(
                    record.tick,
                    AlertKind::HealthChanged {
                        from: prev,
                        to: record.health,
                    },
                );
            }
        }
        self.last_health = Some(record.health);
    }

    fn raise(&mut self, tick: u32, kind: AlertKind) {
        self.alerts_raised += 1;
        if self.alerts.len() < self.alert_capacity {
            self.alerts.push(Alert {
                line: self.line,
                tick,
                kind,
            });
        } else {
            self.alerts_dropped += 1;
        }
    }
}

/// Line-level detection-fidelity confusion counts: did the wire-derived
/// census flag the same lines as unhealthy that the ground-truth
/// `HealthMonitor` did?
///
/// A line is *truth-bad* when its ground-truth census holds any
/// non-Healthy sample, and *seen-bad* when its ingest census does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fidelity {
    /// Lines scored.
    pub lines: u64,
    /// Truth-bad lines the wire census also flagged.
    pub true_positives: u64,
    /// Truth-bad lines the wire census missed.
    pub false_negatives: u64,
    /// Healthy lines the wire census flagged anyway.
    pub false_positives: u64,
    /// Healthy lines the wire census agreed were healthy.
    pub true_negatives: u64,
}

impl Fidelity {
    /// Scores one line.
    pub fn score(&mut self, seen: &HealthCensus, truth: &HealthCensus) {
        let bad = |c: &HealthCensus| c.total() > c.count(HealthState::Healthy);
        self.lines += 1;
        match (bad(seen), bad(truth)) {
            (true, true) => self.true_positives += 1,
            (false, true) => self.false_negatives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Fraction of lines classified correctly (`1.0` when no lines were
    /// scored).
    pub fn detection_accuracy(&self) -> f64 {
        if self.lines == 0 {
            return 1.0;
        }
        (self.true_positives + self.true_negatives) as f64 / self.lines as f64
    }

    /// Adds another score block into this one.
    pub fn merge(&mut self, other: &Fidelity) {
        self.lines += other.lines;
        self.true_positives += other.true_positives;
        self.false_negatives += other.false_negatives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
    }
}

/// Everything ingest learned from one line.
#[derive(Debug)]
pub struct LineIngest {
    /// The line index.
    pub line: usize,
    /// The session's counters.
    pub stats: IngestStats,
    /// Census of the records decoded from the wire.
    pub census: HealthCensus,
    /// Ground-truth census from the simulator's recorded samples.
    pub truth: HealthCensus,
    /// Frames the line actually encoded onto the wire.
    pub frames_sent: u64,
    /// Last health state seen on the wire.
    pub last_health: Option<HealthState>,
    /// Alerts retained by the session.
    pub alerts: Vec<Alert>,
}

/// The merged outcome of ingesting a whole fleet.
#[derive(Debug)]
pub struct IngestReport {
    /// Lines ingested.
    pub lines: usize,
    /// Counters merged over every line, in line order.
    pub stats: IngestStats,
    /// Wire-derived health census merged over every line.
    pub census: HealthCensus,
    /// Ground-truth census merged over every line.
    pub truth: HealthCensus,
    /// Frames encoded onto all wires.
    pub frames_sent: u64,
    /// Lines from which not a single record decoded.
    pub lines_silent: u64,
    /// Detection-fidelity confusion counts over lines.
    pub fidelity: Fidelity,
    /// The first alerts in line order, up to the config's
    /// `alert_capacity` in total.
    pub sample_alerts: Vec<Alert>,
}

impl IngestReport {
    /// Fraction of sent frames that decoded into valid records.
    pub fn delivery_ratio(&self) -> f64 {
        if self.frames_sent == 0 {
            return 1.0;
        }
        self.stats.records.records as f64 / self.frames_sent as f64
    }
}

/// Simulates one fleet line with the telemetry wiretap on and runs its
/// captured byte stream through a fresh [`MeterSession`].
///
/// # Errors
///
/// Returns [`CoreError`] if the line's meter cannot be built or calibrated
/// (see [`RunSpec::execute_with`]).
pub fn ingest_line(
    fleet: &FleetSpec,
    config: &IngestConfig,
    line: usize,
) -> Result<LineIngest, CoreError> {
    let spec = fleet.line_spec(line);
    ingest_spec(&spec, config, line)
}

/// Rejects a config no session can ingest through: a zero-capacity queue
/// holds no byte under any [`DropPolicy`].
fn check_config(config: &IngestConfig) -> Result<(), CoreError> {
    if config.queue_capacity == 0 {
        return Err(CoreError::Config {
            reason: "ingest queue_capacity must be at least 1",
        });
    }
    Ok(())
}

/// [`ingest_line`] for an explicit [`RunSpec`]: one wiretapped run, fed
/// through one session.
///
/// # Errors
///
/// Returns [`CoreError`] if the spec cannot execute, or
/// [`CoreError::Config`] for a zero `queue_capacity`.
pub fn ingest_spec(
    spec: &RunSpec,
    config: &IngestConfig,
    line: usize,
) -> Result<LineIngest, CoreError> {
    check_config(config)?;
    let mut recorder = PolicyRecorder::new(RecordPolicy::MetricsOnly, spec.reduction_plan());
    let (tail, _meter, wire) = spec.execute_wiretapped(&mut recorder)?;
    let (_, reduced) = recorder.finish();
    let mut session = MeterSession::new(line, *config);
    feed(&mut session, &wire, config.chunk_bytes);
    session.finish();
    Ok(LineIngest {
        line,
        stats: session.stats(),
        census: *session.census(),
        truth: reduced.health_census,
        frames_sent: tail.uart.frames_sent,
        last_health: session.last_health(),
        alerts: session.alerts().to_vec(),
    })
}

/// Feeds a captured wire into a session in `chunk_bytes` reads, polling
/// between offers so a [`DropPolicy::Backpressure`] queue always drains.
///
/// A zero-capacity backpressure queue takes nothing even right after a
/// poll emptied it; `feed` then moves on to the next chunk, leaving the
/// refused bytes counted in `bytes_deferred`.
pub fn feed(session: &mut MeterSession, wire: &[u8], chunk_bytes: usize) {
    let chunk_bytes = chunk_bytes.max(1);
    for chunk in wire.chunks(chunk_bytes) {
        let mut rest = chunk;
        let mut polled = false;
        loop {
            let consumed = session.offer(rest);
            if consumed == 0 && polled {
                break;
            }
            session.poll();
            polled = true;
            rest = &rest[consumed..];
            if rest.is_empty() {
                break;
            }
        }
    }
}

/// Ingests every line of a fleet across `jobs` worker threads and merges
/// the results in line order — bit-identical at any `jobs`, exactly the
/// fleet engine's contract.
///
/// # Errors
///
/// Returns the first per-line [`CoreError`] in line order, or
/// [`CoreError::Config`] for an invalid fleet spec or ingest config.
pub fn ingest_fleet(
    fleet: &FleetSpec,
    config: &IngestConfig,
    jobs: usize,
) -> Result<IngestReport, CoreError> {
    fleet.validate().map_err(|_| CoreError::Config {
        reason: "invalid fleet spec for ingest",
    })?;
    check_config(config)?;
    let lines: Vec<usize> = (0..fleet.lines).collect();
    let results =
        exec::parallel_map_indexed(&lines, jobs, |_, &line| ingest_line(fleet, config, line));
    let mut report = IngestReport {
        lines: fleet.lines,
        stats: IngestStats::default(),
        census: HealthCensus::default(),
        truth: HealthCensus::default(),
        frames_sent: 0,
        lines_silent: 0,
        fidelity: Fidelity::default(),
        sample_alerts: Vec::new(),
    };
    for result in results {
        let line = result?;
        absorb(&mut report, &line, config.alert_capacity);
    }
    Ok(report)
}

/// Folds one line's ingest into a report (line-order merge step).
pub fn absorb(report: &mut IngestReport, line: &LineIngest, alert_capacity: usize) {
    report.stats.merge(&line.stats);
    report.census.merge(&line.census);
    report.truth.merge(&line.truth);
    report.frames_sent += line.frames_sent;
    if line.stats.records.records == 0 {
        report.lines_silent += 1;
    }
    report.fidelity.score(&line.census, &line.truth);
    for alert in &line.alerts {
        if report.sample_alerts.len() >= alert_capacity {
            break;
        }
        report.sample_alerts.push(*alert);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_core::direction::FlowDirection;

    fn record(tick: u32, health: HealthState) -> TelemetryRecord {
        TelemetryRecord {
            velocity_centi_cm_s: 1000,
            direction: FlowDirection::Forward,
            bubble: false,
            fouling: health != HealthState::Healthy,
            saturated: false,
            health,
            conductance_nw_per_k: 2_000_000,
            tick,
        }
    }

    fn wire_of(records: &[TelemetryRecord]) -> Vec<u8> {
        let mut wire = Vec::new();
        for r in records {
            wire.extend(r.to_frame().unwrap());
        }
        wire
    }

    fn session_config() -> IngestConfig {
        IngestConfig {
            nominal_tick_gap: 10,
            ..IngestConfig::default()
        }
    }

    #[test]
    fn session_derives_census_and_transitions() {
        let wire = wire_of(&[
            record(0, HealthState::Healthy),
            record(10, HealthState::Healthy),
            record(20, HealthState::Degraded),
            record(30, HealthState::Degraded),
            record(40, HealthState::Healthy),
        ]);
        let mut s = MeterSession::new(3, session_config());
        feed(&mut s, &wire, 7);
        s.finish();
        let stats = s.stats();
        assert_eq!(stats.records.records, 5);
        assert_eq!(s.census().count(HealthState::Healthy), 3);
        assert_eq!(s.census().count(HealthState::Degraded), 2);
        assert_eq!(stats.health_transitions, 2);
        assert_eq!(stats.flags.fouling, 2);
        assert_eq!(s.last_health(), Some(HealthState::Healthy));
        assert_eq!(
            s.alerts()
                .iter()
                .filter(|a| matches!(a.kind, AlertKind::HealthChanged { .. }))
                .count(),
            2
        );
        assert!(s.alerts().iter().all(|a| a.line == 3));
    }

    #[test]
    fn session_detects_tick_gaps_and_estimates_loss() {
        // Ticks 0, 10, then 50: three records (20, 30, 40) went missing.
        let wire = wire_of(&[
            record(0, HealthState::Healthy),
            record(10, HealthState::Healthy),
            record(50, HealthState::Healthy),
        ]);
        let mut s = MeterSession::new(0, session_config());
        feed(&mut s, &wire, 64);
        s.finish();
        let stats = s.stats();
        assert_eq!(stats.tick_gaps, 1);
        assert_eq!(stats.records_lost, 3);
        assert_eq!(
            s.alerts().iter().find_map(|a| match a.kind {
                AlertKind::TickGap { missed } => Some(missed),
                _ => None,
            }),
            Some(3)
        );
    }

    #[test]
    fn session_learns_cadence_when_unconfigured() {
        let wire = wire_of(&[
            record(100, HealthState::Healthy),
            record(120, HealthState::Healthy), // learns cadence = 20
            record(180, HealthState::Healthy), // gap 60 = 2 missed
        ]);
        let mut s = MeterSession::new(
            0,
            IngestConfig {
                nominal_tick_gap: 0,
                ..IngestConfig::default()
            },
        );
        feed(&mut s, &wire, 64);
        s.finish();
        assert_eq!(s.stats().records_lost, 2);
    }

    #[test]
    fn tick_step_back_reanchors_without_booking_loss() {
        // A meter restart (its tick drops back toward 0) or a reordered
        // frame steps the tick back: the session re-anchors on the record
        // and books neither loss nor a tick-gap alert, while the census
        // and health transitions still count it.
        let health = [
            HealthState::Healthy,
            HealthState::Healthy,
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Degraded,
        ];
        for ticks in [[100, 110, 120, 118, 128], [100, 110, 120, 60, 70]] {
            let records: Vec<TelemetryRecord> = ticks
                .iter()
                .zip(health)
                .map(|(&t, h)| record(t, h))
                .collect();
            let mut s = MeterSession::new(0, session_config());
            feed(&mut s, &wire_of(&records), 64);
            s.finish();
            let stats = s.stats();
            assert_eq!(stats.records.records, 5, "ticks {ticks:?}");
            assert_eq!(s.census().count(HealthState::Degraded), 2);
            assert_eq!(stats.health_transitions, 1);
            assert_eq!(
                (stats.records_lost, stats.tick_gaps),
                (0, 0),
                "ticks {ticks:?}"
            );
            assert!(s
                .alerts()
                .iter()
                .all(|a| !matches!(a.kind, AlertKind::TickGap { .. })));
        }

        // A step back does not teach a learning session its cadence: the
        // 10-tick cadence comes from the first forward gap after it.
        let wire = wire_of(&[100, 60, 70, 80, 100].map(|t| record(t, HealthState::Healthy)));
        let mut s = MeterSession::new(
            0,
            IngestConfig {
                nominal_tick_gap: 0,
                ..IngestConfig::default()
            },
        );
        feed(&mut s, &wire, 64);
        s.finish();
        assert_eq!((s.stats().records_lost, s.stats().tick_gaps), (1, 1));
    }

    #[test]
    fn malformed_frames_are_counted_and_alerted() {
        let mut wire = wire_of(&[record(0, HealthState::Healthy)]);
        let mut bad = record(10, HealthState::Healthy).to_bytes();
        bad[0] = 99; // unknown version, CRC still valid after re-framing
        wire.extend(hotwire_isif::uart::encode_frame(&bad).unwrap());
        let mut s = MeterSession::new(0, session_config());
        feed(&mut s, &wire, 64);
        s.finish();
        let stats = s.stats();
        assert_eq!(stats.records.records, 1);
        assert_eq!(stats.records.unknown_version, 1);
        assert!(s
            .alerts()
            .iter()
            .any(|a| matches!(a.kind, AlertKind::Malformed)));
    }

    #[test]
    fn backpressure_defers_and_loses_nothing() {
        let records: Vec<TelemetryRecord> = (0..40)
            .map(|i| record(i * 10, HealthState::Healthy))
            .collect();
        let wire = wire_of(&records);
        let mut s = MeterSession::new(
            0,
            IngestConfig {
                queue_capacity: 16, // smaller than one chunk
                chunk_bytes: 64,
                nominal_tick_gap: 10,
                ..IngestConfig::default()
            },
        );
        feed(&mut s, &wire, 64);
        s.finish();
        let stats = s.stats();
        assert_eq!(
            stats.records.records, 40,
            "backpressure must not lose bytes"
        );
        assert_eq!(stats.bytes_dropped, 0);
        assert!(
            stats.bytes_deferred > 0,
            "the tiny queue must have pushed back"
        );
        assert_eq!(stats.records_lost, 0);
    }

    #[test]
    fn zero_capacity_backpressure_feed_returns() {
        // Regression: a queue that takes nothing even when empty used to
        // spin `feed` forever. The worker thread lets the test fail on a
        // timeout instead of hanging the suite.
        let wire = wire_of(&[record(0, HealthState::Healthy)]);
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut s = MeterSession::new(
                0,
                IngestConfig {
                    queue_capacity: 0,
                    ..session_config()
                },
            );
            feed(&mut s, &wire, 7);
            s.finish();
            done.send(s.stats()).expect("the test thread is waiting");
        });
        let stats = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("feed returns on a zero-capacity queue");
        worker.join().expect("feed worker panicked");
        assert_eq!(stats.bytes_in, 0);
        assert_eq!(stats.records.records, 0);
        // Each 7-byte read is refused twice: before and after the poll
        // that found nothing to drain.
        assert_eq!(stats.bytes_deferred, 2 * 20);
    }

    #[test]
    fn zero_capacity_queue_is_a_config_error() {
        let fleet = FleetSpec::new(
            "zero-capacity",
            hotwire_core::config::FlowMeterConfig::test_profile(),
            crate::scenario::Scenario::steady(50.0, 0.1),
            1,
        )
        .with_lines(2);
        let config = IngestConfig {
            queue_capacity: 0,
            ..IngestConfig::default()
        };
        assert!(matches!(
            ingest_fleet(&fleet, &config, 1),
            Err(CoreError::Config { .. })
        ));
        assert!(matches!(
            ingest_spec(&fleet.line_spec(0), &config, 0),
            Err(CoreError::Config { .. })
        ));
    }

    #[test]
    fn drop_oldest_sheds_head_bytes_under_overflow() {
        let records: Vec<TelemetryRecord> = (0..8)
            .map(|i| record(i * 10, HealthState::Healthy))
            .collect();
        let wire = wire_of(&records);
        let mut s = MeterSession::new(
            0,
            IngestConfig {
                queue_capacity: 16,
                drop_policy: DropPolicy::DropOldest,
                nominal_tick_gap: 10,
                ..IngestConfig::default()
            },
        );
        // Offer everything in one go without polling: the 16-byte queue
        // must evict from the head.
        let consumed = s.offer(&wire);
        assert_eq!(consumed, wire.len());
        s.finish();
        let stats = s.stats();
        assert_eq!(stats.bytes_dropped, wire.len() as u64 - 16);
        assert!(stats.records.records <= 1);
    }

    #[test]
    fn drop_newest_sheds_tail_bytes_under_overflow() {
        let records: Vec<TelemetryRecord> = (0..8)
            .map(|i| record(i * 10, HealthState::Healthy))
            .collect();
        let wire = wire_of(&records);
        let mut s = MeterSession::new(
            0,
            IngestConfig {
                queue_capacity: 20, // exactly one frame
                drop_policy: DropPolicy::DropNewest,
                nominal_tick_gap: 10,
                ..IngestConfig::default()
            },
        );
        let consumed = s.offer(&wire);
        assert_eq!(consumed, wire.len(), "tail drop consumes everything");
        s.finish();
        let stats = s.stats();
        assert_eq!(stats.records.records, 1, "only the first frame fits");
        assert_eq!(stats.bytes_dropped, wire.len() as u64 - 20);
    }

    #[test]
    fn fidelity_scores_the_confusion_matrix() {
        let mut seen_bad = HealthCensus::default();
        seen_bad.record(HealthState::Degraded);
        let mut seen_ok = HealthCensus::default();
        seen_ok.record(HealthState::Healthy);
        let mut f = Fidelity::default();
        f.score(&seen_bad, &seen_bad); // TP
        f.score(&seen_ok, &seen_bad); // FN
        f.score(&seen_bad, &seen_ok); // FP
        f.score(&seen_ok, &seen_ok); // TN
        assert_eq!(
            (
                f.true_positives,
                f.false_negatives,
                f.false_positives,
                f.true_negatives
            ),
            (1, 1, 1, 1)
        );
        assert!((f.detection_accuracy() - 0.5).abs() < 1e-12);
        let mut g = Fidelity::default();
        g.merge(&f);
        g.merge(&f);
        assert_eq!(g.lines, 8);
    }

    /// A wire from `parts`: good records, future-version records, records
    /// with a flipped bit, and SOH-led garbage, at arbitrary ticks.
    fn mixed_wire(parts: &[(u8, u32, u16)]) -> Vec<u8> {
        let mut wire = Vec::new();
        for &(kind, tick, at) in parts {
            let rec = record(tick, HealthState::from_code((at % 4) as u8));
            let mut frame = rec.to_frame().unwrap();
            let at = at as usize;
            match kind {
                0 => {}
                1 => {
                    let mut bytes = rec.to_bytes();
                    bytes[0] = hotwire_core::telemetry::RECORD_VERSION + 1;
                    frame = hotwire_isif::uart::encode_frame(&bytes).unwrap();
                }
                2 => {
                    let n = frame.len();
                    frame[at % n] ^= 1 << (at / n % 8);
                }
                _ => frame = vec![hotwire_isif::uart::SOH, at as u8, (at >> 8) as u8],
            }
            wire.extend(frame);
        }
        wire
    }

    proptest::proptest! {
        #[test]
        fn session_is_invariant_to_read_size(
            parts in proptest::collection::vec(
                (0u8..4, proptest::arbitrary::any::<u32>(), proptest::arbitrary::any::<u16>()),
                0..16,
            ),
            read in 2usize..48,
            cadence in 0u32..32,
        ) {
            // What a session derives from one wire does not depend on the
            // collector's read size, and every CRC-valid frame is either a
            // record or a tallied malformed payload.
            let wire = mixed_wire(&parts);
            let config = IngestConfig {
                nominal_tick_gap: cadence,
                ..IngestConfig::default()
            };
            let ingest = |read: usize| {
                let mut s = MeterSession::new(0, config);
                feed(&mut s, &wire, read);
                s.finish();
                (s.stats(), *s.census(), s.alerts().to_vec(), s.last_health())
            };
            let bytewise = ingest(1);
            proptest::prop_assert_eq!(&ingest(read), &bytewise);
            let stats = bytewise.0;
            proptest::prop_assert_eq!(
                stats.link.good_frames,
                stats.records.records + stats.records.malformed()
            );
        }
    }
}
