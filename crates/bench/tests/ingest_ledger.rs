//! The ingest replay's byte ledger and report digest.
//!
//! The F3 fleet template (ADC faults plus UART corruption on every 3rd
//! line) is wiretapped into a small corpus — 8 lines × 3 s on the fast AFE
//! tier at a 5 ms telemetry cadence — and replayed over 4096 virtual lines,
//! line `i` fed corpus stream `i % 8`, each session learning its tick gap
//! from the first gap it sees. Every replayed wire byte must be accounted
//! for by the decode counters, and the merged report's digest is pinned, so
//! a change to framing, CRC, re-hunt, record parse or the ingest counters
//! shows here before it shows in `hwbench`'s `ingest_replay`.

use hotwire_bench::experiments::f3_ingest;
use hotwire_core::config::{fnv1a64, AfeTier};
use hotwire_rig::ingest::{absorb, feed, IngestConfig, IngestReport, LineIngest, MeterSession};
use hotwire_rig::record::{HealthCensus, PolicyRecorder, RecordPolicy};
use hotwire_rig::{exec, Fidelity, IngestStats, LineConfig};

/// Simulated lines wiretapped into the corpus.
const CORPUS_LINES: usize = 8;
/// Scenario seconds per corpus line.
const CORPUS_DURATION_S: f64 = 3.0;
/// Telemetry cadence of the corpus, seconds per record.
const CORPUS_CADENCE_S: f64 = 0.005;
/// Sessions the corpus is replayed over.
const VIRTUAL_LINES: usize = 4096;
/// Wire bytes of one decoded frame: a 16-byte record plus 4 framing bytes.
const FRAME_BYTES: u64 = 20;
/// FNV-1a over the merged report's counters, census, truth and fidelity.
const REPORT_DIGEST: u64 = 0x0e91_12fc_72ff_1bf7;

/// One wiretapped line of the corpus.
struct CapturedLine {
    wire: Vec<u8>,
    frames_sent: u64,
    truth: HealthCensus,
}

fn capture_corpus() -> Vec<CapturedLine> {
    let spec = f3_ingest::fleet_spec(CORPUS_LINES, CORPUS_DURATION_S)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_sample_period(CORPUS_CADENCE_S);
    let lines: Vec<usize> = (0..CORPUS_LINES).collect();
    exec::parallel_map_indexed(&lines, 2, |_, &line| {
        let run_spec = spec.line_spec(line);
        let mut recorder =
            PolicyRecorder::new(RecordPolicy::MetricsOnly, run_spec.reduction_plan());
        let (tail, _meter, wire) = run_spec
            .execute_wiretapped(&mut recorder)
            .expect("corpus line runs");
        let (_, reduced) = recorder.finish();
        CapturedLine {
            wire,
            frames_sent: tail.uart.frames_sent,
            truth: reduced.health_census,
        }
    })
}

#[test]
fn replayed_corpus_closes_its_byte_ledger_and_keeps_its_digest() {
    let corpus = capture_corpus();
    // The default's `nominal_tick_gap` of 0 learns the gap per session.
    let config = IngestConfig::default();
    let lines: Vec<usize> = (0..VIRTUAL_LINES).collect();
    let ingested = exec::parallel_map_indexed(&lines, 2, |_, &line| {
        let source = &corpus[line % corpus.len()];
        let mut session = MeterSession::new(line, config);
        feed(&mut session, &source.wire, config.chunk_bytes);
        session.finish();
        LineIngest {
            line,
            stats: session.stats(),
            census: *session.census(),
            truth: source.truth,
            frames_sent: source.frames_sent,
            last_health: session.last_health(),
            alerts: session.alerts().to_vec(),
        }
    });
    let mut report = IngestReport {
        lines: VIRTUAL_LINES,
        stats: IngestStats::default(),
        census: HealthCensus::default(),
        truth: HealthCensus::default(),
        frames_sent: 0,
        lines_silent: 0,
        fidelity: Fidelity::default(),
        sample_alerts: Vec::new(),
    };
    for line in &ingested {
        absorb(&mut report, line, config.alert_capacity);
    }

    // Every wire byte decoded into a frame, was skipped while hunting, or
    // was counted discarded; sessions are finished, so none is in flight.
    let bytes: u64 = lines
        .iter()
        .map(|&i| corpus[i % corpus.len()].wire.len() as u64)
        .sum();
    let link = &report.stats.link;
    assert_eq!(
        bytes,
        link.resyncs + FRAME_BYTES * link.good_frames + link.discarded_bytes,
        "byte ledger: {link:?}"
    );
    assert!(link.crc_errors > 0 && link.recovered_frames > 0, "{link:?}");

    let digest = fnv1a64(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}",
            report.stats,
            report.census,
            report.truth,
            report.fidelity,
            report.frames_sent,
            report.lines_silent
        )
        .as_bytes(),
    );
    assert_eq!(digest, REPORT_DIGEST, "report digest {digest:016x}");
}
