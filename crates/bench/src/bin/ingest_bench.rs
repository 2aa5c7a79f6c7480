//! `ingest_bench` — measures the telemetry ingest pipeline and guards it
//! against regressions.
//!
//! The load generator is the simulator itself: the F3 fleet template
//! (ADC faults + UART corruption on every 3rd line, fast AFE tier, 5 ms
//! telemetry cadence) is wiretapped once into a small corpus of captured
//! byte streams, which is then replayed across thousands of *virtual*
//! lines — so the measured phase is pure ingest (framing + CRC + record
//! parse + session state + census), with zero simulation cost inside the
//! timed region.
//!
//! Measurements, written to `BENCH_ingest.json`:
//!
//! * **throughput** — frames/s through the full parse+session+census
//!   pipeline at a pinned 2-job count (the gated headline), plus the
//!   process default (informational). The headline is hard-gated at
//!   ≥ 1 M frames/s;
//! * **jobs-invariance** — the merged ingest report at `--jobs` 1, 2 and
//!   3 must be bit-identical (hard gate, compared by digest);
//! * **accounting** — the byte ledger over the whole replay: every wire
//!   byte either decoded into a frame, was skipped hunting, or was
//!   counted discarded (hard gate).
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin ingest_bench
//! cargo run -p hotwire-bench --release --bin ingest_bench -- --out out.json
//! cargo run -p hotwire-bench --release --bin ingest_bench -- --check BENCH_ingest.json
//! ```
//!
//! `--check BASELINE` compares the fresh run against the committed
//! baseline and exits non-zero if the headline frames/s regressed by more
//! than 10 % or the jobs-invariance digest differs — so any change to the
//! decode or ingest counters fails the gate until the baseline is
//! re-recorded. The flags, report write, floor check and digest check are
//! the shared [`hotwire_bench::gate`].

use hotwire_bench::experiments::f3_ingest;
use hotwire_bench::gate::{self, Args, Baseline, Stop};
use hotwire_bench::json::json_number;
use hotwire_core::config::{fnv1a64, AfeTier};
use hotwire_rig::ingest::{absorb, feed, IngestConfig, IngestReport, LineIngest, MeterSession};
use hotwire_rig::record::{HealthCensus, PolicyRecorder, RecordPolicy};
use hotwire_rig::{exec, Fidelity, IngestStats, LineConfig};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ingest_bench [--out PATH] [--check BASELINE]
options:
  --out PATH       where to write the JSON report (default: BENCH_ingest.json)
  --check BASELINE compare against a committed BENCH_ingest.json; exit 1 if
                   the headline frames/s regressed more than 10 % or the
                   jobs-invariance digest differs";

/// Fraction of the baseline's throughput the fresh measurement may lose
/// before `--check` fails (the ISSUE's soak gate: a ≥ 10 % frames/s drop
/// is a regression).
const REGRESSION_TOLERANCE: f64 = 0.10;

/// The job count the gated headline is measured at — pinned so the number
/// is comparable across machines with different core counts.
const HEADLINE_JOBS: usize = 2;

/// Hard floor on the gated headline: the soak config must push at least
/// this many frames/s through parse + session + census.
const MIN_FRAMES_PER_S: f64 = 1_000_000.0;

/// Simulated lines wiretapped into the replay corpus.
const CORPUS_LINES: usize = 8;
/// Scenario seconds per corpus line.
const CORPUS_DURATION_S: f64 = 3.0;
/// Telemetry cadence of the corpus, seconds per record (5 ms ⇒ ~600
/// frames per corpus line).
const CORPUS_CADENCE_S: f64 = 0.005;

/// One wiretapped line of the corpus.
struct CapturedLine {
    wire: Vec<u8>,
    frames_sent: u64,
    truth: HealthCensus,
}

/// Wiretaps the F3 fleet template at bench scale: fast AFE tier and a
/// 5 ms telemetry cadence, every 3rd line corrupt.
fn capture_corpus() -> Result<Vec<CapturedLine>, String> {
    let spec = f3_ingest::fleet_spec(CORPUS_LINES, CORPUS_DURATION_S)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_sample_period(CORPUS_CADENCE_S);
    let lines: Vec<usize> = (0..CORPUS_LINES).collect();
    let captured = exec::parallel_map_indexed(&lines, exec::default_jobs(), |_, &line| {
        let run_spec = spec.line_spec(line);
        let mut recorder =
            PolicyRecorder::new(RecordPolicy::MetricsOnly, run_spec.reduction_plan());
        let (tail, _meter, wire) = run_spec
            .execute_wiretapped(&mut recorder)
            .map_err(|e| e.to_string())?;
        let (_, reduced) = recorder.finish();
        Ok::<CapturedLine, String>(CapturedLine {
            wire,
            frames_sent: tail.uart.frames_sent,
            truth: reduced.health_census,
        })
    });
    captured.into_iter().collect()
}

/// One replay measurement: `virtual_lines` sessions, line `i` fed corpus
/// stream `i % corpus.len()`, merged in line order.
struct Replay {
    report: IngestReport,
    frames_sent: u64,
    bytes: u64,
    wall_s: f64,
}

impl Replay {
    fn frames_per_s(&self) -> f64 {
        self.frames_sent as f64 / self.wall_s
    }

    /// The jobs-invariance witness: FNV-1a over the `Debug` rendering of
    /// every merged counter block.
    fn digest(&self) -> u64 {
        let r = &self.report;
        fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{:?}|{}|{}",
                r.stats, r.census, r.truth, r.fidelity, r.frames_sent, r.lines_silent
            )
            .as_bytes(),
        )
    }
}

/// Best-of-`rounds` replay (after one warmup pass): the replay is
/// deterministic, so every round produces the same report and the max
/// frames/s is the least noise-contaminated measurement on a loaded CI
/// machine.
fn best_replay(
    corpus: &[CapturedLine],
    virtual_lines: usize,
    jobs: usize,
    rounds: usize,
) -> Replay {
    let mut best = replay(corpus, virtual_lines, jobs); // warmup
    for _ in 0..rounds {
        let run = replay(corpus, virtual_lines, jobs);
        if run.frames_per_s() > best.frames_per_s() {
            best = run;
        }
    }
    best
}

fn replay(corpus: &[CapturedLine], virtual_lines: usize, jobs: usize) -> Replay {
    let config = IngestConfig {
        nominal_tick_gap: 0, // learned per session from the first gap
        ..IngestConfig::default()
    };
    let lines: Vec<usize> = (0..virtual_lines).collect();
    let start = Instant::now();
    let ingested = exec::parallel_map_indexed(&lines, jobs, |_, &line| {
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
        lines: virtual_lines,
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
    let wall_s = start.elapsed().as_secs_f64();
    let bytes: u64 = (0..virtual_lines)
        .map(|i| corpus[i % corpus.len()].wire.len() as u64)
        .sum();
    let frames_sent = report.frames_sent;
    Replay {
        report,
        frames_sent,
        bytes,
        wall_s,
    }
}

/// The byte-ledger gate over a merged report: every replayed wire byte is
/// accounted for by the decode counters (decoded frame bytes + hunting
/// skips + discards; sessions are flushed, so nothing stays in flight).
fn ledger_holds(r: &Replay) -> bool {
    let link = &r.report.stats.link;
    // Each decoded frame carried a RECORD-sized payload + 4 framing bytes;
    // malformed payloads still decoded as frames of their own length, so
    // reconstruct from good_frames only when lengths are uniform — here
    // every corpus frame is a 16-byte record, 20 wire bytes.
    let frame_bytes = link.good_frames * 20;
    r.bytes == link.resyncs + frame_bytes + link.discarded_bytes
}

fn replay_json(r: &Replay, jobs: usize) -> String {
    let s = &r.report.stats;
    format!(
        "{{\"jobs\": {jobs}, \"lines\": {}, \"frames_sent\": {}, \"records\": {}, \
         \"bytes\": {}, \"wall_s\": {}, \"frames_per_s\": {}, \"crc_errors\": {}, \
         \"recovered_frames\": {}, \"records_lost\": {}, \"alerts_raised\": {}, \
         \"detection_fidelity\": {}, \"digest\": \"{:016x}\"}}",
        r.report.lines,
        r.frames_sent,
        s.records.records,
        r.bytes,
        json_number(r.wall_s),
        json_number(r.frames_per_s()),
        s.link.crc_errors,
        s.link.recovered_frames,
        s.records_lost,
        s.alerts_raised,
        json_number(r.report.fidelity.detection_accuracy()),
        r.digest()
    )
}

fn main() -> ExitCode {
    gate::exit(run())
}

fn run() -> Result<(), Stop> {
    let args = Args::parse(std::env::args().skip(1), USAGE, &[], &[])?;
    let virtual_lines = 4096;

    eprintln!(
        "ingest: wiretapping corpus ({CORPUS_LINES} lines × {CORPUS_DURATION_S} s at \
         {CORPUS_CADENCE_S} s cadence)…"
    );
    let corpus = capture_corpus().map_err(|e| format!("corpus capture failed: {e}"))?;
    let corpus_bytes: usize = corpus.iter().map(|c| c.wire.len()).sum();
    let corpus_frames: u64 = corpus.iter().map(|c| c.frames_sent).sum();
    eprintln!("  {corpus_frames} frames, {corpus_bytes} wire bytes captured");

    eprintln!("ingest: {virtual_lines} virtual lines at --jobs {HEADLINE_JOBS} (headline)…");
    let pinned = best_replay(&corpus, virtual_lines, HEADLINE_JOBS, 5);
    eprintln!(
        "  {:.2} M frames/s ({} frames, {} records, {:.3} s)",
        pinned.frames_per_s() / 1e6,
        pinned.frames_sent,
        pinned.report.stats.records.records,
        pinned.wall_s
    );

    // Hard gate: the soak config must sustain the headline floor.
    if pinned.frames_per_s() < MIN_FRAMES_PER_S {
        return Err(Stop::Fail(format!(
            "ingest throughput below the hard floor: {:.0} frames/s < {:.0}",
            pinned.frames_per_s(),
            MIN_FRAMES_PER_S
        )));
    }

    // Hard gate: the merged report must be bit-identical at any job count.
    eprintln!("ingest: jobs-invariance ({virtual_lines} lines at --jobs 1/2/3)…");
    let d1 = replay(&corpus, virtual_lines, 1).digest();
    let d2 = replay(&corpus, virtual_lines, 2).digest();
    let d3 = replay(&corpus, virtual_lines, 3).digest();
    if d1 != d2 || d2 != d3 {
        return Err(Stop::Fail(format!(
            "ingest report DIVERGED across jobs: {d1:016x} / {d2:016x} / {d3:016x}"
        )));
    }
    eprintln!("  identical bits: digest {d2:016x}");

    // Hard gate: the byte ledger closes over the whole replay.
    if !ledger_holds(&pinned) {
        let link = &pinned.report.stats.link;
        return Err(Stop::Fail(format!(
            "byte ledger broken: {} bytes != resyncs {} + frames {}×20 + discarded {}",
            pinned.bytes, link.resyncs, link.good_frames, link.discarded_bytes
        )));
    }
    eprintln!("  byte ledger closed over {} bytes", pinned.bytes);

    let default_jobs = exec::default_jobs();
    eprintln!("ingest: same replay at --jobs {default_jobs} (informational)…");
    let auto = best_replay(&corpus, virtual_lines, default_jobs, 1);
    eprintln!("  {:.2} M frames/s", auto.frames_per_s() / 1e6);

    let headline = pinned.frames_per_s();
    let json = format!(
        "{{\n  \"headline_frames_per_s\": {},\n  \
         \"headline_jobs\": {HEADLINE_JOBS},\n  \"corpus\": {{\"lines\": {CORPUS_LINES}, \
         \"seconds_per_line\": {CORPUS_DURATION_S}, \"cadence_s\": {CORPUS_CADENCE_S}, \
         \"frames\": {corpus_frames}, \"bytes\": {corpus_bytes}}},\n  \"replay\": {{\n    \
         \"pinned_jobs\": {},\n    \"default_jobs\": {}\n  }},\n  \
         \"jobs_invariance_digest\": \"{:016x}\",\n  \
         \"default_jobs_resolved\": {default_jobs}\n}}\n",
        json_number(headline),
        replay_json(&pinned, HEADLINE_JOBS),
        replay_json(&auto, default_jobs),
        d2,
    );
    gate::write_report(args.value("--out").unwrap_or("BENCH_ingest.json"), &json)?;
    if let Some(path) = args.value("--check") {
        let baseline = Baseline::load(path)?;
        baseline.check_floor("headline_frames_per_s", headline, REGRESSION_TOLERANCE)?;
        baseline.check_digest("jobs_invariance_digest", &format!("{d2:016x}"))?;
    }
    Ok(())
}
