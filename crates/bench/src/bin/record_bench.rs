//! `record_bench` — measures the streaming record path and guards it
//! against regressions.
//!
//! Three measurements, written to `BENCH_record.json`:
//!
//! * **record path** — synthetic samples pushed straight through a
//!   [`PolicyRecorder`], `Full` vs `MetricsOnly`: the recorder's own
//!   throughput and the trace memory each policy holds;
//! * **end to end** — one identical co-simulation spec executed under both
//!   policies: wall clock, recorded samples/s and peak trace bytes;
//! * **endurance** — a ≥ 10 h simulated deployment under
//!   [`RecordPolicy::MetricsOnly`]: the trace store must stay at 0 bytes
//!   no matter how many samples stream by (the paper's months-long
//!   water-station logging, in miniature).
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin record_bench
//! cargo run -p hotwire-bench --release --bin record_bench -- --smoke --out out.json
//! cargo run -p hotwire-bench --release --bin record_bench -- --smoke --check BENCH_record.json
//! ```
//!
//! `--check BASELINE` compares the freshly measured record-path throughput
//! against the committed baseline and exits non-zero if it regressed by
//! more than 10 %. The flags, report write and floor check are the shared
//! [`hotwire_bench::gate`].

use hotwire_bench::gate::{self, Args, Baseline, Stop};
use hotwire_bench::json::json_number;
use hotwire_core::config::FlowMeterConfig;
use hotwire_core::HealthState;
use hotwire_rig::{
    PolicyRecorder, RecordPolicy, Recorder, ReductionPlan, RunSpec, Scenario, TraceSample, Windows,
};
use hotwire_units::Hertz;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: record_bench [--smoke] [--out PATH] [--check BASELINE]
options:
  --smoke          scaled-down sizes for CI (0.5 h endurance, 200k synthetic samples)
  --out PATH       where to write the JSON report (default: BENCH_record.json)
  --check BASELINE compare against a committed BENCH_record.json; exit 1 if the
                   record-path samples/s regressed more than 10 %";

/// Fraction of the baseline's throughput the fresh measurement may lose
/// before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.10;

/// One policy's record-path measurement.
struct PathRun {
    samples: u64,
    wall_s: f64,
    trace_heap_bytes: usize,
}

impl PathRun {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// A deterministic synthetic sample — exercises every column, costs
/// nothing to produce.
fn synthetic_sample(i: u64) -> TraceSample {
    let t = i as f64 * 0.01;
    TraceSample {
        t,
        true_cm_s: 100.0 + (i % 23) as f64,
        dut_cm_s: 100.0 + (i % 19) as f64 * 0.5,
        promag_cm_s: 100.0 + (i % 17) as f64 * 0.25,
        turbine_cm_s: 100.0 + (i % 13) as f64 * 0.125,
        supply_code: 1800 + (i % 101) as u32,
        bubble_coverage: (i % 7) as f64 * 0.01,
        fouling_um: (i % 5) as f64 * 0.1,
        fault: i % 257 == 0,
        health: HealthState::Healthy,
    }
}

/// Pushes `n` synthetic samples through a [`PolicyRecorder`] with a full
/// reduction plan and times the loop.
fn bench_record_path(policy: RecordPolicy, n: u64) -> PathRun {
    let plan = ReductionPlan {
        settle: (1.0, f64::INFINITY),
        windows: vec![(0.25 * n as f64 * 0.01, 0.75 * n as f64 * 0.01)],
        series: Some((0.0, 2.0)),
        err: Some((1.0, f64::INFINITY)),
    };
    let mut recorder = PolicyRecorder::new(policy, plan);
    recorder.reserve(match policy {
        RecordPolicy::MetricsOnly => 0,
        _ => n as usize,
    });
    let start = Instant::now();
    for i in 0..n {
        recorder.record(&synthetic_sample(i));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (store, reduced) = recorder.finish();
    let run = PathRun {
        samples: reduced.samples,
        wall_s,
        trace_heap_bytes: store.heap_bytes(),
    };
    std::hint::black_box((store, reduced));
    run
}

/// A low-rate config for long simulated deployments: 1 kHz modulator,
/// decimate by 2 — the same 500 Hz control rate as the test profile at
/// 1/32 the modulator cost.
fn endurance_config() -> FlowMeterConfig {
    FlowMeterConfig {
        modulator_rate: Hertz::new(1000.0),
        decimation: 2,
        ..FlowMeterConfig::test_profile()
    }
}

/// Executes one spec and reports recorded samples/s plus trace memory.
fn bench_spec(spec: RunSpec) -> Result<PathRun, String> {
    let start = Instant::now();
    let outcome = spec.execute().map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(PathRun {
        samples: outcome.reduced.samples,
        wall_s,
        trace_heap_bytes: outcome.trace.samples.heap_bytes(),
    })
}

/// The shared end-to-end / endurance spec shape: steady 100 cm/s line,
/// 10 ms trace cadence, settled statistics after 30 s.
fn endurance_spec(policy: RecordPolicy, duration_s: f64) -> RunSpec {
    RunSpec::new(
        "endurance",
        endurance_config(),
        Scenario::steady(100.0, duration_s),
        0xBE7C,
    )
    .with_sample_period(0.01)
    .with_windows(Windows::settled(30.0, 0.0).with_err(30.0, f64::INFINITY))
    .with_record(policy)
}

fn path_json(run: &PathRun) -> String {
    format!(
        "{{\"samples\": {}, \"wall_s\": {}, \"samples_per_s\": {}, \"trace_heap_bytes\": {}}}",
        run.samples,
        json_number(run.wall_s),
        json_number(run.samples_per_s()),
        run.trace_heap_bytes
    )
}

fn main() -> ExitCode {
    gate::exit(run())
}

fn run() -> Result<(), Stop> {
    let args = Args::parse(std::env::args().skip(1), USAGE, &["--smoke"], &[])?;
    let smoke = args.switch("--smoke");

    let synthetic_n: u64 = if smoke { 200_000 } else { 2_000_000 };
    let end_to_end_s = if smoke { 120.0 } else { 600.0 };
    let endurance_s = if smoke { 1_800.0 } else { 36_000.0 };

    // 1. Record path: the recorder alone, synthetic samples.
    eprintln!("record path: {synthetic_n} synthetic samples per policy…");
    let path_full = bench_record_path(RecordPolicy::Full, synthetic_n);
    let path_metrics = bench_record_path(RecordPolicy::MetricsOnly, synthetic_n);
    eprintln!(
        "  full        {:>12.0} samples/s, {} trace bytes",
        path_full.samples_per_s(),
        path_full.trace_heap_bytes
    );
    eprintln!(
        "  metrics-only{:>12.0} samples/s, {} trace bytes",
        path_metrics.samples_per_s(),
        path_metrics.trace_heap_bytes
    );

    // 2. End to end: one identical spec, both policies.
    eprintln!("end to end: {end_to_end_s} s simulated under each policy…");
    let e2e_full = bench_spec(endurance_spec(RecordPolicy::Full, end_to_end_s))
        .map_err(|e| format!("end-to-end Full run failed: {e}"))?;
    let e2e_metrics = bench_spec(endurance_spec(RecordPolicy::MetricsOnly, end_to_end_s))
        .map_err(|e| format!("end-to-end MetricsOnly run failed: {e}"))?;
    eprintln!(
        "  full         {:.2} s wall, {} trace bytes",
        e2e_full.wall_s, e2e_full.trace_heap_bytes
    );
    eprintln!(
        "  metrics-only {:.2} s wall, {} trace bytes",
        e2e_metrics.wall_s, e2e_metrics.trace_heap_bytes
    );

    // 3. Endurance: hours of simulated deployment, O(1) trace memory.
    eprintln!(
        "endurance: {:.2} h simulated under MetricsOnly…",
        endurance_s / 3600.0
    );
    let endurance = bench_spec(endurance_spec(RecordPolicy::MetricsOnly, endurance_s))
        .map_err(|e| format!("endurance run failed: {e}"))?;
    eprintln!(
        "  {} samples in {:.2} s wall, {} trace bytes",
        endurance.samples, endurance.wall_s, endurance.trace_heap_bytes
    );
    if endurance.trace_heap_bytes != 0 {
        return Err(Stop::Fail(format!(
            "endurance run leaked trace memory: {} bytes (expected 0 under MetricsOnly)",
            endurance.trace_heap_bytes
        )));
    }

    let headline = path_metrics.samples_per_s();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"headline_samples_per_s\": {},\n  \"record_path\": {{\n    \
         \"synthetic_samples\": {synthetic_n},\n    \"full\": {},\n    \"metrics_only\": {},\n    \
         \"metrics_only_speedup\": {}\n  }},\n  \"end_to_end\": {{\n    \"sim_seconds\": {},\n    \
         \"full\": {},\n    \"metrics_only\": {}\n  }},\n  \"endurance\": {{\n    \
         \"sim_hours\": {},\n    \"policy\": \"MetricsOnly\",\n    {}\n  }}\n}}\n",
        json_number(headline),
        path_json(&path_full),
        path_json(&path_metrics),
        json_number(path_metrics.samples_per_s() / path_full.samples_per_s()),
        json_number(end_to_end_s),
        path_json(&e2e_full),
        path_json(&e2e_metrics),
        json_number(endurance_s / 3600.0),
        path_json(&endurance)
            .trim_start_matches('{')
            .trim_end_matches('}'),
    );
    gate::write_report(args.value("--out").unwrap_or("BENCH_record.json"), &json)?;
    if let Some(path) = args.value("--check") {
        let baseline = Baseline::load(path)?;
        baseline.check_floor("headline_samples_per_s", headline, REGRESSION_TOLERANCE)?;
    }
    Ok(())
}
