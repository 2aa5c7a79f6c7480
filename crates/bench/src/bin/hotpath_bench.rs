//! `hotpath_bench` — measures the modulator-rate hot path and guards the
//! SoA block walk against regressions.
//!
//! Three measurements of the same water-station meter on a steady line,
//! written to `BENCH_hotpath.json` as modulator-equivalent samples/s:
//!
//! * **scalar** — one [`Meter::step`] call per modulator tick (the
//!   historical per-sample path, kept as the alignment/fallback path);
//! * **block** — one [`FlowMeter::step_frame`] call per decimation frame
//!   (the default `AfeTier::Exact` tier, bit-identical to scalar);
//! * **fast** — `step_frame` under the opt-in `AfeTier::Fast` tier
//!   (quasi-static once-per-frame AFE, bounded-error).
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin hotpath_bench
//! cargo run -p hotwire-bench --release --bin hotpath_bench -- --smoke --out out.json
//! cargo run -p hotwire-bench --release --bin hotpath_bench -- --smoke --check BENCH_hotpath.json
//! ```
//!
//! `--check BASELINE` gates the *speedup ratios* (block/scalar and
//! fast/scalar), not the absolute samples/s: ratios transfer between
//! machines, absolute throughput does not.

use hotwire_bench::json::{json_number, parse_number};
use hotwire_core::config::AfeTier;
use hotwire_core::{FlowMeter, FlowMeterConfig, Meter};
use hotwire_physics::{MafParams, SensorEnvironment};
use hotwire_units::MetersPerSecond;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: hotpath_bench [--smoke] [--out PATH] [--check BASELINE]
options:
  --smoke          scaled-down frame count for CI
  --out PATH       where to write the JSON report (default: BENCH_hotpath.json)
  --check BASELINE compare against a committed BENCH_hotpath.json; exit 1 if a
                   speedup ratio regressed more than 30 %";

/// Fraction of a baseline speedup ratio the fresh measurement may lose
/// before `--check` fails.  The gated quantities are *ratios* between
/// tiers measured in the same process, so machine speed cancels out —
/// but scheduling noise on shared CI runners still swings the block
/// ratio by ±15 % run to run, hence the wide band.  The gate exists to
/// catch structural regressions (an accidental de-fusing of the AFE
/// chain halves the block ratio; losing the fast tier's table drops its
/// ratio by 100×), not single-digit drift.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Seed shared by all three meters so they regulate the same plant.
const SEED: u64 = 0x407_7A7;

/// The steady mid-range flow every tier is measured at.
fn bench_env() -> SensorEnvironment {
    SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(120.0),
        ..SensorEnvironment::still_water()
    }
}

/// A settled water-station meter on the requested tier.
fn settled_meter(tier: AfeTier, warmup_frames: u64) -> FlowMeter {
    let config = FlowMeterConfig {
        afe_tier: tier,
        ..FlowMeterConfig::water_station()
    };
    let mut meter =
        FlowMeter::new(config, MafParams::nominal(), SEED).expect("water-station config is valid");
    let env = bench_env();
    for _ in 0..warmup_frames {
        let _ = meter.step_frame(env);
    }
    meter
}

/// One tier's measurement: wall seconds for `frames` decimation frames.
struct TierRun {
    wall_s: f64,
    samples: u64,
}

impl TierRun {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Measures `frames` frames through per-tick [`Meter::step`] calls.
fn measure_scalar(frames: u64, warmup_frames: u64) -> TierRun {
    let mut meter = settled_meter(AfeTier::Exact, warmup_frames);
    let env = bench_env();
    let ticks = frames * u64::from(meter.ticks_per_frame());
    let start = Instant::now();
    let mut controls = 0u64;
    for _ in 0..ticks {
        if meter.step(env).is_some() {
            controls += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(controls, frames, "every frame must yield one measurement");
    TierRun {
        wall_s,
        samples: ticks,
    }
}

/// Measures `frames` frames through [`FlowMeter::step_frame`] on `tier`.
fn measure_frames(tier: AfeTier, frames: u64, warmup_frames: u64) -> TierRun {
    let mut meter = settled_meter(tier, warmup_frames);
    let env = bench_env();
    let ticks = frames * u64::from(meter.ticks_per_frame());
    let start = Instant::now();
    let mut supply_sum = 0i64;
    for _ in 0..frames {
        supply_sum += i64::from(meter.step_frame(env).supply_code);
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert!(supply_sum > 0, "the loop must keep regulating");
    TierRun {
        wall_s,
        samples: ticks,
    }
}

fn tier_json(run: &TierRun) -> String {
    format!(
        "{{\"samples\": {}, \"wall_s\": {}, \"samples_per_s\": {}}}",
        run.samples,
        json_number(run.wall_s),
        json_number(run.samples_per_s())
    )
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out_path = path,
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => {
                    eprintln!("--check needs a baseline path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    // 0.5 s of scenario warm-up settles the CTA loop; the measured window
    // is the same number of frames for every tier so the ratios compare
    // identical work.
    let (frames, warmup_frames) = if smoke { (1_000, 500) } else { (8_000, 500) };

    eprintln!("hotpath: {frames} water-station frames per tier (warm-up {warmup_frames})…");
    let scalar = measure_scalar(frames, warmup_frames);
    eprintln!("  scalar  {:>12.0} samples/s", scalar.samples_per_s());
    let block = measure_frames(AfeTier::Exact, frames, warmup_frames);
    eprintln!("  block   {:>12.0} samples/s", block.samples_per_s());
    let fast = measure_frames(AfeTier::Fast, frames, warmup_frames);
    eprintln!("  fast    {:>12.0} samples/s", fast.samples_per_s());

    let block_speedup = block.samples_per_s() / scalar.samples_per_s();
    let fast_speedup = fast.samples_per_s() / scalar.samples_per_s();
    eprintln!("  speedups: block {block_speedup:.2}×, fast {fast_speedup:.2}×");

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"profile\": \"water_station\",\n  \
         \"frames\": {frames},\n  \"scalar\": {},\n  \"block\": {},\n  \"fast\": {},\n  \
         \"block_speedup\": {},\n  \"fast_speedup\": {}\n}}\n",
        tier_json(&scalar),
        tier_json(&block),
        tier_json(&fast),
        json_number(block_speedup),
        json_number(fast_speedup),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");

    if let Some(baseline_path) = check_path {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, fresh) in [
            ("block_speedup", block_speedup),
            ("fast_speedup", fast_speedup),
        ] {
            let Some(expected) = parse_number(&baseline, name) else {
                eprintln!("baseline {baseline_path} has no {name}");
                return ExitCode::FAILURE;
            };
            let floor = expected * (1.0 - REGRESSION_TOLERANCE);
            if fresh < floor {
                eprintln!(
                    "hot-path {name} regressed: {fresh:.2}× vs baseline {expected:.2}× \
                     (floor {floor:.2}×)"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("{name} check passed: {fresh:.2}× vs baseline {expected:.2}×");
        }
    }
    ExitCode::SUCCESS
}
