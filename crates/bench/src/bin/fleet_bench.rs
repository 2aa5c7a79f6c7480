//! `fleet_bench` — measures the fleet engine and guards it against
//! regressions.
//!
//! Measurements, written to `BENCH_fleet.json`:
//!
//! * **throughput** — the F2 fleet population (seed-diverse lines, ±5 %
//!   demand jitter, faults on every 10th line) executed end to end:
//!   lines/s and streamed samples/s, at a pinned 2-job count (the gated
//!   headline, comparable across machines with ≥ 2 cores), again at the
//!   process default, and once more on the opt-in fast AFE tier (both
//!   informational);
//! * **memory** — retained bytes per line: small fleets keep one compact
//!   [`LineSummary`] per line and **zero** trace bytes (`MetricsOnly` is
//!   forced by the engine); the run fails outright if the measured trace
//!   heap is non-zero;
//! * **scale** — a large fast-tier fleet (100 k lines full, 2 k smoke)
//!   run as independent shards on the sketch path: per-shard accumulator
//!   heap stays fixed (gated below 64 KiB) and no per-line summaries are
//!   retained, demonstrating O(shard) memory at any population size;
//! * **sharded equivalence** — the headline population re-run as shards
//!   and merged must reproduce the monolithic aggregates bit for bit
//!   (hard gate, compared by digest);
//! * **mixed-modality equivalence** — a fleet mixing heat-pulse DUT
//!   lines with Promag reference comparators (every modality behind the
//!   generic `Meter` engine) must be jobs-invariant and reproduce its
//!   monolithic bits when run as shards and merged (hard gate);
//! * **maintenance overhead** — the headline population re-run with the
//!   F4 hybrid maintenance policy live on every line must hold lines/s
//!   within 10 % of the unmaintained headline (hard gate): policy
//!   evaluation is a per-tick comparison, not a second physics pass.
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin fleet_bench
//! cargo run -p hotwire-bench --release --bin fleet_bench -- --smoke --out out.json
//! cargo run -p hotwire-bench --release --bin fleet_bench -- --smoke --check BENCH_fleet.json
//! ```
//!
//! `--check BASELINE` compares the freshly measured pinned-jobs lines/s
//! against the committed baseline and exits non-zero if it regressed by
//! more than 30 %. The flags, report write and floor check are the shared
//! [`hotwire_bench::gate`]; the hard gates above run on every invocation,
//! with or without `--check`.
//!
//! # Kill-and-resume smoke
//!
//! `--checkpoint PATH` switches to the checkpoint exercise instead of the
//! measurements: the smoke fleet runs with a checkpoint file at `PATH`.
//! With `--kill-after-lines N` the process **hard-exits** (code 86, no
//! cleanup) at the first batch boundary covering ≥ N lines — a real
//! process death with a checkpoint left on disk. A second invocation
//! without the kill flag resumes from that checkpoint, finishes, and
//! verifies the resumed aggregates are bit-identical to a fresh
//! uninterrupted run (hard gate):
//!
//! ```sh
//! fleet_bench --smoke --checkpoint ck.txt --kill-after-lines 24; test $? -eq 86
//! fleet_bench --smoke --checkpoint ck.txt --out resume.json
//! ```

use hotwire_bench::experiments::{f2_fleet, f4_maintenance};
use hotwire_bench::gate::{self, Args, Baseline, Stop};
use hotwire_bench::json::json_number;
use hotwire_core::config::{fnv1a64, AfeTier, FlowMeterConfig};
use hotwire_rig::fleet::{FleetOutcome, FleetSpec, LineSummary, LineVariation};
use hotwire_rig::{LineConfig, Modality, ReferenceKind, Scenario, Windows};
use std::ops::ControlFlow;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: fleet_bench [--smoke] [--out PATH] [--check BASELINE]
                   [--checkpoint PATH [--kill-after-lines N]]
options:
  --smoke            scaled-down fleets for CI (64-line headline, 2k-line
                     sharded scale run; same scenario seconds per line so
                     lines/s is comparable)
  --out PATH         where to write the JSON report (default: BENCH_fleet.json)
  --check BASELINE   compare against a committed BENCH_fleet.json; exit 1 if
                     the pinned-jobs lines/s regressed more than 30 %
  --checkpoint PATH  run the kill-and-resume exercise against PATH instead of
                     the measurements (resumes if PATH already holds a
                     checkpoint; verifies resumed == uninterrupted bits)
  --kill-after-lines N
                     with --checkpoint: hard-exit (code 86) at the first
                     checkpointed batch boundary covering >= N lines";

/// The valued options beyond the shared `--out` and `--check`.
const OPTIONS: &[(&str, &str)] = &[
    ("--checkpoint", "a path"),
    ("--kill-after-lines", "a line count"),
];

/// Fraction of the baseline's throughput the fresh measurement may lose
/// before `--check` fails.  The committed baseline is a full 1000-line
/// run; the CI check is a 64-line smoke run whose parallel straggler
/// tail (the last lines of the only batch leave one worker idle) costs
/// ~20 % of the amortized full-run lines/s before any real regression,
/// on top of shared-runner noise — hence the wide band.  The gate
/// catches structural throughput losses; the zero-trace-memory gate
/// below stays exact.
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Fraction of the unmaintained headline a hybrid-maintained run of the
/// same population may lose before the maintenance gate fails. Policy
/// evaluation is a per-tick comparison plus the occasional re-zero/refit
/// — a second physics pass it is not, and this band keeps it that way.
/// Both runs are measured back to back in the same process, so the band
/// absorbs scheduler noise, not drift between machines.
const MAINTENANCE_OVERHEAD_BAND: f64 = 0.10;

/// The job count the gated headline is measured at — pinned so the
/// number is comparable across machines with different core counts.
const HEADLINE_JOBS: usize = 2;

/// Exit code of a deliberate `--kill-after-lines` process death, so the
/// CI wrapper can tell "killed as requested" from a real failure.
const KILL_EXIT: u8 = 86;

/// Shards the large scale run splits into.
const SCALE_SHARDS: usize = 8;

/// Shards the mixed-modality gate splits into — small so the reference
/// stride crosses shard boundaries.
const MIXED_SHARDS: usize = 3;

/// Hard ceiling on one shard accumulator's heap (two bounded sketches
/// plus the incidence map) — the O(shard) memory gate.
const SHARD_HEAP_CEILING_BYTES: usize = 64 * 1024;

/// One fleet execution's measurement.
struct FleetRun {
    lines: usize,
    samples: u64,
    wall_s: f64,
    trace_heap_bytes: usize,
    summary_bytes_per_line: usize,
    /// FNV-1a over the outcome's `Debug` rendering — the bit-identity
    /// witness the sharded-equivalence and kill-resume gates compare.
    digest: u64,
    /// Fleet-summed maintenance actions — 0 for unmaintained runs, and
    /// the non-vacuity witness for the maintenance overhead gate.
    maintenance_actions: u64,
}

impl FleetRun {
    fn lines_per_s(&self) -> f64 {
        self.lines as f64 / self.wall_s
    }

    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

/// Retained bytes for one line's summary: the struct itself plus its
/// fault-kind label list (static strs — only the pointers are heap).
fn summary_bytes(s: &LineSummary) -> usize {
    std::mem::size_of::<LineSummary>()
        + s.fault_kinds.capacity() * std::mem::size_of::<&'static str>()
}

/// The bit-identity witness: FNV-1a over the full `Debug` rendering
/// (aggregates *and* any retained per-line summaries — floats render
/// exactly, so equal digests mean equal bits).
fn outcome_digest(outcome: &FleetOutcome) -> u64 {
    fnv1a64(format!("{outcome:?}").as_bytes())
}

fn measure(lines: usize, duration_s: f64, jobs: usize, tier: AfeTier) -> Result<FleetRun, String> {
    let spec =
        f2_fleet::fleet_spec(lines, duration_s).with_config(LineConfig::new().with_afe_tier(tier));
    measure_spec(&spec, jobs)
}

fn measure_spec(spec: &FleetSpec, jobs: usize) -> Result<FleetRun, String> {
    let start = Instant::now();
    let outcome: FleetOutcome = spec.run_jobs(jobs).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let retained: usize = outcome.lines.iter().map(summary_bytes).sum();
    Ok(FleetRun {
        lines: outcome.aggregates.lines,
        samples: outcome.aggregates.total_samples,
        wall_s,
        trace_heap_bytes: outcome.trace_heap_bytes(),
        summary_bytes_per_line: retained / outcome.aggregates.lines.max(1),
        digest: outcome_digest(&outcome),
        maintenance_actions: outcome.aggregates.maintenance.actions(),
    })
}

/// The mixed-modality population: heat-pulse DUT lines with every 4th
/// line replaced by a Promag reference comparator — two sensing physics
/// plus a truth channel through one generic `Meter` engine.
fn mixed_modality_spec(lines: usize, duration_s: f64) -> FleetSpec {
    FleetSpec::new(
        "bench-mixed-modality",
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, duration_s),
        0x4D31_F1EE,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_lines(lines)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(1.0, 2.0))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.03)
            .with_references_every(4, 3, ReferenceKind::Promag),
    )
}

/// Hard gate: the mixed-modality fleet must be jobs-invariant and
/// shard-merge to the monolithic bits — the generic engine owes every
/// modality the same determinism contract the CTA fleet has. Returns the
/// witnessed digest, or an error string for `main` to report.
fn mixed_modality_gate(lines: usize, duration_s: f64) -> Result<u64, String> {
    let spec = mixed_modality_spec(lines, duration_s);
    let serial = spec.run_jobs(1).map_err(|e| e.to_string())?;
    let digest = outcome_digest(&serial);
    let parallel = spec.run_jobs(HEADLINE_JOBS).map_err(|e| e.to_string())?;
    let parallel_digest = outcome_digest(&parallel);
    if parallel_digest != digest {
        return Err(format!(
            "mixed-modality fleet diverged across jobs: \
             {parallel_digest:016x} at --jobs {HEADLINE_JOBS} vs {digest:016x} serial"
        ));
    }
    let sharded = spec
        .run_sharded(MIXED_SHARDS, HEADLINE_JOBS)
        .map_err(|e| e.to_string())?;
    let sharded_digest = outcome_digest(&sharded);
    if sharded_digest != digest {
        return Err(format!(
            "mixed-modality sharded merge diverged: {sharded_digest:016x} vs \
             monolithic {digest:016x}"
        ));
    }
    Ok(digest)
}

/// The large sketch-path fleet, run shard by shard: measures throughput
/// and the *peak shard accumulator heap* — the number that stays fixed
/// while the line count scales.
struct ScaleRun {
    lines: usize,
    samples: u64,
    wall_s: f64,
    max_shard_heap_bytes: usize,
    retained_summaries: usize,
    digest: u64,
}

fn measure_sharded(spec: &FleetSpec, shards: usize, jobs: usize) -> Result<ScaleRun, String> {
    let start = Instant::now();
    let mut max_heap = 0usize;
    let mut acc: Option<hotwire_rig::fleet::ShardAggregates> = None;
    for shard in spec.shards(shards) {
        let part = shard.run_jobs(jobs).map_err(|e| e.to_string())?;
        max_heap = max_heap.max(part.heap_bytes());
        match &mut acc {
            None => acc = Some(part),
            Some(acc) => acc.merge(&part).map_err(|e| e.to_string())?,
        }
    }
    let acc = acc.ok_or("no shards ran")?;
    let wall_s = start.elapsed().as_secs_f64();
    let retained_summaries = acc.summaries.len();
    let aggregates = acc.finalize(
        spec.config.full_scale.to_cm_per_s(),
        spec.scenario.duration_s * spec.lines as f64,
    );
    let digest = fnv1a64(format!("{aggregates:?}").as_bytes());
    Ok(ScaleRun {
        lines: aggregates.lines,
        samples: aggregates.total_samples,
        wall_s,
        max_shard_heap_bytes: max_heap,
        retained_summaries,
        digest,
    })
}

/// The `--checkpoint` exercise: run (or resume) the smoke-scale fleet
/// with a checkpoint file, optionally hard-killing the process at a
/// covered batch boundary, and on completion verify the resumed bits
/// against a fresh uninterrupted run.
fn checkpoint_exercise(
    smoke: bool,
    path: &str,
    kill_after_lines: Option<usize>,
    out_path: &str,
) -> Result<(), Stop> {
    let (lines, duration_s) = if smoke { (64, 2.0) } else { (256, 2.0) };
    // Small batches so checkpoints land at several boundaries, fast tier
    // so the exercise stays a smoke test.
    let spec = f2_fleet::fleet_spec(lines, duration_s)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_batch_size(8);
    let ck_path = std::path::Path::new(path);
    eprintln!(
        "checkpoint exercise: {lines} lines × {duration_s} s, checkpoint at {path} \
         (interval: every batch)"
    );
    let outcome = spec.run_checkpointed_with(ck_path, 1, HEADLINE_JOBS, |progress| {
        eprintln!(
            "  checkpointed {}/{} lines",
            progress.completed_lines, progress.total_lines
        );
        if let Some(kill) = kill_after_lines {
            if progress.completed_lines >= kill {
                // A real process death: no unwinding, no cleanup — the
                // durable state is whatever the atomic checkpoint write
                // left on disk.
                eprintln!("  killing the process as requested (exit {KILL_EXIT})");
                std::process::exit(KILL_EXIT as i32);
            }
        }
        ControlFlow::Continue(())
    });
    let outcome = outcome.map_err(|e| format!("checkpointed fleet run failed: {e}"))?;
    // The resumed (or fresh) checkpointed run must be bit-identical to an
    // uninterrupted in-memory run of the same spec.
    let fresh = spec
        .run_jobs(HEADLINE_JOBS)
        .map_err(|e| format!("uninterrupted reference run failed: {e}"))?;
    let resumed_digest = outcome_digest(&outcome);
    let fresh_digest = outcome_digest(&fresh);
    if resumed_digest != fresh_digest {
        return Err(Stop::Fail(format!(
            "kill-and-resume equivalence FAILED: resumed digest {resumed_digest:016x} != \
             uninterrupted {fresh_digest:016x}"
        )));
    }
    eprintln!("kill-and-resume equivalence passed: digest {resumed_digest:016x}");
    let json = format!(
        "{{\n  \"checkpoint\": {{\n    \"lines\": {lines},\n    \"path\": {path:?},\n    \
         \"aggregates_digest\": \"{resumed_digest:016x}\",\n    \"matches_uninterrupted\": true\n  }}\n}}\n"
    );
    Ok(gate::write_report(out_path, &json)?)
}

fn run_json(run: &FleetRun, jobs: usize) -> String {
    format!(
        "{{\"jobs\": {jobs}, \"lines\": {}, \"samples\": {}, \"wall_s\": {}, \"lines_per_s\": {}, \
         \"samples_per_s\": {}, \"trace_heap_bytes\": {}, \"summary_bytes_per_line\": {}, \
         \"digest\": \"{:016x}\"}}",
        run.lines,
        run.samples,
        json_number(run.wall_s),
        json_number(run.lines_per_s()),
        json_number(run.samples_per_s()),
        run.trace_heap_bytes,
        run.summary_bytes_per_line,
        run.digest
    )
}

fn main() -> ExitCode {
    gate::exit(run())
}

fn run() -> Result<(), Stop> {
    let args = Args::parse(std::env::args().skip(1), USAGE, &["--smoke"], OPTIONS)?;
    let smoke = args.switch("--smoke");
    let out_path = args.value("--out").unwrap_or("BENCH_fleet.json");
    let kill_after_lines = args
        .value("--kill-after-lines")
        .map(str::parse)
        .transpose()
        .map_err(|_| format!("--kill-after-lines needs a line count\n{USAGE}"))?;
    if let Some(path) = args.value("--checkpoint") {
        return checkpoint_exercise(smoke, path, kill_after_lines, out_path);
    }
    if kill_after_lines.is_some() {
        return Err(format!("--kill-after-lines requires --checkpoint\n{USAGE}").into());
    }

    // Same scenario seconds per line in both modes so lines/s stays
    // comparable between a committed full baseline and a smoke check.
    let (lines, duration_s) = if smoke { (64, 8.0) } else { (1000, 8.0) };

    eprintln!("fleet: {lines} lines × {duration_s} s at --jobs {HEADLINE_JOBS} (headline)…");
    let pinned = measure(lines, duration_s, HEADLINE_JOBS, AfeTier::Exact)
        .map_err(|e| format!("pinned-jobs fleet run failed: {e}"))?;
    eprintln!(
        "  {:.1} lines/s, {:.0} samples/s, {} trace bytes, {} summary bytes/line",
        pinned.lines_per_s(),
        pinned.samples_per_s(),
        pinned.trace_heap_bytes,
        pinned.summary_bytes_per_line
    );

    // Hard gate: the same population run as shards and merged must be
    // the monolithic run, bit for bit.
    eprintln!("fleet: sharded-merge equivalence ({SCALE_SHARDS} shards)…");
    let spec = f2_fleet::fleet_spec(lines, duration_s);
    let sharded = spec
        .run_sharded(SCALE_SHARDS, HEADLINE_JOBS)
        .map_err(|e| format!("sharded fleet run failed: {e}"))?;
    let digest = outcome_digest(&sharded);
    if digest != pinned.digest {
        return Err(Stop::Fail(format!(
            "sharded merge DIVERGED from monolithic: {digest:016x} vs {:016x}",
            pinned.digest
        )));
    }
    eprintln!("  identical bits: digest {digest:016x}");

    // Hard gate: a fleet mixing heat-pulse DUTs with Promag reference
    // lines owes the same bit-identity contract through the generic
    // `Meter` engine — jobs-invariant and shard-mergeable.
    let (mixed_lines, mixed_duration_s) = if smoke { (16, 2.0) } else { (48, 4.0) };
    eprintln!(
        "fleet: mixed-modality equivalence ({mixed_lines} heat-pulse/Promag lines, \
         {MIXED_SHARDS} shards)…"
    );
    let mixed_digest = mixed_modality_gate(mixed_lines, mixed_duration_s)
        .map_err(|e| format!("mixed-modality equivalence FAILED: {e}"))?;
    eprintln!("  identical bits: digest {mixed_digest:016x}");

    let default_jobs = hotwire_rig::exec::default_jobs();
    eprintln!("fleet: same population at --jobs {default_jobs} (informational)…");
    let auto = measure(lines, duration_s, default_jobs, AfeTier::Exact)
        .map_err(|e| format!("default-jobs fleet run failed: {e}"))?;
    eprintln!(
        "  {:.1} lines/s, {:.0} samples/s",
        auto.lines_per_s(),
        auto.samples_per_s()
    );

    eprintln!(
        "fleet: same population on the fast AFE tier at --jobs {HEADLINE_JOBS} (informational)…"
    );
    let fast = measure(lines, duration_s, HEADLINE_JOBS, AfeTier::Fast)
        .map_err(|e| format!("fast-tier fleet run failed: {e}"))?;
    eprintln!(
        "  {:.1} lines/s, {:.0} samples/s ({:.1}× the exact headline)",
        fast.lines_per_s(),
        fast.samples_per_s(),
        fast.lines_per_s() / pinned.lines_per_s()
    );

    // Hard gate: the same population with the F4 hybrid maintenance
    // policy live on every line must hold throughput within the band of
    // the unmaintained headline — the policy engine is a per-tick
    // comparison, not a second physics pass.
    eprintln!("fleet: maintained population (F4 hybrid policy) at --jobs {HEADLINE_JOBS} (gated)…");
    let [_, _, _, (_, hybrid)] = f4_maintenance::policies(duration_s);
    let maintained_spec = f2_fleet::fleet_spec(lines, duration_s)
        .with_config(LineConfig::new().with_maintenance(hybrid));
    let mut maintained = measure_spec(&maintained_spec, HEADLINE_JOBS)
        .map_err(|e| format!("maintained fleet run failed: {e}"))?;
    eprintln!(
        "  {:.1} lines/s, {:.0} samples/s, {} maintenance actions",
        maintained.lines_per_s(),
        maintained.samples_per_s(),
        maintained.maintenance_actions
    );
    if maintained.maintenance_actions == 0 {
        return Err(Stop::Fail(
            "maintained fleet never serviced a line — the overhead gate is vacuous".into(),
        ));
    }
    let maintained_floor = pinned.lines_per_s() * (1.0 - MAINTENANCE_OVERHEAD_BAND);
    if maintained.lines_per_s() < maintained_floor {
        // One re-measure sheds transient scheduler noise; genuine engine
        // overhead reproduces and still fails below.
        eprintln!("  below the floor — re-measuring once…");
        let again = measure_spec(&maintained_spec, HEADLINE_JOBS)
            .map_err(|e| format!("maintained fleet re-run failed: {e}"))?;
        if again.lines_per_s() > maintained.lines_per_s() {
            maintained = again;
        }
    }
    if maintained.lines_per_s() < maintained_floor {
        return Err(Stop::Fail(format!(
            "maintenance overhead out of band: {:.1} lines/s maintained vs {:.1} \
             unmaintained (floor {maintained_floor:.1})",
            maintained.lines_per_s(),
            pinned.lines_per_s()
        )));
    }

    // The O(shard) scale run: a large fast-tier fleet on the sketch path,
    // run shard by shard. Peak shard heap must stay under the fixed
    // ceiling and nothing per-line may be retained.
    let (scale_lines, scale_duration_s) = if smoke { (2000, 2.0) } else { (100_000, 2.0) };
    eprintln!(
        "fleet: scale run — {scale_lines} lines × {scale_duration_s} s fast tier, \
         {SCALE_SHARDS} shards, sketch path…"
    );
    let scale_spec = f2_fleet::fleet_spec(scale_lines, scale_duration_s)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_exact_threshold(0);
    let scale = measure_sharded(&scale_spec, SCALE_SHARDS, HEADLINE_JOBS)
        .map_err(|e| format!("scale fleet run failed: {e}"))?;
    eprintln!(
        "  {:.1} lines/s, {:.0} samples/s, peak shard heap {} bytes, {} retained summaries",
        scale.lines as f64 / scale.wall_s,
        scale.samples as f64 / scale.wall_s,
        scale.max_shard_heap_bytes,
        scale.retained_summaries
    );
    if scale.retained_summaries != 0 {
        return Err(Stop::Fail(format!(
            "scale fleet retained {} per-line summaries (sketch path must retain none)",
            scale.retained_summaries
        )));
    }
    if scale.max_shard_heap_bytes > SHARD_HEAP_CEILING_BYTES {
        return Err(Stop::Fail(format!(
            "scale fleet shard heap {} bytes exceeds the O(shard) ceiling {}",
            scale.max_shard_heap_bytes, SHARD_HEAP_CEILING_BYTES
        )));
    }

    // The memory contract is a hard gate, not a trend: MetricsOnly fleets
    // must hold zero trace bytes at any scale.
    if pinned.trace_heap_bytes != 0 || auto.trace_heap_bytes != 0 || fast.trace_heap_bytes != 0 {
        return Err(Stop::Fail(format!(
            "fleet leaked trace memory: {} / {} / {} bytes (expected 0 under MetricsOnly)",
            pinned.trace_heap_bytes, auto.trace_heap_bytes, fast.trace_heap_bytes
        )));
    }

    let headline = pinned.lines_per_s();
    // Both runs carry their own `jobs` field: `pinned_jobs` is the gated
    // headline at the fixed HEADLINE_JOBS count, `default_jobs` the
    // informational run at the resolved process default.
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"headline_lines_per_s\": {},\n  \
         \"headline_jobs\": {HEADLINE_JOBS},\n  \"fleet\": {{\n    \"sim_seconds_per_line\": {},\n    \
         \"pinned_jobs\": {},\n    \"default_jobs\": {},\n    \"fast_tier\": {}\n  }},\n  \
         \"sharded_equivalence\": {{\"shards\": {SCALE_SHARDS}, \"digest\": \"{:016x}\"}},\n  \
         \"mixed_modality\": {{\"lines\": {mixed_lines}, \"shards\": {MIXED_SHARDS}, \
         \"sim_seconds_per_line\": {}, \"digest\": \"{mixed_digest:016x}\"}},\n  \
         \"maintenance\": {{\"policy\": \"hybrid\", \"actions\": {}, \"lines_per_s\": {}, \
         \"overhead_band\": {MAINTENANCE_OVERHEAD_BAND}, \"headline_ratio\": {}}},\n  \
         \"large_fleet\": {{\"lines\": {}, \"shards\": {SCALE_SHARDS}, \"sim_seconds_per_line\": {}, \
         \"wall_s\": {}, \"lines_per_s\": {}, \"samples_per_s\": {}, \"max_shard_heap_bytes\": {}, \
         \"retained_summaries\": {}, \"aggregates_digest\": \"{:016x}\"}},\n  \
         \"fast_tier_speedup\": {},\n  \"default_jobs_resolved\": {default_jobs}\n}}\n",
        json_number(headline),
        json_number(duration_s),
        run_json(&pinned, HEADLINE_JOBS),
        run_json(&auto, default_jobs),
        run_json(&fast, HEADLINE_JOBS),
        pinned.digest,
        json_number(mixed_duration_s),
        maintained.maintenance_actions,
        json_number(maintained.lines_per_s()),
        json_number(maintained.lines_per_s() / pinned.lines_per_s()),
        scale.lines,
        json_number(scale_duration_s),
        json_number(scale.wall_s),
        json_number(scale.lines as f64 / scale.wall_s),
        json_number(scale.samples as f64 / scale.wall_s),
        scale.max_shard_heap_bytes,
        scale.retained_summaries,
        scale.digest,
        json_number(fast.lines_per_s() / pinned.lines_per_s()),
    );
    gate::write_report(out_path, &json)?;
    if let Some(path) = args.value("--check") {
        let baseline = Baseline::load(path)?;
        baseline.check_floor("headline_lines_per_s", headline, REGRESSION_TOLERANCE)?;
    }
    Ok(())
}
