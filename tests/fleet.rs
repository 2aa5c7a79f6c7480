//! Fleet engine contracts.
//!
//! The fleet promises three things no matter how it is scheduled:
//!
//! * **determinism** — the same [`FleetSpec`] produces bit-identical
//!   aggregates and per-line summaries at any `--jobs` count, batch size
//!   or shard split, fault schedules on a subset of lines included;
//! * **bounded memory** — every line is forced to `MetricsOnly`, so a
//!   1000-line fleet holds zero trace bytes; above the exact threshold
//!   the accumulator is a fixed-size sketch (O(shard), not O(lines));
//! * **restartability** — a run killed between batches and resumed from
//!   its checkpoint finishes with the uninterrupted run's exact bits, a
//!   real process death included.

use std::ops::ControlFlow;
use std::path::Path;
use std::process::Command;

use hotwire::core::config::AfeTier;
use hotwire::prelude::*;

/// A low-rate config so the 1000-line test stays cheap in debug builds
/// (the contracts under test don't depend on silicon rates).
fn cheap_config() -> FlowMeterConfig {
    FlowMeterConfig {
        modulator_rate: Hertz::new(1000.0),
        decimation: 2,
        ..FlowMeterConfig::test_profile()
    }
}

/// A fleet with per-line demand jitter and a fault schedule striking
/// every 4th line — the full variation surface in one template.
fn faulted_fleet(lines: usize, duration_s: f64, onset_s: f64, window_s: f64) -> FleetSpec {
    FleetSpec::new(
        "fleet-test",
        cheap_config(),
        Scenario::steady(90.0, duration_s),
        0xF1EE7,
    )
    .with_lines(lines)
    .with_sample_period(0.05)
    .with_windows(
        Windows::settled(duration_s * 0.25, duration_s * 0.25)
            .with_err(duration_s * 0.25, f64::INFINITY),
    )
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.04)
            .with_faults_every(
                4,
                1,
                FaultSchedule::new(0).with_event(
                    onset_s,
                    window_s,
                    FaultKind::AdcStuck { code: 900 },
                ),
            ),
    )
}

/// Debug formatting of f64 round-trips, so Debug-string equality over the
/// whole outcome is bit-level equality of every number in it.
#[track_caller]
fn assert_outcomes_identical(a: &FleetOutcome, b: &FleetOutcome, what: &str) {
    assert_eq!(
        format!("{:?}", a.aggregates),
        format!("{:?}", b.aggregates),
        "{what}: aggregates diverge"
    );
    assert_eq!(a.lines.len(), b.lines.len(), "{what}: line counts diverge");
    for (la, lb) in a.lines.iter().zip(&b.lines) {
        assert_eq!(
            format!("{la:?}"),
            format!("{lb:?}"),
            "{what}: line {} diverges",
            la.line
        );
    }
    // Belt and braces on the floats Debug could theoretically smooth over.
    assert_eq!(
        a.aggregates.repeatability_pct_fs.to_bits(),
        b.aggregates.repeatability_pct_fs.to_bits(),
        "{what}: repeatability bits"
    );
    assert_eq!(
        a.aggregates.resolution_pct_fs.p99.to_bits(),
        b.aggregates.resolution_pct_fs.p99.to_bits(),
        "{what}: resolution p99 bits"
    );
    assert_eq!(
        a.aggregates.err_rms_cm_s.max.to_bits(),
        b.aggregates.err_rms_cm_s.max.to_bits(),
        "{what}: err rms max bits"
    );
}

/// Same faulted fleet at `--jobs` 1, 2 and 3: bit-identical everything.
/// 13 lines over batches of 5 so batch boundaries and job counts misalign
/// every way they can.
#[test]
fn fleet_aggregates_bit_identical_across_jobs() {
    let spec = || faulted_fleet(13, 3.0, 1.0, 0.6).with_batch_size(5);
    let j1 = spec().run_jobs(1).unwrap();
    let j2 = spec().run_jobs(2).unwrap();
    let j3 = spec().run_jobs(3).unwrap();

    assert_outcomes_identical(&j1, &j2, "jobs 1 vs 2");
    assert_outcomes_identical(&j1, &j3, "jobs 1 vs 3");

    // The fault template fired on lines 1, 5 and 9 — and only there.
    let a = &j1.aggregates;
    assert_eq!(a.lines_faulted, 3);
    assert_eq!(a.fault_incidence.get("adc_stuck"), Some(&3));
    for line in &j1.lines {
        let expected = line.line % 4 == 1;
        assert_eq!(
            line.fault_samples > 0,
            expected,
            "line {} fault exposure",
            line.line
        );
    }
}

/// The headline acceptance: a 1000-line fleet completes under forced
/// `MetricsOnly` with zero trace bytes, and its aggregates are
/// bit-identical at `--jobs` 1, 2 and 3.
#[test]
fn thousand_line_fleet_is_metrics_only_and_jobs_invariant() {
    // 0.6 s per line keeps 3 × 1000 runs cheap; a 0.2 s stuck-ADC window
    // is the shortest the meter's fault flags reliably rise on.
    let spec = || faulted_fleet(1000, 0.6, 0.2, 0.2);
    let j1 = spec().run_jobs(1).unwrap();
    let j2 = spec().run_jobs(2).unwrap();
    let j3 = spec().run_jobs(3).unwrap();

    assert_outcomes_identical(&j1, &j2, "1000 lines, jobs 1 vs 2");
    assert_outcomes_identical(&j1, &j3, "1000 lines, jobs 1 vs 3");

    let a = &j1.aggregates;
    assert_eq!(a.lines, 1000);
    assert_eq!(
        j1.aggregates.trace_heap_bytes, 0,
        "fleet must hold zero trace bytes"
    );
    assert!(
        j1.lines.iter().all(|l| l.trace_heap_bytes == 0),
        "every line must stream MetricsOnly"
    );
    assert_eq!(a.health.total(), a.total_samples);
    assert!(a.total_samples > 0);

    // Every 4th line (offset 1) carried the schedule and the stuck ADC bit.
    assert_eq!(a.lines_faulted, 250);
    assert_eq!(a.fault_incidence.get("adc_stuck"), Some(&250));
    assert!(a.fault_samples > 0);
}

/// Shard fan-out is invisible in the bits: any shard count, merged in
/// line order, reproduces the monolithic aggregates exactly — including
/// across different job counts per run.
#[test]
fn sharded_merge_reproduces_monolithic_bits() {
    let spec = faulted_fleet(26, 1.5, 0.4, 0.4).with_batch_size(7);
    let mono = spec.run_jobs(1).unwrap();
    for (shards, jobs) in [(2, 1), (3, 2), (5, 3), (26, 2), (usize::MAX, 2)] {
        let sharded = spec.run_sharded(shards, jobs).unwrap();
        assert_outcomes_identical(&mono, &sharded, &format!("{shards} shards at jobs {jobs}"));
    }
    // Manual shard runs merge the same way (the multi-process shape).
    let parts = spec.shards(3);
    let mut acc = parts[0].run_jobs(2).unwrap();
    for part in &parts[1..] {
        acc.merge(&part.run_jobs(3).unwrap()).unwrap();
    }
    let merged = acc.finalize(
        spec.config.full_scale.to_cm_per_s(),
        spec.scenario.duration_s * spec.lines as f64,
    );
    assert_eq!(
        format!("{:?}", mono.aggregates),
        format!("{merged:?}"),
        "hand-merged shards diverge from the monolithic aggregates"
    );
}

/// O(shard) memory at fleet scale: on the sketch path every shard's
/// accumulator stays under a fixed 64 KiB (two bounded sketches plus the
/// fault-incidence map) however many lines it folds, keeps no per-line
/// summary, and its fast-tier lines hold no trace bytes.
#[test]
fn sketch_path_shards_hold_bounded_heap_and_no_summaries() {
    let spec = faulted_fleet(800, 0.6, 0.2, 0.2)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_exact_threshold(0);
    let shards = spec.shards(8);
    assert_eq!(shards.len(), 8);
    for (i, shard) in shards.into_iter().enumerate() {
        let part = shard.run_jobs(2).unwrap();
        assert_eq!(part.lines(), 100, "shard {i}");
        assert!(
            part.heap_bytes() <= 64 * 1024,
            "shard {i} holds {} heap bytes",
            part.heap_bytes()
        );
        assert!(part.summaries.is_empty(), "shard {i} kept line summaries");
        assert_eq!(part.trace_heap_bytes, 0, "shard {i} held trace bytes");
    }
}

/// The sketch path (exact_threshold 0) keeps integer aggregates, extrema
/// and repeatability bit-identical to the exact path, and its mid-rank
/// percentiles inside the sketch's guaranteed relative error.
#[test]
fn sketch_aggregates_track_exact_within_alpha() {
    let spec = faulted_fleet(40, 1.0, 0.3, 0.3);
    let exact = spec.run_jobs(2).unwrap();
    let sketched = spec.clone().with_exact_threshold(0).run_jobs(2).unwrap();
    assert!(
        sketched.lines.is_empty(),
        "sketch path must retain no lines"
    );
    let (ea, sa) = (&exact.aggregates, &sketched.aggregates);
    assert_eq!(ea.total_samples, sa.total_samples);
    assert_eq!(ea.health, sa.health);
    assert_eq!(ea.fault_incidence, sa.fault_incidence);
    assert_eq!(ea.nan_lines, sa.nan_lines);
    assert_eq!(
        ea.repeatability_pct_fs.to_bits(),
        sa.repeatability_pct_fs.to_bits()
    );
    assert_eq!(
        ea.resolution_pct_fs.min.to_bits(),
        sa.resolution_pct_fs.min.to_bits()
    );
    assert_eq!(
        ea.resolution_pct_fs.max.to_bits(),
        sa.resolution_pct_fs.max.to_bits()
    );
    for (e, s) in [
        (ea.resolution_pct_fs.p50, sa.resolution_pct_fs.p50),
        (ea.resolution_pct_fs.p90, sa.resolution_pct_fs.p90),
        (ea.resolution_pct_fs.p99, sa.resolution_pct_fs.p99),
        (ea.err_rms_cm_s.p50, sa.err_rms_cm_s.p50),
        (ea.err_rms_cm_s.p99, sa.err_rms_cm_s.p99),
    ] {
        assert!(
            (e - s).abs() <= QuantileSketch::RELATIVE_ERROR * e.abs() + 1e-12,
            "sketch percentile {s} strayed past α from exact {e}"
        );
    }
}

/// Checkpoint/resume bit-identity, the tentpole acceptance: a run
/// interrupted between batches and resumed from its checkpoint file
/// produces the uninterrupted run's exact bits — at jobs 1, 2 and 3, with
/// faulted lines in the population, on both AFE tiers.
#[test]
fn interrupted_resume_is_bit_identical_at_any_jobs() {
    let dir =
        std::env::temp_dir().join(format!("hotwire-fleet-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (jobs, fast_tier) in [(1, false), (2, false), (3, false), (2, true)] {
        let mut spec = faulted_fleet(13, 1.0, 0.3, 0.3).with_batch_size(4);
        if fast_tier {
            spec = spec
                .with_config(LineConfig::new().with_afe_tier(hotwire::core::config::AfeTier::Fast));
        }
        let uninterrupted = spec.run_jobs(jobs).unwrap();

        let path = dir.join(format!("jobs{jobs}-fast{fast_tier}.ck"));
        let _ = std::fs::remove_file(&path);
        // First attempt: stop mid-run after the first batch boundary —
        // the deterministic stand-in for a kill (the test below kills a
        // real process).
        let stopped = spec.run_checkpointed_with(&path, 1, jobs, |progress| {
            if progress.completed_lines >= 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        match stopped {
            Err(FleetError::Interrupted(partial)) => {
                assert!(partial.completed_lines >= 4);
                assert!(partial.completed_lines < 13);
            }
            other => panic!("expected an interrupted run, got {other:?}"),
        }
        // Second attempt: same spec, same path — resumes past the
        // checkpointed prefix and must finish with identical bits.
        let resumed = spec.run_checkpointed(&path, 1, jobs).unwrap();
        assert_outcomes_identical(
            &uninterrupted,
            &resumed,
            &format!("resume at jobs {jobs}, fast tier {fast_tier}"),
        );
        // Meter end states included, not just statistics.
        for (a, b) in uninterrupted.lines.iter().zip(&resumed.lines) {
            assert_eq!(a.meter_digest, b.meter_digest, "line {} meter", a.line);
        }
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_dir(&dir).unwrap();
}

/// Set only in the child process of
/// `killed_process_resumes_bit_identically_from_its_checkpoint`, to the
/// checkpoint path the child writes before it dies.
const KILL_CHILD_CHECKPOINT: &str = "HOTWIRE_FLEET_KILL_CHILD_CHECKPOINT";

/// Exit code of the child's deliberate death, so a crash reads otherwise.
const KILL_EXIT: i32 = 86;

/// A real process death: this test re-runs its own executable as a child,
/// which runs a checkpointed fleet and exits from the progress callback once
/// 8 lines are on disk — no unwinding, no cleanup, the durable state is
/// what the atomic checkpoint write left. The parent then resumes from that
/// file and must finish with the uninterrupted run's bits.
#[test]
fn killed_process_resumes_bit_identically_from_its_checkpoint() {
    let spec = faulted_fleet(24, 1.0, 0.3, 0.3)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_batch_size(4);
    if let Some(path) = std::env::var_os(KILL_CHILD_CHECKPOINT) {
        let _ = spec.run_checkpointed_with(Path::new(&path), 1, 2, |progress| {
            if progress.completed_lines >= 8 {
                std::process::exit(KILL_EXIT);
            }
            ControlFlow::Continue(())
        });
        panic!("the child finished the fleet instead of dying");
    }
    let dir = std::env::temp_dir().join(format!("hotwire-fleet-kill-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("killed.ck");
    let _ = std::fs::remove_file(&path);
    let child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "killed_process_resumes_bit_identically_from_its_checkpoint",
        ])
        .env(KILL_CHILD_CHECKPOINT, &path)
        .output()
        .unwrap();
    assert_eq!(
        child.status.code(),
        Some(KILL_EXIT),
        "child: {}",
        String::from_utf8_lossy(&child.stderr)
    );
    let on_disk = std::fs::metadata(&path).map_or(0, |m| m.len());
    assert!(on_disk > 0, "the killed process left no checkpoint");
    let resumed = spec.run_checkpointed(&path, 1, 2).unwrap();
    let uninterrupted = spec.run_jobs(2).unwrap();
    assert_outcomes_identical(&uninterrupted, &resumed, "resume after a process death");
    for (a, b) in uninterrupted.lines.iter().zip(&resumed.lines) {
        assert_eq!(a.meter_digest, b.meter_digest, "line {} meter", a.line);
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_dir(&dir).unwrap();
}

/// A checkpoint this fleet could not have written refuses to seed its run
/// instead of silently stitching fleets together: one written by a
/// different spec, and, under the spec's own fingerprint and line count,
/// a range that skips lines, more lines than the fleet has, or a sample
/// count the remaining lines would overflow.
#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let dir = std::env::temp_dir().join(format!(
        "hotwire-fleet-foreign-ck-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("foreign.ck");
    let _ = std::fs::remove_file(&path);
    let spec = faulted_fleet(8, 1.0, 0.3, 0.3).with_batch_size(4);
    spec.run_checkpointed(&path, 1, 2).unwrap();
    // Different seed → different fingerprint → refused.
    let mut other = faulted_fleet(8, 1.0, 0.3, 0.3).with_batch_size(4);
    other.seed ^= 1;
    match other.run_checkpointed(&path, 1, 2) {
        Err(FleetError::Checkpoint(CheckpointError::SpecMismatch { .. })) => {}
        other => panic!("expected a spec mismatch, got {other:?}"),
    }
    let resume_forged = |shard: ShardAggregates| {
        FleetCheckpoint::new(spec.fingerprint(), spec.lines, shard)
            .write(&path)
            .unwrap();
        spec.run_checkpointed(&path, 1, 2).map(|_| ())
    };
    let refusal = |resumed: Result<(), FleetError>| match resumed {
        Err(FleetError::Checkpoint(CheckpointError::Unresumable { reason })) => reason,
        other => panic!("expected an unresumable checkpoint, got {other:?}"),
    };
    // Lines 4..8 used to resume as the whole fleet, reporting 4 lines.
    let tail = spec.shard(4, 8).run_jobs(2).unwrap();
    assert!(refusal(resume_forged(tail)).contains("range 4..8"));
    // A 12-line accumulator used to resume the 8-line fleet as 12 lines.
    let wider = spec
        .clone()
        .with_lines(12)
        .shard(0, 12)
        .run_jobs(2)
        .unwrap();
    assert!(refusal(resume_forged(wider)).contains("range 0..12"));
    // A sample count near `u64::MAX`, its census kept consistent so the
    // file decodes, used to overflow in `ShardAggregates::push`.
    let mut prefix = spec.shard(0, 4).run_jobs(2).unwrap();
    let pad = u64::MAX - 1 - prefix.total_samples;
    prefix.total_samples += pad;
    prefix.health.counts[0] += pad;
    let reason = refusal(resume_forged(prefix));
    assert!(
        reason.starts_with("total_samples 18446744073709551614 "),
        "{reason}"
    );
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_dir(&dir).unwrap();
}

/// Regression: lines with NaN statistics (no settled coverage, no err
/// window) used to sort last under `total_cmp` and report as the
/// population's p99/max. They are now excluded from the ranks and
/// surfaced as an explicit count — identically on both aggregation paths.
#[test]
fn nan_lines_surface_instead_of_poisoning_percentiles() {
    // No err window at all: every line's err_rms is NaN by construction.
    let spec = FleetSpec::new("nan-fleet", cheap_config(), Scenario::steady(90.0, 1.0), 7)
        .with_lines(9)
        .with_sample_period(0.05)
        .with_windows(Windows::settled(0.25, 0.25));
    let exact = spec.run_jobs(2).unwrap();
    let a = &exact.aggregates;
    assert_eq!(a.nan_lines.err_rms, 9, "every line's err_rms is NaN");
    assert!(a.err_rms_cm_s.p99.is_nan() && a.err_rms_cm_s.max.is_nan());
    // Resolution is real on every line — NaN-free ranks, finite worst.
    assert_eq!(a.nan_lines.resolution, 0);
    assert!(a.resolution_pct_fs.max.is_finite(), "max must not be NaN");
    assert!(a.resolution_pct_fs.p99.is_finite());
    // Sketch path reports the same counts.
    let sketched = spec.with_exact_threshold(0).run_jobs(2).unwrap();
    assert_eq!(sketched.aggregates.nan_lines, a.nan_lines);
}

/// A fleet on the diurnal demand curve under pressure transients: the
/// realistic municipal-deployment template (overnight floor, morning and
/// evening peaks, water-hammer spikes to 7 bar) runs jobs-invariant, and
/// the demand extremes actually reach the lines.
#[test]
fn diurnal_demand_fleet_under_pressure_transients_is_jobs_invariant() {
    // Diurnal flow compressed into a 4 s "day", with the pressure-transient
    // profile (0.5 → 3 bar working range, two 7 bar spikes) overlaid.
    let mut scenario = Scenario::diurnal_demand(20.0, 200.0, 4.0);
    let (floor, working, peak, dwell) = (0.5, 3.0, 7.0, 0.5);
    let mut pressure = Schedule::new()
        .then_hold(floor, dwell)
        .then_ramp(working, 2.0 * dwell);
    for _ in 0..2 {
        pressure = pressure
            .then_hold(working, dwell)
            .then_step(peak, 0.2 * dwell);
    }
    scenario.pressure_bar = pressure
        .then_step(working, dwell)
        .then_ramp(floor, dwell)
        .then_hold(floor, dwell);
    // The full-rate test profile: the demand swing must show up in the
    // DUT output, not just in the schedule (cheap_config's 1 kHz loop
    // never settles on these short runs).
    let spec = FleetSpec::new(
        "diurnal-fleet",
        FlowMeterConfig::test_profile(),
        scenario,
        0xD1A7,
    )
    .with_lines(9)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(0.5, 3.0).with_extra(0.6, 0.7))
    .with_variation(LineVariation::new().with_flow_jitter(0.05));
    let j1 = spec.run_jobs(1).unwrap();
    let j3 = spec.run_jobs(3).unwrap();
    assert_outcomes_identical(&j1, &j3, "diurnal fleet, jobs 1 vs 3");
    // The demand curve swept the lines: the settled window spans the
    // morning peak through the evening fall, so per-line std must dwarf
    // a steady run's noise floor.
    for line in &j1.lines {
        assert!(
            line.settled_std > 20.0,
            "line {} saw std {:.1} cm/s — diurnal swing missing",
            line.line,
            line.settled_std
        );
    }
    // And the scenario template really carries the 7 bar spikes.
    let mut peak = 0.0f64;
    let mut t = 0.0;
    while t < spec.scenario.duration_s {
        peak = peak.max(spec.scenario.pressure_bar.value_at(t));
        t += 0.01;
    }
    assert_eq!(peak, 7.0);
}

/// Degenerate specs fail fast with typed errors instead of hanging the
/// batch loop or dividing by zero deep in the fold.
#[test]
fn degenerate_specs_are_rejected_up_front() {
    let base = || faulted_fleet(8, 1.0, 0.3, 0.3);
    assert!(matches!(
        base().with_lines(0).run(),
        Err(FleetError::Spec(FleetSpecError::NoLines))
    ));
    let mut zero_batch = base();
    zero_batch.batch_size = 0;
    assert!(matches!(
        zero_batch.run_jobs(2),
        Err(FleetError::Spec(FleetSpecError::ZeroBatchSize))
    ));
    let mut zero_stride = base();
    zero_stride.variation.faults.as_mut().unwrap().stride = 0;
    assert!(matches!(
        zero_stride.run_jobs(2),
        Err(FleetError::Spec(FleetSpecError::ZeroFaultStride))
    ));
    assert!(matches!(
        base()
            .with_variation(LineVariation::new().with_flow_jitter(f64::NAN))
            .run_jobs(2),
        Err(FleetError::Spec(FleetSpecError::BadFlowJitter))
    ));
    assert!(matches!(
        base().with_sample_period(-1.0).run_jobs(2),
        Err(FleetError::Spec(FleetSpecError::Line(
            SpecError::BadSamplePeriod
        )))
    ));
    // And the errors render as readable diagnostics.
    let msg = FleetError::from(FleetSpecError::ZeroBatchSize).to_string();
    assert!(msg.contains("batch size"), "unhelpful message: {msg}");
}
