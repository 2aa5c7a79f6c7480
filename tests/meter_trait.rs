//! Trait-genericity coverage: the generic `Meter` refactor must leave the
//! CTA path bit-identical. The spec below was run on the pre-refactor
//! engine (hard-coded `FlowMeter`) and its per-line meter digests pinned
//! (re-pinned since for a schema change, a sampler change and the
//! once-per-frame surface step; see `PRE_REFACTOR_DIGESTS`); the generic
//! `LineRunner<M>` must reproduce them exactly at any job count. The rest
//! of the suite drives the heat-pulse modality through the *unmodified*
//! fleet, campaign and checkpoint engines.

use std::ops::ControlFlow;

use hotwire::core::config::AfeTier;
use hotwire::prelude::*;

/// Per-line meter digests of `faulted_spec()`, identical at jobs 1, 2
/// and 3. This is the fifth set of values pinned here:
///
/// 1. captured on the pre-refactor engine (commit with `LineRunner`
///    hard-wired to `FlowMeter`);
/// 2. re-pinned when the digest schema grew the calibration-surface words
///    (installed King fit, drift monitor, calibration tick — 30 → 37
///    words): the meter *behavior* was unchanged, but every absolute
///    digest value moved with the schema;
/// 3. re-pinned when the ziggurat `rand::distributions::StandardNormal`
///    replaced the two Box–Muller samplers: a deliberate change of random
///    streams, so every noise draw and every digest moved. Nothing else
///    in that change touched meter bits.
/// 4. re-pinned when the exact tier began stepping the die's bubble and
///    fouling layers once per control frame (`MafDie::step_surfaces` over
///    the frame's span on its last tick) instead of on every modulator
///    tick: a deliberate change of exact-tier bits. The fast tier's frame
///    path kept its bits (`FAST_TIER_DIGESTS`).
/// 5. re-pinned, with `FAST_TIER_DIGESTS`, when scenario time became a
///    control-tick count: fault windows moved to the first frame at or
///    after their onset and end, and impulses fire on the frame path. Only
///    the three faulted lines (1, 4, 7) moved in either set.
const PRE_REFACTOR_DIGESTS: [u64; 9] = [
    0x48867cf667148278,
    0xbe5cc44cce072e99,
    0x22e35f35dd51d3ef,
    0xd04cb422a5400eb5,
    0xd9641334ead89744,
    0xd6496adb4dca1614,
    0x51882ae5765916a9,
    0x762f8eff4781f86d,
    0xef10ec0559084563,
];

/// Per-line meter digests of `fast_windowed_spec()`, identical at jobs 1,
/// 2 and 3: the fast AFE tier's frame path, pinned so that a change to
/// the exact tier's per-tick walk can show it left this tier's bits alone.
const FAST_TIER_DIGESTS: [u64; 9] = [
    0x93edb614a04ae411,
    0xdafd5e5aeac0e14f,
    0x0ea12663e29d41ee,
    0xcef2985854da4c01,
    0x1b72dfcd667bee56,
    0xa529c53da02672d9,
    0x50a20b4ba2a2d1be,
    0xf6f321243911bf00,
    0x96c76930484feb1a,
];

/// A faulted fleet spec exercising the full fault matrix: windowed ADC and
/// supply faults, an EEPROM impulse, UART corruption, and physics events.
fn faulted_spec() -> FleetSpec {
    let schedule = FaultSchedule::new(0)
        .with_event(1.0, 0.8, FaultKind::AdcStuck { code: 1200 })
        .with_event(2.0, 0.6, FaultKind::SupplyBrownout { fraction: 0.6 })
        .with_event(2.2, 0.0, FaultKind::EepromBitFlip { slot: 0, byte: 3 })
        .with_event(
            2.6,
            1.0,
            FaultKind::UartCorruption {
                flip_per_byte: 0.01,
                drop_per_byte: 0.005,
            },
        )
        .with_event(3.2, 0.0, FaultKind::BubbleBurst { coverage: 0.3 })
        .with_event(3.5, 0.0, FaultKind::SteppedFouling { microns: 2.0 });
    faulted_fleet("meter-trait-pin", schedule)
}

/// `faulted_spec()` on the fast AFE tier without its three zero-length
/// impulses. A zero-length window sends its frame through the per-tick
/// path, which is exact on both tiers; with every window open for longer
/// than a control tick, each line runs the fast frame path throughout.
fn fast_windowed_spec() -> FleetSpec {
    let schedule = FaultSchedule::new(0)
        .with_event(1.0, 0.8, FaultKind::AdcStuck { code: 1200 })
        .with_event(2.0, 0.6, FaultKind::SupplyBrownout { fraction: 0.6 })
        .with_event(
            2.6,
            1.0,
            FaultKind::UartCorruption {
                flip_per_byte: 0.01,
                drop_per_byte: 0.005,
            },
        );
    faulted_fleet("meter-trait-fast-pin", schedule)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
}

/// Nine steady CTA lines with `schedule` reseeded onto every third line.
fn faulted_fleet(name: &str, schedule: FaultSchedule) -> FleetSpec {
    FleetSpec::new(
        name,
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 4.5),
        0x4D31_7E57,
    )
    .with_lines(9)
    .with_sample_period(0.05)
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.05)
            .with_faults_every(3, 1, schedule),
    )
}

/// The tentpole acceptance: the faulted CTA fleet through the generic
/// `Meter` engine reproduces the pre-refactor per-line digests exactly —
/// meter RNG lanes, fault responses, calibration reloads and health
/// transitions included — at jobs 1, 2 and 3.
#[test]
fn cta_digests_match_the_pre_refactor_engine_at_any_jobs() {
    let spec = faulted_spec();
    for jobs in [1usize, 2, 3] {
        let outcome = spec.run_jobs(jobs).expect("fleet run");
        let digests: Vec<u64> = outcome.lines.iter().map(|l| l.meter_digest).collect();
        assert_eq!(
            digests, PRE_REFACTOR_DIGESTS,
            "CTA digests diverged from the pre-refactor engine at jobs {jobs}"
        );
    }
}

/// The fast tier's pin: the windowed-fault fleet on `AfeTier::Fast`
/// reproduces its per-line digests exactly at jobs 1, 2 and 3.
#[test]
fn fast_tier_windowed_fault_digests_are_pinned_at_any_jobs() {
    let spec = fast_windowed_spec();
    for jobs in [1usize, 2, 3] {
        let outcome = spec.run_jobs(jobs).expect("fleet run");
        let digests: Vec<u64> = outcome.lines.iter().map(|l| l.meter_digest).collect();
        assert_eq!(
            digests, FAST_TIER_DIGESTS,
            "fast-tier digests diverged at jobs {jobs}"
        );
    }
}

/// Heterogeneous meter collections (mixed racks behind one ingest head)
/// hold the closed [`AnyMeter`] enum, the rig's one dispatch mechanism.
#[test]
fn any_meter_racks_mix_modalities() {
    let config = FlowMeterConfig::test_profile();
    let cta = FlowMeter::new(config, MafParams::nominal(), 7).unwrap();
    let pulse = HeatPulseMeter::new(config, 7).unwrap();
    let rack = [AnyMeter::Cta(cta), AnyMeter::HeatPulse(pulse)];
    for meter in &rack {
        assert!(meter.full_scale().get() > 0.0);
        assert_eq!(meter.health(), HealthState::Healthy);
    }
}

/// The heat-pulse fleet the two fleet-contract tests below share: a
/// heat-pulse fleet owes the CTA fleet's contract through the one generic
/// engine (same batching, same aggregation fold).
fn heat_pulse_fleet() -> FleetSpec {
    FleetSpec::new(
        "hp-fleet",
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 6.0),
        0xB0A7,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_lines(8)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(2.0, 4.0).with_err(2.0, f64::INFINITY))
    .with_variation(LineVariation::new().with_flow_jitter(0.04))
}

/// The heat-pulse fleet gives the same bits at jobs 1, 2 and 3. The whole
/// outcome is compared, per-line meter digests included.
#[test]
fn heat_pulse_fleet_is_jobs_invariant() {
    let spec = heat_pulse_fleet();
    let j1 = spec.run_jobs(1).unwrap();
    let j2 = spec.run_jobs(2).unwrap();
    let j3 = spec.run_jobs(3).unwrap();
    for (other, what) in [(&j2, "jobs 2"), (&j3, "jobs 3")] {
        assert_eq!(
            format!("{j1:?}"),
            format!("{other:?}"),
            "heat-pulse fleet diverges at {what}"
        );
    }
    assert_eq!(j1.lines.len(), 8);
    // The meters actually decoded flow. Like a factory-calibrated hot
    // wire, the heat-pulse meter reports the velocity at the probe —
    // centerline, i.e. bulk × the turbulent profile factor.
    let probe = 100.0 * hotwire::physics::pipe::Pipe::profile_factor(1.0e5);
    for line in &j1.lines {
        assert!(
            (line.settled_mean - probe).abs() < 0.2 * probe,
            "line {} settled at {:.1} cm/s (probe setpoint {probe:.1})",
            line.line,
            line.settled_mean
        );
    }
}

/// The same heat-pulse fleet run as 3 shards at jobs 2 and merged in line
/// order gives the monolithic jobs-1 run's bits: the whole outcome is
/// compared, per-line meter digests included.
#[test]
fn heat_pulse_fleet_is_jobs_and_shard_invariant() {
    let spec = heat_pulse_fleet();
    let mono = spec.run_jobs(1).unwrap();
    let sharded = spec.run_sharded(3, 2).unwrap();
    assert_eq!(
        format!("{mono:?}"),
        format!("{sharded:?}"),
        "heat-pulse fleet diverges at 3 merged shards"
    );
    assert_eq!(sharded.lines.len(), 8);
}

/// A heat-pulse fleet interrupted between batches resumes from its
/// checkpoint with the uninterrupted run's exact bits — the checkpoint
/// layer needs nothing modality-specific.
#[test]
fn heat_pulse_fleet_checkpoint_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("hotwire-hp-resume-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hp.ck");
    let _ = std::fs::remove_file(&path);
    let spec = FleetSpec::new(
        "hp-resume",
        FlowMeterConfig::test_profile(),
        Scenario::steady(80.0, 3.0),
        0xC4EC,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_lines(9)
    .with_batch_size(3)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(1.0, 2.0));
    let uninterrupted = spec.run_jobs(2).unwrap();
    let stopped = spec.run_checkpointed_with(&path, 1, 2, |progress| {
        if progress.completed_lines >= 3 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert!(
        matches!(stopped, Err(FleetError::Interrupted(_))),
        "expected an interrupted run"
    );
    let resumed = spec.run_checkpointed(&path, 1, 2).unwrap();
    assert_eq!(
        format!("{:?}", uninterrupted.aggregates),
        format!("{:?}", resumed.aggregates),
        "heat-pulse resume diverged from the uninterrupted run"
    );
    for (a, b) in uninterrupted.lines.iter().zip(&resumed.lines) {
        assert_eq!(a.meter_digest, b.meter_digest, "line {} meter", a.line);
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_dir(&dir).unwrap();
}

/// A heat-pulse spec through the campaign path: same `RunSpec` surface,
/// no CTA-specific steps, deterministic across replicas.
#[test]
fn heat_pulse_campaign_run_is_deterministic() {
    let spec = RunSpec::new(
        "hp-campaign",
        FlowMeterConfig::test_profile(),
        Scenario::steady(150.0, 5.0),
        99,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_windows((2.0, 3.0));
    let a = spec.execute().unwrap();
    let b = spec.execute().unwrap();
    assert_eq!(
        a.settled_mean().to_bits(),
        b.settled_mean().to_bits(),
        "replica runs diverge"
    );
    assert_eq!(a.meter.state_digest(), b.meter.state_digest());
    assert!(
        matches!(a.meter, AnyMeter::HeatPulse(_)),
        "modality carried through"
    );
    // Factory heat-pulse decode reports probe (centerline) velocity.
    let probe = 150.0 * hotwire::physics::pipe::Pipe::profile_factor(1.0e5);
    assert!(
        (a.settled_mean() - probe).abs() < 0.15 * probe,
        "heat-pulse campaign read {:.1} cm/s for a probe setpoint of {probe:.1}",
        a.settled_mean()
    );
    // Duty-cycled power: orders of magnitude below the CTA hot wire.
    let cta = RunSpec::new(
        "cta-campaign",
        FlowMeterConfig::test_profile(),
        Scenario::steady(150.0, 5.0),
        99,
    )
    .with_windows((2.0, 3.0))
    .execute()
    .unwrap();
    assert!(
        a.meter.power_draw().get() < 0.2 * cta.meter.power_draw().get(),
        "heat-pulse draw {:.2} mW should sit far below CTA draw {:.2} mW",
        a.meter.power_draw().get() * 1e3,
        cta.meter.power_draw().get() * 1e3
    );
}
