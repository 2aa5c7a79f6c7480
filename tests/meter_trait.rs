//! Trait-genericity coverage: the generic `Meter` refactor must leave the
//! CTA path bit-identical. The spec below was run on the pre-refactor
//! engine (hard-coded `FlowMeter`) and its per-line meter digests pinned
//! (re-pinned since for a schema change, a sampler change and the
//! once-per-frame surface step; see `PRE_REFACTOR_DIGESTS`); the generic
//! `LineRunner<M>` must reproduce them exactly at any job count. The rest
//! of the suite drives the non-CTA modalities through the *unmodified*
//! fleet, campaign and checkpoint engines.

use std::ops::ControlFlow;

use hotwire::core::config::AfeTier;
use hotwire::prelude::*;

/// Per-line meter digests of `faulted_spec()`, identical at jobs 1, 2
/// and 3. This is the fourth set of values pinned here:
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
const PRE_REFACTOR_DIGESTS: [u64; 9] = [
    0x48867cf667148278,
    0x4342981553bbd775,
    0x22e35f35dd51d3ef,
    0xd04cb422a5400eb5,
    0xc3afab5582d7f3f2,
    0xd6496adb4dca1614,
    0x51882ae5765916a9,
    0x4ce4bbd25c7134a6,
    0xef10ec0559084563,
];

/// Per-line meter digests of `fast_windowed_spec()`, identical at jobs 1,
/// 2 and 3: the fast AFE tier's frame path, pinned so that a change to
/// the exact tier's per-tick walk can show it left this tier's bits alone.
const FAST_TIER_DIGESTS: [u64; 9] = [
    0x93edb614a04ae411,
    0xddf4ce5d1316fcfa,
    0x0ea12663e29d41ee,
    0xcef2985854da4c01,
    0xd640b979589fe92b,
    0xa529c53da02672d9,
    0x50a20b4ba2a2d1be,
    0xce1f514156a9e567,
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

/// `Meter` must stay object-safe: heterogeneous meter collections (mixed
/// racks behind one ingest head) box the trait.
#[test]
fn meter_trait_is_object_safe() {
    fn assert_dyn(_: &dyn Meter) {}
    let config = FlowMeterConfig::test_profile();
    let cta = FlowMeter::new(config, MafParams::nominal(), 7).unwrap();
    let pulse = HeatPulseMeter::new(config, 7).unwrap();
    assert_dyn(&cta);
    assert_dyn(&pulse);
    let rack: Vec<Box<dyn Meter>> = vec![Box::new(cta), Box::new(pulse)];
    for meter in &rack {
        assert!(meter.full_scale().get() > 0.0);
        assert_eq!(meter.health(), HealthState::Healthy);
    }
}

/// A heat-pulse fleet runs under the unmodified fleet engine (same
/// batching, same aggregation fold) and stays jobs-invariant.
#[test]
fn heat_pulse_fleet_is_jobs_invariant() {
    let spec = FleetSpec::new(
        "hp-fleet",
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 6.0),
        0xB0A7,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_lines(8)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(2.0, 4.0).with_err(2.0, f64::INFINITY))
    .with_variation(LineVariation::new().with_flow_jitter(0.04));
    let j1 = spec.run_jobs(1).unwrap();
    let j2 = spec.run_jobs(2).unwrap();
    let j3 = spec.run_jobs(3).unwrap();
    for (other, what) in [(&j2, "jobs 2"), (&j3, "jobs 3")] {
        assert_eq!(
            format!("{:?}", j1.aggregates),
            format!("{:?}", other.aggregates),
            "heat-pulse aggregates diverge at {what}"
        );
        for (a, b) in j1.lines.iter().zip(&other.lines) {
            assert_eq!(a.meter_digest, b.meter_digest, "line {} at {what}", a.line);
        }
    }
    // The meters actually decoded flow. Like a factory-calibrated hot
    // wire, the heat-pulse meter reports the velocity at the probe —
    // centerline, i.e. bulk × the turbulent profile factor.
    let probe = 100.0 * ReferenceMeter::profile_factor();
    for line in &j1.lines {
        assert!(
            (line.settled_mean - probe).abs() < 0.2 * probe,
            "line {} settled at {:.1} cm/s (probe setpoint {probe:.1})",
            line.line,
            line.settled_mean
        );
    }
}

/// A mixed-modality fleet — CTA DUTs with every 4th line replaced by a
/// Promag reference comparator — runs under the unmodified engine,
/// stays jobs-invariant, and the reference lines track truth tighter
/// than the DUT population.
#[test]
fn mixed_modality_fleet_mixes_reference_comparators() {
    let spec = FleetSpec::new(
        "mixed-fleet",
        FlowMeterConfig::test_profile(),
        Scenario::steady(120.0, 4.0),
        0x3A1D,
    )
    .with_lines(8)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(1.5, 2.5).with_err(1.5, f64::INFINITY))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.03)
            .with_references_every(4, 3, ReferenceKind::Promag),
    );
    let j1 = spec.run_jobs(1).unwrap();
    let j3 = spec.run_jobs(3).unwrap();
    assert_eq!(
        format!("{:?}", j1.aggregates),
        format!("{:?}", j3.aggregates),
        "mixed-modality aggregates diverge across jobs"
    );
    // Lines 3 and 7 ran the Promag; the electromagnetic reference resolves
    // bulk flow with less noise than any hot-wire DUT in the population.
    let reference_err: Vec<f64> = j1
        .lines
        .iter()
        .filter(|l| l.line % 4 == 3)
        .map(|l| l.err_rms)
        .collect();
    let dut_err: Vec<f64> = j1
        .lines
        .iter()
        .filter(|l| l.line % 4 != 3)
        .map(|l| l.err_rms)
        .collect();
    assert_eq!(reference_err.len(), 2);
    assert_eq!(dut_err.len(), 6);
    let ref_worst = reference_err.iter().cloned().fold(0.0, f64::max);
    let dut_best = dut_err.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        ref_worst < dut_best,
        "reference lines (worst {ref_worst:.2} cm/s RMS) should out-resolve \
         every DUT line (best {dut_best:.2} cm/s RMS)"
    );
}

/// Heat-pulse DUT lines with every 4th line a Promag reference comparator:
/// two sensing physics plus a truth channel through one generic engine owe
/// the CTA fleet's contract — the same bits at jobs 1 and 2, and from 3
/// shards merged in line order (the reference stride crosses the shard
/// boundaries).
#[test]
fn heat_pulse_and_promag_fleet_is_jobs_and_shard_invariant() {
    let spec = FleetSpec::new(
        "mixed-heat-pulse",
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 2.0),
        0x4D31_F1EE,
    )
    .with_config(LineConfig::new().with_modality(Modality::HeatPulse))
    .with_lines(16)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(1.0, 2.0))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.03)
            .with_references_every(4, 3, ReferenceKind::Promag),
    );
    let mono = spec.run_jobs(1).unwrap();
    let parallel = spec.run_jobs(2).unwrap();
    let sharded = spec.run_sharded(3, 2).unwrap();
    for (other, what) in [(&parallel, "jobs 2"), (&sharded, "3 shards")] {
        assert_eq!(
            format!("{mono:?}"),
            format!("{other:?}"),
            "mixed heat-pulse/Promag fleet diverges at {what}"
        );
    }
    assert_eq!(mono.lines.len(), 16);
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
        a.meter.as_heat_pulse().is_some(),
        "modality carried through"
    );
    // Factory heat-pulse decode reports probe (centerline) velocity.
    let probe = 150.0 * ReferenceMeter::profile_factor();
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
