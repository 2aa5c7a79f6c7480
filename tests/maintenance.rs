//! Maintenance-policy integration tests: the modality-generic calibration
//! surface under the fleet engine's determinism contract. The policy
//! engine draws no RNG and acts only at frame boundaries, so a maintained
//! fleet must stay bit-identical across job counts and checkpoint
//! kill/resume exactly like an unmaintained one.

use std::ops::ControlFlow;

use hotwire::core::config::FlowMeterConfig;
use hotwire::core::{FlowMeter, HeatPulseMeter, Meter};
use hotwire::physics::{MafParams, SensorEnvironment};
use hotwire::prelude::*;
use hotwire::units::MetersPerSecond;
use proptest::prelude::*;

fn flow_env(v_cm_s: f64) -> SensorEnvironment {
    SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(v_cm_s),
        ..SensorEnvironment::still_water()
    }
}

/// Drives a meter `frames` control frames at a constant operating point.
fn warm(meter: &mut dyn Meter, frames: u32, v_cm_s: f64) {
    let env = flow_env(v_cm_s);
    for _ in 0..frames {
        let _ = meter.step_frame(env);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `re_zero` with nothing to zero is an *exact* state no-op on both
    /// sensing modalities: when the drift estimate is 0.0 the digest must
    /// not move, and after any re-zero the estimate is 0.0 — so a second
    /// re-zero never moves the digest either. This is what makes an
    /// over-eager maintenance policy harmless rather than corrosive.
    #[test]
    fn re_zero_under_zero_drift_is_a_digest_noop(
        seed in 0u64..500,
        v in 20.0f64..240.0,
        frames in 5u32..60,
    ) {
        let config = FlowMeterConfig::test_profile();
        let cta = FlowMeter::new(config, MafParams::nominal(), seed).unwrap();
        let pulse = HeatPulseMeter::new(config, seed).unwrap();
        let meters: [Box<dyn Meter>; 2] = [Box::new(cta), Box::new(pulse)];
        for mut meter in meters {
            warm(meter.as_mut(), frames, v);
            if meter.drift_estimate() == 0.0 {
                let before = meter.state_digest();
                meter.re_zero();
                prop_assert_eq!(
                    meter.state_digest(), before,
                    "zero-drift re_zero moved the digest: {:?}", meter
                );
            }
            meter.re_zero();
            prop_assert_eq!(meter.drift_estimate(), 0.0);
            let anchored = meter.state_digest();
            meter.re_zero();
            prop_assert_eq!(
                meter.state_digest(), anchored,
                "second re_zero moved the digest: {:?}", meter
            );
        }
    }
}

/// Persist / power-cycle round trip through the *trait* surface — the
/// unification the calibration API redesign promises: identical calling
/// code services the CTA EEPROM record and the heat-pulse one.
#[test]
fn dyn_meter_persist_and_reload_round_trip() {
    let config = FlowMeterConfig::test_profile();
    let cta = FlowMeter::new(config, MafParams::nominal(), 11).unwrap();
    let pulse = HeatPulseMeter::new(config, 11).unwrap();
    let meters: [Box<dyn Meter>; 2] = [Box::new(cta), Box::new(pulse)];
    for mut meter in meters {
        warm(meter.as_mut(), 20, 120.0);
        let wear = meter.calibration_wear();
        meter.persist().expect("factory calibration persists");
        assert_eq!(
            meter.calibration_wear(),
            wear + 1,
            "one persist = one write cycle per slot: {meter:?}"
        );
        let digest = meter.state_digest();
        meter
            .reload_calibration()
            .expect("persisted record survives a power cycle");
        assert_eq!(
            meter.state_digest(),
            digest,
            "reloading the just-persisted record must be a no-op"
        );
        meter.persist().expect("second persist");
        assert_eq!(meter.calibration_wear(), wear + 2);
    }
}

/// A maintained, faulted fleet on a drifting season: CaCO₃ steps on every
/// third line under a winter→summer ramp, serviced by `Policy::Hybrid`.
fn maintained_fleet(modality: Modality, lines: usize) -> FleetSpec {
    let duration_s = 6.0;
    let maintenance = Maintenance::new(Policy::Hybrid {
        period_s: 1.5,
        on_degraded: true,
        drift_threshold: 0.01,
        temp_delta_c: 4.0,
    })
    .with_min_service_interval(0.2)
    .with_persist_min_interval(0.5);
    let fouling = FaultSchedule::new(0)
        .with_event(1.5, 0.0, FaultKind::SteppedFouling { microns: 8.0 })
        .with_event(3.5, 0.0, FaultKind::SteppedFouling { microns: 8.0 });
    FleetSpec::new(
        format!("maintained-{}", modality.name()),
        FlowMeterConfig::test_profile(),
        Scenario::temperature_ramp(100.0, 12.0, 30.0, duration_s),
        0x4D41_1147,
    )
    .with_config(
        LineConfig::new()
            .with_modality(modality)
            .with_maintenance(maintenance),
    )
    .with_lines(lines)
    .with_batch_size(3)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(0.5, 1.2).with_err(0.5, f64::INFINITY))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.04)
            .with_faults_every(3, 1, fouling),
    )
}

/// Jobs-invariance with the policy engine live: the maintained, faulted
/// fleet folds to identical bits at --jobs 1, 2 and 3 on both modalities,
/// and the policy demonstrably acted (the invariance is not vacuous).
#[test]
fn hybrid_maintained_fleet_is_jobs_invariant_on_both_modalities() {
    for modality in [Modality::Cta, Modality::HeatPulse] {
        let spec = maintained_fleet(modality, 9);
        let j1 = spec.run_jobs(1).unwrap();
        assert!(
            j1.aggregates.maintenance.actions() > 0,
            "{}: hybrid policy never acted: {:?}",
            modality.name(),
            j1.aggregates.maintenance
        );
        for jobs in [2usize, 3] {
            let jn = spec.run_jobs(jobs).unwrap();
            assert_eq!(
                format!("{:?}", j1.aggregates),
                format!("{:?}", jn.aggregates),
                "{} aggregates diverged at jobs {jobs}",
                modality.name()
            );
            for (a, b) in j1.lines.iter().zip(&jn.lines) {
                assert_eq!(a.meter_digest, b.meter_digest, "line {}", a.line);
                assert_eq!(a.maintenance, b.maintenance, "line {}", a.line);
            }
        }
    }
}

/// Kill/resume bit-identity with in-flight policy state: a maintained
/// fleet interrupted mid-run and resumed from its checkpoint (which
/// carries the finished lines' maintenance counters through the v2 codec)
/// finishes identical to the uninterrupted run.
#[test]
fn maintained_fleet_resumes_bit_identical_after_kill() {
    let dir = std::env::temp_dir().join(format!(
        "hotwire-maintenance-resume-test-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for modality in [Modality::Cta, Modality::HeatPulse] {
        let spec = maintained_fleet(modality, 9);
        let uninterrupted = spec.run_jobs(2).unwrap();
        let path = dir.join(format!("{}.ck", modality.name()));
        let _ = std::fs::remove_file(&path);
        let stopped = spec.run_checkpointed_with(&path, 1, 2, |progress| {
            if progress.completed_lines >= 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(
            matches!(stopped, Err(FleetError::Interrupted(_))),
            "{}: expected an interrupted run",
            modality.name()
        );
        let resumed = spec.run_checkpointed(&path, 1, 2).unwrap();
        assert_eq!(
            format!("{:?}", uninterrupted.aggregates),
            format!("{:?}", resumed.aggregates),
            "{}: resume diverged from the uninterrupted run",
            modality.name()
        );
        assert!(resumed.aggregates.maintenance.actions() > 0);
        std::fs::remove_file(&path).unwrap();
    }
    std::fs::remove_dir(&dir).unwrap();
}
