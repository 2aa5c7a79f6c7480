//! Integration tests for the deterministic observability layer: firmware
//! events surfaced through `core::obs::Observer`, per-run counters and
//! histograms collected by the rig, campaign-wide merges, and the
//! process-wide per-experiment registry behind `repro --json`.

use hotwire::core::config::{AfeTier, FlowMeterConfig};
use hotwire::core::{EventKind, HealthState, Meter};
use hotwire::rig::campaign::derive_seed;
use hotwire::rig::fault::{FaultKind, FaultSchedule};
use hotwire::rig::maintain::{Maintenance, Policy};
use hotwire::rig::obs;
use hotwire::rig::runner::TraceSample;
use hotwire::rig::{Campaign, LineConfig, RunSpec, Scenario};

fn base_spec(label: &str, seed_index: u64) -> RunSpec {
    RunSpec::new(
        label.to_string(),
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 2.5),
        derive_seed(0x0B5E, seed_index),
    )
    .with_windows((1.0, 1.0))
}

#[test]
fn fault_runs_emit_cause_then_consequence_events() {
    // An ADC freeze plus an EEPROM bit flip: the injector must report both
    // activations through the meter's observer, and the EEPROM flip's
    // forced calibration reload must land *after* its cause.
    let spec = base_spec("obs-fault-events", 1).with_config(
        LineConfig::new().with_faults(
            FaultSchedule::new(derive_seed(0x0B5E, 101))
                .with_event(0.5, 0.5, FaultKind::AdcStuck { code: 900 })
                .with_event(1.2, 0.2, FaultKind::EepromBitFlip { slot: 0, byte: 3 }),
        ),
    );
    let outcome = Campaign::with_jobs(1).run(&[spec]).unwrap().remove(0);
    let obs = outcome.trace.obs.expect("observability on by default");

    let activated: Vec<&'static str> = obs
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FaultActivated { fault } => Some(fault),
            _ => None,
        })
        .collect();
    assert_eq!(activated, ["adc_stuck", "eeprom_bit_flip"]);
    assert_eq!(obs.counters.faults_activated, 2);
    assert!(
        obs.counters.faults_cleared >= 1,
        "windowed faults must report clearing"
    );

    // The bit flip forces a reload; whichever slot served it, exactly the
    // counters and an event must agree on what happened.
    let reload_events = obs
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::CalibrationReloaded { .. } | EventKind::CalibrationReloadFailed
            )
        })
        .count() as u64;
    assert!(reload_events >= 1, "forced reload not observed");
    assert_eq!(
        obs.counters.calibration_reloads + obs.counters.calibration_failures,
        reload_events
    );

    // Cause precedes consequence: the first reload-ish event may not come
    // before the eeprom activation that triggered it.
    let eeprom_at = obs
        .events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                EventKind::FaultActivated {
                    fault: "eeprom_bit_flip"
                }
            )
        })
        .unwrap();
    let reload_at = obs
        .events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                EventKind::CalibrationReloaded { .. } | EventKind::CalibrationReloadFailed
            )
        })
        .unwrap();
    assert!(reload_at > eeprom_at, "reload event precedes its cause");

    // Event logs are chronological: control-tick stamps never go backwards.
    assert!(
        obs.events.windows(2).all(|w| w[0].tick <= w[1].tick),
        "event ticks not monotonic"
    );
}

#[test]
fn uart_corruption_is_counted_and_logged() {
    // Heavy bit-flip probability over most of the run: some telemetry
    // frames must fail CRC, and counter and event log must agree.
    let spec = base_spec("obs-uart-errors", 2).with_config(LineConfig::new().with_faults(
        FaultSchedule::new(derive_seed(0x0B5E, 102)).with_event(
            0.2,
            2.0,
            FaultKind::UartCorruption {
                flip_per_byte: 0.05,
                drop_per_byte: 0.0,
            },
        ),
    ));
    let outcome = Campaign::with_jobs(1).run(&[spec]).unwrap().remove(0);
    let obs = outcome.trace.obs.expect("observability on by default");
    assert!(
        obs.counters.uart_frame_errors > 0,
        "no CRC errors under 5 %/byte flips"
    );
    let logged = obs
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::UartFrameError))
        .count() as u64;
    // The bounded event log may drop tail events, but counters absorb only
    // what the log retained, so retained events and counter must match.
    assert_eq!(obs.counters.uart_frame_errors, logged);
}

/// Every field of a trace sample, the floats as bits.
fn sample_bits(s: &TraceSample) -> ([u64; 7], u32, bool, HealthState) {
    let floats = [
        s.t,
        s.true_cm_s,
        s.dut_cm_s,
        s.promag_cm_s,
        s.turbine_cm_s,
        s.bubble_coverage,
        s.fouling_um,
    ];
    (floats.map(f64::to_bits), s.supply_code, s.fault, s.health)
}

#[test]
fn disabling_observability_leaves_the_trace_bare() {
    // The observed twin reads every frame; the unobserved one decodes only
    // the frames a sample reads. The second spec adds the fast tier,
    // maintenance refits and an ADC-stuck window.
    let fast = RunSpec::new(
        "obs-disabled-fast".to_string(),
        FlowMeterConfig::test_profile(),
        Scenario::temperature_ramp(100.0, 12.0, 30.0, 6.0),
        derive_seed(0x0B5E, 4),
    )
    .with_windows((1.0, 1.0))
    .with_config(
        LineConfig::new()
            .with_afe_tier(AfeTier::Fast)
            .with_maintenance(
                Maintenance::new(Policy::Scheduled { period_s: 0.4 })
                    .with_min_service_interval(0.2),
            )
            .with_faults(FaultSchedule::new(derive_seed(0x0B5E, 104)).with_event(
                3.6,
                0.3,
                FaultKind::AdcStuck { code: 900 },
            )),
    );
    for (spec, maintained_and_faulted) in [(base_spec("obs-disabled", 3), false), (fast, true)] {
        let outcome = Campaign::with_jobs(1)
            .run(&[spec.clone().without_obs()])
            .unwrap()
            .remove(0);
        assert!(outcome.trace.obs.is_none());
        // And the run itself is unaffected: same trace as an observed twin.
        let observed = Campaign::with_jobs(1).run(&[spec]).unwrap().remove(0);
        let label = &observed.label;
        assert!(observed.trace.obs.is_some());
        assert_eq!(
            outcome.trace.samples.len(),
            observed.trace.samples.len(),
            "{label}: observer changed the run length"
        );
        for (a, b) in outcome.trace.samples.iter().zip(&observed.trace.samples) {
            assert_eq!(sample_bits(&a), sample_bits(&b), "{label} at t = {}", a.t);
        }
        // `Debug` prints every float's shortest round-trip form, so equal
        // text is equal bits.
        assert_eq!(
            format!("{:?}", outcome.reduced),
            format!("{:?}", observed.reduced),
            "{label}"
        );
        assert_eq!(outcome.maintenance, observed.maintenance, "{label}");
        assert_eq!(
            outcome.meter.state_digest(),
            observed.meter.state_digest(),
            "{label}"
        );
        if maintained_and_faulted {
            assert!(observed.maintenance.refits > 0, "no refit ran");
            let counters = observed.trace.obs.unwrap().counters;
            assert_eq!(counters.faults_activated, 1, "the ADC fault never fired");
        }
    }
}

#[test]
fn merged_snapshots_are_jobs_invariant_under_faults() {
    // The acceptance criterion stated at the campaign layer, checked here
    // through the public facade: per-run obs (counters, histograms, event
    // logs) and the merged snapshots are bit-identical across --jobs 1 and
    // --jobs 4, fault schedules included.
    let specs: Vec<RunSpec> = (0..4)
        .map(|i| {
            base_spec(&format!("obs-jobs-{i}"), 10 + i as u64).with_config(
                LineConfig::new().with_faults(
                    FaultSchedule::new(derive_seed(0x0B5E, 200 + i as u64))
                        .with_event(0.4, 0.4, FaultKind::AdcStuck { code: 700 + 50 * i })
                        .with_event(
                            0.2,
                            2.0,
                            FaultKind::UartCorruption {
                                flip_per_byte: 0.02,
                                drop_per_byte: 0.02,
                            },
                        ),
                ),
            )
        })
        .collect();
    let serial = Campaign::with_jobs(1).run(&specs).unwrap();
    let parallel = Campaign::with_jobs(4).run(&specs).unwrap();
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.trace.obs, b.trace.obs, "{}", a.label);
    }
    let merged_serial = obs::merge_outcomes(&serial);
    let merged_parallel = obs::merge_outcomes(&parallel);
    assert_eq!(merged_serial, merged_parallel);
    assert_eq!(merged_serial.runs, 4);
    // The histogram saw every control tick.
    assert_eq!(
        merged_serial.pi_output.total,
        merged_serial.counters.control_ticks
    );
}

#[test]
fn registry_scopes_capture_campaigns_run_inside_them() {
    // The registry is process-global (shared by every test in this
    // binary), so this test uses a unique scope label and reads through
    // `registry_snapshot` rather than draining.
    let label = "obs-itest-scope-4c1d";
    let specs: Vec<RunSpec> = (0..2)
        .map(|i| base_spec(&format!("obs-reg-{i}"), 20 + i as u64))
        .collect();
    let outcomes = obs::scoped(label, || Campaign::with_jobs(2).run(&specs).unwrap());
    assert_eq!(outcomes.len(), 2);

    let registry = obs::registry_snapshot();
    let scope = registry.get(label).expect("scope recorded");
    assert_eq!(scope.campaigns, 1);
    assert_eq!(scope.runs, 2);
    assert!(scope.counters.modulator_steps > 0);
    assert!(scope.wall_s > 0.0, "campaign wall-clock not profiled");
    assert!(scope.samples_per_s().is_finite());
    // Scope accumulation matched what the outcomes themselves carry.
    let merged = obs::merge_outcomes(&outcomes);
    assert_eq!(scope.counters, merged.counters);
    assert_eq!(scope.pi_output, merged.pi_output);

    // Campaigns run *outside* any scope must not have leaked in: the scope
    // saw exactly one campaign even though other tests run campaigns too.
    let unscoped = Campaign::with_jobs(1)
        .run(&[base_spec("obs-reg-unscoped", 30)])
        .unwrap();
    assert!(unscoped[0].trace.obs.is_some());
    let after = obs::registry_snapshot();
    assert_eq!(after.get(label).expect("still there").campaigns, 1);
}
