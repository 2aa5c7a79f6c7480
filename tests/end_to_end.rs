//! End-to-end integration tests spanning every crate: physics die → AFE →
//! ISIF platform → conditioning firmware → evaluation rig.

use hotwire::core::config::FlowMeterConfig;
use hotwire::core::direction::FlowDirection;
use hotwire::core::{FlowMeter, Meter};
use hotwire::physics::{MafParams, SensorEnvironment};
use hotwire::rig::campaign::FieldCalibration;
use hotwire::rig::{metrics, LineRunner, Scenario};
use hotwire::units::MetersPerSecond;

fn meter(seed: u64) -> FlowMeter {
    FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), seed)
        .expect("meter builds")
}

fn field_calibrate(m: &mut FlowMeter, setpoints_cm_s: &[f64], seed: u64) {
    FieldCalibration {
        setpoints_cm_s: setpoints_cm_s.to_vec(),
        settle_s: 0.6,
        average_s: 0.4,
        seed,
    }
    .apply(m, 1)
    .expect("calibrates");
}

#[test]
fn calibrated_meter_tracks_full_staircase() {
    let mut m = meter(1);
    field_calibrate(&mut m, &[15.0, 50.0, 100.0, 160.0, 220.0], 1);
    let mut runner = LineRunner::new(Scenario::fig11_staircase(3.0), m, 1);
    let trace = runner.run(0.05);
    // Settled tail of each dwell: tracking within a band.
    let settled: Vec<(f64, f64)> = trace
        .samples
        .iter()
        .filter(|s| (s.t / 3.0).fract() > 0.7)
        .map(|s| (s.true_cm_s, s.dut_cm_s))
        .collect();
    assert!(settled.len() > 20);
    let rms = metrics::rms_error(&settled);
    assert!(rms < 15.0, "staircase rms {rms:.2} cm/s");
}

#[test]
fn worst_case_die_is_rescued_by_field_calibration() {
    // ±1 % heater and ±1.5 % reference tolerances shift the operating point;
    // calibration against the reference meter absorbs it.
    let mut m = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::worst_case(), 2)
        .expect("meter builds");
    // A ±1 % heater mismatch dwarfs the dual-heater direction signal, so a
    // toleranced die *requires* the per-unit direction auto-zero before use.
    m.auto_zero_direction(0.5, SensorEnvironment::still_water());
    field_calibrate(&mut m, &[15.0, 60.0, 120.0, 200.0], 2);
    let mut runner = LineRunner::new(Scenario::steady(150.0, 4.0), m, 2);
    let trace = runner.run(0.02);
    let mean = metrics::mean(trace.samples.dut_in(2.0, 4.0));
    assert!(
        (mean - 150.0).abs() < 12.0,
        "worst-case die reads {mean:.1} at 150 cm/s"
    );
}

#[test]
fn calibration_survives_simulated_power_cycle() {
    let mut m = meter(3);
    field_calibrate(&mut m, &[20.0, 80.0, 180.0], 3);
    let stored = *m.calibration().expect("installed");
    // "Power cycle": reload from the CRC-protected EEPROM record.
    m.reload_calibration().expect("record intact");
    assert_eq!(*m.calibration().unwrap(), stored);
}

#[test]
fn eeprom_corruption_is_detected_not_silently_used() {
    use hotwire::core::calibration::KingCalibration;
    use hotwire::core::HealthState;

    let mut m = meter(4);
    field_calibrate(&mut m, &[20.0, 80.0, 180.0], 4);
    let stored = *m.calibration().expect("installed");
    // A corrupt primary fails its CRC but degrades to the redundant mirror
    // slot — never silently used, never fatal while a good copy survives.
    m.platform_mut()
        .eeprom_mut()
        .corrupt(KingCalibration::EEPROM_SLOT, 2);
    m.reload_calibration()
        .expect("mirror slot rescues a corrupt primary");
    assert_eq!(*m.calibration().unwrap(), stored);
    assert_eq!(m.health(), HealthState::Recovering);
    // With *both* copies gone the reload must fail loudly.
    m.platform_mut()
        .eeprom_mut()
        .corrupt(KingCalibration::EEPROM_SLOT, 2);
    m.platform_mut()
        .eeprom_mut()
        .corrupt(KingCalibration::REDUNDANT_SLOT, 2);
    assert!(
        m.reload_calibration().is_err(),
        "doubly-corrupt calibration must fail the CRC check"
    );
    assert_eq!(m.health(), HealthState::Faulted);
}

#[test]
fn direction_and_magnitude_through_the_whole_stack() {
    let mut m = meter(5);
    m.auto_zero_direction(0.5, SensorEnvironment::still_water());
    let fwd = m
        .run(
            1.5,
            SensorEnvironment {
                velocity: MetersPerSecond::from_cm_per_s(120.0),
                ..SensorEnvironment::still_water()
            },
        )
        .expect("measures");
    assert_eq!(fwd.direction, FlowDirection::Forward);
    let rev = m
        .run(
            2.0,
            SensorEnvironment {
                velocity: MetersPerSecond::from_cm_per_s(-120.0),
                ..SensorEnvironment::still_water()
            },
        )
        .expect("measures");
    assert_eq!(rev.direction, FlowDirection::Reverse);
    assert!(rev.velocity.get() < 0.0);
}

#[test]
fn whole_stack_is_deterministic() {
    fn build() -> LineRunner<FlowMeter> {
        let m = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 42)
            .expect("meter builds");
        LineRunner::new(Scenario::steady(77.0, 2.0), m, 42)
    }
    let a = build().run(0.1);
    let b = build().run(0.1);
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.dut_cm_s, y.dut_cm_s);
        assert_eq!(x.supply_code, y.supply_code);
    }
}

#[test]
fn healthy_run_raises_no_faults_and_feeds_watchdog() {
    let mut m = meter(6);
    m.run(
        2.0,
        SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(100.0),
            ..SensorEnvironment::still_water()
        },
    );
    assert!(!m.fault_latch().any(), "faults: {:?}", m.fault_latch());
    assert_eq!(m.platform_mut().watchdog_mut().reset_count(), 0);
}
