//! End-to-end telemetry-link test: measurements produced by the conditioned
//! instrument, packed into wire records, framed over the UART model through
//! line noise, decoded at the far end, and compared against what was sent.

use hotwire::core::config::FlowMeterConfig;
use hotwire::core::telemetry::TelemetryRecord;
use hotwire::core::FlowMeter;
use hotwire::isif::uart::{FrameDecoder, FrameEvent};
use hotwire::physics::{MafParams, SensorEnvironment};
use hotwire::units::MetersPerSecond;

#[test]
fn measurements_survive_the_telemetry_link() {
    let mut meter = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 77)
        .expect("meter builds");
    let env = SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(140.0),
        ..SensorEnvironment::still_water()
    };

    // Collect ten reporting-interval measurements. Each reporting interval
    // is one wire *burst*; bursts are separated by line idle, and noise
    // bursts (including an adversarial fake SOH with a huge false length)
    // may appear in between.
    let mut sent = Vec::new();
    let mut bursts: Vec<Vec<u8>> = Vec::new();
    for i in 0..10 {
        let m = meter.run(0.2, env).expect("control ticks ran");
        let record = TelemetryRecord::from_measurement(&m);
        sent.push(record);
        if i % 3 == 0 {
            bursts.push(vec![0xA5, 0xFF, 0xEE]); // noise burst with fake SOH
        }
        bursts.push(record.to_frame().expect("fixed payload encodes"));
    }

    // Far-end receiver: a real UART flushes framing on inter-burst idle.
    let mut decoder = FrameDecoder::new();
    let mut received = Vec::new();
    let mut sink = |event: FrameEvent<'_>| {
        if let FrameEvent::Payload(payload) = event {
            if let Ok(r) = TelemetryRecord::parse(payload) {
                received.push(r);
            }
        }
    };
    for burst in &bursts {
        decoder.flush(&mut sink); // idle gap preceding every burst
        decoder.feed(burst, &mut sink);
    }
    assert_eq!(
        received.len(),
        10,
        "all framed records must decode with idle-flush framing"
    );
    // Every received record is one that was sent, in order.
    let mut sent_iter = sent.iter();
    for r in &received {
        assert!(
            sent_iter.any(|s| s == r),
            "received record not among sent (or out of order): {r:?}"
        );
    }
    // And the payloads are physically sensible.
    for r in &received {
        let v = r.velocity_centi_cm_s as f64 / 100.0;
        assert!((0.0..=260.0).contains(&v), "velocity {v} cm/s");
    }
}

#[test]
fn burst_probe_reports_over_the_link() {
    use hotwire::core::burst::{BurstConfig, BurstController};

    let meter = FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), 78)
        .expect("meter builds");
    let mut probe = BurstController::new(meter, BurstConfig::asic_default()).expect("schedule");
    let env = SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(90.0),
        ..SensorEnvironment::still_water()
    };
    let reading = probe.measure_once(env);
    // The probe ships its burst reading using the last conditioned
    // measurement's record.
    let m = probe
        .meter()
        .last_measurement()
        .expect("burst produced control ticks");
    let record = TelemetryRecord::from_measurement(&m);
    let frame = record.to_frame().expect("encodes");
    let mut decoder = FrameDecoder::new();
    let mut got = None;
    decoder.feed(&frame, |event| {
        if let FrameEvent::Payload(p) = event {
            got = Some(TelemetryRecord::parse(p).expect("valid record"));
        }
    });
    let got = got.expect("frame decoded");
    assert_eq!(got, record);
    // Burst reading and telemetry record tell a consistent story.
    assert!(
        (got.velocity_centi_cm_s as f64 / 100.0 - reading.speed.to_cm_per_s()).abs() < 30.0,
        "telemetry {} vs burst {}",
        got.velocity_centi_cm_s as f64 / 100.0,
        reading.speed.to_cm_per_s()
    );
}
