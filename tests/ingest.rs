//! Service-side ingest contracts.
//!
//! The ingest pipeline promises that the operator's fleet view is a pure
//! function of the wire: the same [`FleetSpec`] produces a bit-identical
//! merged [`IngestReport`] at any `--jobs` count — with UART corruption
//! actively mangling a subset of lines — and every census entry is backed
//! by a decoded record.

use hotwire::prelude::*;
use hotwire::rig::fault::FaultKind;
use hotwire::rig::ingest;

/// A low-rate config so three full ingest runs stay cheap in debug builds.
fn cheap_config() -> FlowMeterConfig {
    FlowMeterConfig {
        modulator_rate: Hertz::new(1000.0),
        decimation: 2,
        ..FlowMeterConfig::test_profile()
    }
}

/// Every 3rd line carries a stuck ADC *and* a full-run UART corruption
/// window, so the determinism claim is exercised where it is hardest: the
/// wire bytes themselves are seed-dependently flipped and dropped.
fn corrupt_fleet(lines: usize, duration_s: f64) -> FleetSpec {
    FleetSpec::new(
        "ingest-test",
        cheap_config(),
        Scenario::steady(90.0, duration_s),
        0x1276E57,
    )
    .with_lines(lines)
    .with_sample_period(0.02)
    .with_windows(
        Windows::settled(duration_s * 0.25, duration_s * 0.25)
            .with_err(duration_s * 0.25, f64::INFINITY),
    )
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(0.04)
            .with_faults_every(
                3,
                1,
                FaultSchedule::new(0)
                    .with_event(
                        duration_s * 0.5,
                        duration_s * 0.25,
                        FaultKind::AdcStuck { code: 900 },
                    )
                    .with_event(
                        0.0,
                        duration_s,
                        FaultKind::UartCorruption {
                            flip_per_byte: 0.02,
                            drop_per_byte: 0.02,
                        },
                    ),
            ),
    )
}

/// Debug formatting of every counter, census, alert and confusion count in
/// the report — f64-free, so string equality is bit equality.
fn render(report: &IngestReport) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
        report.lines,
        report.stats,
        report.census,
        report.truth,
        report.frames_sent,
        report.lines_silent,
        report.fidelity,
        report.sample_alerts,
    )
}

/// The satellite acceptance: the merged ingest report is bit-identical at
/// `--jobs` 1, 2 and 3 while UART corruption is actively flipping and
/// dropping wire bytes on every 3rd line.
#[test]
fn ingest_report_bit_identical_across_jobs_under_corruption() {
    let spec = corrupt_fleet(9, 2.0);
    let config = IngestConfig::for_fleet(&spec);
    let j1 = ingest::ingest_fleet(&spec, &config, 1).unwrap();
    let j2 = ingest::ingest_fleet(&spec, &config, 2).unwrap();
    let j3 = ingest::ingest_fleet(&spec, &config, 3).unwrap();

    assert_eq!(render(&j1), render(&j2), "ingest jobs 1 vs 2");
    assert_eq!(render(&j1), render(&j3), "ingest jobs 1 vs 3");

    // The corruption actually bit — this was not a clean-wire run.
    assert!(j1.stats.link.crc_errors > 0, "corruption never fired");
    assert!(
        j1.frames_sent > j1.stats.records.records,
        "nothing was lost"
    );
}

/// Census conservation: every record decoded from the wire lands in
/// exactly one census bucket, and the wire view never exceeds the truth's
/// sample count (records can be lost to corruption, never invented).
#[test]
fn wire_census_is_conservative_and_record_backed() {
    let spec = corrupt_fleet(6, 2.0);
    let config = IngestConfig::for_fleet(&spec);
    let report = ingest::ingest_fleet(&spec, &config, 2).unwrap();

    assert_eq!(report.census.total(), report.stats.records.records);
    assert!(report.census.total() <= report.truth.total());
    assert_eq!(report.truth.total(), report.frames_sent);
    assert_eq!(report.lines_silent, 0, "every line should deliver records");

    // Clean lines (2 of 3) deliver everything: overall delivery stays high
    // even with a third of the fleet on a mangled wire.
    assert!(
        report.delivery_ratio() > 0.6,
        "delivery ratio {:.3}",
        report.delivery_ratio()
    );

    // The tick-gap detector noticed the corruption-induced losses.
    assert!(report.stats.records_lost > 0, "losses went undetected");
    assert!(report.stats.alerts_raised > 0);
}

/// A clean wire decodes losslessly through a session: ingest introduces no
/// losses of its own (all loss in the corrupt tests comes from the wire).
#[test]
fn clean_wire_ingests_losslessly() {
    let mut spec = corrupt_fleet(4, 1.5);
    spec.variation.faults = None;
    let config = IngestConfig::for_fleet(&spec);
    let report = ingest::ingest_fleet(&spec, &config, 2).unwrap();

    assert_eq!(report.stats.records.records, report.frames_sent);
    assert_eq!(report.stats.link.crc_errors, 0);
    let records = report.stats.records;
    assert_eq!(
        records.wrong_length + records.unknown_version + records.bad_direction,
        0
    );
    assert_eq!(report.stats.records_lost, 0);
    assert_eq!(report.stats.bytes_dropped, 0);
    assert_eq!(report.fidelity.detection_accuracy(), 1.0);
}
