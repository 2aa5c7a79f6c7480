//! F3 — telemetry ingest: detection fidelity of the monitoring backend.
//!
//! §6's deployment story has probes "widely diffused all over the water
//! distribution channels" reporting to the network operator, who must spot
//! "any malfunction behavior" *from the reported signal alone*. This
//! experiment runs that service side end to end: a fleet of seed-diverse
//! lines — every third carrying an ADC-stuck fault **and** a noisy UART
//! window — has its framed telemetry captured from the wire, reassembled
//! by [`hotwire_rig::ingest`] per-meter sessions, and condensed into a
//! health census plus alert stream. Because the simulator also knows the
//! ground-truth `HealthMonitor` state of each line, the experiment scores
//! the operator's view against the truth:
//!
//! * **detection fidelity** — the fraction of lines the wire-derived
//!   census classifies (healthy vs not) exactly as the firmware does,
//! * **delivery** — frames decoded vs frames sent through the corrupt
//!   link, and how many records the tick-gap detector inferred lost,
//! * **alerting** — health-transition and tick-gap alerts raised purely
//!   from wire records.

use super::Speed;
use crate::table::Table;
use hotwire_core::config::FlowMeterConfig;
use hotwire_core::CoreError;
use hotwire_rig::exec;
use hotwire_rig::fault::{FaultKind, FaultSchedule};
use hotwire_rig::fleet::{FleetSpec, LineVariation};
use hotwire_rig::ingest::{ingest_fleet, IngestConfig, IngestReport};
use hotwire_rig::{Scenario, Windows};

/// Steady demand each line's jittered schedule derives from, cm/s.
const FLOW_CM_S: f64 = 100.0;
/// Per-line flow-demand jitter fraction.
const FLOW_JITTER: f64 = 0.05;
/// ADC fault onset, scenario seconds (clears the 3 s health warmup).
const ONSET_S: f64 = 4.0;
/// Active ADC fault window, seconds.
const WINDOW_S: f64 = 1.5;
/// Every `FAULT_STRIDE`-th line carries the fault schedule.
const FAULT_STRIDE: usize = 3;
/// Per-byte bit-flip probability during the UART corruption window.
const FLIP_PER_BYTE: f64 = 0.02;
/// Per-byte drop probability during the UART corruption window.
const DROP_PER_BYTE: f64 = 0.02;

/// F3 results: the merged ingest report plus the scale it ran at.
#[derive(Debug)]
pub struct IngestResult {
    /// The merged fleet ingest report.
    pub report: IngestReport,
    /// Scenario seconds per line.
    pub duration_s: f64,
}

/// The fleet template at a given scale: every `FAULT_STRIDE`-th line gets
/// an ADC-stuck fault *and* a full-run UART corruption window, so the
/// ingest service must recognize unhealthy lines through a degraded link.
/// Public so `hwbench`'s `ingest_replay` workload and the byte-ledger test
/// (`tests/ingest_ledger.rs`) replay exactly the experiment's population.
pub fn fleet_spec(lines: usize, duration_s: f64) -> FleetSpec {
    FleetSpec::new(
        "f3-ingest",
        FlowMeterConfig::test_profile(),
        Scenario::steady(FLOW_CM_S, duration_s),
        0xF3,
    )
    .with_lines(lines)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(1.0, 2.5).with_err(1.0, f64::INFINITY))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(FLOW_JITTER)
            .with_faults_every(
                FAULT_STRIDE,
                1,
                FaultSchedule::new(0)
                    .with_event(ONSET_S, WINDOW_S, FaultKind::AdcStuck { code: 1200 })
                    .with_event(
                        0.0,
                        duration_s,
                        FaultKind::UartCorruption {
                            flip_per_byte: FLIP_PER_BYTE,
                            drop_per_byte: DROP_PER_BYTE,
                        },
                    ),
            ),
    )
}

/// The fleet scale at each fidelity: `(lines, scenario seconds)`.
pub fn scale(speed: Speed) -> (usize, f64) {
    match speed {
        Speed::Fast => (48, 6.0),
        Speed::Full => (512, 8.0),
    }
}

/// Runs F3 with the process-default job count.
///
/// # Errors
///
/// Returns [`CoreError`] if any line cannot be built or calibrated.
pub fn run(speed: Speed) -> Result<IngestResult, CoreError> {
    run_jobs(speed, exec::default_jobs())
}

/// [`run`] with an explicit job count (`1` = serial) — the determinism
/// tests compare the merged report across job counts.
///
/// # Errors
///
/// Returns [`CoreError`] if any line cannot be built or calibrated.
pub fn run_jobs(speed: Speed, jobs: usize) -> Result<IngestResult, CoreError> {
    let (lines, duration_s) = scale(speed);
    let spec = fleet_spec(lines, duration_s);
    let config = IngestConfig::for_fleet(&spec);
    let report = ingest_fleet(&spec, &config, jobs)?;
    Ok(IngestResult { report, duration_s })
}

impl core::fmt::Display for IngestResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let r = &self.report;
        let s = &r.stats;
        writeln!(
            f,
            "F3 / §6 — telemetry ingest: {} lines × {} s, ADC-stuck + {:.0} %/byte UART noise\n\
             on every {}rd line; operator census derived purely from wire records\n",
            r.lines,
            self.duration_s,
            FLIP_PER_BYTE * 100.0,
            FAULT_STRIDE
        )?;
        let mut t = Table::new(["ingest statistic", "value"]);
        t.row(["frames sent".to_string(), r.frames_sent.to_string()]);
        t.row(["records decoded".to_string(), s.records.records.to_string()]);
        t.row([
            "delivery ratio".to_string(),
            format!("{:.4}", r.delivery_ratio()),
        ]);
        t.row(["crc errors".to_string(), s.link.crc_errors.to_string()]);
        t.row([
            "frames recovered by re-hunt".to_string(),
            s.link.recovered_frames.to_string(),
        ]);
        t.row([
            "records inferred lost".to_string(),
            s.records_lost.to_string(),
        ]);
        t.row([
            "health transitions seen".to_string(),
            s.health_transitions.to_string(),
        ]);
        t.row(["alerts raised".to_string(), s.alerts_raised.to_string()]);
        writeln!(f, "{t}")?;
        let fid = &r.fidelity;
        writeln!(
            f,
            "detection fidelity: {:.4} ({} TP / {} TN / {} FP / {} FN over {} lines, \
             {} silent)",
            fid.detection_accuracy(),
            fid.true_positives,
            fid.true_negatives,
            fid.false_positives,
            fid.false_negatives,
            fid.lines,
            r.lines_silent
        )?;
        writeln!(
            f,
            "census (wire vs truth): healthy {}/{}, degraded {}/{}, faulted {}/{}, recovering {}/{}",
            r.census.counts[0],
            r.truth.counts[0],
            r.census.counts[1],
            r.truth.counts[1],
            r.census.counts[2],
            r.truth.counts[2],
            r.census.counts[3],
            r.truth.counts[3]
        )?;
        writeln!(
            f,
            "\npaper: §6 claims malfunctions can be \"immediately localized and isolated\" by the\n\
             operator — this scores how well that works when the only evidence is the wire"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ingest_fidelity_sane() {
        let r = run(Speed::Fast).unwrap();
        let (lines, _) = scale(Speed::Fast);
        let rep = &r.report;
        assert_eq!(rep.lines, lines);
        assert_eq!(rep.fidelity.lines, lines as u64);

        // Telemetry flowed on every line and mostly survived the link.
        assert!(rep.frames_sent > 0);
        assert!(rep.stats.records.records > 0);
        assert_eq!(rep.lines_silent, 0, "every line must deliver some records");
        assert!(
            rep.delivery_ratio() > 0.8,
            "delivery ratio {:.3}",
            rep.delivery_ratio()
        );

        // The corrupt link actually bit, and the re-hunt recovered frames
        // that a discard-on-mismatch decoder would have swallowed.
        assert!(rep.stats.link.crc_errors > 0);

        // The faulted lines go non-healthy in truth, and the wire census
        // sees enough of it: fidelity well above a coin flip.
        assert!(rep.truth.counts[1] + rep.truth.counts[2] + rep.truth.counts[3] > 0);
        assert!(
            rep.fidelity.detection_accuracy() > 0.9,
            "detection accuracy {:.3}",
            rep.fidelity.detection_accuracy()
        );
        assert!(rep.stats.health_transitions > 0);
        assert!(rep.stats.alerts_raised > 0);
    }
}
