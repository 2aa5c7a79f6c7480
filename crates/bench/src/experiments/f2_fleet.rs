//! F2 — fleet simulation: population statistics over many concurrent lines.
//!
//! §6 of the paper motivates *diffuse* deployment — "a capillary
//! monitoring of the whole water supply system" — which turns the
//! evaluation question from "what does one meter measure?" into "what
//! does the *population* of meters deliver?". This experiment stands up a
//! fleet of seed-diverse lines behind one [`FleetSpec`] template (every
//! line a distinct physical meter on a distinct line, ±5 % flow-demand
//! jitter, a fault schedule striking every 10th line) and reports the
//! population answers:
//!
//! * resolution percentiles (what the p99 meter delivers, not the mean),
//! * line-to-line repeatability (half-spread of settled means, % FS),
//! * the health-state census over fleet simulated time,
//! * per-fault-kind incidence and faulted-line counts.
//!
//! Fleet runs use the reduced test profile at either fidelity — the
//! population questions are about spread across meters, not silicon
//! rates — and differ only in scale: ~100 lines fast, 1000 lines full.
//! Everything streams at `MetricsOnly`, so the fleet's trace heap is
//! zero bytes no matter the line count.

use super::Speed;
use crate::table::Table;
use hotwire_core::config::FlowMeterConfig;
use hotwire_rig::fault::{FaultKind, FaultSchedule};
use hotwire_rig::fleet::{FleetError, FleetOutcome, FleetSpec, LineVariation};
use hotwire_rig::{Scenario, Windows};

/// Steady demand every line's jittered schedule is derived from, cm/s.
const FLOW_CM_S: f64 = 100.0;
/// Per-line flow-demand jitter fraction.
const FLOW_JITTER: f64 = 0.05;
/// Fault onset, scenario seconds (clears the 3 s health warmup).
const ONSET_S: f64 = 4.0;
/// Active fault window, seconds.
const WINDOW_S: f64 = 1.5;
/// Every `FAULT_STRIDE`-th line carries the fault schedule.
const FAULT_STRIDE: usize = 10;

/// F2 results: the fleet outcome plus the scale it ran at.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The full fleet outcome (aggregates + per-line summaries).
    pub outcome: FleetOutcome,
    /// Scenario seconds per line.
    pub duration_s: f64,
}

/// The fleet template at a given scale. Public so the fleet benchmark and
/// determinism tests exercise exactly the experiment's population.
pub fn fleet_spec(lines: usize, duration_s: f64) -> FleetSpec {
    FleetSpec::new(
        "f2-fleet",
        FlowMeterConfig::test_profile(),
        Scenario::steady(FLOW_CM_S, duration_s),
        0xF2,
    )
    .with_lines(lines)
    .with_sample_period(0.05)
    // Resolution windows sit before the fault onset so the percentiles
    // measure the healthy population; the err window spans the fault.
    .with_windows(Windows::settled(1.0, 2.5).with_err(1.0, f64::INFINITY))
    .with_variation(
        LineVariation::new()
            .with_flow_jitter(FLOW_JITTER)
            .with_faults_every(
                FAULT_STRIDE,
                3,
                FaultSchedule::new(0).with_event(
                    ONSET_S,
                    WINDOW_S,
                    FaultKind::AdcStuck { code: 1200 },
                ),
            ),
    )
}

/// The fleet scale at each fidelity: `(lines, scenario seconds)`.
pub fn scale(speed: Speed) -> (usize, f64) {
    match speed {
        Speed::Fast => (96, 6.0),
        Speed::Full => (1000, 8.0),
    }
}

/// Runs F2 with the process-default job count.
///
/// # Errors
///
/// Returns [`FleetError`] if the spec is degenerate or any line cannot be
/// built or calibrated (the error carries the completed prefix).
pub fn run(speed: Speed) -> Result<FleetResult, FleetError> {
    let (lines, duration_s) = scale(speed);
    let outcome = fleet_spec(lines, duration_s).run()?;
    Ok(FleetResult {
        outcome,
        duration_s,
    })
}

impl core::fmt::Display for FleetResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let a = &self.outcome.aggregates;
        writeln!(
            f,
            "F2 / §6 — fleet simulation: {} lines × {} s at ~{} cm/s (±{:.0} % demand jitter,\n\
             ADC-stuck fault on every {}th line at t = {} s)\n",
            a.lines,
            self.duration_s,
            FLOW_CM_S,
            FLOW_JITTER * 100.0,
            FAULT_STRIDE,
            ONSET_S
        )?;
        let mut t = Table::new(["population statistic", "p50", "p90", "p99", "worst"]);
        let r = &a.resolution_pct_fs;
        t.row([
            "resolution [±% FS]".to_string(),
            format!("{:.3}", r.p50),
            format!("{:.3}", r.p90),
            format!("{:.3}", r.p99),
            format!("{:.3}", r.max),
        ]);
        let e = &a.err_rms_cm_s;
        t.row([
            "rms error [cm/s]".to_string(),
            format!("{:.2}", e.p50),
            format!("{:.2}", e.p90),
            format!("{:.2}", e.p99),
            format!("{:.2}", e.max),
        ]);
        writeln!(f, "{t}")?;
        writeln!(f, "{a}")?;
        writeln!(
            f,
            "\npaper: §6's diffuse-deployment pitch asks exactly these population questions —\n\
             the worst meter's resolution, how much fleet time is degraded, what actually fails"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_fleet_population_sane() {
        let r = run(Speed::Fast).unwrap();
        let a = &r.outcome.aggregates;
        let (lines, _) = scale(Speed::Fast);
        assert_eq!(a.lines, lines);

        // MetricsOnly is forced: the whole fleet holds zero trace bytes.
        assert_eq!(r.outcome.aggregates.trace_heap_bytes, 0);

        // Every 10th line carries the schedule, and the stuck ADC actually
        // bites on each of them.
        let expected_faulted = lines.div_ceil(FAULT_STRIDE) as u64;
        assert_eq!(a.fault_incidence.get("adc_stuck"), Some(&expected_faulted));
        assert_eq!(a.lines_faulted, expected_faulted);
        assert!(a.fault_samples > 0);

        // The census covers every streamed sample and the faults push some
        // of the fleet's time out of Healthy.
        assert_eq!(a.health.total(), a.total_samples);
        assert!(
            a.health.counts[1] + a.health.counts[2] + a.health.counts[3] > 0,
            "faulted lines must register non-healthy time"
        );

        // Population spread is real but bounded: percentiles ordered, the
        // p99 meter still resolves within a few % FS.
        let res = &a.resolution_pct_fs;
        assert!(res.p50 <= res.p90 && res.p90 <= res.p99 && res.p99 <= res.max);
        assert!(res.max < 10.0, "worst resolution {:.3} % FS", res.max);
        assert!(
            a.repeatability_pct_fs.is_finite() && a.repeatability_pct_fs > 0.0,
            "repeatability ±{} % FS",
            a.repeatability_pct_fs
        );
    }
}
