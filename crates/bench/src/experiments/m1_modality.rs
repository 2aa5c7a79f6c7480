//! M1 — sensing-modality head-to-head: CTA hot wire vs heat-pulse
//! time-of-flight.
//!
//! The paper's meter is a constant-temperature hot wire; the waterxchange
//! class of ultrasonic/thermal utility meters instead fires a discrete
//! heat pulse and times its arrival at downstream thermistors. Both
//! modalities now run behind the same [`Meter`] trait, so this experiment
//! puts them head-to-head on the three axes a deployment cares about:
//!
//! * **resolution** — settled ±σ across a healthy steady-flow fleet
//!   (population percentiles, % FS), exactly F2's definition;
//! * **power** — the trait's time-averaged [`Meter::power_draw`]: the CTA
//!   wire dissipates continuously, the heat-pulse heater fires ~2.5 % of
//!   the time;
//! * **fouling robustness** — the decode shift a uniform CaCO₃ step
//!   deposit induces, as a percentage of the clean reading. The CTA
//!   conflates the deposit's thermal barrier with a velocity change
//!   (gain error); time-of-flight only loses pulse *amplitude* while the
//!   peak timing — the measurand — barely moves.
//!
//! Both modalities run factory calibration (each reports probe-local
//! velocity), the same fleet template, the same seeds: every difference
//! in the table is the sensing physics, not the harness.
//!
//! [`Meter`]: hotwire_core::Meter
//! [`Meter::power_draw`]: hotwire_core::Meter::power_draw

use super::Speed;
use crate::table::Table;
use hotwire_core::config::FlowMeterConfig;
use hotwire_core::Meter;
use hotwire_rig::fault::{FaultKind, FaultSchedule};
use hotwire_rig::fleet::{FleetSpec, LineVariation};
use hotwire_rig::{LineConfig, Modality, RunSpec, Scenario, Windows};

/// Steady demand for every fleet, cm/s.
const FLOW_CM_S: f64 = 100.0;
/// Per-line flow-demand jitter fraction.
const FLOW_JITTER: f64 = 0.03;
/// Uniform step deposit for the fouling fleets, µm of CaCO₃.
const FOULING_UM: f64 = 10.0;
/// Deposit onset, scenario seconds (before the settled window opens, so
/// the window measures the fouled steady state).
const FOULING_ONSET_S: f64 = 1.0;

/// One modality's numbers on the three axes.
#[derive(Debug, Clone)]
pub struct ModalityCase {
    /// Which modality the fleets ran.
    pub modality: Modality,
    /// Median line resolution (settled ±σ), % FS, healthy fleet.
    pub resolution_p50_pct_fs: f64,
    /// p99 line resolution, % FS, healthy fleet.
    pub resolution_p99_pct_fs: f64,
    /// Time-averaged probe power draw, mW.
    pub power_mw: f64,
    /// Median settled reading of the clean fleet, cm/s.
    pub clean_median_cm_s: f64,
    /// `100 · |fouled − clean| / clean` — the fouling-induced decode
    /// shift, % of the clean reading.
    pub fouling_shift_pct: f64,
    /// Lines in the fouled fleet whose health supervisor left `Healthy`
    /// at any point (the firmware noticed *something*, whether or not its
    /// decode moved).
    pub fouled_lines_degraded: usize,
}

/// M1 results: one case per modality, plus the shared scale.
#[derive(Debug, Clone)]
pub struct ModalityResult {
    /// CTA first, heat-pulse second.
    pub cases: Vec<ModalityCase>,
    /// Lines per fleet.
    pub lines: usize,
    /// Scenario seconds per line.
    pub duration_s: f64,
}

impl ModalityResult {
    /// The case for `modality`. Panics if it was not run.
    pub fn case(&self, modality: Modality) -> &ModalityCase {
        self.cases
            .iter()
            .find(|c| c.modality == modality)
            .expect("modality was run")
    }
}

/// The fleet scale at each fidelity: `(lines, scenario seconds)`.
pub fn scale(speed: Speed) -> (usize, f64) {
    match speed {
        Speed::Fast => (12, 6.0),
        Speed::Full => (100, 8.0),
    }
}

/// The steady-flow fleet template for `modality` (clean unless a fault
/// template is added). Public so the bit-identity gates in CI can pin
/// exactly the experiment's population.
pub fn fleet_spec(modality: Modality, lines: usize, duration_s: f64) -> FleetSpec {
    FleetSpec::new(
        format!("m1-{}", modality.name()),
        FlowMeterConfig::test_profile(),
        Scenario::steady(FLOW_CM_S, duration_s),
        0x4D31,
    )
    .with_config(LineConfig::new().with_modality(modality))
    .with_lines(lines)
    .with_sample_period(0.05)
    .with_windows(Windows::settled(2.0, 0.0))
    .with_variation(LineVariation::new().with_flow_jitter(FLOW_JITTER))
}

/// The same template with a uniform step deposit on every line.
pub fn fouled_spec(modality: Modality, lines: usize, duration_s: f64) -> FleetSpec {
    let spec = fleet_spec(modality, lines, duration_s);
    let schedule = FaultSchedule::new(0).with_event(
        FOULING_ONSET_S,
        0.0,
        FaultKind::SteppedFouling {
            microns: FOULING_UM,
        },
    );
    spec.with_variation(
        LineVariation::new()
            .with_flow_jitter(FLOW_JITTER)
            .with_faults_every(1, 0, schedule),
    )
}

/// Median over the fleet's per-line settled means (exact path: m1 fleets
/// sit far below the sketch threshold).
fn median_settled(lines: &[hotwire_rig::fleet::LineSummary]) -> f64 {
    let mut means: Vec<f64> = lines.iter().map(|l| l.settled_mean).collect();
    means.sort_by(f64::total_cmp);
    let n = means.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        means[n / 2]
    } else {
        0.5 * (means[n / 2 - 1] + means[n / 2])
    }
}

fn run_modality(modality: Modality, lines: usize, duration_s: f64) -> Result<ModalityCase, String> {
    let fleet_err = |e: hotwire_rig::fleet::FleetError| e.to_string();
    let clean = fleet_spec(modality, lines, duration_s)
        .run()
        .map_err(fleet_err)?;
    let fouled = fouled_spec(modality, lines, duration_s)
        .run()
        .map_err(fleet_err)?;

    // Power: one campaign run per modality, read off the trait.
    let power = RunSpec::new(
        format!("m1-{}-power", modality.name()),
        FlowMeterConfig::test_profile(),
        Scenario::steady(FLOW_CM_S, duration_s.min(4.0)),
        0x4D31,
    )
    .with_config(LineConfig::new().with_modality(modality))
    .without_obs()
    .execute()
    .map_err(|e| e.to_string())?;

    let clean_median = median_settled(&clean.lines);
    let fouled_median = median_settled(&fouled.lines);
    Ok(ModalityCase {
        modality,
        resolution_p50_pct_fs: clean.aggregates.resolution_pct_fs.p50,
        resolution_p99_pct_fs: clean.aggregates.resolution_pct_fs.p99,
        power_mw: power.meter.power_draw().get() * 1e3,
        clean_median_cm_s: clean_median,
        fouling_shift_pct: 100.0 * (fouled_median - clean_median).abs() / clean_median.abs(),
        fouled_lines_degraded: fouled
            .lines
            .iter()
            .filter(|l| l.health.counts[1..].iter().sum::<u64>() > 0)
            .count(),
    })
}

/// Runs M1: both modalities through identical fleet templates.
///
/// # Errors
///
/// Returns a rendered error if any fleet line or power run fails (fleet
/// and campaign failures are both possible, so the error is pre-joined).
pub fn run(speed: Speed) -> Result<ModalityResult, String> {
    let (lines, duration_s) = scale(speed);
    let cases = vec![
        run_modality(Modality::Cta, lines, duration_s)?,
        run_modality(Modality::HeatPulse, lines, duration_s)?,
    ];
    Ok(ModalityResult {
        cases,
        lines,
        duration_s,
    })
}

impl core::fmt::Display for ModalityResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "M1 — sensing modalities head-to-head: {} lines × {} s at {} cm/s,\n\
             fouling fleets carry a uniform {FOULING_UM} µm CaCO₃ step deposit\n",
            self.lines, self.duration_s, FLOW_CM_S
        )?;
        let mut t = Table::new([
            "modality",
            "res p50 [±% FS]",
            "res p99 [±% FS]",
            "power [mW]",
            "fouling shift [%]",
            "degraded",
        ]);
        for c in &self.cases {
            t.row([
                c.modality.name().to_string(),
                format!("{:.3}", c.resolution_p50_pct_fs),
                format!("{:.3}", c.resolution_p99_pct_fs),
                format!("{:.2}", c.power_mw),
                format!("{:.2}", c.fouling_shift_pct),
                format!("{}/{}", c.fouled_lines_degraded, self.lines),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "\nreading: the CTA wire resolves finer (continuous conductance readout) but\n\
             dissipates continuously and folds a deposit's thermal barrier straight into\n\
             its velocity estimate; the heat-pulse probe duty-cycles the heater and keeps\n\
             its decode pinned to pulse *timing*, which a thin deposit barely moves"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_head_to_head_separates_the_modalities() {
        let r = run(Speed::Fast).unwrap();
        let cta = r.case(Modality::Cta);
        let hp = r.case(Modality::HeatPulse);

        // Resolution: the continuous CTA readout resolves finer than the
        // once-per-cycle time-of-flight decode.
        assert!(cta.resolution_p50_pct_fs < hp.resolution_p50_pct_fs);
        assert!(
            hp.resolution_p50_pct_fs < 10.0,
            "heat-pulse resolution {:.2} % FS",
            hp.resolution_p50_pct_fs
        );

        // Power: the duty-cycled heater sits far below the always-on wire.
        assert!(
            hp.power_mw < 0.2 * cta.power_mw,
            "heat-pulse {:.2} mW vs CTA {:.2} mW",
            hp.power_mw,
            cta.power_mw
        );

        // Fouling: the deposit drags the CTA decode while the
        // time-of-flight reading barely moves.
        assert!(
            hp.fouling_shift_pct < cta.fouling_shift_pct,
            "heat-pulse shift {:.2} % vs CTA {:.2} %",
            hp.fouling_shift_pct,
            cta.fouling_shift_pct
        );

        // Both fleets actually read the setpoint (probe-local velocity).
        for c in &r.cases {
            assert!(
                (c.clean_median_cm_s - 122.4).abs() < 25.0,
                "{} clean median {:.1} cm/s",
                c.modality.name(),
                c.clean_median_cm_s
            );
        }
    }
}
