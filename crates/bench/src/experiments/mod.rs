//! One module per reproduced table/figure. See `DESIGN.md` §4.

pub mod a01_pi_gains;
pub mod a02_decimation;
pub mod a03_probe_position;
pub mod e01_staircase;
pub mod e02_resolution;
pub mod e03_repeatability;
pub mod e04_direction;
pub mod e05_bubbles;
pub mod e06_fouling;
pub mod e07_pressure;
pub mod e08_comparison;
pub mod e09_kings_law;
pub mod e10_filter;
pub mod e11_power;
pub mod e12_modes;
pub mod f1_faults;
pub mod f2_fleet;
pub mod f3_ingest;
pub mod f4_maintenance;
pub mod m1_modality;

use hotwire_core::config::FlowMeterConfig;
use hotwire_core::{CoreError, FlowMeter};
use hotwire_physics::MafParams;
use hotwire_rig::campaign::{self, Calibration, FieldCalibration};
use hotwire_rig::exec;

/// Experiment fidelity: `Full` reproduces the paper's silicon rates and
/// dwell times; `Fast` runs the same code at the reduced test profile for
/// CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Speed {
    /// Reduced rates/durations (CI).
    Fast,
    /// Paper-fidelity rates/durations.
    Full,
}

impl Speed {
    /// The firmware configuration for this fidelity.
    pub fn config(self) -> FlowMeterConfig {
        match self {
            Speed::Fast => FlowMeterConfig::test_profile(),
            Speed::Full => FlowMeterConfig::water_station(),
        }
    }

    /// Scales a full-fidelity duration down for fast runs.
    pub fn seconds(self, full: f64) -> f64 {
        match self {
            Speed::Fast => (full / 8.0).max(0.5),
            Speed::Full => full,
        }
    }
}

/// The field-calibration recipe every experiment shares: the paper's
/// setpoint grid at this fidelity's settle/average windows, with the
/// conventional `seed ^ 0xCAFE` calibration-line seed.
pub fn calibration_recipe(speed: Speed, seed: u64) -> FieldCalibration {
    FieldCalibration::paper(speed.seconds(1.5), speed.seconds(0.5), seed ^ 0xCAFE)
}

/// [`calibration_recipe`] with the settle/average windows stretched by
/// `scale` (clamped to ≥ 1) — for specs whose closed loop is slower than
/// the fidelity baseline (heavier decimation, lower PI gains). The windows
/// are wall-clock seconds, so without stretching, a loop running at 1/8 the
/// baseline control rate would settle and average over 1/8 as many control
/// samples, and the King-law fit degrades into seed-sensitive garbage; a
/// field engineer would likewise wait longer per setpoint on a slower
/// meter. Scaling keeps the control-sample count per calibration point
/// invariant across the swept design space.
pub fn calibration_recipe_scaled(speed: Speed, seed: u64, scale: f64) -> FieldCalibration {
    let scale = scale.max(1.0);
    let mut recipe = calibration_recipe(speed, seed);
    recipe.settle_s *= scale;
    recipe.average_s *= scale;
    recipe
}

/// Runs the field-calibration procedure once (setpoints in parallel, up to
/// the process default job count) and packages the result as a reusable
/// [`Calibration::Points`] — the cheap path when several [`RunSpec`]s share
/// one meter build.
///
/// [`RunSpec`]: hotwire_rig::RunSpec
///
/// # Errors
///
/// Returns [`CoreError`] if the meter cannot be built or a setpoint fails.
pub fn shared_calibration(
    config: FlowMeterConfig,
    params: MafParams,
    speed: Speed,
    seed: u64,
) -> Result<Calibration, CoreError> {
    shared_calibration_with(config, params, seed, calibration_recipe(speed, seed))
}

/// [`shared_calibration`] with an explicit recipe (custom setpoint grids,
/// e.g. the King's-law study).
///
/// # Errors
///
/// Returns [`CoreError`] if the meter cannot be built or a setpoint fails.
pub fn shared_calibration_with(
    config: FlowMeterConfig,
    params: MafParams,
    meter_seed: u64,
    recipe: FieldCalibration,
) -> Result<Calibration, CoreError> {
    let prototype = FlowMeter::new(config, params, meter_seed)?;
    let (points, estimate) =
        campaign::collect_calibration_points(&prototype, &recipe, exec::default_jobs())?;
    Ok(Calibration::Points {
        points,
        fluid_estimate: Some(estimate),
    })
}

/// Builds a field-calibrated meter from explicit configuration and die
/// parameters. The calibration setpoints run as a (parallel) campaign; the
/// result is identical to the historical serial procedure on replicas.
///
/// # Errors
///
/// Returns [`CoreError`] if the meter cannot be built or calibrated.
pub fn calibrated_meter_with(
    config: FlowMeterConfig,
    params: MafParams,
    speed: Speed,
    seed: u64,
) -> Result<FlowMeter, CoreError> {
    let calibration = shared_calibration(config, params, speed, seed)?;
    campaign::build_meter(config, params, seed, &calibration)
}
