//! Heat-pulse time-of-flight flow meter — the second sensing modality.
//!
//! Where the CTA meter ([`FlowMeter`](crate::FlowMeter)) servoes a wire at
//! constant overheat and reads flow from the bridge power, this instrument
//! works like the waterxchange exchange-flow sensor: it **fires a central
//! heater for a few milliseconds**, then watches an array of four
//! thermistors bracketing the heater for the advected warm plume. The
//! sensor that sees the plume tells the *direction*; the **time-to-peak**
//! of the far sensor on the downwind side gives the *velocity* through the
//! advection–diffusion relation
//!
//! ```text
//! v² t_p² + 2 D t_p − x² = 0   ⇒   v = √(x² − 2 D t_p) / t_p
//! ```
//!
//! (the peak time of a 1-D Gaussian plume released at the origin and
//! observed at distance `x` under effective thermal dispersion `D`).
//!
//! The modality trades very differently from CTA:
//!
//! * **Power** — the heater runs a ~2.5 % duty cycle instead of a
//!   continuously servoed bridge, so average drive power is orders of
//!   magnitude lower.
//! * **Resolution / rate** — one velocity decode per pulse cycle
//!   (hundreds of milliseconds), with time-to-peak quantized by the
//!   control-rate sampling of the thermistors; between decodes the output
//!   holds. CTA's continuous servo resolves far finer and faster.
//! * **Fouling robustness** — scale on the sensor head *attenuates* the
//!   plume signal (thermal insulation) and adds a small diffusive lag,
//!   but barely moves the time-to-peak — whereas CTA reads flow from the
//!   very conductance that fouling corrupts. This is the `m1`
//!   experiment's head-to-head axis.
//!
//! Determinism follows the same contract as the CTA meter (see
//! [`crate::meter`]): all noise comes from a seeded per-meter generator
//! with a fixed draw order (four thermistor draws per control tick, sensor
//! order), and [`state_digest`](HeatPulseMeter::state_digest) folds every
//! mutable word. The meter has no oversampled inner loop, so
//! `ticks_per_frame() == 1` and the frame path is trivially bit-identical
//! to per-tick stepping.

use crate::calibration::{self, recover_mirrored, store_mirrored};
use crate::config::{fnv1a64_words, FlowMeterConfig};
use crate::direction::FlowDirection;
use crate::error::CoreError;
use crate::faults::{AdcFault, FaultFlags};
use crate::flow_meter::Measurement;
use crate::health::{HealthMonitor, HealthState};
use crate::meter::Meter;
use crate::obs::{CalSlot, EventKind, ObsEvent, Observer};
use hotwire_afe::ThermometerDac;
use hotwire_isif::eeprom::CalibrationStore;
use hotwire_physics::SensorEnvironment;
use hotwire_units::{MetersPerSecond, Seconds, ThermalConductance, Watts};
use rand::distributions::StandardNormal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thermistor positions along the pipe axis, metres from the heater
/// (positive = downstream for forward flow): near/far pairs on both sides,
/// the waterxchange 15 mm ring flattened onto the pipe axis.
pub const SENSOR_X_M: [f64; 4] = [0.0075, 0.015, -0.0075, -0.015];

/// Effective thermal dispersion of the plume in the pipe, m²/s. This is
/// Taylor shear dispersion, orders above molecular diffusion: it spreads
/// the plume to a few millimetres by the time it reaches the sensors, so
/// the transit is resolved by several control-rate samples (a
/// molecular-only plume would be ~0.25 mm wide and alias hopelessly at
/// 2 ms sampling).
const D_EFF: f64 = 4.0e-4;

/// Source strength of one fired pulse, K·m (line-source energy per unit
/// area normalized by the fluid heat capacity).
const SOURCE_K_M: f64 = 0.010;

/// Fractional increase of effective dispersion per °C above 15 °C
/// (viscosity falls, shear dispersion grows).
const D_TEMP_SLOPE: f64 = 0.02;

/// Fouling e-fold attenuation thickness, µm: scale insulates the sensor
/// head, shrinking the observed plume amplitude.
const FOULING_ATTEN_UM: f64 = 40.0;

/// Extra diffusive lag through the scale layer, s/µm.
const FOULING_LAG_S_PER_UM: f64 = 2.0e-5;

/// Amplitude knock-down at full bubble blanket (vapor insulates).
const BUBBLE_ATTEN: f64 = 0.85;

/// Bubble-detachment time constant, s (coverage decays exponentially).
const BUBBLE_TAU_S: f64 = 2.0;

/// Regularization of the plume clock, s (avoids the t → 0 singularity in
/// the Green's function during the fire window).
const T_REG_S: f64 = 1.0e-3;

/// Consecutive frozen-code control ticks before the acquisition watchdog
/// fires (mirrors the CTA frozen-code discriminator).
const FROZEN_LIMIT: u32 = 32;

/// EWMA weight per decode for the long-term peak-amplitude baseline the
/// fouling discriminator compares against.
const AMP_EWMA_ALPHA: f64 = 0.02;

/// Fouling flag threshold: flag when the amplitude EWMA falls below this
/// fraction of the first healthy decode's amplitude.
const FOULING_AMP_RATIO: f64 = 0.6;

/// Pulse-cycle timing and front-end parameters, derived from the shared
/// [`FlowMeterConfig`] (control rate, full scale) plus modality constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatPulseConfig {
    /// Scenario seconds per control tick (thermistor sample period).
    pub control_period_s: f64,
    /// Full-scale velocity (shared with the CTA config).
    pub full_scale: MetersPerSecond,
    /// Pre-fire baseline window, s.
    pub baseline_s: f64,
    /// Heater-on window, s.
    pub fire_s: f64,
    /// Plume-monitor window (from fire start), s.
    pub monitor_s: f64,
    /// Idle tail before the next cycle, s.
    pub idle_s: f64,
    /// Heater electrical power while firing, W.
    pub heater_power: Watts,
    /// Thermistor-bias standby power, W.
    pub standby_power: Watts,
    /// Thermistor (encapsulated bead) first-order time constant, s.
    pub sensor_tau_s: f64,
    /// Thermistor front-end gain, ADC codes per kelvin.
    pub gain_codes_per_k: f64,
    /// Thermistor ADC noise, codes RMS.
    pub noise_codes_rms: f64,
    /// Down-vs-up peak asymmetry below which direction is indeterminate,
    /// codes.
    pub deadband_codes: f64,
    /// Minimum peak rise over baseline for a valid decode, codes.
    pub valid_threshold_codes: f64,
}

impl HeatPulseConfig {
    /// Derives the modality configuration from the shared firmware config:
    /// the thermistors sample at the CTA control rate, full scale is
    /// shared, and the cycle timing uses the waterxchange-style windows.
    pub fn from_flow_config(config: &FlowMeterConfig) -> Self {
        HeatPulseConfig {
            control_period_s: config.control_period().get(),
            full_scale: config.full_scale,
            baseline_s: 0.02,
            fire_s: 0.01,
            monitor_s: 0.35,
            idle_s: 0.02,
            heater_power: Watts::new(0.080),
            standby_power: Watts::new(2.0e-4),
            sensor_tau_s: 0.005,
            gain_codes_per_k: 2000.0,
            noise_codes_rms: 3.0,
            deadband_codes: 10.0,
            valid_threshold_codes: 12.0,
        }
    }

    fn ticks(&self, seconds: f64) -> u32 {
        ((seconds / self.control_period_s).round() as u32).max(1)
    }

    /// Whole pulse cycle, s.
    pub fn cycle_s(&self) -> f64 {
        self.baseline_s + self.fire_s + self.monitor_s + self.idle_s
    }
}

/// The time-of-flight calibration record: a decode scale factor, the
/// effective dispersion the inversion assumes, and the sensor spacing.
/// Persisted to calibration storage (primary slot 1, redundant mirror
/// slot 6 — disjoint from the King record's 0/7) with the same CRC +
/// redundant-fallback machinery the CTA calibration uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatPulseCalibration {
    /// Multiplicative decode correction (design model = 1.0).
    pub scale: f64,
    /// Effective dispersion the inversion assumes, m²/s.
    pub diffusivity: f64,
    /// Far-sensor spacing the inversion assumes, m.
    pub spacing_m: f64,
}

impl HeatPulseCalibration {
    /// Primary calibration-storage slot.
    pub const EEPROM_SLOT: usize = 1;
    /// Redundant mirror slot.
    pub const REDUNDANT_SLOT: usize = 6;

    /// The design-model calibration (no field correction).
    pub fn design() -> Self {
        HeatPulseCalibration {
            scale: 1.0,
            diffusivity: D_EFF,
            spacing_m: SENSOR_X_M[1],
        }
    }

    /// Inverts one observed time-to-peak at sensor distance `x_m` into a
    /// velocity magnitude, m/s (the advection–diffusion peak relation with
    /// this record's dispersion, times the field scale).
    pub fn decode(&self, x_m: f64, t_peak_s: f64) -> f64 {
        if t_peak_s <= 0.0 {
            return 0.0;
        }
        let adv = (x_m * x_m - 2.0 * self.diffusivity * t_peak_s).max(0.0);
        self.scale * adv.sqrt() / t_peak_s
    }

    /// Fits the field scale from observed `(true velocity m/s, time-to-peak
    /// s, sensor distance m)` triples: the mean ratio of truth to the
    /// design-model decode.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Calibration`] when no usable point (positive
    /// velocity and a decodable peak) is supplied.
    pub fn fitted(&self, points: &[(f64, f64, f64)]) -> Result<Self, CoreError> {
        let design = HeatPulseCalibration {
            scale: 1.0,
            ..*self
        };
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(v_true, t_peak, x_m) in points {
            let decoded = design.decode(x_m, t_peak);
            if v_true > 0.0 && decoded > 0.0 {
                sum += v_true / decoded;
                n += 1;
            }
        }
        if n == 0 {
            return Err(CoreError::Calibration {
                reason: "heat-pulse fit needs at least one decodable point",
            });
        }
        Ok(HeatPulseCalibration {
            scale: sum / n as f64,
            ..*self
        })
    }

    /// Writes the record to both the primary slot and the redundant mirror.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Platform`] if a slot write fails.
    pub fn store(&self, eeprom: &mut CalibrationStore) -> Result<(), CoreError> {
        store_mirrored(
            eeprom,
            Self::EEPROM_SLOT,
            Self::REDUNDANT_SLOT,
            &[self.scale, self.diffusivity, self.spacing_m],
        )
    }

    /// Reads the record back, degrading to the redundant mirror (and
    /// repairing the primary from it) when the primary is missing, corrupt
    /// or malformed.
    ///
    /// # Errors
    ///
    /// Returns the primary slot's error — [`CoreError::Platform`] for an
    /// empty or corrupt slot, [`CoreError::Calibration`] for a malformed
    /// payload — when the mirror fails too.
    pub fn recover(eeprom: &mut CalibrationStore) -> Result<(Self, CalSlot), CoreError> {
        recover_mirrored(
            eeprom,
            Self::EEPROM_SLOT,
            Self::REDUNDANT_SLOT,
            |values| match *values {
                [scale, diffusivity, spacing_m] => Ok(HeatPulseCalibration {
                    scale,
                    diffusivity,
                    spacing_m,
                }),
                _ => Err(CoreError::Calibration {
                    reason: "heat-pulse calibration record holds three values",
                }),
            },
        )
    }
}

/// Where the meter is inside its pulse cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CyclePhase {
    /// Averaging thermistor baselines, heater off.
    Baseline,
    /// Heater on.
    Fire,
    /// Heater off, watching for the plume.
    Monitor,
    /// Dead time before the next baseline.
    Idle,
}

/// Per-sensor peak tracker: running maximum with its tick and the codes
/// either side (for the parabolic sub-sample refinement).
#[derive(Debug, Clone, Copy, Default)]
struct PeakTrack {
    baseline_sum: f64,
    baseline_n: u32,
    best_code: i32,
    best_tick: u32,
    before_best: i32,
    after_best: Option<i32>,
    prev_code: i32,
}

impl PeakTrack {
    fn baseline(&self) -> f64 {
        if self.baseline_n == 0 {
            0.0
        } else {
            self.baseline_sum / self.baseline_n as f64
        }
    }

    fn reset_window(&mut self) {
        self.best_code = i32::MIN;
        self.best_tick = 0;
        self.before_best = 0;
        self.after_best = None;
        self.prev_code = 0;
    }

    fn push(&mut self, tick: u32, code: i32) {
        if code > self.best_code {
            self.before_best = self.prev_code;
            self.best_code = code;
            self.best_tick = tick;
            self.after_best = None;
        } else if self.after_best.is_none() && tick == self.best_tick + 1 {
            self.after_best = Some(code);
        }
        self.prev_code = code;
    }

    /// Sub-sample peak time via a three-point parabolic fit around the
    /// argmax (ticks); falls back to the raw argmax at window edges.
    fn refined_peak_tick(&self) -> f64 {
        let (b, m) = (self.before_best as f64, self.best_code as f64);
        let Some(a) = self.after_best else {
            return self.best_tick as f64;
        };
        let a = a as f64;
        let denom = b - 2.0 * m + a;
        if denom.abs() < 1e-9 {
            return self.best_tick as f64;
        }
        let delta = 0.5 * (b - a) / denom;
        self.best_tick as f64 + delta.clamp(-0.5, 0.5)
    }
}

/// The heat-pulse time-of-flight meter. See the [module docs](self).
#[derive(Debug)]
pub struct HeatPulseMeter {
    config: HeatPulseConfig,
    calibration: Option<HeatPulseCalibration>,
    eeprom: CalibrationStore,
    rng: StdRng,
    build_seed: u64,

    // Cycle timing (control ticks).
    baseline_ticks: u32,
    fire_ticks: u32,
    monitor_ticks: u32,
    idle_ticks: u32,
    cycle_tick: u32,

    // Plume simulation state.
    plume_live: bool,
    t_since_fire_mid: f64,
    x_adv_m: f64,
    sensor_k: [f64; 4],
    tracks: [PeakTrack; 4],

    // Decoded output, held between cycles.
    last_velocity: MetersPerSecond,
    last_direction: FlowDirection,
    last_peak_code: i32,
    decodes: u64,
    valid_decodes: u64,

    // Degradation state.
    drive_fraction: f64,
    fouling_um: f64,
    bubble_coverage: f64,
    amp_ewma: f64,
    amp_reference: f64,

    // Supervision.
    health: HealthMonitor,
    fault_latch: FaultFlags,
    adc_fault: Option<AdcFault>,
    frozen_streak: u32,
    last_codes: [i32; 4],

    control_tick: u64,
    /// Control tick at which the active calibration was installed or last
    /// refit (the zero point of `calibration_age`).
    cal_tick: u64,
    observer: Option<Box<dyn Observer>>,
}

impl HeatPulseMeter {
    /// Builds a meter from the shared firmware configuration, writing the
    /// design calibration to both storage slots (factory state).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration or a storage
    /// write failure.
    pub fn new(config: FlowMeterConfig, seed: u64) -> Result<Self, CoreError> {
        config.validate()?;
        let hp = HeatPulseConfig::from_flow_config(&config);
        let mut eeprom = CalibrationStore::new();
        let factory = HeatPulseCalibration::design();
        factory.store(&mut eeprom)?;
        let control_rate = 1.0 / hp.control_period_s;
        Ok(HeatPulseMeter {
            baseline_ticks: hp.ticks(hp.baseline_s),
            fire_ticks: hp.ticks(hp.fire_s),
            monitor_ticks: hp.ticks(hp.monitor_s),
            idle_ticks: hp.ticks(hp.idle_s),
            cycle_tick: 0,
            plume_live: false,
            t_since_fire_mid: 0.0,
            x_adv_m: 0.0,
            sensor_k: [0.0; 4],
            tracks: [PeakTrack::default(); 4],
            last_velocity: MetersPerSecond::ZERO,
            last_direction: FlowDirection::Indeterminate,
            last_peak_code: 0,
            decodes: 0,
            valid_decodes: 0,
            drive_fraction: 1.0,
            fouling_um: 0.0,
            bubble_coverage: 0.0,
            amp_ewma: 0.0,
            amp_reference: 0.0,
            // Same supervisor tuning as the CTA meter: escalate after 5 s
            // of continuous fault, 0.5 s of quiet per recovery stage.
            health: HealthMonitor::new((5.0 * control_rate) as u64, (0.5 * control_rate) as u64),
            fault_latch: FaultFlags::default(),
            adc_fault: None,
            frozen_streak: 0,
            last_codes: [i32::MIN; 4],
            control_tick: 0,
            cal_tick: 0,
            observer: None,
            rng: StdRng::seed_from_u64(seed ^ 0x4850_4D31),
            build_seed: seed,
            calibration: Some(factory),
            eeprom,
            config: hp,
        })
    }

    /// The modality configuration.
    pub fn config(&self) -> &HeatPulseConfig {
        &self.config
    }

    /// The active calibration record (`None` only after an unrecoverable
    /// reload failure).
    pub fn calibration(&self) -> Option<&HeatPulseCalibration> {
        self.calibration.as_ref()
    }

    /// The seed this meter was built with.
    pub fn build_seed(&self) -> u64 {
        self.build_seed
    }

    /// Direct access to the calibration storage (tests, fault hooks).
    pub fn eeprom_mut(&mut self) -> &mut CalibrationStore {
        &mut self.eeprom
    }

    /// Ticks in one full cycle.
    fn cycle_ticks(&self) -> u32 {
        self.baseline_ticks + self.fire_ticks + self.monitor_ticks + self.idle_ticks
    }

    fn phase(&self) -> CyclePhase {
        let t = self.cycle_tick;
        if t < self.baseline_ticks {
            CyclePhase::Baseline
        } else if t < self.baseline_ticks + self.fire_ticks {
            CyclePhase::Fire
        } else if t < self.baseline_ticks + self.fire_ticks + self.monitor_ticks {
            CyclePhase::Monitor
        } else {
            CyclePhase::Idle
        }
    }

    /// The expected thermistor overtemperature at sensor `i`, kelvin, for
    /// the current plume state (1-D Green's function of an impulse
    /// released at the fire midpoint, attenuated by degradation).
    fn plume_k(&self, i: usize, diffusivity: f64) -> f64 {
        if !self.plume_live {
            return 0.0;
        }
        // The impulse releases at the fire midpoint; before that (and for
        // lag-shifted sample times) there is no plume yet.
        let t = self.t_since_fire_mid + T_REG_S;
        if t <= 0.0 {
            return 0.0;
        }
        let spread = 4.0 * diffusivity * t;
        let dx = SENSOR_X_M[i] - self.x_adv_m;
        let gauss = (-dx * dx / spread).exp();
        let atten = (-self.fouling_um / FOULING_ATTEN_UM).exp()
            * (1.0 - BUBBLE_ATTEN * self.bubble_coverage)
            * self.drive_fraction
            * self.drive_fraction;
        SOURCE_K_M / (core::f64::consts::PI * spread).sqrt() * gauss * atten
    }

    /// Decodes direction and velocity from the tracked peaks at the end of
    /// a monitor window.
    fn decode_cycle(&mut self) {
        self.decodes += 1;
        let dt = self.config.control_period_s;
        let fire_start_tick = self.baseline_ticks;
        // Peak rises over baseline, codes.
        let rises: Vec<f64> = (0..4)
            .map(|i| {
                let t = &self.tracks[i];
                if t.best_code == i32::MIN {
                    0.0
                } else {
                    t.best_code as f64 - t.baseline()
                }
            })
            .collect();
        let down = rises[0] + rises[1];
        let up = rises[2] + rises[3];
        let best_rise = rises.iter().cloned().fold(0.0f64, f64::max);

        if best_rise < self.config.valid_threshold_codes {
            // No plume seen inside the window: stagnant (or the signal is
            // buried — degradation the supervisor already tracks). Report
            // still water rather than holding a stale reading forever.
            self.last_velocity = MetersPerSecond::ZERO;
            self.last_direction = FlowDirection::Indeterminate;
            self.last_peak_code = best_rise as i32;
            return;
        }
        self.valid_decodes += 1;
        self.last_peak_code = best_rise as i32;
        // Long-term amplitude baseline for the fouling discriminator.
        if self.amp_reference == 0.0 {
            self.amp_reference = best_rise;
            self.amp_ewma = best_rise;
        } else {
            self.amp_ewma += AMP_EWMA_ALPHA * (best_rise - self.amp_ewma);
        }

        // Direction needs the plume clearly on one side: a relative
        // asymmetry (stagnant water spreads symmetrically, so both sides
        // see comparable rises) on top of an absolute noise floor.
        let asymmetry = (down - up) / (down + up).max(1.0);
        let (dir, side) =
            if (down - up).abs() < self.config.deadband_codes || asymmetry.abs() < 0.25 {
                (FlowDirection::Indeterminate, None)
            } else if down > up {
                (FlowDirection::Forward, Some((0usize, 1usize)))
            } else {
                (FlowDirection::Reverse, Some((2usize, 3usize)))
            };
        self.last_direction = dir;
        let Some((near, far)) = side else {
            self.last_velocity = MetersPerSecond::ZERO;
            return;
        };

        // Prefer the far sensor (better ToF leverage); fall back to the
        // near one when the plume has not reached the far sensor inside
        // the window (its running max sat at the final tick, still rising).
        let window_end = self.baseline_ticks + self.fire_ticks + self.monitor_ticks - 1;
        let pick = |idx: usize| -> Option<(usize, f64)> {
            let t = &self.tracks[idx];
            let usable = t.best_code != i32::MIN
                && (t.best_code as f64 - t.baseline()) >= self.config.valid_threshold_codes
                && t.best_tick < window_end;
            usable.then(|| (idx, t.refined_peak_tick()))
        };
        let Some((idx, peak_tick)) = pick(far).or_else(|| pick(near)) else {
            // Plume detected (direction is known) but no settled peak:
            // below the modality's velocity floor.
            self.last_velocity = MetersPerSecond::ZERO;
            return;
        };
        // Time from the source release (fire midpoint) to the peak. The
        // residual thermistor-bead delay (sub-millisecond at design flows,
        // growing toward τ_s at low velocity) is left in: it is exactly
        // the kind of front-end systematic the field-scale calibration
        // absorbs.
        let fire_mid_tick = fire_start_tick as f64 + self.fire_ticks as f64 / 2.0;
        let t_peak = ((peak_tick - fire_mid_tick) * dt).max(dt * 0.5);
        let cal = self
            .calibration
            .unwrap_or_else(HeatPulseCalibration::design);
        let speed = cal
            .decode(SENSOR_X_M[idx].abs(), t_peak)
            .min(self.config.full_scale.get() * 1.2);
        let signed = match dir {
            FlowDirection::Forward => speed,
            FlowDirection::Reverse => -speed,
            FlowDirection::Indeterminate => 0.0,
        };
        self.last_velocity = MetersPerSecond::new(signed);
    }

    /// One control tick: advance the cycle state machine, sample the
    /// thermistors, update supervision, and emit the held measurement.
    fn control_step(&mut self, env: SensorEnvironment) -> Measurement {
        let dt = self.config.control_period_s;
        let phase = self.phase();

        // Cycle transitions happen on entry ticks.
        if self.cycle_tick == self.baseline_ticks {
            // Fire begins: release the plume clock at the fire midpoint.
            self.plume_live = true;
            self.t_since_fire_mid = -self.config.fire_s / 2.0;
            self.x_adv_m = 0.0;
            for t in &mut self.tracks {
                t.reset_window();
            }
        }

        // Physics: plume advects with the (signed) probe velocity; the
        // dispersion grows slightly with water temperature.
        let diffusivity =
            D_EFF * (1.0 + D_TEMP_SLOPE * (env.fluid_temperature.get() - 15.0)).max(0.25);
        if self.plume_live {
            self.t_since_fire_mid += dt;
            if self.t_since_fire_mid > 0.0 {
                // Partial step on the tick where the clock crosses zero,
                // so x_adv tracks v·t exactly under constant flow.
                self.x_adv_m += env.velocity.get() * dt.min(self.t_since_fire_mid);
            }
        }
        // Bubble blankets detach on their own.
        self.bubble_coverage *= (-dt / BUBBLE_TAU_S).exp();
        if self.bubble_coverage < 1e-6 {
            self.bubble_coverage = 0.0;
        }

        // Thermistor front end: first-order bead lag onto the plume model,
        // then gain, noise and quantization — four seeded noise draws per
        // control tick, sensor order, every tick (constant draw rate).
        let lag = dt / self.config.sensor_tau_s;
        let fouling_lag = self.fouling_um * FOULING_LAG_S_PER_UM;
        let mut codes = [0i32; 4];
        for (i, code) in codes.iter_mut().enumerate() {
            // The scale layer delays the plume by a diffusive lag: sample
            // the Green's function slightly in the past.
            let target = if fouling_lag > 0.0 && self.plume_live {
                let held_t = self.t_since_fire_mid;
                self.t_since_fire_mid = (held_t - fouling_lag).max(-self.config.fire_s / 2.0);
                let k = self.plume_k(i, diffusivity);
                self.t_since_fire_mid = held_t;
                k
            } else {
                self.plume_k(i, diffusivity)
            };
            self.sensor_k[i] += lag * (target - self.sensor_k[i]);
            let noise = self.rng.sample::<f64, _>(StandardNormal) * self.config.noise_codes_rms;
            let dc = 500.0 + 20.0 * (env.fluid_temperature.get() - 15.0);
            let raw = (dc + self.config.gain_codes_per_k * self.sensor_k[i] + noise)
                .clamp(i16::MIN as f64, i16::MAX as f64) as i32;
            *code = match self.adc_fault {
                Some(AdcFault::Stuck(code)) => code,
                Some(AdcFault::Offset(off)) => raw.saturating_add(off),
                None => raw,
            };
        }

        // Acquisition watchdog: all four channels frozen for a sustained
        // streak means a dead converter (noise makes natural freezes
        // vanishingly rare).
        let frozen = codes == self.last_codes;
        self.last_codes = codes;
        self.frozen_streak = if frozen { self.frozen_streak + 1 } else { 0 };
        let watchdog_expired = self.frozen_streak >= FROZEN_LIMIT;
        if watchdog_expired {
            self.frozen_streak = 0;
            self.observe(EventKind::WatchdogExpired);
        }

        // Peak tracking and baseline accumulation.
        match phase {
            CyclePhase::Baseline => {
                for (i, track) in self.tracks.iter_mut().enumerate() {
                    track.baseline_sum += codes[i] as f64;
                    track.baseline_n += 1;
                }
            }
            CyclePhase::Fire | CyclePhase::Monitor => {
                for (i, track) in self.tracks.iter_mut().enumerate() {
                    track.push(self.cycle_tick, codes[i]);
                }
            }
            CyclePhase::Idle => {}
        }

        // End of the monitor window: decode.
        if self.cycle_tick + 1 == self.baseline_ticks + self.fire_ticks + self.monitor_ticks {
            self.decode_cycle();
            self.plume_live = false;
        }

        // Degradation flags feed the shared graceful-degradation
        // supervisor exactly as the CTA discriminators do.
        self.fault_latch = FaultFlags {
            bubble_activity: self.bubble_coverage > 0.02,
            fouling_suspected: self.amp_reference > 0.0
                && self.amp_ewma < FOULING_AMP_RATIO * self.amp_reference,
            loop_saturated: false,
        };
        self.health.update(self.fault_latch, watchdog_expired);
        if let Some((from, to)) = self.health.take_transition() {
            self.observe(EventKind::HealthTransition { from, to });
        }

        let firing = phase == CyclePhase::Fire;
        let drive_power =
            self.config.heater_power.get() * self.drive_fraction * self.drive_fraction;
        let measurement = Measurement {
            velocity: self.last_velocity,
            speed: MetersPerSecond::new(self.last_velocity.get().abs()),
            direction: self.last_direction,
            supply_code: if firing {
                (4095.0 * self.drive_fraction) as u32
            } else {
                0
            },
            conditioned_code: self.last_peak_code,
            conductance: ThermalConductance::ZERO,
            wire_power: if firing {
                Watts::new(drive_power)
            } else {
                self.config.standby_power
            },
            faults: self.fault_latch,
            health: self.health.state(),
            tick: self.control_tick,
        };

        self.control_tick += 1;
        self.cycle_tick += 1;
        if self.cycle_tick == self.cycle_ticks() {
            self.cycle_tick = 0;
            for t in &mut self.tracks {
                *t = PeakTrack::default();
            }
        }
        measurement
    }
}

impl Meter for HeatPulseMeter {
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        Some(self.control_step(env))
    }

    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        // No oversampled inner loop: one frame is one control tick.
        self.control_step(env)
    }

    fn frame_phase(&self) -> u32 {
        0
    }

    fn ticks_per_frame(&self) -> u32 {
        1
    }

    fn control_period(&self) -> Seconds {
        Seconds::new(self.config.control_period_s)
    }

    fn full_scale(&self) -> MetersPerSecond {
        self.config.full_scale
    }

    fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Duty-cycle-averaged drive power plus the thermistor bias — the
    /// modality's headline advantage over the continuously servoed bridge.
    fn power_draw(&self) -> Watts {
        let cycle = self.config.cycle_s();
        let fire = self.config.fire_s;
        let drive = self.config.heater_power.get() * self.drive_fraction * self.drive_fraction;
        Watts::new((drive * fire + self.config.standby_power.get() * (cycle - fire)) / cycle)
    }

    fn state_digest(&self) -> u64 {
        let rng = self.rng.state();
        let cal = self.calibration.unwrap_or(HeatPulseCalibration {
            scale: 0.0,
            diffusivity: 0.0,
            spacing_m: 0.0,
        });
        let mut words: Vec<u64> = vec![
            self.control_tick,
            self.cycle_tick as u64,
            rng[0],
            rng[1],
            rng[2],
            rng[3],
            u64::from(self.plume_live),
            self.t_since_fire_mid.to_bits(),
            self.x_adv_m.to_bits(),
            self.last_velocity.get().to_bits(),
            self.last_direction.signum() as i64 as u64,
            self.last_peak_code as i64 as u64,
            self.decodes,
            self.valid_decodes,
            self.drive_fraction.to_bits(),
            self.fouling_um.to_bits(),
            self.bubble_coverage.to_bits(),
            self.amp_ewma.to_bits(),
            self.amp_reference.to_bits(),
            self.health.state() as u64,
            u64::from(self.fault_latch.bubble_activity)
                | u64::from(self.fault_latch.fouling_suspected) << 1
                | u64::from(self.fault_latch.loop_saturated) << 2,
            self.frozen_streak as u64,
            cal.scale.to_bits(),
            cal.diffusivity.to_bits(),
            cal.spacing_m.to_bits(),
        ];
        words.push(self.cal_tick);
        for i in 0..4 {
            words.push(self.sensor_k[i].to_bits());
            words.push(self.last_codes[i] as i64 as u64);
        }
        fnv1a64_words(&words)
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    fn observe(&mut self, kind: EventKind) {
        if let Some(observer) = self.observer.as_mut() {
            observer.record(ObsEvent {
                tick: self.control_tick,
                kind,
            });
        }
    }

    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        let recovered = HeatPulseCalibration::recover(&mut self.eeprom);
        let (outcome, events) = calibration::reload(recovered, &mut self.health);
        for kind in events.into_iter().flatten() {
            self.observe(kind);
        }
        self.calibration = Some(outcome?);
        Ok(())
    }

    /// Accepts the current amplitude EWMA as the new fouling reference.
    /// Exact state no-op when the drift estimate is already zero (either
    /// no decode has anchored the reference yet, or the EWMA sits exactly
    /// on it).
    fn re_zero(&mut self) {
        if self.amp_reference > 0.0 {
            self.amp_reference = self.amp_ewma;
        }
    }

    /// Compensates the fouling-induced peak lag inferred from the
    /// amplitude droop: scale insulates the sensor head (amplitude falls
    /// as `exp(-f/F)`) *and* delays the peak by a diffusive lag
    /// (`FOULING_LAG_S_PER_UM` per µm), which under-reads velocity. The
    /// refit inverts the attenuation model to estimate the layer
    /// thickness, folds the lag bias at the characteristic transit time
    /// into the calibration scale, and re-anchors the amplitude
    /// reference.
    fn refit_from_recent(&mut self) -> bool {
        let d = Meter::drift_estimate(self);
        if d == 0.0 {
            return false;
        }
        let Some(cal) = self.calibration.as_mut() else {
            return false;
        };
        // Inferred scale thickness (negative when the signal *grew* —
        // cleaning, supply restored — which walks the correction back).
        let fouling_um = -FOULING_ATTEN_UM * (1.0 + d).max(0.05).ln();
        // Characteristic transit: far spacing at half full scale.
        let t_char = cal.spacing_m / (0.5 * self.config.full_scale.get());
        let bias = (FOULING_LAG_S_PER_UM * fouling_um / t_char).clamp(-0.5, 0.5);
        cal.scale *= 1.0 + bias;
        self.amp_reference = self.amp_ewma;
        self.cal_tick = self.control_tick;
        true
    }

    fn persist(&mut self) -> Result<(), CoreError> {
        let cal = self.calibration.ok_or(CoreError::Calibration {
            reason: "no calibration installed to persist",
        })?;
        cal.store(&mut self.eeprom)
    }

    fn calibration_age(&self) -> u64 {
        self.control_tick.saturating_sub(self.cal_tick)
    }

    /// Relative droop of the received plume amplitude against its anchored
    /// reference (negative = signal loss, the §4 fouling signature seen
    /// through this modality).
    fn drift_estimate(&self) -> f64 {
        if self.amp_reference > 0.0 {
            (self.amp_ewma - self.amp_reference) / self.amp_reference
        } else {
            0.0
        }
    }

    fn calibration_wear(&self) -> u64 {
        self.eeprom.max_slot_wear()
    }

    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        self.adc_fault = fault;
    }

    /// The heater drive has no thermometer DAC to save: the derate is a
    /// scalar fraction, restored to nominal on revert.
    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        self.drive_fraction = fraction.clamp(0.0, 1.0);
        None
    }

    fn restore_supply(&mut self, _saved: Option<ThermometerDac>) {
        self.drive_fraction = 1.0;
    }

    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        self.eeprom.corrupt(slot, byte);
    }

    fn inject_bubble_burst(&mut self, coverage: f64) {
        self.bubble_coverage = (self.bubble_coverage + coverage).clamp(0.0, 1.0);
    }

    fn deposit_fouling(&mut self, microns: f64) {
        self.fouling_um += microns.max(0.0);
    }

    fn worst_bubble_coverage(&self) -> f64 {
        self.bubble_coverage
    }

    fn worst_fouling_um(&self) -> f64 {
        self.fouling_um
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_units::Celsius;

    fn meter(seed: u64) -> HeatPulseMeter {
        HeatPulseMeter::new(FlowMeterConfig::test_profile(), seed).unwrap()
    }

    fn env(cm_s: f64) -> SensorEnvironment {
        SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(cm_s),
            ..SensorEnvironment::still_water()
        }
    }

    /// Run whole cycles and return the final held measurement.
    fn run_cycles(m: &mut HeatPulseMeter, env: SensorEnvironment, cycles: u32) -> Measurement {
        let ticks = m.cycle_ticks() * cycles;
        let mut last = None;
        for _ in 0..ticks {
            last = Meter::step(m, env);
        }
        last.unwrap()
    }

    #[test]
    fn decodes_forward_flow_within_tolerance() {
        let mut m = meter(11);
        let out = run_cycles(&mut m, env(100.0), 4);
        assert_eq!(out.direction, FlowDirection::Forward);
        let v = out.velocity.to_cm_per_s();
        assert!(
            (v - 100.0).abs() < 20.0,
            "decoded {v} cm/s for a 100 cm/s flow"
        );
    }

    #[test]
    fn decodes_reverse_flow() {
        let mut m = meter(12);
        let out = run_cycles(&mut m, env(-80.0), 4);
        assert_eq!(out.direction, FlowDirection::Reverse);
        assert!(out.velocity.to_cm_per_s() < -40.0);
    }

    #[test]
    fn still_water_reads_zero() {
        let mut m = meter(13);
        let out = run_cycles(&mut m, env(0.0), 3);
        assert_eq!(out.direction, FlowDirection::Indeterminate);
        assert_eq!(out.velocity.to_cm_per_s(), 0.0);
    }

    #[test]
    fn deterministic_across_replicas() {
        let mut a = meter(42);
        let mut b = meter(42);
        for _ in 0..(a.cycle_ticks() * 3) {
            let ma = Meter::step(&mut a, env(75.0));
            let mb = Meter::step(&mut b, env(75.0));
            assert_eq!(ma, mb);
        }
        assert_eq!(Meter::state_digest(&a), Meter::state_digest(&b));
        // And a different seed diverges.
        let mut c = meter(43);
        run_cycles(&mut c, env(75.0), 3);
        assert_ne!(Meter::state_digest(&a), Meter::state_digest(&c));
    }

    #[test]
    fn step_frame_matches_step() {
        let mut a = meter(7);
        let mut b = meter(7);
        for _ in 0..200 {
            let ma = Meter::step(&mut a, env(50.0)).unwrap();
            let mb = Meter::step_frame(&mut b, env(50.0));
            assert_eq!(ma, mb);
        }
        assert_eq!(Meter::state_digest(&a), Meter::state_digest(&b));
    }

    #[test]
    fn duty_cycled_power_is_orders_below_cta() {
        let m = meter(1);
        let p = Meter::power_draw(&m).get();
        assert!(p < 0.005, "duty-cycled average {p} W");
        // CTA test-profile bridge power is ~tens of mW; this should be
        // well under a tenth of it.
    }

    #[test]
    fn fouling_attenuates_but_barely_shifts_decode() {
        let clean = {
            let mut m = meter(21);
            run_cycles(&mut m, env(100.0), 4).velocity.to_cm_per_s()
        };
        let fouled = {
            let mut m = meter(21);
            Meter::deposit_fouling(&mut m, 15.0);
            run_cycles(&mut m, env(100.0), 4).velocity.to_cm_per_s()
        };
        // 15 µm of scale costs amplitude, not time-of-flight: the decode
        // moves by a few percent at most.
        assert!(
            (clean - fouled).abs() < 0.08 * clean,
            "clean {clean}, fouled {fouled}"
        );
    }

    #[test]
    fn heavy_fouling_buries_the_signal_and_flags() {
        let mut m = meter(22);
        Meter::deposit_fouling(&mut m, 250.0);
        let out = run_cycles(&mut m, env(100.0), 3);
        // e^{-250/40} ≈ 2e-3: the plume is below the validity threshold.
        assert_eq!(out.velocity.to_cm_per_s(), 0.0);
        assert_eq!(Meter::worst_fouling_um(&m), 250.0);
    }

    #[test]
    fn bubble_burst_decays() {
        let mut m = meter(23);
        Meter::inject_bubble_burst(&mut m, 0.5);
        assert!(Meter::worst_bubble_coverage(&m) > 0.4);
        run_cycles(&mut m, env(50.0), 8);
        assert!(
            Meter::worst_bubble_coverage(&m) < 0.2,
            "coverage should detach over ~3 s"
        );
    }

    #[test]
    fn adc_stuck_trips_the_watchdog() {
        let mut m = meter(24);
        #[derive(Debug)]
        struct Count(std::sync::Arc<std::sync::atomic::AtomicU64>);
        impl Observer for Count {
            fn record(&mut self, event: ObsEvent) {
                if matches!(event.kind, EventKind::WatchdogExpired) {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        Meter::set_observer(&mut m, Box::new(Count(hits.clone())));
        Meter::inject_adc_fault(&mut m, Some(AdcFault::Stuck(1200)));
        run_cycles(&mut m, env(100.0), 2);
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) > 0);
        Meter::inject_adc_fault(&mut m, None);
    }

    #[test]
    fn supply_derate_shrinks_plume_and_restores() {
        let mut m = meter(25);
        assert!(Meter::degrade_supply(&mut m, 0.4).is_none());
        let derated = run_cycles(&mut m, env(100.0), 3);
        let p_derated = Meter::power_draw(&m).get();
        Meter::restore_supply(&mut m, None);
        let restored = run_cycles(&mut m, env(100.0), 3);
        assert!(Meter::power_draw(&m).get() > p_derated);
        // Amplitude scales with drive²; the decode survives a 0.4 derate
        // (SNR margin) and both read the true flow.
        assert!(derated.velocity.to_cm_per_s() > 50.0);
        assert!(restored.velocity.to_cm_per_s() > 50.0);
    }

    #[test]
    fn calibration_survives_eeprom_attack_via_redundant_slot() {
        let mut m = meter(26);
        Meter::corrupt_calibration(&mut m, HeatPulseCalibration::EEPROM_SLOT, 2);
        assert!(Meter::reload_calibration(&mut m).is_ok());
        assert!(m.calibration().is_some());
        // Both copies gone: unrecoverable.
        Meter::corrupt_calibration(&mut m, HeatPulseCalibration::EEPROM_SLOT, 2);
        Meter::corrupt_calibration(&mut m, HeatPulseCalibration::REDUNDANT_SLOT, 2);
        assert!(Meter::reload_calibration(&mut m).is_err());
        assert_eq!(Meter::health(&m), HealthState::Faulted);
    }

    #[test]
    fn calibration_fit_and_roundtrip() {
        let design = HeatPulseCalibration::design();
        // Synthesize peaks from the forward model and check the fit
        // recovers a deliberate 7 % scale skew.
        let x = design.spacing_m;
        let points: Vec<(f64, f64, f64)> = [0.5f64, 1.0, 1.5]
            .iter()
            .map(|&v_true| {
                let v_model = v_true / 1.07;
                let d = design.diffusivity;
                let t_p = ((d * d + v_model * v_model * x * x).sqrt() - d) / (v_model * v_model);
                (v_true, t_p, x)
            })
            .collect();
        let fitted = design.fitted(&points).unwrap();
        assert!(
            (fitted.scale - 1.07).abs() < 0.01,
            "fitted scale {}",
            fitted.scale
        );
        let mut eeprom = CalibrationStore::new();
        fitted.store(&mut eeprom).unwrap();
        assert_eq!(
            HeatPulseCalibration::recover(&mut eeprom).unwrap(),
            (fitted, CalSlot::Primary)
        );
        assert!(design.fitted(&[]).is_err());
    }

    #[test]
    fn tracks_a_changing_temperature() {
        // Warm water broadens dispersion; the decode must stay sane.
        let warm = SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(100.0),
            fluid_temperature: Celsius::new(35.0),
            ..SensorEnvironment::still_water()
        };
        let mut m = meter(27);
        let mut last = None;
        for _ in 0..(m.cycle_ticks() * 4) {
            last = Meter::step(&mut m, warm);
        }
        let v = last.unwrap().velocity.to_cm_per_s();
        assert!((v - 100.0).abs() < 25.0, "decoded {v} at 35 °C");
    }
}
