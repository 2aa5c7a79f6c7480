//! The assembled instrument: MAF die + ISIF platform + conditioning
//! firmware, co-simulated sample-by-sample.
//!
//! [`Meter::step`] on a [`FlowMeter`] advances exactly one ΣΔ modulator
//! tick:
//!
//! 1. the current supply-DAC voltage drives both Wheatstone bridges;
//! 2. the resulting Joule power heats the die (thermal step); on the
//!    frame's last tick the die's bubble and scale layers then advance
//!    once over the whole frame (surface step);
//! 3. the bridge differentials enter the two input channels
//!    (channel 0: average-vs-reference for the CTA loop, channel 1:
//!    heater-A-vs-heater-B for direction);
//! 4. every `decimation` ticks the channels emit 16-bit codes and the
//!    control tick runs: pulse scheduling, the mode driver (CT/CC/CP),
//!    output conditioning, King inversion, direction and fault detection.
//!
//! The simulation is two-rate: everything in item 4 and the surface step
//! happen once per decimation frame, while the rest of items 1–3 repeat
//! every modulator tick with piecewise-constant analog inputs (the supply
//! code only changes on control ticks). [`FlowMeter::step_frame`] exploits
//! that structure — it batches a whole frame of the modulator-rate inner
//! loop into passes (physics, normals, noise lanes, one kernel over the
//! three channels' chains), bit-identical to `decimation` scalar steps at
//! the default [`AfeTier::Exact`], or through a quasi-static
//! once-per-frame AFE evaluation at the opt-in approximate
//! [`AfeTier::Fast`].
//! Every [`Meter`] method has its one body in the impl at the end of this
//! file, except [`FlowMeter::step_frame`] and [`FlowMeter::state_digest`],
//! which stay inherent for callers that do not import the trait.

use crate::calibration::{self, CalPoint, KingCalibration};
use crate::config::{fnv1a64_words, AfeTier, FlowMeterConfig, OperatingMode, PulsedConfig};
use crate::cta::{ConductanceEstimator, CtaLoop, SUPPLY_CODE_MAX};
use crate::direction::{DirectionDetector, FlowDirection};
use crate::faults::{AdcFault, DriftMonitor, FaultFlags, SaturationMonitor, SpikeMonitor};
use crate::health::{HealthMonitor, HealthState, RecoveryAction};
use crate::meter::Meter;
use crate::modes::{ConstantCurrentDrive, ConstantPowerDrive, WireStateEstimator};
use crate::obs::{EventKind, ObsEvent, Observer};
use crate::output::OutputPipeline;
use crate::pulsed::{PulsePhase, PulsedScheduler};
use crate::CoreError;
use hotwire_afe::bridge::BridgeConfig;
use hotwire_afe::ThermometerDac;
use hotwire_isif::channel::{AnalogInput, ChannelConfig, InputChannel};
use hotwire_isif::IsifPlatform;
use hotwire_physics::kings_law::KingsLaw;
use hotwire_physics::sensor::HeaterId;
use hotwire_physics::{MafDie, MafParams, SensorEnvironment};
use hotwire_units::{Celsius, MetersPerSecond, Ohms, Seconds, ThermalConductance, Volts, Watts};
use rand::distributions::StandardNormal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Index of the CTA control channel on the platform.
pub const CTRL_CHANNEL: usize = 0;
/// Index of the direction channel on the platform.
pub const DIR_CHANNEL: usize = 1;
/// Index of the fluid-temperature channel (the `Rt` arm readout).
pub const TEMP_CHANNEL: usize = 2;

/// Consecutive identical control codes after which the firmware declares
/// the acquisition front end frozen and stops kicking the watchdog. A
/// healthy ΣΔ channel always carries noise — even at zero differential the
/// modulator dithers — so a long identical-code streak cannot occur in
/// normal operation.
pub const FROZEN_CODE_LIMIT: u32 = 8;

/// Drift-monitor baseline time constant in control-tick updates.
const DRIFT_TAU_UPDATES: f64 = 1e6;
/// Drift-monitor relative deviation threshold.
const DRIFT_THRESHOLD: f64 = 0.05;

/// One conditioned measurement, produced at the control rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Signed velocity (direction applied).
    pub velocity: MetersPerSecond,
    /// Velocity magnitude from the King inversion of the conditioned signal.
    pub speed: MetersPerSecond,
    /// Detected flow direction.
    pub direction: FlowDirection,
    /// Raw supply-DAC code commanded this tick.
    pub supply_code: u32,
    /// Despiked + 0.1 Hz-filtered code (supply code in CT mode, bridge code
    /// in CC/CP modes).
    pub conditioned_code: i32,
    /// Wire-to-fluid conductance implied by the conditioned signal.
    pub conductance: ThermalConductance,
    /// Electrical power in one heater.
    pub wire_power: Watts,
    /// Health flags.
    pub faults: FaultFlags,
    /// Aggregate health state from the graceful-degradation supervisor.
    pub health: HealthState,
    /// Control-tick index since start.
    pub tick: u64,
}

/// The exact frame walk's lanes: the channels in the order the scalar walk
/// draws their noise within a tick (direction, temperature, control).
const LANES: [usize; 3] = [DIR_CHANNEL, TEMP_CHANNEL, CTRL_CHANNEL];

/// Standard normals per modulator tick: a white and a flicker draw for
/// each lane, lane by lane.
const NORMALS_PER_TICK: usize = 2 * LANES.len();

/// Reusable scratch for the batched frame walk: per lane (in [`LANES`]
/// order) the bridge differentials, the noise sequence, the modulator
/// bitstream and the decimated codes, plus the frame's standard normals
/// (tick-major). Allocated once per meter and reused so the hot loop never
/// allocates.
#[derive(Debug, Default)]
struct FrameScratch {
    diffs: [Vec<f64>; 3],
    normals: Vec<f64>,
    noises: [Vec<f64>; 3],
    bits: [Vec<i32>; 3],
    codes: [Vec<i32>; 3],
}

impl FrameScratch {
    fn prepare(&mut self, depth: usize) {
        self.normals.resize(NORMALS_PER_TICK * depth, 0.0);
        for lane in 0..LANES.len() {
            self.diffs[lane].resize(depth, 0.0);
            self.noises[lane].resize(depth, 0.0);
            self.bits[lane].resize(depth, 0);
            self.codes[lane].clear();
        }
    }
}

/// The lanes of a per-lane scratch buffer as slices.
fn lanes<T>([a, b, c]: &[Vec<T>; 3]) -> [&[T]; 3] {
    [a, b, c].map(Vec::as_slice)
}

/// The lanes of a per-lane scratch buffer as mutable slices.
fn lanes_mut<T>([a, b, c]: &mut [Vec<T>; 3]) -> [&mut [T]; 3] {
    [a, b, c].map(Vec::as_mut_slice)
}

/// Mode-specific driver state.
#[derive(Debug)]
#[allow(clippy::enum_variant_names)] // the paper's mode names all begin "Constant"
enum ModeDriver {
    ConstantTemperature(CtaLoop),
    ConstantCurrent(ConstantCurrentDrive),
    ConstantPower(ConstantPowerDrive),
}

/// The assembled flow meter.
///
/// `FlowMeter` is [`Send`]: every component it owns (die, platform,
/// filters, seeded RNG) is plain owned data, so a meter can be moved into a
/// worker thread and independent co-simulation runs can execute in
/// parallel. Each individual run remains strictly single-threaded — the
/// parallelism lives one layer up, in `hotwire_rig`'s campaign executor.
#[derive(Debug)]
pub struct FlowMeter {
    config: FlowMeterConfig,
    build_seed: u64,
    die: MafDie,
    platform: IsifPlatform,
    bridge: BridgeConfig,
    rh_star: Ohms,
    driver: ModeDriver,
    estimator: ConductanceEstimator,
    wire_estimator: WireStateEstimator,
    output: OutputPipeline,
    direction: DirectionDetector,
    pulsed: Option<PulsedScheduler>,
    calibration: Option<KingCalibration>,
    /// Memo of the active calibration's calibration-side film law
    /// ([`KingCalibration::film_law`] at the calibration temperature),
    /// keyed on the bits of its overheat: the calibration temperature is a
    /// config constant, so the overheat is the law's only input. A miss
    /// re-derives the same law, so the memo is not meter state.
    cal_film_law: Option<(u64, KingsLaw)>,
    spikes: SpikeMonitor,
    drift: DriftMonitor,
    saturation: SaturationMonitor,
    rng: StdRng,
    dt: Seconds,
    control_tick: u64,
    /// Control tick at which the active calibration was installed or last
    /// refit — the zero point of [`calibration_age`](Meter::calibration_age).
    cal_tick: u64,
    last_dir_code: i32,
    /// Learned zero-flow offset of the supply-normalized direction metric
    /// (codes per volt). Both the die-mismatch offset and the coupling
    /// signal scale with the bridge supply, so the metric `code/U` makes a
    /// single-point auto-zero valid across the whole operating range.
    dir_offset_per_volt: f64,
    /// Latest decimated temperature-channel code.
    last_temp_code: i32,
    /// Smoothed firmware estimate of the fluid temperature.
    fluid_temp_estimate: f64,
    /// Zero-point correction of the estimate, learned at field calibration
    /// (absorbs the ±1.5 % reference-resistor tolerance).
    temp_estimate_offset: f64,
    /// Nominal reference-branch ratio at the calibration temperature.
    ref_ratio_cal: f64,
    /// Input-referred volts per channel LSB.
    volts_per_code: f64,
    /// Supply code held across pulsed-off phases.
    last_on_code: u32,
    last_measurement: Option<Measurement>,
    /// Conductance from the most recent *valid* (settled, driven) control
    /// tick — what calibration and burst averaging consume. Pulsed-off
    /// phases hold the previous value instead of reading a dead bridge.
    instant_conductance: ThermalConductance,
    fault_latch: FaultFlags,
    /// Control ticks to ignore for fault latching (startup transient).
    fault_warmup_ticks: u64,
    /// Consecutive settled measurement ticks (resets at every pulsed-off
    /// phase); spike monitoring arms only once a short streak has passed so
    /// pulse-resume transients don't read as bubble events.
    settled_streak: u32,
    /// The graceful-degradation supervisor.
    health: HealthMonitor,
    /// Injected ADC fault on the CTA channel (campaign fault injection).
    adc_fault: Option<AdcFault>,
    /// Consecutive identical control codes (freeze discriminator).
    frozen_code_streak: u32,
    /// The previous control code, for the freeze discriminator.
    last_raw_ctrl_code: i32,
    /// Installed observability sink, if any. Observation never feeds back
    /// into control: a meter computes bit-identical measurements with or
    /// without an observer.
    observer: Option<Box<dyn Observer>>,
    /// Previous saturation-monitor verdict, for edge detection.
    was_saturated: bool,
    /// Modulator ticks into the current decimation frame (0 = aligned with
    /// the channels' CIC phase, so a whole frame may run batched).
    mod_phase: u32,
    /// Scratch buffers for the batched frame walk.
    frame: FrameScratch,
}

impl FlowMeter {
    /// Builds the instrument around a die with the given parameters,
    /// deterministic under `seed`.
    ///
    /// The meter starts with a *factory calibration* derived from the die's
    /// design model (the Kramers-derived King's law at the calibration
    /// temperature); [`calibrate`](Self::calibrate) replaces it with a field
    /// calibration against a reference meter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] if the configuration or any platform block is
    /// invalid.
    pub fn new(
        config: FlowMeterConfig,
        maf_params: MafParams,
        seed: u64,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        maf_params.validate()?;
        let die = MafDie::in_potable_water(maf_params);
        let mut platform = IsifPlatform::new(config.modulator_rate)?;
        let default_channel = ChannelConfig::maf_bridge();
        let channel_config = ChannelConfig {
            decimation: config.decimation,
            // Keep the anti-alias corner realizable when tests run the
            // modulator slower than the 256 kHz silicon clock.
            antialias_corner: hotwire_units::Hertz::new(
                default_channel
                    .antialias_corner
                    .get()
                    .min(config.modulator_rate.get() / 8.0),
            ),
            ..default_channel
        };
        platform.configure_channel(CTRL_CHANNEL, channel_config)?;
        platform.configure_channel(DIR_CHANNEL, channel_config)?;
        platform.configure_channel(TEMP_CHANNEL, channel_config)?;

        let heater_nominal = maf_params.heater;
        let reference_nominal = maf_params.reference;
        let bridge = config.design_bridge(&heater_nominal, &reference_nominal)?;
        let rh_star = config.target_heater_resistance(&heater_nominal);
        let estimator = ConductanceEstimator::new(&bridge, rh_star, &config, 2);
        let volts_per_code = {
            // Input-referred LSB of the acquisition channel.
            Volts::new(channel_config.vref.get() / 32768.0 / channel_config.inamp.gain)
        };
        let wire_estimator = WireStateEstimator::new(
            &bridge,
            heater_nominal,
            &reference_nominal,
            &config,
            volts_per_code,
        );
        let rt_cal = reference_nominal.resistance(config.calibration_temperature);
        let ref_ratio_cal = rt_cal.get() / (bridge.r_series_reference.get() + rt_cal.get());

        // Factory calibration from the design model.
        let king = KingsLaw::from_kramers(
            die.fluid(),
            config.calibration_temperature,
            maf_params.geometry,
        );
        let factory = KingCalibration {
            a: king.a() * 1.0,
            b: king.b() * 1.0,
            n: king.n(),
            overheat: config.overheat,
        };

        let driver = match config.mode {
            OperatingMode::ConstantTemperature => {
                ModeDriver::ConstantTemperature(CtaLoop::new(&config)?)
            }
            OperatingMode::ConstantCurrent => {
                let g = king.conductance(MetersPerSecond::new(1.0));
                ModeDriver::ConstantCurrent(ConstantCurrentDrive::design(
                    &config,
                    rh_star,
                    &bridge,
                    g,
                    Volts::new(5.0),
                    SUPPLY_CODE_MAX as u32,
                ))
            }
            OperatingMode::ConstantPower => {
                let g = king.conductance(MetersPerSecond::new(1.0));
                let target = Watts::new(g.get() * config.overheat.get());
                ModeDriver::ConstantPower(ConstantPowerDrive::new(
                    target,
                    1500,
                    SUPPLY_CODE_MAX as u32,
                ))
            }
        };

        let control_rate = config.control_rate();
        let output = OutputPipeline::new(config.output_filter, control_rate)?;
        let mut meter = FlowMeter {
            direction: DirectionDetector::new(config.direction_deadband, 8),
            pulsed: config.pulsed.map(PulsedScheduler::new),
            calibration: Some(factory),
            cal_film_law: None,
            // Threshold sized ~5σ above the turbulence-driven supply swing
            // so the flag reacts to detachment events, not ordinary flow
            // noise.
            spikes: SpikeMonitor::new(150, control_rate.get() as u32, 0.002),
            drift: DriftMonitor::new(DRIFT_TAU_UPDATES, DRIFT_THRESHOLD),
            saturation: SaturationMonitor::new(
                config.supply_code_min,
                SUPPLY_CODE_MAX as u32,
                control_rate.get() as u32 / 2,
            ),
            rng: StdRng::seed_from_u64(seed),
            dt: config.modulator_rate.period(),
            control_tick: 0,
            cal_tick: 0,
            last_dir_code: 0,
            dir_offset_per_volt: 0.0,
            last_temp_code: 0,
            fluid_temp_estimate: config.calibration_temperature.get(),
            temp_estimate_offset: 0.0,
            ref_ratio_cal,
            volts_per_code: volts_per_code.get(),
            last_on_code: config.supply_code_min,
            last_measurement: None,
            instant_conductance: ThermalConductance::ZERO,
            fault_latch: FaultFlags::default(),
            fault_warmup_ticks: (3.0 * control_rate.get()) as u64,
            settled_streak: 0,
            // Escalate Degraded → Faulted after 5 s of continuous fault;
            // each recovery stage needs 0.5 s of quiet monitors.
            health: HealthMonitor::new(
                (5.0 * control_rate.get()) as u64,
                (0.5 * control_rate.get()) as u64,
            ),
            adc_fault: None,
            frozen_code_streak: 0,
            last_raw_ctrl_code: i32::MIN,
            observer: None,
            was_saturated: false,
            mod_phase: 0,
            frame: FrameScratch::default(),
            build_seed: seed,
            config,
            die,
            platform,
            bridge,
            rh_star,
            driver,
            estimator,
            wire_estimator,
            output,
        };
        meter.platform.set_supply_code(meter.config.supply_code_min);
        Ok(meter)
    }

    /// The firmware configuration.
    #[inline]
    pub fn config(&self) -> &FlowMeterConfig {
        &self.config
    }

    /// The seed this meter was built with. Together with
    /// [`config`](Self::config) and the die's
    /// [`params`](hotwire_physics::MafDie::params), this fully determines
    /// the instrument: `FlowMeter::new(*m.config(), *m.die().params(),
    /// m.build_seed())` reconstructs a bit-identical cold replica —
    /// what the campaign layer uses to fan calibration setpoints out across
    /// threads.
    #[inline]
    pub fn build_seed(&self) -> u64 {
        self.build_seed
    }

    /// Adopts an externally learned fluid-temperature estimate (°C, raw —
    /// before zero correction).
    ///
    /// The parallel field-calibration procedure converges the temperature
    /// channel on *replica* meters; the fitted calibration is then installed
    /// into the original instrument, which never ran the setpoints itself.
    /// Transferring the replicas' estimate first lets
    /// [`calibrate`](Self::calibrate) learn the same zero offset the serial
    /// procedure would have (absorbing the reference resistor's ±1.5 %
    /// manufacturing tolerance).
    pub fn adopt_fluid_estimate(&mut self, estimate: Celsius) {
        self.fluid_temp_estimate = estimate.get();
    }

    /// The simulated die (inspection of bubbles, fouling, temperatures).
    #[inline]
    pub fn die(&self) -> &MafDie {
        &self.die
    }

    /// Mutable die access (fault injection, aging).
    #[inline]
    pub fn die_mut(&mut self) -> &mut MafDie {
        &mut self.die
    }

    /// The platform (EEPROM, registers, scheduler).
    #[inline]
    pub fn platform_mut(&mut self) -> &mut IsifPlatform {
        &mut self.platform
    }

    /// The active calibration.
    #[inline]
    pub fn calibration(&self) -> Option<&KingCalibration> {
        self.calibration.as_ref()
    }

    /// The latest measurement, if a control tick has completed.
    #[inline]
    pub fn last_measurement(&self) -> Option<&Measurement> {
        self.last_measurement.as_ref()
    }

    /// The designed Wheatstone bridge.
    #[inline]
    pub fn bridge(&self) -> &BridgeConfig {
        &self.bridge
    }

    /// The heater resistance the loop regulates to at the calibration
    /// temperature.
    #[inline]
    pub fn regulated_resistance(&self) -> Ohms {
        self.rh_star
    }

    /// Advances one full decimation frame — `decimation` modulator ticks —
    /// and returns the control-tick measurement the frame ends on.
    ///
    /// At the default [`AfeTier::Exact`] the result is bit-identical to
    /// calling [`step`](Meter::step) `decimation` times with the same
    /// environment: the frame walk draws the frame's standard normals in
    /// the scalar draw order (per tick a white and a flicker normal each
    /// for the direction, temperature and control channels, the die's
    /// thermal step drawing none; on the frame's last tick the die's
    /// surface step, its only draws, comes before that tick's six) and
    /// then runs one kernel over the three channels' chains, which are
    /// mutually independent floating-point walks. At [`AfeTier::Fast`]
    /// the AFE is instead evaluated quasi-statically once per frame — a
    /// bounded-error approximation for fleet-scale studies.
    ///
    /// Analog inputs are held piecewise-constant across the frame, exactly
    /// as the scalar path sees them: the supply code only changes on control
    /// ticks, and the environment is whatever the caller passes.
    ///
    /// # Panics
    ///
    /// Panics if the meter is not frame-aligned
    /// ([`frame_phase`](Meter::frame_phase) != 0).
    // Stays inherent beside its `Meter` forwarder: the benchmark calls it
    // on a concrete `FlowMeter` without importing the trait.
    #[allow(clippy::same_name_method)]
    pub fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        assert_eq!(
            self.mod_phase, 0,
            "step_frame requires frame alignment (frame_phase() == 0)"
        );
        match self.config.afe_tier {
            AfeTier::Exact => self.step_frame_exact(env),
            AfeTier::Fast => self.step_frame_fast(env),
        }
    }

    /// The exact frame walk, in passes that consume the RNG stream in the
    /// scalar walk's order: one thermal walk over the frame whose drive
    /// solves both bridges and draws the tick's six standard normals (the
    /// thermal step draws nothing), then the die's surface step and the
    /// last tick's six (the scalar walk advances the surfaces between the
    /// last tick's thermal step and its draws), the three noise lanes from
    /// those normals, and one kernel over the three channels' chains.
    fn step_frame_exact(&mut self, env: SensorEnvironment) -> Measurement {
        let depth = self.config.decimation as usize;
        self.frame.prepare(depth);
        let supply = self.platform.supply_voltage();
        let overtemp = env.fluid_temperature.get() - 25.0;
        let frame_dt = self.frame_dt();

        let bridge = self.bridge;
        let reference_level = supply * self.ref_ratio_cal;
        let [dir, temp, ctrl] = lanes_mut(&mut self.frame.diffs);
        let (early, last) = self
            .frame
            .normals
            .split_at_mut(NORMALS_PER_TICK * (depth - 1));
        let mut early = early.chunks_exact_mut(NORMALS_PER_TICK);
        // The drive draws on a local copy of the generator, written back
        // after the walk, so the sampler touches no meter state; its
        // throughput-bound draws fill the latency gaps of the thermal
        // recurrence.
        let mut rng = self.rng.clone();
        self.die
            .step_thermal_with(self.dt, env, depth, |k, rh_a, rh_b, rt| {
                let out_a = bridge.solve(supply, rh_a, rt);
                let out_b = bridge.solve(supply, rh_b, rt);
                dir[k] = (out_a.differential - out_b.differential).get();
                temp[k] = (out_a.reference_mid - reference_level).get();
                ctrl[k] = ((out_a.differential + out_b.differential) * 0.5).get();
                if let Some(normals) = early.next() {
                    StandardNormal::fill(&mut rng, normals);
                }
                (out_a.heater_power, out_b.heater_power)
            });
        self.rng = rng;
        self.die
            .step_surfaces(frame_dt, env.pressure, &mut self.rng);
        StandardNormal::fill(&mut self.rng, last);

        let [dir, temp, ctrl] = self
            .platform
            .channels_mut(LANES)
            .expect("configured in new()");
        InputChannel::noise_blocks(
            [&mut *dir, &mut *temp, &mut *ctrl],
            &self.frame.normals,
            lanes_mut(&mut self.frame.noises),
        );
        let [dir_codes, temp_codes, ctrl_codes] = &mut self.frame.codes;
        InputChannel::sample_blocks(
            [dir, temp, ctrl],
            lanes(&self.frame.diffs),
            lanes(&self.frame.noises),
            lanes_mut(&mut self.frame.bits),
            overtemp,
            [dir_codes, temp_codes, ctrl_codes],
        );
        // Frame-aligned channels emit exactly one code per block.
        debug_assert!(self.frame.codes.iter().all(|c| c.len() == 1));
        let [dir_codes, temp_codes, ctrl_codes] = &self.frame.codes;
        self.last_dir_code = dir_codes[0];
        self.last_temp_code = temp_codes[0];
        let code = ctrl_codes[0];
        let code = match self.adc_fault {
            Some(fault) => fault.apply(code),
            None => code,
        };
        self.control_step(code, supply)
    }

    /// The span of one decimation frame: the fast tier's die step and both
    /// tiers' once-per-frame surface step.
    fn frame_dt(&self) -> Seconds {
        Seconds::new(self.dt.get() * self.config.decimation as f64)
    }

    /// The fast-tier frame: one bridge solve pair, one coarse die step
    /// spanning the frame (exponential Euler is exact for constant drive),
    /// and one quasi-static DC code per channel. Each `dc_code` call draws
    /// one noise sample, so codes stay dithered and the frozen-code watchdog
    /// discriminator still sees a live front end.
    fn step_frame_fast(&mut self, env: SensorEnvironment) -> Measurement {
        let supply = self.platform.supply_voltage();
        let rh_a = self.die.heater_resistance(HeaterId::A);
        let rh_b = self.die.heater_resistance(HeaterId::B);
        let rt = self.die.reference_resistance();
        let out_a = self.bridge.solve(supply, rh_a, rt);
        let out_b = self.bridge.solve(supply, rh_b, rt);
        self.die.step(
            self.frame_dt(),
            out_a.heater_power,
            out_b.heater_power,
            env,
            &mut self.rng,
        );

        let ctrl_diff = (out_a.differential + out_b.differential) * 0.5;
        let dir_diff = out_a.differential - out_b.differential;
        let temp_diff = out_a.reference_mid - supply * self.ref_ratio_cal;
        let overtemp = env.fluid_temperature.get() - 25.0;

        let dir_code = {
            let chan = self
                .platform
                .channel_mut(DIR_CHANNEL)
                .expect("configured in new()");
            chan.dc_code(dir_diff, overtemp, &mut self.rng)
        };
        self.last_dir_code = dir_code;
        let temp_code = {
            let chan = self
                .platform
                .channel_mut(TEMP_CHANNEL)
                .expect("configured in new()");
            chan.dc_code(temp_diff, overtemp, &mut self.rng)
        };
        self.last_temp_code = temp_code;
        let code = {
            let chan = self
                .platform
                .channel_mut(CTRL_CHANNEL)
                .expect("configured in new()");
            chan.dc_code(ctrl_diff, overtemp, &mut self.rng)
        };
        let code = match self.adc_fault {
            Some(fault) => fault.apply(code),
            None => code,
        };
        self.control_step(code, supply)
    }

    /// Decodes the fluid temperature from the temperature channel: the
    /// reference midpoint ratio `x = Rt/(R2+Rt)` is recovered from the
    /// measured deviation, inverted to `Rt`, and converted through the
    /// nominal RTD law, then smoothed (the fluid changes slowly).
    fn update_fluid_estimate(&mut self, supply: Volts) {
        let u = supply.get();
        if u < 0.2 {
            return; // pulsed-off or startup: hold the estimate
        }
        let x = self.ref_ratio_cal + self.last_temp_code as f64 * self.volts_per_code / u;
        if !(0.01..0.99).contains(&x) {
            return;
        }
        let rt = self.bridge.r_series_reference.get() * x / (1.0 - x);
        let t = self
            .wire_estimator_reference_rtd()
            .temperature(hotwire_units::Ohms::new(rt))
            .get();
        // Reject implausible decodes (transients) and clamp to the station's
        // plausible band around the calibration temperature.
        let cal = self.config.calibration_temperature.get();
        if t.is_finite() && (cal - 20.0..cal + 25.0).contains(&t) {
            // Single-pole smoothing, τ ≈ 20 control ticks.
            self.fluid_temp_estimate += 0.05 * (t - self.fluid_temp_estimate);
        }
    }

    /// Nominal reference RTD law (firmware knowledge; tolerance is absorbed
    /// by calibration).
    fn wire_estimator_reference_rtd(&self) -> hotwire_physics::resistor::Rtd {
        // The nominal law; stored implicitly via MafParams defaults.
        hotwire_physics::resistor::Rtd::ambient_reference()
    }

    /// The firmware's current fluid-temperature estimate (zero-corrected).
    pub fn fluid_temperature_estimate(&self) -> Celsius {
        Celsius::new(self.fluid_temp_estimate - self.temp_estimate_offset)
    }

    fn control_step(&mut self, code: i32, supply: Volts) -> Measurement {
        self.control_tick += 1;
        let phase = self
            .pulsed
            .as_mut()
            .map(|p| p.advance())
            .unwrap_or(PulsePhase::On { settled: true });

        let (supply_code, measure_now) = match phase {
            PulsePhase::Off => {
                // Heater unbiased; loop frozen.
                self.platform.set_supply_code(0);
                (0, false)
            }
            PulsePhase::On { settled } => {
                let was_off = self.platform.supply_code() == 0;
                if was_off {
                    // Resume bumplessly at the last operating point.
                    if let ModeDriver::ConstantTemperature(cta) = &mut self.driver {
                        cta.preset_output(self.last_on_code);
                    }
                    self.platform.set_supply_code(self.last_on_code);
                }
                let next = match &mut self.driver {
                    ModeDriver::ConstantTemperature(cta) => cta.update(code),
                    ModeDriver::ConstantCurrent(cc) => cc.code(),
                    ModeDriver::ConstantPower(cp) => {
                        let power = self
                            .wire_estimator
                            .estimate(code, supply)
                            .map(|s| s.power)
                            .unwrap_or(Watts::ZERO);
                        cp.update(power)
                    }
                };
                self.platform.set_supply_code(next);
                self.last_on_code = next;
                (next, settled)
            }
        };

        // The fluid-temperature estimate and the instantaneous conductance
        // only update on trustworthy (settled, driven) ticks — pulse
        // transients would poison them.
        if measure_now {
            self.update_fluid_estimate(supply);
            if self.config.mode == OperatingMode::ConstantTemperature {
                let u = self.platform.supply_dac().convert(supply_code);
                self.instant_conductance = if self.config.temperature_compensation {
                    self.estimator
                        .conductance_at_ambient(u, self.fluid_temperature_estimate())
                } else {
                    self.estimator.conductance(u)
                };
            }
        }

        // Condition the flow-bearing signal.
        let raw_signal = match self.config.mode {
            OperatingMode::ConstantTemperature => supply_code as i32,
            _ => code,
        };
        let conditioned = if measure_now {
            self.output.push(raw_signal)
        } else {
            self.output.value()
        };

        // Fault monitors. Spikes are judged against the *despiked* (median)
        // reference, which tracks setpoint ramps within two ticks — so only
        // genuinely short events (bubble detachments) count. A short settled
        // streak is required after each pulsed resume so the median's stale
        // history doesn't read as an event.
        if measure_now {
            self.settled_streak = self.settled_streak.saturating_add(1);
        } else {
            self.settled_streak = 0;
        }
        let spike_rate = if measure_now && self.settled_streak > 4 {
            self.spikes.update(raw_signal, self.output.despiked())
        } else {
            self.spikes.rate()
        };
        let saturated = self.saturation.update(supply_code.max(1));
        if saturated != self.was_saturated {
            self.was_saturated = saturated;
            self.observe(if saturated {
                EventKind::PiSaturationEnter
            } else {
                EventKind::PiSaturationExit
            });
        }

        // Conductance + velocity from the conditioned signal.
        let (conductance, wire_power) = match self.config.mode {
            OperatingMode::ConstantTemperature => {
                let u = self
                    .platform
                    .supply_dac()
                    .convert(conditioned.clamp(0, SUPPLY_CODE_MAX) as u32);
                let g = if self.config.temperature_compensation {
                    self.estimator
                        .conductance_at_ambient(u, self.fluid_temperature_estimate())
                } else {
                    self.estimator.conductance(u)
                };
                (g, self.estimator.heater_power(u))
            }
            _ => {
                let state = self.wire_estimator.estimate(conditioned, supply);
                (
                    state
                        .map(|s| s.conductance)
                        .unwrap_or(ThermalConductance::ZERO),
                    state.map(|s| s.power).unwrap_or(Watts::ZERO),
                )
            }
        };
        let speed = match self.calibration.as_ref() {
            Some(c) if self.compensates_temperature() => {
                let cal = self.calibration_film_law(c);
                self.cal_film_law = Some((c.overheat.get().to_bits(), cal));
                c.compensated_for(self.fluid_temperature_estimate(), &cal)
                    .velocity_from_conductance(conductance)
            }
            Some(c) => c.velocity_from_conductance(conductance),
            None => MetersPerSecond::ZERO,
        };

        let direction = if measure_now {
            let u = supply.get().max(0.2);
            let metric = self.last_dir_code as f64 / u - self.dir_offset_per_volt;
            self.direction.update(metric.round() as i32)
        } else {
            self.direction.direction()
        };
        let velocity = match direction {
            FlowDirection::Reverse => -speed,
            _ => speed,
        };

        // The drift baseline must not be seeded from the startup ramp, so
        // the monitor only runs after the fault warm-up window.
        let drift_dev = if measure_now && self.control_tick > self.fault_warmup_ticks {
            self.drift.update(conductance.get().max(1e-12))
        } else {
            0.0
        };
        let _ = spike_rate;
        let faults = FaultFlags {
            bubble_activity: self.spikes.sustained(2),
            fouling_suspected: self.drift.is_drifting(drift_dev) && drift_dev < 0.0,
            loop_saturated: saturated,
        };
        // Hold off latching until the startup transient has cleared: the
        // supply ramp from the observable floor to the operating point looks
        // like a spike burst to the monitors.
        if self.control_tick > self.fault_warmup_ticks {
            self.fault_latch.bubble_activity |= faults.bubble_activity;
            self.fault_latch.fouling_suspected |= faults.fouling_suspected;
            self.fault_latch.loop_saturated |= faults.loop_saturated;
        }

        // Watchdog supervision. The firmware kicks only while the control
        // code keeps moving: a healthy ΣΔ channel always carries noise, so
        // a long identical-code streak means the acquisition front end is
        // frozen — the kick stops and the ISIF watchdog expires, which the
        // supervisor below turns into a soft reset.
        if code == self.last_raw_ctrl_code {
            self.frozen_code_streak = self.frozen_code_streak.saturating_add(1);
        } else {
            self.frozen_code_streak = 0;
        }
        self.last_raw_ctrl_code = code;
        if self.frozen_code_streak < FROZEN_CODE_LIMIT {
            self.platform.watchdog_mut().kick();
        }
        self.platform.watchdog_mut().tick();
        let watchdog_expired = self.platform.watchdog_mut().take_expiry();
        if watchdog_expired {
            self.observe(EventKind::WatchdogExpired);
        }

        // Graceful degradation: feed the supervisor the same warmup-gated
        // flags the latch uses, and apply at most one reaction per tick.
        let gated_faults = if self.control_tick > self.fault_warmup_ticks {
            faults
        } else {
            FaultFlags::default()
        };
        match self.health.update(gated_faults, watchdog_expired) {
            RecoveryAction::None => {}
            RecoveryAction::EngagePulsedDrive => {
                // §4's bubble mitigation: switch to the pulsed drive so the
                // wall spends most of its time below the outgassing onset.
                if self.pulsed.is_none() {
                    self.pulsed = Some(PulsedScheduler::new(PulsedConfig::water_default()));
                }
            }
            RecoveryAction::ReZero => {
                // Accept the post-fouling conductance as the new baseline
                // instead of flagging the same drift forever.
                self.drift.re_zero();
            }
            RecoveryAction::SoftReset => {
                self.spikes.reset();
                self.frozen_code_streak = 0;
                self.platform.watchdog_mut().kick();
            }
        }
        // Poll the supervisor's collapsed edge once per tick. This runs
        // whether or not an observer is installed: `take_transition` only
        // advances the supervisor's *observed* state, never its behaviour.
        if let Some((from, to)) = self.health.take_transition() {
            self.observe(EventKind::HealthTransition { from, to });
        }

        let m = Measurement {
            velocity,
            speed,
            direction,
            supply_code,
            conditioned_code: conditioned,
            conductance,
            wire_power,
            faults,
            health: self.health.state(),
            tick: self.control_tick,
        };
        self.last_measurement = Some(m);
        m
    }

    /// Drives `steps` modulator ticks through the fastest available path —
    /// scalar ticks until the frame boundary, whole batched frames, scalar
    /// remainder — invoking `on_control` after every completed control tick.
    /// Bit-identical to an all-scalar walk at the exact tier.
    fn drive(
        &mut self,
        steps: u64,
        env: SensorEnvironment,
        mut on_control: impl FnMut(&mut Self, Measurement),
    ) {
        let mut remaining = steps;
        while remaining > 0 && self.mod_phase != 0 {
            if let Some(m) = self.step(env) {
                on_control(self, m);
            }
            remaining -= 1;
        }
        let frame = self.config.decimation as u64;
        while remaining >= frame {
            let m = self.step_frame(env);
            on_control(self, m);
            remaining -= frame;
        }
        for _ in 0..remaining {
            if let Some(m) = self.step(env) {
                on_control(self, m);
            }
        }
    }

    /// Runs `seconds` of simulated time at a constant environment and
    /// returns the final measurement (if at least one control tick ran).
    pub fn run(&mut self, seconds: f64, env: SensorEnvironment) -> Option<Measurement> {
        let steps = (seconds / self.dt.get()).round() as u64;
        let mut last = None;
        self.drive(steps, env, |_, m| last = Some(m));
        last
    }

    /// The instantaneous (unconditioned) conductance implied by the present
    /// supply code — used by calibration, which averages externally.
    pub fn instantaneous_conductance(&self) -> ThermalConductance {
        match self.config.mode {
            OperatingMode::ConstantTemperature => self.instant_conductance,
            _ => self
                .last_measurement
                .map(|m| m.conductance)
                .unwrap_or(ThermalConductance::ZERO),
        }
    }

    /// The instantaneous (unconditioned) speed decode — what burst-mode
    /// operation averages over its short measurement window instead of
    /// waiting for the 0.1 Hz filter.
    pub fn instantaneous_speed(&self) -> MetersPerSecond {
        let g = self.instantaneous_conductance();
        match self.calibration.as_ref() {
            Some(c) if self.compensates_temperature() => c
                .compensated_for(
                    self.fluid_temperature_estimate(),
                    &self.calibration_film_law(c),
                )
                .velocity_from_conductance(g),
            Some(c) => c.velocity_from_conductance(g),
            None => MetersPerSecond::ZERO,
        }
    }

    /// Whether speeds are decoded through the fluid-temperature
    /// compensation (CT mode with compensation enabled).
    fn compensates_temperature(&self) -> bool {
        self.config.temperature_compensation
            && self.config.mode == OperatingMode::ConstantTemperature
    }

    /// `cal`'s calibration-side film law: the memo when it was taken for
    /// `cal`'s overheat, a fresh derivation otherwise.
    fn calibration_film_law(&self, cal: &KingCalibration) -> KingsLaw {
        match self.cal_film_law {
            Some((key, law)) if key == cal.overheat.get().to_bits() => law,
            _ => cal.film_law(self.config.calibration_temperature),
        }
    }

    /// Records one calibration point at a known reference velocity, running
    /// `settle_s` of simulation then averaging `average_s` of conductance.
    pub fn record_calibration_point(
        &mut self,
        reference: MetersPerSecond,
        env: SensorEnvironment,
        settle_s: f64,
        average_s: f64,
    ) -> CalPoint {
        let env = SensorEnvironment {
            velocity: reference,
            ..env
        };
        self.run(settle_s, env);
        let steps = (average_s / self.dt.get()).round() as u64;
        let mut sum = 0.0;
        let mut n = 0u64;
        self.drive(steps, env, |meter, _| {
            sum += meter.instantaneous_conductance().get();
            n += 1;
        });
        CalPoint {
            velocity: reference,
            conductance: ThermalConductance::new(sum / n.max(1) as f64),
        }
    }

    /// Fits and installs a field calibration, persisting it to the platform
    /// EEPROM.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Calibration`] if the fit fails.
    pub fn calibrate(&mut self, points: &[CalPoint]) -> Result<&KingCalibration, CoreError> {
        // The calibration bath's fluid temperature is known: zero the
        // temperature channel here, absorbing the reference resistor's
        // manufacturing tolerance.
        self.temp_estimate_offset =
            self.fluid_temp_estimate - self.config.calibration_temperature.get();
        let cal = KingCalibration::fit(points, self.config.overheat)?;
        cal.store(self.platform.eeprom_mut())?;
        self.calibration = Some(cal);
        self.cal_tick = self.control_tick;
        // The calibration procedure slews the line hard between setpoints;
        // whatever the monitors latched during it is procedure noise, not a
        // field diagnosis.
        self.clear_faults();
        Ok(self.calibration.as_ref().expect("just installed"))
    }

    /// Auto-zeroes the direction channel: runs `seconds` of simulation at
    /// the given (zero-flow) environment and learns the channel's
    /// supply-normalized offset, which is subtracted from all subsequent
    /// direction decisions. This removes both the in-amp offset and the
    /// heater-pair mismatch (±1 % tolerance → an offset that would otherwise
    /// dwarf the coupling signal), so the detector can use a tight deadband.
    pub fn auto_zero_direction(&mut self, seconds: f64, env: SensorEnvironment) {
        let env = SensorEnvironment {
            velocity: MetersPerSecond::ZERO,
            ..env
        };
        let steps = (seconds / self.dt.get()).round() as u64;
        let mut sum = 0.0;
        let mut n: u64 = 0;
        self.drive(steps, env, |meter, _| {
            let u = meter.platform.supply_voltage().get().max(0.2);
            sum += meter.last_dir_code as f64 / u;
            n += 1;
        });
        if n > 0 {
            self.dir_offset_per_volt = sum / n as f64;
        }
        self.direction.reset();
    }

    /// The learned direction-channel offset in codes per volt of bridge
    /// supply (0 until auto-zeroed).
    #[inline]
    pub fn direction_offset(&self) -> f64 {
        self.dir_offset_per_volt
    }

    /// Latched fault flags since start (or the last clear).
    pub fn fault_latch(&self) -> FaultFlags {
        self.fault_latch
    }

    /// Clears the latched fault flags and resets the spike monitor's window
    /// state (full diagnostic reset).
    pub fn clear_faults(&mut self) {
        self.fault_latch = FaultFlags::default();
        self.spikes.reset();
    }

    /// The injected ADC fault currently active, if any.
    #[inline]
    pub fn adc_fault(&self) -> Option<AdcFault> {
        self.adc_fault
    }

    /// Total control ticks executed since construction (the timestamp
    /// domain of [`ObsEvent`]s).
    #[inline]
    pub fn control_ticks(&self) -> u64 {
        self.control_tick
    }

    /// A stable 64-bit digest (FNV-1a) of the meter's observable mutable
    /// state: control phase, RNG lane state, firmware estimates and
    /// latches, the health supervisor's verdict, and the die's slow
    /// physical state. Two meters that walked bit-identical trajectories
    /// digest equal; any divergence in the simulated state shows up here.
    /// The fleet layer records this per line, which is how its
    /// checkpoint/resume and jobs-invariance tests cover full end-state
    /// equality without serializing whole meters.
    // Stays inherent beside its `Meter` forwarder: the benchmark calls it
    // on a concrete `FlowMeter` without importing the trait.
    #[allow(clippy::same_name_method)]
    pub fn state_digest(&self) -> u64 {
        let flags = self.fault_latch;
        let m = self.last_measurement.as_ref();
        let words: [u64; 37] = [
            self.control_tick,
            self.mod_phase as u64,
            self.rng.state()[0],
            self.rng.state()[1],
            self.rng.state()[2],
            self.rng.state()[3],
            self.last_dir_code as i64 as u64,
            self.last_temp_code as i64 as u64,
            self.last_raw_ctrl_code as i64 as u64,
            self.last_on_code as u64,
            self.frozen_code_streak as u64,
            self.settled_streak as u64,
            self.fault_warmup_ticks,
            u64::from(self.was_saturated),
            self.health.state() as u64,
            u64::from(flags.bubble_activity)
                | u64::from(flags.fouling_suspected) << 1
                | u64::from(flags.loop_saturated) << 2,
            self.dir_offset_per_volt.to_bits(),
            self.fluid_temp_estimate.to_bits(),
            self.temp_estimate_offset.to_bits(),
            self.instant_conductance.get().to_bits(),
            m.map_or(0, |m| m.velocity.get().to_bits()),
            m.map_or(0, |m| m.supply_code as u64),
            m.map_or(0, |m| m.conditioned_code as i64 as u64),
            self.die.heater_temperature(HeaterId::A).get().to_bits(),
            self.die.heater_temperature(HeaterId::B).get().to_bits(),
            self.die.reference_resistance().get().to_bits(),
            self.die.bubble_coverage(HeaterId::A).to_bits(),
            self.die.bubble_coverage(HeaterId::B).to_bits(),
            self.die.fouling_thickness_um(HeaterId::A).to_bits(),
            self.die.fouling_thickness_um(HeaterId::B).to_bits(),
            // Calibration-surface state: the maintenance engine mutates the
            // installed fit and the drift monitor, so both must show up in
            // the digest for the re-zero/refit no-op and jobs-invariance
            // properties to bite.
            self.calibration.map_or(0, |c| c.a.to_bits()),
            self.calibration.map_or(0, |c| c.b.to_bits()),
            self.calibration.map_or(0, |c| c.n.to_bits()),
            self.drift.baseline().map_or(0, f64::to_bits),
            self.drift.last_value().map_or(0, f64::to_bits),
            self.drift.deviation().to_bits(),
            self.cal_tick,
        ];
        fnv1a64_words(&words)
    }
}

impl Meter for FlowMeter {
    #[inline]
    fn step(&mut self, env: SensorEnvironment) -> Option<Measurement> {
        self.mod_phase += 1;
        if self.mod_phase == self.config.decimation {
            self.mod_phase = 0;
        }
        // --- analog domain at the modulator rate ---
        let supply = self.platform.supply_voltage();
        let rh_a = self.die.heater_resistance(HeaterId::A);
        let rh_b = self.die.heater_resistance(HeaterId::B);
        let rt = self.die.reference_resistance();
        let out_a = self.bridge.solve(supply, rh_a, rt);
        let out_b = self.bridge.solve(supply, rh_b, rt);
        self.die
            .step_thermal(self.dt, out_a.heater_power, out_b.heater_power, env);
        if self.mod_phase == 0 {
            // The frame's last tick: the surface layers advance once over
            // the whole frame, before this tick's noise draws.
            self.die
                .step_surfaces(self.frame_dt(), env.pressure, &mut self.rng);
        }

        let ctrl_diff = (out_a.differential + out_b.differential) * 0.5;
        let dir_diff = out_a.differential - out_b.differential;
        // Chip self-heating above the 25 °C characterization point: the die
        // runs near the fluid temperature.
        let overtemp = env.fluid_temperature.get() - 25.0;

        let dir_code = {
            let chan = self
                .platform
                .channel_mut(DIR_CHANNEL)
                .expect("configured in new()");
            chan.sample(AnalogInput::Differential(dir_diff), overtemp, &mut self.rng)
        };
        if let Some(code) = dir_code {
            self.last_dir_code = code;
        }
        // Temperature channel: the Rt-arm midpoint against its
        // calibration-time divider ratio.
        let temp_diff = out_a.reference_mid - supply * self.ref_ratio_cal;
        let temp_code = {
            let chan = self
                .platform
                .channel_mut(TEMP_CHANNEL)
                .expect("configured in new()");
            chan.sample(
                AnalogInput::Differential(temp_diff),
                overtemp,
                &mut self.rng,
            )
        };
        if let Some(code) = temp_code {
            self.last_temp_code = code;
        }
        let ctrl_code = {
            let chan = self
                .platform
                .channel_mut(CTRL_CHANNEL)
                .expect("configured in new()");
            chan.sample(
                AnalogInput::Differential(ctrl_diff),
                overtemp,
                &mut self.rng,
            )
        };
        let code = ctrl_code?;
        // Injected acquisition faults corrupt the code before the firmware
        // sees it — the firmware's own supervision has to catch them.
        let code = match self.adc_fault {
            Some(fault) => fault.apply(code),
            None => code,
        };

        // --- digital domain at the control rate ---
        Some(self.control_step(code, supply))
    }

    #[inline]
    fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
        FlowMeter::step_frame(self, env)
    }

    #[inline]
    fn frame_phase(&self) -> u32 {
        self.mod_phase
    }

    #[inline]
    fn ticks_per_frame(&self) -> u32 {
        self.config.decimation
    }

    fn control_period(&self) -> Seconds {
        self.config.control_period()
    }

    fn full_scale(&self) -> MetersPerSecond {
        self.config.full_scale
    }

    #[inline]
    fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Total electrical power currently drawn from the supply by the two
    /// bridges (burst-mode energy accounting).
    fn power_draw(&self) -> Watts {
        let u = self.platform.supply_voltage();
        let rt = self
            .wire_estimator_reference_rtd()
            .resistance(self.fluid_temperature_estimate());
        self.estimator
            .total_bridge_power(u, self.bridge.r_series_reference, rt)
    }

    fn state_digest(&self) -> u64 {
        FlowMeter::state_digest(self)
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    #[inline]
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

    /// Reloads the calibration from EEPROM (power-cycle recovery).
    ///
    /// A corrupt or missing primary record degrades to the redundant mirror
    /// slot: the mirror is loaded, the primary is repaired from it, and the
    /// health supervisor notes a `Recovering` excursion. Only when *both*
    /// copies fail does this error out — and the instrument goes `Faulted`.
    ///
    /// # Errors
    ///
    /// Returns the primary slot's [`CoreError::Platform`] error if every
    /// calibration copy is missing or corrupt.
    fn reload_calibration(&mut self) -> Result<(), CoreError> {
        let recovered = KingCalibration::recover(self.platform.eeprom_mut());
        let (outcome, events) = calibration::reload(recovered, &mut self.health);
        for kind in events.into_iter().flatten() {
            self.observe(kind);
        }
        self.calibration = Some(outcome?);
        Ok(())
    }

    fn re_zero(&mut self) {
        self.drift.re_zero();
    }

    /// Refits the active King calibration from the drift monitor's current
    /// deviation and re-zeroes the baseline around the corrected fit.
    ///
    /// Fouling (the §4 failure mode the drift monitor watches) multiplies
    /// the wire's thermal conductance by a slowly shrinking factor `1 + d`
    /// (`d < 0` for a sensitivity loss), so scaling both King coefficients
    /// by the observed relative deviation restores the velocity decode at
    /// the operating point. The correction is clamped to ±50 % — beyond
    /// that the instrument needs a bath recalibration, not a field refit.
    /// RAM-only: pair with [`persist`](Meter::persist) to survive a power
    /// cycle.
    fn refit_from_recent(&mut self) -> bool {
        let d = self.drift.deviation().clamp(-0.5, 0.5);
        if d == 0.0 {
            return false;
        }
        let Some(cal) = self.calibration.as_mut() else {
            return false;
        };
        cal.a *= 1.0 + d;
        cal.b *= 1.0 + d;
        self.drift.re_zero();
        self.cal_tick = self.control_tick;
        true
    }

    fn persist(&mut self) -> Result<(), CoreError> {
        let cal = self.calibration.ok_or(CoreError::Calibration {
            reason: "no calibration installed to persist",
        })?;
        cal.store(self.platform.eeprom_mut())
    }

    #[inline]
    fn calibration_age(&self) -> u64 {
        self.control_tick.saturating_sub(self.cal_tick)
    }

    #[inline]
    fn drift_estimate(&self) -> f64 {
        self.drift.deviation()
    }

    #[inline]
    fn calibration_wear(&self) -> u64 {
        self.platform.eeprom().max_slot_wear()
    }

    fn fluid_temperature(&self) -> Option<Celsius> {
        Some(self.fluid_temperature_estimate())
    }

    fn inject_adc_fault(&mut self, fault: Option<AdcFault>) {
        self.adc_fault = fault;
    }

    fn degrade_supply(&mut self, fraction: f64) -> Option<ThermometerDac> {
        let original = self.platform.supply_dac().clone();
        let vref = Volts::new(original.vref().get() * fraction);
        let degraded = ThermometerDac::ideal(original.bits(), vref)
            .expect("clamped brownout fraction yields a valid DAC");
        self.platform.set_supply_dac(degraded);
        Some(original)
    }

    fn restore_supply(&mut self, saved: Option<ThermometerDac>) {
        if let Some(dac) = saved {
            self.platform.set_supply_dac(dac);
        }
    }

    fn corrupt_calibration(&mut self, slot: usize, byte: usize) {
        self.platform.eeprom_mut().corrupt(slot, byte);
    }

    fn inject_bubble_burst(&mut self, coverage: f64) {
        self.die.inject_bubble_burst(coverage);
    }

    fn deposit_fouling(&mut self, microns: f64) {
        self.die.deposit_fouling(microns);
    }

    fn worst_bubble_coverage(&self) -> f64 {
        self.die
            .bubble_coverage(HeaterId::A)
            .max(self.die.bubble_coverage(HeaterId::B))
    }

    fn worst_fouling_um(&self) -> f64 {
        self.die
            .fouling_thickness_um(HeaterId::A)
            .max(self.die.fouling_thickness_um(HeaterId::B))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Celsius;

    fn meter(seed: u64) -> FlowMeter {
        FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), seed).unwrap()
    }

    fn env(v_cm_s: f64) -> SensorEnvironment {
        SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(v_cm_s),
            ..SensorEnvironment::still_water()
        }
    }

    #[test]
    fn step_frame_is_bit_identical_to_scalar_steps() {
        let mut scalar = meter(7);
        let mut framed = meter(7);
        let e = env(80.0);
        let frame = scalar.config().decimation;
        for round in 0..30u32 {
            if round % 3 == 0 {
                // De-align with a few scalar ticks on both meters, then
                // re-align — exercises the mixed scalar/frame cadence.
                for _ in 0..17 {
                    assert_eq!(scalar.step(e), framed.step(e));
                }
                while framed.frame_phase() != 0 {
                    assert_eq!(scalar.step(e), framed.step(e));
                }
            }
            let mut last = None;
            for _ in 0..frame {
                if let Some(m) = scalar.step(e) {
                    last = Some(m);
                }
            }
            let m = framed.step_frame(e);
            assert_eq!(last, Some(m), "round {round}");
        }
        // The die state (physics + RNG consumption) must agree to the bit.
        assert_eq!(
            scalar.die().heater_temperature(HeaterId::A).get().to_bits(),
            framed.die().heater_temperature(HeaterId::A).get().to_bits()
        );
        assert_eq!(
            scalar.die().reference_resistance().get().to_bits(),
            framed.die().reference_resistance().get().to_bits()
        );
    }

    #[test]
    fn step_frame_matches_scalar_steps_across_mid_frame_rederivations() {
        // A cold start heats the die through King's-law re-derivations,
        // and each fluid-temperature step moves the film again while the
        // reference lags behind: the frame's thermal walk must leave its
        // stretch and re-derive at the same ticks as the scalar walk.
        let mut scalar = meter(5);
        let mut framed = meter(5);
        let frame = scalar.config().decimation;
        let mut inside = 0;
        for round in 0..40u32 {
            let e = SensorEnvironment {
                fluid_temperature: Celsius::new([15.0, 24.0, 9.0, 18.0][round as usize / 10]),
                ..env(60.0)
            };
            let mut last = None;
            for k in 0..frame {
                let law = *scalar.die().kings_law();
                if let Some(m) = scalar.step(e) {
                    last = Some(m);
                }
                if k > 0 && *scalar.die().kings_law() != law {
                    inside += 1;
                }
            }
            assert_eq!(last, Some(framed.step_frame(e)), "round {round}");
        }
        assert!(inside > 0, "no re-derivation inside a frame");
        let law_bits = |m: &FlowMeter| {
            let law = m.die().kings_law();
            [law.a(), law.b(), law.n()].map(f64::to_bits)
        };
        assert_eq!(law_bits(&scalar), law_bits(&framed));
        for id in [HeaterId::A, HeaterId::B] {
            assert_eq!(
                scalar.die().heater_temperature(id).get().to_bits(),
                framed.die().heater_temperature(id).get().to_bits()
            );
        }
        assert_eq!(scalar.state_digest(), framed.state_digest());
    }

    /// A test-profile meter at the naive 40 K overheat with half of each
    /// heater face blanketed: every surface step draws RNG words.
    fn bubbly_meter(seed: u64) -> FlowMeter {
        let config = FlowMeterConfig {
            overheat: hotwire_units::KelvinDelta::new(40.0),
            ..FlowMeterConfig::test_profile()
        };
        let mut m = FlowMeter::new(config, MafParams::nominal(), seed).unwrap();
        m.inject_bubble_burst(0.5);
        m
    }

    #[test]
    fn step_frame_matches_scalar_steps_while_bubbles_draw() {
        // The die's detachment draws land at the frame boundary, between
        // the last tick's thermal step and its noise draws, on both walks.
        let mut scalar = bubbly_meter(7);
        let mut framed = bubbly_meter(7);
        let e = env(80.0);
        let frame = scalar.config().decimation;
        for round in 0..30u32 {
            if round % 3 == 0 {
                for _ in 0..17 {
                    assert_eq!(scalar.step(e), framed.step(e));
                }
                while framed.frame_phase() != 0 {
                    assert_eq!(scalar.step(e), framed.step(e));
                }
            }
            let mut last = None;
            for _ in 0..frame {
                if let Some(m) = scalar.step(e) {
                    last = Some(m);
                }
            }
            assert_eq!(last, Some(framed.step_frame(e)), "round {round}");
        }
        assert!(scalar.die().bubble_coverage(HeaterId::A) > 0.0);
        assert_eq!(scalar.state_digest(), framed.state_digest());
    }

    #[test]
    fn run_matches_scalar_from_any_entry_phase_while_bubbles_draw() {
        let mut all_scalar = bubbly_meter(21);
        let mut batched = bubbly_meter(21);
        let e = env(150.0);
        for _ in 0..13 {
            assert_eq!(all_scalar.step(e), batched.step(e));
        }
        let steps = (0.3 / all_scalar.dt.get()).round() as u64;
        let mut last = None;
        for _ in 0..steps {
            if let Some(m) = all_scalar.step(e) {
                last = Some(m);
            }
        }
        assert_eq!(last, batched.run(0.3, e));
        assert!(all_scalar.die().bubble_coverage(HeaterId::A) > 0.0);
        assert_eq!(all_scalar.state_digest(), batched.state_digest());
    }

    #[test]
    fn state_digest_tracks_the_trajectory() {
        let mut a = meter(11);
        let mut b = meter(11);
        assert_eq!(a.state_digest(), b.state_digest(), "cold replicas agree");
        let initial = a.state_digest();
        a.run(0.3, env(70.0));
        b.run(0.3, env(70.0));
        assert_ne!(a.state_digest(), initial, "stepping must move the digest");
        assert_eq!(
            a.state_digest(),
            b.state_digest(),
            "identical trajectories digest equal"
        );
        // A diverged environment must show up.
        a.run(0.1, env(70.0));
        b.run(0.1, env(75.0));
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn step_frame_matches_scalar_under_adc_fault() {
        use crate::faults::AdcFault;
        for fault in [AdcFault::Stuck(1234), AdcFault::Offset(-250)] {
            let mut scalar = meter(13);
            let mut framed = meter(13);
            let e = env(60.0);
            scalar.run(0.2, e);
            framed.run(0.2, e);
            scalar.inject_adc_fault(Some(fault));
            framed.inject_adc_fault(Some(fault));
            let frame = scalar.config().decimation;
            for _ in 0..20 {
                let mut last = None;
                for _ in 0..frame {
                    if let Some(m) = scalar.step(e) {
                        last = Some(m);
                    }
                }
                assert_eq!(last, Some(framed.step_frame(e)), "fault {fault:?}");
            }
        }
    }

    #[test]
    fn run_is_bit_identical_regardless_of_entry_phase() {
        // `run` batches internally; a meter de-aligned by a partial scalar
        // prefix must produce the same stream as an all-scalar walk.
        let mut all_scalar = meter(21);
        let mut batched = meter(21);
        let e = env(150.0);
        // De-align both by 13 ticks.
        for _ in 0..13 {
            assert_eq!(all_scalar.step(e), batched.step(e));
        }
        let steps = (0.3 / all_scalar.dt.get()).round() as u64;
        let mut last = None;
        for _ in 0..steps {
            if let Some(m) = all_scalar.step(e) {
                last = Some(m);
            }
        }
        let batched_last = batched.run(0.3, e);
        assert_eq!(last, batched_last);
        assert_eq!(all_scalar.frame_phase(), batched.frame_phase());
    }

    #[test]
    fn fast_tier_tracks_exact_tier_within_bound() {
        let fast_cfg = FlowMeterConfig {
            afe_tier: crate::config::AfeTier::Fast,
            ..FlowMeterConfig::test_profile()
        };
        let mut fast = FlowMeter::new(fast_cfg, MafParams::nominal(), 5).unwrap();
        let mut exact = meter(5);
        for v in [40.0, 120.0, 220.0] {
            let me = exact.run(1.5, env(v)).unwrap();
            let mf = fast.run(1.5, env(v)).unwrap();
            let err = (me.speed.to_cm_per_s() - mf.speed.to_cm_per_s()).abs();
            // Bounded steady-state error: within 2 % of full scale (250 cm/s)
            // of the exact tier's decode.
            assert!(err < 5.0, "fast-tier speed error {err:.2} cm/s at {v} cm/s");
            // The quasi-static codes must stay dithered enough that the
            // frozen-code discriminator never trips a false watchdog reset.
            assert_eq!(mf.health, HealthState::Healthy, "at {v} cm/s");
            assert!(!mf.faults.loop_saturated, "at {v} cm/s");
        }
    }

    #[test]
    fn frame_phase_tracks_scalar_ticks() {
        let mut m = meter(9);
        let e = env(0.0);
        assert_eq!(m.frame_phase(), 0);
        for i in 1..=m.ticks_per_frame() {
            m.step(e);
            assert_eq!(m.frame_phase(), i % m.ticks_per_frame());
        }
    }

    #[test]
    fn loop_reaches_overheat_setpoint() {
        let mut m = meter(1);
        m.run(0.5, env(50.0));
        let t_wire = m.die().heater_temperature(HeaterId::A);
        // Target: 15 °C fluid + 15 K overheat = 30 °C (±1 K: direction
        // asymmetry and in-amp offset shift the balance slightly).
        assert!(
            (t_wire.get() - 30.0).abs() < 1.5,
            "wire settled at {t_wire}"
        );
    }

    #[test]
    fn supply_rises_with_flow() {
        let mut m = meter(2);
        let slow = m.run(0.4, env(20.0)).unwrap();
        let fast = m.run(0.4, env(200.0)).unwrap();
        assert!(
            fast.supply_code > slow.supply_code + 100,
            "supply {} → {}",
            slow.supply_code,
            fast.supply_code
        );
    }

    #[test]
    fn velocity_tracks_true_flow_with_factory_calibration() {
        let mut m = meter(3);
        for v in [30.0, 100.0, 200.0] {
            let meas = m.run(1.0, env(v)).unwrap();
            let measured = meas.speed.to_cm_per_s();
            assert!(
                (measured - v).abs() < 0.25 * v + 5.0,
                "true {v} cm/s measured {measured:.1} cm/s"
            );
        }
    }

    #[test]
    fn field_calibration_beats_factory() {
        let mut m = meter(4);
        let base_env = env(0.0);
        let points: Vec<CalPoint> = [10.0, 40.0, 80.0, 130.0, 180.0, 230.0]
            .iter()
            .map(|&v| {
                m.record_calibration_point(MetersPerSecond::from_cm_per_s(v), base_env, 0.3, 0.2)
            })
            .collect();
        m.calibrate(&points).unwrap();
        // After calibration, mid-range accuracy should be a few per cent.
        let meas = m.run(1.0, env(100.0)).unwrap();
        let measured = meas.speed.to_cm_per_s();
        assert!(
            (measured - 100.0).abs() < 8.0,
            "calibrated reading {measured:.1} cm/s at 100 cm/s"
        );
    }

    #[test]
    fn direction_detected_both_ways() {
        let mut m = meter(5);
        let fwd = m.run(0.6, env(80.0)).unwrap();
        assert_eq!(fwd.direction, FlowDirection::Forward, "forward flow");
        assert!(fwd.velocity.get() > 0.0);
        let rev = m.run(1.0, env(-80.0)).unwrap();
        assert_eq!(rev.direction, FlowDirection::Reverse, "reverse flow");
        assert!(rev.velocity.get() < 0.0);
    }

    #[test]
    fn measurements_arrive_at_control_rate() {
        let mut m = meter(6);
        let mut count = 0;
        let e = env(50.0);
        for _ in 0..64 * 50 {
            if m.step(e).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 50);
    }

    #[test]
    fn calibration_survives_power_cycle() {
        let mut m = meter(7);
        let points: Vec<CalPoint> = [20.0, 80.0, 150.0, 220.0]
            .iter()
            .map(|&v| {
                m.record_calibration_point(MetersPerSecond::from_cm_per_s(v), env(0.0), 0.3, 0.2)
            })
            .collect();
        let fitted = *m.calibrate(&points).unwrap();
        // Clear in-RAM calibration, then reload from EEPROM.
        m.calibration = None;
        m.reload_calibration().unwrap();
        assert_eq!(*m.calibration().unwrap(), fitted);
    }

    #[test]
    fn warmer_fluid_does_not_break_ct_loop() {
        let mut m = meter(8);
        m.run(0.5, env(100.0));
        let warm = SensorEnvironment {
            fluid_temperature: Celsius::new(25.0),
            ..env(100.0)
        };
        let meas = m.run(2.0, warm).unwrap();
        // CT mode with temperature compensation: reading stays within
        // several per cent despite the 10 K fluid shift.
        let measured = meas.speed.to_cm_per_s();
        assert!(
            (measured - 100.0).abs() < 20.0,
            "CT reading at 25 °C fluid: {measured:.1} cm/s"
        );
    }

    #[test]
    fn fluid_temperature_estimated_through_rt_arm() {
        let mut m = meter(30);
        m.run(0.5, env(50.0));
        assert!(
            (m.fluid_temperature_estimate().get() - 15.0).abs() < 1.0,
            "estimate {} at 15 °C fluid",
            m.fluid_temperature_estimate()
        );
        let warm = SensorEnvironment {
            fluid_temperature: Celsius::new(28.0),
            ..env(50.0)
        };
        m.run(2.0, warm);
        assert!(
            (m.fluid_temperature_estimate().get() - 28.0).abs() < 1.5,
            "estimate {} at 28 °C fluid",
            m.fluid_temperature_estimate()
        );
    }

    /// The film-law memo returns what a fresh derivation would, and a
    /// memo taken for another overheat is not used.
    #[test]
    fn film_law_memo_matches_a_fresh_derivation() {
        let mut m = meter(41);
        assert!(m.compensates_temperature());
        m.run(0.3, env(60.0));
        let cal = *m.calibration().unwrap();
        let fresh = cal.film_law(m.config.calibration_temperature);
        assert_eq!(m.cal_film_law, Some((cal.overheat.get().to_bits(), fresh)));
        let memoised = m.instantaneous_speed();
        assert!(memoised.get() > 0.0);
        m.cal_film_law = None;
        assert_eq!(
            m.instantaneous_speed().get().to_bits(),
            memoised.get().to_bits()
        );
        m.cal_film_law = Some((
            (cal.overheat.get() + 1.0).to_bits(),
            cal.film_law(Celsius::new(60.0)),
        ));
        assert_eq!(
            m.instantaneous_speed().get().to_bits(),
            memoised.get().to_bits()
        );
    }

    #[test]
    fn compensation_beats_uncompensated_under_fluid_shift() {
        // At 2 bar the outgassing onset (~48 °C) stays above the wall even
        // with 30 °C fluid, so this isolates the thermal-compensation effect
        // from the bubble failure mode.
        let at_2bar = |v: f64, t: f64| SensorEnvironment {
            velocity: MetersPerSecond::from_cm_per_s(v),
            fluid_temperature: Celsius::new(t),
            pressure: hotwire_units::Pascals::from_bar(2.0),
        };
        let run_with = |compensate: bool| {
            let cfg = FlowMeterConfig {
                temperature_compensation: compensate,
                ..FlowMeterConfig::test_profile()
            };
            let mut m = FlowMeter::new(cfg, MafParams::nominal(), 31).unwrap();
            m.run(1.0, at_2bar(100.0, 15.0));
            let baseline = m
                .run(1.0, at_2bar(100.0, 15.0))
                .unwrap()
                .speed
                .to_cm_per_s();
            m.run(4.0, at_2bar(100.0, 30.0));
            let shifted = m
                .run(2.0, at_2bar(100.0, 30.0))
                .unwrap()
                .speed
                .to_cm_per_s();
            (shifted - baseline).abs()
        };
        let with = run_with(true);
        let without = run_with(false);
        assert!(
            with < 0.6 * without,
            "compensated drift {with:.1} cm/s vs uncompensated {without:.1} cm/s"
        );
    }

    #[test]
    fn pulsed_mode_produces_measurements_and_less_power() {
        let cfg = FlowMeterConfig {
            pulsed: Some(crate::config::PulsedConfig {
                period_ticks: 50,
                duty: 0.3,
            }),
            ..FlowMeterConfig::test_profile()
        };
        let mut pulsed = FlowMeter::new(cfg, MafParams::nominal(), 9).unwrap();
        let mut continuous = meter(9);
        let e = env(100.0);
        // Average supply power over the run.
        let mut p_pulsed = 0.0;
        let mut p_cont = 0.0;
        let mut n = 0;
        for _ in 0..64 * 1000 {
            pulsed.step(e);
            continuous.step(e);
            p_pulsed += pulsed.platform.supply_voltage().get().powi(2);
            p_cont += continuous.platform.supply_voltage().get().powi(2);
            n += 1;
        }
        assert!(n > 0);
        assert!(
            p_pulsed < 0.6 * p_cont,
            "pulsed V² {p_pulsed} vs continuous {p_cont}"
        );
        assert!(pulsed.last_measurement().is_some());
    }

    #[test]
    fn watchdog_stays_quiet_in_healthy_loop() {
        let mut m = meter(10);
        m.run(0.5, env(50.0));
        assert_eq!(m.platform_mut().watchdog_mut().reset_count(), 0);
    }

    #[test]
    fn auto_zero_tightens_direction_deadband() {
        let cfg = FlowMeterConfig {
            direction_deadband: 80,
            ..FlowMeterConfig::test_profile()
        };
        let mut m = FlowMeter::new(cfg, MafParams::nominal(), 21).unwrap();
        m.auto_zero_direction(0.5, SensorEnvironment::still_water());
        // The in-amp offset (~130 codes) must have been learned.
        assert!(
            m.direction_offset().abs() > 40.0,
            "offset {} suspiciously small",
            m.direction_offset()
        );
        // With the offset removed, still water stays indeterminate even at
        // the tight deadband.
        let meas = m.run(0.5, env(0.0)).unwrap();
        assert_eq!(meas.direction, FlowDirection::Indeterminate);
        // And real flow still resolves.
        let meas = m.run(0.6, env(60.0)).unwrap();
        assert_eq!(meas.direction, FlowDirection::Forward);
    }

    #[test]
    fn corrupt_primary_calibration_falls_back_to_mirror() {
        let mut m = meter(11);
        let points: Vec<CalPoint> = [20.0, 80.0, 150.0, 220.0]
            .iter()
            .map(|&v| {
                m.record_calibration_point(MetersPerSecond::from_cm_per_s(v), env(0.0), 0.3, 0.2)
            })
            .collect();
        let fitted = *m.calibrate(&points).unwrap();
        // Bit-flip the primary record; its CRC check must now fail…
        m.platform_mut()
            .eeprom_mut()
            .corrupt(KingCalibration::EEPROM_SLOT, 3);
        m.calibration = None;
        // …but the reload degrades to the redundant mirror instead of dying.
        m.reload_calibration().unwrap();
        assert_eq!(*m.calibration().unwrap(), fitted);
        assert_eq!(m.health(), crate::health::HealthState::Recovering);
        // The primary was repaired in place from the mirror.
        assert_eq!(
            KingCalibration::recover(m.platform_mut().eeprom_mut()).unwrap(),
            (fitted, crate::obs::CalSlot::Primary)
        );
    }

    #[test]
    fn double_calibration_corruption_is_unrecoverable() {
        let mut m = meter(12);
        let points: Vec<CalPoint> = [20.0, 100.0, 200.0]
            .iter()
            .map(|&v| {
                m.record_calibration_point(MetersPerSecond::from_cm_per_s(v), env(0.0), 0.3, 0.2)
            })
            .collect();
        m.calibrate(&points).unwrap();
        m.platform_mut()
            .eeprom_mut()
            .corrupt(KingCalibration::EEPROM_SLOT, 2);
        m.platform_mut()
            .eeprom_mut()
            .corrupt(KingCalibration::REDUNDANT_SLOT, 2);
        assert!(m.reload_calibration().is_err());
        assert_eq!(m.health(), crate::health::HealthState::Faulted);
    }

    #[test]
    fn stuck_adc_starves_watchdog_into_recovering() {
        let mut m = meter(13);
        m.run(0.5, env(50.0));
        assert_eq!(m.health(), crate::health::HealthState::Healthy);
        assert_eq!(m.platform_mut().watchdog_mut().reset_count(), 0);
        // Freeze the CTA channel: the firmware must stop kicking and let
        // the watchdog expire into a soft reset.
        m.inject_adc_fault(Some(AdcFault::Stuck(1234)));
        m.run(0.2, env(50.0));
        assert!(
            m.platform_mut().watchdog_mut().reset_count() > 0,
            "watchdog never expired on a frozen channel"
        );
        assert_eq!(m.health(), crate::health::HealthState::Recovering);
        // Clearing the fault lets the kicks resume and health return.
        m.inject_adc_fault(None);
        m.run(1.0, env(50.0));
        assert_eq!(m.health(), crate::health::HealthState::Healthy);
    }

    #[test]
    fn offset_adc_fault_does_not_trip_the_watchdog() {
        let mut m = meter(14);
        m.run(0.3, env(50.0));
        m.inject_adc_fault(Some(AdcFault::Offset(300)));
        m.run(0.3, env(50.0));
        // Codes still carry noise, so the freeze discriminator stays quiet.
        assert_eq!(m.platform_mut().watchdog_mut().reset_count(), 0);
    }

    #[test]
    fn flow_meter_trait_delegation_matches_inherent() {
        let config = FlowMeterConfig::test_profile();
        let mut a = FlowMeter::new(config, MafParams::nominal(), 7).unwrap();
        let mut b = FlowMeter::new(config, MafParams::nominal(), 7).unwrap();
        let env = SensorEnvironment::still_water();
        for _ in 0..3 {
            // Inherent path on `a`, trait path on `b`.
            let ma = FlowMeter::step_frame(&mut a, env);
            let mb = Meter::step_frame(&mut b, env);
            assert_eq!(ma, mb);
        }
        assert_eq!(
            FlowMeter::state_digest(&a),
            Meter::state_digest(&b),
            "trait delegation must not perturb the trajectory"
        );
        assert_eq!(
            Meter::control_period(&a).get(),
            config.decimation as f64 / config.modulator_rate.get()
        );
        assert_eq!(Meter::full_scale(&a), config.full_scale);
    }

    #[test]
    fn supply_hooks_save_and_restore() {
        let mut m = meter(3);
        let nominal = m.platform_mut().supply_dac().vref().get();
        let saved = m.degrade_supply(0.5);
        assert!(saved.is_some());
        let sagged = m.platform_mut().supply_dac().vref().get();
        assert!((sagged - nominal * 0.5).abs() < 1e-12);
        m.restore_supply(saved);
        assert_eq!(m.platform_mut().supply_dac().vref().get(), nominal);
        // The None case must leave the rail untouched (matches the
        // injector's historical `if let Some` revert).
        m.restore_supply(None);
        assert_eq!(m.platform_mut().supply_dac().vref().get(), nominal);
    }

    #[test]
    fn flow_meter_is_send() {
        // The campaign executor in `hotwire_rig` moves meters into scoped
        // worker threads; this assertion is the documented contract.
        fn assert_send<T: Send>() {}
        assert_send::<FlowMeter>();
        assert_send::<Measurement>();
    }

    #[test]
    fn replica_reconstruction_is_bit_identical() {
        let mut original = meter(77);
        let mut replica = FlowMeter::new(
            *original.config(),
            *original.die().params(),
            original.build_seed(),
        )
        .unwrap();
        let e = env(90.0);
        let a = original.run(0.3, e).unwrap();
        let b = replica.run(0.3, e).unwrap();
        assert_eq!(a.supply_code, b.supply_code);
        assert_eq!(a.conditioned_code, b.conditioned_code);
        assert_eq!(a.velocity, b.velocity);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = meter(42);
        let mut b = meter(42);
        let e = env(70.0);
        let ma = a.run(0.3, e).unwrap();
        let mb = b.run(0.3, e).unwrap();
        assert_eq!(ma.supply_code, mb.supply_code);
        assert_eq!(ma.conditioned_code, mb.conditioned_code);
    }
}
