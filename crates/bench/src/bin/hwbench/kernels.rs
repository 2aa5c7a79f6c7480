//! Standalone replays of the meter's inner kernels and the runner's
//! reference instruments, at the call shapes the meter and the runner use.
//!
//! The trait boundary only shows a whole control frame; these replays
//! split it. Each kernel is called through its public API on inputs taken
//! from a settled meter, so the numbers are estimates of the in-meter
//! cost (caches and branch history differ from the interleaved original).
//! On the fast tier the firmware residual is what the frame costs beyond
//! them; on the exact tier the kernels are ~99 % of the frame and the
//! residual is below the replays' own error, so it is not reported.
//!
//! The replays use fixed profiles and a fixed seed: they do not depend on
//! the workload or on `--seed`.

use crate::report::median;
use crate::workloads::Params;
use hotwire_core::config::AfeTier;
use hotwire_core::cta::SUPPLY_CODE_MAX;
use hotwire_core::{FlowMeter, FlowMeterConfig};
use hotwire_dsp::{PiController, Q16};
use hotwire_isif::{ChannelConfig, InputChannel};
use hotwire_physics::sensor::HeaterId;
use hotwire_physics::{MafParams, SensorEnvironment};
use hotwire_rig::{Promag50, Scenario, TurbineMeter, WaterLine};
use hotwire_units::{Hertz, MetersPerSecond, Seconds};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Seed of every replayed component.
const SEED: u64 = 0x4B45_524E;
/// Frames a replay meter runs before it is measured (the loop settles).
const WARMUP_FRAMES: u32 = 500;
/// Repeats of each timed batch; the median batch is reported.
const REPEATS: usize = 5;

/// An [`RngCore`] that counts the 32- and 64-bit words drawn through it.
#[derive(Debug)]
pub struct Counting<R> {
    pub inner: R,
    pub words: u64,
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.words += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

fn counting_rng() -> Counting<StdRng> {
    Counting {
        inner: StdRng::seed_from_u64(SEED),
        words: 0,
    }
}

/// Nanoseconds per call of `f` over one timed batch of `calls` calls.
fn batch_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
}

/// Median nanoseconds per call of `f` over `REPEATS` batches of `calls`.
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..REPEATS).map(|_| batch_ns(calls, &mut f)).collect();
    median(&batches)
}

fn env() -> SensorEnvironment {
    SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(120.0),
        ..SensorEnvironment::still_water()
    }
}

fn settled_meter(config: FlowMeterConfig) -> Result<FlowMeter, String> {
    let mut meter =
        FlowMeter::new(config, MafParams::nominal(), SEED).map_err(|e| e.to_string())?;
    for _ in 0..WARMUP_FRAMES {
        meter.step_frame(env());
    }
    Ok(meter)
}

/// The channel `FlowMeter::new` configures for `config`.
fn channel(config: &FlowMeterConfig) -> Result<InputChannel, String> {
    let default = ChannelConfig::maf_bridge();
    let channel = ChannelConfig {
        decimation: config.decimation,
        antialias_corner: Hertz::new(
            default
                .antialias_corner
                .get()
                .min(config.modulator_rate.get() / 8.0),
        ),
        ..default
    };
    InputChannel::new(channel, config.modulator_rate).map_err(|e| e.to_string())
}

/// Per-tier frame costs and the kernel estimates that split them (medians
/// over the repeats).
struct Tier {
    step_frame_ns: f64,
    die_step_ns: f64,
    die_draws: f64,
    bridge_solve_ns: f64,
    noise_ns: f64,
    noise_draws: f64,
    sample_block_ns: f64,
    dc_code_ns: f64,
    pi_update_ns: f64,
    /// Fast-tier frame cost beyond the kernels the frame calls (`None` on
    /// the exact tier).
    residual_ns: Option<f64>,
}

/// Kernel batches of one repeat, in nanoseconds per call.
struct Repeat {
    frame: f64,
    die: f64,
    bridge: f64,
    noise: f64,
    block: f64,
    dc: f64,
    pi: f64,
}

impl Repeat {
    /// The kernels one fast-tier frame calls, summed: two bridge solves,
    /// one frame-spanning die step, three quasi-static channel codes and
    /// one PI update.
    fn fast_kernels(&self) -> f64 {
        2.0 * self.bridge + self.die + 3.0 * self.dc + self.pi
    }
}

/// Replays `config`'s frame and its kernels. Each repeat times one batch
/// of every kernel right after a batch of whole frames, so the fast-tier
/// residual is taken between numbers measured under the same machine
/// conditions.
fn tier(config: FlowMeterConfig, frames: u32, shrink: u32) -> Result<Tier, String> {
    let mut meter = settled_meter(config)?;

    // Inputs of the settled operating point.
    let supply = meter.platform_mut().supply_voltage();
    let mut die = meter.die().clone();
    let bridge = *meter.bridge();
    let (rh_a, rh_b, rt) = (
        die.heater_resistance(HeaterId::A),
        die.heater_resistance(HeaterId::B),
        die.reference_resistance(),
    );
    let out_a = bridge.solve(supply, rh_a, rt);
    let out_b = bridge.solve(supply, rh_b, rt);
    let tick = config.modulator_rate.period();
    let die_dt = match config.afe_tier {
        AfeTier::Exact => tick,
        AfeTier::Fast => Seconds::new(tick.get() * f64::from(config.decimation)),
    };
    let mut die_rng = counting_rng();
    let mut chan = channel(&config)?;
    let mut chan_rng = counting_rng();
    let depth = config.decimation as usize;
    let diffs = vec![out_a.differential.get(); depth];
    let noises: Vec<f64> = (0..depth).map(|_| chan.draw_noise(&mut chan_rng)).collect();
    let mut bits = vec![0i32; depth];
    let mut codes = Vec::with_capacity(1);
    let mut pi = PiController::new(
        Q16::from_f64(config.kp),
        Q16::from_f64(config.ki),
        config.supply_code_min as i32,
        SUPPLY_CODE_MAX,
    )
    .map_err(|e| e.to_string())?;
    let mut error = 0i32;

    let (die_calls, noise_calls) = (20_000 / shrink, 200_000 / shrink);
    let mut noise_words = 0;
    let mut repeats = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let frame = batch_ns(frames / shrink, || {
            black_box(meter.step_frame(black_box(env())));
        });
        let die = batch_ns(die_calls, || {
            die.step(
                die_dt,
                out_a.heater_power,
                out_b.heater_power,
                env(),
                &mut die_rng,
            );
        });
        let bridge = batch_ns(200_000 / shrink, || {
            black_box(bridge.solve(black_box(supply), black_box(rh_a), black_box(rt)));
        });
        let words = chan_rng.words;
        let noise = batch_ns(noise_calls, || {
            black_box(chan.draw_noise(&mut chan_rng));
        });
        noise_words += chan_rng.words - words;
        let block = batch_ns(2_000 / shrink, || {
            codes.clear();
            chan.sample_block(&diffs, &noises, &mut bits, 0.0, &mut codes);
            black_box(&codes);
        });
        let dc = batch_ns(noise_calls, || {
            black_box(chan.dc_code(black_box(out_a.differential), 0.0, &mut chan_rng));
        });
        let pi = batch_ns(1_000_000 / shrink, || {
            error = (error + 237).rem_euclid(401) - 200;
            black_box(pi.update(black_box(error)));
        });
        repeats.push(Repeat {
            frame,
            die,
            bridge,
            noise,
            block,
            dc,
            pi,
        });
    }
    let med = |f: fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
    let calls = |per_repeat: u32| f64::from(per_repeat) * REPEATS as f64;
    Ok(Tier {
        step_frame_ns: med(|r| r.frame),
        die_step_ns: med(|r| r.die),
        die_draws: die_rng.words as f64 / calls(die_calls),
        bridge_solve_ns: med(|r| r.bridge),
        noise_ns: med(|r| r.noise),
        noise_draws: noise_words as f64 / calls(noise_calls),
        sample_block_ns: med(|r| r.block),
        dc_code_ns: med(|r| r.dc),
        pi_update_ns: med(|r| r.pi),
        residual_ns: matches!(config.afe_tier, AfeTier::Fast)
            .then(|| med(|r| r.frame - r.fast_kernels())),
    })
}

/// The factor smoke runs divide every replay's call counts by.
pub fn shrink(p: &Params) -> u32 {
    if p.smoke {
        20
    } else {
        1
    }
}

/// Runs every replay (with call counts divided by `shrink`); returns `(metric name, value)` pairs named as in
/// [`crate::report::PER_LAYER`].
pub fn measure(shrink: u32) -> Result<Vec<(&'static str, f64)>, String> {
    let exact = tier(FlowMeterConfig::water_station(), 1_000, shrink)?;
    let fast_config = FlowMeterConfig {
        afe_tier: AfeTier::Fast,
        ..FlowMeterConfig::test_profile()
    };
    let fast = tier(fast_config, 100_000, shrink)?;

    let control_dt =
        Seconds::new(f64::from(fast_config.decimation) / fast_config.modulator_rate.get());
    let mut line = WaterLine::new(Scenario::steady(100.0, f64::MAX), SEED);
    let line_step_ns = ns_per_call(200_000 / shrink, || {
        black_box(line.step(control_dt));
    });
    let bulk = MetersPerSecond::from_cm_per_s(100.0);
    let mut promag = Promag50::new(fast_config.full_scale);
    let mut rng = StdRng::seed_from_u64(SEED);
    let promag_step_ns = ns_per_call(200_000 / shrink, || {
        black_box(promag.step(control_dt, black_box(bulk), &mut rng));
    });
    let mut turbine = TurbineMeter::dn50();
    let turbine_step_ns = ns_per_call(200_000 / shrink, || {
        black_box(turbine.step(control_dt, black_box(bulk)));
    });

    let ticks = f64::from(FlowMeterConfig::water_station().decimation);
    Ok(vec![
        ("physics.die_step_ns", exact.die_step_ns),
        ("physics.die_rng_draws", exact.die_draws),
        ("afe.bridge_solve_ns", exact.bridge_solve_ns),
        ("isif.draw_noise_ns", exact.noise_ns),
        ("isif.sample_block_ns", exact.sample_block_ns),
        ("isif.dc_code_ns", fast.dc_code_ns),
        ("dsp.pi_update_ns", exact.pi_update_ns),
        (
            "rng.draws_per_frame.exact",
            ticks * (exact.die_draws + 3.0 * exact.noise_draws),
        ),
        (
            "rng.draws_per_frame.fast",
            fast.die_draws + 3.0 * fast.noise_draws,
        ),
        ("core.step_frame_ns.exact", exact.step_frame_ns),
        ("core.step_frame_ns.fast", fast.step_frame_ns),
        (
            "core.firmware_residual_ns_per_frame.fast",
            fast.residual_ns.ok_or("the fast tier has a residual")?,
        ),
        ("rig.line.step_ns", line_step_ns),
        ("rig.promag.step_ns", promag_step_ns),
        ("rig.turbine.step_ns", turbine_step_ns),
    ])
}
