//! The instrumentation-amplifier readout stage.
//!
//! The paper: "The input channel is configured to operate as instrument
//! amplifier". The behavioural model carries the error terms that matter for
//! the resolution claims: programmable gain with gain error, input offset
//! with temperature drift, single-pole bandwidth, input-referred white +
//! flicker noise, and saturation at the supply rails.

use crate::error::{ensure_in_range, ensure_positive};
use crate::noise::FlickerNoise;
use crate::AfeError;
use hotwire_units::{Hertz, Volts};
use rand::distributions::StandardNormal;
use rand::Rng;

/// Static instrumentation-amplifier parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InAmpConfig {
    /// Differential gain setting.
    pub gain: f64,
    /// Relative gain error (e.g. 0.002 = 0.2 %).
    pub gain_error: f64,
    /// Input-referred offset voltage.
    pub input_offset: Volts,
    /// Offset drift per kelvin of chip temperature (V/K).
    pub offset_drift_per_k: f64,
    /// −3 dB bandwidth of the closed-loop amplifier.
    pub bandwidth: Hertz,
    /// Input-referred white-noise density, V/√Hz.
    pub noise_density: f64,
    /// Input-referred flicker-noise rms over the signal band, V.
    pub flicker_rms: Volts,
    /// Output saturation rails (symmetric, ±).
    pub rail: Volts,
}

impl InAmpConfig {
    /// The ISIF channel configured for the MAF bridge: gain 50, ~10 nV/√Hz,
    /// 0.2 mV offset, 100 kHz bandwidth, ±2.5 V rails (0.35 µm BCD supply).
    pub fn isif_default() -> Self {
        InAmpConfig {
            gain: 50.0,
            gain_error: 0.002,
            input_offset: Volts::from_millivolts(0.2),
            offset_drift_per_k: 2.0e-6,
            bandwidth: Hertz::from_kilohertz(100.0),
            noise_density: 10.0e-9,
            flicker_rms: Volts::new(0.4e-6),
            rail: Volts::new(2.5),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for non-positive gain/bandwidth/rails or a gain
    /// error above 10 %.
    pub fn validate(&self) -> Result<(), AfeError> {
        ensure_positive("gain", self.gain)?;
        ensure_in_range("gain_error", self.gain_error, -0.1, 0.1)?;
        ensure_positive("bandwidth", self.bandwidth.get())?;
        ensure_positive("rail", self.rail.get())?;
        ensure_in_range("noise_density", self.noise_density, 0.0, 1e-3)?;
        Ok(())
    }
}

impl Default for InAmpConfig {
    fn default() -> Self {
        InAmpConfig::isif_default()
    }
}

/// The stateful amplifier (bandwidth pole + flicker generator).
#[derive(Debug, Clone)]
pub struct InstrumentationAmp {
    pub(crate) config: InAmpConfig,
    /// Output-pole state.
    pub(crate) output_state: f64,
    flicker: FlickerNoise,
    /// Discrete pole coefficient `1 − exp(−2π·bw/fs)`, a pure function of
    /// the configuration — precomputed once so the per-sample path carries
    /// no `exp`.
    pub(crate) alpha: f64,
    /// Per-sample white-noise rms at the configured sample rate.
    white_rms: Volts,
}

impl InstrumentationAmp {
    /// Creates an amplifier stepped at `sample_rate` (the ΣΔ modulator
    /// clock).
    ///
    /// # Errors
    ///
    /// Returns [`AfeError`] for an invalid configuration or non-positive
    /// sample rate.
    pub fn new(config: InAmpConfig, sample_rate: Hertz) -> Result<Self, AfeError> {
        config.validate()?;
        ensure_positive("sample_rate", sample_rate.get())?;
        // White noise folded into the Nyquist band of the sampler.
        let white_rms = Volts::new(config.noise_density * (sample_rate.get() / 2.0).sqrt());
        let alpha =
            1.0 - (-core::f64::consts::TAU * config.bandwidth.get() / sample_rate.get()).exp();
        Ok(InstrumentationAmp {
            flicker: FlickerNoise::new(config.flicker_rms.get(), sample_rate.get()),
            config,
            output_state: 0.0,
            alpha,
            white_rms,
        })
    }

    /// Amplifies one differential sample. `chip_overtemp_k` is the chip
    /// temperature rise above the 25 °C characterization point (drives offset
    /// drift).
    pub fn amplify<R: Rng + ?Sized>(
        &mut self,
        v_diff: Volts,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> Volts {
        let noise = self.draw_noise(rng);
        self.amplify_with_noise(v_diff, chip_overtemp_k, noise)
    }

    /// Draws the input-referred noise sample (white + flicker) for one tick
    /// — exactly the draws [`amplify`](Self::amplify) makes internally,
    /// split out so a block caller can pre-draw per-block noise sequences
    /// in the scalar RNG order. Two standard normals, white then flicker,
    /// fed to [`noise_from_normals`](Self::noise_from_normals).
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        let white = rng.sample(StandardNormal);
        let flicker = rng.sample(StandardNormal);
        self.noise_from_normals(white, flicker)
    }

    /// The noise formula: one tick's input-referred noise from its two
    /// standard normals — the white one scaled to the white rms, the
    /// flicker one through the flicker filter (whose state it advances).
    #[inline]
    pub fn noise_from_normals(&mut self, white: f64, flicker: f64) -> f64 {
        self.white_rms.get() * white + self.flicker.filter(flicker)
    }

    /// Forms `N` amplifiers' noise lanes in one pass over pre-drawn
    /// standard normals. `normals` is tick-major: per tick, lane 0's white
    /// and flicker normals, then lane 1's, and so on — the order `N`
    /// [`draw_noise`](Self::draw_noise) calls per tick, in lane order, draw
    /// them. Each lane gets exactly the values (and each amplifier ends in
    /// exactly the flicker state) those calls would give. The amplifiers
    /// are copied into locals for the pass so their filter states stay in
    /// registers.
    ///
    /// # Panics
    ///
    /// Panics unless `normals` holds `2·N` values per tick for as many
    /// ticks as every lane has elements.
    pub fn noise_lanes<const N: usize>(
        amps: [&mut InstrumentationAmp; N],
        normals: &[f64],
        lanes: [&mut [f64]; N],
    ) {
        let depth = lanes.first().map_or(0, |lane| lane.len());
        assert_eq!(
            normals.len(),
            2 * N * depth,
            "two normals per lane and tick"
        );
        let lanes = lanes.map(|lane| &mut lane[..depth]);
        let mut local: [InstrumentationAmp; N] = core::array::from_fn(|l| amps[l].clone());
        for (k, z) in normals.chunks_exact(2 * N).enumerate() {
            for l in 0..N {
                lanes[l][k] = local[l].noise_from_normals(z[2 * l], z[2 * l + 1]);
            }
        }
        for (amp, local) in amps.into_iter().zip(local) {
            *amp = local;
        }
    }

    /// Amplifies one sample whose noise was already drawn with
    /// [`draw_noise`](Self::draw_noise). Together the pair is bit-identical
    /// to [`amplify`](Self::amplify).
    pub fn amplify_with_noise(&mut self, v_diff: Volts, chip_overtemp_k: f64, noise: f64) -> Volts {
        let offset =
            self.config.input_offset.get() + self.config.offset_drift_per_k * chip_overtemp_k;
        let ideal =
            (v_diff.get() + offset + noise) * self.config.gain * (1.0 + self.config.gain_error);
        // Single-pole bandwidth limit at the sampler rate.
        self.output_state += self.alpha * (ideal - self.output_state);
        Volts::new(
            self.output_state
                .clamp(-self.config.rail.get(), self.config.rail.get()),
        )
    }

    /// Amplifies a block of differential samples in place, consuming a
    /// pre-drawn `noises` slice ([`draw_noise`](Self::draw_noise), one per
    /// sample). Bit-identical to calling
    /// [`amplify_with_noise`](Self::amplify_with_noise) per element — the
    /// pole state is hoisted into locals so the loop runs over registers.
    ///
    /// # Panics
    ///
    /// Panics if `samples` and `noises` differ in length.
    pub fn amplify_block(&mut self, samples: &mut [f64], noises: &[f64], chip_overtemp_k: f64) {
        assert_eq!(samples.len(), noises.len());
        let offset =
            self.config.input_offset.get() + self.config.offset_drift_per_k * chip_overtemp_k;
        let gain = self.config.gain;
        let gain_scale = 1.0 + self.config.gain_error;
        let alpha = self.alpha;
        let rail = self.config.rail.get();
        let mut state = self.output_state;
        for (s, &n) in samples.iter_mut().zip(noises) {
            let ideal = (*s + offset + n) * gain * gain_scale;
            state += alpha * (ideal - state);
            *s = state.clamp(-rail, rail);
        }
        self.output_state = state;
    }

    /// The amplifier's DC transfer — offset, gain and rail clamp with no
    /// pole dynamics. The fast AFE tier uses this to map a quasi-static
    /// bridge voltage straight to the output level the full chain would
    /// settle to.
    pub fn dc_output(&self, v_diff: Volts, chip_overtemp_k: f64, noise: f64) -> Volts {
        let offset =
            self.config.input_offset.get() + self.config.offset_drift_per_k * chip_overtemp_k;
        let ideal =
            (v_diff.get() + offset + noise) * self.config.gain * (1.0 + self.config.gain_error);
        Volts::new(ideal.clamp(-self.config.rail.get(), self.config.rail.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xF00D)
    }

    fn quiet_config() -> InAmpConfig {
        InAmpConfig {
            gain_error: 0.0,
            input_offset: Volts::ZERO,
            offset_drift_per_k: 0.0,
            noise_density: 0.0,
            flicker_rms: Volts::ZERO,
            ..InAmpConfig::isif_default()
        }
    }

    #[test]
    fn dc_gain() {
        let mut amp =
            InstrumentationAmp::new(quiet_config(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::from_millivolts(10.0), 0.0, &mut r);
        }
        assert!((y.get() - 0.5).abs() < 1e-6, "out {y}");
    }

    #[test]
    fn offset_is_amplified() {
        let cfg = InAmpConfig {
            input_offset: Volts::from_millivolts(1.0),
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::ZERO, 0.0, &mut r);
        }
        assert!((y.get() - 0.05).abs() < 1e-6, "offset out {y}");
    }

    #[test]
    fn offset_drifts_with_chip_temperature() {
        let cfg = InAmpConfig {
            offset_drift_per_k: 10e-6,
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut cold = Volts::ZERO;
        let mut hot = Volts::ZERO;
        for _ in 0..10_000 {
            cold = amp.amplify(Volts::ZERO, 0.0, &mut r);
        }
        amp.output_state = 0.0;
        for _ in 0..10_000 {
            hot = amp.amplify(Volts::ZERO, 20.0, &mut r);
        }
        // 20 K × 10 µV/K × gain 50 = 10 mV shift.
        assert!(((hot - cold).get() - 0.01).abs() < 1e-5);
    }

    #[test]
    fn saturates_at_rails() {
        let mut amp =
            InstrumentationAmp::new(quiet_config(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut y = Volts::ZERO;
        for _ in 0..10_000 {
            y = amp.amplify(Volts::new(1.0), 0.0, &mut r);
        }
        assert_eq!(y.get(), 2.5);
    }

    #[test]
    fn bandwidth_attenuates_fast_input() {
        // A 20 kHz pole stepped at 256 kHz: the discrete pole's Nyquist gain
        // is α/(2−α) ≈ 0.24, so a ±10 mV (→ ±0.5 V after gain) alternating
        // input must come out well under 0.15 V.
        let cfg = InAmpConfig {
            bandwidth: Hertz::from_kilohertz(20.0),
            ..quiet_config()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut peak: f64 = 0.0;
        for i in 0..20_000 {
            let x = if i % 2 == 0 { 1e-2 } else { -1e-2 };
            let y = amp.amplify(Volts::new(x), 0.0, &mut r);
            if i > 10_000 {
                peak = peak.max(y.get().abs());
            }
        }
        assert!(peak < 0.15, "128 kHz leakage {peak} V");
        assert!(peak > 0.0);
    }

    #[test]
    fn white_noise_draws_have_the_configured_rms() {
        let cfg = InAmpConfig {
            flicker_rms: Volts::ZERO,
            ..InAmpConfig::isif_default()
        };
        let mut amp = InstrumentationAmp::new(cfg, Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let n = 100_000;
        let sum2: f64 = (0..n).map(|_| amp.draw_noise(&mut r).powi(2)).sum();
        let measured = (sum2 / n as f64).sqrt();
        let rms = amp.white_rms.get();
        assert!(
            (measured / rms - 1.0).abs() < 0.02,
            "rms {measured} vs {rms}"
        );
    }

    #[test]
    fn noise_floor_scales_with_density() {
        let cfg = InAmpConfig {
            noise_density: 10e-9,
            flicker_rms: Volts::ZERO,
            input_offset: Volts::ZERO,
            ..InAmpConfig::isif_default()
        };
        let fs = Hertz::from_kilohertz(256.0);
        let amp = InstrumentationAmp::new(cfg, fs).unwrap();
        // 10 nV/√Hz over 128 kHz → 3.58 µV rms input-referred.
        assert!((amp.white_rms.get() - 3.58e-6).abs() < 0.05e-6);
    }

    /// Lanes formed from pre-drawn normals equal the per-tick
    /// `draw_noise` sequence, lane by lane and bit for bit, and leave every
    /// flicker filter in the state the scalar draws leave it in, across
    /// frames of different lengths.
    #[test]
    fn noise_lanes_match_draw_noise_in_lane_order() {
        use rand::distributions::StandardNormal;
        let fs = Hertz::from_kilohertz(256.0);
        let base = InAmpConfig::isif_default();
        let configs = [
            base,
            InAmpConfig {
                noise_density: 25e-9,
                flicker_rms: Volts::new(1.1e-6),
                ..base
            },
            InAmpConfig {
                noise_density: 0.0,
                flicker_rms: Volts::new(0.2e-6),
                ..base
            },
        ];
        let mut scalar = configs.map(|c| InstrumentationAmp::new(c, fs).unwrap());
        let mut batched = scalar.clone();
        let mut r = rng();
        for depth in [256usize, 1, 37, 256] {
            let mut normals = vec![0.0; 6 * depth];
            let mut drawn = r.clone();
            StandardNormal::fill(&mut drawn, &mut normals);
            let mut expected = vec![[0.0; 3]; depth];
            for tick in &mut expected {
                for (value, amp) in tick.iter_mut().zip(&mut scalar) {
                    *value = amp.draw_noise(&mut r);
                }
            }
            assert_eq!(drawn, r, "six normals per tick");

            let mut lanes: [Vec<f64>; 3] = core::array::from_fn(|_| vec![0.0; depth]);
            let [a, b, c] = &mut batched;
            let [la, lb, lc] = &mut lanes;
            InstrumentationAmp::noise_lanes([a, b, c], &normals, [la, lb, lc]);
            for (k, tick) in expected.iter().enumerate() {
                for l in 0..3 {
                    assert_eq!(
                        lanes[l][k].to_bits(),
                        tick[l].to_bits(),
                        "tick {k} lane {l}"
                    );
                }
            }
            for (b, s) in batched.iter().zip(&scalar) {
                assert_eq!(format!("{b:?}"), format!("{s:?}"));
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let bad = InAmpConfig {
            gain: 0.0,
            ..InAmpConfig::isif_default()
        };
        assert!(InstrumentationAmp::new(bad, Hertz::from_kilohertz(256.0)).is_err());
        assert!(InstrumentationAmp::new(InAmpConfig::isif_default(), Hertz::new(0.0)).is_err());
    }
}
