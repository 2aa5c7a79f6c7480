//! One analog input channel (paper Fig. 4).
//!
//! "The readout stage is composed by an operational amplifier that can be
//! programmed to implement a charge amplifier, a trans-resistive stage or an
//! instrument amplifier … Further stages perform … low-pass filtering for
//! anti-aliasing purpose. Eventually the signal is converted by a 16 bits
//! Sigma Delta ADC."
//!
//! The flow meter reads its bridge through the instrument amplifier, so that
//! is the one readout stage modelled here. The channel couples it and the
//! other AFE blocks with the first digital stage (the CIC decimator) so
//! callers push differential voltages at the modulator rate and receive
//! signed 16-bit words at the control rate.

use crate::IsifError;
use hotwire_afe::adc::SigmaDeltaModulator;
use hotwire_afe::filter::AntiAliasFilter;
use hotwire_afe::inamp::{InAmpConfig, InstrumentationAmp};
use hotwire_dsp::cic::CicDecimator;
use hotwire_units::{Hertz, Volts};
use rand::Rng;

/// Static channel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelConfig {
    /// Instrumentation-amplifier parameters (gain, offset, noise, …).
    pub inamp: InAmpConfig,
    /// Anti-alias corner.
    pub antialias_corner: Hertz,
    /// ΣΔ reference (full scale ±vref).
    pub vref: Volts,
    /// CIC order for the decimation chain.
    pub cic_order: usize,
    /// Decimation ratio modulator-rate → control-rate.
    pub decimation: u32,
}

impl ChannelConfig {
    /// The MAF-bridge channel: ISIF default in-amp, 30 kHz anti-alias,
    /// ±2.5 V, CIC³, decimate by 256.
    pub fn maf_bridge() -> Self {
        ChannelConfig {
            inamp: InAmpConfig::isif_default(),
            antialias_corner: Hertz::from_kilohertz(30.0),
            vref: Volts::new(2.5),
            cic_order: 3,
            decimation: 256,
        }
    }
}

/// A complete input channel: in-amp → anti-alias → ΣΔ → CIC.
#[derive(Debug)]
pub struct InputChannel {
    config: ChannelConfig,
    inamp: InstrumentationAmp,
    antialias: AntiAliasFilter,
    modulator: SigmaDeltaModulator,
    cic: CicDecimator,
    /// Scale factor turning the CIC's raw output into a signed 16-bit word.
    norm_shift: u32,
    /// Reusable buffer for the CIC's raw block outputs (no per-frame
    /// allocation on the block path).
    cic_scratch: Vec<i64>,
}

impl InputChannel {
    /// Builds a channel stepped at `modulator_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`IsifError::Config`] if any sub-block rejects its
    /// parameters.
    pub fn new(config: ChannelConfig, modulator_rate: Hertz) -> Result<Self, IsifError> {
        let inamp = InstrumentationAmp::new(config.inamp, modulator_rate)?;
        let antialias = AntiAliasFilter::new(config.antialias_corner, modulator_rate)?;
        let modulator = SigmaDeltaModulator::new(config.vref)?;
        let cic = CicDecimator::new(config.cic_order, config.decimation)?;
        // CIC gain is R^N for a ±1 input; map full scale to ±2^15.
        let gain_bits = (cic.gain() as f64).log2().ceil() as u32;
        let norm_shift = gain_bits.saturating_sub(15);
        Ok(InputChannel {
            config,
            inamp,
            antialias,
            modulator,
            cic,
            norm_shift,
            cic_scratch: Vec::new(),
        })
    }

    /// Pushes one modulator-rate differential input sample; returns a
    /// signed 16-bit word every `decimation` samples.
    ///
    /// `chip_overtemp_k` models platform self-heating (drives in-amp offset
    /// drift); the RNG feeds the noise sources.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        v_diff: Volts,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> Option<i32> {
        let amplified = self.inamp.amplify(v_diff, chip_overtemp_k, rng);
        let filtered = self.antialias.push(amplified);
        let bit = self.modulator.push(filtered);
        self.cic.push(bit).map(|raw| self.word(raw))
    }

    /// A raw CIC output as the signed 16-bit word the channel emits.
    #[inline]
    fn word(&self, raw: i64) -> i32 {
        ((raw >> self.norm_shift) as i32).clamp(-32768, 32767)
    }

    /// Draws the per-tick input-referred noise sample for this channel —
    /// exactly the RNG draws [`sample`](Self::sample) makes internally
    /// (white then flicker), split out so a frame caller can pre-draw noise
    /// lanes in the scalar draw order before running the block kernels.
    pub fn draw_noise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.inamp.draw_noise(rng)
    }

    /// Pushes a block of differential samples through the full chain (in-amp → anti-alias → ΣΔ → CIC), appending every
    /// decimated 16-bit word produced to `out`.
    ///
    /// `diffs` holds the differential inputs in volts; `noises` holds one
    /// pre-drawn [`draw_noise`](Self::draw_noise) value per tick; `bits` is
    /// scratch for the modulator bitstream. The one-channel instance of
    /// [`sample_blocks`](Self::sample_blocks), and like it bit-identical to
    /// the equivalent sequence of scalar [`sample`](Self::sample) calls
    /// whose noise was drawn in the same RNG order.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn sample_block(
        &mut self,
        diffs: &[f64],
        noises: &[f64],
        bits: &mut [i32],
        chip_overtemp_k: f64,
        out: &mut Vec<i32>,
    ) {
        Self::sample_blocks([self], [diffs], [noises], [bits], chip_overtemp_k, [out]);
    }

    /// Pushes a block through each of `N` channels' full chains at once:
    /// one fused kernel walks every channel's in-amp → anti-alias → ΣΔ
    /// element by element
    /// ([`hotwire_afe::chain::amplify_filter_modulate_lanes`]), then each
    /// channel's CIC walks its bitstream and its words are appended to its
    /// `out`. Lane `l` carries channel `l`'s `diffs`, `noises` and `bits`
    /// exactly as [`sample_block`](Self::sample_block) takes them, and ends
    /// with the same words and state: the channels share nothing but the
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree.
    pub fn sample_blocks<const N: usize>(
        mut channels: [&mut InputChannel; N],
        diffs: [&[f64]; N],
        noises: [&[f64]; N],
        mut bits: [&mut [i32]; N],
        chip_overtemp_k: f64,
        out: [&mut Vec<i32>; N],
    ) {
        let mut chans = channels.iter_mut();
        let mut bit_lanes = bits.iter_mut();
        hotwire_afe::chain::amplify_filter_modulate_lanes(
            core::array::from_fn(|_| {
                let chan = &mut **chans.next().expect("one channel per lane");
                (&mut chan.inamp, &mut chan.antialias, &mut chan.modulator)
            }),
            diffs,
            noises,
            chip_overtemp_k,
            core::array::from_fn(|_| &mut **bit_lanes.next().expect("one bitstream per lane")),
        );
        for ((chan, bits), out) in channels.into_iter().zip(bits).zip(out) {
            chan.cic_scratch.clear();
            chan.cic.push_block(bits, &mut chan.cic_scratch);
            out.extend(chan.cic_scratch.iter().map(|&raw| chan.word(raw)));
        }
    }

    /// Forms `N` channels' per-tick noise lanes in one pass over pre-drawn
    /// standard normals ([`InstrumentationAmp::noise_lanes`]): `normals`
    /// holds, per tick, each channel's white then flicker normal in
    /// channel order — the normals `N` [`draw_noise`](Self::draw_noise)
    /// calls per tick, in that order, draw — and lane `l` receives the
    /// values channel `l`'s `draw_noise` calls would return.
    ///
    /// # Panics
    ///
    /// Panics unless `normals` holds `2·N` values per tick for as many
    /// ticks as every lane has elements.
    pub fn noise_blocks<const N: usize>(
        channels: [&mut InputChannel; N],
        normals: &[f64],
        noises: [&mut [f64]; N],
    ) {
        InstrumentationAmp::noise_lanes(channels.map(|c| &mut c.inamp), normals, noises);
    }

    /// The signed 16-bit word the full chain settles to for a quasi-static
    /// differential input — the fast-AFE tier's one-call-per-frame stand-in
    /// for `decimation` scalar [`sample`](Self::sample) calls.
    ///
    /// Draws one noise sample (so consecutive codes stay dithered and the
    /// frozen-code watchdog discriminator keeps seeing a live input) and
    /// maps the in-amp's DC transfer through the modulator's stable input
    /// range and the CIC's DC gain. Filter poles and integrators are not
    /// advanced: this tier trades transient response for speed, with the
    /// steady-state error pinned by tests.
    pub fn dc_code<R: Rng + ?Sized>(
        &mut self,
        v_diff: Volts,
        chip_overtemp_k: f64,
        rng: &mut R,
    ) -> i32 {
        let noise = self.inamp.draw_noise(rng);
        let v = self.inamp.dc_output(v_diff, chip_overtemp_k, noise);
        let u = (v.get() / self.config.vref.get()).clamp(-0.9, 0.9);
        let raw = ((u * self.cic.gain() as f64).round() as i64) >> self.norm_shift;
        raw.clamp(-32768, 32767) as i32
    }

    /// Volts-per-LSB at the channel output, referred to the in-amp *input*.
    pub fn input_referred_lsb(&self) -> Volts {
        // Full scale at the modulator is ±vref; one LSB is vref/2^15, divided
        // by the in-amp gain to refer it to the bridge.
        Volts::new(self.config.vref.get() / 32768.0 / self.config.inamp.gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    fn quiet_channel() -> InputChannel {
        let config = ChannelConfig {
            inamp: InAmpConfig {
                gain_error: 0.0,
                input_offset: Volts::ZERO,
                offset_drift_per_k: 0.0,
                noise_density: 0.0,
                flicker_rms: Volts::ZERO,
                ..InAmpConfig::isif_default()
            },
            ..ChannelConfig::maf_bridge()
        };
        InputChannel::new(config, Hertz::from_kilohertz(256.0)).unwrap()
    }

    fn run_dc(chan: &mut InputChannel, v: f64, outputs: usize) -> Vec<i32> {
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < outputs {
            if let Some(y) = chan.sample(Volts::new(v), 0.0, &mut r) {
                out.push(y);
            }
        }
        out
    }

    #[test]
    fn dc_conversion_scales_correctly() {
        let mut chan = quiet_channel();
        // 10 mV at the bridge × gain 50 = 0.5 V at the ADC = 0.2 FS → code
        // ≈ 0.2·32768 ≈ 6554.
        let out = run_dc(&mut chan, 10e-3, 40);
        let settled = out[20..].iter().map(|&x| x as f64).sum::<f64>() / 20.0;
        assert!(
            (settled - 6554.0).abs() < 40.0,
            "code {settled} expected ≈ 6554"
        );
    }

    #[test]
    fn polarity_preserved() {
        let mut chan = quiet_channel();
        let out = run_dc(&mut chan, -10e-3, 40);
        assert!(out[30] < -6000, "negative input gave {}", out[30]);
    }

    #[test]
    fn output_cadence_matches_decimation() {
        let mut chan = quiet_channel();
        let mut r = rng();
        let mut count = 0;
        for _ in 0..256 * 10 {
            if chan.sample(Volts::ZERO, 0.0, &mut r).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 10);
    }

    #[test]
    fn noise_floor_is_realistic_for_16_bits() {
        // With the real ISIF noise config, the settled code's std-dev should
        // sit in the range of a real 16-bit channel: more than nothing, less
        // than 8 LSBs.
        let mut chan =
            InputChannel::new(ChannelConfig::maf_bridge(), Hertz::from_kilohertz(256.0)).unwrap();
        let mut r = rng();
        let mut out = Vec::new();
        while out.len() < 400 {
            if let Some(y) = chan.sample(Volts::new(5e-3), 0.0, &mut r) {
                out.push(y as f64);
            }
        }
        let settled = &out[100..];
        let mean = settled.iter().sum::<f64>() / settled.len() as f64;
        let var = settled.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / settled.len() as f64;
        let sd = var.sqrt();
        assert!(sd > 0.05, "noise floor {sd} LSB suspiciously clean");
        assert!(sd < 8.0, "noise floor {sd} LSB too dirty for 16 bits");
    }

    /// Every analog and digital state word of a channel.
    fn state(chan: &InputChannel) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            chan.inamp, chan.antialias, chan.modulator, chan.cic
        )
    }

    /// Three channels that differ in gain, offset, reference, anti-alias
    /// corner and CIC geometry, fed blocks that are not frame-aligned:
    /// `sample_blocks` gives each channel the words and end state of its
    /// own `sample_block` run and of its own scalar `sample` walk, with the
    /// noise drawn per tick in channel order on every path.
    #[test]
    fn sample_blocks_match_single_blocks_and_scalar_samples() {
        let fs = Hertz::from_kilohertz(256.0);
        let base = ChannelConfig::maf_bridge();
        let configs = [
            base,
            ChannelConfig {
                inamp: InAmpConfig {
                    gain: 20.0,
                    input_offset: Volts::from_millivolts(-0.5),
                    ..base.inamp
                },
                cic_order: 2,
                decimation: 64,
                ..base
            },
            ChannelConfig {
                inamp: InAmpConfig {
                    gain: 80.0,
                    ..base.inamp
                },
                antialias_corner: Hertz::from_kilohertz(12.0),
                vref: Volts::new(1.0),
                ..base
            },
        ];
        let mut lanes = configs.map(|c| InputChannel::new(c, fs).unwrap());
        let mut singles = configs.map(|c| InputChannel::new(c, fs).unwrap());
        let mut scalars = configs.map(|c| InputChannel::new(c, fs).unwrap());
        let (mut r_lanes, mut r_singles, mut r_scalar) = (rng(), rng(), rng());
        let mut got: [Vec<i32>; 3] = Default::default();
        let mut single_words: [Vec<i32>; 3] = Default::default();
        let mut expected: [Vec<i32>; 3] = Default::default();
        for (block, len) in [256usize, 100, 412, 768].into_iter().enumerate() {
            let diffs: [Vec<f64>; 3] = core::array::from_fn(|l| {
                (0..len)
                    .map(|k| 0.06 * ((k as f64) * 0.011 + (block + l) as f64).sin())
                    .collect()
            });
            let mut noises: [Vec<f64>; 3] = core::array::from_fn(|_| vec![0.0; len]);
            let mut single_noises = noises.clone();
            for k in 0..len {
                for l in 0..3 {
                    noises[l][k] = lanes[l].draw_noise(&mut r_lanes);
                    single_noises[l][k] = singles[l].draw_noise(&mut r_singles);
                    let input = Volts::new(diffs[l][k]);
                    if let Some(word) = scalars[l].sample(input, 3.0, &mut r_scalar) {
                        expected[l].push(word);
                    }
                }
            }
            for (l, chan) in singles.iter_mut().enumerate() {
                let mut bits = vec![0; len];
                chan.sample_block(
                    &diffs[l],
                    &single_noises[l],
                    &mut bits,
                    3.0,
                    &mut single_words[l],
                );
            }
            let mut bits: [Vec<i32>; 3] = core::array::from_fn(|_| vec![0; len]);
            let [a, b, c] = &mut lanes;
            let [ba, bb, bc] = &mut bits;
            let [ga, gb, gc] = &mut got;
            InputChannel::sample_blocks(
                [a, b, c],
                [&diffs[0], &diffs[1], &diffs[2]],
                [&noises[0], &noises[1], &noises[2]],
                [ba, bb, bc],
                3.0,
                [ga, gb, gc],
            );
        }
        assert_eq!(r_lanes, r_scalar);
        assert_eq!(r_singles, r_scalar);
        for l in 0..3 {
            assert!(!expected[l].is_empty());
            assert_eq!(got[l], expected[l], "lane {l}");
            assert_eq!(single_words[l], expected[l], "lane {l}");
            assert_eq!(state(&lanes[l]), state(&scalars[l]), "lane {l}");
            assert_eq!(state(&singles[l]), state(&scalars[l]), "lane {l}");
        }
    }

    #[test]
    fn input_referred_lsb_magnitude() {
        let chan = quiet_channel();
        // 2.5 V / 32768 / 50 ≈ 1.53 µV per LSB at the bridge.
        let lsb = chan.input_referred_lsb();
        assert!((lsb.get() - 1.526e-6).abs() < 0.01e-6, "lsb {lsb}");
    }
}
