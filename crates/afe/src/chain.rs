//! Fused analog-front-end block kernel.
//!
//! The per-stage block kernels ([`InstrumentationAmp::amplify_block`],
//! [`AntiAliasFilter::push_block`], [`SigmaDeltaModulator::step_block`])
//! each make one pass over the frame, so chaining them costs three array
//! round trips through L1 per lane. This module fuses the three stages
//! into a single per-element walk with every pole/integrator state hoisted
//! into registers: one read pass over the inputs, one write pass over the
//! bitstream.
//!
//! The fusion is bit-identical to the stage-by-stage passes (and therefore
//! to the scalar per-sample chain): each stage is causal and its state
//! depends only on its own prior state and its current input, so element
//! `k` passing through all three stages before element `k+1` performs the
//! exact same f64 operation sequence per stage as three whole-frame
//! passes would.
//!
//! The kernel walks `N` independent channels' chains together, element by
//! element. One chain is a long serial dependency (pole → two poles →
//! two integrators → the next element's feedback bit), so a lone lane
//! leaves the core mostly waiting; interleaving lanes fills those gaps, and
//! with the per-lane constants and states held in `[f64; N]` arrays the
//! compiler pairs lanes in vector registers. A single channel is the
//! `N = 1` instance.

use crate::adc::SigmaDeltaModulator;
use crate::filter::AntiAliasFilter;
use crate::inamp::InstrumentationAmp;

/// One lane of [`amplify_filter_modulate_lanes`]: a channel's in-amp,
/// anti-alias filter and ΣΔ modulator.
pub type Lane<'a> = (
    &'a mut InstrumentationAmp,
    &'a mut AntiAliasFilter,
    &'a mut SigmaDeltaModulator,
);

/// Runs each lane's `diffs` (differential volts) through its in-amp →
/// anti-alias → ΣΔ in one fused pass over all `N` lanes, writing each
/// lane's ±1 bitstream to its `bits`. Each lane's `noises` holds one
/// pre-drawn [`InstrumentationAmp::draw_noise`] value per element.
///
/// Per lane, bit-identical to `amp.amplify_block` + `filter.push_block` +
/// `adc.step_block` over the same data, and to the equivalent per-sample
/// scalar chain: the lanes share nothing but the walk.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn amplify_filter_modulate_lanes<const N: usize>(
    lanes: [Lane<'_>; N],
    diffs: [&[f64]; N],
    noises: [&[f64]; N],
    chip_overtemp_k: f64,
    bits: [&mut [i32]; N],
) {
    let len = bits.first().map_or(0, |b| b.len());
    for l in 0..N {
        assert_eq!(diffs[l].len(), len);
        assert_eq!(noises[l].len(), len);
        assert_eq!(bits[l].len(), len);
    }
    let diffs = diffs.map(|d| &d[..len]);
    let noises = noises.map(|n| &n[..len]);
    let bits = bits.map(|b| &mut b[..len]);
    let offset: [f64; N] = core::array::from_fn(|l| {
        let config = &lanes[l].0.config;
        config.input_offset.get() + config.offset_drift_per_k * chip_overtemp_k
    });
    let gain: [f64; N] = core::array::from_fn(|l| lanes[l].0.config.gain);
    let gain_scale: [f64; N] = core::array::from_fn(|l| 1.0 + lanes[l].0.config.gain_error);
    let alpha_amp: [f64; N] = core::array::from_fn(|l| lanes[l].0.alpha);
    let rail: [f64; N] = core::array::from_fn(|l| lanes[l].0.config.rail.get());
    // `clamp` panics on unordered bounds. Checked once here, that check
    // leaves the loop.
    for r in rail {
        assert!(-r <= r, "in-amp rails must be non-negative");
    }
    let mut amp_state: [f64; N] = core::array::from_fn(|l| lanes[l].0.output_state);
    let alpha_aa: [f64; N] = core::array::from_fn(|l| lanes[l].1.alpha);
    let mut s1: [f64; N] = core::array::from_fn(|l| lanes[l].1.s1);
    let mut s2: [f64; N] = core::array::from_fn(|l| lanes[l].1.s2);
    // `v / vref` must stay a division (not a reciprocal multiply) to keep
    // the fused path bit-identical to the scalar modulator.
    let vref: [f64; N] = core::array::from_fn(|l| lanes[l].2.vref);
    let mut i1: [f64; N] = core::array::from_fn(|l| lanes[l].2.i1);
    let mut i2: [f64; N] = core::array::from_fn(|l| lanes[l].2.i2);
    for k in 0..len {
        for l in 0..N {
            let ideal = (diffs[l][k] + offset[l] + noises[l][k]) * gain[l] * gain_scale[l];
            amp_state[l] += alpha_amp[l] * (ideal - amp_state[l]);
            let v = amp_state[l].clamp(-rail[l], rail[l]);
            s1[l] += alpha_aa[l] * (v - s1[l]);
            s2[l] += alpha_aa[l] * (s1[l] - s2[l]);
            let u = (s2[l] / vref[l]).clamp(-0.9, 0.9);
            let high = i2[l] >= 0.0;
            let y = if high { 1.0 } else { -1.0 };
            i1[l] += 0.5 * (u - y);
            i2[l] += 0.5 * (i1[l] - y);
            // `y as i32` would carry a saturating float conversion.
            bits[l][k] = if high { 1 } else { -1 };
        }
    }
    for (l, (amp, filter, adc)) in lanes.into_iter().enumerate() {
        amp.output_state = amp_state[l];
        filter.s1 = s1[l];
        filter.s2 = s2[l];
        adc.i1 = i1[l];
        adc.i2 = i2[l];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inamp::InAmpConfig;
    use hotwire_units::{Hertz, Volts};

    type Stages = (InstrumentationAmp, AntiAliasFilter, SigmaDeltaModulator);

    fn stages(inamp: InAmpConfig, corner: Hertz, vref: f64) -> Stages {
        let fs = Hertz::from_kilohertz(256.0);
        (
            InstrumentationAmp::new(inamp, fs).unwrap(),
            AntiAliasFilter::new(corner, fs).unwrap(),
            SigmaDeltaModulator::new(Volts::new(vref)).unwrap(),
        )
    }

    fn lane(s: &mut Stages) -> Lane<'_> {
        (&mut s.0, &mut s.1, &mut s.2)
    }

    /// Every state word of a lane, as bits.
    fn state_bits(s: &Stages) -> [u64; 5] {
        [s.0.output_state, s.1.s1, s.1.s2, s.2.i1, s.2.i2].map(f64::to_bits)
    }

    /// The three stage-by-stage block passes over one lane: the bits, and
    /// how many elements reached the in-amp's rails and the modulator's
    /// overload clamp.
    fn staged(
        s: &mut Stages,
        diffs: &[f64],
        noises: &[f64],
        overtemp: f64,
    ) -> (Vec<i32>, usize, usize) {
        let mut v = diffs.to_vec();
        let mut bits = vec![0i32; v.len()];
        s.0.amplify_block(&mut v, noises, overtemp);
        let rail = s.0.config.rail.get();
        let railed = v.iter().filter(|x| x.abs() == rail).count();
        s.1.push_block(&mut v);
        let overloaded = v.iter().filter(|x| x.abs() / s.2.vref > 0.9).count();
        s.2.step_block(&v, &mut bits);
        (bits, railed, overloaded)
    }

    #[test]
    fn fused_matches_stage_by_stage_passes() {
        let mut a = stages(
            InAmpConfig::isif_default(),
            Hertz::from_kilohertz(30.0),
            2.5,
        );
        let mut b = a.clone();

        // A few frames of a drifting input with synthetic "noise", crossing
        // the rails and the modulator's overload clamp.
        for frame in 0..4 {
            let diffs: Vec<f64> = (0..256)
                .map(|k| 0.08 * ((k as f64) * 0.13 + frame as f64).sin() - 0.01)
                .collect();
            let noises: Vec<f64> = (0..256).map(|k| 1e-6 * ((k % 7) as f64 - 3.0)).collect();
            let (bits_a, _, _) = staged(&mut a, &diffs, &noises, 2.0);
            let mut bits_b = vec![0i32; 256];
            amplify_filter_modulate_lanes([lane(&mut b)], [&diffs], [&noises], 2.0, [&mut bits_b]);
            assert_eq!(bits_a, bits_b, "frame {frame}");
            assert_eq!(state_bits(&a), state_bits(&b), "frame {frame}");
        }
    }

    /// Three lanes that differ in every constant the kernel hoists: gain,
    /// gain error, offset and its drift, bandwidth, rails, anti-alias
    /// corner and modulator reference.
    fn three_lanes() -> [Stages; 3] {
        let base = InAmpConfig::isif_default();
        [
            stages(base, Hertz::from_kilohertz(30.0), 2.5),
            stages(
                InAmpConfig {
                    gain: 20.0,
                    gain_error: -0.004,
                    input_offset: Volts::from_millivolts(-0.7),
                    offset_drift_per_k: -5.0e-6,
                    bandwidth: Hertz::from_kilohertz(40.0),
                    rail: Volts::new(1.2),
                    ..base
                },
                Hertz::from_kilohertz(12.0),
                0.25,
            ),
            stages(
                InAmpConfig {
                    gain: 80.0,
                    gain_error: 0.01,
                    input_offset: Volts::from_millivolts(1.5),
                    rail: Volts::new(3.3),
                    ..base
                },
                Hertz::from_kilohertz(50.0),
                0.4,
            ),
        ]
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The three-lane kernel, cut into two blocks at an arbitrary
            /// tick, gives every lane the bits and end state of a one-lane
            /// run and of the stage-by-stage passes. ±0.2 V at gains of
            /// 20–80 drives each in-amp into its rails, and the 0.4 V and
            /// 1 V references overload their modulators.
            #[test]
            fn three_lanes_match_single_lanes_and_stage_passes(
                xs in proptest::collection::vec(-0.2f64..0.2, 1..600),
                split in 0usize..600,
                overtemp in -10.0f64..40.0
            ) {
                let n = xs.len();
                let diffs: [Vec<f64>; 3] = core::array::from_fn(|l| {
                    xs.iter()
                        .enumerate()
                        .map(|(k, x)| {
                            0.1 * (k as f64 * core::f64::consts::TAU / 200.0 + l as f64).sin()
                                + 0.1 * x * (1.0 + l as f64)
                        })
                        .collect()
                });
                let noises: [Vec<f64>; 3] = core::array::from_fn(|l| {
                    xs.iter().rev().map(|x| x * 1e-4 * (l as f64 - 1.0)).collect()
                });

                let mut fused = three_lanes();
                let mut bits: [Vec<i32>; 3] = core::array::from_fn(|_| vec![0; n]);
                let cut = split % n;
                let [f0, f1, f2] = &mut fused;
                let [b0, b1, b2] = &mut bits;
                let (b0_lo, b0_hi) = b0.split_at_mut(cut);
                let (b1_lo, b1_hi) = b1.split_at_mut(cut);
                let (b2_lo, b2_hi) = b2.split_at_mut(cut);
                amplify_filter_modulate_lanes(
                    [lane(f0), lane(f1), lane(f2)],
                    [&diffs[0][..cut], &diffs[1][..cut], &diffs[2][..cut]],
                    [&noises[0][..cut], &noises[1][..cut], &noises[2][..cut]],
                    overtemp,
                    [b0_lo, b1_lo, b2_lo],
                );
                amplify_filter_modulate_lanes(
                    [lane(f0), lane(f1), lane(f2)],
                    [&diffs[0][cut..], &diffs[1][cut..], &diffs[2][cut..]],
                    [&noises[0][cut..], &noises[1][cut..], &noises[2][cut..]],
                    overtemp,
                    [b0_hi, b1_hi, b2_hi],
                );

                let singles = three_lanes().into_iter().zip(three_lanes());
                for (l, (mut single, mut stage)) in singles.enumerate() {
                    let mut single_bits = vec![0i32; n];
                    amplify_filter_modulate_lanes(
                        [lane(&mut single)],
                        [&diffs[l]],
                        [&noises[l]],
                        overtemp,
                        [&mut single_bits],
                    );
                    let (staged_bits, railed, overloaded) =
                        staged(&mut stage, &diffs[l], &noises[l], overtemp);
                    prop_assert_eq!(&bits[l], &single_bits);
                    prop_assert_eq!(&bits[l], &staged_bits);
                    prop_assert_eq!(state_bits(&fused[l]), state_bits(&single));
                    prop_assert_eq!(state_bits(&fused[l]), state_bits(&stage));
                    // Over a whole period of the sine the inputs do reach
                    // the rails and the overload clamp.
                    if n > 200 {
                        prop_assert!(railed > 0, "lane {} never reached its rails", l);
                        prop_assert!(overloaded > 0, "lane {} never overloaded", l);
                    }
                }
            }
        }
    }
}
