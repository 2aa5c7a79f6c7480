//! Property-based tests of the fixed-point DSP blocks: quantization error
//! bounds, saturation correctness, filter stability under arbitrary input.

use hotwire_dsp::cic::CicDecimator;
use hotwire_dsp::despike::{Median5, MovingAverage};
use hotwire_dsp::fix::{saturate_bits, saturate_i32, Q15, Q16, Q30};
use hotwire_dsp::iir::{Biquad, BiquadCoeffs, SinglePoleLp};
use hotwire_dsp::pi::PiController;
use proptest::prelude::*;

proptest! {
    #[test]
    fn q15_round_trip_error_bounded(x in -65_000.0f64..65_000.0) {
        let q = Q15::from_f64(x);
        prop_assert!((q.to_f64() - x).abs() <= 0.5 / 32_768.0 + 1e-12);
    }

    #[test]
    fn q30_multiplication_tracks_f64(a in -1.9f64..1.9, b in -1.0f64..1.0) {
        let qa = Q30::from_f64(a);
        let qb = Q30::from_f64(b);
        let exact = a * b;
        if exact.abs() < 1.9 {
            prop_assert!((qa.mul(qb).to_f64() - exact).abs() < 1e-8);
        }
    }

    #[test]
    fn fixed_add_matches_saturating_i64(a in any::<i32>(), b in any::<i32>()) {
        let qa = Q16::from_raw(a);
        let qb = Q16::from_raw(b);
        let expected = saturate_i32(a as i64 + b as i64);
        prop_assert_eq!(qa.add(qb).raw(), expected);
    }

    #[test]
    fn saturate_bits_is_idempotent_and_bounded(x in any::<i64>(), bits in 2u32..=62) {
        let s = saturate_bits(x, bits);
        prop_assert_eq!(saturate_bits(s, bits), s);
        prop_assert!(s < (1i64 << (bits - 1)));
        prop_assert!(s >= -(1i64 << (bits - 1)));
    }

    #[test]
    fn cic_is_linear_and_bounded(signal in prop::collection::vec(-1i32..=1, 256..1024)) {
        let mut a = CicDecimator::new(3, 32).unwrap();
        let mut b = CicDecimator::new(3, 32).unwrap();
        for &x in &signal {
            if let (Some(ya), Some(yb)) = (a.push(x), b.push(-x)) {
                // Negation symmetry (linearity) and gain bound.
                prop_assert_eq!(ya, -yb);
                prop_assert!(ya.abs() <= a.gain());
            }
        }
    }

    #[test]
    fn biquad_never_diverges_on_bounded_input(
        xs in prop::collection::vec(-30_000i32..=30_000, 64..512),
        fc in 1.0f64..400.0,
    ) {
        let coeffs = BiquadCoeffs::butterworth_lowpass(fc, 1000.0).unwrap();
        let mut biquad = Biquad::from_coeffs(&coeffs).unwrap();
        for &x in &xs {
            let y = biquad.push(x);
            // A Butterworth LP has peak gain 1: output bounded by ~2× input
            // extreme including transient overshoot.
            prop_assert!(y.abs() <= 70_000, "y={y}");
        }
    }

    #[test]
    fn single_pole_output_between_input_extremes(
        xs in prop::collection::vec(-20_000i32..=20_000, 32..512),
        fc in 0.05f64..400.0,
    ) {
        let mut lp = SinglePoleLp::design(fc, 1000.0).unwrap();
        let lo = *xs.iter().min().unwrap();
        let hi = *xs.iter().max().unwrap();
        for &x in &xs {
            let y = lp.push(x);
            prop_assert!(y >= lo.min(0) - 1 && y <= hi.max(0) + 1, "y={y} in [{lo},{hi}]");
        }
    }

    #[test]
    fn median5_output_is_a_recent_sample(xs in prop::collection::vec(any::<i32>(), 1..64)) {
        let mut m = Median5::new();
        let mut history: Vec<i32> = Vec::new();
        for &x in &xs {
            history.push(x);
            let y = m.push(x);
            let window_start = history.len().saturating_sub(5);
            prop_assert!(
                history[window_start..].contains(&y),
                "median {y} not among last 5 inputs"
            );
        }
    }

    #[test]
    fn median5_matches_a_sorted_window(
        // Mostly a narrow range, so windows fill with ties, with a
        // full-range sample now and then; `pick == 0` also resets the
        // filter, so warm-up recurs mid-stream.
        pushes in prop::collection::vec((-3i32..=3, any::<i32>(), 0u32..16), 1..200),
    ) {
        let mut m = Median5::new();
        let mut window: Vec<i32> = Vec::new();
        for &(narrow, wide, pick) in &pushes {
            if pick == 0 {
                m.reset();
                window.clear();
            }
            let x = if pick < 4 { wide } else { narrow };
            window.push(x);
            if window.len() > 5 {
                window.remove(0);
            }
            let mut sorted = window.clone();
            sorted.sort_unstable();
            prop_assert_eq!(m.push(x), sorted[sorted.len() / 2], "window {:?}", window);
        }
    }

    #[test]
    fn moving_average_within_window_extremes(
        xs in prop::collection::vec(-1_000_000i32..=1_000_000, 1..128),
        len in 1usize..16,
    ) {
        let mut avg = MovingAverage::new(len).unwrap();
        let mut history: Vec<i32> = Vec::new();
        for &x in &xs {
            history.push(x);
            let y = avg.push(x);
            let start = history.len().saturating_sub(len);
            let w = &history[start..];
            let lo = *w.iter().min().unwrap();
            let hi = *w.iter().max().unwrap();
            prop_assert!(y >= lo - 1 && y <= hi + 1, "avg {y} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn pi_output_always_clamped(
        errors in prop::collection::vec(-1_000_000i32..=1_000_000, 1..256),
        kp in 0.0f64..4.0,
        ki in 0.0f64..1.0,
    ) {
        prop_assume!(kp > 0.0 || ki > 0.0);
        let mut pi = PiController::new(
            hotwire_dsp::fix::Q16::from_f64(kp),
            hotwire_dsp::fix::Q16::from_f64(ki),
            0,
            4095,
        ).unwrap();
        for &e in &errors {
            let u = pi.update(e);
            prop_assert!((0..=4095).contains(&u));
        }
    }
}
