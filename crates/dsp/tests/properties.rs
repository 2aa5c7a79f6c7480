//! Property-based tests of the fixed-point DSP blocks: quantization error
//! bounds, saturation correctness, filter stability under arbitrary input.

use hotwire_dsp::cic::CicDecimator;
use hotwire_dsp::despike::Median5;
use hotwire_dsp::fix::{round_i64, Fx};
use hotwire_dsp::iir::SinglePoleLp;
use hotwire_dsp::pi::PiController;
use proptest::prelude::*;

proptest! {
    #[test]
    fn q15_round_trip_error_bounded(x in -65_000.0f64..65_000.0) {
        let q = Fx::<15>::from_f64(x);
        prop_assert!((q.to_f64() - x).abs() <= 0.5 / 32_768.0 + 1e-12);
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
                m = Median5::new();
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

    #[test]
    fn round_i64_is_round_as_i64_for_every_bit_pattern(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        prop_assert_eq!(round_i64(x), x.round() as i64, "{:e} ({:#x})", x, bits);
    }

    #[test]
    fn round_i64_is_round_as_i64_near_halves(k in -(1i64 << 53)..(1i64 << 53), step in -2i64..=2) {
        // The halves between integers and their nearest doubles.
        let half = k as f64 + 0.5;
        let x = f64::from_bits(half.to_bits().wrapping_add_signed(step));
        prop_assert_eq!(round_i64(x), x.round() as i64, "{:e}", x);
    }
}
