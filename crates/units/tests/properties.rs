//! Property-based tests for the quantity newtypes: the generated arithmetic
//! must behave exactly like `f64` arithmetic on the wrapped values, and the
//! dimensional relations must be self-consistent.

use hotwire_units::{
    Amps, Celsius, Hertz, KelvinDelta, MetersPerSecond, Ohms, Seconds, Volts, Watts,
};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6
}

fn positive() -> impl Strategy<Value = f64> {
    1.0e-6..1.0e6
}

proptest! {
    #[test]
    fn add_commutes(a in finite(), b in finite()) {
        let (x, y) = (Volts::new(a), Volts::new(b));
        prop_assert_eq!((x + y).get(), (y + x).get());
    }

    #[test]
    fn add_sub_inverse(a in finite(), b in finite()) {
        let (x, y) = (Volts::new(a), Volts::new(b));
        prop_assert!(((x + y) - y - x).abs().get() <= 1e-9 * (1.0 + a.abs() + b.abs()));
    }

    #[test]
    fn scaling_is_linear(a in finite(), k in -1.0e3f64..1.0e3) {
        let x = Watts::new(a);
        prop_assert_eq!((x * k).get(), a * k);
        prop_assert_eq!((k * x).get(), a * k);
    }

    #[test]
    fn ohms_law_consistency(v in positive(), r in positive()) {
        let volts = Volts::new(v);
        let ohms = Ohms::new(r);
        let amps: Amps = volts / ohms;
        let back: Volts = amps * ohms;
        prop_assert!((back - volts).abs().get() <= 1e-9 * v);
        let r_back: Ohms = volts / amps;
        prop_assert!((r_back - ohms).abs().get() <= 1e-9 * r);
    }

    #[test]
    fn joule_heating_forms_agree(v in positive(), r in positive()) {
        let volts = Volts::new(v);
        let ohms = Ohms::new(r);
        let i = volts / ohms;
        let p1 = Watts::from_voltage_across(volts, ohms);
        let p2 = Watts::from_joule_heating(i, ohms);
        let p3 = volts * i;
        prop_assert!((p1 - p2).abs().get() <= 1e-9 * p1.get().abs().max(1e-12));
        prop_assert!((p1 - p3).abs().get() <= 1e-9 * p1.get().abs().max(1e-12));
    }

    #[test]
    fn temperature_affine_laws(t in -50.0f64..150.0, d in -100.0f64..100.0) {
        let point = Celsius::new(t);
        let delta = KelvinDelta::new(d);
        prop_assert!((((point + delta) - point).get() - d).abs() <= 1e-9);
        prop_assert!(((point + delta) - delta - point).get().abs() <= 1e-9);
    }

    #[test]
    fn velocity_cm_round_trip(v in 0.0f64..10.0) {
        let mps = MetersPerSecond::new(v);
        let back = MetersPerSecond::from_cm_per_s(mps.to_cm_per_s());
        prop_assert!((back - mps).abs().get() <= 1e-12);
    }

    #[test]
    fn frequency_period_round_trip(f in 1.0e-3f64..1.0e9) {
        let back = 1.0 / Hertz::new(f).period().get();
        prop_assert!((back - f).abs() <= 1e-9 * f);
    }

    #[test]
    fn clamp_respects_bounds(a in finite(), lo in -1.0e3f64..0.0, hi in 0.0f64..1.0e3) {
        let clamped = Seconds::new(a).clamp(Seconds::new(lo), Seconds::new(hi));
        prop_assert!(clamped.get() >= lo && clamped.get() <= hi);
    }

    #[test]
    fn ratio_matches_f64(a in finite(), b in positive()) {
        prop_assert_eq!(Volts::new(a) / Volts::new(b), a / b);
    }

    #[test]
    fn serde_round_trip(a in finite()) {
        let v = Volts::new(a);
        let json = serde_json_like_round_trip(v.get());
        prop_assert_eq!(json, v.get());
    }
}

/// Serde is `#[serde(transparent)]`; emulate a round-trip through the
/// serializer contract by using the `From` conversions (no serde_json dep).
fn serde_json_like_round_trip(x: f64) -> f64 {
    let v = Volts::new(x);
    f64::from(v)
}
