//! Property-based tests of the analog-front-end models.

use hotwire_afe::adc::SigmaDeltaModulator;
use hotwire_afe::bridge::BridgeConfig;
use hotwire_afe::dac::ThermometerDac;
use hotwire_units::{Ohms, Volts};
use proptest::prelude::*;

proptest! {
    /// Kirchhoff consistency of the bridge solver for any component values.
    #[test]
    fn bridge_solution_obeys_kirchhoff(
        u in 0.0f64..6.0,
        r1 in 1.0f64..1000.0,
        r2 in 100.0f64..10_000.0,
        rh in 1.0f64..200.0,
        rt in 100.0f64..5000.0,
    ) {
        let bridge = BridgeConfig::new(Ohms::new(r1), Ohms::new(r2)).unwrap();
        let out = bridge.solve(Volts::new(u), Ohms::new(rh), Ohms::new(rt));
        // Branch currents recompute the differential.
        let v_h = u * rh / (r1 + rh);
        let v_t = u * rt / (r2 + rt);
        prop_assert!((out.differential.get() - (v_h - v_t)).abs() < 1e-9);
        prop_assert!((out.reference_mid.get() - v_t).abs() < 1e-9);
        // Power consistency: P = I²·R.
        let i = u / (r1 + rh);
        prop_assert!((out.heater_power.get() - i * i * rh).abs() < 1e-9);
    }

    /// The bridge balance resistance scales exactly with Rt.
    #[test]
    fn bridge_balance_is_ratio_exact(
        r1 in 1.0f64..1000.0,
        r2 in 100.0f64..10_000.0,
        rt in 100.0f64..5000.0,
    ) {
        let bridge = BridgeConfig::new(Ohms::new(r1), Ohms::new(r2)).unwrap();
        let rh_star = bridge.balance_heater_resistance(Ohms::new(rt));
        let out = bridge.solve(Volts::new(3.0), rh_star, Ohms::new(rt));
        prop_assert!(out.differential.get().abs() < 1e-9);
    }

    /// The ΣΔ bitstream mean converges to the normalized DC input.
    #[test]
    fn sigma_delta_dc_transfer(frac in -0.85f64..0.85) {
        let mut adc = SigmaDeltaModulator::new(Volts::new(2.5)).unwrap();
        let n = 60_000;
        let sum: i64 = (0..n).map(|_| adc.push(Volts::new(2.5 * frac)) as i64).sum();
        let mean = sum as f64 / n as f64;
        prop_assert!((mean - frac).abs() < 0.01, "frac {frac} decoded {mean}");
    }

    /// Thermometer DACs are monotonic at every resolution and span.
    #[test]
    fn thermometer_dac_monotonic(bits in 4u32..=10, vref in 0.5f64..10.0) {
        let dac = ThermometerDac::ideal(bits, Volts::new(vref)).unwrap();
        let mut prev = -1.0;
        for code in 0..=dac.max_code() {
            let v = dac.convert(code).get();
            prop_assert!(v > prev);
            prev = v;
        }
    }

    /// DAC endpoints are exact at every resolution and span.
    #[test]
    fn thermometer_dac_endpoints(bits in 4u32..=14, vref in 0.5f64..10.0) {
        let dac = ThermometerDac::ideal(bits, Volts::new(vref)).unwrap();
        prop_assert_eq!(dac.convert(0).get(), 0.0);
        prop_assert!((dac.convert(dac.max_code()).get() - vref).abs() < 1e-12 * vref);
    }
}
