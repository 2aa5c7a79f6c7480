//! Cross-crate property-based tests: invariants of the assembled instrument
//! that must hold for *any* operating point in the design range.

use hotwire::core::config::FlowMeterConfig;
use hotwire::core::{FlowMeter, Meter};
use hotwire::physics::{MafParams, SensorEnvironment};
use hotwire::units::{Celsius, MetersPerSecond, Pascals};
use proptest::prelude::*;

fn quick_meter(seed: u64) -> FlowMeter {
    FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), seed)
        .expect("meter builds")
}

fn env(v_cm_s: f64, temp_c: f64, bar: f64) -> SensorEnvironment {
    SensorEnvironment {
        velocity: MetersPerSecond::from_cm_per_s(v_cm_s),
        fluid_temperature: Celsius::new(temp_c),
        pressure: Pascals::from_bar(bar),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The conditioned output is finite, the supply stays within the DAC
    /// range, and the wire temperature stays physical for any in-range
    /// operating point.
    #[test]
    fn loop_invariants_hold_everywhere(
        v in 0.0f64..260.0,
        temp in 6.0f64..32.0,
        bar in 0.6f64..7.0,
        seed in 0u64..1000,
    ) {
        let mut m = quick_meter(seed);
        let meas = m.run(0.6, env(v, temp, bar)).expect("control ticks ran");
        prop_assert!(meas.speed.get().is_finite());
        prop_assert!(meas.speed.get() >= 0.0);
        prop_assert!(meas.supply_code <= 4095);
        let wire = m.die().heater_temperature(hotwire::physics::sensor::HeaterId::A);
        prop_assert!(wire.get() > temp - 1.0, "wire below fluid: {wire}");
        prop_assert!(wire.get() < 95.0, "wire boiling: {wire}");
    }

    /// More flow always demands more supply (monotone plant + integrating
    /// controller).
    #[test]
    fn supply_monotone_in_flow(pair in (10.0f64..110.0, 120.0f64..250.0)) {
        let (lo, hi) = pair;
        let mut m = quick_meter(7);
        let low = m.run(1.0, env(lo, 15.0, 1.0)).expect("ran");
        let high = m.run(1.0, env(hi, 15.0, 1.0)).expect("ran");
        prop_assert!(
            high.supply_code > low.supply_code,
            "supply {} at {lo} cm/s vs {} at {hi} cm/s",
            low.supply_code,
            high.supply_code
        );
    }

    /// Measurements arrive exactly at the decimated control rate.
    #[test]
    fn control_cadence_is_exact(v in 0.0f64..250.0) {
        let mut m = quick_meter(11);
        let e = env(v, 15.0, 1.0);
        let mut count = 0u32;
        for _ in 0..64 * 25 {
            if m.step(e).is_some() {
                count += 1;
            }
        }
        prop_assert_eq!(count, 25);
    }

    /// Identical seeds give identical runs; different seeds give different
    /// noise (no accidental RNG sharing/reseeding).
    #[test]
    fn seeded_determinism(seed in 0u64..500) {
        let mut a = quick_meter(seed);
        let mut b = quick_meter(seed);
        let e = env(90.0, 15.0, 1.0);
        let ma = a.run(0.4, e).expect("ran");
        let mb = b.run(0.4, e).expect("ran");
        prop_assert_eq!(ma.conditioned_code, mb.conditioned_code);
        prop_assert_eq!(ma.supply_code, mb.supply_code);
    }
}
