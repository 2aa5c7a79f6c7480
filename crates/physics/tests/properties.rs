//! Property-based tests of the physics models: thermodynamic sanity for any
//! operating point in (and somewhat beyond) the design envelope.

use hotwire_physics::bubbles::{BubbleLayer, BubbleParams};
use hotwire_physics::fluid::{Air, Fluid, Water};
use hotwire_physics::fouling::{FoulingLayer, FoulingParams, Passivation};
use hotwire_physics::kings_law::KingsLaw;
use hotwire_physics::membrane::{MembraneParams, MembraneState, SurfaceCondition};
use hotwire_physics::pipe::Pipe;
use hotwire_physics::resistor::Rtd;
use hotwire_physics::sensor::HeaterId;
use hotwire_physics::{MafDie, MafParams, SensorEnvironment};
use hotwire_units::{Celsius, KelvinDelta, MetersPerSecond, Ohms, Pascals, Seconds, Watts};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #[test]
    fn water_properties_physical_everywhere(t in 0.0f64..95.0) {
        let p = Water::potable().properties(Celsius::new(t));
        prop_assert!(p.density > 950.0 && p.density < 1001.0);
        prop_assert!(p.dynamic_viscosity > 1e-4 && p.dynamic_viscosity < 2e-3);
        prop_assert!(p.thermal_conductivity > 0.5 && p.thermal_conductivity < 0.7);
        prop_assert!(p.specific_heat > 4100.0 && p.specific_heat < 4270.0);
        prop_assert!(p.prandtl() > 1.0 && p.prandtl() < 14.0);
    }

    #[test]
    fn air_properties_physical_everywhere(t in -40.0f64..200.0) {
        let p = Air.properties(Celsius::new(t));
        prop_assert!(p.density > 0.7 && p.density < 1.6);
        prop_assert!(p.prandtl() > 0.6 && p.prandtl() < 0.8);
    }

    #[test]
    fn rtd_inversion_exact(r0 in 10.0f64..5000.0, alpha in 1e-3f64..8e-3, t in -20.0f64..120.0) {
        let rtd = Rtd::new(
            hotwire_units::Ohms::new(r0),
            alpha,
            Celsius::new(20.0),
        ).unwrap();
        let r = rtd.resistance(Celsius::new(t));
        prop_assert!((rtd.temperature(r).get() - t).abs() < 1e-6);
    }

    #[test]
    fn kings_law_monotone_and_invertible(
        v1 in 0.001f64..3.0,
        v2 in 0.001f64..3.0,
        film in 2.0f64..60.0,
    ) {
        let king = KingsLaw::from_kramers(
            &Water::potable(),
            Celsius::new(film),
            hotwire_physics::kings_law::WireGeometry::maf_heater(),
        );
        let g1 = king.conductance(MetersPerSecond::new(v1));
        let g2 = king.conductance(MetersPerSecond::new(v2));
        prop_assert_eq!(v1 < v2, g1 < g2, "monotonicity");
        let back = king.velocity_from_conductance(g1);
        prop_assert!((back.get() - v1).abs() < 1e-6 * v1.max(1.0));
    }

    #[test]
    fn membrane_steady_state_is_fixed_point(
        p_mw in 0.1f64..80.0,
        v in 0.0f64..3.0,
        fluid in 2.0f64..40.0,
    ) {
        let params = MembraneParams::maf();
        let king = KingsLaw::water_default();
        let p = Watts::new(p_mw * 1e-3);
        let f = Celsius::new(fluid);
        let surface = SurfaceCondition::clean();
        let vv = MetersPerSecond::new(v);
        let t_ss = MembraneState::steady_state(p, &params, &king, vv, surface, f, f);
        let mut state = MembraneState::at_equilibrium(t_ss);
        state.step(Seconds::from_micros(10.0), p, &params, &king, vv, surface, f, f);
        prop_assert!((state.temperature() - t_ss).abs().get() < 1e-9);
        // And the wire is never colder than the fluid under positive drive.
        prop_assert!(t_ss >= f);
    }

    #[test]
    fn bubble_coverage_always_in_unit_interval(
        walls in prop::collection::vec(-10.0f64..120.0, 10..200),
        seed in 0u64..1000,
    ) {
        let mut layer = BubbleLayer::new(BubbleParams::accelerated());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &w in &walls {
            layer.step(
                Seconds::from_millis(50.0),
                Celsius::new(w),
                Celsius::new(40.0),
                &mut rng,
            );
            prop_assert!((0.0..=1.0).contains(&layer.coverage()));
        }
    }

    #[test]
    fn fouling_thickness_never_decreases(
        steps in prop::collection::vec((10.0f64..70.0, 0.0f64..1.0), 5..50),
    ) {
        let mut layer = FoulingLayer::new(FoulingParams::accelerated(), Passivation::Bare);
        let mut prev = 0.0;
        for &(wall, coverage) in &steps {
            layer.step(Seconds::new(3600.0), Celsius::new(wall), 30.0, coverage);
            prop_assert!(layer.thickness_um() >= prev);
            prev = layer.thickness_um();
        }
    }

    #[test]
    fn pipe_profile_factor_bounded(re in 1.0f64..1e7) {
        let f = Pipe::profile_factor(re);
        prop_assert!((1.2..=2.0).contains(&f));
        let i = Pipe::turbulence_intensity(re);
        prop_assert!((0.0..0.2).contains(&i));
    }

    #[test]
    fn die_heats_monotone_with_power(
        p1_mw in 0.5f64..20.0,
        extra_mw in 1.0f64..30.0,
        v in 0.0f64..2.5,
    ) {
        let run = |p_mw: f64| {
            let mut die = MafDie::in_potable_water(MafParams::nominal());
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let env = SensorEnvironment {
                velocity: MetersPerSecond::new(v),
                ..SensorEnvironment::still_water()
            };
            let p = Watts::new(p_mw * 1e-3);
            for _ in 0..400 {
                die.step(Seconds::from_micros(50.0), p, p, env, &mut rng);
            }
            die.heater_temperature(hotwire_physics::sensor::HeaterId::A).get()
        };
        prop_assert!(run(p1_mw + extra_mw) > run(p1_mw));
    }

    #[test]
    fn split_step_is_bit_identical_to_step(
        dt_us in 1.0f64..2000.0,
        p_a_mw in 0.0f64..40.0,
        p_b_mw in 0.0f64..40.0,
        v in -2.5f64..2.5,
        bar in 0.2f64..7.0,
        coverage in 0.0f64..1.0,
        fouling_um in 0.0f64..5.0,
        seed in 0u64..1000,
    ) {
        let build = || {
            let mut die = MafDie::in_potable_water(MafParams::nominal());
            die.inject_bubble_burst(coverage);
            die.deposit_fouling(fouling_um);
            (die, rand::rngs::StdRng::seed_from_u64(seed))
        };
        let (mut whole, mut whole_rng) = build();
        let (mut split, mut split_rng) = build();
        let dt = Seconds::from_micros(dt_us);
        let (p_a, p_b) = (Watts::new(p_a_mw * 1e-3), Watts::new(p_b_mw * 1e-3));
        let env = SensorEnvironment {
            velocity: MetersPerSecond::new(v),
            pressure: Pascals::from_bar(bar),
            ..SensorEnvironment::still_water()
        };
        for _ in 0..50 {
            whole.step(dt, p_a, p_b, env, &mut whole_rng);
            split.step_thermal(dt, p_a, p_b, env);
            split.step_surfaces(dt, env.pressure, &mut split_rng);
        }
        for id in [HeaterId::A, HeaterId::B] {
            prop_assert_eq!(
                whole.heater_temperature(id).get().to_bits(),
                split.heater_temperature(id).get().to_bits()
            );
            prop_assert_eq!(
                whole.last_conductance(id).get().to_bits(),
                split.last_conductance(id).get().to_bits()
            );
            prop_assert_eq!(
                whole.bubble_coverage(id).to_bits(),
                split.bubble_coverage(id).to_bits()
            );
            prop_assert_eq!(
                whole.fouling_thickness_um(id).to_bits(),
                split.fouling_thickness_um(id).to_bits()
            );
            prop_assert_eq!(whole.detachment_count(id), split.detachment_count(id));
        }
        prop_assert_eq!(
            whole.reference_resistance().get().to_bits(),
            split.reference_resistance().get().to_bits()
        );
        prop_assert_eq!(whole_rng.state(), split_rng.state(), "same RNG words drawn");
    }

    /// One thermal walk over `ticks` equals that many one-tick walks, bit
    /// for bit, when both are driven by powers derived from the
    /// resistances they are handed: temperatures, last conductances and
    /// the King's law. A cold start (the die at the fluid temperature under
    /// a strong drive) keeps the law on the first tick and re-derives it
    /// a few ticks in, strictly inside the walk; the test asserts that.
    #[test]
    fn thermal_walk_is_bit_identical_to_one_tick_walks(
        ticks in 1usize..300,
        dt_us in 1.0f64..20.0,
        supply in 1.0f64..4.0,
        v in -2.5f64..2.5,
        fluid in 5.0f64..40.0,
        coverage in 0.0f64..1.0,
        fouling_um in 0.0f64..5.0,
        warm_up in 0usize..400,
        cold in any::<bool>(),
    ) {
        let mut walked = MafDie::in_potable_water(MafParams::worst_case());
        walked.inject_bubble_burst(coverage);
        walked.deposit_fouling(fouling_um);
        let dt = Seconds::from_micros(dt_us);
        let mut env = SensorEnvironment {
            velocity: MetersPerSecond::new(v),
            fluid_temperature: Celsius::new(fluid),
            ..SensorEnvironment::still_water()
        };
        let (ticks, supply) = if cold {
            env.fluid_temperature = walked.reference_temperature();
            (ticks.max(40), supply.max(3.0))
        } else {
            // A warm die, settled partway in another environment.
            let settle = SensorEnvironment {
                fluid_temperature: Celsius::new(fluid + 3.0),
                ..env
            };
            for _ in 0..warm_up {
                walked.step_thermal(dt, Watts::new(0.02), Watts::new(0.015), settle);
            }
            (ticks, supply)
        };
        // A bridge-like map: each heater in series with 52.8 Ω across a
        // supply that follows the reference arm's ratio, so all three
        // resistances feed the powers.
        let drive = |rh_a: Ohms, rh_b: Ohms, rt: Ohms| {
            let u = 2.0 * supply * rt.get() / (2000.0 + rt.get());
            let power = |rh: Ohms| {
                let i = u / (52.8 + rh.get());
                Watts::new(i * i * rh.get())
            };
            (power(rh_a), power(rh_b))
        };

        let mut stepped = walked.clone();
        let mut seen = Vec::with_capacity(ticks);
        walked.step_thermal_with(dt, env, ticks, |k, rh_a, rh_b, rt| {
            seen.push(k);
            drive(rh_a, rh_b, rt)
        });
        prop_assert_eq!(seen, (0..ticks).collect::<Vec<_>>());

        let mut rederived_at = Vec::new();
        for k in 0..ticks {
            let law = *stepped.kings_law();
            let (p_a, p_b) = drive(
                stepped.heater_resistance(HeaterId::A),
                stepped.heater_resistance(HeaterId::B),
                stepped.reference_resistance(),
            );
            stepped.step_thermal(dt, p_a, p_b, env);
            if *stepped.kings_law() != law {
                rederived_at.push(k);
            }
        }
        if cold {
            prop_assert!(
                rederived_at.iter().any(|&k| k > 0),
                "no re-derivation inside the walk: {:?}",
                rederived_at
            );
        }

        for id in [HeaterId::A, HeaterId::B] {
            prop_assert_eq!(
                walked.heater_temperature(id).get().to_bits(),
                stepped.heater_temperature(id).get().to_bits()
            );
            prop_assert_eq!(
                walked.last_conductance(id).get().to_bits(),
                stepped.last_conductance(id).get().to_bits()
            );
        }
        prop_assert_eq!(
            walked.reference_temperature().get().to_bits(),
            stepped.reference_temperature().get().to_bits()
        );
        let bits = |law: &KingsLaw| [law.a(), law.b(), law.n()].map(f64::to_bits);
        prop_assert_eq!(bits(walked.kings_law()), bits(stepped.kings_law()));
    }

    #[test]
    fn onset_temperature_monotone_in_pressure(b1 in 0.2f64..7.0, b2 in 0.2f64..7.0) {
        let w = Water::potable();
        let t1 = w.bubble_onset_temperature(Pascals::from_bar(b1));
        let t2 = w.bubble_onset_temperature(Pascals::from_bar(b2));
        prop_assert_eq!(b1 < b2, t1 < t2);
    }

    #[test]
    fn kings_power_scales_linearly_with_overheat(
        v in 0.0f64..2.5,
        dt1 in 1.0f64..30.0,
        k in 1.1f64..3.0,
    ) {
        let king = KingsLaw::water_default();
        let p1 = king.power(MetersPerSecond::new(v), KelvinDelta::new(dt1));
        let p2 = king.power(MetersPerSecond::new(v), KelvinDelta::new(dt1 * k));
        prop_assert!((p2.get() / p1.get() - k).abs() < 1e-9);
    }
}
