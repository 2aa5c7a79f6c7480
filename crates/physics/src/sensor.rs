//! The complete MAF die: two heaters with advective coupling, the
//! interdigitated reference resistor, and the surface degradation layers.
//!
//! Geometry (paper Fig. 1/2): two heater resistors `Rh` adjoined closely in
//! parallel on the membrane, plus reference resistors `Rt` interdigitated so
//! both half-bridges share the same ambient reference. Flow along the die
//! carries heat from the upstream heater to the downstream one — "the fluid
//! picks up heat at the first resistor and transfers this to the second
//! resistor" — producing the differential cooling that encodes *direction*.
//!
//! The die exposes a purely electrical port: the analog front end applies
//! power to each heater and reads back resistances; everything thermal stays
//! in here.

use crate::bubbles::{BubbleLayer, BubbleParams};
use crate::fluid::Water;
use crate::fouling::{FoulingLayer, FoulingParams, Passivation};
use crate::kings_law::{KingsLaw, WireGeometry};
use crate::membrane::{DecayCache, HeatBalance, MembraneParams, MembraneState, SurfaceCondition};
use crate::resistor::Rtd;
use crate::PhysicsError;
use hotwire_units::{Celsius, MetersPerSecond, Ohms, Pascals, Seconds, ThermalConductance, Watts};
use rand::Rng;

/// Identifies one of the two heaters on the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum HeaterId {
    /// Heater A — upstream for positive flow.
    A,
    /// Heater B — downstream for positive flow.
    B,
}

/// Static parameters of the complete die.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MafParams {
    /// Nominal heater RTD (50 Ω Ti/TiN).
    pub heater: Rtd,
    /// Fractional manufacturing tolerance applied to heater A (paper: ±1 %).
    pub heater_a_tolerance: f64,
    /// Fractional manufacturing tolerance applied to heater B.
    pub heater_b_tolerance: f64,
    /// Nominal ambient-reference RTD (2 kΩ Ti/TiN).
    pub reference: Rtd,
    /// Fractional tolerance of the reference resistor (paper: ±1.5 %).
    pub reference_tolerance: f64,
    /// Membrane thermal parameters (shared by both heater nodes).
    pub membrane: MembraneParams,
    /// Wire geometry for the King's-law derivation.
    pub geometry: WireGeometry,
    /// Maximum advective heat-coupling fraction between the heaters.
    pub coupling_max: f64,
    /// Velocity at which the coupling reaches half its maximum.
    pub coupling_halfspeed: MetersPerSecond,
    /// Time constant of the reference resistor tracking the fluid
    /// temperature (it sits on the die but is not heated).
    pub reference_lag: Seconds,
    /// Bubble-layer rate parameters.
    pub bubbles: BubbleParams,
    /// Fouling-layer rate parameters.
    pub fouling: FoulingParams,
    /// Surface finish of the die face.
    pub passivation: Passivation,
}

impl MafParams {
    /// The paper's die with nominal (zero-tolerance) resistors and the PECVD
    /// SiN passivation.
    pub fn nominal() -> Self {
        MafParams {
            heater: Rtd::heater(),
            heater_a_tolerance: 0.0,
            heater_b_tolerance: 0.0,
            reference: Rtd::ambient_reference(),
            reference_tolerance: 0.0,
            membrane: MembraneParams::maf(),
            geometry: WireGeometry::maf_heater(),
            coupling_max: 0.18,
            coupling_halfspeed: MetersPerSecond::new(0.15),
            reference_lag: Seconds::from_millis(40.0),
            bubbles: BubbleParams::accelerated(),
            fouling: FoulingParams::potable_defaults(),
            passivation: Passivation::SiliconNitride,
        }
    }

    /// A worst-case-tolerance die (paper: Rh ±0.5 Ω, Rt ±30 Ω), useful for
    /// calibration robustness studies.
    pub fn worst_case() -> Self {
        MafParams {
            heater_a_tolerance: 0.01,
            heater_b_tolerance: -0.01,
            reference_tolerance: 0.015,
            ..MafParams::nominal()
        }
    }

    /// Validates all sub-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if any sub-model parameter is implausible.
    pub fn validate(&self) -> Result<(), PhysicsError> {
        self.membrane.validate()?;
        self.bubbles.validate()?;
        self.fouling.validate()?;
        crate::error::ensure_in_range("coupling_max", self.coupling_max, 0.0, 0.9)?;
        crate::error::ensure_positive("coupling_halfspeed", self.coupling_halfspeed.get())?;
        crate::error::ensure_positive("reference_lag", self.reference_lag.get())?;
        crate::error::ensure_in_range("heater_a_tolerance", self.heater_a_tolerance, -0.05, 0.05)?;
        crate::error::ensure_in_range("heater_b_tolerance", self.heater_b_tolerance, -0.05, 0.05)?;
        crate::error::ensure_in_range(
            "reference_tolerance",
            self.reference_tolerance,
            -0.05,
            0.05,
        )?;
        Ok(())
    }
}

impl Default for MafParams {
    fn default() -> Self {
        MafParams::nominal()
    }
}

/// Instantaneous environment of the die inside the pipe.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SensorEnvironment {
    /// Bulk fluid temperature at the probe.
    pub fluid_temperature: Celsius,
    /// Signed local flow velocity at the probe; positive flows from heater A
    /// towards heater B.
    pub velocity: MetersPerSecond,
    /// Absolute line pressure.
    pub pressure: Pascals,
}

impl SensorEnvironment {
    /// Still 15 °C water at 1 bar — the quiescent test-station condition.
    pub fn still_water() -> Self {
        SensorEnvironment {
            fluid_temperature: Celsius::new(15.0),
            velocity: MetersPerSecond::ZERO,
            pressure: Pascals::from_bar(1.0),
        }
    }
}

impl Default for SensorEnvironment {
    fn default() -> Self {
        SensorEnvironment::still_water()
    }
}

/// One heater channel: RTD + thermal node + surface layers.
#[derive(Debug, Clone)]
struct HeaterChannel {
    rtd: Rtd,
    membrane: MembraneState,
    bubbles: BubbleLayer,
    fouling: FoulingLayer,
    last_conductance: ThermalConductance,
    /// Per-node memo for the exponential-Euler decay factor. Its inputs
    /// repeat bit for bit across a control frame because the meter holds
    /// the surface layers for the frame and advances them once, at its end
    /// ([`MafDie::step_surfaces`]); with a surface step on every tick the
    /// scale grows each tick in potable water and the memo never hits.
    decay_cache: DecayCache,
}

impl HeaterChannel {
    fn new(rtd: Rtd, params: &MafParams, initial: Celsius) -> Self {
        HeaterChannel {
            rtd,
            membrane: MembraneState::at_equilibrium(initial),
            bubbles: BubbleLayer::new(params.bubbles),
            fouling: FoulingLayer::new(params.fouling, params.passivation),
            last_conductance: ThermalConductance::ZERO,
            decay_cache: DecayCache::empty(),
        }
    }

    fn surface(&self) -> SurfaceCondition {
        SurfaceCondition {
            bubble_coverage: self.bubbles.coverage(),
            fouling_resistance: self.fouling.thermal_resistance(),
        }
    }
}

/// The complete two-heater MAF die immersed in a fluid.
///
/// ```
/// use hotwire_physics::{MafDie, MafParams, SensorEnvironment};
/// use hotwire_units::{Seconds, Watts};
/// use rand::SeedableRng;
///
/// let mut die = MafDie::in_potable_water(MafParams::nominal());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let env = SensorEnvironment::still_water();
/// let cold = die.heater_resistance(hotwire_physics::sensor::HeaterId::A);
/// for _ in 0..100 {
///     die.step(Seconds::new(10.0 * 1e-6), Watts::new(0.005), Watts::new(0.005), env, &mut rng);
/// }
/// assert!(die.heater_resistance(hotwire_physics::sensor::HeaterId::A) > cold);
/// ```
#[derive(Debug, Clone)]
pub struct MafDie {
    params: MafParams,
    fluid: Water,
    heater_a: HeaterChannel,
    heater_b: HeaterChannel,
    reference_rtd: Rtd,
    reference_temperature: Celsius,
    king: KingsLaw,
    king_film_temp: f64,
    /// Memo of the last King's-law evaluation, keyed on the velocity's bit
    /// pattern. The velocity only changes at the control/environment rate,
    /// so the modulator-rate loop skips the `powf` on nearly every tick;
    /// invalidated whenever the law is re-derived.
    conductance_cache: Option<(u64, f64)>,
    /// Memo of the reference-lag factor `exp(−dt/lag)`, keyed on the step's
    /// bit pattern (the lag itself is a fixed parameter).
    rho_cache: Option<(u64, f64)>,
}

impl MafDie {
    /// Builds a die immersed in the given water, equilibrated at
    /// `initial_temperature`.
    pub fn new(params: MafParams, fluid: Water, initial_temperature: Celsius) -> Self {
        let heater_a_rtd = params.heater.with_tolerance(params.heater_a_tolerance);
        let heater_b_rtd = params.heater.with_tolerance(params.heater_b_tolerance);
        let reference_rtd = params.reference.with_tolerance(params.reference_tolerance);
        let king = KingsLaw::from_kramers(&fluid, initial_temperature, params.geometry);
        MafDie {
            heater_a: HeaterChannel::new(heater_a_rtd, &params, initial_temperature),
            heater_b: HeaterChannel::new(heater_b_rtd, &params, initial_temperature),
            reference_rtd,
            reference_temperature: initial_temperature,
            king,
            king_film_temp: initial_temperature.get(),
            conductance_cache: None,
            rho_cache: None,
            params,
            fluid,
        }
    }

    /// A die in potable (hard, air-saturated) water at 15 °C.
    pub fn in_potable_water(params: MafParams) -> Self {
        MafDie::new(params, Water::potable(), Celsius::new(15.0))
    }

    /// The immersion medium.
    #[inline]
    pub fn fluid(&self) -> &Water {
        &self.fluid
    }

    /// The static die parameters.
    #[inline]
    pub fn params(&self) -> &MafParams {
        &self.params
    }

    /// Instantaneous resistance of the selected heater.
    pub fn heater_resistance(&self, id: HeaterId) -> Ohms {
        let ch = self.channel(id);
        ch.rtd.resistance(ch.membrane.temperature())
    }

    /// Instantaneous resistance of the ambient reference resistor.
    pub fn reference_resistance(&self) -> Ohms {
        self.reference_rtd.resistance(self.reference_temperature)
    }

    /// Current temperature of the ambient-reference node — together with
    /// [`heater_temperature`](Self::heater_temperature) and
    /// [`kings_law`](Self::kings_law), the die state a bounded-error fast
    /// AFE tier linearizes its once-per-frame bridge solve around.
    #[inline]
    pub fn reference_temperature(&self) -> Celsius {
        self.reference_temperature
    }

    /// Film temperature of the selected heater.
    pub fn heater_temperature(&self, id: HeaterId) -> Celsius {
        self.channel(id).membrane.temperature()
    }

    /// Bubble coverage of the selected heater face, `0..=1`.
    pub fn bubble_coverage(&self, id: HeaterId) -> f64 {
        self.channel(id).bubbles.coverage()
    }

    /// CaCO₃ deposit thickness on the selected heater face, µm.
    pub fn fouling_thickness_um(&self, id: HeaterId) -> f64 {
        self.channel(id).fouling.thickness_um()
    }

    /// Total bubble-detachment events on the selected heater so far.
    pub fn detachment_count(&self, id: HeaterId) -> u64 {
        self.channel(id).bubbles.detachment_count()
    }

    /// The wire-to-fluid conductance used at the last step for the selected
    /// heater (diagnostic).
    pub fn last_conductance(&self, id: HeaterId) -> ThermalConductance {
        self.channel(id).last_conductance
    }

    /// The King's law currently in force (re-derived when the film
    /// temperature drifts).
    #[inline]
    pub fn kings_law(&self) -> &KingsLaw {
        &self.king
    }

    fn channel(&self, id: HeaterId) -> &HeaterChannel {
        match id {
            HeaterId::A => &self.heater_a,
            HeaterId::B => &self.heater_b,
        }
    }

    /// Advective coupling fraction at speed `v` — how much of the upstream
    /// heater's overheat arrives at the downstream heater.
    fn coupling(&self, v: MetersPerSecond) -> f64 {
        let s = v.get().abs();
        self.params.coupling_max * s / (s + self.params.coupling_halfspeed.get())
    }

    /// Advances the die by `dt` with electrical powers applied to heaters A
    /// and B, in the given environment: [`step_thermal`](Self::step_thermal)
    /// and then [`step_surfaces`](Self::step_surfaces), both over `dt`.
    ///
    /// The RNG drives bubble detachment; pass a seeded RNG for reproducible
    /// runs.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt: Seconds,
        power_a: Watts,
        power_b: Watts,
        env: SensorEnvironment,
        rng: &mut R,
    ) {
        self.step_thermal(dt, power_a, power_b, env);
        self.step_surfaces(dt, env.pressure, rng);
    }

    /// Advances the thermal state by one step of `dt` at constant heater
    /// powers, with the surface layers held: the one-tick instance of
    /// [`step_thermal_with`](Self::step_thermal_with). Draws no RNG.
    #[inline]
    pub fn step_thermal(
        &mut self,
        dt: Seconds,
        power_a: Watts,
        power_b: Watts,
        env: SensorEnvironment,
    ) {
        self.step_thermal_with(dt, env, 1, |_, _, _, _| (power_a, power_b));
    }

    /// Advances the thermal state by `ticks` steps of `dt` in one
    /// environment, with the surface layers held: per tick the King's-law
    /// re-derivation check, the advective coupling, both membrane nodes and
    /// the reference lag. Draws no RNG.
    ///
    /// Before tick `k` steps, `drive(k, rh_a, rh_b, rt)` receives the
    /// heater A, heater B and reference resistances at the tick's start and
    /// returns the tick's heater powers `(p_a, p_b)` — a bridge solve, for
    /// a caller closing the loop at the modulator rate.
    ///
    /// Each stretch of ticks under one King's law first checks the film
    /// temperature (re-deriving the law if it moved), then derives what the
    /// stretch holds constant — the coupling, the ideal conductance, both
    /// nodes' heat balances and decay factors, the reference lag — and runs
    /// its ticks with the three temperatures in locals. A film temperature
    /// that moves by more than 0.5 K ends the stretch. Every expression
    /// keeps the one-tick operand order, so the walk is bit-identical to
    /// `ticks` one-tick steps fed the same powers.
    ///
    /// The bubbles (seconds) and the scale (months) move far slower than
    /// the membrane (~60 µs), so a caller stepping at the modulator rate
    /// may advance the surfaces once per control frame instead, through
    /// [`step_surfaces`](Self::step_surfaces) over the frame's span.
    pub fn step_thermal_with(
        &mut self,
        dt: Seconds,
        env: SensorEnvironment,
        ticks: usize,
        mut drive: impl FnMut(usize, Ohms, Ohms, Ohms) -> (Watts, Watts),
    ) {
        let t_fluid = env.fluid_temperature;
        let v = env.velocity;
        let (rtd_a, rtd_b, rtd_ref) = (self.heater_a.rtd, self.heater_b.rtd, self.reference_rtd);
        let mut node_a = self.heater_a.membrane;
        let mut node_b = self.heater_b.membrane;
        let mut t_ref = self.reference_temperature.get();
        let film_of = |a: &MembraneState, b: &MembraneState| {
            0.5 * (t_fluid.get() + 0.5 * (a.temperature().get() + b.temperature().get()))
        };
        let mut k = 0;
        while k < ticks {
            // Re-derive King's law when the film temperature moves > 0.5 K
            // (property drift matters over tens of kelvin, not per sample).
            let film = film_of(&node_a, &node_b);
            if (film - self.king_film_temp).abs() > 0.5 {
                self.king =
                    KingsLaw::from_kramers(&self.fluid, Celsius::new(film), self.params.geometry);
                self.king_film_temp = film;
                self.conductance_cache = None;
            }

            let c = self.coupling(v);
            let ideal = self.ideal_conductance(v);
            let membrane = &self.params.membrane;
            let balance_a = HeatBalance::new(membrane, ideal, self.heater_a.surface(), t_fluid);
            let balance_b = HeatBalance::new(membrane, ideal, self.heater_b.surface(), t_fluid);
            let decay_a = balance_a.decay(dt, membrane, &mut self.heater_a.decay_cache);
            let decay_b = balance_b.decay(dt, membrane, &mut self.heater_b.decay_cache);
            self.heater_a.last_conductance = balance_a.conductance();
            self.heater_b.last_conductance = balance_b.conductance();
            let rho = self.reference_lag(dt);
            let king_film_temp = self.king_film_temp;

            loop {
                let (p_a, p_b) = drive(
                    k,
                    rtd_a.resistance(node_a.temperature()),
                    rtd_b.resistance(node_b.temperature()),
                    rtd_ref.resistance(Celsius::new(t_ref)),
                );
                // Advective coupling: downstream heater sees pre-heated fluid.
                let (pre_a, pre_b) = if v.get() >= 0.0 {
                    // A upstream, B downstream.
                    (0.0, c * (node_a.temperature() - t_fluid).get())
                } else {
                    (c * (node_b.temperature() - t_fluid).get(), 0.0)
                };
                node_a.advance(
                    &balance_a,
                    decay_a,
                    p_a,
                    Celsius::new(t_fluid.get() + pre_a),
                );
                node_b.advance(
                    &balance_b,
                    decay_b,
                    p_b,
                    Celsius::new(t_fluid.get() + pre_b),
                );
                // Reference resistor tracks the fluid with a first-order lag.
                t_ref = t_fluid.get() + (t_ref - t_fluid.get()) * rho;
                k += 1;
                if k == ticks || (film_of(&node_a, &node_b) - king_film_temp).abs() > 0.5 {
                    break;
                }
            }
        }
        self.heater_a.membrane = node_a;
        self.heater_b.membrane = node_b;
        self.reference_temperature = Celsius::new(t_ref);
    }

    /// The ideal King's-law conductance at `v`, shared by both nodes,
    /// through the bit-keyed memo: the velocity only changes at the
    /// environment rate, so the `powf` almost always skips, and a hit
    /// returns the exact value a recomputation would.
    fn ideal_conductance(&mut self, v: MetersPerSecond) -> ThermalConductance {
        let v_bits = v.get().to_bits();
        match self.conductance_cache {
            Some((bits, g)) if bits == v_bits => ThermalConductance::new(g),
            _ => {
                let g = self.king.conductance(v);
                self.conductance_cache = Some((v_bits, g.get()));
                g
            }
        }
    }

    /// The reference-lag factor `exp(−dt/lag)`. It depends only on `dt`
    /// (the lag is a fixed parameter), so it memoizes on the step's bit
    /// pattern.
    fn reference_lag(&mut self, dt: Seconds) -> f64 {
        let dt_bits = dt.get().to_bits();
        match self.rho_cache {
            Some((bits, rho)) if bits == dt_bits => rho,
            _ => {
                let rho = (-dt.get() / self.params.reference_lag.get()).exp();
                self.rho_cache = Some((dt_bits, rho));
                rho
            }
        }
    }

    /// Advances both faces' surface layers by `dt` at the present wall
    /// temperatures: the bubbles first (their onset set by the line
    /// `pressure`), then the scale, which grows faster under bubbles.
    ///
    /// These are the die's only RNG draws (bubble detachment), and none
    /// are made while both faces are bubble-free.
    #[inline]
    pub fn step_surfaces<R: Rng + ?Sized>(&mut self, dt: Seconds, pressure: Pascals, rng: &mut R) {
        let onset = self.fluid.bubble_onset_temperature(pressure);
        let hardness = self.fluid.hardness_f;
        let wall_a = self.heater_a.membrane.temperature();
        let wall_b = self.heater_b.membrane.temperature();
        self.heater_a.bubbles.step(dt, wall_a, onset, rng);
        self.heater_b.bubbles.step(dt, wall_b, onset, rng);
        self.heater_a
            .fouling
            .step(dt, wall_a, hardness, self.heater_a.bubbles.coverage());
        self.heater_b
            .fouling
            .step(dt, wall_b, hardness, self.heater_b.bubbles.coverage());
    }

    /// Advances surface aging (fouling) by a coarse interval without
    /// electrical drive — used for months-scale endurance studies where
    /// simulating every ΣΔ sample would be pointless.
    pub fn age_surfaces(&mut self, hours: f64, wall: Celsius, coverage: f64) {
        let hardness = self.fluid.hardness_f;
        self.heater_a
            .fouling
            .advance_hours(hours, wall, hardness, coverage);
        self.heater_b
            .fouling
            .advance_hours(hours, wall, hardness, coverage);
    }

    /// Slams extra bubble coverage onto both heater faces at once — a slug
    /// of entrained gas bursting against the die (fault injection's abrupt
    /// bubble event). Coverage clamps to the unit interval per face.
    pub fn inject_bubble_burst(&mut self, coverage: f64) {
        self.heater_a.bubbles.deposit(coverage);
        self.heater_b.bubbles.deposit(coverage);
    }

    /// Deposits a step of scale thickness on both heater faces at once
    /// (fault injection's abrupt fouling event, e.g. debris lodging on the
    /// sensor face).
    pub fn deposit_fouling(&mut self, microns: f64) {
        self.heater_a.fouling.deposit(microns);
        self.heater_b.fouling.deposit(microns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn settle(die: &mut MafDie, p: Watts, env: SensorEnvironment, rng: &mut rand::rngs::StdRng) {
        // 20 ms at 10 µs steps ≫ thermal τ.
        for _ in 0..2000 {
            die.step(Seconds::new(10.0 * 1e-6), p, p, env, rng);
        }
    }

    #[test]
    fn heating_raises_resistance() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let cold = die.heater_resistance(HeaterId::A);
        settle(
            &mut die,
            Watts::new(0.01),
            SensorEnvironment::still_water(),
            &mut r,
        );
        let hot = die.heater_resistance(HeaterId::A);
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn flow_cools_the_heaters() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let p = Watts::new(0.01);
        settle(&mut die, p, SensorEnvironment::still_water(), &mut r);
        let still = die.heater_temperature(HeaterId::A);
        let flowing = SensorEnvironment {
            velocity: MetersPerSecond::new(1.0),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, p, flowing, &mut r);
        let moving = die.heater_temperature(HeaterId::A);
        assert!(
            still.get() - moving.get() > 1.0,
            "still {still} vs flowing {moving}"
        );
    }

    #[test]
    fn downstream_heater_runs_hotter() {
        // Positive flow: A upstream, B downstream → B receives A's heat and
        // runs hotter at equal power. This asymmetry is the direction signal.
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let env = SensorEnvironment {
            velocity: MetersPerSecond::new(0.5),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, Watts::new(0.01), env, &mut r);
        let ta = die.heater_temperature(HeaterId::A);
        let tb = die.heater_temperature(HeaterId::B);
        assert!(
            tb.get() > ta.get() + 0.05,
            "B (downstream) {tb} must exceed A (upstream) {ta}"
        );
    }

    #[test]
    fn direction_asymmetry_flips_with_flow() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let rev = SensorEnvironment {
            velocity: MetersPerSecond::new(-0.5),
            ..SensorEnvironment::still_water()
        };
        settle(&mut die, Watts::new(0.01), rev, &mut r);
        let ta = die.heater_temperature(HeaterId::A);
        let tb = die.heater_temperature(HeaterId::B);
        assert!(ta.get() > tb.get() + 0.05, "reversed flow must heat A");
    }

    #[test]
    fn reference_tracks_fluid_temperature() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        let warm = SensorEnvironment {
            fluid_temperature: Celsius::new(25.0),
            ..SensorEnvironment::still_water()
        };
        // 0.5 s ≫ 40 ms reference lag.
        for _ in 0..5000 {
            die.step(
                Seconds::new(100.0 * 1e-6),
                Watts::ZERO,
                Watts::ZERO,
                warm,
                &mut r,
            );
        }
        let rt = die.reference_resistance();
        // The nominal die's reference carries no tolerance.
        let expected = die.params().reference.resistance(Celsius::new(25.0));
        assert!(
            (rt - expected).abs().get() < 0.1,
            "Rt {rt} vs expected {expected}"
        );
    }

    #[test]
    fn thermal_steps_hold_the_surface_conductance() {
        // Bubbles and scale that a surface step would move on every tick;
        // thermal steps alone must leave the conductance's bits alone.
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        die.inject_bubble_burst(0.3);
        die.deposit_fouling(1.0);
        let env = SensorEnvironment {
            velocity: MetersPerSecond::new(0.5),
            ..SensorEnvironment::still_water()
        };
        let (dt, p) = (Seconds::new(10.0 * 1e-6), Watts::new(0.01));
        // Settle first, so the film temperature stops re-deriving King's law.
        for _ in 0..2000 {
            die.step_thermal(dt, p, p, env);
        }
        let held = [HeaterId::A, HeaterId::B].map(|id| die.last_conductance(id).get().to_bits());
        for _ in 0..256 {
            die.step_thermal(dt, p, p, env);
            let now = [HeaterId::A, HeaterId::B].map(|id| die.last_conductance(id).get().to_bits());
            assert_eq!(now, held);
        }
    }

    #[test]
    fn tolerances_shift_resistances() {
        let die = MafDie::in_potable_water(MafParams::worst_case());
        let ra = die.heater_resistance(HeaterId::A);
        let rb = die.heater_resistance(HeaterId::B);
        assert!(ra > rb, "worst case skews A up, B down");
        // The die equilibrates at 15 °C, 5 K below the 20 °C reference point.
        let params = die.params();
        let rtd = |tolerance| params.heater.with_tolerance(tolerance);
        let expect_a = rtd(params.heater_a_tolerance).resistance(Celsius::new(15.0));
        let expect_b = rtd(params.heater_b_tolerance).resistance(Celsius::new(15.0));
        assert!((ra - expect_a).abs().get() < 1e-9);
        assert!((rb - expect_b).abs().get() < 1e-9);
        assert!((ra / rb - 50.5 / 49.5).abs() < 1e-3);
    }

    #[test]
    fn overdriven_heater_in_water_grows_bubbles() {
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        let mut r = rng();
        // Drive hard enough to exceed the 40 °C outgassing onset and hold it
        // for 30 simulated seconds (coarse 10 ms steps — thermal state is
        // quasi-static at that scale thanks to exponential Euler).
        let env = SensorEnvironment::still_water();
        let p = Watts::new(0.02);
        for _ in 0..3000 {
            die.step(Seconds::from_millis(10.0), p, p, env, &mut r);
        }
        assert!(
            die.heater_temperature(HeaterId::A).get() > 40.0,
            "wall {} must exceed onset",
            die.heater_temperature(HeaterId::A)
        );
        assert!(
            die.bubble_coverage(HeaterId::A) > 0.1,
            "coverage {}",
            die.bubble_coverage(HeaterId::A)
        );
    }

    #[test]
    fn aging_accumulates_fouling_on_bare_die() {
        let params = MafParams {
            passivation: Passivation::Bare,
            ..MafParams::nominal()
        };
        let mut die = MafDie::in_potable_water(params);
        die.age_surfaces(24.0 * 90.0, Celsius::new(45.0), 0.0);
        assert!(die.fouling_thickness_um(HeaterId::A) > 1.0);
    }

    #[test]
    fn passivated_die_resists_months_of_water() {
        // Paper: "no deposit of calcium carbonate" after several months.
        let mut die = MafDie::in_potable_water(MafParams::nominal());
        die.age_surfaces(24.0 * 90.0, Celsius::new(35.0), 0.0);
        assert!(
            die.fouling_thickness_um(HeaterId::A) < 0.5,
            "thickness {} µm",
            die.fouling_thickness_um(HeaterId::A)
        );
    }

    #[test]
    fn params_validate() {
        assert!(MafParams::nominal().validate().is_ok());
        assert!(MafParams::worst_case().validate().is_ok());
        let bad = MafParams {
            coupling_max: 1.5,
            ..MafParams::nominal()
        };
        assert!(bad.validate().is_err());
    }
}
