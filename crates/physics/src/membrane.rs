//! Lumped thermal model of the heated membrane region.
//!
//! The heater sits on a 2 µm SiN/SiO₂/SiN membrane that thermally isolates it
//! from the chip rim; the backside cavity is filled with a low-conductivity
//! organic so essentially all heat leaves through the front face into the
//! fluid. We model one thermal node per heater:
//!
//! ```text
//! C_th · dT/dt = P_el − G_sub·(T − T_rim) − G_conv(v)·(T − T_fluid,eff)
//! ```
//!
//! where `G_conv` is King's law degraded by bubble coverage and fouling.
//! The step integrator is exponential-Euler: exact for the linear ODE between
//! samples, unconditionally stable, so the 2 µm membrane's ~60 µs water time
//! constant does not force a smaller simulation step.

use crate::error::ensure_positive;
use crate::kings_law::KingsLaw;
use crate::PhysicsError;
use hotwire_units::{
    Celsius, HeatCapacity, MetersPerSecond, Seconds, ThermalConductance, ThermalResistance, Watts,
};

/// Static parameters of one membrane thermal node.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MembraneParams {
    /// Heat capacity of the heated region (J/K).
    pub heat_capacity: HeatCapacity,
    /// Conduction to the chip rim through the membrane (W/K). Small by
    /// design — the membrane provides "high thermal isolation of the heated
    /// wires to the chip edges".
    pub substrate_conductance: ThermalConductance,
    /// Conduction through the backside-cavity filler (W/K). The filler is a
    /// "flexible organic material with significant lower heat conduction as
    /// water", so this is smaller still.
    pub backside_conductance: ThermalConductance,
}

impl MembraneParams {
    /// Parameters of the MAF die's heater membrane (2 µm stack, KOH-etched
    /// cavity, organic backside fill).
    pub fn maf() -> Self {
        MembraneParams {
            heat_capacity: HeatCapacity::new(2.0e-7),
            substrate_conductance: ThermalConductance::new(3.0e-5),
            backside_conductance: ThermalConductance::new(8.0e-6),
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`PhysicsError`] if any parameter is non-positive.
    pub fn validate(&self) -> Result<(), PhysicsError> {
        ensure_positive("heat_capacity", self.heat_capacity.get())?;
        ensure_positive("substrate_conductance", self.substrate_conductance.get())?;
        ensure_positive("backside_conductance", self.backside_conductance.get())?;
        Ok(())
    }
}

impl Default for MembraneParams {
    fn default() -> Self {
        MembraneParams::maf()
    }
}

/// Degradation of the front-face convection path (bubbles, scale).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SurfaceCondition {
    /// Fraction of the heater face blanketed by gas bubbles, `0..=1`.
    /// A vapour/gas blanket conducts far worse than water.
    pub bubble_coverage: f64,
    /// Added series thermal resistance of the CaCO₃ scale layer (K/W).
    pub fouling_resistance: ThermalResistance,
}

impl SurfaceCondition {
    /// Effective convective conductance given the ideal King's-law value.
    ///
    /// Bubble blanketing scales the wetted-area conductance; the scale layer
    /// adds a series resistance.
    pub fn effective_conductance(&self, ideal: ThermalConductance) -> ThermalConductance {
        // A gas blanket retains ~12 % of the wetted heat transfer (gas
        // conduction + micro-convection around the bubble).
        const BLANKET_RESIDUAL: f64 = 0.12;
        let theta = self.bubble_coverage.clamp(0.0, 1.0);
        let wetted = ideal.get() * (1.0 - theta + theta * BLANKET_RESIDUAL);
        let rf = self.fouling_resistance.get().max(0.0);
        ThermalConductance::new(wetted / (1.0 + rf * wetted))
    }
}

/// One-entry memo for the exponential-Euler decay factor `exp(−dt/τ)`.
///
/// Within a control frame `dt` and `G_tot` — the only inputs to the decay —
/// repeat exactly: the ideal King's-law conductance moves only with the
/// velocity (or a film drift past 0.5 K), and the surface degradation is
/// held, because the meter advances the surface layers once per frame
/// ([`MafDie::step_surfaces`](crate::MafDie::step_surfaces)). Keying on
/// their raw bit patterns lets the die's thermal walk skip the `exp` and
/// both divisions whenever a stretch of ticks repeats the last one's
/// inputs (a frame at an unchanged velocity), and a one-tick step on every
/// repeated tick, without changing a single result bit: a hit returns the
/// very value a recomputation would produce.
/// A surface step on every tick defeats the memo: in potable water the
/// scale grows on every step, so `G_tot` never repeats and every lookup
/// misses.
#[derive(Debug, Clone, Copy)]
pub struct DecayCache {
    key: (u64, u64),
    value: f64,
}

impl DecayCache {
    /// An empty cache (first lookup always misses).
    pub const fn empty() -> Self {
        // NaN bit patterns — never produced by a real (dt, G_tot) pair.
        DecayCache {
            key: (u64::MAX, u64::MAX),
            value: 0.0,
        }
    }

    #[inline]
    fn decay(&mut self, dt: f64, g_tot: f64, heat_capacity: f64) -> f64 {
        let key = (dt.to_bits(), g_tot.to_bits());
        if self.key != key {
            let tau = heat_capacity / g_tot;
            self.key = key;
            self.value = (-dt / tau).exp();
        }
        self.value
    }
}

impl Default for DecayCache {
    fn default() -> Self {
        DecayCache::empty()
    }
}

/// The part of one node's heat balance that holds across steps sharing the
/// ideal conductance, the surface condition and the rim temperature: the
/// degraded convection `G_conv`, the total `G_tot` and the rim term
/// `G_sub·T_rim`. The drive and the incoming-fluid temperature stay per
/// step. The node's only heat-balance arithmetic lives here, so a walk that
/// derives it once per stretch of steps and a single step agree to the bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeatBalance {
    g_conv: ThermalConductance,
    g_tot: f64,
    rim: f64,
}

impl HeatBalance {
    #[inline]
    pub(crate) fn new(
        params: &MembraneParams,
        ideal: ThermalConductance,
        surface: SurfaceCondition,
        t_rim: Celsius,
    ) -> Self {
        let g_conv = surface.effective_conductance(ideal);
        let g_sub = params.substrate_conductance + params.backside_conductance;
        let g_tot = g_conv + g_sub;
        HeatBalance {
            g_conv,
            g_tot: g_tot.get(),
            rim: g_sub.get() * t_rim.get(),
        }
    }

    /// The convective conductance after surface degradation.
    #[inline]
    pub(crate) fn conductance(&self) -> ThermalConductance {
        self.g_conv
    }

    /// The exponential-Euler decay factor `exp(−dt/τ)`, `τ = C/G_tot`,
    /// through the node's memo.
    #[inline]
    pub(crate) fn decay(
        &self,
        dt: Seconds,
        params: &MembraneParams,
        cache: &mut DecayCache,
    ) -> f64 {
        cache.decay(dt.get(), self.g_tot, params.heat_capacity.get())
    }

    /// `T_inf = (P + G_sub·T_rim + G_conv·T_fluid) / G_tot`.
    #[inline]
    fn steady_state(&self, p_el: f64, t_fluid: f64) -> f64 {
        (p_el + self.rim + self.g_conv.get() * t_fluid) / self.g_tot
    }
}

/// The evolving thermal state of one membrane node.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MembraneState {
    temperature: Celsius,
}

impl MembraneState {
    /// Starts the node in equilibrium with the given fluid temperature.
    pub fn at_equilibrium(fluid: Celsius) -> Self {
        MembraneState { temperature: fluid }
    }

    /// Current node (≈ heater film) temperature.
    #[inline]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Advances the node by `dt` under electrical power `p_el`, ideal
    /// convection from `king` at speed `v`, surface condition `surface`, rim
    /// temperature `t_rim` and effective incoming-fluid temperature
    /// `t_fluid`.
    ///
    /// Returns the conductance actually used (after surface degradation),
    /// which the conditioning loop's observer may want ([C-INTERMEDIATE]).
    ///
    /// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
    #[allow(clippy::too_many_arguments)] // mirrors the physical heat-balance terms
    pub fn step(
        &mut self,
        dt: Seconds,
        p_el: Watts,
        params: &MembraneParams,
        king: &KingsLaw,
        v: MetersPerSecond,
        surface: SurfaceCondition,
        t_fluid: Celsius,
        t_rim: Celsius,
    ) -> ThermalConductance {
        let mut cache = DecayCache::empty();
        self.step_cached(
            dt,
            p_el,
            params,
            king.conductance(v),
            surface,
            t_fluid,
            t_rim,
            &mut cache,
        )
    }

    /// [`step`](Self::step) with the ideal King's-law conductance precomputed
    /// by the caller and the decay exponential memoized through `cache`.
    ///
    /// Bit-identical to `step` when `ideal == king.conductance(v)`: a cache
    /// miss performs exactly the same `τ = C/G_tot`, `exp(−dt/τ)` sequence,
    /// and a hit returns the bit-equal stored value. The die's thermal walk
    /// ([`MafDie::step_thermal_with`](crate::MafDie::step_thermal_with))
    /// runs the same heat balance with its per-stretch part derived once.
    #[allow(clippy::too_many_arguments)] // mirrors the physical heat-balance terms
    pub fn step_cached(
        &mut self,
        dt: Seconds,
        p_el: Watts,
        params: &MembraneParams,
        ideal: ThermalConductance,
        surface: SurfaceCondition,
        t_fluid: Celsius,
        t_rim: Celsius,
        cache: &mut DecayCache,
    ) -> ThermalConductance {
        let balance = HeatBalance::new(params, ideal, surface, t_rim);
        let decay = balance.decay(dt, params, cache);
        self.advance(&balance, decay, p_el, t_fluid);
        balance.conductance()
    }

    /// One exponential-Euler step under `balance` with decay factor `decay`
    /// (from [`HeatBalance::decay`] at the step's `dt`).
    #[inline]
    pub(crate) fn advance(
        &mut self,
        balance: &HeatBalance,
        decay: f64,
        p_el: Watts,
        t_fluid: Celsius,
    ) {
        let t_inf = balance.steady_state(p_el.get(), t_fluid.get());
        self.temperature = Celsius::new(t_inf + (self.temperature.get() - t_inf) * decay);
    }

    /// The steady-state temperature the node would reach at constant drive.
    pub fn steady_state(
        p_el: Watts,
        params: &MembraneParams,
        king: &KingsLaw,
        v: MetersPerSecond,
        surface: SurfaceCondition,
        t_fluid: Celsius,
        t_rim: Celsius,
    ) -> Celsius {
        let balance = HeatBalance::new(params, king.conductance(v), surface, t_rim);
        Celsius::new(balance.steady_state(p_el.get(), t_fluid.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MembraneParams, KingsLaw) {
        let king = KingsLaw::from_kramers(
            &crate::fluid::Water::potable(),
            Celsius::new(15.0),
            crate::kings_law::WireGeometry::maf_heater(),
        );
        (MembraneParams::maf(), king)
    }

    #[test]
    fn equilibrium_without_power() {
        let (params, king) = setup();
        let fluid = Celsius::new(15.0);
        let mut state = MembraneState::at_equilibrium(fluid);
        for _ in 0..100 {
            state.step(
                Seconds::new(10.0 * 1e-6),
                Watts::ZERO,
                &params,
                &king,
                MetersPerSecond::new(0.5),
                SurfaceCondition::default(),
                fluid,
                fluid,
            );
        }
        assert!((state.temperature() - fluid).abs().get() < 1e-9);
    }

    #[test]
    fn heating_approaches_steady_state() {
        let (params, king) = setup();
        let fluid = Celsius::new(15.0);
        let v = MetersPerSecond::new(1.0);
        let p = Watts::new(0.02);
        let mut state = MembraneState::at_equilibrium(fluid);
        // Run 10 ms — far beyond the ~60 µs time constant.
        for _ in 0..1000 {
            state.step(
                Seconds::new(10.0 * 1e-6),
                p,
                &params,
                &king,
                v,
                SurfaceCondition::default(),
                fluid,
                fluid,
            );
        }
        let expected = MembraneState::steady_state(
            p,
            &params,
            &king,
            v,
            SurfaceCondition::default(),
            fluid,
            fluid,
        );
        assert!(
            (state.temperature() - expected).abs().get() < 1e-6,
            "state {} vs steady {}",
            state.temperature(),
            expected
        );
        assert!(state.temperature() > fluid);
    }

    #[test]
    fn water_time_constant_is_sub_millisecond() {
        let (params, king) = setup();
        let g = king.conductance(MetersPerSecond::new(0.5));
        let tau: Seconds = params.heat_capacity / g;
        assert!(
            tau.get() < 1e-3,
            "τ = {} s — paper: 'response times are reasonable short, even in water'",
            tau.get()
        );
    }

    #[test]
    fn faster_flow_cools_harder() {
        let (params, king) = setup();
        let fluid = Celsius::new(15.0);
        let p = Watts::new(0.02);
        let slow = MembraneState::steady_state(
            p,
            &params,
            &king,
            MetersPerSecond::new(0.2),
            SurfaceCondition::default(),
            fluid,
            fluid,
        );
        let fast = MembraneState::steady_state(
            p,
            &params,
            &king,
            MetersPerSecond::new(2.0),
            SurfaceCondition::default(),
            fluid,
            fluid,
        );
        assert!(slow > fast);
    }

    #[test]
    fn bubbles_insulate() {
        let clean = SurfaceCondition::default();
        let blanketed = SurfaceCondition {
            bubble_coverage: 0.5,
            ..SurfaceCondition::default()
        };
        let ideal = ThermalConductance::new(2e-3);
        assert!(blanketed.effective_conductance(ideal) < clean.effective_conductance(ideal));
        // Fully blanketed retains only the residual fraction.
        let full = SurfaceCondition {
            bubble_coverage: 1.0,
            ..SurfaceCondition::default()
        };
        let g = full.effective_conductance(ideal);
        assert!((g.get() / ideal.get() - 0.12).abs() < 1e-9);
    }

    #[test]
    fn fouling_adds_series_resistance() {
        let ideal = ThermalConductance::new(2e-3);
        let fouled = SurfaceCondition {
            bubble_coverage: 0.0,
            fouling_resistance: ThermalResistance::new(50.0),
        };
        let g = fouled.effective_conductance(ideal);
        // 1/G = 1/2e-3 + 50 = 550 K/W → G ≈ 1.818e-3.
        assert!((g.get() - 1.0 / 550.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_clamped() {
        let over = SurfaceCondition {
            bubble_coverage: 2.0,
            ..SurfaceCondition::default()
        };
        let ideal = ThermalConductance::new(1e-3);
        let g = over.effective_conductance(ideal);
        assert!((g.get() / ideal.get() - 0.12).abs() < 1e-9);
    }

    #[test]
    fn exponential_euler_is_stable_for_huge_steps() {
        let (params, king) = setup();
        let fluid = Celsius::new(15.0);
        let mut state = MembraneState::at_equilibrium(fluid);
        // One step of a full second — 4 orders above τ — must land exactly on
        // the steady state, not blow up.
        state.step(
            Seconds::new(1.0),
            Watts::new(0.02),
            &params,
            &king,
            MetersPerSecond::new(1.0),
            SurfaceCondition::default(),
            fluid,
            fluid,
        );
        let expected = MembraneState::steady_state(
            Watts::new(0.02),
            &params,
            &king,
            MetersPerSecond::new(1.0),
            SurfaceCondition::default(),
            fluid,
            fluid,
        );
        assert!((state.temperature() - expected).abs().get() < 1e-9);
    }

    #[test]
    fn cached_step_is_bit_identical_to_step() {
        let (params, king) = setup();
        let fluid = Celsius::new(15.0);
        let v = MetersPerSecond::new(0.7);
        let mut plain = MembraneState::at_equilibrium(fluid);
        let mut cached = MembraneState::at_equilibrium(fluid);
        let mut cache = DecayCache::empty();
        let surface = SurfaceCondition {
            bubble_coverage: 0.2,
            fouling_resistance: ThermalResistance::new(10.0),
        };
        let dt = Seconds::new(4.0 * 1e-6);
        for i in 0..500 {
            // Vary the drive so t_inf moves while (dt, G_tot) stays cached.
            let p = Watts::new(0.01 + 1e-4 * (i % 7) as f64);
            let g_plain = plain.step(dt, p, &params, &king, v, surface, fluid, fluid);
            let g_cached = cached.step_cached(
                dt,
                p,
                &params,
                king.conductance(v),
                surface,
                fluid,
                fluid,
                &mut cache,
            );
            assert_eq!(g_plain.get().to_bits(), g_cached.get().to_bits());
            assert_eq!(
                plain.temperature().get().to_bits(),
                cached.temperature().get().to_bits()
            );
        }
    }

    #[test]
    fn params_validate() {
        assert!(MembraneParams::maf().validate().is_ok());
        let bad = MembraneParams {
            heat_capacity: HeatCapacity::ZERO,
            ..MembraneParams::maf()
        };
        assert!(bad.validate().is_err());
    }
}
