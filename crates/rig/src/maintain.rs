//! Deterministic maintenance policies: when to re-zero, refit, persist.
//!
//! §6 of the paper argues for diffuse deployment of many cheap meters;
//! at fleet scale nobody walks a technician to a pit to re-zero a drifted
//! probe. This module is the firmware-side answer: a per-line policy
//! engine that watches the instrument's own drift/health/temperature
//! observables and decides, once per control tick, whether to run one of
//! the calibration-surface actions of the [`Meter`] trait —
//! [`re_zero`](Meter::re_zero), [`refit_from_recent`](Meter::refit_from_recent),
//! [`persist`](Meter::persist). Because the engine speaks only that
//! trait surface it manages the CTA and heat-pulse modalities with the
//! same code, and the `f4_maintenance` experiment can sweep policies
//! across a mixed-modality fleet.
//!
//! ## Determinism contract
//!
//! The engine draws **no** RNG: every decision is a pure function of the
//! meter's observables and the engine's own tick counter, so a
//! policy-managed line stays bit-identical at any `--jobs` count and
//! across checkpoint kill/resume (fleet lines are atomic — an
//! interrupted line reruns from scratch, so in-flight engine state never
//! needs to serialize; only the finished [`MaintenanceCounters`] ride
//! the line summaries into checkpoints). The runner calls
//! [`MaintenanceEngine::service`] exactly once per control frame, so the
//! engine's clock is the control-tick count.
//!
//! ## Wear economics
//!
//! Persisting a refit calibration survives a power cycle but costs one
//! EEPROM write cycle on both redundant slots. The engine rate-limits
//! persists two ways: a wall-clock-equivalent minimum interval, and a
//! hard per-slot wear budget read back from
//! [`calibration_wear`](Meter::calibration_wear) (which the EEPROM model
//! tracks per slot — erases do not heal cells). Skipped persists are
//! counted so the f4 frontier can price each policy in write cycles.

use hotwire_core::obs::EventKind;
use hotwire_core::{HealthState, Meter, TickClock};
use hotwire_units::Seconds;

/// When a line's calibration gets serviced.
///
/// `Scheduled` is the naive fleet-management baseline (refit every
/// period, drifted or not); `EventTriggered` services only when the
/// instrument's own observables say something moved; `Hybrid` combines
/// both (events catch fast excursions, the schedule bounds the worst-case
/// calibration age). `None` is the do-nothing control arm of the f4
/// frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Never service (the unmanaged control arm).
    None,
    /// Refit (and persist, wear permitting) every `period_s` of
    /// calibration age, unconditionally.
    Scheduled {
        /// Calibration age, in seconds, that triggers a refit.
        period_s: f64,
    },
    /// Service only when an instrument observable crosses a threshold.
    EventTriggered {
        /// Re-zero when the supervisor reports `Degraded`/`Faulted`.
        on_degraded: bool,
        /// Refit when `|drift_estimate|` exceeds this fraction.
        drift_threshold: f64,
        /// Refit when the fluid temperature moves this far (°C) from the
        /// anchor observed at the last service. Instruments without a
        /// temperature channel never fire this trigger.
        temp_delta_c: f64,
    },
    /// Union of `Scheduled` and `EventTriggered` triggers.
    Hybrid {
        /// Calibration age, in seconds, that triggers a refit.
        period_s: f64,
        /// Re-zero when the supervisor reports `Degraded`/`Faulted`.
        on_degraded: bool,
        /// Refit when `|drift_estimate|` exceeds this fraction.
        drift_threshold: f64,
        /// Refit when the fluid temperature moves this far (°C) from the
        /// last service anchor.
        temp_delta_c: f64,
    },
}

/// A policy plus its service-rate and wear limits — what a
/// [`RunSpec`](crate::RunSpec) / [`FleetSpec`](crate::FleetSpec) carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Maintenance {
    /// The trigger policy.
    pub policy: Policy,
    /// Minimum seconds between any two service actions on one line
    /// (debounces a trigger that stays asserted).
    pub min_service_interval_s: f64,
    /// Hard per-slot EEPROM wear ceiling: no persist runs once
    /// [`Meter::calibration_wear`] reaches this many write cycles.
    pub persist_budget: u64,
    /// Minimum seconds between persists (refits in between stay RAM-only).
    pub persist_min_interval_s: f64,
}

impl Maintenance {
    /// A maintenance config with the given policy and the default
    /// rate/wear limits.
    pub fn new(policy: Policy) -> Self {
        Maintenance {
            policy,
            ..Maintenance::default()
        }
    }

    /// Sets the minimum interval between service actions.
    #[must_use]
    pub fn with_min_service_interval(mut self, seconds: f64) -> Self {
        self.min_service_interval_s = seconds;
        self
    }

    /// Sets the minimum interval between persists.
    #[must_use]
    pub fn with_persist_min_interval(mut self, seconds: f64) -> Self {
        self.persist_min_interval_s = seconds;
        self
    }

    /// Whether this config ever acts (used by the executor to skip
    /// building an engine at all).
    pub fn is_active(&self) -> bool {
        self.policy != Policy::None
    }
}

impl Default for Maintenance {
    /// No policy; limits tuned for the paper's 500 Hz control loop
    /// (5 s debounce, 60 s persist interval, 10 k-cycle EEPROM budget).
    fn default() -> Self {
        Maintenance {
            policy: Policy::None,
            min_service_interval_s: 5.0,
            persist_budget: 10_000,
            persist_min_interval_s: 60.0,
        }
    }
}

/// What a policy engine did over one line — the recalibration-cost side
/// of the f4 frontier. Merges like the fleet's other aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct MaintenanceCounters {
    /// Drift-reference re-zeros (no calibration change).
    pub re_zeros: u64,
    /// In-RAM calibration refits.
    pub refits: u64,
    /// Refits persisted to EEPROM (two slot writes each).
    pub persists: u64,
    /// Persists withheld by the wear budget or persist interval.
    pub persists_skipped: u64,
}

impl MaintenanceCounters {
    /// Folds another line's counters into this accumulator.
    pub fn merge(&mut self, other: &MaintenanceCounters) {
        self.re_zeros += other.re_zeros;
        self.refits += other.refits;
        self.persists += other.persists;
        self.persists_skipped += other.persists_skipped;
    }

    /// Total service actions (re-zeros + refits; persists ride refits).
    pub fn actions(&self) -> u64 {
        self.re_zeros + self.refits
    }
}

/// The per-line policy executor.
///
/// Built by the campaign executor from a [`Maintenance`] config and the
/// meter's control period (all second-valued limits round to whole
/// control ticks once, up front, through [`TickClock::ticks_in`] — no
/// float accumulation at run time).
/// [`service`](Self::service) is the single entry point; see the
/// [module docs](self) for when the runner calls it.
#[derive(Debug, Clone)]
pub struct MaintenanceEngine {
    cfg: Maintenance,
    /// `Scheduled`/`Hybrid` period in control ticks.
    period_ticks: Option<u64>,
    /// `EventTriggered`/`Hybrid` drift threshold (fraction).
    drift_threshold: Option<f64>,
    /// `EventTriggered`/`Hybrid` temperature delta (°C).
    temp_delta_c: Option<f64>,
    /// Re-zero on `Degraded`/`Faulted` health.
    on_degraded: bool,
    min_interval_ticks: u64,
    persist_interval_ticks: u64,
    /// Engine clock: one per [`service`](Self::service) call.
    tick: u64,
    last_service_tick: u64,
    last_persist_tick: Option<u64>,
    /// Fluid temperature at the last service (or first observation).
    temp_anchor_c: Option<f64>,
    counters: MaintenanceCounters,
}

impl MaintenanceEngine {
    /// Builds an engine for a meter running at `control_period` per tick.
    pub fn new(cfg: Maintenance, control_period: Seconds) -> Self {
        let clock = TickClock::new(control_period);
        let (period_ticks, drift_threshold, temp_delta_c, on_degraded) = match cfg.policy {
            Policy::None => (None, None, None, false),
            Policy::Scheduled { period_s } => (Some(clock.ticks_in(period_s)), None, None, false),
            Policy::EventTriggered {
                on_degraded,
                drift_threshold,
                temp_delta_c,
            } => (
                None,
                Some(drift_threshold.abs()),
                Some(temp_delta_c.abs()),
                on_degraded,
            ),
            Policy::Hybrid {
                period_s,
                on_degraded,
                drift_threshold,
                temp_delta_c,
            } => (
                Some(clock.ticks_in(period_s)),
                Some(drift_threshold.abs()),
                Some(temp_delta_c.abs()),
                on_degraded,
            ),
        };
        MaintenanceEngine {
            min_interval_ticks: clock.ticks_in(cfg.min_service_interval_s),
            persist_interval_ticks: clock.ticks_in(cfg.persist_min_interval_s),
            cfg,
            period_ticks,
            drift_threshold,
            temp_delta_c,
            on_degraded,
            tick: 0,
            last_service_tick: 0,
            last_persist_tick: None,
            temp_anchor_c: None,
            counters: MaintenanceCounters::default(),
        }
    }

    /// Actions taken so far.
    pub fn counters(&self) -> MaintenanceCounters {
        self.counters
    }

    /// One policy evaluation — call exactly once per produced measurement
    /// (= one control tick). Never draws RNG; any action runs at this
    /// frame boundary, between the meter's RNG-consuming steps.
    pub fn service<M: Meter + ?Sized>(&mut self, meter: &mut M) {
        self.tick += 1;
        if self.cfg.policy == Policy::None {
            return;
        }
        let temp = meter.fluid_temperature().map(|c| c.get());
        if self.temp_anchor_c.is_none() {
            // First observed temperature seeds the anchor (no service).
            self.temp_anchor_c = temp;
        }
        if self.tick - self.last_service_tick < self.min_interval_ticks {
            return;
        }
        let due_scheduled = self
            .period_ticks
            .is_some_and(|p| meter.calibration_age() >= p);
        let due_drift = self
            .drift_threshold
            .is_some_and(|t| meter.drift_estimate().abs() > t);
        let due_temp = match (self.temp_delta_c, temp, self.temp_anchor_c) {
            (Some(delta), Some(t), Some(anchor)) => (t - anchor).abs() > delta,
            _ => false,
        };
        let degraded = self.on_degraded
            && matches!(meter.health(), HealthState::Degraded | HealthState::Faulted);
        let want_refit = due_scheduled || due_drift || due_temp;
        if !(want_refit || degraded) {
            return;
        }
        // Every fired trigger consumes the debounce window, acted or not
        // — a zero-drift scheduled trigger must not re-poll every tick.
        self.last_service_tick = self.tick;
        if want_refit && meter.refit_from_recent() {
            self.counters.refits += 1;
            meter.observe(EventKind::CalibrationRefit);
            self.temp_anchor_c = temp.or(self.temp_anchor_c);
            let wear_ok = meter.calibration_wear() < self.cfg.persist_budget;
            let interval_ok = match self.last_persist_tick {
                Some(last) => self.tick - last >= self.persist_interval_ticks,
                None => true,
            };
            if wear_ok && interval_ok {
                if meter.persist().is_ok() {
                    self.counters.persists += 1;
                    meter.observe(EventKind::CalibrationPersisted);
                    self.last_persist_tick = Some(self.tick);
                }
            } else {
                self.counters.persists_skipped += 1;
            }
        } else {
            // Nothing to refit (zero measured drift) or a health-only
            // trigger: accept the operating point as the new reference.
            meter.re_zero();
            self.counters.re_zeros += 1;
            meter.observe(EventKind::CalibrationReZeroed);
            self.temp_anchor_c = temp.or(self.temp_anchor_c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_afe::ThermometerDac;
    use hotwire_core::direction::FlowDirection;
    use hotwire_core::faults::{AdcFault, FaultFlags};
    use hotwire_core::obs::Observer;
    use hotwire_core::{CoreError, Measurement};
    use hotwire_physics::SensorEnvironment;
    use hotwire_units::{Celsius, MetersPerSecond, ThermalConductance, Watts};

    /// A scriptable stand-in exposing just the calibration surface.
    #[derive(Debug, Default)]
    struct StubMeter {
        age: u64,
        drift: f64,
        wear: u64,
        temp: Option<f64>,
        health: HealthState,
        re_zeros: u64,
        refits: u64,
        persists: u64,
        /// When `false`, `refit_from_recent` reports nothing to correct.
        refit_effective: bool,
    }

    impl Meter for StubMeter {
        fn step(&mut self, _env: SensorEnvironment) -> Option<Measurement> {
            Some(Measurement {
                velocity: MetersPerSecond::ZERO,
                speed: MetersPerSecond::ZERO,
                direction: FlowDirection::Indeterminate,
                supply_code: 0,
                conditioned_code: 0,
                conductance: ThermalConductance::ZERO,
                wire_power: Watts::ZERO,
                faults: FaultFlags::default(),
                health: self.health,
                tick: 0,
            })
        }
        fn step_frame(&mut self, env: SensorEnvironment) -> Measurement {
            self.step(env).unwrap()
        }
        fn frame_phase(&self) -> u32 {
            0
        }
        fn ticks_per_frame(&self) -> u32 {
            1
        }
        fn control_period(&self) -> Seconds {
            Seconds::new(0.002)
        }
        fn full_scale(&self) -> MetersPerSecond {
            MetersPerSecond::from_cm_per_s(300.0)
        }
        fn health(&self) -> HealthState {
            self.health
        }
        fn power_draw(&self) -> Watts {
            Watts::ZERO
        }
        fn state_digest(&self) -> u64 {
            0
        }
        fn set_observer(&mut self, _observer: Box<dyn Observer>) {}
        fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
            None
        }
        fn has_observer(&self) -> bool {
            false
        }
        fn observe(&mut self, _kind: EventKind) {}
        fn reload_calibration(&mut self) -> Result<(), CoreError> {
            Ok(())
        }
        fn re_zero(&mut self) {
            self.re_zeros += 1;
            self.drift = 0.0;
        }
        fn refit_from_recent(&mut self) -> bool {
            if !self.refit_effective || self.drift == 0.0 {
                return false;
            }
            self.refits += 1;
            self.drift = 0.0;
            self.age = 0;
            true
        }
        fn persist(&mut self) -> Result<(), CoreError> {
            self.persists += 1;
            self.wear += 1;
            Ok(())
        }
        fn calibration_age(&self) -> u64 {
            self.age
        }
        fn drift_estimate(&self) -> f64 {
            self.drift
        }
        fn calibration_wear(&self) -> u64 {
            self.wear
        }
        fn fluid_temperature(&self) -> Option<Celsius> {
            self.temp.map(Celsius::new)
        }
        fn inject_adc_fault(&mut self, _fault: Option<AdcFault>) {}
        fn degrade_supply(&mut self, _fraction: f64) -> Option<ThermometerDac> {
            None
        }
        fn restore_supply(&mut self, _saved: Option<ThermometerDac>) {}
        fn corrupt_calibration(&mut self, _slot: usize, _byte: usize) {}
        fn inject_bubble_burst(&mut self, _coverage: f64) {}
        fn deposit_fouling(&mut self, _microns: f64) {}
        fn worst_bubble_coverage(&self) -> f64 {
            0.0
        }
        fn worst_fouling_um(&self) -> f64 {
            0.0
        }
    }

    fn drifted() -> StubMeter {
        StubMeter {
            drift: 0.10,
            refit_effective: true,
            ..StubMeter::default()
        }
    }

    #[test]
    fn policy_none_never_acts() {
        let mut eng = MaintenanceEngine::new(Maintenance::default(), Seconds::new(0.002));
        let mut m = drifted();
        m.age = u64::MAX;
        m.health = HealthState::Faulted;
        for _ in 0..10_000 {
            eng.service(&mut m);
        }
        assert_eq!(eng.counters(), MaintenanceCounters::default());
        assert_eq!((m.re_zeros, m.refits, m.persists), (0, 0, 0));
    }

    #[test]
    fn scheduled_policy_refits_and_persists_on_period() {
        let cfg = Maintenance::new(Policy::Scheduled { period_s: 1.0 })
            .with_min_service_interval(0.002)
            .with_persist_min_interval(0.002);
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = drifted();
        for _ in 0..499 {
            m.age += 1;
            eng.service(&mut m);
        }
        assert_eq!(m.refits, 0, "age below the period must not trigger");
        m.age = 500;
        eng.service(&mut m);
        assert_eq!(m.refits, 1);
        assert_eq!(m.persists, 1, "a successful refit persists");
        assert_eq!(eng.counters().refits, 1);
        assert_eq!(eng.counters().persists, 1);
    }

    #[test]
    fn scheduled_zero_drift_falls_back_to_re_zero() {
        let cfg =
            Maintenance::new(Policy::Scheduled { period_s: 1.0 }).with_min_service_interval(0.002);
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = StubMeter {
            age: 10_000,
            refit_effective: true,
            ..StubMeter::default()
        };
        eng.service(&mut m);
        assert_eq!(m.refits, 0);
        assert_eq!(m.re_zeros, 1, "nothing to refit: schedule re-zeros");
        assert_eq!(m.persists, 0, "no refit, no persist");
        assert_eq!(eng.counters().re_zeros, 1);
    }

    #[test]
    fn event_policy_fires_on_drift_threshold() {
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: false,
            drift_threshold: 0.05,
            temp_delta_c: 1e9,
        })
        .with_min_service_interval(0.002)
        .with_persist_min_interval(0.002);
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = drifted();
        m.drift = 0.03;
        eng.service(&mut m);
        assert_eq!(m.refits, 0, "drift inside the threshold is tolerated");
        m.drift = 0.08;
        eng.service(&mut m);
        assert_eq!(m.refits, 1);
        assert_eq!(m.persists, 1);
    }

    #[test]
    fn event_policy_re_zeros_on_degraded_health() {
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: true,
            drift_threshold: 1e9,
            temp_delta_c: 1e9,
        })
        .with_min_service_interval(0.002);
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = StubMeter {
            refit_effective: true,
            ..StubMeter::default()
        };
        eng.service(&mut m);
        assert_eq!(m.re_zeros, 0, "healthy line left alone");
        m.health = HealthState::Degraded;
        eng.service(&mut m);
        assert_eq!(m.re_zeros, 1);
        assert_eq!(m.refits, 0, "health trigger alone never refits");
    }

    #[test]
    fn temperature_excursion_triggers_and_reanchors() {
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: false,
            drift_threshold: 1e9,
            temp_delta_c: 2.0,
        })
        .with_min_service_interval(0.002)
        .with_persist_min_interval(0.002);
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = drifted();
        m.temp = Some(20.0);
        eng.service(&mut m); // anchors at 20 °C
        m.temp = Some(21.5);
        eng.service(&mut m);
        assert_eq!(m.refits, 0, "1.5 °C is inside the 2 °C band");
        m.temp = Some(22.5);
        m.drift = 0.10;
        eng.service(&mut m);
        assert_eq!(m.refits, 1, "2.5 °C from anchor fires");
        // Re-anchored at 22.5: the same temperature again stays quiet.
        m.drift = 0.10;
        eng.service(&mut m);
        assert_eq!(m.refits, 1);
    }

    #[test]
    fn min_service_interval_debounces() {
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: true,
            drift_threshold: 1e9,
            temp_delta_c: 1e9,
        })
        .with_min_service_interval(1.0); // 500 ticks at 2 ms
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = StubMeter {
            health: HealthState::Faulted,
            ..StubMeter::default()
        };
        for _ in 0..2000 {
            eng.service(&mut m);
        }
        assert_eq!(
            m.re_zeros, 4,
            "a held trigger acts once per debounce window (ticks 500/1000/1500/2000)"
        );
    }

    #[test]
    fn persist_budget_and_interval_rate_limit() {
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: false,
            drift_threshold: 0.05,
            temp_delta_c: 1e9,
        })
        .with_min_service_interval(0.002)
        .with_persist_min_interval(0.002);
        let cfg = Maintenance {
            persist_budget: 2,
            ..cfg
        };
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = drifted();
        for _ in 0..5 {
            m.drift = 0.10; // re-drift between services
            eng.service(&mut m);
        }
        assert_eq!(m.refits, 5, "refits are not wear-limited");
        assert_eq!(m.persists, 2, "wear budget caps persists");
        assert_eq!(eng.counters().persists_skipped, 3);

        // Interval limiting, independent of wear.
        let cfg = Maintenance::new(Policy::EventTriggered {
            on_degraded: false,
            drift_threshold: 0.05,
            temp_delta_c: 1e9,
        })
        .with_min_service_interval(0.002)
        .with_persist_min_interval(1.0); // 500 ticks
        let mut eng = MaintenanceEngine::new(cfg, Seconds::new(0.002));
        let mut m = drifted();
        for _ in 0..400 {
            m.drift = 0.10;
            eng.service(&mut m);
        }
        assert_eq!(m.persists, 1, "only the first refit inside 1 s persists");
        assert_eq!(
            eng.counters().persists_skipped as usize + 1,
            m.refits as usize
        );
    }

    #[test]
    fn counters_merge_adds_fields() {
        let mut a = MaintenanceCounters {
            re_zeros: 1,
            refits: 2,
            persists: 3,
            persists_skipped: 4,
        };
        let b = MaintenanceCounters {
            re_zeros: 10,
            refits: 20,
            persists: 30,
            persists_skipped: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            MaintenanceCounters {
                re_zeros: 11,
                refits: 22,
                persists: 33,
                persists_skipped: 44,
            }
        );
        assert_eq!(a.actions(), 33);
    }
}
