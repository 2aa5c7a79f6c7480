//! Deterministic fault injection for campaign runs.
//!
//! §6 of the paper motivates diffuse deployment with self-diagnosis —
//! "allowing also any malfunction behavior … to be immediately localized
//! and isolated". This module supplies the *malfunctions*: a declarative
//! [`FaultSchedule`] of seeded, time-triggered faults that a [`RunSpec`]
//! carries alongside its scenario, so the same campaign executor that runs
//! healthy evaluations also runs fault campaigns — bit-identically at any
//! job count.
//!
//! Two fault families are covered:
//!
//! * **Platform faults** — a stuck or offset ADC code, supply-DAC element
//!   failure, supply brownout, EEPROM bit flips, UART byte corruption and
//!   drops. These attack the ISIF electronics of paper Fig. 4.
//! * **Physics events** — an abrupt bubble burst or a step of fouling on
//!   the heater surfaces. These attack the §4 liquid-specific failure
//!   modes directly, bypassing the slow natural growth models.
//!
//! Faults run on the control-tick clock ([`hotwire_core::clock`]): an event's
//! onset `at_s` and its end `at_s + duration_s` each move to the first
//! control frame that starts at or after them. Windowed faults (ADC, DAC,
//! brownout, UART) engage before their onset frame and revert before
//! their end frame; a window shorter than one control tick is refused.
//! Impulse faults (EEPROM flip, bubble burst, fouling step) ignore
//! `duration_s`: they fire and clear at their onset tick and leave the
//! firmware's graceful-degradation machinery
//! ([`HealthMonitor`](hotwire_core::HealthMonitor)) to clean up.
//!
//! [`RunSpec`]: crate::campaign::RunSpec

use hotwire_afe::ThermometerDac;
use hotwire_core::faults::AdcFault;
use hotwire_core::obs::EventKind;
use hotwire_core::{Measurement, Meter, TelemetryRecord, TickClock};
use hotwire_isif::uart::{FrameDecoder, FrameEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum FaultKind {
    /// The control ADC freezes at a fixed code (dead modulator). Starves
    /// the firmware's frozen-code watchdog discriminator.
    AdcStuck {
        /// The frozen converter output.
        code: i32,
    },
    /// A constant offset corrupts every control code (reference drift).
    AdcOffset {
        /// Offset added to each code.
        codes: i32,
    },
    /// The bridge supply rail sags: the supply DAC's full scale drops to
    /// `fraction` of nominal for the event window.
    SupplyBrownout {
        /// Remaining full-scale fraction, clamped to `[0.05, 1.0]`.
        fraction: f64,
    },
    /// Thermometer-DAC unit elements fail open, shaving `span_loss` off the
    /// actuator's output span until redundancy is switched in at the end of
    /// the window.
    DacElementFail {
        /// Fraction of output span lost, clamped to `[0.0, 0.95]`.
        span_loss: f64,
    },
    /// A bit flip lands in a calibration EEPROM slot; the firmware is then
    /// forced to reload calibration, exercising the CRC check and the
    /// redundant-slot fallback.
    EepromBitFlip {
        /// EEPROM slot to corrupt.
        slot: usize,
        /// Byte offset within the stored record.
        byte: usize,
    },
    /// The telemetry UART link degrades: bytes flip and drop with the given
    /// per-byte probabilities while the window is active.
    UartCorruption {
        /// Per-byte probability of a single-bit flip.
        flip_per_byte: f64,
        /// Per-byte probability of the byte vanishing entirely.
        drop_per_byte: f64,
    },
    /// An abrupt vapor/air burst blankets both heaters with extra bubble
    /// coverage (impulse; the bubbles then detach naturally).
    BubbleBurst {
        /// Coverage fraction added to each heater, clamped to `[0, 1]`.
        coverage: f64,
    },
    /// A step of CaCO₃ scale lands on both heaters at once (impulse; scale
    /// does not clear on its own — recovery is the firmware's re-zero).
    SteppedFouling {
        /// Scale thickness added, µm.
        microns: f64,
    },
}

impl FaultKind {
    /// Stable snake_case name of the fault class — the label carried by
    /// `FaultActivated`/`FaultCleared` observability events.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::AdcStuck { .. } => "adc_stuck",
            FaultKind::AdcOffset { .. } => "adc_offset",
            FaultKind::SupplyBrownout { .. } => "supply_brownout",
            FaultKind::DacElementFail { .. } => "dac_element_fail",
            FaultKind::EepromBitFlip { .. } => "eeprom_bit_flip",
            FaultKind::UartCorruption { .. } => "uart_corruption",
            FaultKind::BubbleBurst { .. } => "bubble_burst",
            FaultKind::SteppedFouling { .. } => "stepped_fouling",
        }
    }

    /// Whether the fault fires once at its onset (EEPROM flip, bubble
    /// burst, fouling step) rather than holding a window.
    pub fn is_impulse(&self) -> bool {
        matches!(
            self,
            FaultKind::EepromBitFlip { .. }
                | FaultKind::BubbleBurst { .. }
                | FaultKind::SteppedFouling { .. }
        )
    }

    /// Interns a [`FaultKind::name`] string back to its `&'static str`,
    /// or `None` for an unknown label. The fleet checkpoint codec uses
    /// this to rebuild `LineSummary::fault_kinds` (which hold static
    /// names, not owned strings) from serialized text.
    pub fn intern_name(name: &str) -> Option<&'static str> {
        const NAMES: [&str; 8] = [
            "adc_stuck",
            "adc_offset",
            "supply_brownout",
            "dac_element_fail",
            "eeprom_bit_flip",
            "uart_corruption",
            "bubble_burst",
            "stepped_fouling",
        ];
        NAMES.iter().find(|&&n| n == name).copied()
    }
}

/// One scheduled fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FaultEvent {
    /// Scenario time at which the fault engages, seconds (moved to the
    /// first control frame that starts at or after it).
    pub at_s: f64,
    /// Active window length, seconds: at least one control tick for a
    /// windowed fault, ignored by impulse faults.
    pub duration_s: f64,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault of `kind` active over `[at_s, at_s + duration_s)`.
    pub fn new(at_s: f64, duration_s: f64, kind: FaultKind) -> Self {
        FaultEvent {
            at_s,
            duration_s: duration_s.max(0.0),
            kind,
        }
    }

    /// The control ticks the event engages and clears at on `clock`: the
    /// first frames that start at or after its onset and its end. An
    /// impulse clears at its onset.
    pub fn ticks(&self, clock: TickClock) -> (u64, u64) {
        let on = clock.tick_at(self.at_s);
        if self.kind.is_impulse() {
            (on, on)
        } else {
            (on, clock.tick_at(self.at_s + self.duration_s))
        }
    }

    /// Whether this is a windowed fault shorter than one tick of `clock`
    /// (which no run accepts).
    pub fn is_subtick(&self, clock: TickClock) -> bool {
        let ticks = clock.ticks(self.duration_s);
        !self.kind.is_impulse() && (ticks.is_nan() || ticks < 1.0)
    }

    /// Whether the window and every parameter of the fault are finite.
    /// Engaging a fault clamps its parameter, and a NaN passes through
    /// the clamp.
    pub fn is_finite(&self) -> bool {
        let params_finite = match self.kind {
            FaultKind::AdcStuck { .. }
            | FaultKind::AdcOffset { .. }
            | FaultKind::EepromBitFlip { .. } => true,
            FaultKind::SupplyBrownout { fraction: x }
            | FaultKind::DacElementFail { span_loss: x }
            | FaultKind::BubbleBurst { coverage: x }
            | FaultKind::SteppedFouling { microns: x } => x.is_finite(),
            FaultKind::UartCorruption {
                flip_per_byte,
                drop_per_byte,
            } => flip_per_byte.is_finite() && drop_per_byte.is_finite(),
        };
        params_finite && self.at_s.is_finite() && self.duration_s.is_finite()
    }
}

/// A declarative, seeded schedule of faults for one run.
///
/// The schedule travels inside a [`RunSpec`](crate::campaign::RunSpec)
/// (see [`LineConfig::with_faults`](crate::campaign::LineConfig::with_faults)),
/// so a fault campaign is exactly as deterministic as a healthy one: the
/// injected byte noise is driven by `seed`, never by wall-clock or thread
/// scheduling.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultSchedule {
    /// Seed for the injection noise (UART byte corruption draws).
    pub seed: u64,
    /// The scheduled faults, in any order.
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule with the given injection seed.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds a fault of `kind` active over `[at_s, at_s + duration_s)`.
    pub fn with_event(mut self, at_s: f64, duration_s: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent::new(at_s, duration_s, kind));
        self
    }

    /// Whether any event attacks the UART link (enables the telemetry
    /// wire simulation in the runner).
    pub fn has_uart_fault(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::UartCorruption { .. }))
    }
}

/// Telemetry-link bookkeeping collected by the UART fault simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct UartStats {
    /// Telemetry frames encoded onto the simulated wire.
    pub frames_sent: u64,
    /// Frames that survived framing + CRC and decoded to valid records.
    pub frames_received: u64,
    /// Bytes dropped by the fault window.
    pub bytes_dropped: u64,
    /// Bytes corrupted (single-bit flips) by the fault window.
    pub bytes_corrupted: u64,
    /// CRC failures counted by the receiving decoder.
    pub crc_errors: u64,
}

/// Lifecycle of one scheduled event inside the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Active,
    Done,
}

/// Executes a [`FaultSchedule`] against a live meter, one control tick at a
/// time.
///
/// The runner calls [`apply`](Self::apply) with each control frame's tick
/// before the frame runs (engaging and reverting faults), and
/// [`observe`](Self::observe) for each recorded measurement (driving the
/// telemetry wire simulation when the schedule has a UART fault).
#[derive(Debug)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    /// Each event's engage and clear ticks ([`FaultEvent::ticks`]).
    ticks: Vec<(u64, u64)>,
    phases: Vec<Phase>,
    saved_dac: Vec<Option<ThermometerDac>>,
    rng: StdRng,
    decoder: FrameDecoder,
    stats: UartStats,
    uart_enabled: bool,
    wire: Option<Vec<u8>>,
}

impl FaultInjector {
    /// Builds an injector for `schedule` on a meter ticking on `clock`.
    ///
    /// # Panics
    ///
    /// Panics if a windowed fault is shorter than one control tick
    /// ([`FaultEvent::is_subtick`]); [`RunSpec`](crate::campaign::RunSpec)
    /// and [`FleetSpec`](crate::fleet::FleetSpec) refuse such a schedule
    /// with a typed error before any run.
    pub fn new(schedule: FaultSchedule, clock: TickClock) -> Self {
        let n = schedule.events.len();
        let uart_enabled = schedule.has_uart_fault();
        if let Some(e) = schedule.events.iter().find(|e| e.is_subtick(clock)) {
            panic!(
                "FaultInjector: a {} window of {} s is shorter than one control tick",
                e.kind.name(),
                e.duration_s
            );
        }
        FaultInjector {
            ticks: schedule.events.iter().map(|e| e.ticks(clock)).collect(),
            rng: StdRng::seed_from_u64(schedule.seed ^ 0xFA_01_7E_57),
            phases: vec![Phase::Pending; n],
            saved_dac: vec![None; n],
            decoder: FrameDecoder::new(),
            stats: UartStats::default(),
            uart_enabled,
            wire: None,
            schedule,
        }
    }

    /// Enables wire capture: every post-corruption byte that reaches the
    /// simulated receiver is also appended to an internal tap, retrievable
    /// with [`take_wire`](Self::take_wire). Forces the wire simulation on
    /// even when the schedule has no UART fault (a clean line still frames
    /// its telemetry), without perturbing the noise RNG — with no active
    /// corruption window no random draws are made, so captured clean runs
    /// stay bit-identical to uncaptured ones.
    pub fn capture_wire(&mut self) {
        self.uart_enabled = true;
        self.wire = Some(Vec::new());
    }

    /// Takes the captured wire bytes accumulated since
    /// [`capture_wire`](Self::capture_wire); empty if capture was never
    /// enabled.
    pub fn take_wire(&mut self) -> Vec<u8> {
        self.wire.take().unwrap_or_default()
    }

    /// Engages and reverts scheduled faults before the control frame that
    /// starts at `tick`. Works against any [`Meter`]: each modality maps
    /// the attack onto its own hardware through the trait's fault hooks (a
    /// CTA brownout swaps the supply DAC; a heat-pulse brownout derates the
    /// heater drive). An impulse fires and clears in the same call.
    pub fn apply<M: Meter>(&mut self, tick: u64, meter: &mut M) {
        for (i, &(on, off)) in self.ticks.iter().enumerate() {
            let kind = self.schedule.events[i].kind;
            if self.phases[i] == Phase::Pending && tick >= on {
                // Activation is reported *before* the engage, so any
                // consequence event (e.g. the calibration reload an
                // EEPROM flip forces) appears after its cause in the
                // run's event log.
                meter.observe(EventKind::FaultActivated { fault: kind.name() });
                self.saved_dac[i] = engage(kind, meter);
                self.phases[i] = Phase::Active;
            }
            if self.phases[i] == Phase::Active && tick >= off {
                revert(kind, self.saved_dac[i].take(), meter);
                meter.observe(EventKind::FaultCleared { fault: kind.name() });
                self.phases[i] = Phase::Done;
            }
        }
    }

    /// Runs one measurement, recorded at control tick `tick`, through the
    /// telemetry wire simulation (no-op unless the schedule has a UART
    /// fault). `meter` is only used to report frame-error events into the
    /// run's observability log — the wire simulation itself never touches
    /// the instrument.
    pub fn observe<M: Meter>(&mut self, tick: u64, m: &Measurement, meter: &mut M) {
        if !self.uart_enabled {
            return;
        }
        // The worst active UART window governs this frame's byte noise.
        let (mut flip_p, mut drop_p) = (0.0_f64, 0.0_f64);
        for (e, &(on, off)) in self.schedule.events.iter().zip(&self.ticks) {
            if let FaultKind::UartCorruption {
                flip_per_byte,
                drop_per_byte,
            } = e.kind
            {
                if (on..off).contains(&tick) {
                    flip_p = flip_p.max(flip_per_byte.clamp(0.0, 1.0));
                    drop_p = drop_p.max(drop_per_byte.clamp(0.0, 1.0));
                }
            }
        }
        let record = TelemetryRecord::from_measurement(m);
        let Ok(mut frame) = record.to_frame() else {
            return;
        };
        self.stats.frames_sent += 1;
        // The frame's bytes as they reach the receiver: dropped bytes
        // vanish, flipped ones arrive corrupted (two draws per byte, in
        // wire order; the decoder draws none).
        frame.retain_mut(|b| {
            if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
                self.stats.bytes_dropped += 1;
                return false;
            }
            if flip_p > 0.0 && self.rng.gen_bool(flip_p) {
                *b ^= 1u8 << self.rng.gen_range(0u32..8);
                self.stats.bytes_corrupted += 1;
            }
            true
        });
        if let Some(wire) = &mut self.wire {
            wire.extend_from_slice(&frame);
        }
        // Frames the decoder re-hunts out of a dropped span still arrived
        // intact, so they count as received too.
        self.decoder.feed(&frame, |event| match event {
            FrameEvent::Payload(payload) => {
                if TelemetryRecord::parse(payload).is_ok() {
                    self.stats.frames_received += 1;
                }
            }
            FrameEvent::CrcError => meter.observe(EventKind::UartFrameError),
        });
    }

    /// The telemetry-link statistics accumulated so far.
    pub fn stats(&self) -> UartStats {
        UartStats {
            crc_errors: self.decoder.crc_errors(),
            ..self.stats
        }
    }
}

/// Engages one fault through the [`Meter`] fault hooks; returns whatever
/// the meter saved for restoration on revert (the CTA meter returns its
/// original supply DAC, other modalities return `None`).
fn engage<M: Meter>(kind: FaultKind, meter: &mut M) -> Option<ThermometerDac> {
    match kind {
        FaultKind::AdcStuck { code } => {
            meter.inject_adc_fault(Some(AdcFault::Stuck(code)));
            None
        }
        FaultKind::AdcOffset { codes } => {
            meter.inject_adc_fault(Some(AdcFault::Offset(codes)));
            None
        }
        FaultKind::SupplyBrownout { fraction } => meter.degrade_supply(fraction.clamp(0.05, 1.0)),
        FaultKind::DacElementFail { span_loss } => {
            meter.degrade_supply(1.0 - span_loss.clamp(0.0, 0.95))
        }
        FaultKind::EepromBitFlip { slot, byte } => {
            meter.corrupt_calibration(slot, byte);
            // Force the firmware to re-read: on a corrupt primary it falls
            // back to the redundant slot and repairs; with both slots gone
            // it latches Faulted. Either way the health machine reports it.
            let _ = meter.reload_calibration();
            None
        }
        FaultKind::UartCorruption { .. } => None,
        FaultKind::BubbleBurst { coverage } => {
            meter.inject_bubble_burst(coverage);
            None
        }
        FaultKind::SteppedFouling { microns } => {
            meter.deposit_fouling(microns);
            None
        }
    }
}

/// Reverts one windowed fault (impulse faults have nothing to undo).
fn revert<M: Meter>(kind: FaultKind, saved_dac: Option<ThermometerDac>, meter: &mut M) {
    match kind {
        FaultKind::AdcStuck { .. } | FaultKind::AdcOffset { .. } => {
            meter.inject_adc_fault(None);
        }
        FaultKind::SupplyBrownout { .. } | FaultKind::DacElementFail { .. } => {
            meter.restore_supply(saved_dac);
        }
        FaultKind::EepromBitFlip { .. }
        | FaultKind::UartCorruption { .. }
        | FaultKind::BubbleBurst { .. }
        | FaultKind::SteppedFouling { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LineRunner;
    use crate::scenario::Scenario;
    use hotwire_core::{FlowMeter, FlowMeterConfig, HealthState};
    use hotwire_physics::MafParams;

    fn test_meter(seed: u64) -> FlowMeter {
        FlowMeter::new(FlowMeterConfig::test_profile(), MafParams::nominal(), seed).unwrap()
    }

    fn clock() -> TickClock {
        TickClock::new(FlowMeterConfig::test_profile().control_period())
    }

    /// The checkpoint codec rebuilds fault names through `intern_name`'s
    /// own list; a kind missing there would make every checkpoint that
    /// holds it fail to resume.
    #[test]
    fn every_fault_name_interns_to_itself() {
        let kinds = [
            FaultKind::AdcStuck { code: 0 },
            FaultKind::AdcOffset { codes: 0 },
            FaultKind::SupplyBrownout { fraction: 0.5 },
            FaultKind::DacElementFail { span_loss: 0.1 },
            FaultKind::EepromBitFlip { slot: 0, byte: 0 },
            FaultKind::UartCorruption {
                flip_per_byte: 0.0,
                drop_per_byte: 0.0,
            },
            FaultKind::BubbleBurst { coverage: 0.1 },
            FaultKind::SteppedFouling { microns: 1.0 },
        ];
        let mut names: Vec<&str> = kinds.iter().map(FaultKind::name).collect();
        for &name in &names {
            assert_eq!(FaultKind::intern_name(name), Some(name));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "two kinds share a name");
        assert_eq!(FaultKind::intern_name("adc"), None);
    }

    /// Onsets and ends move to the first 2-ms frame that starts at or
    /// after them; an impulse clears at its onset, whatever its window.
    #[test]
    fn event_window_semantics() {
        let e = FaultEvent::new(1.0, 0.5, FaultKind::AdcStuck { code: 0 });
        assert_eq!(e.ticks(clock()), (500, 750));
        let e = FaultEvent::new(0.0031, 0.002, FaultKind::AdcStuck { code: 0 });
        assert_eq!(e.ticks(clock()), (2, 3));
        let burst = FaultEvent::new(0.7, 0.5, FaultKind::BubbleBurst { coverage: 0.1 });
        assert_eq!(burst.ticks(clock()), (350, 350));
        assert!(!burst.is_subtick(clock()));
        assert!(FaultEvent::new(1.0, 0.0019, FaultKind::AdcStuck { code: 0 }).is_subtick(clock()));
        assert!(!FaultEvent::new(1.0, 0.002, FaultKind::AdcStuck { code: 0 }).is_subtick(clock()));
        // Within the clock's snapping distance of one tick.
        let e = FaultEvent::new(1.0, 0.002 * (1.0 - 1e-9), FaultKind::AdcStuck { code: 0 });
        assert!(!e.is_subtick(clock()));
    }

    #[test]
    #[should_panic(expected = "shorter than one control tick")]
    fn subtick_window_is_refused_by_a_direct_caller() {
        let schedule =
            FaultSchedule::new(1).with_event(0.5, 0.001, FaultKind::AdcOffset { codes: 1 });
        let _ = FaultInjector::new(schedule, clock());
    }

    #[test]
    fn brownout_degrades_and_restores_the_supply_dac() {
        let mut meter = test_meter(31);
        let nominal_vref = meter.platform_mut().supply_dac().vref().get();
        let schedule = FaultSchedule::new(31).with_event(
            1.0,
            0.5,
            FaultKind::SupplyBrownout { fraction: 0.6 },
        );
        let mut inj = FaultInjector::new(schedule, clock());
        inj.apply(250, &mut meter);
        assert_eq!(meter.platform_mut().supply_dac().vref().get(), nominal_vref);
        inj.apply(500, &mut meter);
        let sagged = meter.platform_mut().supply_dac().vref().get();
        assert!((sagged - 0.6 * nominal_vref).abs() < 1e-12, "vref {sagged}");
        inj.apply(749, &mut meter);
        assert!(meter.platform_mut().supply_dac().vref().get() < nominal_vref);
        inj.apply(750, &mut meter);
        assert_eq!(meter.platform_mut().supply_dac().vref().get(), nominal_vref);
    }

    #[test]
    fn adc_events_install_and_clear_the_fault() {
        let mut meter = test_meter(32);
        let schedule =
            FaultSchedule::new(32).with_event(0.0, 1.0, FaultKind::AdcOffset { codes: 123 });
        let mut inj = FaultInjector::new(schedule, clock());
        inj.apply(0, &mut meter);
        assert_eq!(meter.adc_fault(), Some(AdcFault::Offset(123)));
        inj.apply(500, &mut meter);
        assert_eq!(meter.adc_fault(), None);
    }

    #[test]
    fn bubble_burst_shows_up_in_the_trace() {
        let meter = test_meter(33);
        let schedule =
            FaultSchedule::new(33).with_event(0.5, 0.0, FaultKind::BubbleBurst { coverage: 0.4 });
        let mut runner = LineRunner::new(Scenario::steady(100.0, 1.2), meter, 33);
        runner.install_faults(schedule);
        let trace = runner.run(0.01);
        let peak = trace
            .samples
            .iter()
            .map(|s| s.bubble_coverage)
            .fold(0.0, f64::max);
        assert!(peak > 0.2, "peak coverage {peak} after a 0.4 burst");
    }

    #[test]
    fn uart_corruption_loses_frames_deterministically() {
        let schedule = FaultSchedule::new(77).with_event(
            0.0,
            10.0,
            FaultKind::UartCorruption {
                flip_per_byte: 0.05,
                drop_per_byte: 0.05,
            },
        );
        let run = |schedule: FaultSchedule| {
            let meter = test_meter(34);
            let mut runner = LineRunner::new(Scenario::steady(80.0, 2.0), meter, 34);
            runner.install_faults(schedule);
            let trace = runner.run(0.01);
            trace.uart
        };
        let stats = run(schedule.clone());
        assert!(stats.frames_sent > 50, "sent {}", stats.frames_sent);
        assert!(
            stats.frames_received < stats.frames_sent,
            "a 5 %/byte noisy link must lose frames ({} of {} survived)",
            stats.frames_received,
            stats.frames_sent
        );
        assert!(stats.bytes_dropped > 0 && stats.bytes_corrupted > 0);
        // Same schedule, same seed → bit-identical wire outcome.
        assert_eq!(run(schedule.clone()), stats);
    }

    #[test]
    fn clean_link_passes_every_frame() {
        let schedule = FaultSchedule::new(78).with_event(
            5.0,
            1.0,
            FaultKind::UartCorruption {
                flip_per_byte: 1.0,
                drop_per_byte: 1.0,
            },
        );
        // The event never triggers inside a 2 s scenario, but its presence
        // enables the wire simulation — which must then be lossless.
        let meter = test_meter(35);
        let mut runner = LineRunner::new(Scenario::steady(80.0, 2.0), meter, 35);
        runner.install_faults(schedule);
        let trace = runner.run(0.02);
        assert!(trace.uart.frames_sent > 0);
        assert_eq!(trace.uart.frames_sent, trace.uart.frames_received);
        assert_eq!(trace.uart.crc_errors, 0);
    }

    #[test]
    fn eeprom_flip_triggers_redundant_slot_fallback() {
        use crate::campaign::FieldCalibration;
        use hotwire_core::KingCalibration;

        let mut meter = test_meter(36);
        FieldCalibration {
            setpoints_cm_s: vec![15.0, 50.0, 100.0, 160.0, 220.0],
            settle_s: 0.6,
            average_s: 0.4,
            seed: 36,
        }
        .apply(&mut meter, 1)
        .unwrap();
        let schedule = FaultSchedule::new(36).with_event(
            0.2,
            0.0,
            FaultKind::EepromBitFlip {
                slot: KingCalibration::EEPROM_SLOT,
                byte: 3,
            },
        );
        let mut runner = LineRunner::new(Scenario::steady(100.0, 1.0), meter, 36);
        runner.install_faults(schedule);
        let trace = runner.run(0.01);
        assert!(
            trace
                .samples
                .iter()
                .any(|s| s.health == HealthState::Recovering),
            "mirror fallback must surface as Recovering in the trace"
        );
        let meter = runner.into_meter();
        assert!(meter.calibration().is_some(), "calibration must survive");
    }
}
