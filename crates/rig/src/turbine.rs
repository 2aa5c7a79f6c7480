//! Behavioural model of a turbine-wheel flow meter.
//!
//! The mechanical baseline of the paper's comparison: "The proposed system
//! achieves the same accuracy of the turbine wheel devices with cost
//! reduction and improved reliability since no mechanical moving parts are
//! exposed in water."
//!
//! Model: the rotor tracks the flow with a first-order mechanical lag;
//! bearing friction imposes a starting velocity below which the wheel
//! stalls; pulses are counted over a gate time, quantizing the reading; the
//! wheel does not resolve direction; bearings wear with accumulated
//! revolutions, slowly increasing friction.

use hotwire_units::{MetersPerSecond, Seconds};

/// The turbine-wheel meter model.
#[derive(Debug, Clone)]
pub struct TurbineMeter {
    /// Pulses per metre of flow passage (K-factor re-expressed in velocity).
    pulses_per_meter: f64,
    /// Starting/stall velocity from bearing friction.
    starting_velocity: MetersPerSecond,
    /// Rotor mechanical time constant.
    rotor_tau: Seconds,
    /// Pulse-count gate time.
    gate: Seconds,
    /// Current rotor-equivalent velocity (always ≥ 0: no direction).
    rotor_velocity: f64,
    /// Pulse phase accumulator within the gate.
    pulse_accumulator: f64,
    pulses_in_gate: u64,
    since_gate: f64,
    reading: MetersPerSecond,
    /// Accumulated rotor travel in metres (bearing wear).
    travel_m: f64,
    /// Internal LCG state for gate-to-gate bearing jitter.
    jitter_state: u64,
    /// Memo of the rotor lag `1 − exp(−dt/τ)`, keyed on the bits of `dt`
    /// (τ is fixed at construction, and a run steps at one control
    /// period). A miss re-derives the same factor, so the memo is not
    /// meter state.
    lag_cache: Option<(u64, f64)>,
}

impl TurbineMeter {
    /// A DN50-class turbine: 400 pulses/m, 5 cm/s starting velocity, 300 ms
    /// rotor lag, 1 s gate.
    pub fn dn50() -> Self {
        TurbineMeter {
            pulses_per_meter: 400.0,
            starting_velocity: MetersPerSecond::from_cm_per_s(5.0),
            rotor_tau: Seconds::from_millis(300.0),
            gate: Seconds::new(1.0),
            rotor_velocity: 0.0,
            pulse_accumulator: 0.0,
            pulses_in_gate: 0,
            since_gate: 0.0,
            reading: MetersPerSecond::ZERO,
            travel_m: 0.0,
            jitter_state: 0x5DEECE66D,
            lag_cache: None,
        }
    }

    /// The effective starting velocity, growing with bearing wear
    /// (+1 cm/s per 100 km of rotor travel).
    pub fn effective_starting_velocity(&self) -> MetersPerSecond {
        self.starting_velocity + MetersPerSecond::from_cm_per_s(self.travel_m / 100_000.0)
    }

    /// Advances the meter by `dt` at true bulk velocity `bulk`; returns the
    /// held gate reading (unsigned — turbines do not resolve direction).
    pub fn step(&mut self, dt: Seconds, bulk: MetersPerSecond) -> MetersPerSecond {
        let demand = bulk.get().abs();
        let target = if demand < self.effective_starting_velocity().get() {
            0.0
        } else {
            // Bearing drag subtracts a fraction of the starting velocity.
            demand - 0.5 * self.effective_starting_velocity().get()
        };
        let alpha = self.rotor_lag(dt);
        self.rotor_velocity += alpha * (target - self.rotor_velocity);
        self.travel_m += self.rotor_velocity * dt.get();

        // Pulse generation: every whole pulse in the accumulator at once
        // (subtracting the floor is exact, as each one-by-one `- 1.0` was),
        // so a huge or infinite flow costs one tick, not one loop per pulse.
        self.pulse_accumulator += self.rotor_velocity * self.pulses_per_meter * dt.get();
        let whole = self.pulse_accumulator.floor().max(0.0);
        self.pulse_accumulator -= whole;
        self.pulses_in_gate = self.pulses_in_gate.saturating_add(whole as u64);
        self.since_gate += dt.get();
        if self.since_gate >= self.gate.get() {
            let v = self.pulses_in_gate as f64 / (self.pulses_per_meter * self.since_gate);
            // Report the rotor velocity plus the drag compensation the
            // manufacturer's K-factor table bakes in.
            let compensated = if v > 0.0 {
                // Bearing friction fluctuates gate to gate: ±0.2 % rms
                // multiplicative jitter (deterministic LCG so the model
                // stays seed-free and reproducible).
                self.jitter_state = self
                    .jitter_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((self.jitter_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                (v + 0.5 * self.starting_velocity.get()) * (1.0 + 0.003 * u)
            } else {
                0.0
            };
            self.reading = MetersPerSecond::new(compensated);
            self.pulses_in_gate = 0;
            self.since_gate = 0.0;
        }
        self.reading
    }

    /// The rotor lag factor `1 − exp(−dt/τ)` through the memo.
    fn rotor_lag(&mut self, dt: Seconds) -> f64 {
        let dt_bits = dt.get().to_bits();
        match self.lag_cache {
            Some((bits, alpha)) if bits == dt_bits => alpha,
            _ => {
                let alpha = 1.0 - (-dt.get() / self.rotor_tau.get()).exp();
                self.lag_cache = Some((dt_bits, alpha));
                alpha
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut TurbineMeter, v_cm_s: f64, seconds: f64) -> MetersPerSecond {
        let dt = Seconds::from_millis(1.0);
        let steps = (seconds / dt.get()) as usize;
        let v = MetersPerSecond::from_cm_per_s(v_cm_s);
        let mut last = MetersPerSecond::ZERO;
        for _ in 0..steps {
            last = m.step(dt, v);
        }
        last
    }

    #[test]
    fn tracks_mid_range_flow() {
        let mut m = TurbineMeter::dn50();
        let reading = run(&mut m, 100.0, 10.0);
        assert!(
            (reading.to_cm_per_s() - 100.0).abs() < 3.0,
            "reading {} cm/s at 100 cm/s",
            reading.to_cm_per_s()
        );
    }

    #[test]
    fn stalls_below_starting_velocity() {
        let mut m = TurbineMeter::dn50();
        let reading = run(&mut m, 3.0, 10.0);
        assert_eq!(reading.get(), 0.0, "wheel must stall at 3 cm/s");
    }

    #[test]
    fn no_direction_sensitivity() {
        let mut fwd = TurbineMeter::dn50();
        let mut rev = TurbineMeter::dn50();
        let f = run(&mut fwd, 100.0, 5.0);
        let r = run(&mut rev, -100.0, 5.0);
        assert!(f.get() > 0.0 && r.get() > 0.0);
        assert!((f.get() - r.get()).abs() < 0.02);
    }

    #[test]
    fn quantized_resolution() {
        let m = TurbineMeter::dn50();
        // 400 pulses/m over a 1 s gate → 2.5 mm/s quantum = 0.1 % of 250 cm/s FS.
        assert!((1.0 / (m.pulses_per_meter * m.gate.get()) - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn rotor_lags_steps() {
        let mut m = TurbineMeter::dn50();
        run(&mut m, 100.0, 5.0);
        // Immediately after a step down, the gate still holds the old value.
        let dt = Seconds::from_millis(1.0);
        let reading = m.step(dt, MetersPerSecond::from_cm_per_s(20.0));
        assert!(reading.to_cm_per_s() > 50.0, "gate held {reading}");
        // After a few gates it settles near the new flow.
        let settled = run(&mut m, 20.0, 5.0);
        assert!(
            (settled.to_cm_per_s() - 20.0).abs() < 3.0,
            "settled {settled}"
        );
    }

    #[test]
    fn whole_pulse_count_reproduces_the_one_by_one_loop() {
        // Reading bits of the former one-pulse-at-a-time loop over a
        // staircase that reaches ~800 pulses per 2 ms tick at 1e5 cm/s.
        const PINNED: [u64; 11] = [
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x3fc84b86f27b1700,
            0x3fe88358dde0bfb8,
            0x4003566a45ba6e30,
            0x401f432243dab338,
            0x4057bcc378726704,
            0x4087121000fbf6cc,
            0x404b3ae2fb14a623,
            0x4000b6dea2d8072d,
        ];
        let mut m = TurbineMeter::dn50();
        let dt = Seconds::from_millis(2.0);
        let levels = [0.0, 3.0, 5.0, 20.0, 100.0, -250.0, 1e3, 1e4, 1e5, 50.0, 0.0];
        let bits = levels.map(|v_cm_s| {
            let v = MetersPerSecond::from_cm_per_s(v_cm_s);
            for _ in 0..750 {
                m.step(dt, v);
            }
            m.reading.get().to_bits()
        });
        assert_eq!(bits, PINNED);
        assert_eq!(m.travel_m.to_bits(), 0x409a1c177af4333b);
    }

    /// The memoized rotor lag returns exactly what recomputing
    /// `1 − exp(−dt/τ)` every tick returns: the rotor and its travel follow
    /// a fresh recomputation bit for bit through steps whose `dt` changes
    /// (a miss at each change, hits in between).
    #[test]
    fn memoized_rotor_lag_matches_fresh_recomputation_bit_for_bit() {
        let mut m = TurbineMeter::dn50();
        let tau = m.rotor_tau.get();
        let (mut rotor, mut travel) = (0.0f64, 0.0f64);
        for (dt_ms, v_cm_s) in [
            (2.0, 100.0),
            (1.0, 20.0),
            (2.0, -250.0),
            (0.5, 4.0),
            (2.0, 60.0),
        ] {
            let dt = Seconds::from_millis(dt_ms);
            let bulk = MetersPerSecond::from_cm_per_s(v_cm_s);
            for _ in 0..400 {
                let start = m.effective_starting_velocity().get();
                let demand = bulk.get().abs();
                let target = if demand < start {
                    0.0
                } else {
                    demand - 0.5 * start
                };
                let alpha = 1.0 - (-dt.get() / tau).exp();
                rotor += alpha * (target - rotor);
                travel += rotor * dt.get();
                m.step(dt, bulk);
                assert_eq!(m.rotor_velocity.to_bits(), rotor.to_bits(), "dt {dt_ms} ms");
                assert_eq!(m.travel_m.to_bits(), travel.to_bits(), "dt {dt_ms} ms");
            }
        }
    }

    #[test]
    fn infinite_flow_returns() {
        let mut m = TurbineMeter::dn50();
        // The second step runs on the NaN rotor state the first leaves.
        for _ in 0..2 {
            m.step(
                Seconds::from_millis(2.0),
                MetersPerSecond::new(f64::INFINITY),
            );
        }
    }

    #[test]
    fn wear_accumulates_with_travel() {
        let mut m = TurbineMeter::dn50();
        let v0 = m.effective_starting_velocity();
        run(&mut m, 250.0, 60.0);
        assert!(m.travel_m > 100.0);
        assert!(m.effective_starting_velocity() >= v0);
    }
}
