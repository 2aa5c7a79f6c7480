//! King's-law calibration: fitting, inversion, persistence.
//!
//! "The constants A, B and the exponent n are empirically determined and
//! ambient specific. This nonlinearity must be compensated by a special
//! signal conditioning." (§2)
//!
//! The firmware collects `(velocity, conductance)` points against a
//! reference meter (the paper used the Promag 50), fits `G = A + B·vⁿ` — a
//! grid search over `n` with a closed-form linear least-squares solve for
//! `A, B` at each candidate — and stores the constants in the platform
//! EEPROM.

use crate::health::HealthMonitor;
use crate::obs::{CalSlot, EventKind};
use crate::CoreError;
use hotwire_isif::eeprom::CalibrationStore;
use hotwire_units::{KelvinDelta, MetersPerSecond, ThermalConductance};

/// A fitted King's-law calibration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KingCalibration {
    /// Zero-flow conductance term, W/K.
    pub a: f64,
    /// Forced-convection coefficient, W/(K·(m/s)ⁿ).
    pub b: f64,
    /// Velocity exponent.
    pub n: f64,
    /// The overheat the constants were fitted at.
    pub overheat: KelvinDelta,
}

/// One calibration observation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CalPoint {
    /// Reference-meter velocity (magnitude).
    pub velocity: MetersPerSecond,
    /// Measured wire-to-fluid conductance at that velocity.
    pub conductance: ThermalConductance,
}

impl KingCalibration {
    /// Primary EEPROM slot used for calibration persistence.
    pub const EEPROM_SLOT: usize = 0;
    /// Redundant EEPROM slot holding a mirror copy of the calibration —
    /// the fallback when the primary record fails its CRC check.
    pub const REDUNDANT_SLOT: usize = 7;

    /// Fits King's law to calibration points.
    ///
    /// The exponent is grid-searched over `[0.30, 0.70]` in steps of 0.005;
    /// for each candidate the optimal `A, B` follow from linear least
    /// squares on the basis `[1, vⁿ]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Calibration`] with fewer than 3 points, with a
    /// non-positive overheat, or if the fit degenerates (all velocities
    /// equal, or a non-positive `A`/`B` at the optimum).
    pub fn fit(points: &[CalPoint], overheat: KelvinDelta) -> Result<Self, CoreError> {
        if points.len() < 3 {
            return Err(CoreError::Calibration {
                reason: "king fit needs at least 3 calibration points",
            });
        }
        if overheat.get() <= 0.0 {
            return Err(CoreError::Calibration {
                reason: "overheat must be positive",
            });
        }
        let vmax = points
            .iter()
            .map(|p| p.velocity.get().abs())
            .fold(0.0f64, f64::max);
        let vmin = points
            .iter()
            .map(|p| p.velocity.get().abs())
            .fold(f64::INFINITY, f64::min);
        if vmax - vmin < 1e-9 {
            return Err(CoreError::Calibration {
                reason: "calibration points must span a velocity range",
            });
        }

        let mut best: Option<(f64, f64, f64, f64)> = None; // (sse, a, b, n)
        let mut n = 0.30;
        while n <= 0.70 + 1e-12 {
            if let Some((a, b, sse)) = least_squares_ab(points, n) {
                if a > 0.0 && b > 0.0 && best.map_or(true, |(s, ..)| sse < s) {
                    best = Some((sse, a, b, n));
                }
            }
            n += 0.005;
        }
        let (_, a, b, n) = best.ok_or(CoreError::Calibration {
            reason: "no exponent produced a physical (positive A, B) fit",
        })?;
        Ok(KingCalibration { a, b, n, overheat })
    }

    /// Root-mean-square relative residual of the fit over the given points.
    pub fn rms_relative_residual(&self, points: &[CalPoint]) -> f64 {
        let sum: f64 = points
            .iter()
            .map(|p| {
                let model = self.a + self.b * p.velocity.get().abs().powf(self.n);
                ((model - p.conductance.get()) / p.conductance.get()).powi(2)
            })
            .sum();
        (sum / points.len() as f64).sqrt()
    }

    /// Converts a measured conductance into a velocity magnitude.
    pub fn velocity_from_conductance(&self, g: ThermalConductance) -> MetersPerSecond {
        let excess = g.get() - self.a;
        if excess <= 0.0 {
            MetersPerSecond::ZERO
        } else {
            MetersPerSecond::new((excess / self.b).powf(1.0 / self.n))
        }
    }

    /// Velocity sensitivity `dv/dG` at an operating velocity — the factor
    /// that turns the electronics' conductance resolution into the velocity
    /// resolution the paper reports (degrading as `v^(1−n)`).
    pub fn velocity_sensitivity(&self, v: MetersPerSecond) -> f64 {
        let vv = v.get().abs().max(1e-6);
        1.0 / (self.b * self.n * vv.powf(self.n - 1.0))
    }

    /// Property-compensates the calibration for a fluid temperature other
    /// than the calibration temperature.
    ///
    /// Water's conductivity, viscosity and Prandtl number all shift with
    /// temperature, moving King's `A` and `B` even at fixed overheat. The
    /// firmware knows the water property model, so it can scale the fitted
    /// constants by the ratio of the Kramers-derived laws at the estimated
    /// vs calibration *film* temperatures (fluid + half the overheat). This
    /// is the paper's "temperature sensor for tracking thermal flow
    /// variation" put to use.
    ///
    /// `cal` is the calibration-side law,
    /// [`film_law`](Self::film_law)`(calibration_temperature)`. It depends
    /// only on the overheat and the calibration temperature, so a caller
    /// compensating every control frame keeps it between calibrations
    /// instead of re-deriving it.
    #[must_use]
    pub fn compensated_for(
        &self,
        fluid_estimate: hotwire_units::Celsius,
        cal: &hotwire_physics::kings_law::KingsLaw,
    ) -> Self {
        let at = self.film_law(fluid_estimate);
        KingCalibration {
            a: self.a * at.a() / cal.a(),
            b: self.b * at.b() / cal.b(),
            n: self.n,
            overheat: self.overheat,
        }
    }

    /// The Kramers-derived law of the heater in potable water at the film
    /// temperature for fluid at `temperature`: `temperature` plus half this
    /// calibration's overheat.
    pub fn film_law(
        &self,
        temperature: hotwire_units::Celsius,
    ) -> hotwire_physics::kings_law::KingsLaw {
        use hotwire_physics::fluid::Water;
        use hotwire_physics::kings_law::{KingsLaw, WireGeometry};
        let half = KelvinDelta::new(self.overheat.get() / 2.0);
        KingsLaw::from_kramers(
            &Water::potable(),
            temperature + half,
            WireGeometry::maf_heater(),
        )
    }

    /// Persists the calibration to the platform EEPROM, writing the primary
    /// slot *and* the redundant mirror so a single corrupt record can be
    /// survived by [`recover`](Self::recover).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Platform`] on storage errors.
    pub fn store(&self, eeprom: &mut CalibrationStore) -> Result<(), CoreError> {
        store_mirrored(
            eeprom,
            Self::EEPROM_SLOT,
            Self::REDUNDANT_SLOT,
            &[self.a, self.b, self.n, self.overheat.get()],
        )
    }

    /// Reads the calibration back from the EEPROM, degrading to the
    /// redundant mirror (and repairing the primary from it) when the
    /// primary record is missing, corrupt or malformed.
    ///
    /// # Errors
    ///
    /// Returns the primary slot's error — [`CoreError::Platform`] for an
    /// empty or corrupt slot, [`CoreError::Calibration`] for a malformed
    /// record — when the mirror fails too.
    pub fn recover(eeprom: &mut CalibrationStore) -> Result<(Self, CalSlot), CoreError> {
        recover_mirrored(
            eeprom,
            Self::EEPROM_SLOT,
            Self::REDUNDANT_SLOT,
            |values| match *values {
                [a, b, n, overheat] => Ok(KingCalibration {
                    a,
                    b,
                    n,
                    overheat: KelvinDelta::new(overheat),
                }),
                _ => Err(CoreError::Calibration {
                    reason: "calibration record has wrong length",
                }),
            },
        )
    }
}

/// Writes one calibration record to its `primary` slot, then to its
/// `mirror`.
pub(crate) fn store_mirrored(
    eeprom: &mut CalibrationStore,
    primary: usize,
    mirror: usize,
    values: &[f64],
) -> Result<(), CoreError> {
    let payload = CalibrationStore::encode_f64s(values);
    eeprom.write_record(primary, &payload)?;
    eeprom.write_record(mirror, &payload)?;
    Ok(())
}

/// Reads a record written by [`store_mirrored`] through `decode`.
///
/// A primary that fails its read, its CRC or `decode` degrades to the
/// mirror, which is then written back over the primary so the next power
/// cycle reads clean again. When both copies fail, the primary's error is
/// returned: it is the more diagnostic of the two.
pub(crate) fn recover_mirrored<T>(
    eeprom: &mut CalibrationStore,
    primary: usize,
    mirror: usize,
    decode: impl Fn(&[f64]) -> Result<T, CoreError>,
) -> Result<(T, CalSlot), CoreError> {
    let read = |eeprom: &CalibrationStore, slot| -> Result<(Vec<f64>, T), CoreError> {
        let values = CalibrationStore::decode_f64s(eeprom.read_record(slot)?)?;
        let record = decode(&values)?;
        Ok((values, record))
    };
    let primary_err = match read(eeprom, primary) {
        Ok((_, record)) => return Ok((record, CalSlot::Primary)),
        Err(e) => e,
    };
    let (values, record) = read(eeprom, mirror).map_err(|_| primary_err)?;
    eeprom.write_record(primary, &CalibrationStore::encode_f64s(&values))?;
    Ok((record, CalSlot::Redundant))
}

/// The power-cycle calibration reload every meter runs on the outcome of
/// its calibration type's `recover`: a mirror fallback takes `health` to
/// `Recovering` and a lost calibration takes it to `Faulted`.
///
/// Returns the reload's outcome and the events the meter emits, in order:
/// the reload event, then the health edge the reload caused (surfaced now
/// rather than at the next control tick's poll).
pub(crate) fn reload<T>(
    recovered: Result<(T, CalSlot), CoreError>,
    health: &mut HealthMonitor,
) -> (Result<T, CoreError>, [Option<EventKind>; 2]) {
    let (outcome, event) = match recovered {
        Ok((record, slot)) => {
            if slot == CalSlot::Redundant {
                health.note_eeprom_fallback();
            }
            (Ok(record), EventKind::CalibrationReloaded { slot })
        }
        Err(e) => {
            health.note_unrecoverable();
            (Err(e), EventKind::CalibrationReloadFailed)
        }
    };
    let edge = health
        .take_transition()
        .map(|(from, to)| EventKind::HealthTransition { from, to });
    (outcome, [Some(event), edge])
}

/// Hot-wire ambient-temperature correction (the classic `TempCorrect` of
/// anemometry toolkits): a constant-temperature wire sits at a fixed wire
/// temperature `Tw`, so when the water warms from the calibration
/// reference `Tr` to an operating `Ta` the *overheat shrinks* and the
/// bridge power drops even at identical flow. Referring the measurement
/// back to calibration conditions multiplies the bridge voltage by
///
/// ```text
/// f = √((Tw − Tr) / (Tw − Ta))
/// ```
///
/// i.e. power and conductance by `f²`. This is the overheat-denominator
/// correction; water *property* drift (conductivity, Prandtl) is handled
/// separately by [`KingCalibration::compensated_for`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TempCorrect {
    /// The servoed wire temperature.
    pub wire_temperature: hotwire_units::Celsius,
    /// The fluid temperature the calibration was taken at.
    pub reference_temperature: hotwire_units::Celsius,
}

impl TempCorrect {
    /// Builds a correction for a wire held at `wire_temperature`,
    /// calibrated in water at `reference_temperature`.
    pub fn new(
        wire_temperature: hotwire_units::Celsius,
        reference_temperature: hotwire_units::Celsius,
    ) -> Self {
        TempCorrect {
            wire_temperature,
            reference_temperature,
        }
    }

    /// The voltage correction factor `√((Tw − Tr)/(Tw − Ta))` at an
    /// operating fluid temperature. Clamped to a sane range so a fluid
    /// estimate at or above the wire temperature (sensor fault) cannot
    /// produce an infinite or imaginary factor.
    pub fn factor(&self, operating: hotwire_units::Celsius) -> f64 {
        let tw = self.wire_temperature.get();
        let cal_overheat = tw - self.reference_temperature.get();
        let op_overheat = (tw - operating.get()).max(1e-3);
        (cal_overheat / op_overheat)
            .max(0.0)
            .sqrt()
            .clamp(0.1, 10.0)
    }

    /// Refers a measured conductance back to calibration conditions
    /// (multiplies by `factor²`), ready for the King inversion.
    pub fn corrected_conductance(
        &self,
        apparent: ThermalConductance,
        operating: hotwire_units::Celsius,
    ) -> ThermalConductance {
        let f = self.factor(operating);
        ThermalConductance::new(apparent.get() * f * f)
    }
}

impl KingCalibration {
    /// King inversion with the [`TempCorrect`] overheat correction applied
    /// first: decodes an apparent conductance measured in water at
    /// `operating` °C through constants fitted at the correction's
    /// reference temperature.
    pub fn velocity_temp_corrected(
        &self,
        apparent: ThermalConductance,
        correct: &TempCorrect,
        operating: hotwire_units::Celsius,
    ) -> MetersPerSecond {
        self.velocity_from_conductance(correct.corrected_conductance(apparent, operating))
    }
}

/// Least-squares solve of `g = a + b·v^n` for fixed `n`; returns
/// `(a, b, sse)` or `None` if the normal equations are singular.
fn least_squares_ab(points: &[CalPoint], n: f64) -> Option<(f64, f64, f64)> {
    let m = points.len() as f64;
    let (mut sx, mut sxx, mut sy, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for p in points {
        let x = p.velocity.get().abs().powf(n);
        let y = p.conductance.get();
        sx += x;
        sxx += x * x;
        sy += y;
        sxy += x * y;
    }
    let det = m * sxx - sx * sx;
    if det.abs() < 1e-18 {
        return None;
    }
    let a = (sy * sxx - sx * sxy) / det;
    let b = (m * sxy - sx * sy) / det;
    let sse: f64 = points
        .iter()
        .map(|p| {
            let model = a + b * p.velocity.get().abs().powf(n);
            (model - p.conductance.get()).powi(2)
        })
        .sum();
    Some((a, b, sse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotwire_physics::KingsLaw;

    fn water_law() -> KingsLaw {
        KingsLaw::from_kramers(
            &hotwire_physics::Water::potable(),
            hotwire_units::Celsius::new(15.0),
            hotwire_physics::kings_law::WireGeometry::maf_heater(),
        )
    }

    /// Every write cycle the store has taken, over all slots.
    fn total_writes(eeprom: &CalibrationStore) -> u64 {
        (0..hotwire_isif::eeprom::SLOT_COUNT)
            .map(|slot| eeprom.slot_write_cycles(slot))
            .sum()
    }

    fn synth_points(king: &KingsLaw, velocities: &[f64]) -> Vec<CalPoint> {
        velocities
            .iter()
            .map(|&v| CalPoint {
                velocity: MetersPerSecond::new(v),
                conductance: king.conductance(MetersPerSecond::new(v)),
            })
            .collect()
    }

    #[test]
    fn fit_recovers_known_law() {
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        assert!(
            (cal.a - king.a()).abs() / king.a() < 0.02,
            "A {} vs {}",
            cal.a,
            king.a()
        );
        assert!(
            (cal.b - king.b()).abs() / king.b() < 0.02,
            "B {} vs {}",
            cal.b,
            king.b()
        );
        assert!((cal.n - 0.5).abs() <= 0.01, "n {}", cal.n);
        assert!(cal.rms_relative_residual(&points) < 1e-3);
    }

    #[test]
    fn fit_tolerates_noise() {
        let king = water_law();
        let mut points = synth_points(&king, &[0.05, 0.1, 0.3, 0.6, 1.0, 1.5, 2.0, 2.5]);
        // ±1 % deterministic "noise".
        for (i, p) in points.iter_mut().enumerate() {
            let e = if i % 2 == 0 { 1.01 } else { 0.99 };
            p.conductance = ThermalConductance::new(p.conductance.get() * e);
        }
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        // Round-trip velocities within a few percent mid-range.
        for &v in &[0.5, 1.0, 2.0] {
            let g = king.conductance(MetersPerSecond::new(v));
            let back = cal.velocity_from_conductance(g);
            assert!(
                (back.get() - v).abs() / v < 0.08,
                "v={v} decoded {}",
                back.get()
            );
        }
    }

    #[test]
    fn inversion_round_trip() {
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 2.5]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        for &v in &[0.1, 0.7, 1.8, 2.4] {
            let g = king.conductance(MetersPerSecond::new(v));
            let back = cal.velocity_from_conductance(g);
            assert!((back.get() - v).abs() < 0.02 * v.max(0.2), "v={v}");
        }
    }

    #[test]
    fn below_zero_flow_clamps() {
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.5, 1.0, 2.0]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        let v = cal.velocity_from_conductance(ThermalConductance::new(cal.a * 0.9));
        assert_eq!(v.get(), 0.0);
    }

    #[test]
    fn sensitivity_degrades_with_speed() {
        // dv/dG ∝ v^(1−n): the paper's resolution worsens toward full scale.
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.5, 1.0, 2.0, 2.5]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        let s_low = cal.velocity_sensitivity(MetersPerSecond::new(0.2));
        let s_high = cal.velocity_sensitivity(MetersPerSecond::new(2.5));
        assert!(
            s_high > 2.0 * s_low,
            "sensitivity low {s_low} high {s_high}"
        );
    }

    #[test]
    fn compensation_tracks_property_drift() {
        use hotwire_physics::fluid::Water;
        use hotwire_physics::kings_law::WireGeometry;
        use hotwire_units::Celsius;
        // Fit at 15 °C against the true 15 °C law, then ask the compensated
        // calibration to decode conductances produced by the true 30 °C law:
        // the residual error must be far below the uncompensated one.
        let t_cal = Celsius::new(15.0);
        let t_warm = Celsius::new(30.0);
        let overheat = KelvinDelta::new(15.0);
        let half = KelvinDelta::new(7.5);
        let geom = WireGeometry::maf_heater();
        let king_cal = KingsLaw::from_kramers(&Water::potable(), t_cal + half, geom);
        let king_warm = KingsLaw::from_kramers(&Water::potable(), t_warm + half, geom);
        let points = synth_points_for(&king_cal, &[0.05, 0.3, 0.8, 1.5, 2.2]);
        let cal = KingCalibration::fit(&points, overheat).unwrap();

        let v_true = 1.2;
        let g_warm = king_warm.conductance(MetersPerSecond::new(v_true));
        let raw = cal.velocity_from_conductance(g_warm).get();
        let comp = cal
            .compensated_for(t_warm, &cal.film_law(t_cal))
            .velocity_from_conductance(g_warm)
            .get();
        let raw_err = (raw - v_true).abs() / v_true;
        let comp_err = (comp - v_true).abs() / v_true;
        assert!(
            raw_err > 0.15,
            "uncompensated error {raw_err} suspiciously small"
        );
        assert!(
            comp_err < 0.2 * raw_err,
            "compensated {comp_err} vs raw {raw_err}"
        );
    }

    fn synth_points_for(king: &KingsLaw, velocities: &[f64]) -> Vec<CalPoint> {
        velocities
            .iter()
            .map(|&v| CalPoint {
                velocity: MetersPerSecond::new(v),
                conductance: king.conductance(MetersPerSecond::new(v)),
            })
            .collect()
    }

    #[test]
    fn temp_correct_regression_at_two_water_temperatures() {
        use hotwire_units::Celsius;
        // A wire servoed at 45 °C, calibrated in 15 °C water. When the
        // season moves the water to 5 °C or 30 °C the overheat changes by
        // ±50 %, and the *apparent* conductance (power over the assumed
        // calibration overheat) misreads badly unless corrected.
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.3, 0.8, 1.5, 2.2]);
        let wire = Celsius::new(45.0);
        let t_ref = Celsius::new(15.0);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(30.0)).unwrap();
        let correct = TempCorrect::new(wire, t_ref);
        let v_true = 1.2;
        let g_conv = king.conductance(MetersPerSecond::new(v_true));

        for (t_op, raw_floor) in [(Celsius::new(5.0), 0.5), (Celsius::new(30.0), 0.5)] {
            // The bridge delivers P = G_conv · (Tw − Ta); the firmware's
            // apparent conductance divides by the calibration overheat.
            let power = g_conv.get() * (wire.get() - t_op.get());
            let apparent = ThermalConductance::new(power / (wire.get() - t_ref.get()));
            let raw = cal.velocity_from_conductance(apparent).get();
            let corrected = cal.velocity_temp_corrected(apparent, &correct, t_op).get();
            let raw_err = (raw - v_true).abs() / v_true;
            let corr_err = (corrected - v_true).abs() / v_true;
            // Regression pins: uncorrected error is large (the cold case
            // over-reads, the warm case under-reads), the corrected decode
            // collapses it by better than 50×.
            assert!(
                raw_err > raw_floor,
                "uncorrected error {raw_err} at {} °C suspiciously small",
                t_op.get()
            );
            assert!(
                corr_err < 0.02 * raw_err,
                "corrected {corr_err} vs raw {raw_err} at {} °C",
                t_op.get()
            );
        }
        // The correction factor itself: √(30/40) cold, √(30/15) warm.
        assert!((correct.factor(Celsius::new(5.0)) - (30.0f64 / 40.0).sqrt()).abs() < 1e-12);
        assert!((correct.factor(Celsius::new(30.0)) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn temp_correct_clamps_degenerate_overheat() {
        use hotwire_units::Celsius;
        let correct = TempCorrect::new(Celsius::new(45.0), Celsius::new(15.0));
        // Fluid estimate at/above the wire temperature: factor rails at the
        // clamp instead of going infinite.
        assert!(correct.factor(Celsius::new(45.0)) <= 10.0);
        assert!(correct.factor(Celsius::new(60.0)) <= 10.0);
    }

    fn stored_calibration() -> (KingCalibration, CalibrationStore) {
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.5, 1.0, 2.0]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        let mut eeprom = CalibrationStore::new();
        cal.store(&mut eeprom).unwrap();
        (cal, eeprom)
    }

    #[test]
    fn eeprom_round_trip() {
        // A healthy primary serves the reload and nothing is rewritten.
        let (cal, mut eeprom) = stored_calibration();
        assert_eq!(
            KingCalibration::recover(&mut eeprom).unwrap(),
            (cal, CalSlot::Primary)
        );
        assert_eq!(total_writes(&eeprom), 2);
    }

    #[test]
    fn corrupt_primary_falls_back_to_the_mirror_and_is_repaired() {
        let (cal, mut eeprom) = stored_calibration();
        eeprom.corrupt(KingCalibration::EEPROM_SLOT, 5);
        assert_eq!(
            KingCalibration::recover(&mut eeprom).unwrap(),
            (cal, CalSlot::Redundant)
        );
        // The primary was rewritten from the mirror: the next reload
        // reads it clean.
        assert_eq!(eeprom.slot_write_cycles(KingCalibration::EEPROM_SLOT), 2);
        assert_eq!(
            KingCalibration::recover(&mut eeprom).unwrap(),
            (cal, CalSlot::Primary)
        );

        // A CRC-valid primary that is not a King record falls back too.
        eeprom
            .write_record(
                KingCalibration::EEPROM_SLOT,
                &CalibrationStore::encode_f64s(&[1.0, 2.0, 3.0]),
            )
            .unwrap();
        assert_eq!(
            KingCalibration::recover(&mut eeprom).unwrap(),
            (cal, CalSlot::Redundant)
        );
    }

    #[test]
    fn recover_reports_the_primary_error_when_both_copies_fail() {
        let (_, mut eeprom) = stored_calibration();
        eeprom.corrupt(KingCalibration::EEPROM_SLOT, 3);
        eeprom.corrupt(KingCalibration::REDUNDANT_SLOT, 1);
        assert!(matches!(
            KingCalibration::recover(&mut eeprom),
            Err(CoreError::Platform(
                hotwire_isif::IsifError::CorruptRecord { slot: 0 }
            ))
        ));
        // Nothing was repaired from a dead mirror.
        assert_eq!(total_writes(&eeprom), 2);
        assert!(matches!(
            KingCalibration::recover(&mut CalibrationStore::new()),
            Err(CoreError::Platform(hotwire_isif::IsifError::EmptySlot {
                slot: 0
            }))
        ));
    }

    #[test]
    fn repeated_stores_wear_both_slots_equally() {
        // Persist-heavy maintenance policies rate-limit on slot wear, so
        // the accounting must be balanced: every `store` costs exactly
        // one write cycle on the primary AND one on the mirror — never
        // double-charging one slot or skipping the other.
        let king = water_law();
        let points = synth_points(&king, &[0.05, 0.5, 1.0, 2.0]);
        let cal = KingCalibration::fit(&points, KelvinDelta::new(15.0)).unwrap();
        let mut eeprom = CalibrationStore::new();
        for _ in 0..25 {
            cal.store(&mut eeprom).unwrap();
        }
        assert_eq!(eeprom.slot_write_cycles(KingCalibration::EEPROM_SLOT), 25);
        assert_eq!(
            eeprom.slot_write_cycles(KingCalibration::REDUNDANT_SLOT),
            25
        );
        assert_eq!(eeprom.max_slot_wear(), 25);
        // No other slot picked up phantom wear.
        assert_eq!(total_writes(&eeprom), 50);
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        let king = water_law();
        assert!(
            KingCalibration::fit(&synth_points(&king, &[0.5, 1.0]), KelvinDelta::new(15.0))
                .is_err()
        );
        assert!(KingCalibration::fit(
            &synth_points(&king, &[1.0, 1.0, 1.0]),
            KelvinDelta::new(15.0)
        )
        .is_err());
        assert!(
            KingCalibration::fit(&synth_points(&king, &[0.1, 0.5, 1.0]), KelvinDelta::ZERO)
                .is_err()
        );
    }
}
