//! Measurement metrics matching the paper's §5 definitions.
//!
//! * **resolution** — the ± spread (reported as one standard deviation
//!   doubled… the paper quotes ±; we report `±σ`) of the conditioned output
//!   at a steady operating point;
//! * **repeatability** — the half-spread of settled means across repeated
//!   visits to the same setpoint, as % of full scale;
//! * **linearity** — worst deviation from the least-squares line through
//!   (true, measured), as % of full scale;
//! * **response time** — 10 %→90 % rise time through a step.

/// Streaming mean/σ accumulator (Welford's algorithm).
///
/// The allocation-free path for windowed sweep statistics: campaign runs
/// fold their settled windows through this instead of materializing a
/// per-window `Vec<f64>` copy of the trace. Matches [`mean`] / [`std_dev`]
/// (population σ) to floating-point accuracy; the degenerate-input
/// conventions (empty → `NaN`, singleton σ → 0) are identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one sample in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples (`NaN` for an empty accumulator — an empty
    /// window has no mean, and pretending it is 0 poisons downstream
    /// error metrics with a plausible-looking number).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        self.mean
    }

    /// Population variance (`NaN` when empty, 0 for a single sample).
    pub fn variance(&self) -> f64 {
        match self.n {
            0 => f64::NAN,
            1 => 0.0,
            n => self.m2 / n as f64,
        }
    }

    /// Population standard deviation (`NaN` when empty, 0 for a single
    /// sample).
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// Mean of a slice (`NaN` for empty input — see [`Welford::mean`]).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice (`NaN` when empty, 0 for a
/// single sample — a lone reading has no spread, but *no* readings have no
/// statistic at all, and 0 would read as a perfect instrument).
pub fn std_dev(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => f64::NAN,
        1 => 0.0,
        n => {
            let m = mean(xs);
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64).sqrt()
        }
    }
}

/// Resolution at a steady point: ±σ of the samples, in the samples' unit
/// (`NaN` for an empty window).
pub fn resolution(samples: &[f64]) -> f64 {
    std_dev(samples)
}

/// Repeatability across revisits: half the spread of the settled means,
/// as a fraction of `full_scale`.
///
/// `NaN` for fewer than two visits or a non-positive full scale — both are
/// measurement mistakes, and the old `0.0` convention reported them as a
/// perfect instrument. `repro --json` renders the `NaN` as `null`.
pub fn repeatability(settled_means: &[f64], full_scale: f64) -> f64 {
    if settled_means.len() < 2 || full_scale <= 0.0 {
        return f64::NAN;
    }
    let max = settled_means
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let min = settled_means.iter().cloned().fold(f64::INFINITY, f64::min);
    (max - min) / 2.0 / full_scale
}

/// Worst absolute deviation from the least-squares line through
/// `(truth, measured)` pairs, as a fraction of `full_scale`.
pub fn linearity(pairs: &[(f64, f64)], full_scale: f64) -> f64 {
    if pairs.len() < 3 || full_scale <= 0.0 {
        return 0.0;
    }
    let n = pairs.len() as f64;
    let sx: f64 = pairs.iter().map(|p| p.0).sum();
    let sy: f64 = pairs.iter().map(|p| p.1).sum();
    let sxx: f64 = pairs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pairs.iter().map(|p| p.0 * p.1).sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-18 {
        return 0.0;
    }
    let slope = (n * sxy - sx * sy) / det;
    let intercept = (sy * sxx - sx * sxy) / det;
    pairs
        .iter()
        .map(|&(x, y)| (y - (slope * x + intercept)).abs())
        .fold(0.0, f64::max)
        / full_scale
}

/// 10 %→90 % rise time through a step, given the sample times `ts` and
/// values `ys` as separate columns (the layout of columnar stores and
/// streaming series reducers), the level before the step and the final
/// level. Returns `None` if the trace never crosses both thresholds (or is
/// empty).
///
/// The 10 % time is the *final entry* into the crossed region — the time
/// after the last sample still on the wrong side. Plain first-crossing
/// search (the old implementation) is wrong on noisy traces: a pre-step
/// spike that touches the 90 % level also touches the 10 % level at the
/// same sample, so both "first crossings" land on the spike and the rise
/// time collapses to ~0. Final entry anchors on the departure that
/// actually *holds* — settled traces sit ~100 % away from the 10 % level,
/// so ordinary noise cannot move it.
///
/// The 90 % time is then the *first* crossing at or after the 10 % time.
/// Final entry would be wrong there for the mirrored reason: settled noise
/// rides right on the 90 % level, and any late dip would push the "final
/// entry" out and inflate the measurement (noisier configurations would
/// absurdly report *slower* responses than clean ones). For a clean
/// monotonic step all the definitions agree.
///
/// # Panics
///
/// Panics if `ts` and `ys` differ in length.
pub fn rise_time_split(ts: &[f64], ys: &[f64], from: f64, to: f64) -> Option<f64> {
    assert_eq!(
        ts.len(),
        ys.len(),
        "rise_time_split: time/value columns differ in length"
    );
    let lo = from + 0.1 * (to - from);
    let hi = from + 0.9 * (to - from);
    let rising = to > from;
    let crossed = |y: f64, level: f64| if rising { y >= level } else { y <= level };
    // Final entry into the region beyond `lo`: the sample after the last
    // one still outside it. `None` if the trace never ends up inside
    // (i.e. the level is never crossed durably).
    let t_lo = match ys.iter().rposition(|&y| !crossed(y, lo)) {
        Some(i) => ts.get(i + 1).copied(),
        // Every sample is already beyond the level: entry at the start.
        None => ts.first().copied(),
    }?;
    let t_hi = ts
        .iter()
        .zip(ys)
        .find(|&(&t, &y)| t >= t_lo && crossed(y, hi))
        .map(|(&t, _)| t)?;
    Some(t_hi - t_lo)
}

/// Hysteresis: worst absolute difference between the settled means measured
/// at the *same* true level on the way up vs. the way down, as a fraction of
/// `full_scale`. Input: `(true_level, settled_mean)` pairs from each
/// direction of the staircase.
pub fn hysteresis(up: &[(f64, f64)], down: &[(f64, f64)], full_scale: f64) -> f64 {
    if full_scale <= 0.0 {
        return 0.0;
    }
    let mut worst = 0.0f64;
    for &(lu, mu) in up {
        for &(ld, md) in down {
            if (lu - ld).abs() < 1e-9 {
                worst = worst.max((mu - md).abs());
            }
        }
    }
    worst / full_scale
}

/// Root-mean-square error between measured and reference series (pairwise).
///
/// `NaN` for empty input, matching the crate's empty⇒NaN convention
/// ([`mean`], [`std_dev`], [`Welford::mean`]): no comparison happened, and
/// the old `0.0` read as a *perfect* agreement. `repro --json` renders the
/// `NaN` as `null`.
pub fn rms_error(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return f64::NAN;
    }
    (pairs.iter().map(|&(a, b)| (a - b).powi(2)).sum::<f64>() / pairs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_slice_paths() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let w: Welford = xs.iter().copied().collect();
        assert_eq!(w.count(), xs.len() as u64);
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-12);
        // Degenerate-input conventions match.
        assert!(Welford::new().mean().is_nan());
        assert!(Welford::new().std_dev().is_nan());
        let one: Welford = [3.5].into_iter().collect();
        assert_eq!(one.mean(), 3.5);
        assert_eq!(one.std_dev(), 0.0);
    }

    mod welford_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn welford_matches_two_pass(
                xs in proptest::collection::vec(-1.0e3f64..1.0e3, 0..200)
            ) {
                let w: Welford = xs.iter().copied().collect();
                if xs.is_empty() {
                    prop_assert!(w.mean().is_nan() && mean(&xs).is_nan());
                    prop_assert!(w.std_dev().is_nan() && std_dev(&xs).is_nan());
                } else {
                    prop_assert!((w.mean() - mean(&xs)).abs() < 1e-9);
                    prop_assert!((w.std_dev() - std_dev(&xs)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        // Regression: empty windows used to read as perfect (0).
        assert!(mean(&[]).is_nan());
        assert!(std_dev(&[]).is_nan());
        assert!(resolution(&[]).is_nan());
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn repeatability_is_half_spread() {
        let means = [99.0, 101.0, 100.0, 100.5];
        assert!((repeatability(&means, 250.0) - 1.0 / 250.0).abs() < 1e-12);
        // Regression: a single visit / bad full scale used to report 0.0,
        // i.e. a *perfect* instrument, instead of "not a measurement".
        assert!(repeatability(&[100.0], 250.0).is_nan());
        assert!(repeatability(&means, 0.0).is_nan());
        assert!(repeatability(&means, -1.0).is_nan());
    }

    #[test]
    fn linearity_of_perfect_line_is_zero() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!(linearity(&pairs, 100.0) < 1e-12);
    }

    #[test]
    fn linearity_detects_bow() {
        let pairs: Vec<(f64, f64)> = (0..11)
            .map(|i| {
                let x = i as f64 * 25.0;
                (x, x + 0.0002 * x * (250.0 - x)) // parabola, max +3.1 at mid
            })
            .collect();
        let lin = linearity(&pairs, 250.0);
        assert!(lin > 0.005 && lin < 0.02, "linearity {lin}");
    }

    /// `f` sampled every millisecond over ten seconds, as time and value
    /// columns.
    fn columns(f: impl Fn(f64) -> f64) -> (Vec<f64>, Vec<f64>) {
        let ts: Vec<f64> = (0..10_000).map(|i| i as f64 * 1e-3).collect();
        let ys = ts.iter().map(|&t| f(t)).collect();
        (ts, ys)
    }

    #[test]
    fn rise_time_of_exponential() {
        // y = 1 − e^(−t): 10 % at 0.105, 90 % at 2.303 → rise ≈ 2.197.
        let (ts, ys) = columns(|t| 1.0 - (-t).exp());
        let rt = rise_time_split(&ts, &ys, 0.0, 1.0).unwrap();
        assert!((rt - 2.197).abs() < 0.01, "rise {rt}");
    }

    #[test]
    fn rise_time_falling_step() {
        let (ts, ys) = columns(|t| (-t).exp());
        let rt = rise_time_split(&ts, &ys, 1.0, 0.0).unwrap();
        assert!((rt - 2.197).abs() < 0.01, "fall {rt}");
    }

    #[test]
    fn rise_time_none_when_never_crossing() {
        assert!(rise_time_split(&[0.0, 1.0], &[0.0, 0.05], 0.0, 1.0).is_none());
        assert!(rise_time_split(&[], &[], 0.0, 1.0).is_none());
    }

    #[test]
    #[should_panic(expected = "columns differ in length")]
    fn rise_time_split_rejects_mismatched_columns() {
        rise_time_split(&[0.0, 1.0], &[0.0], 0.0, 1.0);
    }

    #[test]
    fn rise_time_ignores_pre_step_spike() {
        // Exponential step with a single pre-step noise spike that shoots
        // past the 90 % level. First-crossing search put both thresholds on
        // the spike → rise ≈ 0; the final-entry definition recovers the
        // true ≈ 2.197 s transition.
        let (ts, mut ys) = columns(|t| {
            if t < 0.05 {
                0.0
            } else {
                1.0 - (-(t - 0.05)).exp()
            }
        });
        ys[20] = 0.95; // spike at t = 0.02, before the step
        let rt = rise_time_split(&ts, &ys, 0.0, 1.0).unwrap();
        assert!((rt - 2.197).abs() < 0.01, "spiky rise {rt}");
    }

    #[test]
    fn rise_time_ignores_mid_level_spike() {
        // A spike that only reaches mid-level (crosses lo, not hi) used to
        // pull t_lo early and overstate the rise time.
        let (ts, mut ys) = columns(|t| {
            if t < 1.0 {
                0.0
            } else {
                1.0 - (-(t - 1.0)).exp()
            }
        });
        ys[100] = 0.5; // spike at t = 0.1, 0.9 s before the step
        let rt = rise_time_split(&ts, &ys, 0.0, 1.0).unwrap();
        assert!((rt - 2.197).abs() < 0.01, "mid-spike rise {rt}");
    }

    #[test]
    fn rise_time_tolerates_settling_noise_at_the_high_threshold() {
        // Settled output noise rides on the 90 % level; late dips below it
        // must not push the measurement out (a final-entry search at the
        // high threshold would report ≈ 7.8 s here instead of ≈ 2.197 s,
        // making noisier traces look *slower*).
        let (ts, mut ys) = columns(|t| 1.0 - (-t).exp());
        ys[7_800] = 0.88; // noise dip at t = 7.8, long after settling
        let rt = rise_time_split(&ts, &ys, 0.0, 1.0).unwrap();
        assert!((rt - 2.197).abs() < 0.01, "noisy-settle rise {rt}");
    }

    #[test]
    fn hysteresis_matched_levels_only() {
        let up = [(50.0, 51.0), (100.0, 101.0), (150.0, 149.0)];
        let down = [(150.0, 150.5), (100.0, 99.0), (50.0, 50.2)];
        // Worst matched-level gap: |101 − 99| = 2 at level 100.
        let h = hysteresis(&up, &down, 250.0);
        assert!((h - 2.0 / 250.0).abs() < 1e-12);
        assert_eq!(hysteresis(&up, &[(75.0, 75.0)], 250.0), 0.0);
        assert_eq!(hysteresis(&up, &down, 0.0), 0.0);
    }

    #[test]
    fn rms_error_basic() {
        assert_eq!(rms_error(&[(1.0, 1.0), (2.0, 2.0)]), 0.0);
        assert!((rms_error(&[(0.0, 3.0), (0.0, 4.0)]) - 3.5355).abs() < 1e-3);
        // Regression: empty input used to score as perfect agreement (0.0).
        assert!(rms_error(&[]).is_nan());
    }
}
