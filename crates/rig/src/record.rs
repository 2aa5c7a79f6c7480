//! Push-based recording: columnar trace storage, streaming reducers and
//! composable sinks.
//!
//! The paper's evaluation is fundamentally long-duration — the prototype
//! logged for months in the potable-water station — so the recording layer
//! must *stream*, not hoard. [`LineRunner::run_with`] pushes every
//! [`TraceSample`] into a [`Recorder`]; what happens to the sample is the
//! sink's business:
//!
//! * [`TraceStore`] — the full-trace sink: a columnar struct-of-arrays
//!   store with cheap per-channel slices and `partition_point` window
//!   lookups (samples are time-ordered by construction);
//! * [`RunReductions`] — streaming reducers: settled-window Welford
//!   statistics, extra per-window Welfords, the supply-code and bubble
//!   peaks, fault and health counts, error statistics against truth, and a
//!   bounded [`SeriesReducer`] window for rise-time analysis — everything
//!   the experiments consume, computed in O(1) memory per sample;
//! * [`CsvSink`] — renders rows as they arrive, without materializing.
//!
//! [`PolicyRecorder`] combines a [`TraceStore`] and [`RunReductions`]
//! under a per-spec [`RecordPolicy`], so sweep-style experiments
//! ([`RecordPolicy::MetricsOnly`]) never hold raw samples at all while
//! figure-producing experiments keep the full series.
//!
//! # Determinism
//!
//! Streaming reductions fold samples in recording order — the same order a
//! post-hoc pass over a full trace sees — so every reduced statistic is
//! **bit-identical** to the equivalent reduction over a
//! [`RecordPolicy::Full`] store of the same spec, at any `--jobs` count.
//! `tests/record_equivalence.rs` asserts this for every metric the
//! experiments use, fault schedules included.
//!
//! [`LineRunner::run_with`]: crate::runner::LineRunner::run_with

use crate::metrics::Welford;
use crate::runner::TraceSample;
use hotwire_core::HealthState;
use std::ops::Range;

/// The CSV header shared by [`CsvSink`] and `Trace::to_csv`.
pub const CSV_HEADER: &str =
    "t_s,true_cm_s,dut_cm_s,promag_cm_s,turbine_cm_s,supply_code,bubble_coverage,fouling_um,fault,health\n";

/// The most rows a full-trace store reserves before a run (62 bytes a row
/// over its ten columns, 62 MiB); a longer run's store grows as it records.
pub const MAX_RESERVED_ROWS: usize = 1 << 20;

/// A sink that [`LineRunner::run_with`] pushes each recorded sample into.
///
/// Implementations must be order-sensitive-safe: samples arrive exactly
/// once, in time order.
///
/// [`LineRunner::run_with`]: crate::runner::LineRunner::run_with
pub trait Recorder {
    /// Receives one recorded sample.
    fn record(&mut self, sample: &TraceSample);

    /// Whether this sink reads the reference channels
    /// ([`TraceSample::promag_cm_s`], [`TraceSample::turbine_cm_s`]). A run
    /// into a sink that does not steps neither reference meter and records
    /// both channels as `NaN`.
    fn reads_references(&self) -> bool {
        true
    }
}

impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn record(&mut self, sample: &TraceSample) {
        (**self).record(sample);
    }

    fn reads_references(&self) -> bool {
        (**self).reads_references()
    }
}

/// A numeric trace channel, for generic per-instrument reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// True bulk velocity (cm/s).
    Truth,
    /// Device-under-test conditioned velocity (cm/s).
    Dut,
    /// Promag 50 reference (cm/s).
    Promag,
    /// Turbine reference (cm/s).
    Turbine,
}

/// Columnar (struct-of-arrays) storage for recorded samples.
///
/// The full-trace sink: every channel lives in its own contiguous `Vec`,
/// so per-channel reductions read a dense `&[f64]` instead of striding
/// through an array of structs, and window lookups are `partition_point`
/// binary searches over the time column (samples are recorded in time
/// order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStore {
    t: Vec<f64>,
    true_cm_s: Vec<f64>,
    dut_cm_s: Vec<f64>,
    promag_cm_s: Vec<f64>,
    turbine_cm_s: Vec<f64>,
    supply_code: Vec<u32>,
    bubble_coverage: Vec<f64>,
    fouling_um: Vec<f64>,
    fault: Vec<bool>,
    health: Vec<HealthState>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// An empty store pre-sized for a run expected to record `samples`
    /// rows, up to [`MAX_RESERVED_ROWS`]; the columns grow past that as
    /// rows arrive, so an untrusted spec's count never sizes an
    /// allocation.
    pub fn for_run(samples: usize) -> Self {
        TraceStore::with_capacity(samples.min(MAX_RESERVED_ROWS))
    }

    /// An empty store with room for `n` samples in every column.
    pub fn with_capacity(n: usize) -> Self {
        TraceStore {
            t: Vec::with_capacity(n),
            true_cm_s: Vec::with_capacity(n),
            dut_cm_s: Vec::with_capacity(n),
            promag_cm_s: Vec::with_capacity(n),
            turbine_cm_s: Vec::with_capacity(n),
            supply_code: Vec::with_capacity(n),
            bubble_coverage: Vec::with_capacity(n),
            fouling_um: Vec::with_capacity(n),
            fault: Vec::with_capacity(n),
            health: Vec::with_capacity(n),
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Appends one sample (equivalent to [`Recorder::record`]).
    pub fn push(&mut self, s: &TraceSample) {
        self.t.push(s.t);
        self.true_cm_s.push(s.true_cm_s);
        self.dut_cm_s.push(s.dut_cm_s);
        self.promag_cm_s.push(s.promag_cm_s);
        self.turbine_cm_s.push(s.turbine_cm_s);
        self.supply_code.push(s.supply_code);
        self.bubble_coverage.push(s.bubble_coverage);
        self.fouling_um.push(s.fouling_um);
        self.fault.push(s.fault);
        self.health.push(s.health);
    }

    /// Reassembles sample `i` as a row (`None` past the end).
    pub fn get(&self, i: usize) -> Option<TraceSample> {
        if i >= self.len() {
            return None;
        }
        Some(TraceSample {
            t: self.t[i],
            true_cm_s: self.true_cm_s[i],
            dut_cm_s: self.dut_cm_s[i],
            promag_cm_s: self.promag_cm_s[i],
            turbine_cm_s: self.turbine_cm_s[i],
            supply_code: self.supply_code[i],
            bubble_coverage: self.bubble_coverage[i],
            fouling_um: self.fouling_um[i],
            fault: self.fault[i],
            health: self.health[i],
        })
    }

    /// The last stored sample, if any.
    pub fn last(&self) -> Option<TraceSample> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Row-wise iterator (samples reassembled by value).
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            store: self,
            front: 0,
            back: self.len(),
        }
    }

    /// Index range of the samples with `t0 <= t < t1`, found by
    /// `partition_point` binary search over the time column (samples are
    /// time-ordered by construction).
    pub fn window(&self, t0: f64, t1: f64) -> Range<usize> {
        let start = self.t.partition_point(|&t| t < t0);
        let end = self.t.partition_point(|&t| t < t1);
        start..end.max(start)
    }

    /// The time column.
    pub fn ts(&self) -> &[f64] {
        &self.t
    }

    /// The DUT velocity column (cm/s).
    pub fn dut(&self) -> &[f64] {
        &self.dut_cm_s
    }

    /// The true-velocity column (cm/s).
    pub fn truth(&self) -> &[f64] {
        &self.true_cm_s
    }

    /// The supply-DAC code column.
    pub fn supply_codes(&self) -> &[u32] {
        &self.supply_code
    }

    /// The worst-heater bubble-coverage column (0..=1).
    pub fn bubble(&self) -> &[f64] {
        &self.bubble_coverage
    }

    /// The per-sample fault-flag column.
    pub fn faults(&self) -> &[bool] {
        &self.fault
    }

    /// The health-state column.
    pub fn health(&self) -> &[HealthState] {
        &self.health
    }

    /// A velocity channel as a dense slice.
    pub fn channel(&self, c: Channel) -> &[f64] {
        match c {
            Channel::Truth => &self.true_cm_s,
            Channel::Dut => &self.dut_cm_s,
            Channel::Promag => &self.promag_cm_s,
            Channel::Turbine => &self.turbine_cm_s,
        }
    }

    /// The DUT series over `[t0, t1)` as a slice (no copy).
    pub fn dut_in(&self, t0: f64, t1: f64) -> &[f64] {
        &self.dut_cm_s[self.window(t0, t1)]
    }

    /// The time column over `[t0, t1)` as a slice (no copy).
    pub fn ts_in(&self, t0: f64, t1: f64) -> &[f64] {
        &self.t[self.window(t0, t1)]
    }

    /// Streaming statistics of the DUT series over `[t0, t1)`.
    pub fn window_stats(&self, t0: f64, t1: f64) -> Welford {
        self.dut_in(t0, t1).iter().copied().collect()
    }

    /// Heap bytes held by the column vectors (capacity, not length) — the
    /// store's contribution to a run's peak trace memory.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.t.capacity() * size_of::<f64>() * 7
            + self.supply_code.capacity() * size_of::<u32>()
            + self.fault.capacity() * size_of::<bool>()
            + self.health.capacity() * size_of::<HealthState>()
    }
}

impl Recorder for TraceStore {
    fn record(&mut self, sample: &TraceSample) {
        self.push(sample);
    }
}

/// Row-wise iterator over a [`TraceStore`], yielding samples by value.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    store: &'a TraceStore,
    front: usize,
    back: usize,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceSample;

    fn next(&mut self) -> Option<TraceSample> {
        if self.front >= self.back {
            return None;
        }
        let s = self.store.get(self.front);
        self.front += 1;
        s
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for TraceIter<'_> {
    fn next_back(&mut self) -> Option<TraceSample> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        self.store.get(self.back)
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl<'a> IntoIterator for &'a TraceStore {
    type Item = TraceSample;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Renders samples as CSV rows on arrival, without materializing a trace.
#[derive(Debug, Clone)]
pub struct CsvSink {
    out: String,
}

impl CsvSink {
    /// A sink holding only the header row.
    pub fn new() -> Self {
        CsvSink {
            out: CSV_HEADER.to_string(),
        }
    }

    /// A sink pre-sized for `rows` data rows (~64 bytes per formatted row,
    /// so the export runs in a handful of reallocations instead of
    /// O(log n) doublings over megabyte-scale traces).
    pub fn with_capacity(rows: usize) -> Self {
        let mut out = String::with_capacity(CSV_HEADER.len() + rows * 64);
        out.push_str(CSV_HEADER);
        CsvSink { out }
    }

    /// The rendered CSV (header + one row per recorded sample).
    pub fn into_string(self) -> String {
        self.out
    }
}

impl Default for CsvSink {
    fn default() -> Self {
        CsvSink::new()
    }
}

impl Recorder for CsvSink {
    fn record(&mut self, s: &TraceSample) {
        use std::fmt::Write as _;
        let _ = writeln!(
            self.out,
            "{:.4},{:.3},{:.3},{:.3},{:.3},{},{:.4},{:.3},{},{}",
            s.t,
            s.true_cm_s,
            s.dut_cm_s,
            s.promag_cm_s,
            s.turbine_cm_s,
            s.supply_code,
            s.bubble_coverage,
            s.fouling_um,
            u8::from(s.fault),
            s.health.code(),
        );
    }
}

/// What a [`RunSpec`](crate::campaign::RunSpec) keeps of its raw samples.
///
/// Streaming reductions ([`RunReductions`]) are computed under every
/// policy — the policy only controls what lands in the stored trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordPolicy {
    /// Keep every sample (required by figure-producing experiments that
    /// print or re-scan the series).
    #[default]
    Full,
    /// Keep no samples at all — O(1) trace memory; everything the run
    /// reports must come from the streaming reductions.
    MetricsOnly,
}

/// Which samples feed each streaming reduction — derived from the spec's
/// windows by the campaign layer.
///
/// All windows are half-open `[t0, t1)`, matching
/// [`TraceStore::window_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionPlan {
    /// The settled window for the primary DUT statistics.
    pub settle: (f64, f64),
    /// Extra DUT Welford windows (e.g. per-visit repeatability windows).
    pub windows: Vec<(f64, f64)>,
    /// If set, retain the `(t, dut)` series inside this window for
    /// rise-time analysis (bounded by the window, not the run length).
    pub series: Option<(f64, f64)>,
    /// If set, accumulate DUT-vs-truth error statistics over this window.
    pub err: Option<(f64, f64)>,
}

impl Default for ReductionPlan {
    fn default() -> Self {
        ReductionPlan {
            settle: (0.0, f64::INFINITY),
            windows: Vec::new(),
            series: None,
            err: None,
        }
    }
}

/// Per-[`HealthState`] sample counts — the streaming census of how much
/// simulated line-time the firmware supervisor spent in each state.
///
/// Indexed by [`HealthState::code`], so the census merges across runs (and
/// across fleet lines) with plain integer addition — deterministic in any
/// merge order that is itself deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCensus {
    /// Sample counts per state, indexed by [`HealthState::code`].
    pub counts: [u64; 4],
}

impl HealthCensus {
    /// Counts one sample observed in `state`.
    pub fn record(&mut self, state: HealthState) {
        self.counts[state.code() as usize] += 1;
    }

    /// Adds another census's counts into this one.
    pub fn merge(&mut self, other: &HealthCensus) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Samples observed in `state`.
    pub fn count(&self, state: HealthState) -> u64 {
        self.counts[state.code() as usize]
    }

    /// Total samples observed across all states.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A bounded `(t, y)` series retained over one window — the streaming
/// input to [`rise_time_split`](crate::metrics::rise_time_split) and
/// friends. Memory is O(window samples), independent of the run length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesReducer {
    /// Sample times inside the window, seconds.
    pub ts: Vec<f64>,
    /// DUT readings at those times, cm/s.
    pub ys: Vec<f64>,
}

/// Streaming reductions over one run — every statistic the experiments
/// consume, folded sample-by-sample in recording order so each is
/// bit-identical to the same reduction over a full stored trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReductions {
    plan: ReductionPlan,
    /// Total samples recorded (under any policy).
    pub samples: u64,
    /// DUT statistics over the plan's settled window.
    pub settled: Welford,
    /// DUT statistics over each of the plan's extra windows, in order.
    pub windows: Vec<Welford>,
    /// Largest supply-DAC code commanded.
    pub supply_code_max: u32,
    /// Peak worst-heater bubble coverage (0..=1).
    pub bubble_peak: f64,
    /// Number of samples with any fault flag raised.
    pub fault_samples: u64,
    /// Per-[`HealthState`] sample census over the whole run.
    pub health_census: HealthCensus,
    /// `(t, dut)` series retained over the plan's series window.
    pub series: SeriesReducer,
    /// Worst |dut − truth| over the plan's error window.
    pub err_max_abs: f64,
    err_sq_sum: f64,
    err_count: u64,
}

impl RunReductions {
    /// Empty reductions for `plan`.
    pub fn new(plan: ReductionPlan) -> Self {
        let windows = vec![Welford::new(); plan.windows.len()];
        RunReductions {
            plan,
            samples: 0,
            settled: Welford::new(),
            windows,
            supply_code_max: 0,
            bubble_peak: 0.0,
            fault_samples: 0,
            health_census: HealthCensus::default(),
            series: SeriesReducer::default(),
            err_max_abs: 0.0,
            err_sq_sum: 0.0,
            err_count: 0,
        }
    }

    /// RMS of dut − truth over the error window (`NaN` when the window
    /// saw no samples, matching [`rms_error`](crate::metrics::rms_error)'s
    /// empty ⇒ `NaN` convention).
    pub fn err_rms(&self) -> f64 {
        if self.err_count == 0 {
            return f64::NAN;
        }
        (self.err_sq_sum / self.err_count as f64).sqrt()
    }

    /// Samples seen by the error window.
    pub fn err_count(&self) -> u64 {
        self.err_count
    }
}

impl Default for RunReductions {
    fn default() -> Self {
        RunReductions::new(ReductionPlan::default())
    }
}

impl Recorder for RunReductions {
    /// No reduction reads a reference channel.
    fn reads_references(&self) -> bool {
        false
    }

    fn record(&mut self, s: &TraceSample) {
        self.samples += 1;
        if s.t >= self.plan.settle.0 && s.t < self.plan.settle.1 {
            self.settled.push(s.dut_cm_s);
        }
        for (w, &(t0, t1)) in self.windows.iter_mut().zip(&self.plan.windows) {
            if s.t >= t0 && s.t < t1 {
                w.push(s.dut_cm_s);
            }
        }
        self.supply_code_max = self.supply_code_max.max(s.supply_code);
        self.bubble_peak = self.bubble_peak.max(s.bubble_coverage);
        self.fault_samples += u64::from(s.fault);
        self.health_census.record(s.health);
        if let Some((t0, t1)) = self.plan.series {
            if s.t >= t0 && s.t < t1 {
                self.series.ts.push(s.t);
                self.series.ys.push(s.dut_cm_s);
            }
        }
        if let Some((t0, t1)) = self.plan.err {
            if s.t >= t0 && s.t < t1 {
                let e = s.dut_cm_s - s.true_cm_s;
                self.err_sq_sum += e * e;
                self.err_max_abs = self.err_max_abs.max(e.abs());
                self.err_count += 1;
            }
        }
    }
}

/// The campaign layer's recorder: folds every sample into
/// [`RunReductions`] and stores rows per the spec's [`RecordPolicy`].
#[derive(Debug)]
pub struct PolicyRecorder {
    policy: RecordPolicy,
    reductions: RunReductions,
    store: TraceStore,
}

impl PolicyRecorder {
    /// A recorder applying `policy` with reductions folded under `plan`.
    pub fn new(policy: RecordPolicy, plan: ReductionPlan) -> Self {
        PolicyRecorder {
            policy,
            reductions: RunReductions::new(plan),
            store: TraceStore::new(),
        }
    }

    /// Pre-sizes the store for a run expected to record `samples` rows, up
    /// to [`MAX_RESERVED_ROWS`] (a no-op under
    /// [`RecordPolicy::MetricsOnly`]).
    pub fn reserve(&mut self, samples: usize) {
        if self.policy == RecordPolicy::Full {
            self.store = TraceStore::for_run(samples);
        }
    }

    /// Tears the recorder down into its stored trace and reductions.
    pub fn finish(self) -> (TraceStore, RunReductions) {
        (self.store, self.reductions)
    }
}

impl Recorder for PolicyRecorder {
    fn record(&mut self, s: &TraceSample) {
        self.reductions.record(s);
        if self.policy == RecordPolicy::Full {
            self.store.push(s);
        }
    }

    /// Only a stored trace reads the reference channels.
    fn reads_references(&self) -> bool {
        self.policy == RecordPolicy::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, dut: f64) -> TraceSample {
        TraceSample {
            t,
            true_cm_s: 100.0,
            dut_cm_s: dut,
            promag_cm_s: 100.0,
            turbine_cm_s: 100.0,
            supply_code: (dut * 10.0) as u32,
            bubble_coverage: 0.0,
            fouling_um: 0.0,
            fault: false,
            health: HealthState::Healthy,
        }
    }

    fn store_of(samples: &[TraceSample]) -> TraceStore {
        let mut store = TraceStore::new();
        for s in samples {
            store.record(s);
        }
        store
    }

    #[test]
    fn window_uses_partition_point_bounds() {
        let samples: Vec<TraceSample> = (0..100).map(|i| sample(i as f64 * 0.1, 100.0)).collect();
        let store = store_of(&samples);
        // [2.0, 4.0) → indices 20..40: t = 2.0..3.9.
        let w = store.window(2.0, 4.0);
        assert_eq!(w, 20..40);
        assert_eq!(store.ts_in(2.0, 4.0).len(), 20);
        // Same membership as the linear filter.
        let linear: Vec<f64> = samples
            .iter()
            .filter(|s| s.t >= 2.0 && s.t < 4.0)
            .map(|s| s.dut_cm_s)
            .collect();
        assert_eq!(store.dut_in(2.0, 4.0), &linear[..]);
        // Degenerate windows are empty, not panicking.
        assert!(store.window(5.0, 5.0).is_empty());
        assert!(store.window(4.0, 2.0).is_empty());
        assert!(store.window(50.0, 60.0).is_empty());
    }

    #[test]
    fn row_iteration_round_trips() {
        let samples: Vec<TraceSample> =
            (0..10).map(|i| sample(i as f64, 50.0 + i as f64)).collect();
        let store = store_of(&samples);
        assert_eq!(store.len(), 10);
        let back: Vec<TraceSample> = store.iter().collect();
        assert_eq!(back, samples);
        assert_eq!(store.last(), samples.last().copied());
        assert_eq!(store.get(3), Some(samples[3]));
        assert_eq!(store.get(10), None);
        // Double-ended iteration agrees.
        let rev: Vec<TraceSample> = store.iter().rev().collect();
        let mut expect = samples.clone();
        expect.reverse();
        assert_eq!(rev, expect);
    }

    #[test]
    fn streaming_reductions_match_post_hoc() {
        let samples: Vec<TraceSample> = (0..200)
            .map(|i| sample(i as f64 * 0.05, 90.0 + (i % 7) as f64))
            .collect();
        let plan = ReductionPlan {
            settle: (2.0, 8.0),
            windows: vec![(0.0, 1.0), (9.0, 10.0)],
            series: Some((4.0, 6.0)),
            err: Some((5.0, f64::INFINITY)),
        };
        let mut red = RunReductions::new(plan.clone());
        let mut store = TraceStore::new();
        for s in &samples {
            red.record(s);
            store.record(s);
        }
        // Settled and extra windows: bit-identical to post-hoc Welfords.
        assert_eq!(red.settled, store.window_stats(2.0, 8.0));
        assert_eq!(red.windows[0], store.window_stats(0.0, 1.0));
        assert_eq!(red.windows[1], store.window_stats(9.0, 10.0));
        // Series window retains exactly the windowed columns.
        assert_eq!(&red.series.ts[..], store.ts_in(4.0, 6.0));
        assert_eq!(&red.series.ys[..], store.dut_in(4.0, 6.0));
        // Error stats match a post-hoc pass in the same order.
        let w = store.window(5.0, f64::INFINITY);
        let pairs: Vec<(f64, f64)> = w
            .clone()
            .map(|i| (store.truth()[i], store.dut()[i]))
            .collect();
        let rms =
            crate::metrics::rms_error(&pairs.iter().map(|&(t, d)| (d, t)).collect::<Vec<_>>());
        assert_eq!(red.err_rms().to_bits(), rms.to_bits());
        assert_eq!(red.err_count(), pairs.len() as u64);
        assert_eq!(red.samples, samples.len() as u64);
    }

    #[test]
    fn policies_control_what_lands_in_the_store() {
        let samples: Vec<TraceSample> = (0..100).map(|i| sample(i as f64 * 0.1, 100.0)).collect();
        let plan = ReductionPlan {
            settle: (2.0, 4.0),
            ..ReductionPlan::default()
        };
        let run = |policy: RecordPolicy| {
            let mut rec = PolicyRecorder::new(policy, plan.clone());
            rec.reserve(samples.len());
            for s in &samples {
                rec.record(s);
            }
            rec.finish()
        };
        let (full, full_red) = run(RecordPolicy::Full);
        assert_eq!(full.len(), 100);
        let (none, none_red) = run(RecordPolicy::MetricsOnly);
        assert_eq!(none.len(), 0);
        assert_eq!(none.heap_bytes(), 0);
        // Reductions are policy-independent.
        assert_eq!(full_red, none_red);
    }

    #[test]
    fn health_census_counts_every_sample() {
        let mut red = RunReductions::default();
        let states = [
            HealthState::Healthy,
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Faulted,
            HealthState::Recovering,
            HealthState::Healthy,
        ];
        for (i, &h) in states.iter().enumerate() {
            let mut s = sample(i as f64, 100.0);
            s.health = h;
            red.record(&s);
        }
        let census = red.health_census;
        assert_eq!(census.total(), states.len() as u64);
        assert_eq!(census.count(HealthState::Healthy), 3);
        assert_eq!(census.count(HealthState::Degraded), 1);
        assert_eq!(census.count(HealthState::Faulted), 1);
        assert_eq!(census.count(HealthState::Recovering), 1);
        // Merging is plain addition.
        let mut merged = census;
        merged.merge(&census);
        assert_eq!(merged.total(), 2 * census.total());
        assert_eq!(merged.count(HealthState::Degraded), 2);
    }

    #[test]
    fn csv_sink_matches_store_export() {
        let samples: Vec<TraceSample> = (0..5).map(|i| sample(i as f64, 42.0)).collect();
        let mut sink = CsvSink::with_capacity(samples.len());
        let mut store = TraceStore::new();
        for s in &samples {
            sink.record(s);
            store.record(s);
        }
        let streamed = sink.into_string();
        assert_eq!(streamed.lines().count(), samples.len() + 1);
        assert!(streamed.starts_with("t_s,true_cm_s"));
        for row in streamed.lines().skip(1) {
            assert_eq!(row.split(',').count(), 10, "row `{row}`");
        }
        assert_eq!(store.len(), samples.len());
    }
}
