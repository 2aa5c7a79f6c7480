//! Record-path equivalence: streaming reductions vs post-hoc full traces.
//!
//! The recorder contract (`rig::record`) promises that everything in
//! [`RunReductions`] is **bit-identical** to the same reduction computed
//! post hoc over a [`RecordPolicy::Full`] trace of the same spec — at any
//! `--jobs` count, fault schedules included. These tests pin that contract
//! for every metric the experiments consume: settled Welford statistics,
//! extra per-window Welfords, the bounded rise-time series, error RMS and
//! worst-|err|, the supply-code and bubble peaks and the fault count.

use hotwire::core::config::FlowMeterConfig;
use hotwire::rig::campaign::derive_seed;
use hotwire::rig::fault::{FaultKind, FaultSchedule};
use hotwire::rig::metrics;
use hotwire::rig::scenario::{Scenario, Schedule};
use hotwire::rig::{
    Campaign, Channel, CsvSink, LineConfig, PolicyRecorder, RecordPolicy, Recorder, RunOutcome,
    RunReductions, RunSpec, TraceSample, TraceStore, Windows,
};

/// Bit-level f64 equality (same-NaN counts as equal, unlike `==`).
#[track_caller]
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

/// A spec exercising every reduction at once: a 60→150 cm/s step with a
/// settled window, two extra windows, a series window across the step and
/// an error window.
fn step_spec(policy: RecordPolicy) -> RunSpec {
    let scenario = Scenario {
        flow_cm_s: Schedule::new().then_hold(60.0, 6.0).then_hold(150.0, 6.0),
        ..Scenario::steady(0.0, 12.0)
    };
    RunSpec::new(
        format!("step-{policy:?}"),
        FlowMeterConfig::test_profile(),
        scenario,
        0x0EC0,
    )
    .with_sample_period(0.02)
    .with_windows(
        Windows::settled(2.0, 3.0)
            .with_extra(1.0, 2.0)
            .with_extra(7.0, 9.0)
            .with_series(5.5, 12.0)
            .with_err(2.0, 6.0),
    )
    .with_record(policy)
}

/// An f1-style faulted spec: steady flow, a stuck ADC mid-run, plus the
/// full reduction plan.
fn faulted_spec(policy: RecordPolicy) -> RunSpec {
    RunSpec::new(
        format!("faulted-{policy:?}"),
        FlowMeterConfig::test_profile(),
        Scenario::steady(100.0, 10.0),
        derive_seed(0x0EC1, 0),
    )
    .with_sample_period(0.01)
    .with_windows(
        Windows::settled(1.0, 2.0)
            .with_extra(0.5, 1.0)
            .with_series(3.5, 8.0)
            .with_err(4.0, 7.0),
    )
    .with_config(LineConfig::new().with_faults(
        FaultSchedule::new(derive_seed(0x0EC1, 1)).with_event(
            4.0,
            2.0,
            FaultKind::AdcStuck { code: 1200 },
        ),
    ))
    .with_record(policy)
}

/// Asserts every streaming reduction in `metrics_only` equals the same
/// reduction computed post hoc over `full`'s stored trace.
fn assert_reductions_match_post_hoc(full: &RunOutcome, metrics_only: &RunOutcome, spec: &RunSpec) {
    let store: &TraceStore = &full.trace.samples;
    let red = &metrics_only.reduced;

    // The MetricsOnly store must actually be empty — that's the point.
    assert!(metrics_only.trace.samples.is_empty());
    assert_eq!(red.samples, store.len() as u64, "sample count");

    // Settled window: streaming Welford == post-hoc Welford over the
    // stored DUT column (same fold order ⇒ same bits).
    let (s0, s1) = spec.windows.settled_window();
    assert_eq!(red.settled, store.window_stats(s0, s1), "settled window");
    assert_bits(
        red.settled.std_dev(),
        store.window_stats(s0, s1).std_dev(),
        "settled σ",
    );

    // Extra windows (e03 repeatability visits, e12 mode windows).
    assert_eq!(red.windows.len(), spec.windows.extra.len());
    for (w, &(t0, t1)) in red.windows.iter().zip(&spec.windows.extra) {
        assert_eq!(*w, store.window_stats(t0, t1), "extra window [{t0},{t1})");
    }

    // Series window (e10 / a01 rise-time input): the retained series is
    // exactly the stored columns sliced to the window, and the rise-time
    // computed from it is bit-identical.
    let (w0, w1) = spec.windows.series.expect("spec declares a series window");
    assert_eq!(red.series.ts, store.ts_in(w0, w1), "series times");
    assert_eq!(red.series.ys, store.dut_in(w0, w1), "series values");
    let streaming_rise = metrics::rise_time_split(&red.series.ts, &red.series.ys, 60.0, 150.0);
    let post_hoc_rise =
        metrics::rise_time_split(store.ts_in(w0, w1), store.dut_in(w0, w1), 60.0, 150.0);
    match (streaming_rise, post_hoc_rise) {
        (Some(a), Some(b)) => assert_bits(a, b, "rise time"),
        (a, b) => assert_eq!(a, b, "rise time presence"),
    }

    // Error window (e05): worst |dut − truth| and RMS, same fold order.
    let (e0, e1) = spec.windows.err.expect("spec declares an error window");
    let err_range = store.window(e0, e1);
    let pairs: Vec<(f64, f64)> = err_range
        .clone()
        .map(|i| (store.truth()[i], store.dut()[i]))
        .collect();
    assert_eq!(red.err_count(), pairs.len() as u64, "error-window count");
    assert_bits(red.err_rms(), metrics::rms_error(&pairs), "error RMS");
    let worst = err_range
        .map(|i| (store.dut()[i] - store.truth()[i]).abs())
        .fold(0.0, f64::max);
    assert_bits(red.err_max_abs, worst, "worst |err|");

    // Whole-run scalars (a01 rail check, e05 bubble peak, f1 fault
    // accounting).
    assert_eq!(
        red.supply_code_max,
        store.supply_codes().iter().copied().max().unwrap_or(0),
        "supply-code max"
    );
    assert_bits(
        red.bubble_peak,
        store.bubble().iter().copied().fold(0.0, f64::max),
        "bubble peak",
    );
    assert_eq!(
        red.fault_samples,
        store.faults().iter().filter(|&&f| f).count() as u64,
        "fault samples"
    );
}

#[test]
fn metrics_only_matches_full_trace_post_hoc() {
    let specs = [
        step_spec(RecordPolicy::Full),
        step_spec(RecordPolicy::MetricsOnly),
    ];
    let outcomes = Campaign::with_jobs(2).run(&specs).expect("campaign runs");
    assert_reductions_match_post_hoc(&outcomes[0], &outcomes[1], &specs[0]);
}

#[test]
fn faulted_run_reductions_match_full_trace() {
    let specs = [
        faulted_spec(RecordPolicy::Full),
        faulted_spec(RecordPolicy::MetricsOnly),
    ];
    let outcomes = Campaign::with_jobs(2).run(&specs).expect("campaign runs");
    // The fault must actually bite, or this test proves nothing.
    assert!(outcomes[0].reduced.fault_samples > 0, "fault never fired");
    assert_reductions_match_post_hoc(&outcomes[0], &outcomes[1], &specs[0]);
}

#[test]
fn reductions_are_policy_and_jobs_invariant() {
    // Same spec, every policy, serial and parallel: four runs, one set of
    // reductions. `RunReductions` derives `PartialEq`, so this compares
    // every accumulator field (Welford state included) exactly.
    let policies = [RecordPolicy::Full, RecordPolicy::MetricsOnly];
    let specs: Vec<RunSpec> = policies.iter().map(|&p| step_spec(p)).collect();
    let serial = Campaign::with_jobs(1).run(&specs).expect("serial runs");
    let parallel = Campaign::with_jobs(3).run(&specs).expect("parallel runs");
    let reference = &serial[0].reduced;
    for outcome in serial.iter().chain(&parallel) {
        assert_eq!(
            &outcome.reduced, reference,
            "{}: reductions drifted across policy/jobs",
            outcome.label
        );
    }
}

/// A full trace that answers it does not read the references.
struct BlindStore(TraceStore);

impl Recorder for BlindStore {
    fn record(&mut self, sample: &TraceSample) {
        self.0.record(sample);
    }

    fn reads_references(&self) -> bool {
        false
    }
}

/// The reference meters run only for a recorder that reads them: the
/// recorders answer by what they keep, a MetricsOnly run reduces exactly
/// as a Full run of the same spec, the Full run's reference columns are
/// readings, and a run into a sink that does not read them records every
/// other column with the same bits and the references as `NaN`.
#[test]
fn references_run_only_for_recorders_that_read_them() {
    let plan = step_spec(RecordPolicy::Full).reduction_plan();
    let mut metrics_only = PolicyRecorder::new(RecordPolicy::MetricsOnly, plan.clone());
    assert!(!metrics_only.reads_references());
    let forwarded = &mut metrics_only;
    assert!(!Recorder::reads_references(&forwarded), "`&mut R` forwards");
    assert!(PolicyRecorder::new(RecordPolicy::Full, plan.clone()).reads_references());
    assert!(!RunReductions::new(plan).reads_references());
    assert!(TraceStore::new().reads_references());
    assert!(CsvSink::new().reads_references());

    let specs = [
        step_spec(RecordPolicy::Full),
        step_spec(RecordPolicy::MetricsOnly),
    ];
    let outcomes = Campaign::with_jobs(2).run(&specs).expect("campaign runs");
    assert_eq!(outcomes[0].reduced, outcomes[1].reduced, "reductions");
    let full = &outcomes[0].trace.samples;
    assert!(!full.is_empty());
    for channel in [Channel::Promag, Channel::Turbine] {
        assert!(
            full.channel(channel).iter().all(|v| v.is_finite()),
            "{channel:?} column of the Full run"
        );
    }

    let mut blind = BlindStore(TraceStore::new());
    specs[0].execute_with(&mut blind).expect("run");
    let blind = blind.0;
    assert_eq!(blind.len(), full.len());
    for channel in [Channel::Promag, Channel::Turbine] {
        assert!(
            blind.channel(channel).iter().all(|v| v.is_nan()),
            "{channel:?}"
        );
    }
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for channel in [Channel::Truth, Channel::Dut] {
        assert_eq!(
            bits(blind.channel(channel)),
            bits(full.channel(channel)),
            "{channel:?}"
        );
    }
    assert_eq!(bits(blind.ts()), bits(full.ts()), "times");
    assert_eq!(blind.supply_codes(), full.supply_codes());
    assert_eq!(bits(blind.bubble()), bits(full.bubble()), "bubble coverage");
    assert_eq!(blind.faults(), full.faults());
    assert_eq!(blind.health(), full.health());
}

/// Endurance: half an hour of simulated deployment under
/// [`RecordPolicy::MetricsOnly`] (1 kHz modulator decimated by 2, the test
/// profile's 500 Hz control rate at 1/32 the modulator cost) streams every
/// sample through the reductions and keeps a trace store of zero bytes —
/// the paper's months-long water-station logging, in miniature.
#[test]
fn metrics_only_endurance_run_holds_no_trace_bytes() {
    let config = FlowMeterConfig {
        modulator_rate: hotwire::units::Hertz::new(1000.0),
        decimation: 2,
        ..FlowMeterConfig::test_profile()
    };
    let outcome = RunSpec::new("endurance", config, Scenario::steady(100.0, 1800.0), 0xBE7C)
        .with_sample_period(0.01)
        .with_windows(Windows::settled(30.0, 0.0).with_err(30.0, f64::INFINITY))
        .with_record(RecordPolicy::MetricsOnly)
        .execute()
        .unwrap();
    // 900,001 frames of 2 ms start in [0, 1800 s]; a sample every fifth
    // records ticks 1, 6, …, 900,001.
    assert_eq!(outcome.reduced.samples, 180_001);
    assert_eq!(outcome.trace.samples.heap_bytes(), 0);
    assert!(outcome.trace.samples.is_empty());
}
