//! The traced runs: each workload's unit re-run with spans at every
//! layer boundary the library exposes, next to an untraced twin.
//!
//! A traced run alternates untraced and traced units until its seconds are
//! spent. Every pair must agree bit for bit (the *equivalence guard*: the
//! meter's state digest, the fleet aggregates digest, the ingest report
//! digest), or the run fails. The ledger reports
//! each layer's work per traced unit — counts exactly, times as measured —
//! plus the tracing overhead (traced over untraced wall) and the coverage
//! (layer self times over traced wall).
//!
//! The traced units call the same public functions the library's own entry
//! points compose (`build_meter`, `LineRunner::run_with`,
//! `ShardAggregates::push`, `FleetCheckpoint::encode`, `MeterSession::offer`
//! and so on), in the same order; where the library composes them in
//! private code (`RunSpec::execute`, `FleetSpec::run_checkpointed`,
//! `ingest::feed`), the traced unit repeats that composition, and the guard is
//! what proves the repetition faithful.

use crate::report::{json_number, json_string, quantile, Outcome, PER_LAYER};
use crate::timed::{MeterSpans, Span, TimedMeter, TimedRecorder};
use crate::workloads::{self, Fleet, Ingest, Params, Station, Workload, JOBS};
use hotwire_core::config::fnv1a64;
use hotwire_core::Meter;
use hotwire_rig::campaign::build_meter;
use hotwire_rig::fleet::{LineSummary, ShardAggregates};
use hotwire_rig::ingest::{absorb, LineIngest, MeterSession};
use hotwire_rig::{
    exec, AnyMeter, FleetCheckpoint, LineRunner, MaintenanceEngine, PolicyRecorder, RunSpec,
};
use std::time::Instant;

/// Per-layer numbers of one traced workload.
#[derive(Debug, Clone)]
pub struct Ledger {
    workload: &'static str,
    units: u64,
    entries: Vec<(String, f64, &'static str)>,
}

impl Ledger {
    fn new(w: Workload) -> Self {
        Ledger {
            workload: w.name(),
            units: 0,
            entries: Vec::new(),
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"traced_units\": {}, \"metrics\": {{{}}}}}",
            json_string(self.workload),
            self.units,
            metrics.join(", ")
        )
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ledger (per traced unit, {} traced units):\n",
            self.workload, self.units
        );
        for (name, value, unit) in &self.entries {
            out.push_str(&format!("  {name:<44} {value:>16.6} {unit}\n"));
        }
        out
    }
}

/// What the untraced/traced pair loop measured.
#[derive(Debug, Default)]
struct Pairs {
    overheads: Vec<f64>,
    traced_s: f64,
    attributed_s: f64,
    units: u64,
    attempted: u64,
    failed: u64,
}

/// Alternates an untraced unit (returning its digest) with a traced one
/// (returning its digest and attributed wall seconds) until the run's
/// seconds are spent; a pair whose digests differ fails the guard.
fn run_pairs(
    p: &Params,
    w: Workload,
    mut untraced: impl FnMut() -> Result<u64, String>,
    mut traced: impl FnMut() -> Result<(u64, f64), String>,
) -> Pairs {
    let mut pairs = Pairs::default();
    let start = Instant::now();
    while pairs.attempted == 0 || start.elapsed().as_secs_f64() < p.seconds {
        pairs.attempted += 1;
        let t = Instant::now();
        let plain = untraced();
        let plain_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced_unit = traced();
        let traced_s = t.elapsed().as_secs_f64();
        match (plain, traced_unit) {
            (Ok(a), Ok((b, attributed_s))) if a == b => {
                pairs.overheads.push((traced_s - plain_s) / plain_s);
                pairs.traced_s += traced_s;
                pairs.attributed_s += attributed_s;
                pairs.units += 1;
            }
            (Ok(a), Ok((b, _))) => {
                eprintln!(
                    "{}: equivalence guard failed: traced digest {b:016x}, untraced {a:016x}",
                    w.name()
                );
                pairs.failed += 1;
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{}: unit failed: {e}", w.name());
                pairs.failed += 1;
            }
        }
    }
    pairs
}

/// Each per-layer share and the ledger seconds it sums; a workload that
/// does not cross a layer has none of its entries and reports 0.
const SHARES: [(&str, &[&str]); 6] = [
    (
        "core.meter.share",
        &[
            "core.meter.step_frame_s",
            "core.meter.step_ticks_s",
            "core.meter.fault_hooks_s",
            "core.meter.calibration_s",
        ],
    ),
    (
        "rig.runner.share",
        &["rig.runner.self_s", "rig.runner.build_s"],
    ),
    (
        "rig.record.share",
        &["rig.record.record_s", "rig.record.finish_s"],
    ),
    (
        "rig.fleet.share",
        &[
            "rig.fleet.push_s",
            "rig.fleet.merge_s",
            "rig.fleet.finalize_s",
        ],
    ),
    (
        "rig.checkpoint.share",
        &[
            "rig.checkpoint.encode_s",
            "rig.checkpoint.write_s",
            "rig.checkpoint.decode_s",
        ],
    ),
    (
        "rig.ingest.share",
        &[
            "rig.ingest.offer_s",
            "rig.ingest.poll_s",
            "rig.ingest.finish_s",
            "rig.ingest.absorb_s",
        ],
    ),
];

/// The traced run of one workload: its ledger and its result line, whose
/// metrics are [`PER_LAYER`]. `replays` are the kernel replays
/// (`crate::kernels::measure`), which do not depend on the workload and
/// go into the ledger as given.
pub fn run_traced(
    w: Workload,
    p: &Params,
    replays: &[(&'static str, f64)],
) -> Result<(Outcome, Ledger), String> {
    let mut ledger = Ledger::new(w);
    let pairs = match w {
        Workload::StationExact => station(p, &mut ledger)?,
        Workload::FleetFast => fleet(p, &mut ledger)?,
        Workload::IngestReplay => ingest(p, &mut ledger)?,
    };
    ledger.units = pairs.units;
    let overhead = crate::report::median(&pairs.overheads);
    let coverage = pairs.attributed_s / pairs.traced_s;
    ledger.put("trace.overhead_frac", overhead, "ratio");
    ledger.put("trace.coverage", coverage, "ratio");
    let thread_s = w.jobs() as f64 * pairs.traced_s / pairs.units.max(1) as f64;
    for (share, parts) in SHARES {
        let seconds = parts
            .iter()
            .filter_map(|part| ledger.get(part))
            .fold(0.0, |a, b| a + b);
        ledger.put(share, seconds / thread_s, "ratio");
    }
    if ledger.get("rig.exec.idle_frac").is_none() {
        ledger.put("rig.exec.idle_frac", 0.0, "ratio");
    }
    for &(name, value) in replays {
        let unit = crate::report::spec(name).map_or("", |m| m.unit);
        ledger.put(name, value, unit);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = ledger
                .get(m.name)
                .ok_or_else(|| format!("the ledger lacks `{}`", m.name))?;
            Ok((m.name.to_string(), value, m.unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let outcome = Outcome {
        correct: pairs.failed == 0 && pairs.units > 0,
        attempted: pairs.attempted,
        failed: pairs.failed,
        metrics,
    };
    Ok((outcome, ledger))
}

/// Divides every accumulated total by the traced unit count.
fn per_unit(units: u64) -> impl Fn(f64) -> f64 {
    let n = units.max(1) as f64;
    move |x| x / n
}

fn put_meter(ledger: &mut Ledger, m: &MeterSpans, per: &impl Fn(f64) -> f64) {
    ledger.put("core.meter.step_frame_s", per(m.frames.seconds()), "s");
    ledger.put("core.meter.frames", per(m.frames.calls as f64), "count");
    ledger.put("core.meter.step_ticks", per(m.ticks.calls as f64), "count");
    ledger.put("core.meter.step_ticks_s", per(m.ticks.seconds()), "s");
    ledger.put(
        "core.meter.fault_hooks_s",
        per(m.fault_hooks.seconds()),
        "s",
    );
    ledger.put(
        "core.meter.fault_hook_calls",
        per(m.fault_hooks.calls as f64),
        "count",
    );
    ledger.put(
        "core.meter.calibration_s",
        per(m.calibration.seconds()),
        "s",
    );
    ledger.put(
        "core.meter.calibration_calls",
        per(m.calibration.calls as f64),
        "count",
    );
}

/// One traced line run: the `RunSpec::execute` composition with the meter
/// and the recorder wrapped.
struct TracedLine {
    meter: TimedMeter<AnyMeter>,
    tail: hotwire_rig::RunTail,
    reductions: hotwire_rig::RunReductions,
    trace_heap_bytes: usize,
    cost: LineCost,
}

/// Where one line's thread time went.
#[derive(Debug, Default, Clone, Copy)]
struct LineCost {
    build_s: f64,
    run_s: f64,
    finish_s: f64,
    meter: MeterSpans,
    record: Span,
}

impl LineCost {
    fn runner_self_s(&self) -> f64 {
        self.run_s - self.meter.seconds() - self.record.seconds()
    }

    fn attributed_s(&self) -> f64 {
        self.build_s + self.run_s + self.finish_s
    }

    fn merge(&mut self, other: &LineCost) {
        self.build_s += other.build_s;
        self.run_s += other.run_s;
        self.finish_s += other.finish_s;
        self.meter.merge(&other.meter);
        self.record.merge(&other.record);
    }

    fn put(&self, ledger: &mut Ledger, per: &impl Fn(f64) -> f64) {
        put_meter(ledger, &self.meter, per);
        ledger.put("rig.runner.self_s", per(self.runner_self_s()), "s");
        ledger.put("rig.runner.build_s", per(self.build_s), "s");
        ledger.put("rig.record.record_s", per(self.record.seconds()), "s");
        ledger.put("rig.record.samples", per(self.record.calls as f64), "count");
        ledger.put("rig.record.finish_s", per(self.finish_s), "s");
    }
}

fn traced_line(spec: &RunSpec) -> Result<TracedLine, String> {
    let t = Instant::now();
    let meter = build_meter(spec.config, spec.params, spec.meter_seed, &spec.calibration)
        .map_err(|e| e.to_string())?;
    if spec.auto_zero_s.is_some() || spec.obs.enabled {
        return Err("traced lines run without auto-zero and observers".into());
    }
    let mut runner = LineRunner::new(
        spec.scenario.clone(),
        TimedMeter::new(AnyMeter::Cta(meter)),
        spec.line_seed,
    );
    if spec.maintenance.is_active() {
        let control_dt = runner.meter().control_period();
        runner.install_maintenance(MaintenanceEngine::new(spec.maintenance, control_dt));
    }
    if let Some(schedule) = &spec.faults {
        runner.install_faults(schedule.clone());
    }
    let mut recorder = TimedRecorder::new(PolicyRecorder::new(spec.record, spec.reduction_plan()));
    recorder.inner.reserve(spec.expected_samples());
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tail = runner.run_with(spec.sample_period_s, &mut recorder);
    let run_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let record = recorder.record;
    let (samples, reductions) = recorder.inner.finish();
    let meter = runner.into_meter();
    let finish_s = t.elapsed().as_secs_f64();
    Ok(TracedLine {
        cost: LineCost {
            build_s,
            run_s,
            finish_s,
            meter: meter.spans(),
            record,
        },
        meter,
        tail,
        reductions,
        trace_heap_bytes: samples.heap_bytes(),
    })
}

// ---------------------------------------------------------------- station

fn station(p: &Params, ledger: &mut Ledger) -> Result<Pairs, String> {
    let st = Station::setup(p)?;
    let mut cost = LineCost::default();
    let pairs = run_pairs(
        p,
        Workload::StationExact,
        || st.run_unit().map(|(u, _)| u.digest),
        || {
            let t = Instant::now();
            let line = traced_line(&st.spec)?;
            let red = &line.reductions;
            let meter = line.meter.inner.as_cta().ok_or("not a CTA meter")?;
            st.check
                .check(meter.control_ticks(), red.settled.mean(), red.err_rms())?;
            let digest = meter.state_digest() ^ fnv1a64(format!("{red:?}").as_bytes());
            let wall = t.elapsed().as_secs_f64();
            cost.merge(&line.cost);
            Ok((digest, line.cost.attributed_s().min(wall)))
        },
    );
    let per = per_unit(pairs.units);
    cost.put(ledger, &per);
    ledger.put("rig.campaign.calibration_s", st.calibration_s, "s");
    ledger.put(
        "rig.campaign.calibration_runs",
        st.calibration_runs as f64,
        "count",
    );
    Ok(pairs)
}

// ------------------------------------------------------------------ fleet

/// Thread-time and serial costs of a traced fleet unit.
#[derive(Debug, Default)]
struct FleetCost {
    lines: LineCost,
    items_ms: Vec<f64>,
    busy_s: f64,
    wall_s: f64,
    push: Span,
    merge: Span,
    finalize: Span,
    encode: Span,
    write: Span,
    decode: Span,
    checkpoint_bytes: u64,
    shard_heap_bytes: f64,
}

fn fleet(p: &Params, ledger: &mut Ledger) -> Result<Pairs, String> {
    let fl = Fleet::setup(p)?;
    let path = workloads::scratch_file("fleet-traced-checkpoint")?;
    let mut cost = FleetCost::default();
    let pairs = run_pairs(
        p,
        Workload::FleetFast,
        || fl.run_unit().map(|(u, _)| u.digest),
        || traced_fleet(&fl.spec, fl.checkpoint_every, &path, &mut cost),
    );
    let _ = std::fs::remove_file(&path);
    let per = per_unit(pairs.units);
    cost.lines.put(ledger, &per);
    for (name, span) in [
        ("rig.fleet.push_s", cost.push),
        ("rig.fleet.merge_s", cost.merge),
        ("rig.fleet.finalize_s", cost.finalize),
        ("rig.checkpoint.encode_s", cost.encode),
        ("rig.checkpoint.write_s", cost.write),
        ("rig.checkpoint.decode_s", cost.decode),
    ] {
        ledger.put(name, per(span.seconds()), "s");
    }
    ledger.put("rig.fleet.shard_heap_bytes", cost.shard_heap_bytes, "bytes");
    ledger.put(
        "rig.checkpoint.bytes",
        per(cost.checkpoint_bytes as f64),
        "bytes",
    );
    ledger.put(
        "rig.checkpoint.writes",
        per(cost.write.calls as f64),
        "count",
    );
    put_exec(ledger, &cost.items_ms, cost.busy_s, cost.wall_s, &per);
    Ok(pairs)
}

fn put_exec(
    ledger: &mut Ledger,
    items_ms: &[f64],
    busy_s: f64,
    wall_s: f64,
    per: &impl Fn(f64) -> f64,
) {
    ledger.put("rig.exec.busy_s", per(busy_s), "s");
    ledger.put(
        "rig.exec.idle_frac",
        1.0 - busy_s / (JOBS as f64 * wall_s),
        "ratio",
    );
    ledger.put("rig.exec.line_p50_ms", quantile(items_ms, 0.50), "ms");
    ledger.put("rig.exec.line_p99_ms", quantile(items_ms, 0.99), "ms");
    ledger.put("rig.exec.lines", per(items_ms.len() as f64), "count");
}

/// `FleetSpec::run_checkpointed` on a fresh file, traced. Each batch folds
/// into its own shard which then merges into the running accumulator —
/// bit-identical to pushing into it directly (shard merge is associative),
/// and it times both halves of the aggregation API.
fn traced_fleet(
    spec: &hotwire_rig::FleetSpec,
    every: usize,
    path: &std::path::Path,
    cost: &mut FleetCost,
) -> Result<(u64, f64), String> {
    let start = Instant::now();
    spec.validate().map_err(|e| e.to_string())?;
    let fingerprint = spec.fingerprint();
    let full_scale = spec.config.full_scale.to_cm_per_s();
    let mut acc = ShardAggregates::empty(0);
    let mut last_written = 0;
    let mut attributed_s = 0.0;
    let mut text = String::new();
    let mut write = |acc: &ShardAggregates, cost: &mut FleetCost| -> Result<f64, String> {
        let t = Instant::now();
        text = FleetCheckpoint::new(fingerprint, spec.lines, acc.clone()).encode();
        let encode_s = t.elapsed().as_secs_f64();
        cost.encode.add(encode_s);
        let t = Instant::now();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &text)
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let write_s = t.elapsed().as_secs_f64();
        cost.write.add(write_s);
        cost.checkpoint_bytes += text.len() as u64;
        Ok(encode_s + write_s)
    };
    while acc.end < spec.lines {
        let indices: Vec<usize> =
            (acc.end..acc.end + spec.batch_size.min(spec.lines - acc.end)).collect();
        let t = Instant::now();
        let batch = exec::parallel_map_indexed(&indices, JOBS, |_, &line| {
            let t = Instant::now();
            let run_spec = spec.line_spec(line);
            let fault_kinds: Vec<&'static str> = run_spec
                .faults
                .as_ref()
                .map(|s| s.events.iter().map(|e| e.kind.name()).collect())
                .unwrap_or_default();
            let traced = traced_line(&run_spec)?;
            let red = &traced.reductions;
            let summary = LineSummary {
                line,
                samples: red.samples,
                settled_mean: red.settled.mean(),
                settled_std: red.settled.std_dev(),
                err_rms: red.err_rms(),
                err_max_abs: red.err_max_abs,
                fault_samples: red.fault_samples,
                maintenance: traced.tail.maintenance,
                health: red.health_census,
                fault_kinds,
                trace_heap_bytes: traced.trace_heap_bytes,
                meter_digest: traced.meter.state_digest(),
            };
            Ok::<_, String>((summary, traced.cost, t.elapsed().as_secs_f64()))
        });
        let par_s = t.elapsed().as_secs_f64();
        let mut part = ShardAggregates::empty(acc.end);
        let mut glue_s = 0.0;
        let t = Instant::now();
        for result in batch {
            let (summary, line_cost, item_s) = result?;
            glue_s += item_s - line_cost.attributed_s();
            cost.lines.merge(&line_cost);
            cost.items_ms.push(item_s * 1e3);
            cost.busy_s += item_s;
            part.push(summary, full_scale, spec.retains_summaries());
        }
        let push_s = t.elapsed().as_secs_f64();
        cost.push.add(push_s);
        let t = Instant::now();
        acc.merge(&part).map_err(|e| e.to_string())?;
        let merge_s = t.elapsed().as_secs_f64();
        cost.merge.add(merge_s);
        attributed_s += par_s - glue_s / JOBS as f64 + push_s + merge_s;
        cost.busy_s += push_s + merge_s;
        if acc.lines() - last_written >= every.max(1) {
            let s = write(&acc, cost)?;
            attributed_s += s;
            cost.busy_s += s;
            last_written = acc.lines();
        }
    }
    if last_written != acc.lines() {
        let s = write(&acc, cost)?;
        attributed_s += s;
        cost.busy_s += s;
    }
    let t = Instant::now();
    let aggregates = acc.finalize(full_scale, spec.scenario.duration_s * spec.lines as f64);
    let finalize_s = t.elapsed().as_secs_f64();
    cost.finalize.add(finalize_s);
    attributed_s += finalize_s;
    cost.busy_s += finalize_s;
    cost.shard_heap_bytes = acc.heap_bytes() as f64;
    let wall_s = start.elapsed().as_secs_f64();
    cost.wall_s += wall_s;

    // The correctness checks of the untraced unit, on the traced output.
    let t = Instant::now();
    let decoded = FleetCheckpoint::decode(&text)
        .and_then(|ck| ck.into_verified_shard(fingerprint, spec.lines))
        .map_err(|e| e.to_string())?;
    cost.decode.add(t.elapsed().as_secs_f64());
    if decoded != acc {
        return Err("checkpoint decode differs from the in-memory shard".into());
    }
    if aggregates.lines != spec.lines
        || aggregates.trace_heap_bytes != 0
        || !acc.summaries.is_empty()
    {
        return Err("traced fleet broke the sketch-path guarantees".into());
    }
    Ok((
        fnv1a64(format!("{aggregates:?}").as_bytes()),
        attributed_s.min(wall_s),
    ))
}

// ----------------------------------------------------------------- ingest

#[derive(Debug, Default)]
struct IngestCost {
    offer: Span,
    poll: Span,
    finish: Span,
    absorb: Span,
    items_ms: Vec<f64>,
    busy_s: f64,
    wall_s: f64,
    bytes: u64,
    good_frames: u64,
    crc_errors: u64,
    resyncs: u64,
    recovered_frames: u64,
    frames_sent: u64,
}

fn ingest(p: &Params, ledger: &mut Ledger) -> Result<Pairs, String> {
    let ing = Ingest::setup(p)?;
    let mut cost = IngestCost::default();
    let pairs = run_pairs(
        p,
        Workload::IngestReplay,
        || ing.run_unit().map(|u| u.digest),
        || traced_replay(&ing, &mut cost),
    );
    let per = per_unit(pairs.units);
    for (name, span) in [
        ("rig.ingest.offer_s", cost.offer),
        ("rig.ingest.poll_s", cost.poll),
        ("rig.ingest.finish_s", cost.finish),
        ("rig.ingest.absorb_s", cost.absorb),
    ] {
        ledger.put(name, per(span.seconds()), "s");
    }
    ledger.put("rig.ingest.bytes", per(cost.bytes as f64), "bytes");
    for (name, count) in [
        ("rig.ingest.good_frames", cost.good_frames),
        ("rig.ingest.crc_errors", cost.crc_errors),
        ("rig.ingest.resyncs", cost.resyncs),
        ("rig.ingest.recovered_frames", cost.recovered_frames),
    ] {
        ledger.put(name, per(count as f64), "count");
    }
    ledger.put(
        "rig.ingest.good_frame_ratio",
        cost.good_frames as f64 / cost.frames_sent as f64,
        "ratio",
    );
    put_exec(ledger, &cost.items_ms, cost.busy_s, cost.wall_s, &per);
    Ok(pairs)
}

/// One replay round with `ingest::feed`'s offer/poll loop spelled out.
fn traced_replay(ing: &Ingest, cost: &mut IngestCost) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let config = ing.config;
    let lines: Vec<usize> = (0..ing.virtual_lines).collect();
    let t = Instant::now();
    let ingested = exec::parallel_map_indexed(&lines, JOBS, |_, &line| {
        let t = Instant::now();
        let source = &ing.corpus[line % ing.corpus.len()];
        let (mut offer, mut poll, mut finish) = (Span::default(), Span::default(), Span::default());
        let mut session = MeterSession::new(line, config);
        for chunk in source.wire.chunks(config.chunk_bytes.max(1)) {
            let mut rest = chunk;
            loop {
                let consumed = offer.time(|| session.offer(rest));
                poll.time(|| session.poll());
                rest = &rest[consumed..];
                if rest.is_empty() {
                    break;
                }
            }
        }
        finish.time(|| session.finish());
        let ingest = LineIngest {
            line,
            stats: session.stats(),
            census: *session.census(),
            truth: source.truth,
            frames_sent: source.frames_sent,
            last_health: session.last_health(),
            alerts: session.alerts().to_vec(),
        };
        (ingest, [offer, poll, finish], t.elapsed().as_secs_f64())
    });
    let par_s = t.elapsed().as_secs_f64();
    let mut glue_s = 0.0;
    for (_, [offer, poll, finish], item_s) in &ingested {
        cost.offer.merge(offer);
        cost.poll.merge(poll);
        cost.finish.merge(finish);
        cost.items_ms.push(item_s * 1e3);
        cost.busy_s += item_s;
        glue_s += item_s - offer.seconds() - poll.seconds() - finish.seconds();
    }
    let t = Instant::now();
    let mut report = workloads::empty_report(ing.virtual_lines);
    for (line, _, _) in &ingested {
        absorb(&mut report, line, config.alert_capacity);
    }
    let absorb_s = t.elapsed().as_secs_f64();
    cost.absorb.add(absorb_s);
    cost.busy_s += absorb_s;
    let wall_s = start.elapsed().as_secs_f64();
    cost.wall_s += wall_s;

    let replay = workloads::Replay {
        bytes: ing.replayed(|c| c.wire.len() as u64),
        report,
    };
    ing.check(&replay)?;
    let link = &replay.report.stats.link;
    cost.bytes += replay.bytes;
    cost.good_frames += link.good_frames;
    cost.crc_errors += link.crc_errors;
    cost.resyncs += link.resyncs;
    cost.recovered_frames += link.recovered_frames;
    cost.frames_sent += replay.report.frames_sent;
    let attributed_s = par_s - glue_s / JOBS as f64 + absorb_s;
    Ok((replay.digest(), attributed_s.min(wall_s)))
}
