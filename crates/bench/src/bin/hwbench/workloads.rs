//! The three workloads and their untraced, end-to-end measurement.
//!
//! Every workload is a closed loop on one process: a fixed-size *unit* of
//! work is issued, checked and timed, and the next unit starts only when
//! the previous one finished, until the run's `--seconds` budget is spent.
//! Units of one run are identical (same spec, same seed), so each unit's
//! determinism digest must match the first's — a free cross-check on top
//! of the per-unit correctness checks.

use crate::report::{median, quantile, Outcome, END_TO_END};
use hotwire_bench::experiments::{f2_fleet, f3_ingest, f4_maintenance};
use hotwire_core::config::{fnv1a64, AfeTier};
use hotwire_core::{FlowMeter, FlowMeterConfig};
use hotwire_physics::MafParams;
use hotwire_rig::campaign::{collect_calibration_points, derive_seed};
use hotwire_rig::fleet::FleetSpec;
use hotwire_rig::ingest::{absorb, feed, IngestReport, LineIngest, MeterSession};
use hotwire_rig::record::{HealthCensus, PolicyRecorder, RecordPolicy};
use hotwire_rig::{
    exec, Calibration, Fidelity, FieldCalibration, FleetCheckpoint, IngestConfig, IngestStats,
    LineConfig, RunSpec, Scenario, Windows,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads for the parallel workloads, pinned so results compare
/// across machines with different core counts (the reference box has 2).
pub const JOBS: usize = 2;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 5;

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StationExact,
    FleetFast,
    IngestReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StationExact,
        Workload::FleetFast,
        Workload::IngestReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StationExact => "station_exact",
            Workload::FleetFast => "fleet_fast",
            Workload::IngestReplay => "ingest_replay",
        }
    }

    /// Worker threads the workload's timed region uses.
    pub fn jobs(self) -> usize {
        match self {
            Workload::FleetFast | Workload::IngestReplay => JOBS,
            Workload::StationExact => 1,
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::StationExact => {
                "one exact-tier water-station meter: die physics, RNG and AFE/CIC dominate"
            }
            Workload::FleetFast => {
                "fast-tier fleet: runner glue, recording, fold, checkpoint and batch tails carry weight"
            }
            Workload::IngestReplay => {
                "wire-byte decode only, corrupted lines included: no simulation in the timed region"
            }
        }
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// About 1/20 of the full unit sizes, for CI and tests.
    pub smoke: bool,
}

/// What one unit of work carried, for the rates and the digest cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Simulated control frames carried (for ingest: behind the telemetry
    /// decoded).
    pub frames: u64,
    /// Lines simulated or replayed.
    pub lines: u64,
    /// UART frames pushed through the decoder (ingest only).
    pub wire_frames: u64,
    /// Determinism witness of the unit's output.
    pub digest: u64,
}

/// A set-up workload, ready to issue units.
pub trait Bench {
    /// Runs one unit and checks its output; `Err` is a failed operation.
    fn unit(&mut self) -> Result<Unit, String>;
    /// The simulated accuracy the workload's meters delivered, % FS.
    fn dut_err_rms_pct_fs(&self) -> f64;
}

/// Builds a workload's state (everything `setup_s` covers).
pub fn setup(w: Workload, p: &Params) -> Result<Box<dyn Bench>, String> {
    Ok(match w {
        Workload::StationExact => Box::new(Station::setup(p)?),
        Workload::FleetFast => Box::new(Fleet::setup(p)?),
        Workload::IngestReplay => Box::new(Ingest::setup(p)?),
    })
}

/// Runs `SETUPS` set-ups and returns the last state with every set-up time.
pub fn timed_setups(w: Workload, p: &Params) -> Result<(Box<dyn Bench>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so set-ups do not stack memory.
        drop(state.take());
        let start = Instant::now();
        let bench = setup(w, p)?;
        times.push(start.elapsed().as_secs_f64());
        state = Some(bench);
    }
    Ok((state.expect("SETUPS > 0"), times))
}

/// The untraced run: set up, then issue checked units for `p.seconds`.
/// Rates divide one unit's work by the median unit wall, so a stall that
/// hits a single unit does not move them.
pub fn run_untraced(w: Workload, p: &Params) -> Result<Outcome, String> {
    let (mut bench, setup_times) = timed_setups(w, p)?;
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let mut first: Option<Unit> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        let t = Instant::now();
        let result = bench.unit();
        walls.push(t.elapsed().as_secs_f64());
        match result {
            Ok(u) if first.get_or_insert(u).digest == u.digest => {}
            Ok(u) => {
                eprintln!(
                    "{}: unit digest {:016x} differs from the first unit's",
                    w.name(),
                    u.digest
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("{}: unit failed: {e}", w.name());
                failed += 1;
            }
        }
    }
    let unit = first.ok_or("no unit succeeded")?;
    let wall = median(&walls);
    let values = [
        median(&setup_times),
        wall,
        unit.frames as f64 / wall,
        peak_rss_mib()?,
        bench.dut_err_rms_pct_fs(),
    ];
    // The workload-specific rates the common metric set leaves out, for
    // the human reading the log.
    eprintln!(
        "{}: {} units (unit wall min {:.4} / median {wall:.4} / max {:.4} s); \
         lines_per_s {:.1}, wire_frames_per_s {:.0}, failed_frac {}",
        w.name(),
        walls.len(),
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
        unit.lines as f64 / wall,
        unit.wire_frames as f64 / wall,
        failed as f64 / walls.len() as f64,
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: walls.len() as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
            .collect(),
    })
}

/// Peak resident set of this process, MiB (`VmHWM` from procfs).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

// ---------------------------------------------------------------- station

/// Scenario seconds of one station unit: a compressed diurnal day.
const STATION_DAY_S: f64 = 40.0;
/// Settling allowed after the midday plateau begins before its mean is
/// judged (three time constants of the 0.1 Hz output filter).
const STATION_PLATEAU_SETTLE_S: f64 = 5.0;
/// The documented bound on |plateau mean − truth|, cm/s (4 % of the
/// 250 cm/s full scale). Smoke days are too short to settle and are only
/// checked for finiteness.
pub const STATION_PLATEAU_BOUND_CM_S: f64 = 10.0;
const DEMAND_MIN_CM_S: f64 = 20.0;
const DEMAND_PEAK_CM_S: f64 = 200.0;

/// `station_exact`: one field-calibrated water-station meter on the exact
/// AFE tier riding a compressed diurnal demand day.
pub struct Station {
    pub spec: RunSpec,
    pub check: PlateauCheck,
    /// Set-up time spent collecting the field-calibration points.
    pub calibration_s: f64,
    /// Calibration setpoint runs behind those points.
    pub calibration_runs: usize,
    err_pct_fs: f64,
}

/// The checks one station unit must pass.
#[derive(Debug, Clone, Copy)]
pub struct PlateauCheck {
    pub expected_frames: u64,
    smoke: bool,
}

impl Station {
    pub fn day_s(smoke: bool) -> f64 {
        if smoke {
            STATION_DAY_S / 20.0
        } else {
            STATION_DAY_S
        }
    }

    /// The paper's 5-point field calibration of the station meter.
    pub fn recipe(p: &Params) -> FieldCalibration {
        let (settle_s, average_s) = if p.smoke { (0.1, 0.05) } else { (1.5, 0.5) };
        FieldCalibration::paper(settle_s, average_s, derive_seed(p.seed, 2))
    }

    /// The calibrated spec, without running it.
    pub fn spec(p: &Params, calibration: Calibration) -> RunSpec {
        let day_s = Station::day_s(p.smoke);
        let plateau = (0.40 * day_s, 0.60 * day_s);
        let settle = if p.smoke {
            plateau.0
        } else {
            plateau.0 + STATION_PLATEAU_SETTLE_S
        };
        RunSpec::new(
            "station_exact",
            FlowMeterConfig::water_station(),
            Scenario::diurnal_demand(DEMAND_MIN_CM_S, DEMAND_PEAK_CM_S, day_s),
            p.seed,
        )
        .with_meter_seed(derive_seed(p.seed, 0))
        .with_line_seed(derive_seed(p.seed, 1))
        .with_calibration(calibration)
        // Error statistics start after the overnight hold, once the meter
        // has come up from its cold start.
        .with_windows(
            Windows::settled(settle, plateau.1 - settle).with_err(0.15 * day_s, f64::INFINITY),
        )
        .with_record(RecordPolicy::MetricsOnly)
        .without_obs()
    }

    pub fn setup(p: &Params) -> Result<Station, String> {
        let config = FlowMeterConfig::water_station();
        let prototype = FlowMeter::new(config, MafParams::nominal(), derive_seed(p.seed, 0))
            .map_err(|e| e.to_string())?;
        let recipe = Station::recipe(p);
        let start = Instant::now();
        let (points, estimate) =
            collect_calibration_points(&prototype, &recipe, JOBS).map_err(|e| e.to_string())?;
        let calibration_s = start.elapsed().as_secs_f64();
        let spec = Station::spec(
            p,
            Calibration::Points {
                points,
                fluid_estimate: Some(estimate),
            },
        );
        // Warm-up: one short day through the same code path.
        let mut warm = spec.clone();
        warm.scenario = Scenario::diurnal_demand(DEMAND_MIN_CM_S, DEMAND_PEAK_CM_S, 1.0);
        warm.execute().map_err(|e| e.to_string())?;
        // The runner steps one frame per line step until the line's clock,
        // accumulated in control periods, reaches the scenario's end.
        let control_dt = f64::from(config.decimation) / config.modulator_rate.get();
        let mut clock = 0.0;
        let mut expected_frames = 0;
        while clock < spec.scenario.duration_s {
            clock += control_dt;
            expected_frames += 1;
        }
        Ok(Station {
            spec,
            check: PlateauCheck {
                expected_frames,
                smoke: p.smoke,
            },
            calibration_s,
            calibration_runs: recipe.setpoints_cm_s.len(),
            err_pct_fs: f64::NAN,
        })
    }

    /// One checked unit and the accuracy it delivered, % FS.
    pub fn run_unit(&self) -> Result<(Unit, f64), String> {
        let outcome = self.spec.execute().map_err(|e| e.to_string())?;
        let meter = outcome
            .meter
            .as_cta()
            .ok_or("station DUT is not a CTA meter")?;
        let red = &outcome.reduced;
        self.check
            .check(meter.control_ticks(), red.settled.mean(), red.err_rms())?;
        let unit = Unit {
            frames: meter.control_ticks(),
            lines: 1,
            wire_frames: 0,
            digest: meter.state_digest() ^ fnv1a64(format!("{red:?}").as_bytes()),
        };
        Ok((
            unit,
            red.err_rms() / self.spec.config.full_scale.to_cm_per_s() * 100.0,
        ))
    }
}

impl PlateauCheck {
    pub fn check(&self, frames: u64, settled_mean: f64, err_rms_cm_s: f64) -> Result<(), String> {
        if frames != self.expected_frames {
            return Err(format!(
                "stepped {frames} control frames, expected {}",
                self.expected_frames
            ));
        }
        let truth = 0.5 * (DEMAND_MIN_CM_S + DEMAND_PEAK_CM_S);
        let bound = if self.smoke {
            f64::INFINITY
        } else {
            STATION_PLATEAU_BOUND_CM_S
        };
        if !settled_mean.is_finite() || (settled_mean - truth).abs() >= bound {
            return Err(format!(
                "plateau mean {settled_mean} cm/s, truth {truth} cm/s (bound {bound} cm/s)"
            ));
        }
        if !err_rms_cm_s.is_finite() {
            return Err("error RMS is not finite".to_string());
        }
        Ok(())
    }
}

impl Bench for Station {
    fn unit(&mut self) -> Result<Unit, String> {
        let (unit, err) = self.run_unit()?;
        self.err_pct_fs = err;
        Ok(unit)
    }

    fn dut_err_rms_pct_fs(&self) -> f64 {
        self.err_pct_fs
    }
}

// ------------------------------------------------------------------ fleet

/// Scenario seconds per fleet line: f2's fast-fidelity length, long enough
/// for its ADC-stuck window (onset 4 s, 1.5 s long) to engage.
const FLEET_LINE_S: f64 = 6.0;

/// `fleet_fast`: the f2 population on the fast AFE tier with the f4
/// hybrid maintenance policy, sketch path, checkpointed.
pub struct Fleet {
    pub spec: FleetSpec,
    pub checkpoint_every: usize,
    pub path: PathBuf,
    err_pct_fs: f64,
}

impl Fleet {
    /// The fleet spec of one unit.
    pub fn spec(p: &Params) -> FleetSpec {
        let lines = if p.smoke { 128 } else { 2048 };
        let [_, _, _, (_, hybrid)] = f4_maintenance::policies(FLEET_LINE_S);
        let mut spec = f2_fleet::fleet_spec(lines, FLEET_LINE_S)
            .with_config(
                LineConfig::new()
                    .with_afe_tier(AfeTier::Fast)
                    .with_maintenance(hybrid),
            )
            .with_exact_threshold(0);
        spec.seed = p.seed;
        spec
    }

    pub fn checkpoint_every(smoke: bool) -> usize {
        if smoke {
            64
        } else {
            1024
        }
    }

    /// Simulated control frames in one unit (a pure function of the spec:
    /// every line runs the whole scenario at the control rate).
    pub fn frames(spec: &FleetSpec) -> u64 {
        let per_line = spec.scenario.duration_s * spec.config.control_rate().get();
        (per_line.round() as u64) * spec.lines as u64
    }

    /// One checked unit and the accuracy it delivered, % FS.
    pub fn run_unit(&self) -> Result<(Unit, f64), String> {
        let spec = &self.spec;
        remove_if_present(&self.path)?;
        let outcome = spec
            .run_checkpointed(&self.path, self.checkpoint_every, JOBS)
            .map_err(|e| e.to_string())?;
        let a = &outcome.aggregates;
        if a.lines != spec.lines {
            return Err(format!(
                "{} lines aggregated, expected {}",
                a.lines, spec.lines
            ));
        }
        if a.trace_heap_bytes != 0 || !outcome.lines.is_empty() {
            return Err(format!(
                "sketch path held {} trace bytes and {} summaries",
                a.trace_heap_bytes,
                outcome.lines.len()
            ));
        }
        let afflicted = spec.variation.faults.as_ref().map_or(0, |template| {
            (0..spec.lines).filter(|&i| template.applies_to(i)).count() as u64
        });
        if afflicted == 0
            || a.fault_incidence.get("adc_stuck") != Some(&afflicted)
            || a.lines_faulted != afflicted
        {
            return Err(format!(
                "{} lines saw the ADC-stuck fault, expected {afflicted}",
                a.lines_faulted
            ));
        }
        let decoded = FleetCheckpoint::load(&self.path)
            .and_then(|ck| ck.into_verified_shard(spec.fingerprint(), spec.lines))
            .map_err(|e| e.to_string())?;
        let full_scale = spec.config.full_scale.to_cm_per_s();
        let simulated_s = spec.scenario.duration_s * spec.lines as f64;
        if !decoded.summaries.is_empty() || decoded.finalize(full_scale, simulated_s) != *a {
            return Err("checkpoint decode differs from the in-memory aggregates".into());
        }
        let unit = Unit {
            frames: Fleet::frames(spec),
            lines: spec.lines as u64,
            wire_frames: 0,
            digest: fnv1a64(format!("{a:?}").as_bytes()),
        };
        Ok((unit, a.err_rms_cm_s.p50 / full_scale * 100.0))
    }

    pub fn setup(p: &Params) -> Result<Fleet, String> {
        let spec = Fleet::spec(p);
        // Warm-up: one batch of the same population, checkpoint included.
        let path = scratch_file("fleet-checkpoint")?;
        let warm = spec.clone().with_lines(spec.batch_size.min(spec.lines));
        remove_if_present(&path)?;
        warm.run_checkpointed(&path, warm.lines, JOBS)
            .map_err(|e| e.to_string())?;
        Ok(Fleet {
            spec,
            checkpoint_every: Fleet::checkpoint_every(p.smoke),
            path,
            err_pct_fs: f64::NAN,
        })
    }
}

impl Bench for Fleet {
    fn unit(&mut self) -> Result<Unit, String> {
        let (unit, err) = self.run_unit()?;
        self.err_pct_fs = err;
        Ok(unit)
    }

    fn dut_err_rms_pct_fs(&self) -> f64 {
        self.err_pct_fs
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = self.path.parent().map(std::fs::remove_dir);
    }
}

/// A per-process file under `.hwbench/` in the working directory (the
/// benchmark writes nowhere else).
pub fn scratch_file(stem: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".hwbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{stem}-{}.txt", std::process::id())))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

// ----------------------------------------------------------------- ingest

/// Wiretapped corpus: lines, scenario seconds each, telemetry cadence.
const CORPUS_LINES: usize = 32;
const CORPUS_LINE_S: f64 = 3.0;
const CORPUS_CADENCE_S: f64 = 0.005;
/// Wire bytes of one telemetry frame (16-byte record + 4 framing bytes);
/// every corpus frame has this size, which closes the byte ledger.
const FRAME_BYTES: u64 = 20;

/// One wiretapped corpus line.
pub struct CapturedLine {
    pub wire: Vec<u8>,
    pub frames_sent: u64,
    pub truth: HealthCensus,
    pub control_frames: u64,
    pub err_rms_cm_s: f64,
}

/// `ingest_replay`: the f3 template wiretapped once, replayed over many
/// virtual lines per round.
pub struct Ingest {
    pub corpus: Vec<CapturedLine>,
    pub virtual_lines: usize,
    pub config: IngestConfig,
    err_pct_fs: f64,
}

/// One replay round's merged report plus its byte count.
pub struct Replay {
    pub report: IngestReport,
    pub bytes: u64,
}

impl Replay {
    /// FNV-1a over every merged counter block.
    pub fn digest(&self) -> u64 {
        let r = &self.report;
        fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{:?}|{}|{}",
                r.stats, r.census, r.truth, r.fidelity, r.frames_sent, r.lines_silent
            )
            .as_bytes(),
        )
    }
}

pub fn empty_report(lines: usize) -> IngestReport {
    IngestReport {
        lines,
        stats: IngestStats::default(),
        census: HealthCensus::default(),
        truth: HealthCensus::default(),
        frames_sent: 0,
        lines_silent: 0,
        fidelity: Fidelity::default(),
        sample_alerts: Vec::new(),
    }
}

impl Ingest {
    pub fn corpus_spec(p: &Params) -> FleetSpec {
        let mut spec = f3_ingest::fleet_spec(CORPUS_LINES, CORPUS_LINE_S)
            .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
            .with_sample_period(CORPUS_CADENCE_S);
        spec.seed = p.seed;
        spec
    }

    pub fn virtual_lines(smoke: bool) -> usize {
        if smoke {
            205
        } else {
            4096
        }
    }

    /// Sessions learn their tick cadence from the first gap.
    pub fn config() -> IngestConfig {
        IngestConfig {
            nominal_tick_gap: 0,
            ..IngestConfig::default()
        }
    }

    pub fn capture(spec: &FleetSpec, line: usize) -> Result<CapturedLine, String> {
        let run_spec = spec.line_spec(line);
        let mut recorder =
            PolicyRecorder::new(RecordPolicy::MetricsOnly, run_spec.reduction_plan());
        let (tail, meter, wire) = run_spec
            .execute_wiretapped(&mut recorder)
            .map_err(|e| e.to_string())?;
        let (_, reduced) = recorder.finish();
        let control_frames = meter
            .as_cta()
            .ok_or("corpus DUT is not a CTA meter")?
            .control_ticks();
        Ok(CapturedLine {
            wire,
            frames_sent: tail.uart.frames_sent,
            truth: reduced.health_census,
            control_frames,
            err_rms_cm_s: reduced.err_rms(),
        })
    }

    pub fn setup(p: &Params) -> Result<Ingest, String> {
        let spec = Ingest::corpus_spec(p);
        let lines: Vec<usize> = (0..CORPUS_LINES).collect();
        let corpus =
            exec::parallel_map_indexed(&lines, JOBS, |_, &line| Ingest::capture(&spec, line))
                .into_iter()
                .collect::<Result<Vec<_>, String>>()?;
        // Pooled over the corpus: every line's error window is equally long.
        let mean_square =
            corpus.iter().map(|c| c.err_rms_cm_s.powi(2)).sum::<f64>() / corpus.len() as f64;
        let ingest = Ingest {
            corpus,
            virtual_lines: Ingest::virtual_lines(p.smoke),
            config: Ingest::config(),
            err_pct_fs: mean_square.sqrt() / spec.config.full_scale.to_cm_per_s() * 100.0,
        };
        // Warm-up: one unchecked round.
        ingest.replay();
        Ok(ingest)
    }

    fn replay(&self) -> Replay {
        let config = self.config;
        let lines: Vec<usize> = (0..self.virtual_lines).collect();
        let ingested = exec::parallel_map_indexed(&lines, JOBS, |_, &line| {
            let source = &self.corpus[line % self.corpus.len()];
            let mut session = MeterSession::new(line, config);
            feed(&mut session, &source.wire, config.chunk_bytes);
            session.finish();
            LineIngest {
                line,
                stats: session.stats(),
                census: *session.census(),
                truth: source.truth,
                frames_sent: source.frames_sent,
                last_health: session.last_health(),
                alerts: session.alerts().to_vec(),
            }
        });
        let mut report = empty_report(self.virtual_lines);
        for line in &ingested {
            absorb(&mut report, line, config.alert_capacity);
        }
        Replay {
            report,
            bytes: self.replayed(|c| c.wire.len() as u64),
        }
    }

    /// Sums `f` over the corpus lines one round replays.
    pub fn replayed(&self, f: impl Fn(&CapturedLine) -> u64) -> u64 {
        (0..self.virtual_lines)
            .map(|i| f(&self.corpus[i % self.corpus.len()]))
            .sum()
    }

    /// One checked replay round.
    pub fn run_unit(&self) -> Result<Unit, String> {
        let replay = self.replay();
        self.check(&replay)?;
        Ok(Unit {
            frames: self.replayed(|c| c.control_frames),
            lines: self.virtual_lines as u64,
            wire_frames: replay.report.frames_sent,
            digest: replay.digest(),
        })
    }

    /// The checks one round must pass, shared with the traced run.
    pub fn check(&self, replay: &Replay) -> Result<(), String> {
        let link = &replay.report.stats.link;
        let accounted = link.resyncs + link.good_frames * FRAME_BYTES + link.discarded_bytes;
        if replay.bytes != accounted {
            return Err(format!(
                "byte ledger open: {} bytes in, {accounted} accounted",
                replay.bytes
            ));
        }
        let fidelity = replay.report.fidelity.detection_accuracy();
        if fidelity != 1.0 {
            return Err(format!("detection fidelity {fidelity}, expected 1"));
        }
        Ok(())
    }
}

impl Bench for Ingest {
    fn unit(&mut self) -> Result<Unit, String> {
        self.run_unit()
    }

    fn dut_err_rms_pct_fs(&self) -> f64 {
        self.err_pct_fs
    }
}
