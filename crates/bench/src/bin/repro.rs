//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! Experiments are independent, so `repro` runs the requested set through
//! the same deterministic campaign executor the experiments themselves use
//! internally ([`hotwire_rig::Campaign`]): reports print in request order
//! and are bit-for-bit identical for any `--jobs` value.
//!
//! ```sh
//! cargo run -p hotwire-bench --release --bin repro -- all
//! cargo run -p hotwire-bench --release --bin repro -- --jobs 4 all
//! cargo run -p hotwire-bench --release --bin repro -- e1 e5
//! cargo run -p hotwire-bench --release --bin repro -- --fast --json out.json e2
//! ```

use hotwire_bench::experiments::{self, Speed};
use hotwire_bench::json::{json_escape, json_number};
use hotwire_rig::obs::{self, ScopeObs};
use hotwire_rig::{exec, Campaign, Histogram};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: repro [--fast] [--jobs N] [--json PATH] [--no-obs] <experiment…|all>
options:
  --fast       scaled-down scenarios (the integration-test profile)
  --jobs N     worker threads for campaigns (default: all cores; 1 = serial)
  --json PATH  also write wall-clock + headline metrics + observability
               (counters, histograms, samples/s) as JSON
  --no-obs     skip run instrumentation (for measuring its overhead;
               results are identical either way, by construction)
experiments:
  e1   Fig. 11 — water-speed staircase vs Promag 50
  e2   Table I — resolution across the range
  e3   Table I — repeatability
  e4   Table I — flow-direction detection
  e5   Fig. 7  — bubble generation vs drive scheme
  e6   Fig. 8  — CaCO₃ deposition vs passivation
  e7   §5      — pressure robustness (0–3 bar, 7 bar peaks)
  e8   Table II— comparison vs Promag 50 and turbine wheel
  e9   §2      — King's-law calibration / nonlinearity
  e10  §4      — output-filter bandwidth ablation
  e11  §7      — battery autonomy
  e12  §2      — CT vs CC vs CP under fluid-temperature change
  a1   ablation — PI gain design-space exploration
  a2   ablation — decimation-ratio sweep
  a3   ablation — probe insertion position
  f1   §6      — fault-injection matrix: detection / worst error / recovery
  f2   §6      — fleet simulation: population percentiles / health census
  f3   §6      — telemetry ingest: wire-derived census / detection fidelity
  f4   §6      — fleet maintenance: recalibration cost vs population accuracy
  m1   modality — CTA vs heat-pulse time-of-flight: resolution / power / fouling";

/// One experiment's rendered report plus its headline numbers for `--json`.
struct Report {
    text: String,
    metrics: Vec<(&'static str, f64)>,
}

fn dispatch(id: &str, speed: Speed) -> Result<Report, String> {
    let err = |e: hotwire_core::CoreError| e.to_string();
    Ok(match id {
        "e1" => {
            let r = experiments::e01_staircase::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    ("dut_rms_cm_s", r.dut_rms_cm_s),
                    ("linearity_pct_fs", r.linearity_pct_fs),
                    ("hysteresis_pct_fs", r.hysteresis_pct_fs),
                ],
                text: r.to_string(),
            }
        }
        "e2" => {
            let r = experiments::e02_resolution::run(speed).map_err(err)?;
            let worst = r
                .points
                .iter()
                .map(|p| p.resolution_pct_fs)
                .fold(0.0, f64::max);
            Report {
                metrics: vec![("worst_resolution_pct_fs", worst)],
                text: r.to_string(),
            }
        }
        "e3" => {
            let r = experiments::e03_repeatability::run(speed).map_err(err)?;
            Report {
                metrics: vec![("repeatability_pct_fs", r.repeatability_pct_fs)],
                text: r.to_string(),
            }
        }
        "e4" => {
            let r = experiments::e04_direction::run(speed).map_err(err)?;
            Report {
                metrics: vec![("direction_agreement", r.overall)],
                text: r.to_string(),
            }
        }
        "e5" => {
            let r = experiments::e05_bubbles::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    ("naive_peak_coverage", r.cases[0].peak_coverage),
                    ("reduced_peak_coverage", r.cases[1].peak_coverage),
                    ("pulsed_peak_coverage", r.cases[2].peak_coverage),
                ],
                text: r.to_string(),
            }
        }
        "e6" => {
            let r = experiments::e06_fouling::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    ("realistic_bare_um", r.realistic_bare_um),
                    ("realistic_passivated_um", r.realistic_passivated_um),
                ],
                text: r.to_string(),
            }
        }
        "e7" => {
            let r = experiments::e07_pressure::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    (
                        "paper_worst_deviation_cm_s",
                        r.cases[0].worst_deviation_cm_s,
                    ),
                    ("paper_peak_coverage", r.cases[0].peak_coverage),
                ],
                text: r.to_string(),
            }
        }
        "e8" => {
            let r = experiments::e08_comparison::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    ("mems_resolution_pct_fs", r.instruments[0].resolution_pct_fs),
                    ("mems_rms_error_cm_s", r.instruments[0].rms_error_cm_s),
                ],
                text: r.to_string(),
            }
        }
        "e9" => {
            let r = experiments::e09_kings_law::run(speed).map_err(err)?;
            Report {
                metrics: vec![
                    ("king_worst_cm_s", r.king_worst()),
                    ("linear_worst_cm_s", r.linear_worst()),
                    ("king_exponent_n", r.n),
                ],
                text: r.to_string(),
            }
        }
        "e10" => {
            let r = experiments::e10_filter::run(speed).map_err(err)?;
            let narrow = r
                .points
                .last()
                .ok_or_else(|| "e10: filter sweep produced no points".to_string())?;
            Report {
                metrics: vec![("narrowest_resolution_cm_s", narrow.resolution_cm_s)],
                text: r.to_string(),
            }
        }
        "e11" => {
            let r = experiments::e11_power::run(speed).map_err(err)?;
            Report {
                metrics: vec![("typical_autonomy_days", r.typical().autonomy_days)],
                text: r.to_string(),
            }
        }
        "e12" => {
            let r = experiments::e12_modes::run(speed).map_err(err)?;
            Report {
                metrics: vec![("ct_drift_pct", r.ct().drift_pct)],
                text: r.to_string(),
            }
        }
        "a1" => {
            let r = experiments::a01_pi_gains::run(speed).map_err(err)?;
            let railed = r.points.iter().filter(|p| p.railed).count();
            Report {
                metrics: vec![("railed_gain_points", railed as f64)],
                text: r.to_string(),
            }
        }
        "a2" => {
            let r = experiments::a02_decimation::run(speed).map_err(err)?;
            let silicon = r
                .points
                .iter()
                .find(|p| p.ratio == 256)
                .or_else(|| r.points.last())
                .ok_or_else(|| "a2: decimation sweep produced no points".to_string())?;
            Report {
                metrics: vec![("r256_resolution_cm_s", silicon.resolution_cm_s)],
                text: r.to_string(),
            }
        }
        "a3" => {
            let r = experiments::a03_probe_position::run(speed).map_err(err)?;
            let wall = r
                .points
                .last()
                .ok_or_else(|| "a3: position sweep produced no points".to_string())?;
            Report {
                metrics: vec![("near_wall_error_pct", wall.error_pct)],
                text: r.to_string(),
            }
        }
        "f1" => {
            let r = experiments::f1_faults::run(speed).map_err(err)?;
            let worst = r
                .cases
                .iter()
                .map(|c| c.worst_error_cm_s)
                .fold(0.0, f64::max);
            Report {
                metrics: vec![
                    ("stuck_adc_detect_s", r.case("adc stuck").detect_s),
                    ("stuck_adc_recover_s", r.case("adc stuck").recover_s),
                    ("eeprom_detect_s", r.case("eeprom bit flip").detect_s),
                    (
                        "uart_frames_lost",
                        r.case("uart corruption").frames_lost as f64,
                    ),
                    ("worst_error_cm_s", worst),
                ],
                text: r.to_string(),
            }
        }
        "f2" => {
            let r = experiments::f2_fleet::run(speed).map_err(|e| e.to_string())?;
            let a = &r.outcome.aggregates;
            Report {
                metrics: vec![
                    ("fleet_lines", a.lines as f64),
                    ("resolution_p50_pct_fs", a.resolution_pct_fs.p50),
                    ("resolution_p99_pct_fs", a.resolution_pct_fs.p99),
                    ("repeatability_pct_fs", a.repeatability_pct_fs),
                    ("lines_faulted", a.lines_faulted as f64),
                    ("trace_heap_bytes", a.trace_heap_bytes as f64),
                ],
                text: r.to_string(),
            }
        }
        "f3" => {
            let r = experiments::f3_ingest::run(speed).map_err(err)?;
            let rep = &r.report;
            Report {
                metrics: vec![
                    ("ingest_lines", rep.lines as f64),
                    ("detection_fidelity", rep.fidelity.detection_accuracy()),
                    ("delivery_ratio", rep.delivery_ratio()),
                    ("frames_sent", rep.frames_sent as f64),
                    ("records_decoded", rep.stats.records.records as f64),
                    ("records_lost", rep.stats.records_lost as f64),
                    ("crc_errors", rep.stats.link.crc_errors as f64),
                    ("recovered_frames", rep.stats.link.recovered_frames as f64),
                    ("alerts_raised", rep.stats.alerts_raised as f64),
                ],
                text: r.to_string(),
            }
        }
        "f4" => {
            let r = experiments::f4_maintenance::run(speed).map_err(|e| e.to_string())?;
            let cell = |policy: &str, modality| r.cell(policy, modality);
            let cta = hotwire_rig::Modality::Cta;
            let hp = hotwire_rig::Modality::HeatPulse;
            Report {
                metrics: vec![
                    ("f4_none_cta_err_p99_cm_s", cell("none", cta).err_p99_cm_s),
                    ("f4_none_hp_err_p99_cm_s", cell("none", hp).err_p99_cm_s),
                    (
                        "f4_scheduled_cta_persists_per_line",
                        cell("scheduled", cta).persists_per_line,
                    ),
                    (
                        "f4_scheduled_cta_err_p99_cm_s",
                        cell("scheduled", cta).err_p99_cm_s,
                    ),
                    (
                        "f4_event_cta_persists_per_line",
                        cell("event_triggered", cta).persists_per_line,
                    ),
                    (
                        "f4_event_cta_err_p99_cm_s",
                        cell("event_triggered", cta).err_p99_cm_s,
                    ),
                    (
                        "f4_hybrid_cta_actions_per_line",
                        cell("hybrid", cta).actions_per_line,
                    ),
                    (
                        "f4_hybrid_hp_actions_per_line",
                        cell("hybrid", hp).actions_per_line,
                    ),
                    ("f4_hybrid_hp_err_p99_cm_s", cell("hybrid", hp).err_p99_cm_s),
                ],
                text: r.to_string(),
            }
        }
        "m1" => {
            let r = experiments::m1_modality::run(speed)?;
            let cta = r.case(hotwire_rig::Modality::Cta);
            let hp = r.case(hotwire_rig::Modality::HeatPulse);
            Report {
                metrics: vec![
                    ("m1_cta_resolution_p50_pct_fs", cta.resolution_p50_pct_fs),
                    ("m1_hp_resolution_p50_pct_fs", hp.resolution_p50_pct_fs),
                    ("m1_cta_power_mw", cta.power_mw),
                    ("m1_hp_power_mw", hp.power_mw),
                    ("m1_cta_fouling_shift_pct", cta.fouling_shift_pct),
                    ("m1_hp_fouling_shift_pct", hp.fouling_shift_pct),
                ],
                text: r.to_string(),
            }
        }
        other => return Err(format!("unknown experiment `{other}`")),
    })
}

const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3",
    "f1", "f2", "f3", "f4", "m1",
];

/// Flat counters as a JSON object, in the stable `as_pairs` order.
fn json_counters(c: &obs::Counters) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in c.as_pairs().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {value}"));
    }
    out.push('}');
    out
}

/// A histogram as a JSON object; the bucket layout travels with the counts
/// so consumers can reconstruct edges without out-of-band knowledge.
fn json_histogram(h: &Histogram) -> String {
    let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\"lo\": {}, \"bucket_width\": {}, \"counts\": [{}], \
         \"underflow\": {}, \"overflow\": {}, \"total\": {}, \"mean\": {}}}",
        h.lo,
        h.bucket_width,
        counts.join(", "),
        h.underflow,
        h.overflow,
        h.total,
        json_number(h.mean())
    )
}

/// One registry scope (or the cross-experiment total) as a JSON object.
/// `wall_s` and `samples_per_s` are profiling — everything else is
/// deterministic and jobs-invariant.
fn json_scope(s: &ScopeObs) -> String {
    format!(
        "{{\"campaigns\": {}, \"runs\": {}, \"wall_s\": {}, \"samples_per_s\": {}, \
         \"counters\": {}, \"pi_output\": {}}}",
        s.campaigns,
        s.runs,
        json_number(s.wall_s),
        json_number(s.samples_per_s()),
        json_counters(&s.counters),
        json_histogram(&s.pi_output)
    )
}

/// Folds every experiment scope into one cross-experiment aggregate.
fn registry_total(registry: &BTreeMap<String, ScopeObs>) -> ScopeObs {
    let mut total = ScopeObs::default();
    for s in registry.values() {
        total.campaigns += s.campaigns;
        total.runs += s.runs;
        total.counters.merge(&s.counters);
        total.pi_output.merge(&s.pi_output);
        total.wall_s += s.wall_s;
    }
    total
}

fn write_json(
    path: &str,
    speed: Speed,
    jobs: usize,
    rows: &[(String, Result<Report, String>, f64)],
    registry: &BTreeMap<String, ScopeObs>,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"speed\": \"{}\",\n",
        match speed {
            Speed::Full => "full",
            Speed::Fast => "fast",
        }
    ));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, (id, result, wall_s)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_s\": {}, ",
            json_escape(id),
            json_number(*wall_s)
        ));
        match result {
            Ok(report) => {
                out.push_str("\"ok\": true, \"metrics\": {");
                for (j, (name, value)) in report.metrics.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "\"{}\": {}",
                        json_escape(name),
                        json_number(*value)
                    ));
                }
                out.push_str("}}");
            }
            Err(e) => {
                out.push_str(&format!(
                    "\"ok\": false, \"error\": \"{}\"}}",
                    json_escape(e)
                ));
            }
        }
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"obs\": {\n");
    out.push_str(&format!(
        "    \"total\": {},\n",
        json_scope(&registry_total(registry))
    ));
    out.push_str("    \"per_experiment\": {\n");
    for (i, (label, scope)) in registry.iter().enumerate() {
        out.push_str(&format!(
            "      \"{}\": {}{}\n",
            json_escape(label),
            json_scope(scope),
            if i + 1 < registry.len() { "," } else { "" }
        ));
    }
    out.push_str("    }\n");
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let mut speed = Speed::Full;
    let mut json_path: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => speed = Speed::Fast,
            "--no-obs" => obs::set_default_enabled(false),
            "--jobs" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if let Some(n) = jobs {
        exec::set_default_jobs(n);
    }
    let jobs = exec::default_jobs();

    // Fan the experiments themselves across the campaign executor. Inner
    // campaigns nest harmlessly (scoped threads, no global pool) and the
    // index-ordered merge keeps reports in request order regardless of
    // which experiment finishes first. The obs scope is installed inside
    // the closure because it is thread-local and the closure runs on a
    // worker thread: every campaign an experiment executes records its
    // merged observability under that experiment's id.
    let rows: Vec<(String, Result<Report, String>, f64)> = Campaign::new().map(&ids, |_, id| {
        let started = std::time::Instant::now();
        let result = obs::scoped(id, || dispatch(id, speed));
        (id.clone(), result, started.elapsed().as_secs_f64())
    });
    let registry = obs::take_registry();

    let mut failed = false;
    for (id, result, wall_s) in &rows {
        match result {
            Ok(report) => {
                println!("{}", "=".repeat(78));
                println!("{}", report.text);
                println!("[{id} completed in {wall_s:.1} s]\n");
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                failed = true;
            }
        }
    }
    let total = registry_total(&registry);
    if total.runs > 0 {
        println!(
            "[obs] {} campaigns, {} runs, {} modulator steps, {:.2} Msteps/s aggregate",
            total.campaigns,
            total.runs,
            total.counters.modulator_steps,
            total.samples_per_s() / 1e6
        );
    }
    if let Some(path) = &json_path {
        if let Err(e) = write_json(path, speed, jobs, &rows, &registry) {
            eprintln!("--json {path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
