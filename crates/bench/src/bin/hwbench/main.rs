//! `hwbench` — the hotwire benchmark: three named workloads, one result
//! line each, and a per-layer ledger.
//!
//! ```sh
//! # one workload, one result line (the form `BENCHMARK.json`'s command runs)
//! cargo run --release --manifest-path crates/bench/src/bin/hwbench/Cargo.toml -- \
//!     --workload station_exact --seed 1 --seconds 35 --trace 0
//! # every workload in its own child process, tracing off
//! cargo run --release --manifest-path crates/bench/src/bin/hwbench/Cargo.toml -- run
//! # every workload traced: per-layer ledger, overhead and coverage
//! cargo run --release --manifest-path crates/bench/src/bin/hwbench/Cargo.toml -- trace --out ledger.json
//! ```
//!
//! See `README.md` beside this package for the metrics, the workloads and
//! why each was chosen.

mod kernels;
mod report;
mod timed;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Params, Workload};

const USAGE: &str = "usage:
  hwbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
          [--kernels NAME=VALUE,...]
      run one workload; the last stdout line is its result JSON (with
      --trace 1, --kernels hands in the kernel replays instead of
      measuring them)
  hwbench run [--seed N] [--seconds S] [--smoke]
      every workload in its own child process, tracing off; prints every
      end-to-end metric and exits non-zero on any correctness failure
  hwbench trace [--seed N] [--seconds S] [--smoke] [--out PATH]
      every workload traced: the per-layer ledger (to PATH, default stdout),
      the tracing overhead and the coverage check
  hwbench list | --list
      every metric's name, unit, direction and bound, every workload's reason";

/// Default base seed (recorded in the README beside this file).
const DEFAULT_SEED: u64 = 1;
/// Default measured seconds per run: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 35.0;
/// Measured seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 0.5;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    kernels: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "run" | "trace" | "list" if args.command.is_none() => {
                args.command = Some(arg.clone());
            }
            "--list" => args.command = Some("list".into()),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|_| "--seed needs a u64")?);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?),
            "--kernels" => args.kernels = Some(value("--kernels")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: args.smoke,
    };
    match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => match Workload::from_name(name) {
            Some(w) => one_workload(w, &params, args.trace, args.kernels.as_deref()),
            None => {
                eprintln!("unknown workload `{name}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
        (Some("list"), None) => {
            print!("{}", list());
            ExitCode::SUCCESS
        }
        (Some("run"), None) => all_workloads(&params, false, None),
        (Some("trace"), None) => all_workloads(&params, true, args.out.as_deref()),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Single-workload mode: one workload in this process, result line last on
/// stdout and the result table on stderr. In trace mode the ledger (which
/// holds every per-layer metric) is the table, and its JSON line precedes
/// the result line.
fn one_workload(w: Workload, p: &Params, traced: bool, kernels: Option<&str>) -> ExitCode {
    let result = if traced {
        let replays = match kernels {
            Some(text) => parse_kernels(text),
            None => kernels::measure(kernels::shrink(p)),
        };
        replays
            .and_then(|replays| trace::run_traced(w, p, &replays))
            .map(|(outcome, ledger)| {
                eprint!("{}", ledger.table());
                println!("{}", ledger.to_json());
                outcome
            })
    } else {
        workloads::run_untraced(w, p).map(|outcome| {
            eprint!("{}", result_table(w, &outcome));
            outcome
        })
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

/// The `--kernels` text: kernel replay values as `name=value` pairs.
fn format_kernels(replays: &[(&'static str, f64)]) -> String {
    let pairs: Vec<String> = replays
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    pairs.join(",")
}

/// Reads [`format_kernels`] text back; every name must be a per-layer
/// metric.
fn parse_kernels(text: &str) -> Result<Vec<(&'static str, f64)>, String> {
    text.split(',')
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or(format!("--kernels: `{pair}` is not NAME=VALUE"))?;
            let spec = PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .ok_or(format!("--kernels: `{name}` is not a per-layer metric"))?;
            let value = value
                .parse()
                .map_err(|_| format!("--kernels: `{value}` is not a number"))?;
            Ok((spec.name, value))
        })
        .collect()
}

/// `run` and `trace`: every workload in its own child process (so each
/// reports its own peak RSS), one after another. Each child prints its own
/// tables to stderr and judges its own correctness; this forwards its
/// result line and takes its exit status. `trace` measures the kernel
/// replays once and hands them to every child.
fn all_workloads(p: &Params, traced: bool, out: Option<&str>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replays = if traced {
        match kernels::measure(kernels::shrink(p)) {
            Ok(r) => Some(format_kernels(&r)),
            Err(e) => {
                eprintln!("kernel replays: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut ok = true;
    let mut ledgers = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(replays) = &replays {
            cmd.args(["--kernels", replays]);
        }
        if p.smoke {
            cmd.arg("--smoke");
        }
        eprintln!("== {} ==", w.name());
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot start the {} child: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        match lines.next() {
            Some(result) => println!("{result}"),
            None => ok = false,
        }
        if traced {
            match lines.next() {
                Some(ledger) => {
                    ledgers.push(format!("{}: {ledger}", report::json_string(w.name())))
                }
                None => ok = false,
            }
        }
    }
    if traced {
        let doc = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"workloads\": {{\n{}\n}}}}\n",
            p.seed,
            p.seconds,
            p.smoke,
            ledgers.join(",\n")
        );
        let written = match out {
            Some(path) => std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}")),
            None => {
                print!("{doc}");
                Ok(())
            }
        };
        if let Err(e) = written {
            eprintln!("cannot write the ledger: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("hwbench: a workload failed (see above)");
        ExitCode::FAILURE
    }
}

/// Every metric of one result, by name and unit, plus its failure share.
fn result_table(w: Workload, o: &Outcome) -> String {
    let mut out = format!(
        "{:<14} {:<42} {:>16} {}\n",
        w.name(),
        "failed_frac",
        format!("{}", o.failed as f64 / o.attempted.max(1) as f64),
        "ratio"
    );
    for (name, value, unit) in &o.metrics {
        let _ = writeln!(out, "{:<14} {name:<42} {value:>16.6} {unit}", "");
    }
    out
}

/// The `list` text: every metric and every workload.
fn list() -> String {
    let mut out = String::from("end-to-end metrics (tracing off; every workload):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<24} {:<6} {:<6} bound {:<5} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.map_or("-".into(), |b| b.to_string()),
            m.what
        ));
    }
    out.push_str("per-layer metrics (hwbench trace; every workload):\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<42} {:<6} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        ));
    }
    out.push_str("workloads:\n");
    for w in Workload::ALL {
        out.push_str(&format!("  {:<14} {}\n", w.name(), w.why()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{json_string, MetricSpec};
    use std::path::{Path, PathBuf};

    #[test]
    fn workload_arguments_parse() {
        let raw: Vec<String> = "--workload fleet_fast --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_fast"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn kernel_values_pass_between_processes_bit_for_bit() {
        let replays = [
            ("physics.die_step_ns", 0.1 + 0.2),
            ("rig.line.step_ns", 80.0),
        ];
        let text = format_kernels(&replays);
        assert_eq!(parse_kernels(&text).unwrap(), replays);
        assert!(
            parse_kernels("setup_s=1").is_err(),
            "not a per-layer metric"
        );
        assert!(parse_kernels("physics.die_step_ns").is_err());
        assert!(parse_kernels("physics.die_step_ns=x").is_err());
    }

    #[test]
    fn smoke_runs_report_every_metric() {
        let p = Params {
            seed: 3,
            seconds: 0.01,
            smoke: true,
        };
        let replays = kernels::measure(kernels::shrink(&p)).unwrap();
        for w in Workload::ALL {
            let untraced = workloads::run_untraced(w, &p).unwrap();
            assert!(untraced.correct && untraced.failed == 0, "{}", w.name());
            let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0.as_str()).collect();
            let expect: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expect, "{}", w.name());
            assert!(
                untraced
                    .metrics
                    .iter()
                    .all(|m| m.1.is_finite() && m.1 > 0.0),
                "{}: {:?}",
                w.name(),
                untraced.metrics
            );
            let (traced, ledger) = trace::run_traced(w, &p, &replays).unwrap();
            assert!(traced.correct, "{}: equivalence guard", w.name());
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0.as_str()).collect();
            let expect: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expect, "{}", w.name());
            let line = traced.to_json();
            for m in &PER_LAYER {
                let entry = format!("{}: {{\"value\": ", json_string(m.name));
                assert!(line.contains(&entry), "{}: {}", w.name(), m.name);
            }
            assert!(ledger.get("trace.coverage").is_some_and(|c| c > 0.5));
        }
    }

    /// The repository root: the first directory above the compiling
    /// package that holds `BENCHMARK.json`.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package")
            .to_path_buf()
    }

    /// The `workloads`, `end_to_end` and `per_layer` lists of
    /// `BENCHMARK.json`, rendered from the catalogue.
    fn catalogue_json() -> String {
        let list = |key: &str, items: Vec<String>| {
            format!("  \"{key}\": [\n    {}\n  ]", items.join(",\n    "))
        };
        let metric = |m: &MetricSpec| {
            let mut item = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.name())
            );
            if let Some(bound) = m.bound {
                let _ = write!(item, ", \"bound\": {bound}");
            }
            item + "}"
        };
        let workloads = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json_string(w.name()),
                    json_string(w.why())
                )
            })
            .collect();
        [
            list("workloads", workloads),
            list("end_to_end", END_TO_END.iter().map(metric).collect()),
            list("per_layer", PER_LAYER.iter().map(metric).collect()),
        ]
        .join(",\n")
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// catalogue this binary reports, in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let catalogue = catalogue_json();
        assert!(
            text.contains(&catalogue),
            "BENCHMARK.json should contain:\n{catalogue}"
        );
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    /// The package is a workspace of its own, so Cargo would not apply the
    /// repository's `[profile.*]` tables to it: it carries a copy, and a
    /// profile change at the root must reach the benchmark's build too.
    #[test]
    fn manifest_mirrors_the_workspace_profiles() {
        let profiles = |path: PathBuf| {
            let text = std::fs::read_to_string(&path).unwrap();
            let mut in_profile = false;
            let mut lines = Vec::new();
            for line in text.lines().map(str::trim) {
                if line.starts_with('[') {
                    in_profile = line.starts_with("[profile.");
                }
                if in_profile && !line.is_empty() && !line.starts_with('#') {
                    lines.push(line.to_string());
                }
            }
            lines
        };
        let root = repo_root();
        assert_eq!(
            profiles(root.join("crates/bench/src/bin/hwbench/Cargo.toml")),
            profiles(root.join("Cargo.toml"))
        );
    }

    #[test]
    fn list_names_every_metric_and_workload() {
        let text = list();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(m.name), "{}", m.name);
        }
        for w in Workload::ALL {
            assert!(text.contains(w.name()) && text.contains(w.why()));
        }
    }
}
