//! The command line, report writer and `--check` gate shared by the four
//! `*_bench` bins.
//!
//! Each bin's `main` is `gate::exit(run())`: `run` parses its flags with
//! [`Args::parse`], measures, writes its report with [`write_report`] and,
//! under `--check`, compares the fresh figures with a committed
//! [`Baseline`]. Every failure returns a [`Stop`] up to `main`, and
//! [`exit`] prints it once.

use crate::json::{parse_number, parse_string};
use std::process::ExitCode;

/// Why a bench run ended before its last line.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h`: print this usage text and exit 0.
    Help(&'static str),
    /// A failed flag, run or gate: print the message and exit 1.
    Fail(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Fail(message)
    }
}

/// The process exit for a bin's `run`: success, the usage text for
/// `--help`, or the failure printed once to stderr.
pub fn exit(result: Result<(), Stop>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Help(usage)) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(Stop::Fail(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// The valued options every bench bin takes, each with what its value is.
const SHARED_OPTIONS: [(&str, &str); 2] = [("--out", "a path"), ("--check", "a baseline path")];

/// A bin's parsed command line.
#[derive(Debug)]
pub struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `argv` (without the program name) against the bin's
    /// `switches` and valued `options`, each given as `(flag, what its value
    /// is)`, e.g. `("--checkpoint", "a path")`. Every bin also takes
    /// `--out PATH` and `--check BASELINE`. A repeated option keeps its last
    /// value.
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] for `--help`/`-h`; [`Stop::Fail`] with the usage
    /// text for an unknown argument or an option without its value.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        usage: &'static str,
        switches: &[&'static str],
        options: &[(&'static str, &str)],
    ) -> Result<Args, Stop> {
        let mut args = Args {
            switches: Vec::new(),
            values: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(usage));
            }
            if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
                args.switches.push(switch);
            } else if let Some(&(flag, what)) = SHARED_OPTIONS
                .iter()
                .chain(options)
                .find(|(o, _)| *o == arg)
            {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("{flag} needs {what}\n{usage}"))?;
                args.values.push((flag, value));
            } else {
                return Err(format!("unknown argument `{arg}`\n{usage}").into());
            }
        }
        Ok(args)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The last value given for the option `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// Writes a finished report to `path`.
///
/// # Errors
///
/// A message naming `path` when the write fails.
pub fn write_report(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// A committed report that `--check` compares a fresh run against.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    text: String,
}

impl Baseline {
    /// Reads the baseline report at `path`.
    ///
    /// # Errors
    ///
    /// A message naming `path` when it cannot be read.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        Ok(Baseline {
            path: path.to_string(),
            text,
        })
    }

    /// The floor check: passes when `fresh ≥ (1 − tolerance) × baseline`
    /// for the baseline's number under `key`.
    ///
    /// # Errors
    ///
    /// When `fresh` is below the floor or the baseline has no `key`.
    pub fn check_floor(&self, key: &str, fresh: f64, tolerance: f64) -> Result<(), String> {
        let expected = parse_number(&self.text, key)
            .ok_or_else(|| format!("baseline {} has no {key}", self.path))?;
        let floor = expected * (1.0 - tolerance);
        if fresh < floor {
            return Err(format!(
                "{key} regressed: {fresh:.2} vs baseline {expected:.2} (floor {floor:.2}, \
                 tolerance {:.0} %)",
                tolerance * 100.0
            ));
        }
        eprintln!("{key} check passed: {fresh:.2} vs baseline {expected:.2}");
        Ok(())
    }

    /// The digest check: passes when the baseline's string under `key`
    /// equals `fresh`.
    ///
    /// # Errors
    ///
    /// When the digests differ or the baseline has no `key`.
    pub fn check_digest(&self, key: &str, fresh: &str) -> Result<(), String> {
        match parse_string(&self.text, key) {
            Some(expected) if expected == fresh => {
                eprintln!("{key} check passed: {fresh}");
                Ok(())
            }
            Some(expected) => Err(format!(
                "{key} changed: {fresh} vs baseline {expected} — a change that moves it \
                 must re-record the baseline"
            )),
            None => Err(format!("baseline {} has no {key}", self.path)),
        }
    }
}
