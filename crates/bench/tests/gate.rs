//! The shared bench gate: flag parsing, the floor and digest checks, and
//! the errors that name a report's path.

use hotwire_bench::gate::{write_report, Args, Baseline, Stop};
use std::path::PathBuf;

const USAGE: &str = "usage: demo [--smoke] [--out PATH] [--check BASELINE] [--checkpoint PATH]";

fn parse(argv: &[&str]) -> Result<Args, Stop> {
    Args::parse(
        argv.iter().map(|a| a.to_string()),
        USAGE,
        &["--smoke"],
        &[("--checkpoint", "a path")],
    )
}

/// A scratch path unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hotwire-gate-{}-{name}", std::process::id()))
}

/// A baseline holding `text`, read back through [`Baseline::load`].
fn baseline(name: &str, text: &str) -> (Baseline, String) {
    let path = scratch(name);
    std::fs::write(&path, text).expect("temp dir is writable");
    let path = path.to_str().expect("temp path is UTF-8").to_string();
    let baseline = Baseline::load(&path).expect("baseline just written");
    std::fs::remove_file(&path).expect("baseline just written");
    (baseline, path)
}

#[test]
fn parses_switches_and_valued_options() {
    let args = parse(&[
        "--out",
        "a.json",
        "--smoke",
        "--checkpoint",
        "ck",
        "--out",
        "b.json",
    ])
    .expect("every flag is known");
    assert!(args.switch("--smoke"));
    assert_eq!(args.value("--out"), Some("b.json"), "the last --out wins");
    assert_eq!(args.value("--checkpoint"), Some("ck"));
    assert_eq!(args.value("--check"), None);
    let bare = parse(&[]).expect("no flags is a valid command line");
    assert!(!bare.switch("--smoke"));
    assert_eq!(bare.value("--out"), None);
}

#[test]
fn refuses_a_missing_value_and_an_unknown_argument() {
    for (flag, what) in [
        ("--out", "a path"),
        ("--check", "a baseline path"),
        ("--checkpoint", "a path"),
    ] {
        assert_eq!(
            parse(&["--smoke", flag]).unwrap_err(),
            Stop::Fail(format!("{flag} needs {what}\n{USAGE}"))
        );
    }
    assert_eq!(
        parse(&["--smoke", "--fast"]).unwrap_err(),
        Stop::Fail(format!("unknown argument `--fast`\n{USAGE}"))
    );
}

#[test]
fn help_stops_with_the_usage_text() {
    for help in ["--help", "-h"] {
        assert_eq!(parse(&[help, "--fast"]).unwrap_err(), Stop::Help(USAGE));
    }
    // Arguments are read in order: an earlier unknown one fails first.
    assert!(matches!(parse(&["--fast", "--help"]), Err(Stop::Fail(_))));
}

#[test]
fn floor_check_passes_at_the_floor_and_fails_below_it() {
    let (b, path) = baseline("floor.json", "{\"headline\": 1000.0}");
    let floor = 1000.0 * (1.0 - 0.1);
    assert_eq!(b.check_floor("headline", floor, 0.1), Ok(()));
    assert_eq!(b.check_floor("headline", 2000.0, 0.1), Ok(()));
    let just_below = f64::from_bits(floor.to_bits() - 1);
    let err = b.check_floor("headline", just_below, 0.1).unwrap_err();
    assert!(err.starts_with("headline regressed"), "{err}");
    assert_eq!(
        b.check_floor("lines_per_s", 2000.0, 0.1),
        Err(format!("baseline {path} has no lines_per_s"))
    );
}

#[test]
fn digest_check_compares_the_recorded_string() {
    let (b, path) = baseline("digest.json", "{\"digest\": \"0e9112fc72ff1bf7\"}");
    assert_eq!(b.check_digest("digest", "0e9112fc72ff1bf7"), Ok(()));
    let err = b.check_digest("digest", "0e9112fc72ff1bf8").unwrap_err();
    assert!(err.starts_with("digest changed"), "{err}");
    assert_eq!(
        b.check_digest("jobs_invariance_digest", "0e9112fc72ff1bf7"),
        Err(format!("baseline {path} has no jobs_invariance_digest"))
    );
}

#[test]
fn write_and_load_errors_name_the_path() {
    let path = scratch("no-such-dir").join("report.json");
    let path = path.to_str().expect("temp path is UTF-8");
    let err = write_report(path, "{}").unwrap_err();
    assert!(err.starts_with(&format!("cannot write {path}: ")), "{err}");
    let err = Baseline::load(path).unwrap_err();
    assert!(
        err.starts_with(&format!("cannot read baseline {path}: ")),
        "{err}"
    );
}
