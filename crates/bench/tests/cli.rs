//! The command-line contract of the four `*_bench` bins: each `--help`
//! lists the bin's flags and exits 0, and every malformed command line
//! exits 1 before any measurement starts.

use std::process::{Command, Output};

const FLEET: &str = env!("CARGO_BIN_EXE_fleet_bench");
const INGEST: &str = env!("CARGO_BIN_EXE_ingest_bench");

/// Each bin with the flags its `--help` must list.
const BINS: [(&str, &[&str]); 4] = [
    (
        env!("CARGO_BIN_EXE_hotpath_bench"),
        &["--smoke", "--out", "--check"],
    ),
    (
        env!("CARGO_BIN_EXE_record_bench"),
        &["--smoke", "--out", "--check"],
    ),
    (
        FLEET,
        &[
            "--smoke",
            "--out",
            "--check",
            "--checkpoint",
            "--kill-after-lines",
        ],
    ),
    (INGEST, &["--out", "--check"]),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Asserts `args` make `bin` exit 1 with its usage text on stderr.
fn refused(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn help_lists_every_flag_and_exits_zero() {
    for (bin, flags) in BINS {
        for help in ["--help", "-h"] {
            let out = run(bin, &[help]);
            assert_eq!(out.status.code(), Some(0), "{bin} {help}");
            let usage = String::from_utf8_lossy(&out.stdout);
            for flag in flags {
                assert!(usage.contains(flag), "{bin} {help} omits {flag}:\n{usage}");
            }
        }
    }
}

#[test]
fn unknown_flags_and_missing_values_exit_one() {
    for (bin, _) in BINS {
        refused(bin, &["--bogus"]);
        refused(bin, &["--out"]);
        refused(bin, &["--check"]);
    }
    refused(INGEST, &["--smoke"]);
}

#[test]
fn fleet_kill_flag_needs_a_count_and_a_checkpoint() {
    refused(FLEET, &["--smoke", "--kill-after-lines", "3"]);
    refused(FLEET, &["--kill-after-lines"]);
    let never_written = std::env::temp_dir().join("hotwire-cli-never-written.ck");
    let never_written = never_written.to_str().expect("temp path is UTF-8");
    refused(
        FLEET,
        &[
            "--smoke",
            "--checkpoint",
            never_written,
            "--kill-after-lines",
            "x",
        ],
    );
}
