#!/usr/bin/env python3
"""Same-machine A/B gate: the checked-out commit's hwbench against a parent's.

    python3 crates/bench/ab_gate.py PARENT

Exports PARENT and HEAD with `git archive` (so uncommitted edits are not
measured: commit them first) and builds the benchmark of each with the
manifest named in BENCHMARK.json's command, then runs every
BENCHMARK.json workload in PAIRS alternating pairs:
pair i runs both sides at seed BASE_SEED + i, and which side goes first
alternates. Each run is one process, `--workload W --seed s --seconds
SECONDS --trace 0`, whose result is the last line of its standard output.

The gate fails when a run exits non-zero or reports `correct: false`, when
the change's failed share of a workload's units is larger than the
parent's, or when, for some end-to-end metric of BENCHMARK.json, the
change regressed by the rule of `regressed` below. It prints one row per
(workload, metric): both medians, change / parent, pairs lost, the parent's
IQR and the verdict.

Exports and builds go to `target/ab-gate/`, so a second gate reuses them.
The decision rule's examples run with

    python3 -m doctest crates/bench/ab_gate.py
"""

import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / "target" / "ab-gate"

# Ten pairs: the least that can show "worse in nine of ten", the rule every
# performance claim in CHANGES.md is judged by.
PAIRS = 10
# Seconds of units per run (a run also spends five set-ups), so a gate of the
# three workloads takes about 10 minutes on a 2-vCPU VM. Runs of one pair
# follow each other at one seed, which cancels the host's speed phases of
# seconds to minutes (hwbench README), but a run must still hold enough units
# that its median is not one unit's: at 2 s a fleet_fast run holds a single
# ~2-s unit, its parent's IQR carried the host's phases, and a ~1.2x gain won
# 9 of 10 pairs yet stayed inside that IQR; at 8 s it won 10 of 10 and cleared
# it. CHANGES.md records every run that proved a length, this one included.
SECONDS = 8
# Pair i runs both sides at BASE_SEED + i: equal seeds make both sides issue
# the same units, so the simulated metrics tie, and a fixed base makes a
# re-run of the gate issue the same units again.
BASE_SEED = 1001


def spread(values):
    """The distance between the first and third quartile, the spread the
    hwbench README defines.

    >>> spread([100, 102, 104, 106, 108, 110, 112, 114, 116, 118])
    11.0
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def regressed(parent, change, better):
    """(pairs the change lost, whether it regressed) for one metric.

    `parent[i]` and `change[i]` ran at the same seed. The change loses pair
    i when its value is worse in the metric's `better` direction ("lower" or
    "higher"); a tie counts for neither side. It regressed when it lost at
    least nine tenths of the pairs and its median is worse than the
    parent's by more than the parent's spread: the gain rule, mirrored.

    A tie:

    >>> regressed([5.0] * 10, [5.0] * 10, "lower")
    (0, False)

    Nine of ten lost, but the median moved less than the parent's spread
    (11.0), as a change of code placement alone can:

    >>> parent = [100, 102, 104, 106, 108, 110, 112, 114, 116, 118]
    >>> regressed(parent, [p + 1 for p in parent[:9]] + [117], "lower")
    (9, False)

    Nine of ten lost, the median 18 worse:

    >>> regressed(parent, [p + 20 for p in parent[:9]] + [117], "lower")
    (9, True)
    """
    sign = 1 if better == "lower" else -1
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = sign * (statistics.median(change) - statistics.median(parent))
    return lost, 10 * lost >= 9 * len(parent) and worse_by > spread(parent)


def commit_of(rev):
    """The full hash of the commit `rev` names."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def build(commit, side, manifest):
    """Builds the benchmark of `commit` for `side` ("parent" or "change");
    returns its executable.

    Both sides build from WORK/<hash> into WORK/<hash>-<side>, paths of one
    length: a binary embeds its source paths, and a longer path on one side
    would move that side's code (its read-only data precedes the code), which
    reads as a change of speed. A commit gated against itself builds twice,
    byte for byte the same.
    """
    tree = export(commit)
    messages = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--message-format=json",
         "--manifest-path", str(tree / manifest)],
        env={**os.environ, "CARGO_TARGET_DIR": str(WORK / f"{commit}-{side}")},
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    executables = [m["executable"] for m in map(json.loads, messages.splitlines())
                   if m.get("executable")]
    if len(executables) != 1:
        sys.exit(f"expected one executable from {tree / manifest}, got {executables}")
    return executables[0]


def export(commit):
    """The tree of `commit`, exported once under WORK."""
    tree = WORK / commit
    done = tree / ".exported"
    if not done.exists():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        done.touch()
    return tree


def run_once(executable, workload, seed):
    """One run's result line; exits the gate when the run fails."""
    proc = subprocess.run(
        [executable, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=WORK, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        sys.exit(f"FAIL: {executable} {workload} seed {seed} "
                 f"(exit {proc.returncode}, result {lines[-1:]})")
    return result


def gate_workload(executables, workload, metrics):
    """Runs one workload's pairs; returns its printed rows and whether it
    failed."""
    runs = {side: [] for side in executables}
    for i in range(PAIRS):
        order = list(executables) if i % 2 == 0 else list(reversed(executables))
        for side in order:
            runs[side].append(run_once(executables[side], workload, BASE_SEED + i))
    failed_share = {side: sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
                    for side, results in runs.items()}
    rows, failed = [], failed_share["change"] > failed_share["parent"]
    if failed:
        rows.append(f"{workload}: failed share {failed_share['change']:.3g} "
                    f"(change) > {failed_share['parent']:.3g} (parent)  FAIL")
    for metric in metrics:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        lost, worse = regressed(parent, change, metric["better"])
        failed |= worse
        p50, c50 = statistics.median(parent), statistics.median(change)
        rows.append(f"{workload:<14} {name:<21} {p50:>12.6g} {c50:>12.6g} "
                    f"{c50 / p50:>7.3f} {lost:>2}/{PAIRS} {spread(parent):>10.4g}  "
                    f"{'FAIL' if worse else 'ok'}")
    return rows, failed


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = commit_of(argv[1]), commit_of("HEAD")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = bench["command"][bench["command"].index("--manifest-path") + 1]
    WORK.mkdir(parents=True, exist_ok=True)
    executables = {"parent": build(parent, "parent", manifest),
                   "change": build(change, "change", manifest)}
    print(f"{'workload':<14} {'metric':<21} {'parent p50':>12} {'change p50':>12} "
          f"{'ratio':>7} {'lost':>5} {'parent IQR':>10}  verdict")
    failed = False
    for workload in bench["workloads"]:
        rows, worse = gate_workload(executables, workload["name"], bench["end_to_end"])
        print("\n".join(rows), flush=True)
        failed |= worse
    print(f"A/B gate, {change} against {parent}: {'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
