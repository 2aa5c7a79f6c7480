#!/usr/bin/env python3
"""Compare a fresh `repro --json` file with the committed BENCH_obs.json.

    python3 crates/bench/obs_compare.py FRESH COMMITTED

Both files are flattened to their leaves, each named by its path from the
root (`$.obs.total.counters.control_ticks`; a list element that carries an
`id` is named by it, any other by its index). The keys `wall_s`,
`samples_per_s` and `jobs` are dropped at every depth: they are clock and
job-count fields, and every other leaf is deterministic at any `--jobs`.
A leaf present in one file only counts as a difference, in either
direction. The script prints each differing path with both values, then
the count, and exits 1 on any difference, 0 otherwise.

A change that moves a metric on purpose regenerates the committed file with
`repro --fast --jobs 4 --json BENCH_obs.json all`; run against the old file,
the script then lists exactly the paths that moved.
"""

import json
import sys

IGNORED = {"wall_s", "samples_per_s", "jobs"}


def leaves(x, path="$"):
    """Yields (path, value) for every leaf under `x`, skipping IGNORED keys.

    >>> list(leaves({"a": [1, {"id": "e1", "jobs": 2, "v": 3}], "wall_s": 4}))
    [('$.a[0]', 1), ('$.a[e1].id', 'e1'), ('$.a[e1].v', 3)]
    """
    if isinstance(x, dict):
        for key, value in x.items():
            if key not in IGNORED:
                yield from leaves(value, f"{path}.{key}")
    elif isinstance(x, list):
        for i, value in enumerate(x):
            label = value.get("id", i) if isinstance(value, dict) else i
            yield from leaves(value, f"{path}[{label}]")
    else:
        yield path, x


def main(fresh_path, committed_path):
    with open(fresh_path) as f:
        fresh = dict(leaves(json.load(f)))
    with open(committed_path) as f:
        committed = dict(leaves(json.load(f)))
    differing = [
        p
        for p in sorted(fresh.keys() | committed.keys())
        if fresh.get(p, "absent") != committed.get(p, "absent")
    ]
    for p in differing:
        print(
            f"{p}: {fresh.get(p, 'absent')} (fresh) != "
            f"{committed.get(p, 'absent')} (committed)"
        )
    print(f"{len(fresh)} fields compared, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 crates/bench/obs_compare.py FRESH COMMITTED")
    sys.exit(main(sys.argv[1], sys.argv[2]))
