#!/usr/bin/env python3
"""Public surface that only tests use: find it, and keep the list closed.

    python3 crates/bench/surface_check.py

Copies the tracked files to `target/surface-check/tree/` and there makes
crate-private, outside the test modules of CRATES, every `pub fn` and
`pub const fn`, every `pub const` (free or associated) and every named `pub`
field. It then checks (`cargo check --message-format=json`) the workspace's
libraries, bins and examples, and hwbench's bin with its tests. Each
definition that a privacy error points at (E0603, E0624), or that a
re-export error names (E0364), gets its `pub` back. A field privacy error
(E0616, E0451) points at the use, not the definition, so the fields it names
get theirs back by struct and field name. The check repeats until it passes.
The functions, constants and fields rustc then reports never used (or never
read) are the ones no library, binary, example or hwbench code uses. The
script prints them and exits 1 when one is reported and not in KEEP, or is in
KEEP and not reported: new test-only surface is deleted, made private, or
earns a KEEP entry, and a KEEP entry whose item found a production user (or
is gone) leaves the list.

What rustc cannot see, this check cannot either. A derived `PartialEq` reads
every field, so the fields of a type that derives it always count as read
(a derived `Debug` or `Clone` does not count). And a field that is only
written still counts as read when the write reads it first (`x += 1`,
`x = x.max(v)`): such write-only state is found by reading the code.

Only files whose text changed are rewritten, so the build in
`target/surface-check/target/` stays warm between runs. The parsing's
examples run with

    python3 -m doctest crates/bench/surface_check.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / "target" / "surface-check"
TREE = WORK / "tree"

# The source directories whose public surface is checked. The bench
# library excludes its bins: `repro` and hwbench are users, not surface. The
# units crate's macro declares every quantity's methods at once.
CRATES = ("crates/units/src", "crates/physics/src", "crates/afe/src", "crates/dsp/src",
          "crates/isif/src", "crates/core/src", "crates/rig/src", "crates/bench/src")
SKIP = ("crates/bench/src/bin/", "crates/units/src/macros.rs")

CHECKS = (
    ["cargo", "check", "--offline", "--keep-going", "--message-format=json",
     "--workspace", "--lib", "--bins", "--examples"],
    ["cargo", "check", "--offline", "--keep-going", "--message-format=json",
     "-p", "hotwire-bench", "--bin", "hwbench", "--profile", "test"],
)

# Every item the check may report, with its category and the test that
# needs it. A reference is an implementation or an analytic oracle a test
# compares production against; a hook reads production state no production
# accessor exposes, or pins one of ROADMAP's determinism contracts; a lint
# entry is the `is_empty` clippy's `len_without_is_empty` wants beside a
# public `len`.
KEEP = {
    "crates/afe/src/adc.rs: SigmaDeltaModulator::step_block":
        ("reference", "afe::chain::tests::fused_matches_stage_by_stage_passes"),
    "crates/afe/src/filter.rs: AntiAliasFilter::push_block":
        ("reference", "afe::chain::tests::fused_matches_stage_by_stage_passes"),
    "crates/afe/src/inamp.rs: InstrumentationAmp::amplify_block":
        ("reference", "afe::chain::tests::fused_matches_stage_by_stage_passes"),
    "crates/afe/src/bridge.rs: BridgeConfig::balance_heater_resistance":
        ("reference", "afe::bridge::tests::balance_condition"),
    "crates/physics/src/membrane.rs: MembraneState::step":
        ("reference", "physics::membrane::tests::cached_step_is_bit_identical_to_step"),
    "crates/physics/src/membrane.rs: MembraneState::step_cached":
        ("reference", "physics::membrane::tests::cached_step_is_bit_identical_to_step"),
    "crates/physics/src/membrane.rs: MembraneState::steady_state":
        ("reference", "crates/physics/tests/properties.rs::membrane_steady_state_is_fixed_point"),
    "crates/physics/src/kings_law.rs: KingsLaw::conductance_slope":
        ("reference", "physics::kings_law::tests::slope_decreases_with_speed_for_sqrt_law"),
    "crates/core/src/calibration.rs: TempCorrect::new":
        ("reference", "core::calibration::tests::temp_correct_regression_at_two_water_temperatures"),
    "crates/core/src/calibration.rs: TempCorrect::factor":
        ("reference", "core::calibration::tests::temp_correct_clamps_degenerate_overheat"),
    "crates/core/src/calibration.rs: TempCorrect::corrected_conductance":
        ("reference", "core::calibration::tests::temp_correct_regression_at_two_water_temperatures"),
    "crates/core/src/calibration.rs: KingCalibration::velocity_temp_corrected":
        ("reference", "core::calibration::tests::temp_correct_regression_at_two_water_temperatures"),
    "crates/core/src/calibration.rs: KingCalibration::velocity_sensitivity":
        ("reference", "core::calibration::tests::sensitivity_degrades_with_speed"),
    "crates/physics/src/sensor.rs: MafDie::kings_law":
        ("hook", "crates/physics/tests/properties.rs::thermal_walk_is_bit_identical_to_one_tick_walks"),
    "crates/physics/src/sensor.rs: MafDie::last_conductance":
        ("hook", "crates/physics/tests/properties.rs::thermal_walk_is_bit_identical_to_one_tick_walks"),
    "crates/physics/src/sensor.rs: MafDie::reference_temperature":
        ("hook", "crates/physics/tests/properties.rs::thermal_walk_is_bit_identical_to_one_tick_walks"),
    "crates/isif/src/eeprom.rs: CalibrationStore::slot_write_cycles":
        ("hook", "core::calibration::tests::repeated_stores_wear_both_slots_equally"),
    "crates/isif/src/uart.rs: FrameDecoder::in_flight_bytes":
        ("hook", "crates/isif/tests/properties.rs::uart_decode_is_invariant_to_slicing"),
    "crates/core/src/burst.rs: BurstController::meter":
        ("hook", "core::burst::tests::burst_windows_step_whole_frames"),
    "crates/core/src/flow_meter.rs: FlowMeter::adc_fault":
        ("hook", "rig::fault::tests::adc_events_install_and_clear_the_fault"),
    "crates/rig/src/campaign.rs: Campaign::with_jobs":
        ("hook", "tests/observability.rs::merged_snapshots_are_jobs_invariant_under_faults"),
    "crates/rig/src/campaign.rs: RunOutcome::label":
        ("hook", "rig::campaign::tests::campaign_runs_specs_in_order"),
    "crates/rig/src/fleet.rs: FleetSpec::with_batch_size":
        ("hook", "tests/fleet.rs::fleet_aggregates_bit_identical_across_jobs"),
    "crates/rig/src/fleet.rs: FleetSpec::shard":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetSpec::shards":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetSpec::run_sharded":
        ("hook", "tests/meter_trait.rs::heat_pulse_fleet_is_jobs_and_shard_invariant"),
    "crates/rig/src/fleet.rs: FleetShard::lines":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetShard::run_jobs":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetShard::spec":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetShard::start":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/fleet.rs: FleetShard::end":
        ("hook", "tests/fleet.rs::sharded_merge_reproduces_monolithic_bits"),
    "crates/rig/src/obs.rs: registry_snapshot":
        ("hook", "tests/observability.rs::registry_scopes_capture_campaigns_run_inside_them"),
    "crates/rig/src/record.rs: RunReductions::err_count":
        ("hook", "tests/record_equivalence.rs::faulted_run_reductions_match_full_trace"),
    "crates/rig/src/record.rs: TraceStore::faults":
        ("hook", "tests/record_equivalence.rs::faulted_run_reductions_match_full_trace"),
    "crates/rig/src/record.rs: TraceStore::supply_codes":
        ("hook", "tests/record_equivalence.rs::faulted_run_reductions_match_full_trace"),
    "crates/rig/src/record.rs: TraceStore::ts_in":
        ("hook", "tests/record_equivalence.rs::metrics_only_matches_full_trace_post_hoc"),
    "crates/rig/src/record.rs: TraceStore::last":
        ("hook", "rig::record::tests::row_iteration_round_trips"),
    "crates/rig/src/record.rs: TraceStore::is_empty":
        ("lint", "tests/record_equivalence.rs::metrics_only_endurance_run_holds_no_trace_bytes"),
    "crates/rig/src/sketch.rs: QuantileSketch::RELATIVE_ERROR":
        ("reference", "rig::sketch::tests::sketch_props::quantiles_match_exact_within_alpha"),
    "crates/bench/src/experiments/f4_maintenance.rs: PolicyCell::maintenance":
        ("hook", "bench::experiments::f4_maintenance::tests::fast_frontier_separates_the_policies"),
    "crates/bench/src/experiments/m1_modality.rs: ModalityCase::clean_median_cm_s":
        ("hook", "bench::experiments::m1_modality::tests::fast_head_to_head_separates_the_modalities"),
}

# A `pub fn` or `pub const fn`, a `pub const`, or a named `pub` field (only
# a field line starts with `pub`, a snake_case name and a colon).
PUB_ITEM = re.compile(r"^\s*pub (const )?fn |^\s*pub const [A-Z_][A-Z0-9_]*\s*:"
                      r"|^\s+pub [a-z_][a-z0-9_]*\s*:")
# The name a privatised line declares.
DECLARED = re.compile(r"^\s*pub(?:\(crate\))? (?:const fn |fn |const )?(\w+)")


def privatise(lines):
    """Makes each `pub fn`, `pub const fn`, `pub const` and named `pub`
    field outside a test module crate-private, in place; returns the
    indices of the changed lines.

    >>> src = ["pub fn a() {}", "impl S {", "    pub const fn b() {}",
    ...        "    pub const LIMIT: u32 = 8;", "}", "pub struct P<'a> {",
    ...        "    pub spec: &'a S,", "    pub(crate) end: usize,", "}",
    ...        "pub struct T(pub f64);", "#[cfg(test)]", "mod tests {",
    ...        "    pub fn c() {}", "}"]
    >>> privatise(src)
    [0, 2, 3, 6]
    >>> src[2:4]
    ['    pub(crate) const fn b() {}', '    pub(crate) const LIMIT: u32 = 8;']
    >>> src[6], src[9], src[12]
    ("    pub(crate) spec: &'a S,", 'pub struct T(pub f64);', '    pub fn c() {}')
    """
    changed, in_tests = [], False
    for i, line in enumerate(lines):
        if in_tests:
            in_tests = line != "}"
        elif line.startswith("mod ") and i > 0 and lines[i - 1].strip() == "#[cfg(test)]":
            in_tests = True
        elif PUB_ITEM.match(line):
            lines[i] = line.replace("pub ", "pub(crate) ", 1)
            changed.append(i)
    return changed


def spans(message):
    """Every (file, line) a compiler message or its notes point at.

    >>> note = {"spans": [{"file_name": "crates/dsp/src/fix.rs", "line_start": 9}],
    ...         "children": []}
    >>> spans({"spans": [{"file_name": "crates/core/src/cta.rs", "line_start": 3}],
    ...        "children": [note]})
    [('crates/core/src/cta.rs', 3), ('crates/dsp/src/fix.rs', 9)]
    """
    found = [(s["file_name"], s["line_start"]) for s in message["spans"]]
    for child in message["children"]:
        found += spans(child)
    return found


def never_used(message):
    """(file, line, name) of each function, constant or field a `dead_code`
    warning reports.

    rustc names several unused items of one impl (or unread fields of one
    struct) in one warning, with one primary span on each name; a name
    counts when its line declares it as a privatised `fn`, `const` or field.

    >>> def at(line, name, primary=True):
    ...     start = line.index(name) + 1
    ...     return {"file_name": "crates/dsp/src/iir.rs", "line_start": 7, "is_primary": primary,
    ...             "text": [{"text": line, "highlight_start": start,
    ...                       "highlight_end": start + len(name)}]}
    >>> warning = {"code": {"code": "dead_code"},
    ...            "message": "associated items `ORDER`, `Biquad`, and `magnitude` are never used",
    ...            "spans": [at("    pub(crate) const ORDER: usize = 2;", "ORDER"),
    ...                      at("    pub(crate) type Biquad = Fx;", "Biquad"),
    ...                      at("    pub(crate) fn magnitude(&self) -> f64 {", "magnitude")]}
    >>> [name for _, _, name in never_used(warning)]
    ['ORDER', 'magnitude']
    >>> fields = {"code": {"code": "dead_code"},
    ...           "message": "fields `spec` and `start` are never read",
    ...           "spans": [at("pub struct FleetShard<'a> {", "FleetShard", primary=False),
    ...                     at("    pub(crate) spec: &'a FleetSpec,", "spec"),
    ...                     at("    pub(crate) start: usize,", "start")]}
    >>> [name for _, _, name in never_used(fields)]
    ['spec', 'start']
    """
    if (message.get("code") or {}).get("code") != "dead_code":
        return []
    found = []
    for span in message["spans"]:
        if not span["is_primary"] or not span["text"]:
            continue
        text = span["text"][0]
        name = text["text"][text["highlight_start"] - 1:text["highlight_end"] - 1]
        match = DECLARED.match(text["text"])
        if match and match.group(1) == name:
            found.append((span["file_name"], span["line_start"], name))
    return found


def qualified(lines, index, name):
    """`Type::name` for a function or constant declared in an inherent impl,
    or a field declared in a struct, at `lines[index]`; `name` for a free
    function or constant.

    >>> src = ["impl<const N: usize> Ring<N> {", "    pub(crate) fn last(&self) {}", "}",
    ...        "pub(crate) fn free() {}", "pub struct Shard<'a> {",
    ...        "    pub(crate) end: usize,", "}"]
    >>> qualified(src, 1, "last"), qualified(src, 3, "free"), qualified(src, 5, "end")
    ('Ring::last', 'free', 'Shard::end')
    """
    indent = len(lines[index]) - len(lines[index].lstrip())
    for line in reversed(lines[:index]):
        if line.strip() not in ("", "{", "where") and len(line) - len(line.lstrip()) < indent:
            if line.lstrip().startswith("impl"):
                header = re.sub(r"^impl(<[^{]*?>)?\s+", "", line.strip())
                return re.match(r"[A-Za-z_]\w*", header).group(0) + "::" + name
            owner = re.match(r"\s*(?:pub(?:\(crate\))? )?struct (\w+)", line)
            if owner:
                return owner.group(1) + "::" + name
            break
    return name


def private_fields(message):
    """`Struct::field` for each field a field privacy error names.

    >>> private_fields("fields `spec` and `start` of struct `FleetShard` are private")
    ['FleetShard::spec', 'FleetShard::start']
    >>> private_fields("field `settle_s` of struct `hotwire_rig::RunOutcome` is private")
    ['RunOutcome::settle_s']
    """
    fields, owner = re.match(r"fields? (.*) of struct `([^`]+)` (?:is|are) private",
                             message).groups()
    owner = re.sub(r"<.*", "", owner).split("::")[-1]
    return [f"{owner}::{field}" for field in re.findall(r"`(\w+)`", fields)]


def sync_tree():
    """Mirrors the tracked files under TREE; returns the checked files'
    lines after privatising them, and each file's privatised line indices."""
    tracked = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout.split("\0")
    tracked = {f for f in tracked if f and (ROOT / f).is_file()}
    for path in TREE.rglob("*"):
        if path.is_file() and str(path.relative_to(TREE)) not in tracked:
            path.unlink()
    sources, changed = {}, {}
    for name in sorted(tracked):
        data = (ROOT / name).read_bytes()
        if name.endswith(".rs") and name.startswith(CRATES) and not name.startswith(SKIP):
            lines = data.decode().split("\n")
            changed[name] = set(privatise(lines))
            sources[name] = lines
            data = "\n".join(lines).encode()
        write_if_changed(TREE / name, data)
    return sources, changed


def write_if_changed(path, data):
    """Writes `data` unless `path` holds it already, so cargo's mtime-based
    fingerprints see only the files that changed."""
    if path.exists() and path.read_bytes() == data:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def check(command):
    """The compiler messages of one cargo invocation in TREE."""
    proc = subprocess.run(command, cwd=TREE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env={**os.environ, "CARGO_TARGET_DIR": str(WORK / "target")})
    messages = []
    for line in proc.stdout.splitlines():
        record = json.loads(line)
        if record.get("reason") == "compiler-message":
            messages.append(record["message"])
    if proc.returncode != 0 and not any(m["level"] == "error" for m in messages):
        sys.stderr.write(proc.stderr)
    return proc.returncode, messages


def restore(message, sources, changed):
    """Gives `pub` back to the privatised definitions an error points at or
    names; returns how many it restored."""
    code = (message.get("code") or {}).get("code")
    if code in ("E0451", "E0616"):
        # A private field: the error points at the use, so restore the
        # fields it names, by struct and field name.
        named = set(private_fields(message["message"]))
        hits = [(f, i) for f, lines in sources.items() for i in changed[f]
                if qualified(lines, i, DECLARED.match(lines[i]).group(1)) in named]
    else:
        hits = [(f, line - 1) for f, line in spans(message) if line - 1 in changed.get(f, ())]
    if not hits and code == "E0364":
        # `pub use` of a now-private item: the error points at the use, so
        # restore the crate's privatised definitions of that name.
        name = re.search(r"`(\w+)`", message["message"]).group(1)
        crate = message["spans"][0]["file_name"].split("/src/")[0] + "/src/"
        hits = [(f, i) for f, lines in sources.items() if f.startswith(crate)
                for i in changed[f] if DECLARED.match(lines[i]).group(1) == name]
    for f, i in hits:
        sources[f][i] = sources[f][i].replace("pub(crate) ", "pub ", 1)
        changed[f].discard(i)
    return len(hits)


def main():
    sources, changed = sync_tree()
    rounds = 0
    while True:
        rounds += 1
        outputs = []
        for command in CHECKS:
            status, messages = check(command)
            outputs.append(messages)
            errors = [m for m in messages if m["level"] == "error"]
            if status != 0:
                break
        else:
            break
        restored = sum(restore(m, sources, changed) for m in errors)
        if restored == 0:
            for m in errors:
                sys.stderr.write(m.get("rendered") or m["message"])
            sys.exit(f"round {rounds}: `{' '.join(command)}` failed, no definition to restore")
        for f, lines in sources.items():
            write_if_changed(TREE / f, "\n".join(lines).encode())
        print(f"round {rounds}: restored {restored} definitions", flush=True)
    reported = {f"{f}: {qualified(sources[f], line - 1, name)}"
                for message in outputs[0] for f, line, name in never_used(message)}
    print(f"{len(reported)} public items only tests use ({rounds} check rounds):")
    for key in sorted(reported):
        print(f"  {key}  " + ("[{}: {}]".format(*KEEP[key]) if key in KEEP else "NOT KEPT"))
    stale = sorted(set(KEEP) - reported)
    for key in stale:
        print(f"  {key}  KEPT, BUT A PRODUCTION CALLER USES IT (OR IT IS GONE)")
    return 1 if stale or reported - set(KEEP) else 0


if __name__ == "__main__":
    sys.exit(main())
