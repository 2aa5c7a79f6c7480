//! Metric definitions, the result line the benchmark prints, and the
//! small amount of JSON writing and statistics the harness needs (the
//! workspace vendors no JSON crate).

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric: what the result line reports under `name`.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for per-layer
    /// metrics, which carry no bound).
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

/// The end-to-end metrics every workload reports with tracing off. The
/// bounds are set from measured spreads (see the README).
pub const END_TO_END: [MetricSpec; 5] = [
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "host time before the timed region (median of 5 set-ups)",
    ),
    e2e(
        "wall_s",
        "s",
        Better::Lower,
        0.25,
        "host time of one fixed unit of the workload's work (median over the run)",
    ),
    e2e(
        "control_frames_per_s",
        "1/s",
        Better::Higher,
        0.25,
        "simulated control frames in one unit per host second of the median unit",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        Better::Lower,
        0.25,
        "peak resident set of the workload process (VmHWM)",
    ),
    e2e(
        "dut_err_rms_pct_fs",
        "%FS",
        Better::Lower,
        0.10,
        "simulated: RMS of DUT minus truth, % of full scale (model vs its own truth)",
    ),
];

/// The per-layer metrics every traced run reports: standalone replays of
/// the meter's kernels and reference instruments at the call shapes the
/// meter uses, each layer's share of the traced unit's thread time (zero
/// where a workload does not cross the layer), plus the trace's own
/// accounting. Every name is reported by every workload, so no time here
/// is a constant zero. The replays (the first 15) do not depend on the
/// workload or the seed: every workload's result line carries the same
/// measurement, which bears on the workloads that call those kernels. The
/// workload-specific ledger in absolute units (runner, recorder, fleet,
/// checkpoint, exec and ingest spans) is printed alongside by
/// `hwbench trace`.
pub const PER_LAYER: [MetricSpec; 24] = [
    layer(
        "physics.die_step_ns",
        "ns",
        Better::Lower,
        "one exact-tier MafDie::step (estimate)",
    ),
    layer(
        "physics.die_rng_draws",
        "count",
        Better::Lower,
        "RNG words one die step draws",
    ),
    layer(
        "afe.bridge_solve_ns",
        "ns",
        Better::Lower,
        "one BridgeConfig::solve (estimate)",
    ),
    layer(
        "isif.draw_noise_ns",
        "ns",
        Better::Lower,
        "one InputChannel::draw_noise (estimate)",
    ),
    layer(
        "isif.sample_block_ns",
        "ns",
        Better::Lower,
        "one frame-sized InputChannel::sample_block (estimate)",
    ),
    layer(
        "isif.dc_code_ns",
        "ns",
        Better::Lower,
        "one fast-tier InputChannel::dc_code (estimate)",
    ),
    layer(
        "dsp.pi_update_ns",
        "ns",
        Better::Lower,
        "one PiController::update (estimate)",
    ),
    layer(
        "rng.draws_per_frame.exact",
        "count",
        Better::Lower,
        "RNG words one exact-tier control frame draws",
    ),
    layer(
        "rng.draws_per_frame.fast",
        "count",
        Better::Lower,
        "RNG words one fast-tier control frame draws",
    ),
    layer(
        "core.step_frame_ns.exact",
        "ns",
        Better::Lower,
        "one exact-tier FlowMeter::step_frame on the water-station profile",
    ),
    layer(
        "core.step_frame_ns.fast",
        "ns",
        Better::Lower,
        "one fast-tier FlowMeter::step_frame on the test profile",
    ),
    layer(
        "core.firmware_residual_ns_per_frame.fast",
        "ns",
        Better::Lower,
        "fast step_frame minus the kernel estimates it calls (estimate)",
    ),
    layer(
        "rig.line.step_ns",
        "ns",
        Better::Lower,
        "one WaterLine::step at the control period (estimate)",
    ),
    layer(
        "rig.promag.step_ns",
        "ns",
        Better::Lower,
        "one Promag50::step, RNG draw included (estimate)",
    ),
    layer(
        "rig.turbine.step_ns",
        "ns",
        Better::Lower,
        "one TurbineMeter::step (estimate)",
    ),
    layer(
        "core.meter.share",
        "ratio",
        Better::Lower,
        "Meter calls over traced thread time (every share is over jobs x wall)",
    ),
    layer(
        "rig.runner.share",
        "ratio",
        Better::Lower,
        "LineRunner glue (line, references, faults, maintenance) and line build",
    ),
    layer(
        "rig.record.share",
        "ratio",
        Better::Lower,
        "Recorder calls and their finish",
    ),
    layer(
        "rig.fleet.share",
        "ratio",
        Better::Lower,
        "ShardAggregates push, merge and finalize",
    ),
    layer(
        "rig.checkpoint.share",
        "ratio",
        Better::Lower,
        "FleetCheckpoint encode, write and decode",
    ),
    layer(
        "rig.ingest.share",
        "ratio",
        Better::Lower,
        "MeterSession offer, poll and finish plus report absorb",
    ),
    layer(
        "rig.exec.idle_frac",
        "ratio",
        Better::Lower,
        "worker time left idle: 1 - busy / (jobs x wall)",
    ),
    layer(
        "trace.overhead_frac",
        "ratio",
        Better::Lower,
        "traced minus untraced unit wall, over untraced (same size)",
    ),
    layer(
        "trace.coverage",
        "ratio",
        Better::Higher,
        "layer self times over traced wall",
    ),
];

/// Looks a metric up in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The result line of one benchmark run: the last line of standard
/// output, in the shape `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// rendering keeps; non-finite values have no JSON spelling and become
/// `null` (which a reader of the line then rejects, as it should).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; `NaN` for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_bounds_are_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "`{name}` declared twice");
            assert!(name.len() <= 64, "`{name}` too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
                "`{name}` has a character outside [A-Za-z0-9_.]"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = spec("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn result_line_has_the_declared_shape_and_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.812_734_561_2, "s".into()),
                ("dut_err_rms_pct_fs".into(), 1.0e-7, "%FS".into()),
            ],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127345612, \"unit\": \"s\"}, \
             \"dut_err_rms_pct_fs\": {\"value\": 0.0000001, \"unit\": \"%FS\"}}}"
        );
        // A printed value reads back bit for bit.
        for x in [0.1 + 0.2, 11_234.567_890_123, 1.0e-300, 123_456_789.0, 2.5] {
            assert_eq!(json_number(x).parse::<f64>(), Ok(x));
        }
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(
            json_string("a \"b\"\\\n\u{1}"),
            "\"a \\\"b\\\"\\\\\\n\\u0001\""
        );
    }

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
