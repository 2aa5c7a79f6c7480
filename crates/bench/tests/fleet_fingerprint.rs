//! Pinned fleet-spec fingerprints.
//!
//! A checkpoint stores its spec's `FleetSpec::fingerprint` and a resume
//! under any other value is refused with `CheckpointError::SpecMismatch`.
//! The fingerprint hashes the spec's `Debug` text, so renaming, adding,
//! dropping or reordering a field of any type that text reaches moves it
//! as surely as changing a value does. These pins make such a move show:
//! the F2 fleet as `repro f2` runs it, and the same fleet in the shape of
//! `hwbench`'s `fleet_fast` workload.

use hotwire_bench::experiments::{f2_fleet, f4_maintenance};
use hotwire_core::config::AfeTier;
use hotwire_rig::LineConfig;

/// Lines and scenario seconds of the pinned F2 fleet.
const LINES: usize = 16;
const DURATION_S: f64 = 6.0;

/// `fingerprint()` of `f2_fleet::fleet_spec(16, 6.0)`.
const F2_FINGERPRINT: u64 = 0x8794_4162_8638_29c3;
/// `fingerprint()` of that spec on the fast tier with the F4 hybrid
/// maintenance policy and the sketch path from line 0.
const FLEET_FAST_FINGERPRINT: u64 = 0x3f37_e269_e2c6_cbf6;

fn assert_pinned(name: &str, found: u64, pinned: u64) {
    assert_eq!(
        found, pinned,
        "{name} fingerprint moved from {pinned:#018x} to {found:#018x}: every \
         checkpoint written before this change is now refused with \
         `CheckpointError::SpecMismatch`; record the move in CHANGES.md and \
         update the pin"
    );
}

#[test]
fn fleet_spec_fingerprints_are_pinned() {
    let spec = f2_fleet::fleet_spec(LINES, DURATION_S);
    assert_pinned("f2 fleet", spec.fingerprint(), F2_FINGERPRINT);

    let [_, _, _, (_, hybrid)] = f4_maintenance::policies(DURATION_S);
    let fast = spec
        .with_config(
            LineConfig::new()
                .with_afe_tier(AfeTier::Fast)
                .with_maintenance(hybrid),
        )
        .with_exact_threshold(0);
    assert_pinned(
        "fleet_fast-shaped",
        fast.fingerprint(),
        FLEET_FAST_FINGERPRINT,
    );
}
