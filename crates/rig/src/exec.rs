//! Deterministic parallel execution of independent jobs.
//!
//! The rig's simulations are embarrassingly parallel: every co-simulation
//! run is a pure function of its spec and seed (see the threading contract
//! in `hotwire_core`). This module provides the one primitive the campaign
//! layer needs — [`parallel_map_indexed`] — built on [`std::thread::scope`]
//! so no extra dependencies are required.
//!
//! **Determinism guarantee.** Workers pull item indices from a shared
//! atomic counter and stash `(index, result)` pairs locally; results are
//! merged back into index order after all workers join. Which worker
//! computes which item varies with scheduling, but each item's computation
//! is self-contained, so the returned `Vec` is identical for any job count
//! — including `jobs == 1`, which runs inline on the caller's thread.
//!
//! The observability layer leans on this same guarantee: `rig::obs` merges
//! per-run snapshots by walking the returned `Vec` in order, so the merged
//! counters and histograms fold in deterministic spec order — and are
//! therefore bit-identical across job counts — precisely because this
//! function returns index-ordered results.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default job count used by [`default_jobs`]; 0 = "auto"
/// (use [`available_jobs`]).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads available to the process (≥ 1).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-wide default job count used by campaigns created with
/// `Campaign::new()`. `0` restores "auto" (all available cores).
///
/// This is the knob behind `repro --jobs N`. Because results are
/// jobs-invariant it only affects wall-clock time, never output.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The process-wide default job count: the value installed by
/// [`set_default_jobs`], or [`available_jobs`] when unset.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available_jobs(),
        n => n,
    }
}

/// Maps `f` over `items` using up to `jobs` worker threads, returning the
/// results in item order.
///
/// `f` receives `(index, &item)` so callers can derive per-item seeds from
/// the position. Work is distributed dynamically (atomic next-index
/// counter), so long and short items interleave without a static-partition
/// straggler; the output order is by construction independent of the
/// distribution.
///
/// With `jobs <= 1` (or fewer than two items) everything runs inline on
/// the calling thread — handy both as the reference for determinism tests
/// and to avoid nested thread pools when a parallel job itself calls a
/// campaign.
pub fn parallel_map_indexed<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if jobs <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let workers = jobs.min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                local
            }));
        }
        for handle in handles {
            // A panic in `f` propagates here, mirroring inline execution.
            for (i, value) in handle.join().expect("campaign worker panicked") {
                slots[i] = Some(value);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map_indexed(&items, 8, |i, &x| x * 2 + i as u64);
        let expect: Vec<u64> = (0..97).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn identical_for_any_job_count() {
        let items: Vec<u64> = (0..40).collect();
        let run = |jobs| {
            parallel_map_indexed(&items, jobs, |i, &x| {
                // A spin of work with data-dependent length so scheduling
                // actually varies between runs.
                let mut acc = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..(x % 7) * 1000 {
                    acc = acc.rotate_left(7) ^ i as u64;
                }
                acc
            })
        };
        let serial = run(1);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map_indexed(&[5u32], 4, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn default_jobs_roundtrip() {
        assert!(available_jobs() >= 1);
        // Don't assume the global is untouched; restore whatever was there.
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }
}
