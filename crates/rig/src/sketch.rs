//! Fixed-size mergeable quantile sketches for fleet-scale population
//! statistics.
//!
//! [`Percentiles::of`](crate::fleet::Percentiles::of) is exact but holds
//! one `f64` per line — fine at 1000 lines, fatal at a million. A
//! [`QuantileSketch`] replaces the per-line vector with logarithmic
//! buckets of *integer counts*: pushing a value increments one bucket,
//! and merging two sketches is plain `u64` addition bucket by bucket.
//! Integer addition is associative and commutative, so a merged sketch is
//! **bit-identical no matter how the population was grouped** — per line,
//! per batch, per shard, per process — which is exactly the property the
//! fleet's jobs-/batch-/shard-invariance contract needs. (A mergeable
//! *float* summary could not promise this: float addition is not
//! associative.)
//!
//! # Accuracy
//!
//! Buckets grow geometrically with ratio [`GAMMA`]: bucket `k` covers
//! `(γ^(k−1), γ^k]`, and a query returns the bucket's midpoint
//! `γ^k · 2/(γ+1)`. Any value in the bucket is therefore within
//! `α = (γ−1)/(γ+1)` **relative** error of the returned representative —
//! [`QuantileSketch::RELATIVE_ERROR`], ≈ 0.99 % at the default γ = 1.02.
//! Because bucketization is monotone, the rank walk lands in the bucket
//! that contains the true nearest-rank value, so the sketch's
//! nearest-rank quantile carries the same α bound (pinned by proptest
//! against the exact fold). Magnitudes outside `[1e-9, 1e9]` clamp to the
//! edge buckets; the tracked min/max stay exact regardless.
//!
//! # NaN
//!
//! NaN inputs never enter a bucket or the min/max: they are counted in
//! [`QuantileSketch::nan_count`] and excluded from ranks — the same
//! policy the exact [`Percentiles::of`](crate::fleet::Percentiles::of)
//! applies, so the sketch and exact paths agree on poisoned populations.

use std::collections::BTreeMap;

use crate::fleet::Percentiles;

/// Geometric bucket ratio. `α = (γ−1)/(γ+1) ≈ 0.0099`.
pub const GAMMA: f64 = 1.02;

/// A deterministic mergeable quantile sketch over `f64` values.
///
/// See the [module docs](self) for the determinism and accuracy story.
#[derive(Debug, Clone, Default)]
pub struct QuantileSketch {
    /// Bucket counts for positive values, keyed by `ceil(log_γ x)`.
    pos: BTreeMap<i32, u64>,
    /// Bucket counts for negative values, keyed by `ceil(log_γ |x|)`.
    neg: BTreeMap<i32, u64>,
    /// Exact zeros (±0.0).
    zero: u64,
    /// NaN inputs — counted, never ranked.
    nan: u64,
    /// Non-NaN values pushed.
    count: u64,
    /// Exact smallest non-NaN value (`NaN` while empty).
    min: f64,
    /// Exact largest non-NaN value (`NaN` while empty).
    max: f64,
}

/// Bucket key bound: `ceil(log_γ 1e9)`, so magnitudes above 1e9 (and
/// non-zero ones below 1e-9) clamp into the edge buckets.
const MAX_KEY: i32 = 1047;

// Bit-exact equality: the empty sketch carries `NaN` extrema, which the
// derived `PartialEq` would declare unequal to themselves. Two sketches
// are the same sketch iff every bucket count matches and the extrema
// match *as bit patterns* — the same contract the codec round-trips.
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.pos == other.pos
            && self.neg == other.neg
            && self.zero == other.zero
            && self.nan == other.nan
            && self.count == other.count
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
    }
}

impl Eq for QuantileSketch {}

impl QuantileSketch {
    /// Guaranteed relative error of a quantile query for magnitudes within
    /// `[1e-9, 1e9]`: `(γ−1)/(γ+1)`.
    pub const RELATIVE_ERROR: f64 = (GAMMA - 1.0) / (GAMMA + 1.0);

    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zero: 0,
            nan: 0,
            count: 0,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// The bucket key for a positive magnitude: `ceil(log_γ m)`, clamped
    /// to the supported range.
    fn key(magnitude: f64) -> i32 {
        let k = (magnitude.ln() / GAMMA.ln()).ceil();
        (k as i32).clamp(-MAX_KEY, MAX_KEY)
    }

    /// The representative value of bucket `k`: the midpoint estimate
    /// `γ^k · 2/(γ+1)`, within [`Self::RELATIVE_ERROR`] of every value
    /// the bucket covers.
    fn representative(key: i32) -> f64 {
        GAMMA.powi(key) * 2.0 / (GAMMA + 1.0)
    }

    /// Adds one value. NaN is counted but excluded from ranks and min/max.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        if x == 0.0 {
            self.zero += 1;
        } else if x > 0.0 {
            *self.pos.entry(Self::key(x)).or_insert(0) += 1;
        } else {
            *self.neg.entry(Self::key(-x)).or_insert(0) += 1;
        }
    }

    /// Folds `other` into `self`. Counts add as integers and min/max
    /// combine exactly, so merging is associative and commutative: any
    /// grouping of the same pushes produces a bit-identical sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.nan += other.nan;
        self.zero += other.zero;
        for (&k, &n) in &other.pos {
            *self.pos.entry(k).or_insert(0) += n;
        }
        for (&k, &n) in &other.neg {
            *self.neg.entry(k).or_insert(0) += n;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }

    /// Non-NaN values pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN values pushed (excluded from every rank).
    pub fn nan_count(&self) -> u64 {
        self.nan
    }

    /// The nearest-rank `q`-quantile estimate (`q` in `[0, 1]`), within
    /// [`Self::RELATIVE_ERROR`] of the exact nearest-rank value. The
    /// extreme ranks return the tracked min/max exactly. `NaN` while
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let n = self.count;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank == 1 {
            return self.min;
        }
        if rank == n {
            return self.max;
        }
        let mut seen = 0u64;
        // Ascending value order: negatives from largest magnitude down,
        // then zeros, then positives from smallest magnitude up.
        for (&k, &c) in self.neg.iter().rev() {
            seen += c;
            if seen >= rank {
                return self.clamped(-Self::representative(k));
            }
        }
        seen += self.zero;
        if seen >= rank {
            return 0.0;
        }
        for (&k, &c) in &self.pos {
            seen += c;
            if seen >= rank {
                return self.clamped(Self::representative(k));
            }
        }
        self.max
    }

    /// Clamps a bucket representative into the exact observed range.
    fn clamped(&self, x: f64) -> f64 {
        x.max(self.min).min(self.max)
    }

    /// The fleet's population summary from this sketch: exact min/max,
    /// α-bounded p50/p90/p99. All-NaN while empty — identical semantics
    /// to the exact [`Percentiles::of`](crate::fleet::Percentiles::of).
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            min: self.min,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Approximate retained heap, bytes (occupied buckets only — the
    /// sketch is O(occupied buckets), independent of how many values were
    /// pushed).
    pub fn heap_bytes(&self) -> usize {
        // BTreeMap node overhead is amortized; 3× the entry payload is a
        // conservative per-entry figure for the memory report.
        (self.pos.len() + self.neg.len()) * 3 * std::mem::size_of::<(i32, u64)>()
    }

    /// Serializes the sketch as one line of text (the checkpoint codec's
    /// building block): counts in decimal, min/max as `f64::to_bits` hex
    /// so the round-trip is bit-exact.
    pub fn encode(&self) -> String {
        let fields = |map: &BTreeMap<i32, u64>| -> String {
            if map.is_empty() {
                return "-".to_string();
            }
            map.iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "nan={} zero={} count={} min={:016x} max={:016x} neg={} pos={}",
            self.nan,
            self.zero,
            self.count,
            self.min.to_bits(),
            self.max.to_bits(),
            fields(&self.neg),
            fields(&self.pos),
        )
    }

    /// Parses a sketch serialized by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut sketch = QuantileSketch::new();
        let mut fields = 0u32;
        for token in text.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("sketch field `{token}` has no `=`"))?;
            let bad = |e: &dyn std::fmt::Display| format!("sketch field `{key}`: {e}");
            match key {
                "nan" => sketch.nan = value.parse().map_err(|e| bad(&e))?,
                "zero" => sketch.zero = value.parse().map_err(|e| bad(&e))?,
                "count" => sketch.count = value.parse().map_err(|e| bad(&e))?,
                "min" => {
                    sketch.min =
                        f64::from_bits(u64::from_str_radix(value, 16).map_err(|e| bad(&e))?)
                }
                "max" => {
                    sketch.max =
                        f64::from_bits(u64::from_str_radix(value, 16).map_err(|e| bad(&e))?)
                }
                "neg" | "pos" => {
                    let map = if key == "neg" {
                        &mut sketch.neg
                    } else {
                        &mut sketch.pos
                    };
                    if value != "-" {
                        for entry in value.split(',') {
                            let (k, v) = entry
                                .split_once(':')
                                .ok_or_else(|| format!("sketch bucket `{entry}` has no `:`"))?;
                            let k: i32 = k.parse().map_err(|e| bad(&e))?;
                            let v: u64 = v.parse().map_err(|e| bad(&e))?;
                            if !(-MAX_KEY..=MAX_KEY).contains(&k) {
                                return Err(format!("sketch bucket key {k} is outside ±{MAX_KEY}"));
                            }
                            if v == 0 {
                                return Err(format!("sketch bucket {k} is empty"));
                            }
                            if map.insert(k, v).is_some() {
                                return Err(format!("sketch bucket {k} is repeated"));
                            }
                        }
                    }
                }
                other => return Err(format!("unknown sketch field `{other}`")),
            }
            fields += 1;
        }
        if fields != 7 {
            return Err(format!("sketch line has {fields} fields, expected 7"));
        }
        // The counters must agree, or ranks walk off the buckets; a checked
        // sum keeps every later merge of this sketch from overflowing.
        let ranked = sketch
            .pos
            .values()
            .chain(sketch.neg.values())
            .try_fold(sketch.zero, |sum, &n| sum.checked_add(n));
        if ranked != Some(sketch.count) {
            return Err(format!(
                "sketch count {} disagrees with its zero and bucket counts",
                sketch.count
            ));
        }
        if sketch.count.checked_add(sketch.nan).is_none() {
            return Err("sketch count plus nan overflows".to_string());
        }
        Ok(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn empty_sketch_is_all_nan() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.quantile(0.5).is_nan());
        let p = s.percentiles();
        assert!(p.min.is_nan() && p.p50.is_nan() && p.max.is_nan());
    }

    #[test]
    fn min_max_are_exact_and_mids_are_bounded() {
        let values: Vec<f64> = (1..=500).map(|i| i as f64 * 0.37).collect();
        let s = sketch_of(&values);
        assert_eq!(s.min.to_bits(), (0.37f64).to_bits());
        assert_eq!(s.max.to_bits(), (500.0 * 0.37f64).to_bits());
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[((q * sorted.len() as f64).ceil() as usize).max(1) - 1];
            let est = s.quantile(q);
            assert!(
                (est - exact).abs() <= QuantileSketch::RELATIVE_ERROR * exact.abs() + 1e-12,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn nan_is_counted_not_ranked() {
        let s = sketch_of(&[1.0, f64::NAN, 2.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.nan_count(), 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(s.quantile(0.99).is_finite());
        let all_nan = sketch_of(&[f64::NAN, f64::NAN]);
        assert_eq!(all_nan.nan_count(), 2);
        assert!(all_nan.percentiles().p50.is_nan());
    }

    #[test]
    fn negative_zero_positive_ordering() {
        let s = sketch_of(&[-5.0, -0.5, 0.0, 0.5, 5.0]);
        assert_eq!(s.min, -5.0);
        assert_eq!(s.max, 5.0);
        // Rank 3 of 5 is the zero bucket.
        assert_eq!(s.quantile(0.5), 0.0);
        // Rank 2 lands in the small-negative bucket.
        let q = s.quantile(0.25);
        assert!(
            (q + 0.5).abs() <= 0.5 * QuantileSketch::RELATIVE_ERROR + 1e-12,
            "q25 {q}"
        );
    }

    #[test]
    fn merge_equals_bulk_push() {
        let a: Vec<f64> = (0..137).map(|i| (i as f64 * 0.71).sin() * 40.0).collect();
        let b: Vec<f64> = (0..91).map(|i| (i as f64 * 1.13).cos() * 4.0e3).collect();
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let mut bulk = QuantileSketch::new();
        for &v in a.iter().chain(&b) {
            bulk.push(v);
        }
        assert_eq!(merged, bulk);
        assert_eq!(merged.encode(), bulk.encode());
    }

    #[test]
    fn encode_decode_round_trips_bit_exact() {
        let s = sketch_of(&[1.5, -2.25, 0.0, f64::NAN, 3.0e6, 1e-7]);
        let decoded = QuantileSketch::decode(&s.encode()).unwrap();
        assert_eq!(s, decoded);
        assert_eq!(s.min.to_bits(), decoded.min.to_bits());
        assert_eq!(s.max.to_bits(), decoded.max.to_bits());
        // Empty round-trips too (NaN min/max bits preserved).
        let empty = QuantileSketch::new();
        let decoded = QuantileSketch::decode(&empty.encode()).unwrap();
        assert_eq!(empty, decoded);
        assert_eq!(empty.min.to_bits(), decoded.min.to_bits());
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(QuantileSketch::decode("").is_err());
        assert!(QuantileSketch::decode("nan=1").is_err());
        assert!(QuantileSketch::decode("nan=x zero=0 count=0 min=0 max=0 neg=- pos=-").is_err());
        assert!(
            QuantileSketch::decode("nan=0 zero=0 count=0 min=0 max=0 neg=- pos=1:2:3").is_err()
        );
        let max = u64::MAX;
        for hostile in [
            // A count its buckets do not back (p50 would read NaN).
            "nan=0 zero=0 count=7 min=0 max=0 neg=- pos=1:1".to_string(),
            // A key outside ±MAX_KEY.
            "nan=0 zero=0 count=1 min=0 max=0 neg=- pos=5000:1".to_string(),
            "nan=0 zero=0 count=1 min=0 max=0 neg=-1048:1 pos=-".to_string(),
            // A repeated key and an empty bucket.
            "nan=0 zero=0 count=2 min=0 max=0 neg=- pos=3:1,3:1".to_string(),
            "nan=0 zero=0 count=1 min=0 max=0 neg=- pos=3:1,4:0".to_string(),
            // Counts whose sum, or whose total with `nan`, overflows.
            format!("nan=0 zero=1 count={max} min=0 max=0 neg=- pos=3:{max}"),
            format!("nan=1 zero={max} count={max} min=0 max=0 neg=- pos=-"),
        ] {
            assert!(QuantileSketch::decode(&hostile).is_err(), "{hostile}");
        }
        // The edge keys themselves are fine.
        let edges = "nan=0 zero=0 count=2 min=0 max=0 neg=-1047:1 pos=1047:1";
        assert!(QuantileSketch::decode(edges).is_ok());
    }

    mod sketch_props {
        use super::*;
        use proptest::prelude::*;

        /// `decode(text)` must not panic; an accepted sketch must hold
        /// `count == zero + Σ buckets` and decode its own encoding back to
        /// itself.
        fn check_decode(text: &str) {
            let decoded = std::panic::catch_unwind(|| QuantileSketch::decode(text));
            let Ok(decoded) = decoded else {
                panic!("decode panicked on {text:?}");
            };
            if let Ok(sketch) = decoded {
                let buckets: u64 = sketch.pos.values().chain(sketch.neg.values()).sum();
                assert_eq!(sketch.count, sketch.zero + buckets, "accepted {text:?}");
                assert_eq!(
                    QuantileSketch::decode(&sketch.encode()),
                    Ok(sketch),
                    "{text:?} does not round-trip"
                );
            }
        }

        proptest! {
            /// Merging is associative bucket-for-bucket: any grouping of
            /// the same values produces a bit-identical sketch. This is
            /// the property the fleet's shard merge stands on.
            #[test]
            fn merge_is_associative(
                xs in proptest::collection::vec(-1.0e4f64..1.0e4, 0..120),
                cut_a in 0usize..120,
                cut_b in 0usize..120,
            ) {
                let a = cut_a.min(xs.len());
                let b = cut_b.min(xs.len()).max(a);
                let (s1, s2, s3) = (
                    sketch_of(&xs[..a]),
                    sketch_of(&xs[a..b]),
                    sketch_of(&xs[b..]),
                );
                // (s1 ⊕ s2) ⊕ s3
                let mut left = s1.clone();
                left.merge(&s2);
                left.merge(&s3);
                // s1 ⊕ (s2 ⊕ s3)
                let mut tail = s2.clone();
                tail.merge(&s3);
                let mut right = s1.clone();
                right.merge(&tail);
                prop_assert_eq!(&left, &right);
                prop_assert_eq!(left.encode(), right.encode());
                // And both equal the unsharded push order.
                prop_assert_eq!(&left, &sketch_of(&xs));
            }

            /// Every quantile estimate is within RELATIVE_ERROR of the
            /// exact nearest-rank value over the same population.
            #[test]
            fn quantiles_match_exact_within_alpha(
                xs in proptest::collection::vec(1.0e-3f64..1.0e3, 1..200),
                q in 0.0f64..=1.0,
            ) {
                let s = sketch_of(&xs);
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let est = s.quantile(q);
                prop_assert!(
                    (est - exact).abs()
                        <= QuantileSketch::RELATIVE_ERROR * exact.abs() + 1e-12,
                    "q={} est={} exact={}", q, est, exact
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Hostile text, as token soup: `decode` returns `Ok` or `Err`
            /// and never panics, and whatever it accepts is consistent and
            /// round-trips.
            #[test]
            fn decode_survives_token_soup(
                picks in proptest::collection::vec(any::<u8>(), 0..48),
            ) {
                const SOUP: [&str; 24] = [
                    "nan", "zero", "count", "min", "max", "neg", "pos", "=", "=", " ", " ",
                    ",", ":", "-", "0", "1", "7", "-1047", "1048", "18446744073709551615",
                    "7ff8000000000000", "fff0000000000000", "-1", "x",
                ];
                let text: String = picks.iter().map(|&p| SOUP[p as usize % SOUP.len()]).collect();
                check_decode(&text);
                // The same bytes as raw (lossy) text.
                check_decode(&String::from_utf8_lossy(&picks));
            }

            /// A valid encoding of random values — zeros, NaNs and both
            /// signs among them — with one byte replaced, deleted or
            /// inserted: `decode` never panics, and whatever it accepts is
            /// consistent and round-trips.
            #[test]
            fn decode_survives_one_byte_mutation(
                xs in proptest::collection::vec(-1.0e12f64..1.0e12, 0..60),
                specials in proptest::collection::vec(0u8..4, 0..8),
                op in 0u8..3,
                at in any::<usize>(),
                byte in any::<u8>(),
            ) {
                let mut sketch = sketch_of(&xs);
                for s in specials {
                    sketch.push([0.0, -0.0, f64::NAN, 1e-300][s as usize]);
                }
                let text = sketch.encode();
                prop_assert_eq!(QuantileSketch::decode(&text), Ok(sketch));
                let mut bytes = text.into_bytes();
                let i = at % (bytes.len() + 1);
                match op {
                    0 if i < bytes.len() => bytes[i] = byte,
                    1 if i < bytes.len() => {
                        bytes.remove(i);
                    }
                    _ => bytes.insert(i, byte),
                }
                check_decode(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
