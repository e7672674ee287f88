//! HDR-style fixed-bucket histograms over `u64` values.
//!
//! The bucket layout is a compile-time constant, shared by every histogram:
//! values 0–3 get exact buckets; from 4 up, each power-of-two octave
//! `[2^k, 2^(k+1))` is divided into four linear sub-buckets, giving 25 %
//! worst-case relative error all the way to `u64::MAX`. Because the layout
//! never adapts to the data, merging histograms is exact (bucket-wise
//! addition) and renderings are byte-stable — the properties the golden
//! metrics snapshots and the fault-injection matrices rely on.
//!
//! Values are virtual-time cost units, counts or sizes — never wall-clock
//! readings — so recorded histograms are fully deterministic.

/// Sub-buckets per power-of-two octave (as a shift: 2² = 4).
const SUB_BITS: u32 = 2;

/// Buckets below the first full octave: exact values 0, 1, 2, 3.
const EXACT: usize = 1 << SUB_BITS;

/// Total bucket count: 4 exact buckets, then 4 sub-buckets for each of the
/// octaves starting at 2^2 … 2^63.
pub const NUM_BUCKETS: usize = EXACT + (64 - SUB_BITS as usize) * EXACT;

/// Index of the bucket containing `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    // Highest set bit position; v >= 4 so msb >= 2.
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    EXACT + ((msb - SUB_BITS) as usize) * EXACT + sub
}

/// Inclusive `[lo, hi]` value range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket {index} out of range");
    let lo_of = |i: usize| -> u64 {
        if i < EXACT {
            return i as u64;
        }
        let octave = ((i - EXACT) / EXACT) as u32 + SUB_BITS;
        let sub = ((i - EXACT) % EXACT) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - SUB_BITS))
    };
    let hi = if index + 1 == NUM_BUCKETS {
        u64::MAX
    } else {
        lo_of(index + 1) - 1
    };
    (lo_of(index), hi)
}

/// A fixed-layout histogram: per-bucket counts plus exact count, sum, min
/// and max. `sum` saturates at `u64::MAX`; saturating addition is
/// associative and commutative, so merging stays order-independent even at
/// the ceiling.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` bucket-wise; no observation is lost.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q · count)`,
    /// clamped to the recorded maximum. `None` on an empty histogram.
    ///
    /// Like everything about the bucket layout this is deterministic and
    /// merge-stable: two merged histograms report the same quantile as one
    /// histogram fed both streams. Precision follows the layout (exact
    /// below 4, ≤ 25 % relative error above), which is what the load-test
    /// harness reports as p50/p99.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) with a floor of 1: the q-quantile is the value
        // such that at least that share of observations are <= it.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                let (_, hi) = bucket_bounds(i);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, in value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, *c)
            })
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_tile_the_domain() {
        // Consecutive buckets are adjacent, starting at 0 and ending at MAX.
        assert_eq!(bucket_bounds(0).0, 0);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "gap/overlap after bucket {i}");
        }
    }

    #[test]
    fn index_agrees_with_bounds() {
        for v in [0, 1, 3, 4, 5, 7, 8, 100, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Above the exact range, bucket width <= lo / 4.
        for i in EXACT..NUM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!(hi - lo <= lo / EXACT as u64, "bucket {i} too wide");
        }
    }

    #[test]
    fn record_and_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1, 5, 5, 900] {
            a.record(v);
        }
        for v in [0, 5, 1_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 1 + 5 + 5 + 900 + 5 + 1_000_000);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(1_000_000));
        let total: u64 = a.nonzero_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, 7, "bucket counts preserve every observation");
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Exact buckets below 4; <= 25% relative error above.
        assert_eq!(h.quantile(0.0), Some(1));
        let p50 = h.quantile(0.5).expect("recorded");
        assert!((50..=63).contains(&p50), "p50 was {p50}");
        let p99 = h.quantile(0.99).expect("recorded");
        assert!((99..=127).contains(&p99), "p99 was {p99}");
        // The top quantile clamps to the recorded maximum, not the bucket
        // upper bound.
        assert_eq!(h.quantile(1.0), Some(100));
        // Quantiles are merge-stable: merging two halves matches one
        // histogram fed the whole stream.
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for v in 1..=50u64 {
            a.record(v);
        }
        for v in 51..=100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.quantile(0.5), h.quantile(0.5));
        assert_eq!(a.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }
}
