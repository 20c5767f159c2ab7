//! A fixed-footprint log-linear latency histogram.
//!
//! The serving harness needs miss-path tail latency (p50/p95/p99) over
//! runs of 10⁶–10⁸ dispatches. The event ring ([`crate::EventRing`]) holds
//! only the newest window of a run, so percentiles computed from events
//! alone silently degrade to "the last few seconds". This histogram is
//! the complement: every sample lands in one of a fixed set of buckets —
//! recording is a handful of integer ops and **never allocates**, so the
//! runtime can fold every miss into it without perturbing the warm path,
//! and merging per-thread histograms after a run is exact.
//!
//! Buckets are log-linear (HdrHistogram-style): values below 2^[`SUB_BITS`]
//! are exact; above that, each power-of-two octave is split into
//! 2^[`SUB_BITS`] linear sub-buckets, bounding the relative quantization
//! error at 1/2^[`SUB_BITS`] (12.5%) across the full `u64` range.

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets, so reported quantiles are within `1/2^SUB_BITS` (12.5%) of
/// the true value.
pub const SUB_BITS: u32 = 3;

const SUBS: usize = 1 << SUB_BITS;
/// Bucket count: the exact region (`2^SUB_BITS` buckets) plus
/// `2^SUB_BITS` buckets for each of the `64 - SUB_BITS` remaining
/// octaves. Every consumer of the histogram's buckets (the live
/// sampler's atomic mirror, `dycstat`'s reports) indexes against this
/// same constant.
pub const BUCKET_COUNT: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// The shared bucket-boundary table: `BUCKET_FLOORS[i]` is the lower
/// bound of the value range bucket `i` covers, i.e.
/// `bucket_lower_bound(i)` for every index. There is exactly one
/// bucketing scheme in the workspace — every histogram (mutable or
/// atomic) and every report quantizes against this table.
pub const BUCKET_FLOORS: [u64; BUCKET_COUNT] = {
    let mut t = [0u64; BUCKET_COUNT];
    let mut i = 0;
    while i < BUCKET_COUNT {
        t[i] = bucket_lower_bound(i);
        i += 1;
    }
    t
};

/// A log-linear histogram of `u64` samples (nanoseconds, by convention).
///
/// # Error bound
///
/// Reported percentiles are the lower bound of the bucket holding the
/// ranked sample ([`BUCKET_FLOORS`]), so a reported quantile `q`
/// satisfies `q ≤ true value < q + q/2^SUB_BITS + 1` — the relative
/// error is below 1/2^[`SUB_BITS`] (12.5%), one-sided (never above the
/// true value). Values below `2^SUB_BITS`, the maximum, and counts/sums
/// are exact; only quantiles between are quantized.
///
/// # Examples
///
/// ```
/// use dyc_obs::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [100, 200, 300, 400, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 10_000);
/// // The median sample is 300; the reported value is its bucket's
/// // lower bound, within 12.5% below.
/// let p50 = h.percentile(50.0);
/// assert!((263..=300).contains(&p50), "p50 within 12.5% of 300: {p50}");
/// assert_eq!(h.percentile(99.9), 10_000); // top rank: exact max
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKET_COUNT]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// The bucket a sample lands in: values below `2^SUB_BITS` map to
/// their own bucket (exact); above that, bucket = octave × sub-bucket.
/// The inverse (to bucket resolution) is [`bucket_lower_bound`].
pub const fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUBS as u64 - 1);
    ((octave - SUB_BITS + 1) as usize) * SUBS + sub as usize
}

/// Lower bound of the value range bucket `i` covers (its reported
/// representative value). `BUCKET_FLOORS` tabulates this for every
/// index.
pub const fn bucket_lower_bound(i: usize) -> u64 {
    if i < SUBS {
        return i as u64;
    }
    let octave = (i / SUBS - 1) as u32 + SUB_BITS;
    let sub = (i % SUBS) as u64;
    (1u64 << octave) | (sub << (octave - SUB_BITS))
}

impl LatencyHistogram {
    /// An empty histogram. One heap allocation (~4 KB), here and never
    /// again.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: Box::new([0; BUCKET_COUNT]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuild a histogram from raw parts — the bridge from the live
    /// layer's atomic bucket mirror, which shares [`BUCKET_FLOORS`].
    /// The count is recomputed from the buckets so the
    /// `count == Σ buckets` identity holds by construction even if the
    /// caller read its totals racily.
    pub(crate) fn from_parts(
        buckets: Box<[u64; BUCKET_COUNT]>,
        sum: u64,
        max: u64,
    ) -> LatencyHistogram {
        let count = buckets.iter().sum();
        LatencyHistogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Fold one sample in: two shifts, a mask, three adds. No
    /// allocation, no branches on the histogram's state.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram's samples into this one (exact — buckets
    /// are positionally identical).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The windowed delta `self − earlier`: the samples recorded between
    /// two cumulative snapshots of the same histogram. Buckets, count,
    /// and sum subtract (saturating, so racy snapshot pairs degrade to
    /// empty buckets rather than wrapping); the `max` is carried over
    /// from `self` because only the cumulative maximum is tracked —
    /// window quantiles stay exact, the window max is an upper bound.
    pub fn diff(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut buckets = Box::new([0u64; BUCKET_COUNT]);
        for (i, d) in buckets.iter_mut().enumerate() {
            *d = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        let count = buckets.iter().sum();
        LatencyHistogram {
            buckets,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (exact, not quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at or below which `p` percent of samples fall, to
    /// bucket resolution (the bucket's lower bound; within 12.5% of the
    /// true value). Returns 0 for an empty histogram; `p` is clamped to
    /// `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        if rank >= self.count {
            // The highest-ranked sample is the max, which is tracked
            // exactly — skip the bucket walk and its quantization.
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The max is tracked exactly; never report a quantile
                // above it.
                return BUCKET_FLOORS[i].min(self.max);
            }
        }
        self.max
    }

    /// Convenience tuple: (p50, p95, p99, max).
    pub fn quantiles(&self) -> (u64, u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
            self.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        for v in 0..8u64 {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 28);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of_within_resolution() {
        for v in [8u64, 100, 1000, 12_345, 1 << 20, u64::MAX / 3, u64::MAX] {
            let f = bucket_lower_bound(bucket_index(v));
            assert!(f <= v, "floor {f} above sample {v}");
            // Next bucket starts within 12.5% above the floor.
            assert!(
                v - f <= f / SUBS as u64 + 1,
                "sample {v} quantized too coarsely (floor {f})"
            );
        }
    }

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut last = 0;
        for v in (0..60).map(|s| 1u64 << s) {
            let b = bucket_index(v);
            assert!(b >= last && b < BUCKET_COUNT);
            last = b;
        }
        assert!(bucket_index(u64::MAX) < BUCKET_COUNT);
    }

    #[test]
    fn shared_floor_table_matches_the_functions_everywhere() {
        let mut prev = None;
        for (i, &floor) in BUCKET_FLOORS.iter().enumerate() {
            assert_eq!(floor, bucket_lower_bound(i), "table diverges at {i}");
            // The table is its own inverse through bucket_index: every
            // floor is the smallest value landing in its bucket.
            assert_eq!(bucket_index(floor), i, "floor {floor} not in bucket {i}");
            if let Some(p) = prev {
                assert!(floor > p, "floors not strictly increasing at {i}");
            }
            prev = Some(floor);
        }
        assert_eq!(BUCKET_FLOORS.len(), BUCKET_COUNT);
    }

    #[test]
    fn diff_recovers_a_window_between_snapshots() {
        let mut cum = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            cum.record(v);
        }
        let earlier = cum.clone();
        for v in [40u64, 50_000] {
            cum.record(v);
        }
        let w = cum.diff(&earlier);
        assert_eq!(w.count(), 2);
        assert_eq!(w.sum(), 40 + 50_000);
        // Window max is the cumulative max (upper bound, documented).
        assert_eq!(w.max(), 50_000);
        assert!(w.percentile(99.0) >= 40_000, "window p99 lost the spike");
        // Degenerate (older-than) pair saturates to empty, not wraps.
        let empty = earlier.diff(&cum);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn from_parts_recomputes_count_from_buckets() {
        let mut buckets = Box::new([0u64; BUCKET_COUNT]);
        buckets[bucket_index(100)] = 3;
        buckets[bucket_index(9_999)] = 1;
        let h = LatencyHistogram::from_parts(buckets, 10_299, 9_999);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 9_999);
        assert_eq!(h.percentile(100.0), 9_999);
    }

    #[test]
    fn percentiles_order_and_clamp_to_max() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let (p50, p95, p99, max) = h.quantiles();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(max, 100_000);
        // p50 of uniform 100..=100_000 is ~50_000; allow quantization.
        assert!((40_000..=56_250).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 86_000, "p99 = {p99}");
        assert_eq!(h.percentile(100.0), max);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 37 % 10_000;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), all.max());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.quantiles(), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }
}
