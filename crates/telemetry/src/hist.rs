//! Log-linear histogram (HdrHistogram-style), shared by the metrics
//! registry and the latency experiments.
//!
//! It lives in this crate so the metrics registry can hold histograms
//! without an upward dependency. Values are grouped by magnitude with 64
//! linear sub-buckets per power of two, giving a worst-case relative error
//! of ~1.6%.

use core::fmt;

const SUB_BUCKET_BITS: u32 = 6; // 64 linear sub-buckets per magnitude
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
// Magnitudes 0..=57 cover values up to 2^63; plenty for nanosecond latencies.
const MAGNITUDES: usize = 58;

/// Log-linear histogram of `u64` values (typically nanoseconds).
///
/// Worst-case relative quantile error is `1 / 64` (~1.6 %), constant memory
/// (~29 KiB), O(1) record.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; MAGNITUDES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index_of(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        // Highest set bit position.
        let msb = 63 - v.leading_zeros();
        let magnitude = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = (v >> magnitude) as usize & (SUB_BUCKETS - 1);
        // magnitude >= 1 here; magnitude 0 handled by the linear fast path,
        // whose sub-bucket index equals the value itself.
        (magnitude.min(MAGNITUDES - 1)) * SUB_BUCKETS + sub
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`. Returns 0 for an empty histogram.
    ///
    /// The target rank's position *within* its log bucket is linearly
    /// interpolated across the bucket's `[lo, lo + width)` value range, so a
    /// quantile that lands early in a wide bucket answers near the bucket's
    /// low edge instead of a fixed midpoint. The estimate is clamped into
    /// the observed `[min, max]` range so small-count histograms (and the
    /// sparsely-filled final bucket) stay honest.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let magnitude = i / SUB_BUCKETS;
                let sub = (i % SUB_BUCKETS) as u64;
                if magnitude == 0 {
                    // Exact linear bucket: the value is the index itself.
                    return sub.clamp(self.min, self.max);
                }
                let lo = (sub << magnitude) as f64;
                let width = (1u64 << magnitude) as f64;
                // Rank offset inside the bucket, centered on the sample
                // (the `- 0.5`), as a fraction of the bucket's population.
                let into = (target - seen) as f64 - 0.5;
                let v = lo + width * (into / c as f64).clamp(0.0, 1.0);
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median (p50).
    pub fn median(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail the SLO watchdog tracks.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram {{ n: {}, mean: {:.1}, p50: {}, p99: {}, max: {} }}",
            self.count,
            self.mean(),
            self.median(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.median(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        // Values below 64 land in exact linear buckets.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.median() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.02, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99 {p99}");
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..1000 {
            a.record(v);
            b.record(v + 5000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert_eq!(a.min(), 0);
        assert!(a.max() >= 5999 - 64); // bucket resolution
        let p50 = a.median();
        assert!((900..=5100).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.p99() > 0);
    }

    #[test]
    fn quantile_clamped_to_observed_range() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.median(), 1_000_003);
        assert_eq!(h.p99(), 1_000_003);
        assert_eq!(h.p999(), 1_000_003);
    }

    #[test]
    fn interpolated_quantiles_pin_known_distributions() {
        // Uniform 0..1000: interpolation must land within one bucket width
        // of the exact answer (width 4 near 250, width 16 near 750) — the
        // old midpoint rule could be off by half a bucket systematically.
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let q25 = h.quantile(0.25) as i64;
        let q75 = h.quantile(0.75) as i64;
        assert!((q25 - 250).abs() <= 4, "q25 {q25}");
        assert!((q75 - 750).abs() <= 16, "q75 {q75}");

        // Two spikes: 500 samples at 100, 500 at 200. Interpolated answers
        // must stay inside the spike's own bucket (widths 2 and 4).
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(100);
        }
        for _ in 0..500 {
            h.record(200);
        }
        let p25 = h.quantile(0.25);
        let p50 = h.median();
        let p75 = h.quantile(0.75);
        assert!((100..=102).contains(&p25), "p25 {p25}");
        assert!((100..=102).contains(&p50), "p50 {p50}");
        assert!((200..=204).contains(&p75), "p75 {p75}");
    }

    #[test]
    fn p999_tracks_the_tail() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p999 = h.p999() as f64;
        assert!((p999 - 9_990.0).abs() / 9_990.0 < 0.02, "p999 {p999}");
    }
}
