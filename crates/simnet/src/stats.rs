//! Streaming statistics: running summaries without stored samples.
//!
//! The log-linear histogram the latency experiments (Fig. 13) take medians
//! and p99s from is [`telemetry::Histogram`], the type the metrics registry
//! aggregates.

/// Running min/max/mean/count without storing samples.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Summary {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
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
            self.sum / self.count as f64
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        for v in [3.0, 1.0, 4.0, 1.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.mean() - 2.8).abs() < 1e-12);
    }
}
