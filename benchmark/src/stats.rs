//! Medians, quartiles and an exact latency histogram.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method, i.e. exactly what Python's
/// `statistics.quantiles(values, n=4)` returns — the driver computes spreads
/// with that function, so the quartiles printed here match what it will see.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, linearly interpolated between the
        // two neighbours — or extrapolated from the outermost pair when the
        // position falls outside a tiny sample, as Python does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Largest latency kept in a 1 ns bucket; larger samples (retransmission
/// timeouts under injected loss) are kept individually.
const FINE_NS: usize = 1 << 16;

/// Exact histogram of virtual-time latencies in nanoseconds. Memory does not
/// grow with the number of samples below [`FINE_NS`], so a run's peak RSS
/// does not depend on how many reps fit into its time budget.
#[derive(Clone)]
pub struct LatHist {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    count: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            fine: vec![0; FINE_NS],
            coarse: Vec::new(),
            count: 0,
        }
    }
}

impl LatHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(slot) => *slot += 1,
            None => self.coarse.push(ns),
        }
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`): the smallest recorded value
    /// with at least `ceil(p * count)` samples at or below it.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(self.count > 0, "percentile of an empty histogram");
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut coarse = self.coarse.clone();
        coarse.sort_unstable();
        coarse[(rank - seen - 1) as usize]
    }

    /// Samples strictly above the `p` percentile value.
    pub fn samples_beyond(&self, p: f64) -> u64 {
        let cut = self.percentile(p);
        let fine: u64 = self
            .fine
            .iter()
            .skip(cut as usize + 1)
            .map(|&c| c as u64)
            .sum();
        fine + self.coarse.iter().filter(|&&v| v > cut).count() as u64
    }

    /// Same samples, whatever order they were recorded in.
    pub fn same_as(&self, other: &LatHist) -> bool {
        let sorted = |h: &LatHist| {
            let mut c = h.coarse.clone();
            c.sort_unstable();
            c
        };
        self.count == other.count && self.fine == other.fine && sorted(self) == sorted(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // outer quartiles of a tiny sample extrapolate past it.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn percentile_is_nearest_rank_across_fine_and_coarse() {
        let mut h = LatHist::default();
        for ns in 1..=100u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.percentile(0.5), 500);
        assert_eq!(h.percentile(0.99), 990);
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(h.samples_beyond(0.99), 1);
        // Two samples beyond the fine range become the new tail.
        h.record(1_000_000);
        h.record(200_000);
        assert_eq!(h.count(), 102);
        assert_eq!(h.percentile(1.0), 1_000_000);
        assert_eq!(h.percentile(101.0 / 102.0), 200_000);
        assert_eq!(h.samples_beyond(0.5), 51);
    }

    #[test]
    fn same_as_ignores_recording_order() {
        let (mut a, mut b) = (LatHist::default(), LatHist::default());
        for ns in [5, 70_000, 9, 90_000] {
            a.record(ns);
        }
        for ns in [90_000, 9, 70_000, 5] {
            b.record(ns);
        }
        assert!(a.same_as(&b));
        b.record(5);
        assert!(!a.same_as(&b));
    }
}
