//! Log-bucketed latency histogram: 128 sub-buckets per octave (bucket
//! width ≤ 0.8 % of its value), exact below 128, fixed size, no
//! allocation on the record path.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A percentile is reported only with at least this many samples
/// beyond it: fewer, and it is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: u64 = 10;

#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], n: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lowest value and width of bucket `b`.
fn bounds_of(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let shift = b / SUB - 1;
    ((SUB + b % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (0 < q < 1), interpolated inside its bucket, or
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        if self.n < rank + MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bounds_of(b);
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + width as f64 * frac);
            }
            seen += c;
        }
        unreachable!("rank {rank} <= n {}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 65_535, 1 << 40, u64::MAX] {
            let (lo, w) = bounds_of(bucket_of(v));
            assert!(lo <= v && v - lo < w, "{v} not in [{lo}, {lo}+{w})");
            assert!(w == 1 || (w as f64) / (lo as f64) <= 1.0 / 128.0);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_match_a_sorted_vector() {
        // Seeded log-uniform-ish latencies from 50 ns to ~50 ms.
        let mut rng = SplitMix64::for_client(42, 0);
        let mut h = Hist::default();
        let mut all = Vec::new();
        for _ in 0..100_000 {
            let v = 50 + (rng.next_u64() >> (44 + rng.below(20)));
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = (q * all.len() as f64).ceil() as usize;
            let exact = all[rank - 1] as f64;
            let got = h.quantile(q).expect("enough samples");
            assert!((got - exact).abs() <= exact / 128.0 + 1.0, "p{q}: histogram {got}, sorted vector {exact}");
        }
        assert_eq!(h.max(), *all.last().unwrap());
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 1..=19u64 {
            h.record(v * 100);
        }
        // p50 of 19 is rank 10, leaving 9 beyond: not reported.
        assert_eq!(h.quantile(0.5), None);
        h.record(2000);
        // 20 samples: rank 10, 10 beyond.
        assert!(h.quantile(0.5).is_some());
        assert_eq!(h.quantile(0.99), None);
        for _ in 0..980 {
            h.record(500);
        }
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        assert!(h.quantile(0.99).is_some());
        assert_eq!(h.quantile(0.999), None);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        (0..30).for_each(|_| a.record(10));
        (0..30).for_each(|_| b.record(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 60);
        assert_eq!(a.max(), 1_000_000);
        assert!(a.quantile(0.5).unwrap() < 11.0);
    }
}
