//! Input randomness: a `splitmix64` stream per client and a Zipf
//! sampler. Both are pure functions of the seed, so the same `--seed`
//! regenerates the same op stream (the end-of-run oracle relies on it).
//!
//! `waitfree_sched::rng::DetRng` is the same generator, and is not used
//! on purpose: the benchmark's inputs must not depend on the code under
//! test, or a change to that crate would silently change the work two
//! commits are compared on.

/// Sebastiano Vigna's `splitmix64`: one add, two xor-shift-multiplies
/// per draw.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream for `client` under `seed`. The client index is mixed
    /// through one splitmix round so streams of adjacent clients are
    /// unrelated, not shifted copies.
    #[must_use]
    pub fn for_client(seed: u64, client: u64) -> Self {
        let mut s = SplitMix64(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` by multiply-shift (no modulo bias worth the
    /// name at 64 bits).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf(θ) over `0..n`, sampled in O(1) by Vose's alias method: the
/// generator runs between timed batches, and a binary search per key
/// would make a read-mostly client spend half its time drawing keys.
/// Rank `r` (0 = hottest) is scattered over the key space by an odd
/// multiplier, a bijection for the power-of-two `n` the workloads use,
/// so hot keys spread over shards and tree nodes instead of clustering
/// at the low keys.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Column `i` keeps rank `i` with probability `keep[i]`, else
    /// yields `alias[i]`.
    keep: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    /// # Panics
    /// If `n` is not a power of two (the rank scatter needs it) or
    /// exceeds `u32`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n.is_power_of_two() && n <= u64::from(u32::MAX), "Zipf key space must be a power of two");
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        // Scale masses so the average column holds exactly 1.
        let mut keep: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) = (0..n as u32).partition(|&i| keep[i as usize] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            keep[l as usize] -= 1.0 - keep[s as usize];
            if keep[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // What is left holds 1 up to rounding.
        small.into_iter().chain(large).for_each(|i| keep[i as usize] = 1.0);
        Zipf { keep, alias }
    }

    fn n(&self) -> u64 {
        self.keep.len() as u64
    }

    /// Probability mass of every rank, read back out of the table.
    #[cfg(test)]
    #[must_use]
    pub fn masses(&self) -> Vec<f64> {
        let mut m = vec![0.0; self.keep.len()];
        for (i, (&k, &a)) in self.keep.iter().zip(&self.alias).enumerate() {
            m[i] += k / self.n() as f64;
            m[a as usize] += (1.0 - k) / self.n() as f64;
        }
        m
    }

    /// The rank drawn by one 64-bit draw: the high bits pick a column,
    /// the low 32 the side of it.
    #[must_use]
    pub fn rank(&self, draw: u64) -> u64 {
        let col = ((u128::from(draw) * u128::from(self.n())) >> 64) as usize;
        let side = (draw & 0xffff_ffff) as f64 / (1u64 << 32) as f64;
        if side < self.keep[col] {
            col as u64
        } else {
            u64::from(self.alias[col])
        }
    }

    /// The key that rank `r` stands for.
    #[must_use]
    pub fn scatter(&self, r: u64) -> u64 {
        r.wrapping_mul(0x9e37_79b9_7f4a_7c15) & (self.n() - 1)
    }

    /// The key drawn by `draw`: its rank, scattered.
    #[must_use]
    pub fn key(&self, draw: u64) -> u64 {
        self.scatter(self.rank(draw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_table_is_normalised_and_skewed() {
        let z = Zipf::new(65_536, 0.99);
        let m = z.masses();
        let total: f64 = m.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "masses sum to {total}");
        // The table reproduces the law it was built from …
        let h: f64 = (1..=65_536).map(|r| 1.0 / f64::from(r).powf(0.99)).sum();
        for r in [0usize, 1, 9, 99, 999, 65_535] {
            let want = 1.0 / ((r + 1) as f64).powf(0.99) / h;
            assert!((m[r] - want).abs() < 1e-12, "rank {r}: table {}, law {want}", m[r]);
        }
        assert!(m.windows(2).all(|w| w[0] > w[1]), "mass strictly decreases with rank");
        // … which at θ = 0.99 puts ~8 % on rank 0 and more than half
        // on the hottest 1 % of keys.
        assert!(m[0] > 0.07 && m[0] < 0.10, "{}", m[0]);
        assert!(m[..655].iter().sum::<f64>() > 0.5);
        assert!(m[0] > 1000.0 * m[65_535]);
    }

    #[test]
    fn zipf_sampling_follows_the_table_and_scatters_ranks() {
        let z = Zipf::new(4096, 0.99);
        let m = z.masses();
        let mut rng = SplitMix64::for_client(7, 0);
        let mut hits = vec![0u32; 4096];
        for _ in 0..400_000 {
            hits[z.rank(rng.next_u64()) as usize] += 1;
        }
        for r in [0usize, 1, 2, 10] {
            let f = f64::from(hits[r]) / 400_000.0;
            assert!((f - m[r]).abs() < 0.005, "rank {r} drawn {f}, table {}", m[r]);
        }
        assert!(hits.iter().all(|&h| h < 400_000 / 8), "no rank dominates");
        let mut keys: Vec<u64> = (0..4096).map(|r| z.scatter(r)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4096, "rank scatter is a bijection");
    }

    #[test]
    fn splitmix_streams_differ_by_seed_and_client() {
        let draw = |seed, client| {
            let mut r = SplitMix64::for_client(seed, client);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = SplitMix64::for_client(3, 0);
        assert!((0..10_000).all(|_| r.below(10) < 10));
    }
}
