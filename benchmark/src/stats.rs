//! Order statistics and the steady-state rate estimator.

use crate::workload::CHUNKS;

/// Median of `v` (mean of the middle two when even). `NaN` if empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The phase's batch times folded into [`CHUNKS`] equal chunks, in ns.
/// `batch_ns.len()` is a multiple of `CHUNKS` by construction.
#[must_use]
pub fn chunk_times(batch_ns: &[u64]) -> Vec<f64> {
    assert!(!batch_ns.is_empty() && batch_ns.len().is_multiple_of(CHUNKS), "{} batches", batch_ns.len());
    batch_ns.chunks(batch_ns.len() / CHUNKS).map(|c| c.iter().sum::<u64>() as f64).collect()
}

/// One client's rate in ops/s: ops ÷ time spent executing them.
#[must_use]
pub fn rate(batch_ns: &[u64], ops: u64) -> f64 {
    ops as f64 / batch_ns.iter().sum::<u64>() as f64 * 1e9
}

/// The same from the *median* chunk: chunk ops ÷ median chunk time.
/// It drops whatever is not steady state (a one-core transient after
/// an idle vCPU, a snapshot, a scheduler hiccup) — and with it every
/// periodic cost whose period is longer than a chunk, which is why it
/// is a diagnostic beside [`rate`] and not the metric: on `kv_big` it
/// flips between "a checkpoint in the chunk" and "none" from run to
/// run. A gap between the two flags a bimodal run.
#[must_use]
pub fn median_chunk_rate(batch_ns: &[u64], ops: u64) -> f64 {
    let chunk_ops = ops as f64 / CHUNKS as f64;
    chunk_ops / median(&chunk_times(batch_ns)) * 1e9
}

/// Coefficient of variation of the chunk times: flags a bimodal run.
#[must_use]
pub fn chunk_cv(batch_ns: &[u64]) -> f64 {
    let t = chunk_times(batch_ns);
    let mean = t.iter().sum::<f64>() / t.len() as f64;
    let var = t.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / t.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_chunks_ignores_a_fast_transient() {
        // 128 batches of 1024 ops: the first quarter runs 2× fast (both
        // clients time-sliced on one core), the rest at 1 µs/op.
        let steady = 1_024_000u64;
        let batches: Vec<u64> = (0..128).map(|i| if i < 32 { steady / 2 } else { steady }).collect();
        let ops = 128 * 1024;
        let got = median_chunk_rate(&batches, ops);
        assert!((got - 1e6).abs() < 1.0, "median-of-chunks rate {got}");
        let mean = rate(&batches, ops);
        assert!(mean > 1.1e6, "ops / time is pulled up by the transient: {mean}");
        assert!(chunk_cv(&batches) > 0.2);
        assert!(chunk_cv(&vec![steady; 128]) < 1e-12);
    }

    #[test]
    fn a_slow_outlier_chunk_does_not_move_the_rate() {
        let mut batches = vec![1_000_000u64; 64];
        batches[17] = 80_000_000; // a snapshot landed here
        assert!((median_chunk_rate(&batches, 64 * 1024) - 1.024e6).abs() < 1.0);
        assert!(rate(&batches, 64 * 1024) < 0.5e6);
    }
}
