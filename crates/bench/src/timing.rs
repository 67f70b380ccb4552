//! A minimal, dependency-free timing harness for the `benches/`
//! programs: warm up, auto-scale the iteration count to a target
//! measurement window, and report the median of several samples.
//!
//! This deliberately trades statistical machinery for zero dependencies;
//! the benches are comparative (same machine, same run), which medians
//! over a fixed wall-clock budget serve well enough.

use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
const SAMPLES: usize = 7;
/// Target wall-clock length of one sample.
const SAMPLE_WINDOW: Duration = Duration::from_millis(120);

/// Time `f`, printing `group/name: <median> per iter (<iters> iters)`.
///
/// The closure is first run once (warm-up + cost estimate), then timed in
/// batches sized so each sample takes roughly `SAMPLE_WINDOW`.
pub fn bench<F: FnMut()>(group: &str, name: &str, mut f: F) {
    // Warm-up and cost estimate.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_WINDOW.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed() / iters as u32
        })
        .collect();
    samples.sort_unstable();
    let median = samples[SAMPLES / 2];
    println!("{group}/{name}: {} per iter ({iters} iters x {SAMPLES} samples)", fmt(median));
}

/// Time one call of `f` per sample (no batching) and return the median
/// wall-clock duration over `samples` runs, after one untimed warm-up.
///
/// For workload-shaped benchmarks — whole multi-threaded runs taking
/// milliseconds each — where the caller wants the number back (to emit
/// JSON, compute speedups) rather than a printed line. The per-call
/// median tolerates scheduler noise the same way [`bench()`]'s does.
#[must_use]
pub fn measure<F: FnMut()>(samples: usize, mut f: F) -> Duration {
    assert!(samples > 0, "need at least one sample");
    f(); // warm-up
    let mut timings: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    timings.sort_unstable();
    timings[samples / 2]
}

/// Like [`measure`], but each sample (and the warm-up) first runs
/// `setup` *outside* the timed region and hands its product to `run`.
///
/// For workloads whose construction cost must not pollute the per-op
/// figure — e.g. the universal objects, where the seed path's eager
/// O(n²·max_ops) arena allocation would otherwise dominate short runs —
/// while still building a fresh object for every sample so no state
/// leaks between timings.
#[must_use]
pub fn measure_with_setup<T, S, R>(samples: usize, mut setup: S, mut run: R) -> Duration
where
    S: FnMut() -> T,
    R: FnMut(T),
{
    assert!(samples > 0, "need at least one sample");
    run(setup()); // warm-up
    let mut timings: Vec<Duration> = (0..samples)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            run(input);
            start.elapsed()
        })
        .collect();
    timings.sort_unstable();
    timings[samples / 2]
}

/// Human formatting: pick ns/µs/ms/s by magnitude.
fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_picks_sensible_units() {
        assert_eq!(fmt(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt(Duration::from_micros(50)), "50.00 µs");
        assert_eq!(fmt(Duration::from_millis(50)), "50.00 ms");
        assert_eq!(fmt(Duration::from_secs(50)), "50.00 s");
    }

    #[test]
    fn bench_runs_the_closure() {
        let mut count = 0u64;
        bench("t", "noop", || count += 1);
        assert!(count > 0);
    }

    #[test]
    fn measure_returns_a_median_and_runs_warmup_plus_samples() {
        let mut count = 0u64;
        let d = measure(3, || count += 1);
        assert_eq!(count, 4, "one warm-up + three samples");
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn measure_with_setup_excludes_setup_from_the_timed_region() {
        let mut setups = 0u64;
        let mut runs = 0u64;
        let d = measure_with_setup(
            3,
            || {
                setups += 1;
                // Costly "construction": visibly slower than the run.
                waitfree_sched::thread::sleep(Duration::from_millis(20));
                7u64
            },
            |v| {
                assert_eq!(v, 7);
                runs += 1;
            },
        );
        assert_eq!(setups, 4, "one warm-up + three samples");
        assert_eq!(runs, 4);
        assert!(
            d < Duration::from_millis(20),
            "median {d:?} includes the 20ms setup sleep"
        );
    }
}
