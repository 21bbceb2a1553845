//! Wall-clock measurement utilities.

use std::time::{Duration, Instant};

/// Measures the wall-clock time of `f`, adaptively: one warm-up call, then
/// repeated timed calls until `budget` has elapsed or `max_iters` calls
/// were made (whichever first, always ≥ `min_iters`). Returns the minimum
/// observed time — the standard estimator for CPU microbenchmarks (least
/// contaminated by interference).
pub fn measure(
    mut f: impl FnMut(),
    budget: Duration,
    min_iters: usize,
    max_iters: usize,
) -> Duration {
    f(); // warm-up (page faults, cache, branch predictors)
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut iters = 0usize;
    while iters < min_iters || (spent < budget && iters < max_iters) {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

/// Measures two closures under the *same* load conditions by interleaving
/// their iterations (a, b, a, b, ...) and returning each one's minimum
/// observed time.
///
/// Timing `a` to completion and then `b` (as two [`measure`] calls) biases
/// the comparison whenever background load changes between the two
/// windows — minima only reject interference that pauses during *that*
/// closure's window. Interleaving gives both closures the same exposure to
/// whatever else the machine is doing, which is what an A/B comparison
/// needs.
pub fn measure_interleaved(
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    budget: Duration,
    min_rounds: usize,
    max_rounds: usize,
) -> (Duration, Duration) {
    a(); // warm-up both sides
    b();
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut rounds = 0usize;
    while rounds < min_rounds || (spent < budget && rounds < max_rounds) {
        let t0 = Instant::now();
        a();
        let da = t0.elapsed();
        let t1 = Instant::now();
        b();
        let db = t1.elapsed();
        best_a = best_a.min(da);
        best_b = best_b.min(db);
        spent += da + db;
        rounds += 1;
    }
    (best_a, best_b)
}

/// Runs `f` with `threads` threads allowed to the parallel calls inside it
/// (the worker team caps that at the machine's size) and returns its
/// result. Each figure's thread sweep scopes its counts this way, so none
/// leaks between configurations.
pub fn with_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread-count scope");
    pool.install(f)
}

/// Pretty-prints a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_minimum() {
        let d = measure(
            || {
                std::hint::black_box((0..10_000u64).sum::<u64>());
            },
            Duration::from_millis(50),
            3,
            1000,
        );
        assert!(d > Duration::ZERO);
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn with_pool_controls_thread_count() {
        let n = with_pool(3, rayon::current_num_threads);
        assert_eq!(n, 3);
        let n = with_pool(1, rayon::current_num_threads);
        assert_eq!(n, 1);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
    }
}
