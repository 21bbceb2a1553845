//! The seeded simulation harness every simulator runs on: a virtual clock,
//! a seeded pick, the `ensure!` check, and the seed-range runner with its
//! outcome-coverage check. Each scenario is a function of its seed, run
//! single-threaded on the virtual clock, so a failure names the seed that
//! replays it exactly.
//!
//! Included with `#[path]` and `#[macro_use]` by
//! `crates/serve/tests/sim.rs` (the serving policy and the governor) and
//! `crates/net/tests/sim.rs` (wire bytes to verdicts).

#![allow(dead_code)]

use std::ops::Range;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng};

/// What a check returns: `Err` says which invariant broke, and how.
pub type Check = Result<(), String>;

/// Fails the check with a formatted message unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

/// A virtual clock: one real `Instant` taken at the start, and offsets from
/// it that only the simulation moves.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    pub base: Instant,
    pub now: Instant,
}

impl Clock {
    #[must_use]
    pub fn new() -> Self {
        let base = Instant::now();
        Self { base, now: base }
    }

    /// The instant `offset` after the start.
    #[must_use]
    pub fn at(&self, offset: Duration) -> Instant {
        self.base + offset
    }

    /// Moves the clock to `t`, never back.
    pub fn advance(&mut self, t: Instant) {
        self.now = self.now.max(t);
    }
}

/// One of `options`, drawn from `rng`.
pub fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// Runs `run` on every seed (a failure panics naming the seed) and checks
/// that each outcome — `outcomes` names the flags `run` returns — is
/// reached by at least one seed in twenty, so that a schedule generator
/// that stops reaching one fails loudly instead of checking less.
pub fn run_seeds<const N: usize>(
    seeds: Range<u64>,
    outcomes: [&str; N],
    run: impl Fn(u64) -> Result<[bool; N], String>,
) {
    let n = seeds.end - seeds.start;
    let mut seen = [0u64; N];
    for seed in seeds {
        let reached = run(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (count, hit) in seen.iter_mut().zip(reached) {
            *count += u64::from(hit);
        }
    }
    let rare: Vec<String> = outcomes
        .iter()
        .zip(seen)
        .filter(|&(_, count)| count * 20 < n)
        .map(|(name, count)| format!("{name} ({count})"))
        .collect();
    assert!(
        rare.is_empty(),
        "reached by fewer than one seed in twenty of {n}: {}",
        rare.join(", ")
    );
}
