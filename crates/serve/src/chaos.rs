//! Seed-deterministic chaos injection for the serving runtime.
//!
//! Chaos decisions are pure functions of `(seed, stream, index)` hashed
//! with splitmix64 — no RNG state, no clock. Re-running a soak with the
//! same seed injects the same faults at the same requests, which is what
//! makes "the chaos soak found a bug" a reproducible statement instead of
//! an anecdote.
//!
//! Two hashed decision streams, plus a counter:
//!
//! * **Per-(request, operator)** — decided inside the engine via the
//!   model's fault hook: an operator either sleeps ([`ChaosConfig::slow`])
//!   or panics. The hook keys its decisions on the engine's per-request
//!   tag ([`bitflow_graph::BatchItem::tag`]), which the serving worker
//!   sets to the request id and the engine hands to the hook on whatever
//!   thread runs the item. Untagged inference (oracles, tests, direct
//!   `try_infer` callers) is never chaos'd.
//! * **Per-pop** — decided by the worker around each queue pop: a stall
//!   (sleep before processing, simulating a descheduled consumer) or a
//!   worker kill (panic *after* the popped batch resolves, so no request
//!   is ever lost — the kill exercises the watchdog restart path, not
//!   response delivery).
//! * **Every Nth fallible reservation** ([`ChaosConfig::alloc_fail_nth`]):
//!   a count, not a hash; the resource governor refuses it.
//!
//! Configured from `BITFLOW_CHAOS` (see [`ChaosConfig::from_env`]).

use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::{FaultHook, UNTAGGED};

/// Probability scale: decisions are `hash % SCALE < ppm`.
const SCALE: u64 = 1_000_000;

/// Domain separators so the op stream and the pop stream of the same
/// seed are independent.
const DOMAIN_OP: u64 = 0x6f70; // "op"
const DOMAIN_POP: u64 = 0x706f70; // "pop"

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn roll(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ domain) ^ a) ^ b) % SCALE
}

/// Fault-injection rates (parts per million) and magnitudes. `Default`
/// is all-zero: chaos must be asked for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for every decision; same seed → same faults.
    pub seed: u64,
    /// Probability (ppm) that an operator invocation sleeps for
    /// [`ChaosConfig::slow`] before running.
    pub slow_ppm: u32,
    /// Probability (ppm) that an operator invocation panics.
    pub panic_ppm: u32,
    /// Probability (ppm) that a worker stalls for [`ChaosConfig::stall`]
    /// after popping a request, before processing it.
    pub stall_ppm: u32,
    /// Probability (ppm) that a worker panics out of its loop after a
    /// popped request has resolved (exercises the watchdog restart).
    pub kill_ppm: u32,
    /// Allocation-failure injection: every Nth *accounted* reservation the
    /// resource governor grants fails instead (the Nth, 2Nth, ...), as if
    /// the allocator refused the bytes. 0 = never. A counter, not a ppm —
    /// the reservation stream is ordered, so "the Nth reservation fails"
    /// replays exactly under the same request sequence.
    pub alloc_fail_nth: u64,
    /// Sleep injected by a slow-operator hit.
    pub slow: Duration,
    /// Sleep injected by a queue-stall hit.
    pub stall: Duration,
}

impl ChaosConfig {
    /// Default magnitudes for env-configured chaos.
    const DEFAULT_SLOW: Duration = Duration::from_micros(200);
    const DEFAULT_STALL: Duration = Duration::from_micros(500);

    /// Chaos with the given seed and the default soak mix: 2% slow ops,
    /// 0.5% panicking ops, 0.2% queue stalls, 0.1% worker kills.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            slow_ppm: 20_000,
            panic_ppm: 5_000,
            stall_ppm: 2_000,
            kill_ppm: 1_000,
            // Allocation failures are not part of the default mix: they
            // only make sense against a governor, so the exhaustion soak
            // asks for them explicitly.
            alloc_fail_nth: 0,
            slow: Self::DEFAULT_SLOW,
            stall: Self::DEFAULT_STALL,
        }
    }

    /// Parses `BITFLOW_CHAOS`. Unset or empty → `None` (no chaos).
    ///
    /// Format: `seed[:slow_ppm[:panic_ppm[:stall_ppm[:kill_ppm[:alloc_fail_nth]]]]]`
    /// — a bare seed uses the [`ChaosConfig::with_seed`] default mix;
    /// trailing fields override individual rates. The last field is a
    /// count, not a ppm: every Nth accounted reservation fails (0, the
    /// default, never injects). Malformed values fall back to the
    /// defaults rather than erroring: chaos configuration must never take
    /// the server down. A string with more than six fields is refused
    /// whole, like an unparseable seed: the nine-field form of earlier
    /// releases carried three network rates before the count, and must
    /// never have one of them read as an allocation count.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("BITFLOW_CHAOS").ok()?;
        Self::parse(&raw)
    }

    /// [`ChaosConfig::from_env`]'s parser, split out for tests.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.is_empty() || raw == "0" {
            return None;
        }
        if raw.split(':').count() > 6 {
            return None;
        }
        let mut parts = raw.split(':');
        let seed = parts.next()?.trim().parse::<u64>().ok()?;
        let mut cfg = Self::with_seed(seed);
        let rates = [
            &mut cfg.slow_ppm,
            &mut cfg.panic_ppm,
            &mut cfg.stall_ppm,
            &mut cfg.kill_ppm,
        ];
        for slot in rates {
            match parts.next() {
                Some(v) => {
                    if let Ok(ppm) = v.trim().parse::<u32>() {
                        *slot = ppm.min(SCALE as u32);
                    }
                }
                None => break,
            }
        }
        // The allocation-failure field is a count (fail every Nth
        // reservation), not a ppm, so it is parsed outside the rate loop.
        if let Some(v) = parts.next() {
            if let Ok(nth) = v.trim().parse::<u64>() {
                cfg.alloc_fail_nth = nth;
            }
        }
        Some(cfg)
    }

    /// The (request, operator) decision: panic wins the roll's low range,
    /// slow the next, so the two rates never overlap.
    fn op_roll(&self, request: u64, op: u64) -> OpFault {
        let r = roll(self.seed, DOMAIN_OP, request, op);
        if r < u64::from(self.panic_ppm) {
            OpFault::Panic
        } else if r < u64::from(self.panic_ppm) + u64::from(self.slow_ppm) {
            OpFault::Slow
        } else {
            OpFault::None
        }
    }

    /// Whether pop number `pop` on worker `worker` stalls before
    /// processing.
    #[must_use]
    pub fn stall_hit(&self, worker: u64, pop: u64) -> bool {
        roll(self.seed, DOMAIN_POP, worker, pop) < u64::from(self.stall_ppm)
    }

    /// Whether pop number `pop` on worker `worker` kills the worker loop
    /// after the request resolves. Drawn from the same roll as the stall
    /// (disjoint range above it).
    #[must_use]
    pub fn kill_hit(&self, worker: u64, pop: u64) -> bool {
        let r = roll(self.seed, DOMAIN_POP, worker, pop);
        r >= u64::from(self.stall_ppm) && r < u64::from(self.stall_ppm) + u64::from(self.kill_ppm)
    }
}

/// What the op-stream roll decided for one operator invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpFault {
    None,
    Slow,
    Panic,
}

/// Builds the engine fault hook for `cfg`. Installed once per model via
/// [`bitflow_graph::CompiledModel::install_fault_hook`]; fires at every
/// operator entry but stands down unless the inference carries a request
/// tag (the serving worker tags both single requests and every item of a
/// coalesced micro-batch with its request id).
pub(crate) fn fault_hook(cfg: ChaosConfig) -> FaultHook {
    Arc::new(move |op_index, op_name, tag| {
        if tag == UNTAGGED {
            return;
        }
        match cfg.op_roll(tag, op_index as u64) {
            OpFault::None => {}
            OpFault::Slow => std::thread::sleep(cfg.slow),
            OpFault::Panic => panic!("chaos: injected panic in `{op_name}` (request {tag})"),
        }
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = ChaosConfig::with_seed(7);
        let b = ChaosConfig::with_seed(8);
        let rolls_a: Vec<OpFault> = (0..1000).map(|r| a.op_roll(r, 3)).collect();
        let rolls_a2: Vec<OpFault> = (0..1000).map(|r| a.op_roll(r, 3)).collect();
        let rolls_b: Vec<OpFault> = (0..1000).map(|r| b.op_roll(r, 3)).collect();
        assert_eq!(rolls_a, rolls_a2, "same seed must replay identically");
        assert_ne!(rolls_a, rolls_b, "different seeds must diverge");
    }

    #[test]
    fn rates_land_near_target() {
        let cfg = ChaosConfig {
            seed: 42,
            slow_ppm: 100_000, // 10%
            panic_ppm: 50_000, // 5%
            ..ChaosConfig::default()
        };
        let n = 100_000u64;
        let mut slow = 0u64;
        let mut panics = 0u64;
        for r in 0..n {
            match cfg.op_roll(r, 0) {
                OpFault::Slow => slow += 1,
                OpFault::Panic => panics += 1,
                OpFault::None => {}
            }
        }
        let slow_pct = slow as f64 / n as f64;
        let panic_pct = panics as f64 / n as f64;
        assert!((0.08..0.12).contains(&slow_pct), "slow rate {slow_pct}");
        assert!((0.04..0.06).contains(&panic_pct), "panic rate {panic_pct}");
    }

    #[test]
    fn parse_forms() {
        assert_eq!(ChaosConfig::parse(""), None);
        assert_eq!(ChaosConfig::parse("0"), None);
        assert_eq!(ChaosConfig::parse("garbage"), None);
        let bare = ChaosConfig::parse("42").unwrap();
        assert_eq!(bare, ChaosConfig::with_seed(42));
        let full = ChaosConfig::parse("7:1000:2000:3000:4000").unwrap();
        assert_eq!(
            (
                full.seed,
                full.slow_ppm,
                full.panic_ppm,
                full.stall_ppm,
                full.kill_ppm
            ),
            (7, 1000, 2000, 3000, 4000)
        );
        // Partial override keeps defaults for the rest.
        let partial = ChaosConfig::parse("7:0").unwrap();
        assert_eq!(partial.slow_ppm, 0);
        assert_eq!(partial.panic_ppm, ChaosConfig::with_seed(7).panic_ppm);
        assert_eq!(partial.alloc_fail_nth, 0, "alloc failures default off");
        // The sixth field is the allocation-failure count.
        let alloc = ChaosConfig::parse("7:1:2:3:4:16").unwrap();
        assert_eq!(alloc.alloc_fail_nth, 16);
        // More fields are refused whole: an old string's network rate is
        // never read as a count.
        assert_eq!(ChaosConfig::parse("7:1:2:3:4:5:6:8"), None);
        assert_eq!(ChaosConfig::parse("7:1:2:3:4:5:6:8:16"), None);
    }

    #[test]
    fn stall_and_kill_ranges_are_disjoint() {
        let cfg = ChaosConfig {
            seed: 3,
            stall_ppm: 200_000,
            kill_ppm: 200_000,
            ..ChaosConfig::default()
        };
        for pop in 0..10_000 {
            assert!(
                !(cfg.stall_hit(0, pop) && cfg.kill_hit(0, pop)),
                "pop {pop} hit both stall and kill"
            );
        }
    }
}
