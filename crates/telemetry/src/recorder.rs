//! The flight recorder: an always-on, bounded, tail-sampled trace store.
//!
//! Every finished [`RequestTrace`] is *offered* to the recorder; the
//! recorder decides what is worth keeping under a hard byte budget:
//!
//! * **Every non-ok trace is retained** — errors, rejections, deadline
//!   misses, truncated writes. These are the traces an operator pages on.
//! * **Ok traces are tail-sampled**: within each window of
//!   [`RecorderConfig::window`] consecutive ok traces, only the slowest
//!   [`RecorderConfig::slow_per_window`] survive. The boring middle of the
//!   latency distribution is dropped at the door, so a recorder dump reads
//!   as "everything that went wrong, plus the worst of what went right".
//! * **The byte budget is absolute**: when retained traces exceed
//!   [`RecorderConfig::max_bytes`] (estimated analytically, no
//!   serialization on the hot path), the oldest retained traces are
//!   evicted — error traces included, because a bounded recorder that can
//!   grow without bound on an error storm is not bounded.
//!
//! Traces reach the recorder finished: whoever opened a request's
//! [`crate::TraceBuilder`] — the serving runtime, or the network front-end
//! after its write stage — seals it and offers the result here.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::span::RequestTrace;

/// Flight-recorder sizing and sampling policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecorderConfig {
    /// How many of the slowest ok traces to retain per window.
    pub slow_per_window: usize,
    /// Window length, in ok traces, over which the slow-N selection runs.
    pub window: usize,
    /// Hard budget for retained traces, in estimated bytes.
    pub max_bytes: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            slow_per_window: 4,
            window: 64,
            max_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Cheap occupancy counters, readable while the recorder is live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Traces offered to the recorder.
    pub offered: u64,
    /// Traces retained (still held or since evicted by the byte budget).
    pub retained: u64,
    /// Ok traces dropped by tail sampling.
    pub dropped: u64,
    /// Retained traces evicted to stay under the byte budget.
    pub evicted: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
    /// The configured byte budget.
    pub max_bytes: u64,
}

struct RecorderInner {
    /// Retained traces, oldest first, each with its byte estimate.
    ring: VecDeque<(usize, RequestTrace)>,
    /// Estimated bytes across `ring`.
    bytes: usize,
    /// Ok traces seen in the current sampling window.
    window_seen: usize,
    /// The slowest-so-far candidates of the current window (≤ slow_per_window).
    window_best: Vec<RequestTrace>,
}

/// See the module docs. Shared as `Arc<FlightRecorder>` between the
/// serving runtime (which offers traces) and the network front-end (which
/// dumps them over `/debug/trace`).
pub struct FlightRecorder {
    cfg: RecorderConfig,
    inner: Mutex<RecorderInner>,
    offered: AtomicU64,
    retained: AtomicU64,
    dropped: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Analytic size estimate of one trace: field scalars plus the per-span
/// and per-string payloads. Intentionally an over-estimate of the in-memory
/// footprint's variable part so the byte budget errs on the safe side
/// without serializing anything.
fn approx_bytes(t: &RequestTrace) -> usize {
    let strings = t.id.len() + t.tenant.len() + t.outcome.len() + t.ran_on.len();
    let stages = t.stages.len() * std::mem::size_of::<crate::span::StageSpan>();
    let spans: usize = t
        .spans
        .iter()
        .map(|s| std::mem::size_of::<crate::span::OpSpan>() + s.name.len())
        .sum();
    std::mem::size_of::<RequestTrace>() + strings + stages + spans + 64
}

impl FlightRecorder {
    /// A recorder with the given policy.
    #[must_use]
    pub fn new(cfg: RecorderConfig) -> Self {
        let cfg = RecorderConfig {
            slow_per_window: cfg.slow_per_window,
            window: cfg.window.max(1),
            max_bytes: cfg.max_bytes.max(1024),
        };
        Self {
            cfg,
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::new(),
                bytes: 0,
                window_seen: 0,
                window_best: Vec::new(),
            }),
            offered: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Builds a recorder from the environment, shared-ready. `None` unless
    /// `BITFLOW_TRACE=1` (or `true`/`on`/`yes`). `BITFLOW_TRACE_SAMPLE`
    /// overrides the slow-N per window, `BITFLOW_TRACE_BYTES` the byte
    /// budget; malformed values keep the defaults — tracing configuration
    /// must never take the server down.
    #[must_use]
    pub fn from_env() -> Option<Arc<Self>> {
        let raw = std::env::var("BITFLOW_TRACE").ok()?;
        let on = matches!(raw.trim(), "1" | "true" | "on" | "yes");
        if !on {
            return None;
        }
        let mut cfg = RecorderConfig::default();
        if let Some(n) = env_usize("BITFLOW_TRACE_SAMPLE") {
            cfg.slow_per_window = n;
        }
        if let Some(n) = env_usize("BITFLOW_TRACE_BYTES") {
            cfg.max_bytes = n;
        }
        Some(Arc::new(Self::new(cfg)))
    }

    /// The active policy.
    #[must_use]
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Offers one finished trace. Non-ok traces are always retained; ok
    /// traces compete for the slowest-N slots of the current window.
    pub fn offer(&self, trace: RequestTrace) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let mut g = self.lock();
        if trace.is_ok() {
            g.window_seen += 1;
            if self.cfg.slow_per_window == 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else if g.window_best.len() < self.cfg.slow_per_window {
                g.window_best.push(trace);
            } else {
                // Replace the fastest candidate if this trace is slower.
                let (min_idx, min_ns) = g
                    .window_best
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i, t.total_ns))
                    .min_by_key(|&(_, ns)| ns)
                    .unwrap_or((0, 0));
                if trace.total_ns > min_ns {
                    let loser = std::mem::replace(&mut g.window_best[min_idx], trace);
                    drop(loser);
                }
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            if g.window_seen >= self.cfg.window {
                let best = std::mem::take(&mut g.window_best);
                g.window_seen = 0;
                for t in best {
                    self.retain(&mut g, t);
                }
            }
        } else {
            self.retain(&mut g, trace);
        }
    }

    fn retain(&self, g: &mut RecorderInner, trace: RequestTrace) {
        let sz = approx_bytes(&trace);
        g.ring.push_back((sz, trace));
        g.bytes += sz;
        self.retained.fetch_add(1, Ordering::Relaxed);
        while g.bytes > self.cfg.max_bytes {
            match g.ring.pop_front() {
                Some((evicted_sz, _)) => {
                    g.bytes -= evicted_sz;
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// All retained traces plus the current window's candidates, oldest
    /// retained first. A snapshot: the recorder keeps running.
    #[must_use]
    pub fn dump(&self) -> Vec<RequestTrace> {
        let g = self.lock();
        g.ring
            .iter()
            .map(|(_, t)| t.clone())
            .chain(g.window_best.iter().cloned())
            .collect()
    }

    /// The most recent retained (or candidate) trace with the given wire
    /// id.
    #[must_use]
    pub fn find(&self, id: &str) -> Option<RequestTrace> {
        let g = self.lock();
        g.window_best
            .iter()
            .rev()
            .chain(g.ring.iter().rev().map(|(_, t)| t))
            .find(|t| t.id == id)
            .cloned()
    }

    /// Estimated bytes currently held (retained ring only; the ≤ slow-N
    /// window candidates are bounded by policy, not bytes).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Occupancy counters.
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            offered: self.offered.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes: self.bytes() as u64,
            max_bytes: self.cfg.max_bytes as u64,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{OpSpan, RequestTrace};

    fn trace(id: &str, outcome: &str, total_ns: u64) -> RequestTrace {
        let mut t = RequestTrace::new(0, total_ns, Vec::new());
        t.id = id.to_string();
        t.outcome = outcome.to_string();
        t
    }

    #[test]
    fn errors_are_always_retained_ok_is_tail_sampled() {
        let rec = FlightRecorder::new(RecorderConfig {
            slow_per_window: 2,
            window: 8,
            max_bytes: 1 << 20,
        });
        // One full window: 8 ok traces of increasing latency, plus errors.
        for i in 0..8u64 {
            rec.offer(trace(&format!("ok-{i}"), "ok", 1_000 * (i + 1)));
        }
        rec.offer(trace("boom", "error:internal", 10));
        rec.offer(trace("shed", "rejected:queue_full", 10));
        let dump = rec.dump();
        let ids: Vec<&str> = dump.iter().map(|t| t.id.as_str()).collect();
        // The two slowest of the window survive; every error survives.
        assert!(ids.contains(&"ok-6") && ids.contains(&"ok-7"), "{ids:?}");
        assert!(ids.contains(&"boom") && ids.contains(&"shed"), "{ids:?}");
        assert!(!ids.contains(&"ok-0"), "fast ok traces must be dropped");
        assert!(rec.find("boom").is_some());
        assert!(rec.find("ok-0").is_none());
        let stats = rec.stats();
        assert_eq!(stats.offered, 10);
        assert_eq!(stats.dropped, 6);
    }

    #[test]
    fn partial_window_candidates_are_visible_in_dump() {
        let rec = FlightRecorder::new(RecorderConfig {
            slow_per_window: 2,
            window: 100,
            max_bytes: 1 << 20,
        });
        rec.offer(trace("a", "ok", 5));
        rec.offer(trace("b", "ok", 50));
        rec.offer(trace("c", "ok", 1));
        let ids: Vec<String> = rec.dump().into_iter().map(|t| t.id).collect();
        assert!(ids.contains(&"a".to_string()) && ids.contains(&"b".to_string()));
        assert!(rec.find("b").is_some(), "candidates are findable");
    }

    #[test]
    fn byte_budget_evicts_oldest_and_never_exceeds() {
        let mut big = trace("x", "error:internal", 1);
        big.spans = (0..32)
            .map(|i| OpSpan {
                op_index: i,
                name: "a-rather-long-operator-name".to_string(),
                start_ns: 0,
                duration_ns: 1,
            })
            .collect();
        let one = approx_bytes(&big);
        let rec = FlightRecorder::new(RecorderConfig {
            slow_per_window: 0,
            window: 1,
            max_bytes: one * 3,
        });
        for i in 0..50u64 {
            let mut t = big.clone();
            t.id = format!("e-{i}");
            rec.offer(t);
            assert!(
                rec.bytes() <= one * 3,
                "budget exceeded at {i}: {} > {}",
                rec.bytes(),
                one * 3
            );
        }
        let stats = rec.stats();
        assert!(stats.evicted > 0, "old errors must be evicted");
        // The newest errors survive.
        assert!(rec.find("e-49").is_some());
        assert!(rec.find("e-0").is_none());
    }

    #[test]
    fn from_env_is_gated_and_tolerates_garbage() {
        // Not set → None. (Other tests may run in parallel; use the
        // documented parse path directly rather than mutating the global
        // environment.)
        assert!(std::env::var("BITFLOW_TRACE").is_err() || FlightRecorder::from_env().is_some());
        let rec = FlightRecorder::new(RecorderConfig::default());
        assert_eq!(rec.config().slow_per_window, 4);
        assert_eq!(rec.config().window, 64);
    }
}
