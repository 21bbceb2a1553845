//! Open-loop load: requests are sent on a fixed schedule whether or not
//! earlier ones finished, and each is timed from the instant it was *due*,
//! so a stall in the target shows up as latency of the requests behind it
//! instead of silently lowering the offered rate.
//!
//! One generator thread offers the schedule through a non-blocking
//! `submit`; one collector thread waits for the tickets in submit order.
//! Generic over [`Target`] so the self-tests can drive a fake.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::stats;

/// How one offered request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer checked out.
    Ok,
    /// Answered with wrong output.
    Mismatch,
    /// Refused at admission (the typed overload answer).
    Refused,
    /// Admitted, then dropped or cancelled by its deadline.
    Deadline,
    /// Any other error.
    Failed,
}

/// What the generator offers load to.
pub trait Target: Sync {
    /// An admitted request.
    type Ticket: Send;
    /// Offers request `seq` without waiting for its answer. `Err` is an
    /// admission refusal (or failure) known immediately.
    fn submit(&self, seq: u64) -> Result<Self::Ticket, Verdict>;
    /// Blocks until the request resolves.
    fn wait(&self, seq: u64, ticket: Self::Ticket) -> Verdict;
}

/// One offered request.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Position in the schedule.
    pub seq: u64,
    /// Scheduled send time, seconds since the rung started.
    pub due_s: f64,
    /// How long after `due_s` the generator actually sent it, ms.
    pub late_ms: f64,
    /// Time from `due_s` to the observed resolution, ms.
    pub latency_ms: f64,
    /// How it ended.
    pub verdict: Verdict,
}

/// Offers `rate_rps` for `duration` and returns one record per scheduled
/// request, in schedule order. `first_seq` numbers the requests (and picks
/// their inputs) so consecutive rungs do not repeat the same prefix.
pub fn run_rung<T: Target>(
    target: &T,
    rate_rps: f64,
    duration: Duration,
    first_seq: u64,
) -> Vec<Record> {
    let n = (rate_rps * duration.as_secs_f64()).floor().max(1.0) as u64;
    let (tx, rx) = mpsc::channel::<(u64, f64, f64, Result<T::Ticket, Verdict>)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for k in 0..n {
                let due_s = k as f64 / rate_rps;
                let due = start + Duration::from_secs_f64(due_s);
                // Never sleep while behind schedule: a late generator
                // catches up in a burst, as independent users would.
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let seq = first_seq + k;
                let ticket = target.submit(seq);
                if tx.send((seq, due_s, late_ms, ticket)).is_err() {
                    return;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut records = Vec::with_capacity(n as usize);
            for (seq, due_s, late_ms, ticket) in rx {
                let verdict = match ticket {
                    Ok(t) => target.wait(seq, t),
                    Err(v) => v,
                };
                let latency_ms = (start.elapsed().as_secs_f64() - due_s) * 1e3;
                records.push(Record {
                    seq,
                    due_s,
                    late_ms,
                    latency_ms,
                    verdict,
                });
            }
            records
        });
        match collector.join() {
            Ok(records) => records,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The latency limit of the served workloads: a request counts as within
/// the limit only if it was answered `Ok` at most this long after it was
/// due. Refused, failed and late requests all miss.
pub const SLO_MS: f64 = 10.0;

/// Share of a rung's median window that must be within [`SLO_MS`].
pub const SLO_SHARE: f64 = 0.99;

/// Per-rung summary over equal windows of *due* time.
#[derive(Clone, Debug)]
pub struct RungSummary {
    /// Offered rate, requests per second.
    pub rate_rps: f64,
    /// Requests scheduled.
    pub offered: usize,
    /// Per-window share of requests due in the window answered `Ok` within
    /// [`SLO_MS`] of their due time.
    pub within_slo_share: Vec<f64>,
    /// Per-window `Ok` answers per second of schedule.
    pub ok_per_s: Vec<f64>,
    /// Per-window median latency from due time of the `Ok` answers, ms.
    pub p50_ms: Vec<f64>,
    /// Per-window median generator lateness, ms.
    pub late_p50_ms: Vec<f64>,
    /// Latency from due time of every `Ok` answer, ascending, ms.
    pub ok_latency_ms: Vec<f64>,
    /// Generator lateness of every request, ascending, ms.
    pub late_ms: Vec<f64>,
    /// Requests refused at admission.
    pub refused: usize,
    /// Requests dropped by their deadline.
    pub deadline: usize,
    /// Requests that failed any other way.
    pub failed: usize,
    /// `Ok` answers with wrong output.
    pub mismatched: usize,
}

/// Summarises one rung's records over `windows` equal windows of the
/// schedule (`duration` long in total).
pub fn summarise(
    records: &[Record],
    rate_rps: f64,
    duration: Duration,
    windows: usize,
) -> RungSummary {
    let window_s = duration.as_secs_f64() / windows as f64;
    let mut offered = vec![0usize; windows];
    let mut within = vec![0usize; windows];
    let mut ok = vec![0usize; windows];
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut late: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let count = |v: Verdict| records.iter().filter(|r| r.verdict == v).count();
    for r in records {
        let w = ((r.due_s / window_s) as usize).min(windows - 1);
        offered[w] += 1;
        late[w].push(r.late_ms);
        if r.verdict == Verdict::Ok {
            ok[w] += 1;
            lat[w].push(r.latency_ms);
            if r.latency_ms <= SLO_MS {
                within[w] += 1;
            }
        }
    }
    RungSummary {
        rate_rps,
        offered: records.len(),
        within_slo_share: (0..windows)
            .map(|w| within[w] as f64 / offered[w].max(1) as f64)
            .collect(),
        ok_per_s: ok.iter().map(|&n| n as f64 / window_s).collect(),
        p50_ms: lat
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| stats::median(l))
            .collect(),
        late_p50_ms: late.iter().map(|l| stats::median(l)).collect(),
        ok_latency_ms: stats::sorted(lat.into_iter().flatten().collect()),
        late_ms: stats::sorted(late.into_iter().flatten().collect()),
        refused: count(Verdict::Refused),
        deadline: count(Verdict::Deadline),
        failed: count(Verdict::Failed),
        mismatched: count(Verdict::Mismatch),
    }
}

/// The rung pass rule: the median window has at least [`SLO_SHARE`] of its
/// requests within the limit, and the generator is not falling further
/// behind (the last window's median lateness is at most 1 ms above the
/// first's — a growing backlog on the sending side means the offered rate
/// was not really offered).
pub fn rung_passes(within_slo_share: &[f64], late_p50_ms: &[f64]) -> bool {
    if within_slo_share.is_empty() || late_p50_ms.is_empty() {
        return false;
    }
    let share_ok = stats::median(within_slo_share) >= SLO_SHARE;
    let growing = late_p50_ms[late_p50_ms.len() - 1] > late_p50_ms[0] + 1.0;
    share_ok && !growing
}

/// The highest rate whose rung passes (0 when none does). Lower rungs need
/// not pass: rungs of the traced run are short, and one host hiccup can fail
/// a calm rung that the rungs above it then clear.
pub fn slo_rate(rungs: &[RungSummary]) -> f64 {
    rungs
        .iter()
        .filter(|r| rung_passes(&r.within_slo_share, &r.late_p50_ms))
        .map(|r| r.rate_rps)
        .fold(0.0, f64::max)
}
