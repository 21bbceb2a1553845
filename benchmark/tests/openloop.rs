//! The open-loop scheduler times from the due instant, and the rung rule.

use std::time::{Duration, Instant};

use bitflow_benchmark::openloop::*;
use bitflow_benchmark::stats;

/// Answers instantly, except that `submit` of request `stall_at` blocks
/// the caller (the generator) for `stall`.
struct Stalling {
    stall_at: u64,
    stall: Duration,
}

impl Target for Stalling {
    type Ticket = ();

    fn submit(&self, seq: u64) -> Result<(), Verdict> {
        if seq == self.stall_at {
            let until = Instant::now() + self.stall;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        Ok(())
    }

    fn wait(&self, _seq: u64, _ticket: ()) -> Verdict {
        Verdict::Ok
    }
}

#[test]
fn a_stall_shows_in_the_following_requests_and_in_lateness() {
    // 1000 rps: one request per ms; request 100 stalls the target 20 ms,
    // so requests 101..=119 are due while it is stalled.
    let target = Stalling {
        stall_at: 100,
        stall: Duration::from_millis(20),
    };
    let records = run_rung(&target, 1000.0, Duration::from_millis(400), 0);
    assert_eq!(records.len(), 400);
    assert!(records.iter().enumerate().all(|(k, r)| r.seq == k as u64));

    // Timed from send time these would all read ~0; from due time the
    // request right behind the stall waited almost all of it.
    let behind = &records[101];
    assert!(behind.late_ms >= 15.0, "sent {} ms late", behind.late_ms);
    assert!(
        behind.latency_ms >= 15.0,
        "latency {} ms",
        behind.latency_ms
    );
    // Ten requests later roughly half the stall is still owed.
    assert!(
        records[110].latency_ms >= 5.0,
        "latency {} ms",
        records[110].latency_ms
    );
    // The stalled request itself was sent on time: its own lateness does
    // not contain the stall, its latency (submit returned late) does.
    assert!(records[100].latency_ms >= 19.0);

    let summary = summarise(&records, 1000.0, Duration::from_millis(400), 4);
    let late_max = summary.late_ms.last().copied().unwrap();
    assert!(late_max >= 15.0, "late_max {late_max} ms");
    assert_eq!(summary.offered, 400);
    assert_eq!(summary.ok_latency_ms.len(), 400);
    // The generator never sleeps while behind, so it caught up: the tail
    // of the schedule is back to (host-jitter) small latencies.
    let tail: Vec<f64> = records[300..].iter().map(|r| r.latency_ms).collect();
    assert!(
        stats::median(&tail) < 10.0,
        "tail median {} ms",
        stats::median(&tail)
    );
}

#[test]
fn refusals_and_late_answers_miss_the_limit() {
    let rec = |seq: u64, latency_ms: f64, verdict: Verdict| Record {
        seq,
        due_s: seq as f64 * 0.001,
        late_ms: 0.0,
        latency_ms,
        verdict,
    };
    let records = vec![
        rec(0, 1.0, Verdict::Ok),
        rec(1, SLO_MS + 0.1, Verdict::Ok),
        rec(2, 0.1, Verdict::Refused),
        rec(3, 0.1, Verdict::Deadline),
    ];
    let s = summarise(&records, 1000.0, Duration::from_millis(4), 1);
    assert_eq!(s.within_slo_share, vec![0.25]);
    assert_eq!(
        (s.refused, s.deadline, s.failed, s.mismatched),
        (1, 1, 0, 0)
    );
    assert_eq!(s.ok_latency_ms.len(), 2);
}

#[test]
fn rung_pass_rule() {
    // Median window decides: one bad window does not fail a rung...
    assert!(rung_passes(&[1.0, 0.2, 0.995], &[0.1, 0.1, 0.1]));
    // ...two do.
    assert!(!rung_passes(&[1.0, 0.98, 0.985], &[0.1, 0.1, 0.1]));
    assert!(rung_passes(&[0.99, 0.99, 0.99], &[0.1, 0.1, 0.1]));
    // A generator falling further behind did not offer the rate.
    assert!(!rung_passes(&[1.0, 1.0, 1.0], &[0.1, 0.8, 1.2]));
    assert!(rung_passes(&[1.0, 1.0, 1.0], &[0.1, 0.8, 1.05]));
    assert!(!rung_passes(&[], &[]));
}

#[test]
fn slo_rate_is_the_highest_passing_rung() {
    let rung = |rate: f64, share: f64| RungSummary {
        rate_rps: rate,
        offered: 100,
        within_slo_share: vec![share; 3],
        ok_per_s: vec![rate; 3],
        p50_ms: vec![1.0; 3],
        late_p50_ms: vec![0.1; 3],
        ok_latency_ms: vec![1.0; 100],
        late_ms: vec![0.1; 100],
        refused: 0,
        deadline: 0,
        failed: 0,
        mismatched: 0,
    };
    let ladder = [
        rung(200.0, 1.0),
        rung(400.0, 0.5),
        rung(600.0, 0.995),
        rung(800.0, 0.3),
    ];
    assert_eq!(slo_rate(&ladder), 600.0);
    assert_eq!(slo_rate(&ladder[3..]), 0.0);
    assert_eq!(slo_rate(&[]), 0.0);
}
