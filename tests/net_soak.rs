//! Chaos soak for the network front-end (`bitflow-net`).
//!
//! Real TCP clients drive a two-tenant server (one quota-metered) through
//! the HTTP listener while the seeded serving-runtime chaos injects slow
//! operators, worker panics, queue stalls and worker kills. The listener
//! serves through `ModelClient::call`, so every wire request may run on its
//! connection thread in a parked worker's slot (the queue path beside it
//! is `serve_soak`'s). The wire protocol under hostile clients is the
//! connection simulator's (`crates/net/tests/sim.rs`).
//!
//! The contract:
//!
//! * **Bit-identical 200s** — every 200 body equals the tenant's
//!   serial-oracle logits for that input, chaos or no chaos.
//! * **Gauge↔tally equality per tenant** — every request gets a complete
//!   response, and each tenant's counters equal the client-side tallies
//!   (the serve-layer conservation law itself is `serve_soak`'s and the
//!   simulator's); at the wire, `accepted_conns == connections opened`
//!   with zero sheds.
//! * **Worker panics fired.**
//! * **Flight-recorder tail sampling** — the soak runs fully traced;
//!   every error response is retrievable from the recorder by its
//!   client-supplied request id, the recorder never exceeds its byte
//!   budget, and the dump exports to a loadable Chrome trace.
//!
//! `BITFLOW_CHAOS` replays a seed verbatim.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bitflow::prelude::*;
use bitflow_net::{NetConfig, NetServer};
use bitflow_telemetry::{to_chrome_trace, FlightRecorder, RecorderConfig};
use bitflow_tensor::io::encode_tensor;

#[path = "common/soak.rs"]
mod soak;
use soak::{compiled_small_cnn, serial_oracle, DISTINCT_INPUTS, SOAK_REQUESTS};

/// Client-side view of one request's fate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Complete 200, oracle-checked.
    Ok,
    /// Complete rejection that implies the request reached `submit`
    /// (429 queue-full/shedding/quota, 503 draining).
    Rejected,
    /// Complete 504: admitted, then the deadline cut it down.
    Deadline,
    /// Complete 500 carrying an injected chaos panic.
    Failed,
}

/// Reads one full response; `None` on a dead or truncated connection.
fn read_response(stream: &mut TcpStream) -> Option<(u16, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head.split("\r\n").next()?.split(' ').nth(1)?.parse().ok()?;
    let content_length: usize = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None, // truncated mid-body
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    Some((status, body))
}

#[test]
fn tcp_chaos_soak_conserves_per_tenant_and_preserves_logits() {
    let n = SOAK_REQUESTS;
    let (model_a, inputs) = compiled_small_cnn(42);
    let model_b = compiled_small_cnn(7).0;
    let encoded: Vec<Vec<u8>> = inputs.iter().map(|i| encode_tensor(i).to_vec()).collect();
    let oracle_a = serial_oracle(&model_a, &inputs);
    let oracle_b = serial_oracle(&model_b, &inputs);

    let chaos = ChaosConfig::from_env().unwrap_or_else(|| ChaosConfig::with_seed(0xB17F));
    let mut registry = ModelRegistry::new();
    registry.register("a", Arc::clone(&model_a), None);
    registry.register("b", Arc::clone(&model_b), Some(8));
    // The whole soak runs traced into a bounded flight recorder: every
    // request carries a client id (`soak-{i}`), so after the run the
    // recorder's tail-sampling contract can be checked against the
    // client-side tallies.
    let recorder_cfg = RecorderConfig {
        max_bytes: 8 << 20,
        ..RecorderConfig::default()
    };
    let recorder = Arc::new(FlightRecorder::new(recorder_cfg.clone()));
    let server = Arc::new(Server::start_multi(
        registry,
        ServerConfig {
            workers: 4,
            queue_capacity: 32,
            shed_policy: ShedPolicy::DeadlineAware,
            max_batch: 4,
            coalesce_window: Duration::ZERO,
            breaker: BreakerConfig {
                fault_threshold: 64,
                cooldown: Duration::from_millis(10),
            },
            chaos: Some(chaos),
            default_deadline: None,
            recorder: Some(Arc::clone(&recorder)),
            ..ServerConfig::default()
        },
    ));
    let gauges_b = server.client("b").expect("registered").entry().gauges();
    let net = NetServer::bind(
        Arc::clone(&server),
        NetConfig {
            // High cap: the cap has its own test in `wire.rs`; zero
            // sheds keeps `accepted_conns == connects` exact.
            max_conns: 256,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    // 4 client threads, requests striped across them; one request per
    // connection.
    const CLIENTS: usize = 4;
    let workers: Vec<std::thread::JoinHandle<Vec<(usize, usize, Outcome)>>> = (0..CLIENTS)
        .map(|t| {
            let encoded = encoded.clone();
            let oracle_a = oracle_a.clone();
            let oracle_b = oracle_b.clone();
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in (t..n).step_by(CLIENTS) {
                    let tenant = usize::from(i % 3 == 0); // 0 = a, 1 = b
                    let path = if tenant == 0 { "/v1/infer/a" } else { "/v1/infer/b" };
                    let deadline_header = match i % 10 {
                        9 => "x-bitflow-deadline-ms: 0\r\n",
                        7 | 8 => "x-bitflow-deadline-ms: 500\r\n",
                        _ => "",
                    };
                    let body = &encoded[i % DISTINCT_INPUTS];
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                    let req = format!(
                        "POST {path} HTTP/1.1\r\nx-bitflow-request-id: soak-{i}\r\n{deadline_header}content-length: {}\r\nconnection: close\r\n\r\n",
                        body.len()
                    );
                    stream
                        .write_all(req.as_bytes())
                        .and_then(|()| stream.write_all(body))
                        .expect("write request");
                    let (status, resp) = read_response(&mut stream)
                        .unwrap_or_else(|| panic!("request {i}: no complete response"));
                    let outcome = classify(i, tenant, status, &resp, &oracle_a, &oracle_b);
                    outcomes.push((i, tenant, outcome));
                }
                outcomes
            })
        })
        .collect();

    fn classify(
        i: usize,
        tenant: usize,
        status: u16,
        body: &[u8],
        oracle_a: &[Vec<f32>],
        oracle_b: &[Vec<f32>],
    ) -> Outcome {
        match status {
            200 => {
                let logits: Vec<f32> = body
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                let oracle = if tenant == 0 { oracle_a } else { oracle_b };
                assert_eq!(
                    logits,
                    oracle[i % DISTINCT_INPUTS],
                    "request {i}: 200 body diverged from the tenant's serial oracle"
                );
                Outcome::Ok
            }
            429 | 503 => Outcome::Rejected,
            504 => Outcome::Deadline,
            500 => {
                let text = String::from_utf8_lossy(body).to_string();
                assert!(
                    text.contains("chaos"),
                    "request {i}: only injected panics may 500, got: {text}"
                );
                Outcome::Failed
            }
            other => panic!("request {i}: unexpected wire status {other}"),
        }
    }

    let mut tallies = [[0u64; 4]; 2]; // [tenant][Ok, Rejected, Deadline, Failed]
    let mut error_ids: Vec<usize> = Vec::new(); // complete 500s/504s, by request index
    for worker in workers {
        for (i, tenant, outcome) in worker.join().expect("client thread") {
            tallies[tenant][outcome as usize] += 1;
            if matches!(outcome, Outcome::Failed | Outcome::Deadline) {
                error_ids.push(i);
            }
        }
    }

    assert!(net.shutdown(), "drain must complete within the budget");
    let snap_a = server.gauges().snapshot(); // "a" registered first: default entry
    let snap_b = gauges_b.snapshot();

    // --- Wire-level conservation -------------------------------------
    // Every connection the clients opened was accepted exactly once (no
    // sheds at this cap).
    assert_eq!(snap_a.net_rejected_conns, 0, "cap must never shed here");
    assert_eq!(
        snap_a.net_accepted_conns, n as u64,
        "one connection per request, each accepted exactly once"
    );
    assert!(snap_a.net_bytes_in > 0 && snap_a.net_bytes_out > 0);

    // --- Per-tenant conservation --------------------------------------
    // Every request got a complete response, so every counter is pinned.
    for (tenant, snap) in [(0usize, &snap_a), (1usize, &snap_b)] {
        let [ok, rejected, deadline, failed] = tallies[tenant];
        let rejected_gauge = snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.rejected_quota;
        assert_eq!(snap.completed, ok, "tenant {tenant}: completed");
        assert_eq!(rejected_gauge, rejected, "tenant {tenant}: rejections");
        assert_eq!(
            snap.shed_deadline + snap.deadline_missed,
            deadline,
            "tenant {tenant}: deadline outcomes"
        );
        assert_eq!(
            snap.submitted,
            ok + rejected + deadline + failed,
            "tenant {tenant}: submitted"
        );
        assert!(snap.completed > 0, "tenant {tenant} starved");
    }
    assert!(
        snap_a.worker_panics + snap_b.worker_panics > 0,
        "worker-panic chaos never fired"
    );

    // --- Flight-recorder contract under chaos --------------------------
    // Tail-based sampling keeps every error trace: each complete error
    // response the clients saw (injected 500s, deadline 504s) must be
    // retrievable by the client-supplied id, with a verdict.
    for i in &error_ids {
        let trace = recorder
            .find(&format!("soak-{i}"))
            .unwrap_or_else(|| panic!("error request soak-{i} missing from the flight recorder"));
        assert!(
            !trace.outcome.is_empty(),
            "request soak-{i}: error traces must carry a verdict"
        );
    }
    // The recorder is bounded: its accounting never exceeds the
    // configured budget, chaos or no chaos.
    assert!(
        recorder.bytes() <= recorder_cfg.max_bytes,
        "recorder grew past its byte budget: {} > {}",
        recorder.bytes(),
        recorder_cfg.max_bytes
    );
    // Every retained trace is structurally sound — stages sorted, inside
    // the request window — and the whole dump exports to a
    // Perfetto-loadable Chrome trace document.
    let dump = recorder.dump();
    assert!(!dump.is_empty(), "a traced soak must retain something");
    for trace in &dump {
        let slack = trace.total_ns / 20 + 500_000;
        let mut prev_start = 0u64;
        for s in &trace.stages {
            assert!(
                s.start_ns >= prev_start,
                "trace {}: stages must be sorted",
                trace.id
            );
            prev_start = s.start_ns;
            assert!(
                s.start_ns + s.duration_ns <= trace.total_ns + slack,
                "trace {}: stage {} overruns the request window",
                trace.id,
                s.stage.as_str()
            );
        }
    }
    let chrome = to_chrome_trace(&dump);
    assert!(
        chrome.starts_with("{\"traceEvents\":"),
        "chrome export must be loadable"
    );
}
