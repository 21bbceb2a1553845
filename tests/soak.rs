//! The real-thread chaos soak: what the seeded simulators (which own every
//! decision, every counter and the byte balance, on a virtual clock)
//! cannot show.
//!
//! Three tenants — `a`, `b` (quota-metered) and `lo` (Low priority) — share
//! one byte-budgeted, traced server behind the HTTP listener, with
//! micro-batching on and a mid-stream hot swap of `a` to bit-identical
//! weights, while seeded chaos injects slow and panicking operators,
//! stalls, worker kills and every Nth reservation an allocation failure.
//! TCP clients go through the listener (whose connection threads run their
//! requests in parked workers' slots) while the main thread `submit`s
//! beside them (the queue path). Checked:
//!
//! * **Bit-identical 200s** — every success, on the wire or not, equals
//!   its tenant's serial-oracle logits, chaos or no chaos.
//! * **The real server's books** — per tenant, the conservation law
//!   (every submission admitted or refused, every admitted request
//!   resolved once), and the gauges against the callers' tallies: one
//!   worker fault per injected panic, none per allocation failure; every
//!   connection accepted once, none shed.
//! * **Lease balance after a real shutdown** — the listener drains, the
//!   workers join, and the default tenant holds only its weights under
//!   one lease, the others nothing.
//! * **Flight-recorder retention** — every error response is retrievable
//!   by its client-supplied request id with a verdict, the recorder stays
//!   in its byte budget, and its dump exports to a loadable Chrome trace.
//!
//! It asserts that it reached its chaos, overload, batching, quota, hot
//! swap and caller-run path. `BITFLOW_CHAOS` replays a seed verbatim. A
//! calm control runs the same runtime with chaos off.

#[path = "common/soak.rs"]
mod soak;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bitflow::prelude::*;
use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{GovernorConfig, Priority, ResponseHandle};
use bitflow_telemetry::{to_chrome_trace, FlightRecorder, RecorderConfig, ServeSnapshot};
use bitflow_tensor::io::encode_tensor;
use soak::{compiled_small_cnn, serial_oracle, wait_with_watchdog, Tally, DISTINCT_INPUTS};

/// Requests on the wire and through `submit`.
const REQUESTS: usize = 600;
const NAMES: [&str; 3] = ["a", "b", "lo"];
/// TCP client threads, tenants `a` and `b` in turn.
const CLIENTS: usize = 4;

/// Most requests unbounded, some generous, some hopeless (under a
/// millisecond: `0` on the wire).
fn budget(i: usize) -> Option<Duration> {
    match i % 10 {
        9 => Some(Duration::from_micros(50)),
        7 | 8 => Some(Duration::from_millis(500)),
        _ => None,
    }
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
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let mut body = buf[head_end..].to_vec();
    while body.len() < length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    Some((status, body))
}

/// One wire request `i` to tenant `t`, booked into `tally` as a caller
/// would book its result; `Some(i)` for an error the recorder must keep.
fn wire_request(
    addr: std::net::SocketAddr,
    i: usize,
    t: usize,
    body: &[u8],
    oracle: &[Vec<f32>],
    tally: &mut Tally,
) -> Option<usize> {
    let deadline = budget(i).map_or(String::new(), |b| {
        format!("x-bitflow-deadline-ms: {}\r\n", b.as_millis())
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let head = format!(
        "POST /v1/infer/{} HTTP/1.1\r\nx-bitflow-request-id: soak-{i}\r\n{deadline}content-length: {}\r\nconnection: close\r\n\r\n",
        NAMES[t],
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .expect("write request");
    let (status, resp) =
        read_response(&mut stream).unwrap_or_else(|| panic!("request {i}: no complete response"));
    let text = String::from_utf8_lossy(&resp).to_string();
    tally.submitted += 1;
    let result = match status {
        200 => Ok(resp
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()),
        429 | 503 => Err(BitFlowError::Rejected(RejectReason::QueueFull)),
        507 if text.contains("rejected_memory") => {
            Err(BitFlowError::Rejected(RejectReason::MemoryPressure))
        }
        504 => Err(BitFlowError::DeadlineExceeded),
        507 => Err(BitFlowError::ResourceExhausted {
            what: "inference context",
            bytes: 0,
        }),
        500 => Err(BitFlowError::Internal(text)),
        other => panic!("request {i}: unexpected wire status {other}: {text}"),
    };
    let error = matches!(status, 500 | 504).then_some(i);
    match result {
        Err(BitFlowError::Rejected(_)) => tally.rejected += 1,
        result => tally.resolved(i, result, oracle),
    }
    error
}

#[test]
fn chaos_soak_keeps_logits_faults_leases_and_traces() {
    let (model_a, inputs) = compiled_small_cnn(42);
    let model_b = compiled_small_cnn(7).0;
    let model_lo = compiled_small_cnn(9).0;
    // The hot-swap replacement: `model_a`'s weights, recompiled — logits
    // stay bit-identical, so the oracle survives the swap.
    let model_a2 = compiled_small_cnn(42).0;
    let oracles = [&model_a, &model_b, &model_lo].map(|m| serial_oracle(m, &inputs));
    let encoded: Vec<Vec<u8>> = inputs.iter().map(|i| encode_tensor(i).to_vec()).collect();

    let chaos = ChaosConfig::from_env().unwrap_or_else(|| ChaosConfig {
        alloc_fail_nth: 7,
        ..ChaosConfig::with_seed(0xB17F)
    });
    let mut registry = ModelRegistry::new();
    registry.register("a", Arc::clone(&model_a), None);
    registry.register("b", Arc::clone(&model_b), Some(8));
    registry.register_with_priority("lo", Arc::clone(&model_lo), None, Priority::Low);
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
            max_batch: 8,
            coalesce_window: Duration::from_micros(50),
            breaker: BreakerConfig {
                fault_threshold: 64,
                cooldown: Duration::from_millis(10),
            },
            chaos: Some(chaos.clone()),
            govern: GovernorConfig {
                global_budget: Some(64 << 20),
                tenant_budget: Some(48 << 20),
            },
            recorder: Some(Arc::clone(&recorder)),
            ..ServerConfig::default()
        },
    ));
    let gauges = NAMES.map(|name| server.client(name).expect("registered").entry().gauges());
    let net = NetServer::bind(
        Arc::clone(&server),
        NetConfig {
            max_conns: 256,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    let mut tallies: [Tally; 3] = Default::default();
    let mut error_ids = Vec::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (encoded, oracles) = (&encoded, &oracles);
                s.spawn(move || {
                    let mut tallies: [Tally; 2] = Default::default();
                    let mut errors = Vec::new();
                    for i in (c..REQUESTS / 2).step_by(CLIENTS) {
                        let t = i % 2;
                        let body = &encoded[i % DISTINCT_INPUTS];
                        let tally = &mut tallies[t];
                        errors.extend(wire_request(addr, i, t, body, &oracles[t], tally));
                    }
                    (tallies, errors)
                })
            })
            .collect();

        let mut pending: Vec<(usize, usize, ResponseHandle)> = Vec::new();
        for i in REQUESTS / 2..REQUESTS {
            if i == REQUESTS * 3 / 4 {
                let displaced = server
                    .client("a")
                    .expect("registered")
                    .swap(Arc::clone(&model_a2));
                assert!(
                    Arc::ptr_eq(&displaced, &model_a),
                    "swap returns the displaced model"
                );
            }
            let t = i % 3;
            let client = server.client(NAMES[t]).expect("registered");
            tallies[t].submitted += 1;
            match client.submit(Submission {
                token: budget(i).map(CancelToken::with_budget),
                ..Submission::new(inputs[i % DISTINCT_INPUTS].clone())
            }) {
                Ok(handle) => {
                    if i % 37 == 0 {
                        handle.cancel();
                    }
                    pending.push((t, i, handle));
                }
                Err(_) => tallies[t].rejected += 1,
            }
        }
        for (t, i, handle) in pending {
            let result = wait_with_watchdog(&handle, Duration::from_secs(60));
            tallies[t].resolved(i, result, &oracles[t]);
        }
        for client in clients {
            let (wire, errors) = client.join().expect("client thread");
            for (t, tally) in wire.iter().enumerate() {
                tallies[t].add(tally);
            }
            error_ids.extend(errors);
        }
    });

    assert!(net.shutdown(), "drain must complete within the budget");
    let snaps = gauges.clone().map(|g| g.snapshot());
    for (t, (snap, tally)) in snaps.iter().zip(&tallies).enumerate() {
        let rejected = snap.rejected_queue_full
            + snap.rejected_shedding
            + snap.rejected_draining
            + snap.rejected_quota
            + snap.govern.rejected_memory;
        let deadline = snap.shed_deadline + snap.deadline_missed;
        // The conservation law: every submission admitted or refused,
        // every admitted request resolved exactly once.
        let resolved = snap.completed + snap.failed + deadline + snap.cancelled;
        assert_eq!(
            (snap.submitted, snap.accepted),
            (snap.accepted + rejected, resolved),
            "tenant {t}: conservation"
        );
        // The gauges against the callers' tally: one worker fault per
        // injected panic and none per allocation failure. A body the
        // listener refused before submitting it moves no serving counter,
        // so the callers' surplus of submissions is exactly their surplus
        // of refusals.
        assert_eq!(
            [
                snap.completed,
                snap.failed,
                snap.worker_panics,
                snap.cancelled,
                deadline
            ],
            [
                tally.completed,
                tally.failed + tally.exhausted,
                tally.failed,
                tally.cancelled,
                tally.deadline
            ],
            "tenant {t}: completed, failed, panics, cancelled, deadline"
        );
        assert_eq!(
            tally.submitted + rejected,
            tally.rejected + snap.submitted,
            "tenant {t}: submissions and refusals the gauges never saw differ"
        );
        assert!(snap.completed > 0, "tenant {t} starved");
        assert!(
            snap.batches > 0 && snap.batch_items >= snap.completed,
            "tenant {t}: every completed request went through a batch"
        );
    }
    // Every connection the clients opened was accepted exactly once, one
    // a wire request, and none shed at this cap.
    assert_eq!(
        (snaps[0].net_accepted_conns, snaps[0].net_rejected_conns),
        ((REQUESTS / 2) as u64, 0),
        "accepted and shed connections"
    );
    // The soak must reach what it claims to.
    let sum = |f: fn(&ServeSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
    assert!(
        sum(|s| s.worker_panics) > 0,
        "worker-panic chaos never fired"
    );
    if chaos.alloc_fail_nth > 0 {
        let exhausted: u64 = tallies.iter().map(|t| t.exhausted).sum();
        assert!(
            sum(|s| s.govern.rejected_memory) + exhausted > 0,
            "allocation-failure chaos never fired"
        );
    }
    assert!(
        sum(|s| s.served_on_caller) > 0,
        "no wire request found a parked worker: the caller path went unexercised"
    );
    assert!(
        sum(|s| s.rejected_queue_full + s.shed_deadline + s.deadline_missed) > 0,
        "no overload behaviour observed"
    );
    assert!(
        snaps[0].batch_size_max > 1,
        "saturation must coalesce multi-request batches"
    );
    assert!(
        snaps[1].rejected_quota > 0,
        "the metered tenant must hit its quota under saturation"
    );
    assert_eq!(
        server.client("a").expect("registered").entry().swaps(),
        1,
        "the mid-stream hot swap must be recorded"
    );

    // Tail-based sampling keeps every error trace: each complete 500 or
    // 504 the clients saw is retrievable by its id, with a verdict.
    for i in &error_ids {
        let trace = recorder
            .find(&format!("soak-{i}"))
            .unwrap_or_else(|| panic!("error request soak-{i} missing from the flight recorder"));
        assert!(
            !trace.outcome.is_empty(),
            "soak-{i}: error traces carry a verdict"
        );
    }
    assert!(
        recorder.bytes() <= recorder_cfg.max_bytes,
        "recorder grew past its byte budget: {} > {}",
        recorder.bytes(),
        recorder_cfg.max_bytes
    );
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
    assert!(to_chrome_trace(&dump).starts_with("{\"traceEvents\":"));

    // A real shutdown: workers joined (context leases dropped), every
    // request resolved (payload and body leases dropped). The default
    // tenant's entry outlives the pool and holds only its weights.
    let (mut server, since) = (server, std::time::Instant::now());
    let server = loop {
        // The last connection thread lets go of the server just after it
        // stops counting as open.
        match Arc::try_unwrap(server) {
            Ok(server) => break server,
            Err(shared) => server = shared,
        }
        assert!(
            since.elapsed() < Duration::from_secs(10),
            "a connection thread still holds the server 10 s after the drain"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let snap_a = server.shutdown();
    let weights = (model_a2.float_model_bytes() + model_a2.packed_model_bytes()) as u64;
    assert_eq!(
        (snap_a.govern.mem_leases, snap_a.govern.mem_used_bytes),
        (1, weights),
        "a: only the weight lease survives while its entry lives"
    );
    for (name, g) in [("b", &gauges[1]), ("lo", &gauges[2])] {
        let g = g.snapshot().govern;
        assert_eq!(
            (g.mem_leases, g.mem_used_bytes),
            (0, 0),
            "{name}: leases left"
        );
    }
}
/// The control group: with chaos off everything completes bit-identical,
/// nothing is shed, and the fault counters stay at zero — the runtime
/// injects no failures of its own.
#[test]
fn calm_soak_completes_everything() {
    const N: usize = 500;
    let (model, inputs) = compiled_small_cnn(43);
    let oracle = serial_oracle(&model, &inputs);
    let server = Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            queue_capacity: N,
            ..ServerConfig::default()
        },
    );
    let handles: Vec<(usize, ResponseHandle)> = (0..N)
        .map(|i| {
            let handle = server
                .submit(inputs[i % DISTINCT_INPUTS].clone())
                .unwrap_or_else(|r| panic!("request {i} rejected ({r}) with an unbounded queue"));
            (i, handle)
        })
        .collect();
    for (i, handle) in handles {
        let logits = match wait_with_watchdog(&handle, Duration::from_secs(60)) {
            Ok(l) => l,
            Err(e) => panic!("request {i} failed without chaos: {e}"),
        };
        assert_eq!(logits, oracle[i % DISTINCT_INPUTS], "request {i} diverged");
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, N as u64);
    assert_eq!(snap.accepted, N as u64);
    assert_eq!(
        snap.failed + snap.worker_panics + snap.worker_restarts + snap.breaker_trips,
        0,
        "calm soak must be fault-free"
    );
}
