//! Real-socket tests of the HTTP front-end: one per syscall path the
//! simulators do not own — the accept loop's cap, a client that vanishes
//! mid-response, a graceful drain over real threads — and what the
//! listener renders from the live runtime: `/healthz`, the `/metrics`
//! exposition, `server-timing`, the debug routes and the span taxonomy of
//! a traced request. The wire protocol (deadlines, framing, pipelining,
//! drain, request ids, byte accounting), routing, the handler's
//! 400/404/405/411, and every serve verdict's status, hint and trace
//! outcome are the seeded simulator's (`tests/sim.rs`).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{ModelRegistry, Server, ServerConfig};
use bitflow_telemetry::{FlightRecorder, RecorderConfig, RequestTrace, Stage};
use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};

/// One compiled model, its serving runtime, a listener, one well-formed
/// input, and the serial-oracle logits for that input.
struct Stack {
    net: NetServer,
    server: Arc<Server>,
    input: Tensor,
    oracle: Vec<f32>,
}

fn stack(cfg: NetConfig) -> Stack {
    stack_with(cfg, None, ModelRegistry::single)
}

/// [`stack`] with a flight recorder, and the tenants `registry` makes of
/// the one compiled model.
fn stack_with(
    cfg: NetConfig,
    recorder: Option<Arc<FlightRecorder>>,
    registry: impl FnOnce(Arc<CompiledModel>) -> ModelRegistry,
) -> Stack {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let model = Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"));
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let mut ctx = model.try_new_context().expect("context allocates");
    let oracle = model.try_infer(&mut ctx, &input).expect("inference");
    let server = Arc::new(Server::start_multi(
        registry(model),
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            recorder,
            ..ServerConfig::default()
        },
    ));
    let net = NetServer::bind(Arc::clone(&server), cfg).expect("bind loopback");
    Stack {
        net,
        server,
        input,
        oracle,
    }
}

fn connect(stack: &Stack) -> TcpStream {
    let stream = TcpStream::connect(stack.net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn infer_request(path: &str, body: &[u8], extra_headers: &str) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\n{extra_headers}content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Reads one full response (status, headers, body). `None` when the
/// server closed the connection without sending one.
#[allow(clippy::type_complexity)]
fn read_response(stream: &mut TcpStream) -> Option<(u16, Vec<(String, String)>, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    Some((status, headers, body))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One request → one full response on a fresh connection.
#[allow(clippy::type_complexity)]
fn roundtrip(stack: &Stack, req: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = connect(stack);
    stream.write_all(req).expect("write request");
    read_response(&mut stream).expect("a response")
}

/// Round-trips one clean inference and checks the logits against the
/// serial oracle — the "listener still works" probe every test ends on.
fn assert_clean_inference(stack: &Stack) {
    let mut stream = connect(stack);
    let body = encode_tensor(&stack.input);
    stream
        .write_all(&infer_request("/v1/infer", &body, ""))
        .expect("write request");
    let (status, headers, body) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 200, "clean inference must succeed");
    assert!(
        header(&headers, "x-bitflow-request-id").is_some(),
        "200 carries a request id"
    );
    let logits: Vec<f32> = body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    assert_eq!(
        logits, stack.oracle,
        "wire logits must match serial inference"
    );
}

/// A quota'd tenant's refusals used to be unscrapeable: `/metrics` showed
/// the first registered tenant only.
#[test]
fn metrics_exposes_every_tenant_in_one_exposition() {
    let stack = stack_with(NetConfig::default(), None, |model| {
        let mut registry = ModelRegistry::new();
        registry.register("open", Arc::clone(&model), None);
        // A quota of zero is exhausted from the first request on.
        registry.register("capped", model, Some(0));
        registry
    });
    let enc = encode_tensor(&stack.input);
    let infer = |path: &str| {
        let mut stream = connect(&stack);
        stream
            .write_all(&infer_request(path, &enc, ""))
            .expect("write");
        read_response(&mut stream).expect("a response").0
    };
    let scrape = || {
        let mut stream = connect(&stack);
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
            .expect("write");
        let (status, _, body) = read_response(&mut stream).expect("a response");
        assert_eq!(status, 200);
        String::from_utf8_lossy(&body).to_string()
    };
    let count = |text: &str, series: &str| text.lines().filter(|l| *l == series).count();

    assert_eq!(roundtrip(&stack, b"GET /healthz HTTP/1.1\r\n\r\n").0, 200);
    assert_eq!(infer("/v1/infer/open"), 200);
    assert_eq!(infer("/v1/infer/capped"), 429);
    let text = scrape();
    for family in [
        "bitflow_net_accepted_conns_total",
        "bitflow_net_malformed_requests_total",
        "bitflow_net_bytes_in_total",
    ] {
        assert!(text.contains(family), "/metrics missing {family}");
    }
    for series in [
        "bitflow_serve_completed_total{model=\"open\"} 1",
        "bitflow_serve_completed_total{model=\"capped\"} 0",
        "bitflow_serve_rejected_total{model=\"open\",reason=\"quota\"} 0",
        "bitflow_serve_rejected_total{model=\"capped\",reason=\"quota\"} 1",
        "bitflow_serve_queue_depth{model=\"capped\"} 0",
        "bitflow_mem_leases{model=\"capped\"} 1",
    ] {
        assert_eq!(count(&text, series), 1, "{series}");
    }
    // One family, one header: the two tenants' series sit under it together.
    assert_eq!(
        count(&text, "# TYPE bitflow_serve_rejected_total counter"),
        1
    );

    // A hot swap to a telemetry-enabled model brings the operator families
    // and keeps the tenant's serving counters, which live in the entry and
    // not in the model that was swapped in.
    let spec = small_cnn();
    let weights = NetworkWeights::random_with_bn(&spec, &mut StdRng::seed_from_u64(42));
    let watched = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
    watched.enable_telemetry();
    let open = stack.server.registry().get("open").expect("registered");
    open.swap_model(Arc::new(watched));
    assert_eq!(infer("/v1/infer/open"), 200);
    let text = scrape();
    assert_eq!(
        count(&text, "bitflow_serve_completed_total{model=\"open\"} 2"),
        1
    );
    assert_eq!(count(&text, "bitflow_requests_total{model=\"open\"} 1"), 1);
    let op_series = "bitflow_op_calls_total{model=\"open\",op=";
    assert!(text.lines().any(|l| l.starts_with(op_series)));
}

#[test]
fn mid_response_disconnect_never_wedges_the_listener() {
    let stack = stack(NetConfig::default());
    // A wave of clients that send a full valid request and vanish without
    // reading a byte of the response.
    for _ in 0..8 {
        let mut stream = connect(&stack);
        let enc = encode_tensor(&stack.input);
        stream
            .write_all(&infer_request("/v1/infer", &enc, ""))
            .expect("write");
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
    }
    // The listener must still serve clean traffic afterwards.
    assert_clean_inference(&stack);
    // And the abandoned handlers must all retire.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stack.net.open_conns() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned connections must not leak handler threads"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn connection_cap_sheds_with_503() {
    let stack = stack(NetConfig {
        max_conns: 1,
        header_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    });
    // First connection parks in the handler (idle, waiting for a head).
    let parked = connect(&stack);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while stack.net.open_conns() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "handler never spawned"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Second connection must be shed by the accept loop itself.
    let mut extra = connect(&stack);
    let (status, headers, _) = read_response(&mut extra).expect("shed response");
    assert_eq!(status, 503, "past the cap the accept loop sheds");
    assert!(header(&headers, "retry-after").is_some());
    let snap = stack.server.gauges().snapshot();
    assert_eq!(snap.net_rejected_conns, 1);
    drop(parked);
}

/// Graceful shutdown over real threads: requests already on a connection
/// finish with full, bit-identical responses, and the listener refuses new
/// work.
#[test]
fn graceful_shutdown_drains_in_flight_and_conserves_gauges() {
    let stack = stack(NetConfig::default());
    let addr = stack.net.local_addr();
    let enc = encode_tensor(&stack.input);
    let oracle = stack.oracle.clone();

    // A few client threads each run sequential keep-alive requests while
    // the main thread pulls the plug mid-stream.
    let clients: Vec<std::thread::JoinHandle<(u64, u64)>> = (0..4)
        .map(|_| {
            let enc = enc.to_vec();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut closed = 0u64;
                for _ in 0..6 {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        closed += 1;
                        continue;
                    };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let req = format!(
                        "POST /v1/infer HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                        enc.len()
                    );
                    if stream.write_all(req.as_bytes()).is_err() || stream.write_all(&enc).is_err()
                    {
                        closed += 1;
                        continue;
                    }
                    match read_response(&mut stream) {
                        Some((200, _, body)) => {
                            // Anything the listener answered 200 must be the
                            // exact oracle bytes — even during the drain.
                            let logits: Vec<f32> = body
                                .chunks_exact(4)
                                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                                .collect();
                            assert_eq!(logits, oracle, "drained response corrupted");
                            ok += 1;
                        }
                        Some(_) => closed += 1,
                        None => closed += 1,
                    }
                }
                (ok, closed)
            })
        })
        .collect();

    // Let some traffic land, then drain.
    std::thread::sleep(Duration::from_millis(30));
    let Stack { net, server, .. } = stack;
    assert!(
        net.shutdown(),
        "drain must complete within the drain budget"
    );

    let mut ok_total = 0u64;
    for client in clients {
        let (ok, _closed) = client.join().expect("client thread");
        ok_total += ok;
    }
    assert!(ok_total > 0, "some requests must have completed");

    // After the drain: no open connections, and the serving gauges
    // conserve exactly — every admitted request resolved exactly once.
    let snap = server.gauges().snapshot();
    let rejected = snap.rejected_queue_full
        + snap.rejected_shedding
        + snap.rejected_draining
        + snap.rejected_quota;
    assert_eq!(snap.submitted, snap.accepted + rejected);
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.shed_deadline + snap.deadline_missed + snap.cancelled,
        "graceful drain must not lose or double-resolve a request"
    );
    assert_eq!(
        snap.completed, ok_total,
        "every 200 on the wire is one completion"
    );
    assert!(snap.net_accepted_conns > 0);
    assert!(snap.net_bytes_in > 0);
    assert!(snap.net_bytes_out > 0);
}

#[test]
fn server_timing_header_is_flag_gated() {
    let enc_stack = stack(NetConfig {
        server_timing: true,
        ..NetConfig::default()
    });
    let enc = encode_tensor(&enc_stack.input);
    let (status, headers, _) = roundtrip(&enc_stack, &infer_request("/v1/infer", &enc, ""));
    assert_eq!(status, 200);
    let timing = header(&headers, "server-timing").expect("server-timing with the flag on");
    assert!(timing.contains("queue;dur="), "{timing}");
    assert!(timing.contains("exec;dur="), "{timing}");
    assert!(timing.contains("app;dur="), "{timing}");

    let plain_stack = stack(NetConfig::default());
    let enc = encode_tensor(&plain_stack.input);
    let (_, headers, _) = roundtrip(&plain_stack, &infer_request("/v1/infer", &enc, ""));
    assert!(
        header(&headers, "server-timing").is_none(),
        "server-timing must be opt-in"
    );
}

/// Fetches a retained trace by wire id, polling briefly: the recorder
/// offer happens just after the response bytes leave, so a client that
/// turns around instantly can win the race.
fn fetch_trace(stack: &Stack, id: &str) -> Option<RequestTrace> {
    for _ in 0..50 {
        let (status, _, body) = roundtrip(
            stack,
            format!("GET /debug/requests/{id} HTTP/1.1\r\n\r\n").as_bytes(),
        );
        if status == 200 {
            return serde_json::from_slice::<RequestTrace>(&body).ok();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn debug_endpoints_serve_traces_with_the_full_span_taxonomy() {
    let stack = stack_with(
        NetConfig {
            debug_endpoints: true,
            ..NetConfig::default()
        },
        Some(Arc::new(FlightRecorder::new(RecorderConfig::default()))),
        ModelRegistry::single,
    );
    let enc = encode_tensor(&stack.input);
    let (status, headers, _) = roundtrip(
        &stack,
        &infer_request("/v1/infer", &enc, "x-bitflow-request-id: trace-me-1\r\n"),
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-bitflow-request-id"), Some("trace-me-1"));

    // The retained trace carries the whole lifecycle, front-end and
    // serving-runtime stages stitched onto one timeline.
    let trace = fetch_trace(&stack, "trace-me-1").expect("trace retained and served");
    assert_eq!(trace.id, "trace-me-1");
    assert!(trace.outcome.is_empty(), "a 200 is an ok trace");
    assert!(trace.batch_size >= 1);
    assert!(!trace.spans.is_empty(), "engine op spans must nest inside");
    for stage in [
        Stage::Accept,
        Stage::Parse,
        Stage::ReadBody,
        Stage::Decode,
        Stage::Admit,
        Stage::QueueWait,
        Stage::BatchWait,
        Stage::Exec,
        Stage::Write,
    ] {
        assert!(
            trace.stages.iter().any(|s| s.stage == stage),
            "missing stage {}",
            stage.as_str()
        );
    }
    // Stages are sorted, stay inside the request window, and account for
    // (almost) all of the wall-clock latency: the uncovered gaps are pure
    // in-process compute between adjacent stages.
    let mut prev_start = 0u64;
    let mut covered = 0u64;
    for s in &trace.stages {
        assert!(s.start_ns >= prev_start, "stages must be sorted");
        prev_start = s.start_ns;
        assert!(
            s.start_ns + s.duration_ns <= trace.total_ns + trace.total_ns / 20,
            "stage {} overruns the request window",
            s.stage.as_str()
        );
        covered += s.duration_ns;
    }
    assert!(
        covered <= trace.total_ns + trace.total_ns / 20 + 500_000,
        "stages sum past wall-clock: {covered} > {}",
        trace.total_ns
    );
    assert!(
        covered >= trace.total_ns / 2,
        "stages cover too little of the request: {covered} of {}",
        trace.total_ns
    );

    // An error request is always retained (tail-based sampling keeps
    // every non-ok trace) and reports the serving runtime's verdict.
    let (status, _, _) = roundtrip(
        &stack,
        &infer_request(
            "/v1/infer",
            &enc,
            "x-bitflow-request-id: doomed-1\r\nx-bitflow-deadline-ms: 0\r\n",
        ),
    );
    assert_eq!(status, 504);
    let doomed = fetch_trace(&stack, "doomed-1").expect("error trace retained");
    assert!(!doomed.outcome.is_empty(), "error traces carry a verdict");

    // The recorder dump, both shapes.
    let (status, _, body) = roundtrip(&stack, b"GET /debug/trace HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let all: Vec<RequestTrace> = serde_json::from_slice(&body).expect("a JSON trace list");
    assert!(all.iter().any(|t| t.id == "trace-me-1"));
    let (status, _, body) = roundtrip(&stack, b"GET /debug/trace?format=chrome HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("utf-8");
    assert!(text.starts_with("{\"traceEvents\":"), "{text}");

    // Method enforcement mirrors the other routes.
    let (status, _, _) = roundtrip(
        &stack,
        b"POST /debug/trace HTTP/1.1\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status, 405);
}

#[test]
fn debug_routes_hide_without_the_flag_and_degrade_without_a_recorder() {
    // Flag off: the routes do not exist, recorder or not.
    let hidden = stack_with(
        NetConfig::default(),
        Some(Arc::new(FlightRecorder::new(RecorderConfig::default()))),
        ModelRegistry::single,
    );
    let (status, _, _) = roundtrip(&hidden, b"GET /debug/trace HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404, "debug routes must be opt-in");

    // Flag on, no recorder: the route exists but reports the gap.
    let degraded = stack(NetConfig {
        debug_endpoints: true,
        ..NetConfig::default()
    });
    let (status, _, _) = roundtrip(&degraded, b"GET /debug/trace HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "no recorder means 503, not a panic");
    let (status, _, _) = roundtrip(&degraded, b"GET /debug/requests/xyz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503);
}
