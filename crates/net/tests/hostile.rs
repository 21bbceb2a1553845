//! Hostile-client integration tests for the HTTP front-end.
//!
//! Every scenario here is a real TCP client doing something wrong —
//! dripping a header byte at a time, declaring an enormous body, sending
//! bytes that are not HTTP, disconnecting mid-response, piling past the
//! connection cap — and every one must produce a typed rejection on the
//! wire and a counter bump, never a panicked worker or a wedged accept
//! loop. The final request of each test is a clean inference that must
//! still return bit-identical logits: the listener survives its clients.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{ModelRegistry, Server, ServerConfig};
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
    stack_with(cfg, ModelRegistry::single)
}

/// [`stack`] with the tenants `registry` makes of the one compiled model.
fn stack_with(cfg: NetConfig, registry: impl FnOnce(Arc<CompiledModel>) -> ModelRegistry) -> Stack {
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

#[test]
fn slowloris_header_drip_gets_408_and_counted() {
    let stack = stack(NetConfig {
        header_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    });
    let mut stream = connect(&stack);
    // Drip a plausible request head one fragment at a time, never
    // finishing it. The whole head shares one budget, so the drip must
    // trip the deadline no matter how lively each fragment looks.
    stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\n")
        .expect("write");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(100));
        if stream.write_all(b"x-drip: y\r\n").is_err() {
            break; // server already gave up on us — that's the point
        }
    }
    if let Some((status, _, _)) = read_response(&mut stream) {
        assert_eq!(status, 408, "slowloris must be cut off with 408");
    }
    let snap = stack.server.gauges().snapshot();
    assert!(
        snap.net_timeouts_read >= 1,
        "the read-timeout counter must record the drip"
    );
    assert_clean_inference(&stack);
}

#[test]
fn oversized_body_is_refused_before_reading_it() {
    // Big enough for the clean-probe tensor, far below the hostile claim.
    let stack = stack(NetConfig {
        max_body_bytes: 64 * 1024,
        ..NetConfig::default()
    });
    let mut stream = connect(&stack);
    // Declare a body far past the bound but send none of it: the refusal
    // must come from the header alone.
    stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\ncontent-length: 10485760\r\n\r\n")
        .expect("write");
    let (status, headers, _) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 413);
    assert_eq!(header(&headers, "x-bitflow-max-body"), Some("65536"));
    assert_eq!(header(&headers, "connection"), Some("close"));
    let snap = stack.server.gauges().snapshot();
    assert!(snap.net_malformed_requests >= 1);
    assert_clean_inference(&stack);
}

#[test]
fn garbage_bytes_get_400_not_a_panic() {
    let stack = stack(NetConfig::default());
    for garbage in [
        &b"\x16\x03\x01\x02\x00 TLS hello to a plaintext port\r\n\r\n"[..],
        b"GET not-a-target HTTP/1.1\r\n\r\n",
        b"POST /v1/infer HTTP/9.9\r\n\r\n",
    ] {
        let mut stream = connect(&stack);
        stream.write_all(garbage).expect("write");
        let (status, _, _) = read_response(&mut stream).expect("a response");
        assert_eq!(status, 400, "garbage must be answered with 400");
    }
    let snap = stack.server.gauges().snapshot();
    assert!(
        snap.net_malformed_requests >= 3,
        "each garbage request must be counted"
    );
    assert_clean_inference(&stack);
}

#[test]
fn bad_framing_and_bad_tensors_get_typed_rejections() {
    let stack = stack(NetConfig::default());

    // POST without a content-length: 411.
    let mut stream = connect(&stack);
    stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\n\r\n")
        .expect("write");
    let (status, _, _) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 411);

    // Chunked transfer coding: 501 (content-length framing only).
    let mut stream = connect(&stack);
    stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
        .expect("write");
    let (status, _, _) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 501);

    // A well-framed body that is not a tensor container: 400 with the
    // engine's JSON error shape, and the connection survives.
    let mut stream = connect(&stack);
    stream
        .write_all(&infer_request("/v1/infer", b"not a tensor at all", ""))
        .expect("write");
    let (status, headers, body) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 400);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let text = String::from_utf8_lossy(&body).to_string();
    assert!(text.contains("\"code\":\"bad_tensor\""), "{text}");
    // Same connection, clean request: keep-alive survived the bad body.
    let enc = encode_tensor(&stack.input);
    stream
        .write_all(&infer_request("/v1/infer", &enc, ""))
        .expect("write");
    let (status, _, _) = read_response(&mut stream).expect("a response");
    assert_eq!(status, 200, "connection must survive a decode failure");

    assert_clean_inference(&stack);
}

#[test]
fn routing_and_methods_are_enforced() {
    let stack = stack(NetConfig::default());
    let enc = encode_tensor(&stack.input);
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(), 200),
        (b"GET /metrics HTTP/1.1\r\n\r\n".to_vec(), 200),
        (b"DELETE /healthz HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        (b"GET /v1/infer HTTP/1.1\r\n\r\n".to_vec(), 405),
        (infer_request("/v1/infer/no-such-model", &enc, ""), 404),
        (infer_request("/v1/infer", &enc, ""), 200),
    ];
    for (req, want) in cases {
        let mut stream = connect(&stack);
        stream.write_all(&req).expect("write");
        let (status, _, _) = read_response(&mut stream).expect("a response");
        assert_eq!(
            status,
            want,
            "request {:?}",
            String::from_utf8_lossy(&req[..req.len().min(40)])
        );
    }

    // /metrics must expose the net counter families.
    let mut stream = connect(&stack);
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\n\r\n")
        .expect("write");
    let (_, _, body) = read_response(&mut stream).expect("a response");
    let text = String::from_utf8_lossy(&body).to_string();
    for family in [
        "bitflow_net_accepted_conns_total",
        "bitflow_net_malformed_requests_total",
        "bitflow_net_bytes_in_total",
    ] {
        assert!(text.contains(family), "/metrics missing {family}");
    }
}

/// A quota'd tenant's refusals used to be unscrapeable: `/metrics` showed
/// the first registered tenant only.
#[test]
fn metrics_exposes_every_tenant_in_one_exposition() {
    let stack = stack_with(NetConfig::default(), |model| {
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

    assert_eq!(infer("/v1/infer/open"), 200);
    assert_eq!(infer("/v1/infer/capped"), 429);
    let text = scrape();
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
fn hopeless_deadline_maps_to_504() {
    let stack = stack(NetConfig::default());
    let enc = encode_tensor(&stack.input);
    let mut stream = connect(&stack);
    stream
        .write_all(&infer_request(
            "/v1/infer",
            &enc,
            "x-bitflow-deadline-ms: 0\r\n",
        ))
        .expect("write");
    let (status, _, body) = read_response(&mut stream).expect("a response");
    assert_eq!(
        status, 504,
        "an already-expired deadline is a gateway timeout"
    );
    let text = String::from_utf8_lossy(&body).to_string();
    assert!(text.contains("deadline"), "{text}");
    assert_clean_inference(&stack);
}

#[test]
fn malformed_deadline_is_a_400_not_no_deadline() {
    let stack = stack(NetConfig::default());
    let enc = encode_tensor(&stack.input);
    // One keep-alive connection: the body is consumed before the refusal,
    // so the connection survives every one of these.
    let mut stream = connect(&stack);
    let bad = ["50ms", "-1", "18446744073709551616", ""];
    for value in bad {
        stream
            .write_all(&infer_request(
                "/v1/infer",
                &enc,
                &format!("x-bitflow-deadline-ms: {value}\r\n"),
            ))
            .expect("write");
        let (status, _, body) = read_response(&mut stream).expect("a response");
        assert_eq!(status, 400, "deadline `{value}` must be refused");
        let text = String::from_utf8_lossy(&body).to_string();
        assert!(text.contains("\"code\":\"bad_deadline\""), "{text}");
    }
    let snap = stack.server.metrics();
    assert_eq!(snap.submitted, 0, "refused before the tensor is submitted");
    assert!(snap.net_malformed_requests >= bad.len() as u64);
    assert_clean_inference(&stack);
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

/// Satellite: graceful shutdown. Requests already on a connection finish
/// with full responses, the listener refuses new work, and afterwards the
/// per-tenant gauges obey the conservation law — no request lost, none
/// double-counted.
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
