//! Integration tests for request-lifecycle tracing on the wire: client
//! request ids, the `server-timing` header, the live debug endpoints,
//! and the end-to-end span taxonomy of a traced request.
//!
//! Each test drives a real TCP client against a bound listener, exactly
//! like `hostile.rs` — the assertions here are about what tracing adds
//! to the wire contract, not about hardening (which `hostile.rs` owns).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{Server, ServerConfig};
use bitflow_telemetry::{FlightRecorder, RecorderConfig, RequestTrace, Stage};
use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};

struct Stack {
    net: NetServer,
    input: Tensor,
}

fn stack(net_cfg: NetConfig, recorder: Option<Arc<FlightRecorder>>) -> Stack {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let model = Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"));
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let server = Arc::new(Server::start(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            recorder,
            ..ServerConfig::default()
        },
    ));
    let net = NetServer::bind(server, net_cfg).expect("bind loopback");
    Stack { net, input }
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

#[allow(clippy::type_complexity)]
fn read_response(stream: &mut TcpStream) -> Option<(u16, Vec<(String, String)>, Vec<u8>)> {
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
            Ok(0) | Err(_) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
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

#[test]
fn client_request_ids_are_honored_validated_and_echoed_on_errors() {
    let stack = stack(NetConfig::default(), None);
    let enc = encode_tensor(&stack.input);

    // A well-formed client id rides through to the response.
    let (status, headers, _) = roundtrip(
        &stack,
        &infer_request("/v1/infer", &enc, "x-bitflow-request-id: my-id.42_A\r\n"),
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-bitflow-request-id"), Some("my-id.42_A"));

    // A hostile id (bad charset) is replaced with a generated one, never
    // echoed verbatim.
    let (_, headers, _) = roundtrip(
        &stack,
        &infer_request("/v1/infer", &enc, "x-bitflow-request-id: bad id&<x>\r\n"),
    );
    let echoed = header(&headers, "x-bitflow-request-id").expect("an id");
    assert!(echoed.starts_with('c') && echoed.contains("-r"), "{echoed}");

    // Over-long ids are replaced too.
    let long = "x".repeat(65);
    let (_, headers, _) = roundtrip(
        &stack,
        &infer_request(
            "/v1/infer",
            &enc,
            &format!("x-bitflow-request-id: {long}\r\n"),
        ),
    );
    assert_ne!(
        header(&headers, "x-bitflow-request-id"),
        Some(long.as_str())
    );

    // Errors echo the id as well: a routing 404 with a client id...
    let (status, headers, _) = roundtrip(
        &stack,
        b"GET /nope HTTP/1.1\r\nx-bitflow-request-id: lost.req\r\n\r\n",
    );
    assert_eq!(status, 404);
    assert_eq!(header(&headers, "x-bitflow-request-id"), Some("lost.req"));

    // ...and even a pre-parse failure carries a generated id.
    let (status, headers, _) = roundtrip(&stack, b"garbage\r\n\r\n");
    assert_eq!(status, 400);
    assert!(header(&headers, "x-bitflow-request-id").is_some());
}

#[test]
fn server_timing_header_is_flag_gated() {
    let enc_stack = stack(
        NetConfig {
            server_timing: true,
            ..NetConfig::default()
        },
        None,
    );
    let enc = encode_tensor(&enc_stack.input);
    let (status, headers, _) = roundtrip(&enc_stack, &infer_request("/v1/infer", &enc, ""));
    assert_eq!(status, 200);
    let timing = header(&headers, "server-timing").expect("server-timing with the flag on");
    assert!(timing.contains("queue;dur="), "{timing}");
    assert!(timing.contains("exec;dur="), "{timing}");
    assert!(timing.contains("app;dur="), "{timing}");

    let plain_stack = stack(NetConfig::default(), None);
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
    let stack = stack(
        NetConfig {
            debug_endpoints: true,
            ..NetConfig::default()
        },
        Some(Arc::new(FlightRecorder::new(RecorderConfig::default()))),
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
    let hidden = stack(
        NetConfig::default(),
        Some(Arc::new(FlightRecorder::new(RecorderConfig::default()))),
    );
    let (status, _, _) = roundtrip(&hidden, b"GET /debug/trace HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404, "debug routes must be opt-in");

    // Flag on, no recorder: the route exists but reports the gap.
    let degraded = stack(
        NetConfig {
            debug_endpoints: true,
            ..NetConfig::default()
        },
        None,
    );
    let (status, _, _) = roundtrip(&degraded, b"GET /debug/trace HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503, "no recorder means 503, not a panic");
    let (status, _, _) = roundtrip(&degraded, b"GET /debug/requests/xyz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 503);
}
