//! Allocation budget of the served path.
//!
//! The engine's contract is one allocation per `run` (pinned by
//! `tests/telemetry_no_alloc.rs`); this pins what the wire adds around
//! it. A warm keep-alive `POST /v1/infer` of `small_cnn` owns its tensor,
//! its response cell, its logits and its response — a handful of
//! allocations — and nothing else: the head is parsed where it was read,
//! the wire id and the rendered response live in per-connection buffers,
//! and the request runs on the connection thread, so nothing is boxed to
//! cross a thread. A counting global allocator, counting **every thread
//! of the process** (the client below is written not to allocate),
//! fails loudly when a `String`, a `Vec` or a `format!` creeps back onto
//! that path — and prints where from.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights};
use bitflow_net::{NetConfig, NetServer};
use bitflow_serve::{Server, ServerConfig};
use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};

/// Allocations a warm keep-alive request may make, process-wide. It makes
/// 7 — the tensor, its cancel token, its response cell, the engine's
/// result list and the logits in it, the response's header list and its
/// body — where it made 43 before the wire path went on its diet; the
/// slack is for a cell or two a future stage may honestly own.
const BUDGET: u64 = 12;

const OFF: u8 = 0;
const COUNT: u8 = 1;
/// Count, and print a backtrace per allocation (`ALLOC_TRACE`-style).
const TRACE: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(OFF);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init so reading the flag never itself allocates. Set while a
    // backtrace is being captured: its own allocations are not the
    // request's.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn bump() {
        let mode = MODE.load(Ordering::Relaxed);
        if mode == OFF {
            return;
        }
        // A thread being torn down has no thread-locals left: count it.
        let nested = IN_HOOK.try_with(|h| h.replace(true)).unwrap_or(false);
        if nested {
            return;
        }
        let n = ALLOC_COUNT.fetch_add(1, Ordering::Relaxed) + 1;
        if mode == TRACE {
            eprintln!(
                "--- alloc #{n} on {:?} ---\n{}",
                std::thread::current().name(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        let _ = IN_HOOK.try_with(|h| h.set(false));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A keep-alive client that allocates nothing per round trip: the request
/// bytes are built once and the response is read into a fixed buffer.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    response: [u8; 1024],
}

impl Client {
    /// One round trip; returns the response's status and body.
    fn roundtrip(&mut self) -> (u16, &[u8]) {
        self.stream.write_all(&self.request).expect("write request");
        let mut have = 0;
        let head_end = loop {
            if let Some(p) = self.response[..have]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break p + 4;
            }
            let n = self
                .stream
                .read(&mut self.response[have..])
                .expect("read response");
            assert!(n > 0, "server closed a keep-alive connection");
            have += n;
        };
        let head = std::str::from_utf8(&self.response[..head_end]).expect("UTF-8 head");
        let status: u16 = head[9..12].parse().expect("status");
        let len: usize = head
            .split("\r\n")
            .filter_map(|l| l.strip_prefix("content-length: "))
            .next()
            .expect("content-length")
            .parse()
            .expect("a number");
        while have < head_end + len {
            let n = self
                .stream
                .read(&mut self.response[have..])
                .expect("read body");
            assert!(n > 0, "server closed mid-body");
            have += n;
        }
        (status, &self.response[head_end..head_end + len])
    }
}

#[test]
fn warm_keep_alive_request_stays_within_its_allocation_budget() {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let model = Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"));
    let input = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    let mut ctx = model.try_new_context().expect("context allocates");
    let oracle: Vec<u8> = model
        .try_infer(&mut ctx, &input)
        .expect("inference")
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    // The configuration the repo benchmark's `small_http_closed` serves
    // under: two workers, no recorder, no `server-timing`.
    let server = Arc::new(Server::start(
        model,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    ));
    let net = NetServer::bind(Arc::clone(&server), NetConfig::default()).expect("bind loopback");

    let body = encode_tensor(&input);
    let mut request = format!(
        "POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut client = Client {
        stream,
        request,
        response: [0; 1024],
    };

    // Warm: the connection's buffers reach their size, the borrowed
    // worker slot gets its context, lazies initialise.
    for _ in 0..50 {
        let (status, logits) = client.roundtrip();
        assert_eq!((status, logits), (200, oracle.as_slice()));
    }

    const REQUESTS: u64 = 100;
    ALLOC_COUNT.store(0, Ordering::Relaxed);
    MODE.store(COUNT, Ordering::Relaxed);
    for _ in 0..REQUESTS {
        let (status, logits) = client.roundtrip();
        // Comparing borrowed bytes allocates nothing.
        assert!(status == 200 && logits == oracle.as_slice());
    }
    MODE.store(OFF, Ordering::Relaxed);
    let allocs = ALLOC_COUNT.load(Ordering::Relaxed);

    if allocs > BUDGET * REQUESTS {
        // Say where they come from: one more request, every allocation
        // with its backtrace.
        MODE.store(TRACE, Ordering::Relaxed);
        let _ = client.roundtrip();
        MODE.store(OFF, Ordering::Relaxed);
        panic!(
            "{allocs} allocations over {REQUESTS} warm keep-alive requests: \
             {:.1} a request, budget {BUDGET} (backtraces of one request above)",
            allocs as f64 / REQUESTS as f64
        );
    }
    // Every one of them ran where it arrived.
    let snap = server.metrics();
    assert_eq!(snap.completed, 50 + REQUESTS);
    assert_eq!(snap.served_on_caller, snap.completed);
    drop(client);
    assert!(net.shutdown(), "drain");
}
