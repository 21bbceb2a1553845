//! The listener: accept loop, per-connection threads, hostile-client
//! hardening, and graceful drain.
//!
//! One OS thread per connection, bounded by [`NetConfig::max_conns`] —
//! past the cap the accept loop sheds with an immediate `503` and never
//! blocks. That thread does a request's whole work where it can: the
//! request is read into, parsed in and decoded from one per-connection
//! buffer, served through [`bitflow_serve::ModelClient::call`] (on this
//! thread, when a worker is parked), and answered from a reused render
//! buffer — on a healthy keep-alive connection one `read` and one `write`
//! per request, the socket timeouts having been set once. Every socket interaction is deadline-bounded: the request head
//! must complete within `header_timeout` however slowly it drips in
//! (slowloris), bodies are length-checked before a byte is read and
//! bounded by `read_timeout`, responses by `write_timeout`. Reads poll in
//! short slices so an idle keep-alive connection notices a drain within
//! ~100 ms instead of holding shutdown hostage.
//!
//! Chaos: when the serving runtime carries a seeded
//! [`bitflow_serve::ChaosConfig`], the listener injects from the same
//! deterministic streams — connection kills at accept, read stalls that
//! burn poll slices, truncated writes that close mid-response. The
//! `net_*` counters ([`bitflow_telemetry::ServeGauges`]) account for all
//! of it: `malformed_requests` counts every request refused at the HTTP
//! layer (bad grammar, bad framing, oversized head or body), the
//! timeout/byte counters track the socket work itself.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bitflow_graph::{BitFlowError, CancelToken, RejectReason};
use bitflow_serve::{ChaosConfig, DegradationState, MemoryLease, ModelClient, Server, Submission};
use bitflow_telemetry::{
    to_chrome_trace, to_prometheus, FlightRecorder, MetricsSnapshot, ServeGauges, Stage,
    TraceBuilder,
};

use crate::config::NetConfig;
use crate::http::{self, ParseError, Response};
use crate::status::{error_status, reject_status, reject_wants_retry_after};

/// How often blocked socket reads/waits re-check the shutdown flag.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// Accept-error backoff bounds: the first failure sleeps the minimum,
/// consecutive failures double it up to the maximum, and any successful
/// accept (or a plain empty queue) resets it. An exhausted fd table or
/// a flapping interface thus costs an idle-ish loop, not a hot spin at
/// 500 failures/second.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(2);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

fn next_accept_backoff(cur: Duration) -> Duration {
    cur.saturating_mul(2).min(ACCEPT_BACKOFF_MAX)
}

/// The HTTP front-end: a bound listener plus its accept thread.
///
/// Dropping (or calling [`NetServer::shutdown`]) drains gracefully:
/// stop accepting, let requests already on a connection finish, then
/// close — bounded by [`NetConfig::drain_timeout`].
pub struct NetServer {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

struct NetShared {
    config: NetConfig,
    server: Arc<Server>,
    chaos: Option<ChaosConfig>,
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    conn_ids: AtomicU64,
    gauges: Arc<ServeGauges>,
    /// The serving runtime's flight recorder, if tracing is enabled.
    /// Finished traces for every request on this listener are offered
    /// here; the debug routes read it back.
    recorder: Option<Arc<FlightRecorder>>,
}

impl NetShared {
    /// Whether a per-request trace should be opened at all: either a
    /// recorder wants finished traces, or `server-timing` needs the
    /// stage durations.
    fn tracing(&self) -> bool {
        self.recorder.is_some() || self.config.server_timing
    }
}

/// Decrements the open-connection count when a handler thread exits —
/// by any path, including a panic unwinding through it.
struct ConnGuard(Arc<NetShared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

impl NetServer {
    /// Binds `config.addr` and starts serving `server` over HTTP.
    ///
    /// Chaos and the `net_*` counters both ride on the serving runtime:
    /// injection streams come from the server's [`ChaosConfig`] (if any),
    /// counters land on the default tenant's gauges so they surface in
    /// `/metrics` and in [`bitflow_serve::Server::metrics`].
    pub fn bind(server: Arc<Server>, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let gauges = server.gauges();
        let chaos = server.chaos().cloned();
        let recorder = server.recorder();
        let shared = Arc::new(NetShared {
            config,
            server,
            chaos,
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            conn_ids: AtomicU64::new(0),
            gauges,
            recorder,
        });
        let loop_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("bitflow-net-accept".to_string())
            .spawn(move || accept_loop(&loop_shared, &listener))?;
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port `0` to the ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    #[must_use]
    pub fn open_conns(&self) -> usize {
        self.shared.open_conns.load(Ordering::Acquire)
    }

    /// The serving runtime behind this listener.
    #[must_use]
    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Graceful drain: stop accepting, wait for open connections to
    /// finish their in-flight request (idle keep-alive connections close
    /// within one poll slice), then return. `true` when every connection
    /// drained inside [`NetConfig::drain_timeout`]; `false` when
    /// stragglers were abandoned to their own deadlines.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        loop {
            if self.shared.open_conns.load(Ordering::Acquire) == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(shared: &Arc<NetShared>, listener: &TcpListener) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
                if let Some(chaos) = &shared.chaos {
                    if chaos.conn_kill_hit(conn) {
                        // Injected abrupt disconnect: accepted, then gone
                        // before a single byte moves either way.
                        shared.gauges.net_accepted_conns.inc();
                        drop(stream);
                        continue;
                    }
                }
                if shared.open_conns.load(Ordering::Acquire) >= shared.config.max_conns {
                    shared.gauges.net_rejected_conns.inc();
                    shed(shared, stream);
                    continue;
                }
                shared.gauges.net_accepted_conns.inc();
                shared.open_conns.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                // The stream rides in a take-able cell so a failed spawn
                // can recover it: the closure owns the cell, but until
                // the thread actually runs the stream is still reachable
                // from this side.
                let cell = Arc::new(Mutex::new(Some(stream)));
                let thread_cell = Arc::clone(&cell);
                let spawned = thread::Builder::new()
                    .name(format!("bitflow-net-conn-{conn}"))
                    .spawn(move || {
                        let _guard = ConnGuard(Arc::clone(&conn_shared));
                        let taken = thread_cell
                            .lock()
                            .map(|mut slot| slot.take())
                            .unwrap_or(None);
                        if let Some(stream) = taken {
                            handle_conn(&conn_shared, stream, conn);
                        }
                    });
                if spawned.is_err() {
                    // The guard never existed; undo the reservation. A
                    // spawn failure is resource exhaustion, not a cap
                    // hit: counted on its own gauge and answered with a
                    // best-effort 503 + retry-after instead of a silent
                    // drop.
                    shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                    shared.gauges.govern.net_spawn_sheds.inc();
                    let recovered = cell.lock().map(|mut slot| slot.take()).unwrap_or(None);
                    if let Some(stream) = recovered {
                        shed(shared, stream);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Healthy empty accept queue, not a failure.
                backoff = ACCEPT_BACKOFF_MIN;
                thread::sleep(ACCEPT_BACKOFF_MIN);
            }
            Err(_) => {
                // EMFILE, ENFILE, ECONNABORTED storms, interface flaps:
                // count it, back off exponentially, keep listening.
                shared.gauges.govern.net_accept_errors.inc();
                thread::sleep(backoff);
                backoff = next_accept_backoff(backoff);
            }
        }
    }
}

/// Best-effort `503` to a connection past the cap — one bounded write,
/// never a thread.
fn shed(shared: &NetShared, mut stream: TcpStream) {
    let bytes = Response::new(503)
        .header("retry-after", 1u64)
        .text("connection limit reached")
        .to_bytes(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    if let Ok(n) = stream.write(&bytes) {
        shared.gauges.net_bytes_out.add(n as u64);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

enum HeadOutcome {
    /// Head complete; value is one past the terminating blank line.
    Complete(usize),
    /// Close silently (peer gone, idle expiry, or drain).
    Close,
    /// Respond with this status, then close.
    Fail(u16),
}

enum ReadOutcome {
    Data,
    Nothing,
    Closed,
}

enum RouteOutcome {
    /// Respond; connection may stay open per keep-alive rules.
    Respond(Response),
    /// Respond, then close (unread body bytes may still be in flight).
    RespondClose(Response),
    /// Close without responding.
    Close,
}

/// What a request's head decided. The head borrows the connection's
/// input buffer, and reading a body may grow — move — that buffer, so
/// everything the head has to say is said into this before a body byte is
/// read.
enum Route<'s> {
    /// Answered from the head alone.
    Done(RouteOutcome),
    /// An inference whose body is still (partly) on the wire.
    Infer(InferPlan<'s>),
}

/// An inference request past every check its head allows.
struct InferPlan<'s> {
    content_length: usize,
    /// The declared body's charge against the tenant's byte budget,
    /// taken before the body is read and held to the end of the request.
    body_lease: Option<MemoryLease>,
    /// The `x-bitflow-deadline-ms` budget; `Err` when the header is there
    /// but is not a whole number of milliseconds.
    deadline: Result<Option<Duration>, ()>,
    /// `None`: no such tenant.
    client: Option<ModelClient<'s>>,
}

/// The socket side of one connection, kept across its keep-alive
/// requests.
struct Conn {
    stream: TcpStream,
    id: u64,
    /// Input. `buf[..filled]` is read and not yet consumed: the current
    /// request from byte 0, then whatever the client pipelined behind it.
    /// The rest is room to read into, zeroed when the buffer grows and
    /// never again, so a request is read where it will be parsed and
    /// decoded — no bounce buffer, no per-request fill.
    buf: Vec<u8>,
    filled: usize,
    /// Reads issued so far (the index of the read-stall chaos stream).
    read_no: u64,
    /// `SO_RCVTIMEO` as last set: a read sets it only when it changes,
    /// which on a healthy connection is once ([`POLL_SLICE`]).
    read_timeout: Option<Duration>,
    /// Whether `SO_SNDTIMEO` has been set (it is always [`POLL_SLICE`]).
    write_timeout_set: bool,
}

impl Conn {
    /// Room for the largest head plus the byte that proves one too
    /// large: a request that fits in it — head *and* body — is one read.
    fn new(stream: TcpStream, id: u64) -> Self {
        Self {
            stream,
            id,
            buf: vec![0; http::MAX_HEAD_BYTES + 1],
            filled: 0,
            read_no: 0,
            read_timeout: None,
            write_timeout_set: false,
        }
    }

    /// Grows the buffer to hold `total` bytes. Fallible: a hostile
    /// content-length that slipped past the byte bound (or genuine
    /// exhaustion) is a `false` here — a 507 — never an abort.
    fn make_room(&mut self, total: usize) -> bool {
        let more = total.saturating_sub(self.buf.len());
        if self.buf.try_reserve_exact(more).is_err() {
            return false;
        }
        self.buf.resize(self.buf.len() + more, 0);
        true
    }

    /// Drops the first `n` input bytes (a finished request), moving what
    /// the client pipelined behind them — usually nothing — to the front.
    fn consume(&mut self, n: usize) {
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

/// Writes the wire id of request `req_no` into `out`. A client-supplied
/// `x-bitflow-request-id` is honored when it is 1..=64 bytes of
/// `[A-Za-z0-9._-]`; anything else (or no header, or no parsed head at
/// all) is replaced with a generated `c{conn}-r{req}` id. The
/// charset/length bound keeps hostile ids out of response headers and the
/// flight recorder.
fn set_wire_id(out: &mut String, head: Option<&http::Head<'_>>, conn: u64, req_no: u64) {
    use std::fmt::Write;
    out.clear();
    let supplied = head
        .and_then(|h| h.header("x-bitflow-request-id"))
        .filter(|v| {
            (1..=64).contains(&v.len())
                && v.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        });
    match supplied {
        Some(id) => out.push_str(id),
        None => {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "c{conn}-r{req_no}");
        }
    }
}

/// What one connection thread reuses across its requests besides the
/// socket: the wire id of the request in hand and the rendered response.
#[derive(Default)]
struct Scratch {
    wire_id: String,
    out: Vec<u8>,
}

/// Answers a request refused before (or while) parsing its head — the
/// caller closes the connection after it — and records a trace for it, so
/// HTTP-layer failures are visible in the flight recorder too.
fn refuse(
    shared: &NetShared,
    conn: &mut Conn,
    scratch: &mut Scratch,
    req_no: u64,
    from: Instant,
    resp: &Response,
) {
    set_wire_id(&mut scratch.wire_id, None, conn.id, req_no);
    let _ = write_response(shared, conn, scratch, req_no, resp, false);
    if let Some(rec) = &shared.recorder {
        let tb = TraceBuilder::with_origin(scratch.wire_id.clone(), from);
        tb.stage(Stage::Parse, from, Instant::now());
        tb.set_outcome(&format!("http:{}", resp.status()));
        rec.offer(tb.finish());
    }
}

fn handle_conn(shared: &Arc<NetShared>, stream: TcpStream, id: u64) {
    let accepted_at = Instant::now();
    let mut conn = Conn::new(stream, id);
    let mut scratch = Scratch::default();
    let mut req_no: u64 = 0;
    loop {
        let head_start = Instant::now();
        let head_end = match read_head(shared, &mut conn) {
            HeadOutcome::Complete(end) => end,
            HeadOutcome::Close => return,
            HeadOutcome::Fail(status) => {
                let resp = Response::new(status).text(http::reason(status));
                refuse(shared, &mut conn, &mut scratch, req_no, head_start, &resp);
                return;
            }
        };
        let head = match http::parse_head(&conn.buf[..head_end]) {
            Ok(head) => head,
            Err(e) => {
                shared.gauges.net_malformed_requests.inc();
                let resp = Response::new(400).text(&e.to_string());
                refuse(shared, &mut conn, &mut scratch, req_no, head_start, &resp);
                return;
            }
        };
        set_wire_id(&mut scratch.wire_id, Some(&head), id, req_no);
        let parsed_at = Instant::now();
        // The trace timeline starts when the request could first have
        // been attributed to this connection: the accept for the first
        // request, the start of head-reading for keep-alive successors
        // (idle time between requests belongs to no request).
        let trace = shared.tracing().then(|| {
            let origin = if req_no == 0 { accepted_at } else { head_start };
            let tb = Arc::new(TraceBuilder::with_origin(scratch.wire_id.clone(), origin));
            if req_no == 0 {
                tb.stage(Stage::Accept, accepted_at, head_start);
            }
            tb.stage(Stage::Parse, head_start, parsed_at);
            tb
        });
        // Draining: finish this request, but advertise (and enforce) that
        // the connection closes after it.
        let keep_alive = head.keep_alive() && !shared.shutdown.load(Ordering::Acquire);
        // The last use of `head`: from here on the buffer may grow.
        let outcome = match route(shared, &head) {
            Route::Done(outcome) => {
                conn.consume(head_end);
                outcome
            }
            Route::Infer(plan) => infer(shared, &mut conn, head_end, plan, trace.as_ref()),
        };
        let (resp, keep_alive) = match outcome {
            RouteOutcome::Respond(resp) => (resp, keep_alive),
            RouteOutcome::RespondClose(resp) => (resp, false),
            RouteOutcome::Close => return,
        };
        let write_start = Instant::now();
        let wrote = write_response(shared, &mut conn, &mut scratch, req_no, &resp, keep_alive);
        if let Some(tb) = &trace {
            tb.stage(Stage::Write, write_start, Instant::now());
            // The serving runtime's verdicts (rejected:*, cancelled,
            // error:panic, ...) take precedence; only label what no
            // deeper layer already explained.
            if wrote.is_err() {
                tb.set_outcome_if_empty("error:write");
            } else if resp.status() >= 400 {
                tb.set_outcome_if_empty(&format!("http:{}", resp.status()));
            }
            if let Some(rec) = &shared.recorder {
                rec.offer(tb.finish());
            }
        }
        if wrote.is_err() {
            return;
        }
        req_no += 1;
        if !keep_alive {
            return;
        }
    }
}

/// Reads until one full request head is buffered. The whole head shares
/// one `header_timeout` budget no matter how many packets it arrives in —
/// the slowloris guard — and one pass of the terminator search no matter
/// how many reads it arrives in.
fn read_head(shared: &NetShared, conn: &mut Conn) -> HeadOutcome {
    let deadline = Instant::now() + shared.config.header_timeout;
    let mut scanned = 0;
    loop {
        if let Some(end) = http::find_head_end(&conn.buf[..conn.filled], &mut scanned) {
            if end > http::MAX_HEAD_BYTES {
                shared.gauges.net_malformed_requests.inc();
                return HeadOutcome::Fail(431);
            }
            return HeadOutcome::Complete(end);
        }
        if conn.filled > http::MAX_HEAD_BYTES {
            shared.gauges.net_malformed_requests.inc();
            return HeadOutcome::Fail(431);
        }
        if shared.shutdown.load(Ordering::Acquire) && conn.filled == 0 {
            // Idle keep-alive connection during drain: nothing in flight,
            // close now so shutdown is not held hostage.
            return HeadOutcome::Close;
        }
        let now = Instant::now();
        if now >= deadline {
            if conn.filled == 0 {
                // Idle keep-alive expiry, not an attack: close silently.
                return HeadOutcome::Close;
            }
            shared.gauges.net_timeouts_read.inc();
            return HeadOutcome::Fail(408);
        }
        // Until the head says how long the request is, read no further
        // than the byte that would prove the head oversized.
        match read_some(shared, conn, deadline - now, http::MAX_HEAD_BYTES + 1) {
            ReadOutcome::Data | ReadOutcome::Nothing => {}
            ReadOutcome::Closed => return HeadOutcome::Close,
        }
    }
}

/// One bounded read into `buf[filled..upto]` (never empty: callers read
/// only while `filled < upto <= buf.len()`): at most one [`POLL_SLICE`]
/// of blocking, so callers can re-check deadlines and the shutdown flag
/// between reads.
fn read_some(shared: &NetShared, conn: &mut Conn, remaining: Duration, upto: usize) -> ReadOutcome {
    let slice = remaining.min(POLL_SLICE).max(Duration::from_millis(1));
    if conn.read_timeout != Some(slice) {
        if conn.stream.set_read_timeout(Some(slice)).is_err() {
            return ReadOutcome::Closed;
        }
        conn.read_timeout = Some(slice);
    }
    let this_read = conn.read_no;
    conn.read_no += 1;
    if let Some(chaos) = &shared.chaos {
        if chaos.read_stall_hit(conn.id, this_read) {
            // Injected network stall: burn one poll slice without data,
            // exactly as a wedged client would.
            thread::sleep(slice);
            return ReadOutcome::Nothing;
        }
    }
    match conn.stream.read(&mut conn.buf[conn.filled..upto]) {
        Ok(0) => ReadOutcome::Closed,
        Ok(n) => {
            shared.gauges.net_bytes_in.add(n as u64);
            conn.filled += n;
            ReadOutcome::Data
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            ReadOutcome::Nothing
        }
        Err(_) => ReadOutcome::Closed,
    }
}

/// Reads until `buf[..total]` — the head and its whole body (the head's
/// `content-length`, already checked against the body bound) — is
/// buffered, within the `read_timeout` budget, asking the socket for
/// exactly what is missing.
fn read_body(shared: &NetShared, conn: &mut Conn, total: usize) -> Result<(), HeadOutcome> {
    let deadline = Instant::now() + shared.config.read_timeout;
    if !conn.make_room(total) {
        return Err(HeadOutcome::Fail(507));
    }
    while conn.filled < total {
        let now = Instant::now();
        if now >= deadline {
            shared.gauges.net_timeouts_read.inc();
            return Err(HeadOutcome::Fail(408));
        }
        match read_some(shared, conn, deadline - now, total) {
            ReadOutcome::Data | ReadOutcome::Nothing => {}
            ReadOutcome::Closed => return Err(HeadOutcome::Close),
        }
    }
    Ok(())
}

fn route<'s>(shared: &'s NetShared, head: &http::Head<'_>) -> Route<'s> {
    let target = head.target;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let is_infer = target == "/v1/infer" || target.starts_with("/v1/infer/");
    let is_debug = path == "/debug/trace" || path.starts_with("/debug/requests/");
    let respond = |resp| Route::Done(RouteOutcome::Respond(resp));
    match (head.method, target) {
        ("GET", "/healthz") => respond(healthz(shared)),
        ("GET", "/metrics") => respond(metrics(shared)),
        (_, "/healthz" | "/metrics") => {
            respond(Response::new(405).header("allow", "GET").text("GET only"))
        }
        ("POST", _) if is_infer => plan_infer(shared, head),
        (_, _) if is_infer => respond(Response::new(405).header("allow", "POST").text("POST only")),
        (method, _) if is_debug => respond(debug_route(shared, method, path, query)),
        _ => respond(Response::new(404).text("no such route")),
    }
}

/// Live trace extraction. Config-gated: unless
/// [`NetConfig::debug_endpoints`] is set the routes answer `404` exactly
/// like any unknown path (their existence is not leaked), and they `503`
/// when the process carries no flight recorder to read.
fn debug_route(shared: &NetShared, method: &str, path: &str, query: &str) -> Response {
    if !shared.config.debug_endpoints {
        return Response::new(404).text("no such route");
    }
    if method != "GET" {
        return Response::new(405).header("allow", "GET").text("GET only");
    }
    if shared.server.degradation_state() != DegradationState::Normal {
        // Trace dumps allocate serialized copies of everything retained —
        // exactly the wrong work under memory pressure.
        return Response::new(503)
            .header("retry-after", 1u64)
            .text("degraded: debug endpoints are disabled under pressure");
    }
    let Some(rec) = &shared.recorder else {
        return Response::new(503).text("tracing is not enabled (set BITFLOW_TRACE=1)");
    };
    if let Some(id) = path.strip_prefix("/debug/requests/") {
        return match rec.find(id) {
            Some(trace) => Response::new(200)
                .header("content-type", "application/json")
                .body(serde_json::to_vec(&trace).unwrap_or_default()),
            None => Response::new(404).text("no retained trace with that id"),
        };
    }
    let traces = rec.dump();
    if query.split('&').any(|kv| kv == "format=chrome") {
        // Perfetto / chrome://tracing loadable.
        Response::new(200)
            .header("content-type", "application/json")
            .body(to_chrome_trace(&traces).into_bytes())
    } else {
        Response::new(200)
            .header("content-type", "application/json")
            .body(serde_json::to_vec(&traces).unwrap_or_default())
    }
}

/// `200 ok` while the instance can take traffic; `503` once the circuit
/// breaker opens, a drain begins, or the governor reaches `Shed` (load
/// balancers stop routing here). `Brownout` still answers `200` — the
/// instance serves normal- and high-priority work — but the body names
/// the state so operators see the degradation. Polling this endpoint
/// re-evaluates the state machine, which is what lets an idle instance
/// recover autonomously.
fn healthz(shared: &NetShared) -> Response {
    if shared.server.breaker_open() {
        return Response::new(503).text("breaker open");
    }
    if shared.server.draining() || shared.shutdown.load(Ordering::Acquire) {
        return Response::new(503).text("draining");
    }
    match shared.server.degradation_state() {
        DegradationState::Normal => Response::new(200).text("ok"),
        DegradationState::Brownout => Response::new(200).text("degraded: brownout"),
        DegradationState::Shed => Response::new(503)
            .header("retry-after", 1u64)
            .text("shedding: resource pressure"),
    }
}

/// One Prometheus exposition for every registered tenant (a server has at
/// least one). A tenant whose current model has telemetry enabled
/// contributes its full snapshot (ops, roofline, batch); one without, a
/// serve-only snapshot. Either way the `serve` section is read from the
/// entry's own gauges — the ones admission, the wire and the governor
/// record into, stable across hot swaps — so the `net_*` and admission
/// counters are always scrapeable and a swap never zeroes them. A lone
/// tenant keeps its model's own name as the `model` label (what a
/// single-model server has always exposed); several are told apart by
/// their served names, which are unique where model names need not be.
fn metrics(shared: &NetShared) -> Response {
    let entries = shared.server.registry().entries();
    let tenants: Vec<MetricsSnapshot> = entries
        .iter()
        .map(|entry| {
            let serve = entry.gauges().snapshot();
            match entry.current().metrics_snapshot() {
                Some(mut snap) => {
                    snap.serve = serve;
                    if entries.len() > 1 {
                        snap.model = entry.name().to_string();
                    }
                    snap
                }
                None => MetricsSnapshot::serve_only(entry.name(), serve),
            }
        })
        .collect();
    Response::new(200)
        .header("content-type", "text/plain; version=0.0.4; charset=utf-8")
        .body(to_prometheus(&tenants).into_bytes())
}

/// The JSON refusal for a submission (or a body) the serving runtime
/// would not take, with the backoff and quota hints its reason calls for.
fn rejection(reason: RejectReason, retry_after: Duration, quota: Option<u64>) -> Response {
    let mut resp = Response::new(reject_status(reason))
        .header("content-type", "application/json")
        .body(serde_json::to_vec(&BitFlowError::Rejected(reason)).unwrap_or_default());
    if reject_wants_retry_after(reason) {
        resp = resp.header("retry-after", retry_after.as_secs().max(1));
    }
    if let (RejectReason::QuotaExceeded, Some(q)) = (reason, quota) {
        resp = resp.header("x-bitflow-quota", q);
    }
    resp
}

/// Everything an inference request's head decides: its framing, the body
/// bound, the tenant's byte budget, the deadline header and the tenant
/// itself — the last two only looked up here, and judged after the body
/// is read, so a refusal over them leaves the connection usable.
fn plan_infer<'s>(shared: &'s NetShared, head: &http::Head<'_>) -> Route<'s> {
    let malformed = |resp| {
        shared.gauges.net_malformed_requests.inc();
        Route::Done(RouteOutcome::RespondClose(resp))
    };
    let content_length = match head.content_length() {
        Ok(Some(n)) => n,
        Ok(None) => return malformed(Response::new(411).text("content-length required")),
        Err(ParseError::UnsupportedTransferEncoding) => {
            return malformed(Response::new(501).text("only content-length framing is supported"));
        }
        Err(e) => return malformed(Response::new(400).text(&e.to_string())),
    };
    if content_length > shared.config.max_body_bytes {
        // Refused from the header alone — not a single body byte is read.
        return malformed(
            Response::new(413)
                .header("x-bitflow-max-body", shared.config.max_body_bytes as u64)
                .text("request body exceeds the configured bound"),
        );
    }
    let tenant = head
        .target
        .strip_prefix("/v1/infer/")
        .filter(|name| !name.is_empty());
    // Charge the declared body size against the tenant's byte budget
    // before reading it: under memory pressure the refusal costs a head,
    // not a buffered body.
    let body_lease = match shared.server.reserve_body(tenant, content_length as u64) {
        Ok(lease) => lease,
        Err(reason) => {
            return Route::Done(RouteOutcome::RespondClose(rejection(
                reason,
                shared.server.retry_after_hint(),
                None,
            )));
        }
    };
    Route::Infer(InferPlan {
        content_length,
        body_lease,
        deadline: match head.header("x-bitflow-deadline-ms") {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(|ms| Some(Duration::from_millis(ms)))
                .map_err(|_| ()),
        },
        client: match tenant {
            None => Some(shared.server.default_client()),
            Some(name) => shared.server.client(name),
        },
    })
}

fn infer(
    shared: &NetShared,
    conn: &mut Conn,
    head_end: usize,
    plan: InferPlan<'_>,
    trace: Option<&Arc<TraceBuilder>>,
) -> RouteOutcome {
    let InferPlan {
        content_length,
        body_lease: _body_lease,
        deadline,
        client,
    } = plan;
    let body_start = Instant::now();
    // Saturated, the sum is more than any buffer grows to: a 507 below.
    let total = head_end.saturating_add(content_length);
    match read_body(shared, conn, total) {
        Ok(()) => {}
        Err(HeadOutcome::Fail(status)) => {
            return RouteOutcome::RespondClose(Response::new(status).text(http::reason(status)));
        }
        Err(_) => return RouteOutcome::Close,
    }
    let decode_start = Instant::now();
    if let Some(tb) = trace {
        tb.stage(Stage::ReadBody, body_start, decode_start);
    }
    // Decoded where it was read; then the request's bytes are done with.
    let decoded = bitflow_tensor::io::decode_tensor(&conn.buf[head_end..total]);
    conn.consume(total);
    let tensor = match decoded {
        Ok(t) => t,
        Err(e) => {
            shared.gauges.net_malformed_requests.inc();
            return RouteOutcome::Respond(bad_request("bad_tensor", &e.to_string()));
        }
    };
    if let Some(tb) = trace {
        tb.stage(Stage::Decode, decode_start, Instant::now());
    }
    // A budget the client asked for but did not spell as a whole number of
    // milliseconds is refused, never read as "no deadline".
    let Ok(deadline) = deadline else {
        shared.gauges.net_malformed_requests.inc();
        return RouteOutcome::Respond(bad_request(
            "bad_deadline",
            "x-bitflow-deadline-ms must be a whole number of milliseconds",
        ));
    };
    let Some(client) = client else {
        return RouteOutcome::Respond(Response::new(404).text("unknown model"));
    };
    // One admission path for every tenant, traced or not: the serving
    // runtime records admit/queue/batch/exec stages and the engine its
    // operator spans into the trace when there is one. This thread would
    // only block for the answer, so it offers to compute it: `call` runs
    // the request right here when a worker is parked.
    let result = client.call(Submission {
        input: tensor,
        token: deadline.map(CancelToken::with_budget),
        trace: trace.cloned(),
    });
    let mut resp = match result {
        Ok(logits) => {
            let mut body = Vec::with_capacity(logits.len() * 4);
            for v in &logits {
                body.extend_from_slice(&v.to_le_bytes());
            }
            Response::new(200)
                .header("content-type", "application/octet-stream")
                .body(body)
        }
        Err(BitFlowError::Rejected(reason)) => {
            rejection(reason, client.retry_after_hint(), client.entry().quota())
        }
        Err(err) => Response::new(error_status(&err))
            .header("content-type", "application/json")
            .body(serde_json::to_vec(&err).unwrap_or_default()),
    };
    if shared.config.server_timing {
        if let Some(tb) = trace {
            // The write stage has not happened yet, so it cannot ride in
            // its own response; `bitflow_stage_write_ns` covers it.
            let ms = |ns: u64| ns as f64 / 1_000_000.0;
            let queue = tb.stage_total_ns(Stage::QueueWait).unwrap_or(0);
            let exec = tb.stage_total_ns(Stage::Exec).unwrap_or(0);
            resp = resp.header(
                "server-timing",
                format!(
                    "queue;dur={:.3}, exec;dur={:.3}, app;dur={:.3}",
                    ms(queue),
                    ms(exec),
                    ms(tb.now_ns())
                ),
            );
        }
    }
    RouteOutcome::Respond(resp)
}

/// A `400` for a request whose framing was fine (the body is fully
/// consumed, so the connection survives it) but whose content was not, in
/// the same `{"code","message"}` shape as [`BitFlowError`]. Both arguments
/// are fixed strings with nothing to escape.
fn bad_request(code: &str, message: &str) -> Response {
    Response::new(400)
        .header("content-type", "application/json")
        .body(format!("{{\"code\":\"{code}\",\"message\":\"{message}\"}}").into_bytes())
}

/// Writes one whole rendered response under the `write_timeout` budget,
/// handling partial writes; a failure (peer gone, timeout, injected
/// truncation) returns `Err` and the caller closes the connection —
/// never a panic, never a half-tracked byte count. Every response echoes
/// the request's wire id (`scratch.wire_id`), and every write lands in
/// the `bitflow_stage_write_ns` histogram whether or not the request is
/// traced.
fn write_response(
    shared: &NetShared,
    conn: &mut Conn,
    scratch: &mut Scratch,
    req_no: u64,
    resp: &Response,
    keep_alive: bool,
) -> Result<(), ()> {
    let t0 = Instant::now();
    resp.render(&mut scratch.out, keep_alive, Some(&scratch.wire_id));
    let out = write_rendered(shared, conn, &scratch.out, req_no);
    shared
        .gauges
        .stage_write
        .record(t0.elapsed().as_nanos() as u64);
    out
}

fn write_rendered(
    shared: &NetShared,
    conn: &mut Conn,
    bytes: &[u8],
    req_no: u64,
) -> Result<(), ()> {
    let mut limit = bytes.len();
    let mut truncate = false;
    if let Some(chaos) = &shared.chaos {
        if chaos.trunc_write_hit(conn.id, req_no) {
            // Injected mid-response disconnect: half the bytes, then RST.
            limit = bytes.len() / 2;
            truncate = true;
        }
    }
    let deadline = Instant::now() + shared.config.write_timeout;
    if !conn.write_timeout_set {
        let _ = conn.stream.set_write_timeout(Some(POLL_SLICE));
        conn.write_timeout_set = true;
    }
    let mut written = 0usize;
    while written < limit {
        if Instant::now() >= deadline {
            shared.gauges.net_timeouts_write.inc();
            return Err(());
        }
        match conn.stream.write(&bytes[written..limit]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                written += n;
                shared.gauges.net_bytes_out.add(n as u64);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Err(()),
        }
    }
    if truncate {
        let _ = conn.stream.shutdown(Shutdown::Both);
        return Err(());
    }
    let _ = conn.stream.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights};
    use bitflow_serve::ServerConfig;
    use rand::{rngs::StdRng, SeedableRng};

    /// A listener's shared state without the listener.
    fn shared() -> NetShared {
        let spec = small_cnn();
        let weights = NetworkWeights::random_with_bn(&spec, &mut StdRng::seed_from_u64(1));
        let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");
        let server = Arc::new(Server::start(Arc::new(model), ServerConfig::default()));
        NetShared {
            config: NetConfig::default(),
            gauges: server.gauges(),
            server,
            chaos: None,
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            conn_ids: AtomicU64::new(0),
            recorder: None,
        }
    }

    /// A connected loopback pair: the client's end, and the server's as a
    /// fresh [`Conn`].
    fn loopback() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        (client, Conn::new(stream, 0))
    }

    fn request(body: &[u8]) -> Vec<u8> {
        let mut req = format!(
            "POST /v1/infer HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        req
    }

    /// Reads one whole request off `conn`; returns where its head ends
    /// and where its body does.
    fn read_request(shared: &NetShared, conn: &mut Conn) -> (usize, usize) {
        let HeadOutcome::Complete(head_end) = read_head(shared, conn) else {
            panic!("no complete head");
        };
        let len = http::parse_head(&conn.buf[..head_end])
            .expect("head parses")
            .content_length()
            .expect("framed")
            .expect("has a length");
        assert!(read_body(shared, conn, head_end + len).is_ok());
        (head_end, head_end + len)
    }

    #[test]
    fn head_and_body_in_one_segment_cost_one_socket_read() {
        let shared = shared();
        let (mut client, mut conn) = loopback();
        // The size of an encoded `small_cnn` input, give or take.
        let body: Vec<u8> = (0..4200u32).map(|i| i as u8).collect();
        client.write_all(&request(&body)).expect("write");
        let (head_end, total) = read_request(&shared, &mut conn);
        assert_eq!(&conn.buf[head_end..total], body.as_slice());
        assert_eq!(conn.read_no, 1, "head and body arrived together");
        conn.consume(total);
        assert_eq!(conn.filled, 0);

        // Keep-alive: the next request is one read again, under the poll
        // slice the first read set (a healthy read never asks for another).
        client.write_all(&request(&body)).expect("write");
        let (head_end, total) = read_request(&shared, &mut conn);
        assert_eq!(&conn.buf[head_end..total], body.as_slice());
        assert_eq!(conn.read_no, 2);
        assert_eq!(conn.read_timeout, Some(POLL_SLICE));
    }

    #[test]
    fn pipelined_requests_and_large_bodies_are_read_in_place() {
        let shared = shared();
        let (mut client, mut conn) = loopback();
        // Two small requests in one segment: the second is already
        // buffered when the first is consumed — no further read.
        let mut two = request(b"first");
        two.extend_from_slice(&request(b"second!"));
        client.write_all(&two).expect("write");
        let (head_end, total) = read_request(&shared, &mut conn);
        assert_eq!(&conn.buf[head_end..total], b"first");
        conn.consume(total);
        let (head_end, total) = read_request(&shared, &mut conn);
        assert_eq!(&conn.buf[head_end..total], b"second!");
        assert_eq!(conn.read_no, 1);
        conn.consume(total);

        // A body past the head-sized buffer: the buffer grows once to the
        // declared size and the rest is read where it belongs.
        let body: Vec<u8> = (0..40_000u32).map(|i| (i * 7) as u8).collect();
        client.write_all(&request(&body)).expect("write");
        let (head_end, total) = read_request(&shared, &mut conn);
        assert_eq!(&conn.buf[head_end..total], body.as_slice());
        assert!(conn.read_no >= 3, "one head-sized read, then the rest");
        assert_eq!(conn.filled, total, "not a byte past the declared body");
    }

    #[test]
    fn accept_backoff_doubles_and_caps() {
        let mut cur = ACCEPT_BACKOFF_MIN;
        let mut seen = vec![cur];
        for _ in 0..12 {
            cur = next_accept_backoff(cur);
            seen.push(cur);
        }
        assert_eq!(seen[0], Duration::from_millis(2));
        assert_eq!(seen[1], Duration::from_millis(4));
        assert_eq!(seen[2], Duration::from_millis(8));
        assert!(
            seen.windows(2).all(|w| w[1] >= w[0]),
            "backoff is monotone: {seen:?}"
        );
        assert_eq!(*seen.last().expect("nonempty"), ACCEPT_BACKOFF_MAX);
        assert!(
            seen.iter().all(|d| *d <= ACCEPT_BACKOFF_MAX),
            "never exceeds the cap: {seen:?}"
        );
    }
}
