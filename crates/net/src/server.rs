//! The listener: accept loop, per-connection threads and graceful drain.
//!
//! One OS thread per connection, bounded by [`NetConfig::max_conns`] —
//! past the cap the accept loop sheds with an immediate `503` and never
//! blocks. That thread is a syscall loop around the connection's
//! [`Conn`], which decides what the wire needs, and the one handler that
//! answers what it hands over: routing, `/healthz`, `/metrics`, the debug
//! routes and inference through [`bitflow_serve::ModelClient::call`] (on
//! this thread, when a worker is parked). A healthy keep-alive request
//! costs one `read` and one `write`, the socket timeouts set once.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bitflow_graph::{BitFlowError, CancelToken, RejectReason};
use bitflow_serve::{DegradationState, MemoryLease, ModelClient, Server, Submission};
use bitflow_telemetry::{
    to_chrome_trace, to_prometheus, FlightRecorder, MetricsSnapshot, ServeGauges, Stage,
    TraceBuilder,
};

use crate::config::NetConfig;
use crate::conn::{Action, Conn, Io};
use crate::http::{self, Response};
use crate::status::{error_status, reject_status, reject_wants_retry_after};

/// The longest a socket read or write blocks before the connection's
/// deadlines and the shutdown flag are looked at again.
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
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    conn_ids: AtomicU64,
    gauges: Arc<ServeGauges>,
    /// The serving runtime's flight recorder, if tracing is enabled.
    /// Finished traces for every request on this listener are offered
    /// here; the debug routes read it back.
    recorder: Option<Arc<FlightRecorder>>,
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
    /// Binds `config.addr` and starts serving `server` over HTTP. The
    /// `net_*` counters land on the default tenant's gauges, so they
    /// surface in `/metrics` and in [`bitflow_serve::Server::metrics`].
    pub fn bind(server: Arc<Server>, config: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let gauges = server.gauges();
        let recorder = server.recorder();
        let shared = Arc::new(NetShared {
            config,
            server,
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
                if shared.open_conns.load(Ordering::Acquire) >= shared.config.max_conns {
                    shared.gauges.net_rejected_conns.inc();
                    shed(shared, stream);
                    continue;
                }
                shared.gauges.net_accepted_conns.inc();
                shared.open_conns.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                // The stream rides in a take-able cell so that a failed
                // spawn can recover it and answer.
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

/// What a request's head decided, said before a body byte is read: the
/// head borrows the input buffer, which reading the body may move.
enum Route<'s> {
    /// Answered from the head alone.
    Done(Response),
    /// An inference whose body is still (partly) on the wire.
    Infer(InferPlan<'s>),
}

/// An inference request past every check its head allows: the declared
/// body's charge against the tenant's byte budget (held to the end of the
/// request), the `x-bitflow-deadline-ms` budget (`None` when it is not a
/// whole number of milliseconds), and the tenant (`None`: no such tenant).
struct InferPlan<'s> {
    body_lease: Option<MemoryLease>,
    deadline: Option<Option<Duration>>,
    client: Option<ModelClient<'s>>,
}

/// The connection thread: a syscall loop around [`Conn`], which makes
/// every decision, and the one handler it hands heads and requests to.
fn handle_conn(shared: &Arc<NetShared>, mut stream: TcpStream, id: u64) {
    let accepted_at = Instant::now();
    let mut conn = Conn::new(id, &shared.config, Arc::clone(&shared.gauges));
    // `SO_RCVTIMEO` is set when it changes (on a healthy connection once),
    // `SO_SNDTIMEO` once; the rest is the request in hand.
    let mut read_timeout = None;
    let mut write_timeout_set = false;
    let mut head_start = accepted_at;
    let mut trace: Option<Arc<TraceBuilder>> = None;
    let mut plan = None;
    let mut body_start = accepted_at;
    let mut write_start = None;
    let mut first = true;
    let draining = || shared.shutdown.load(Ordering::Acquire);
    loop {
        let now = Instant::now();
        match conn.poll(now, draining()) {
            Action::Read { into, until } => {
                let slice = until
                    .saturating_duration_since(now)
                    .min(POLL_SLICE)
                    .max(Duration::from_millis(1));
                if read_timeout != Some(slice) {
                    if stream.set_read_timeout(Some(slice)).is_err() {
                        return;
                    }
                    read_timeout = Some(slice);
                }
                let io = Io::of(stream.read(into));
                conn.on_read(io);
            }
            Action::Route {
                head,
                content_length,
                wire_id,
            } => {
                let parsed_at = Instant::now();
                // A trace is opened when a recorder wants it or
                // `server-timing` needs its stages. Its timeline starts at
                // the accept for the first request, at the start of
                // head-reading for keep-alive successors (idle time between
                // requests belongs to no request).
                let tracing = shared.recorder.is_some() || shared.config.server_timing;
                trace = tracing.then(|| {
                    let tb = Arc::new(TraceBuilder::with_origin(wire_id.to_string(), head_start));
                    if first {
                        tb.stage(Stage::Accept, accepted_at, head_start);
                    }
                    tb.stage(Stage::Parse, head_start, parsed_at);
                    tb
                });
                match route(shared, &head, content_length) {
                    Route::Done(resp) => conn.respond(&resp, draining()),
                    Route::Infer(p) => {
                        plan = Some(p);
                        body_start = Instant::now();
                        conn.read_body();
                    }
                }
            }
            Action::Serve(body) => {
                let Some(plan) = plan.take() else { return };
                let resp = infer(shared, body, body_start, plan, trace.as_ref());
                conn.respond(&resp, draining());
            }
            Action::Write { bytes, .. } => {
                write_start.get_or_insert(now);
                if !write_timeout_set {
                    let _ = stream.set_write_timeout(Some(POLL_SLICE));
                    write_timeout_set = true;
                }
                let io = Io::of(stream.write(bytes));
                conn.on_write(io);
            }
            Action::Sent {
                status,
                ok,
                wire_id,
            } => {
                let done = Instant::now();
                let began = write_start.take().unwrap_or(done);
                shared
                    .gauges
                    .stage_write
                    .record((done - began).as_nanos() as u64);
                // A request refused before it was routed is traced too, so
                // HTTP-layer failures are visible in the flight recorder.
                let refused = || {
                    let tb = TraceBuilder::with_origin(wire_id.to_string(), head_start);
                    tb.stage(Stage::Parse, head_start, began);
                    Arc::new(tb)
                };
                let tb = trace
                    .take()
                    .or_else(|| shared.recorder.as_ref().map(|_| refused()));
                if let Some(tb) = tb {
                    tb.stage(Stage::Write, began, done);
                    // The serving runtime's verdicts (rejected:*,
                    // cancelled, error:panic, ...) take precedence; only
                    // label what no deeper layer already explained.
                    if !ok {
                        tb.set_outcome_if_empty("error:write");
                    } else if status >= 400 {
                        tb.set_outcome_if_empty(&format!("http:{status}"));
                    }
                    if let Some(rec) = &shared.recorder {
                        rec.offer(tb.finish());
                    }
                }
                head_start = done;
                first = false;
            }
            Action::Close(_) => return,
        }
    }
}

fn route<'s>(
    shared: &'s NetShared,
    head: &http::Head<'_>,
    content_length: Option<usize>,
) -> Route<'s> {
    let target = head.target;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let is_infer = target == "/v1/infer" || target.starts_with("/v1/infer/");
    let is_debug = path == "/debug/trace" || path.starts_with("/debug/requests/");
    Route::Done(match (head.method, target) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics(shared),
        (_, "/healthz" | "/metrics") => Response::new(405).header("allow", "GET").text("GET only"),
        ("POST", _) if is_infer => return plan_infer(shared, head, content_length),
        (_, _) if is_infer => Response::new(405).header("allow", "POST").text("POST only"),
        (method, _) if is_debug => debug_route(shared, method, path, query),
        _ => Response::new(404).text("no such route"),
    })
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

/// What an inference request's head decides beyond its framing (which
/// [`Conn`] checked): a length is required, the tenant's byte budget, the
/// deadline header and the tenant itself — the last two only looked up
/// here, and judged after the body is read, so a refusal over them leaves
/// the connection usable. A refusal from the head leaves the declared
/// body unread, so [`Conn`] closes the connection after it.
fn plan_infer<'s>(
    shared: &'s NetShared,
    head: &http::Head<'_>,
    content_length: Option<usize>,
) -> Route<'s> {
    let Some(content_length) = content_length else {
        shared.gauges.net_malformed_requests.inc();
        return Route::Done(Response::new(411).text("content-length required"));
    };
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
            return Route::Done(rejection(reason, shared.server.retry_after_hint(), None));
        }
    };
    Route::Infer(InferPlan {
        body_lease,
        deadline: match head.header("x-bitflow-deadline-ms") {
            None => Some(None),
            Some(v) => http::digits(v).map(|ms| Some(Duration::from_millis(ms))),
        },
        client: match tenant {
            None => Some(shared.server.default_client()),
            Some(name) => shared.server.client(name),
        },
    })
}

/// Serves an inference request whose whole `body` is buffered.
fn infer(
    shared: &NetShared,
    body: &[u8],
    body_start: Instant,
    plan: InferPlan<'_>,
    trace: Option<&Arc<TraceBuilder>>,
) -> Response {
    let InferPlan {
        body_lease: _body_lease,
        deadline,
        client,
    } = plan;
    let decode_start = Instant::now();
    if let Some(tb) = trace {
        tb.stage(Stage::ReadBody, body_start, decode_start);
    }
    // Decoded where it was read.
    let tensor = match bitflow_tensor::io::decode_tensor(body) {
        Ok(t) => t,
        Err(e) => {
            shared.gauges.net_malformed_requests.inc();
            return bad_request("bad_tensor", &e.to_string());
        }
    };
    if let Some(tb) = trace {
        tb.stage(Stage::Decode, decode_start, Instant::now());
    }
    // A budget the client asked for but did not spell as a whole number of
    // milliseconds is refused, never read as "no deadline".
    let Some(deadline) = deadline else {
        shared.gauges.net_malformed_requests.inc();
        return bad_request(
            "bad_deadline",
            "x-bitflow-deadline-ms must be a whole number of milliseconds",
        );
    };
    let Some(client) = client else {
        return Response::new(404).text("unknown model");
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
    resp
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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

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
