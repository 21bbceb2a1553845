//! The listener: accept loop, per-connection threads and graceful drain.
//!
//! One OS thread per connection, bounded by [`NetConfig::max_conns`] —
//! past the cap the accept loop sheds with an immediate `503` and never
//! blocks. That thread is a syscall loop around the connection's
//! [`Conn`], which decides what the wire needs, and the handler step
//! ([`crate::handler`]), which decides what a request asks and how it is
//! answered; this thread renders the pages (`/healthz`, `/metrics`, the
//! debug routes) and submits inferences through
//! [`bitflow_serve::ModelClient::call`] (run on this thread when a worker
//! is parked). A healthy keep-alive request costs one `read` and one
//! `write`, the socket timeouts set once.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bitflow_graph::{CancelToken, RejectReason};
use bitflow_serve::{DegradationState, MemoryLease, ModelClient, Server, Submission};
use bitflow_telemetry::{
    to_chrome_trace, to_prometheus, FlightRecorder, MetricsSnapshot, ServeGauges, Stage,
    TraceBuilder,
};

use crate::config::NetConfig;
use crate::conn::{Action, Conn, Io};
use crate::handler::{self, Answer, Infer, Page, Routed, Submit, Tenant};
use crate::http::Response;

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

/// The connection thread: a syscall loop around [`Conn`], which decides
/// what the wire needs, and the driver of the handler step, which decides
/// what each request it hands over is answered.
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
                let server = &shared.server;
                let routed = handler::route(
                    &head,
                    content_length,
                    shared.config.debug_endpoints,
                    &shared.gauges,
                    |name| name.map_or_else(|| Some(server.default_client()), |n| server.client(n)),
                );
                match routed {
                    Routed::Answer(answer) => {
                        respond(&mut conn, answer, trace.as_deref(), draining())
                    }
                    Routed::Page(page) => {
                        let page = render(shared, page);
                        conn.respond(&page, draining());
                    }
                    Routed::Infer(infer) => {
                        plan = Some(infer);
                        body_start = Instant::now();
                        conn.read_body();
                    }
                }
            }
            Action::Serve(body) => {
                let Some(infer) = plan.take() else { return };
                let answer = serve(shared, body, body_start, infer, trace.as_ref());
                respond(&mut conn, answer, trace.as_deref(), draining());
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
                    // The verdicts of the serving runtime (rejected:*,
                    // cancelled, error:panic, ...) and of the handler step
                    // take precedence; only label what the connection core
                    // refused on its own.
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

/// What the listener answers from the serving runtime's state.
fn render(shared: &NetShared, page: Page<'_>) -> Response {
    match page {
        Page::Healthz => healthz(shared),
        Page::Metrics => metrics(shared),
        Page::Debug { path, query } => debug_route(shared, path, query),
    }
}

/// Live trace extraction, with the debug routes enabled
/// ([`NetConfig::debug_endpoints`]; else the handler step answers `404`
/// as for any unknown path): `503` when the process carries no flight
/// recorder to read.
fn debug_route(shared: &NetShared, path: &str, query: &str) -> Response {
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

impl Tenant for ModelClient<'_> {
    type Lease = MemoryLease;

    fn name(&self) -> &str {
        self.entry().name()
    }

    fn reserve_body(&self, bytes: u64) -> Result<MemoryLease, RejectReason> {
        ModelClient::reserve_body(self, bytes)
    }

    fn retry_after_hint(&self) -> Duration {
        ModelClient::retry_after_hint(self)
    }

    fn quota(&self) -> Option<u64> {
        self.entry().quota()
    }
}

/// Hands `answer` to the connection, recording the verdict the handler
/// step decided in the request's trace.
fn respond(conn: &mut Conn, answer: Answer, trace: Option<&TraceBuilder>, close: bool) {
    if let (Some(tb), Some((label, tenant))) = (trace, &answer.verdict) {
        if let Some(tenant) = tenant {
            tb.set_tenant(tenant);
        }
        tb.set_outcome(label);
    }
    conn.respond(&answer.response, close);
}

/// Serves an inference request whose whole `body` is buffered. One
/// admission path for every tenant, traced or not: the serving runtime
/// records admit/queue/batch/exec stages and the engine its operator
/// spans into the trace when there is one. This thread would only block
/// for the answer, so it offers to compute it: `call` runs the request
/// right here when a worker is parked.
fn serve(
    shared: &NetShared,
    body: &[u8],
    body_start: Instant,
    infer: Infer<ModelClient<'_>>,
    trace: Option<&Arc<TraceBuilder>>,
) -> Answer {
    let decode_start = Instant::now();
    if let Some(tb) = trace {
        tb.stage(Stage::ReadBody, body_start, decode_start);
    }
    let submission = handler::decode(body, &shared.gauges).and_then(|input| {
        if let Some(tb) = trace {
            tb.stage(Stage::Decode, decode_start, Instant::now());
        }
        infer.submission(input, &shared.gauges)
    });
    let result = match submission {
        Err(answer) => return answer,
        Ok(Submit {
            input,
            budget,
            tenant,
        }) => tenant.call(Submission {
            input,
            token: budget.map(CancelToken::with_budget),
            trace: trace.cloned(),
        }),
    };
    let mut answer = infer.answer(result);
    if shared.config.server_timing {
        if let Some(tb) = trace {
            // The write stage has not happened yet, so it cannot ride in
            // its own response; `bitflow_stage_write_ns` covers it.
            let ms = |ns: u64| ns as f64 / 1_000_000.0;
            let queue = tb.stage_total_ns(Stage::QueueWait).unwrap_or(0);
            let exec = tb.stage_total_ns(Stage::Exec).unwrap_or(0);
            answer.response = answer.response.header(
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
    answer
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
