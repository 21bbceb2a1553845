//! A seeded, single-threaded simulation of the front-end from wire bytes to
//! verdicts on the harness's virtual clock (`tests/common/sim.rs`), so a
//! schedule replays exactly from its seed. Two to eight clients send their
//! bytes through real `bitflow_net::conn::Conn`s and the real handler step
//! (`bitflow_net::handler`) into the serving runtime the serve simulator
//! models (`crates/serve/tests/sim/runtime.rs`: the real `Policy` and
//! `ResourceGovernor`, workers with a drawn service time, contexts,
//! injected panics and allocation failures), and its verdicts come back the
//! same way. Three tenants (`a`, the default, High; `b`, Normal; `c`, Low)
//! each have their own backoff hint.
//!
//! Each seed draws the three deadlines and the body bound, and each client
//! its requests — inferences to a tenant, the default or an unknown one,
//! with bodies from empty to past the buffer (tensors, or bytes that are
//! not one), no deadline, a hopeless one or one that is not a number,
//! `connection: close`, client request ids good and hostile; health
//! checks, wrong methods, unknown routes, missing lengths; and, from
//! hostile clients, a head of exactly `MAX_HEAD_BYTES` and one a byte over,
//! a body over the bound or past every buffer, a signed or repeated
//! `content-length`, a transfer coding, bytes that are not HTTP, a health
//! check carrying a request as its body — and how it sends them: all in one
//! segment, a segment a request, random cuts with gaps past the deadlines,
//! or the first head dripped; then idle, EOF, or EOF mid-request; with
//! whole, partial, failing or stalled writes. The listener may drain at any
//! instant. Two profiles: `wire`, hostile clients before a roomy, calm
//! runtime; `verdicts`, well-formed requests before a small pool, queue and
//! quota under chaos, which may drain too. After every step:
//! (i) each connection and each request ends in exactly one terminal
//! class, justified by what the client did;
//! (ii) the handler sees a request only after its whole head, and exactly
//! its declared body; a body read asks for exactly what is missing;
//! (iii) no read or write waits past its phase's deadline, which fires
//! exactly at it: a partial head gets 408 at `header_timeout` however it
//! drips, an idle keep-alive connection closes silently, a body has
//! `read_timeout` and a response `write_timeout`;
//! (iv) on drain an idle connection closes at its next poll, and a request
//! in flight is answered with `connection: close`;
//! (v) the `net_*` counters equal the bytes moved, and the timeout and
//! malformed counters the refusals, the handler's included;
//! (vi) requests reach the handler in order, byte for byte;
//! (vii) a request that arrives in one segment and is answered by whole
//! writes costs at most one read and one write;
//! (viii) each request's status is the wire contract's for the serving
//! runtime's verdict (with that tenant's `Retry-After` and quota, and the
//! engine's JSON error), one of the handler's own (400, 404, 405, 411, and
//! 507 for a body its tenant would not hold), or the core's refusal;
//! (ix) per tenant, the runtime's checks: submissions counted,
//! conservation with the memory column, the memory gauges equal to the
//! leases in flight, the wires' body charges included;
//! (x) the handler step's trace verdict: `rejected:{reason}` naming the
//! tenant where it refused a body, `http:{status}` for its own statuses,
//! and nothing over a verdict the serving runtime decided.
//! At the end every connection is over and every lease returned: each
//! tenant holds its weights under one lease. `cargo test` runs 256 seeds a
//! profile; the `#[ignore]`d sweeps 10 000.

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_net::conn::{Action, Conn, End, Io};
use bitflow_net::handler::{self, Infer, Routed, Tenant};
use bitflow_net::http::{Response, MAX_HEAD_BYTES};
use bitflow_net::NetConfig;
use bitflow_serve::{ChaosConfig, GovernorConfig, MemoryLease, ResourceGovernor};
use bitflow_telemetry::ServeGauges;
use bitflow_tensor::io::encode_tensor;
use bitflow_tensor::{Layout, Shape, Tensor};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

#[path = "../../../tests/common/sim.rs"]
#[macro_use]
mod harness;
#[path = "../../serve/tests/sim/runtime.rs"]
mod runtime;
use harness::{pick, run_seeds, Check};
use runtime::{scenario, Arrival, Scenario, WEIGHTS};

const MS: Duration = Duration::from_millis(1);
/// The listener's poll slice: the longest one socket call blocks.
const SLICE: Duration = Duration::from_millis(100);
const NAMES: [&str; 3] = ["a", "b", "c"];
/// Each tenant's backoff hint in seconds, all different: a refusal must
/// carry its own tenant's.
const HINTS: [u64; 3] = [2, 5, 9];

/// What a request is, and so what it may earn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// An inference to a tenant (`None`: `/v1/infer`, the default's):
    /// whether its body is a tensor and its deadline header a number.
    Infer {
        tenant: Option<usize>,
        tensor: bool,
        deadline: bool,
    },
    Unknown,
    NoLength,
    WrongMethod,
    NoRoute,
    /// `GET /healthz`, which the listener renders.
    Page,
    /// Refused by the connection core from its head with this status.
    Framing(u16),
    /// A declared length no buffer holds: the core's 507 once its body is
    /// asked for.
    Unbuffered,
}

/// One request on the wire.
struct Req {
    bytes: Vec<u8>,
    /// Its head, through the blank line.
    head: usize,
    declared: usize,
    kind: Kind,
    /// The head asks to keep the connection open.
    keep_alive: bool,
    /// The client's request id, when it sent a valid one.
    id: Option<String>,
}

fn req(k: usize, line: &str, extra: &str, body: &[u8], kind: Kind) -> Req {
    let mut bytes = format!("{line} HTTP/1.1\r\nx-seq: {k}\r\n{extra}\r\n").into_bytes();
    let head = bytes.len();
    bytes.extend_from_slice(body);
    Req {
        declared: body.len(),
        bytes,
        head,
        kind,
        keep_alive: true,
        id: None,
    }
}

/// A health check whose head is exactly `len` bytes.
fn padded(k: usize, len: usize, kind: Kind) -> Req {
    let pad = "a".repeat(len - req(k, "GET /healthz", "x-pad: \r\n", b"", kind).head);
    req(k, "GET /healthz", &format!("x-pad: {pad}\r\n"), b"", kind)
}

/// A tensor encoded in a little under `n` bytes (300, 4000 or 20 000),
/// made once.
fn encoded(n: usize) -> Vec<u8> {
    static TENSORS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    let sizes = [300, 4000, 20_000];
    let made = TENSORS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0);
        let shape = |n: usize| Shape::new(1, 1, 1, (n - 100) / 4);
        let tensor = |n| encode_tensor(&Tensor::random(shape(n), Layout::Nhwc, &mut rng)).to_vec();
        sizes.map(tensor).to_vec()
    });
    made[sizes.iter().position(|&m| m == n).unwrap_or(0)].clone()
}

/// Request `k`: the first ten shapes are healthy, and drawn alone when
/// `healthy`; an inference's body is about one of `sizes` bytes.
fn draw_req(rng: &mut StdRng, k: usize, max_body: usize, healthy: bool, sizes: &[usize]) -> Req {
    let post = "POST /v1/infer";
    let length = |n: usize| format!("content-length: {n}\r\n");
    let shape = rng.gen_range(0..if healthy { 10 } else { 18 });
    match shape {
        0..=5 => {
            let tenant = pick(rng, &[None, Some(0), Some(1), Some(1), Some(2), Some(2)]);
            let n = pick(rng, sizes);
            let tensor = n >= 300 && n <= max_body && rng.gen_bool(0.9);
            let body = if tensor {
                encoded(n)
            } else {
                let mut body = vec![0; n.min(max_body)];
                rng.fill_bytes(&mut body);
                body
            };
            let mut extra = length(body.len());
            let close = rng.gen_bool(0.15);
            if close {
                extra.push_str("connection: close\r\n");
            }
            // Valid; a bad charset; one byte too long.
            let ids = [format!("id-{k}.A_b"), "bad id&<x>".into(), "x".repeat(65)];
            let id = rng.gen_bool(0.3).then(|| pick(rng, &[0, 1, 2]));
            if let Some(i) = id {
                extra.push_str(&format!("x-bitflow-request-id: {}\r\n", ids[i]));
            }
            let bad = ["5ms", "-1", "+5", "18446744073709551616", ""];
            let deadline = match rng.gen_range(0..12) {
                0..=5 => None,
                6..=8 => Some(pick(rng, &["0", "2", "50"])),
                _ => Some(pick(rng, &bad)),
            };
            if let Some(v) = deadline {
                extra.push_str(&format!("x-bitflow-deadline-ms: {v}\r\n"));
            }
            let path = tenant.map_or(post.into(), |t| format!("{post}/{}", NAMES[t]));
            let kind = Kind::Infer {
                tenant,
                tensor,
                deadline: deadline.is_none_or(|v| !bad.contains(&v)),
            };
            Req {
                keep_alive: !close,
                id: id.filter(|&i| i == 0).map(|_| ids[0].clone()),
                ..req(k, &path, &extra, &body, kind)
            }
        }
        6 => padded(k, MAX_HEAD_BYTES, Kind::Page),
        7 => req(k, "GET /healthz", "", b"", Kind::Page),
        8 => {
            let body = encoded(300);
            req(
                k,
                "POST /v1/infer/zz",
                &length(body.len()),
                &body,
                Kind::Unknown,
            )
        }
        9 => {
            let (line, kind) = pick(
                rng,
                &[
                    (post, Kind::NoLength),
                    ("GET /v1/infer", Kind::WrongMethod),
                    ("DELETE /healthz", Kind::WrongMethod),
                    ("PUT /metrics", Kind::WrongMethod),
                    ("GET /nope", Kind::NoRoute),
                ],
            );
            req(k, line, "", b"", kind)
        }
        // A body the handler never asks for must not be read as the next
        // request: the connection closes.
        10 => req(
            k,
            "GET /healthz",
            &length(23),
            b"GET /metrics HTTP/1.1\r\n",
            Kind::Page,
        ),
        11..=14 => {
            let (line, extra, body, status) = [
                (post, "content-length: +5\r\n", &b"abcde"[..], 400),
                (
                    post,
                    "content-length: 5\r\ncontent-length: 99999\r\n",
                    b"abcde",
                    400,
                ),
                (post, "transfer-encoding: chunked\r\n", b"", 501),
                ("\x16\x03\x01 hello", "", b"", 400),
            ][shape - 11];
            req(k, line, extra, body, Kind::Framing(status))
        }
        // Past every buffer, a declared length is a 507.
        15 | 16 if max_body == usize::MAX => Req {
            declared: usize::MAX / 2,
            ..req(k, post, &length(usize::MAX / 2), b"", Kind::Unbuffered)
        },
        15 | 16 => req(k, post, &length(max_body + 1), b"", Kind::Framing(413)),
        _ => padded(k, MAX_HEAD_BYTES + 1, Kind::Framing(431)),
    }
}

/// A tenant as the handler step sees it: the runtime's governor and the
/// tenant's gauges, its own hint and quota, the runtime's count of
/// fallible reservations, and a note of the last body charge: tenant,
/// bytes, refused.
#[derive(Clone)]
struct SimTenant {
    t: usize,
    gauges: Arc<ServeGauges>,
    gov: Arc<ResourceGovernor>,
    quota: Option<u64>,
    reservations: Rc<Cell<u64>>,
    charge: Rc<Cell<Option<(usize, u64, bool)>>>,
}

impl Tenant for SimTenant {
    type Lease = MemoryLease;

    fn name(&self) -> &str {
        NAMES[self.t]
    }

    fn reserve_body(&self, bytes: u64) -> Result<MemoryLease, RejectReason> {
        self.reservations.set(self.reservations.get() + 1);
        let got = self.gov.reserve(&self.gauges, bytes, "request body");
        self.charge.set(Some((self.t, bytes, got.is_err())));
        got.map_err(|_| RejectReason::MemoryPressure)
    }

    fn retry_after_hint(&self) -> Duration {
        Duration::from_secs(HINTS[self.t])
    }

    fn quota(&self) -> Option<u64> {
        self.quota
    }
}

/// The answer the request in hand must get: its status; the refusal
/// behind it, for the hint and quota headers; the trace verdict the
/// handler step must decide (`None`: the runtime's own stands); and the
/// JSON error code its body must carry.
#[derive(Clone, Debug, Default)]
struct Expect {
    status: u16,
    refusal: Option<(RejectReason, usize)>,
    verdict: Option<(String, Option<String>)>,
    code: Option<String>,
}

impl Expect {
    /// One of the handler's own statuses.
    fn own(status: u16, code: Option<&str>) -> Self {
        Self {
            status,
            verdict: (status != 200).then(|| (format!("http:{status}"), None)),
            code: code.map(str::to_string),
            ..Self::default()
        }
    }

    /// What a request of `kind` must get from a refusal of its body by
    /// tenant `refused`, from the runtime's verdict `served`, or from the
    /// handler alone. The wire contract is written out here rather than
    /// read from `status.rs`.
    fn of(
        kind: Kind,
        refused: Option<usize>,
        served: Option<&Result<(), BitFlowError>>,
    ) -> Result<Self, String> {
        use RejectReason::*;
        if let Some(t) = refused {
            return Ok(Self {
                status: 507,
                refusal: Some((MemoryPressure, t)),
                verdict: Some(("rejected:memory".into(), Some(NAMES[t].into()))),
                code: Some("rejected_memory".into()),
            });
        }
        Ok(match (kind, served) {
            (Kind::Infer { .. }, Some(Ok(()))) | (Kind::Page, None) => Self::own(200, None),
            (Kind::Infer { tenant, .. }, Some(Err(e))) => Self {
                status: match e {
                    BitFlowError::Rejected(QueueFull | Shedding | QuotaExceeded) => 429,
                    BitFlowError::Rejected(Draining) => 503,
                    BitFlowError::Rejected(MemoryPressure) => 507,
                    BitFlowError::ResourceExhausted { .. } => 507,
                    BitFlowError::DeadlineExceeded => 504,
                    BitFlowError::Internal(_) => 500,
                    e => return Err(format!("the runtime answered {e:?}")),
                },
                refusal: match e {
                    BitFlowError::Rejected(r) => Some((*r, tenant.unwrap_or(0))),
                    _ => None,
                },
                verdict: None,
                code: Some(e.code().to_string()),
            },
            (_, Some(_)) => return Err(format!("{kind:?} was submitted")),
            (Kind::Infer { tensor: false, .. }, None) => Self::own(400, Some("bad_tensor")),
            (
                Kind::Infer {
                    deadline: false, ..
                },
                None,
            ) => Self::own(400, Some("bad_deadline")),
            (Kind::Unknown | Kind::NoRoute, None) => Self::own(404, None),
            (Kind::WrongMethod, None) => Self::own(405, None),
            (Kind::NoLength, None) => Self::own(411, None),
            _ => return Err(format!("{kind:?} answered by the handler")),
        })
    }
}

/// How the client takes response bytes: all of each write, at most so
/// many a write, all until so many are in and then failing, or none.
#[derive(Clone, Copy, Debug)]
enum Take {
    Whole,
    Partial(usize),
    FailAfter(usize),
    Stall,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Head,
    Body,
    Write,
}

/// Outcomes, each to be reached by at least one seed in twenty of the
/// profile that checks it: first the wire's — two requests from one read,
/// 408 in a head and in a body, an idle close at the deadline, the framing
/// refusals, a close for an unread body, EOF mid-head and mid-body, a
/// failed write, a write timeout, an idle close and a `connection: close`
/// on drain, one read and one write, the core's 507 — then the verdicts',
/// the last an admitted request whose worker context a budget refused.
const OUTCOMES: &str = "pipelined|408-head|408-body|idle-deadline|431|413|400|501|\
    unread-body|eof-head|eof-body|write-failed|write-timeout|drain-idle|drain-close|one-read|\
    507 unbuffered|200|504|429 to b or c|429 quota|503 draining|507 body to b or c|507 payload|\
    500 injected panic|400 from the handler|404 after the body|405 or 411|507 context";
const N: usize = 29;
const WIRE: [usize; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
const VERDICTS: [usize; 14] = [17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 10, 14];

/// A client, and everything the simulator knows of its connection.
struct Client {
    /// The connection's id.
    id: u64,
    reqs: Vec<Req>,
    /// Where each request starts in the stream, and where the last ends.
    starts: Vec<usize>,
    stream: Vec<u8>,
    /// At each offset from the start, the stream is sent up to an end.
    segs: Vec<(Duration, usize)>,
    /// EOF after the last byte; else idle for ever.
    eof: bool,
    delivered: usize,
    take: Take,
    received: Vec<u8>,
    /// The request in hand, its phase and when that began.
    k: usize,
    phase: Phase,
    since: Instant,
    /// The socket call in progress: when it began, and the drain flag the
    /// core was polled with for it.
    call: Option<(Instant, bool)>,
    /// Blocked in that call until then.
    wake: Option<Instant>,
    /// The core has been polled under a drain.
    drained: bool,
    /// The response in flight: where it starts in `received`, the phase
    /// the core refused in (if it refused), the keep-alive it must say,
    /// and what it must be.
    resp_at: usize,
    refused: Option<Phase>,
    keep: bool,
    expect: Option<Expect>,
    /// Reads and writes of the request in hand; reads since a route.
    io: (u32, u32),
    unrouted_reads: u32,
    one_read: bool,
    /// The last response: written whole, and kept the connection open.
    last_sent: Option<(bool, bool)>,
    /// The routed inference whose body is read or served, and the body
    /// charge it holds: tenant and bytes.
    plan: Option<Infer<SimTenant>>,
    body: Option<(usize, u64)>,
    /// Submitted, and waiting for the runtime.
    waiting: bool,
    end: Option<End>,
    /// Read and write timeouts, and malformed refusals.
    counts: [u64; 3],
    reached: [bool; N],
}

impl Client {
    fn req(&self) -> Result<&Req, String> {
        self.reqs
            .get(self.k)
            .ok_or_else(|| "a request no client sent".into())
    }

    fn sent_by(&self, t: Duration) -> usize {
        let sent = self.segs.iter().take_while(|s| s.0 <= t).last();
        sent.map_or(0, |s| s.1)
    }

    fn at_eof(&self) -> bool {
        self.eof && self.delivered == self.stream.len()
    }

    /// Bytes of the request in hand (and any behind it) in the core.
    fn buffered(&self) -> usize {
        self.delivered.saturating_sub(self.starts[self.k])
    }

    fn deadline(&self, cfg: &NetConfig) -> Instant {
        let timeouts = [cfg.header_timeout, cfg.read_timeout, cfg.write_timeout];
        self.since + timeouts[self.phase as usize]
    }

    fn enter(&mut self, phase: Phase, now: Instant) {
        self.phase = phase;
        self.since = now;
    }

    /// The client's side of a read begun under `draining`: what it has
    /// sent by now, else EOF, else nothing once the deadline or the slice
    /// is up; `None` while the call blocks.
    fn read(&mut self, into: &mut [u8], until: Instant, now: Instant, base: Instant) -> Option<Io> {
        let since = self.call.map_or(now, |c| c.0);
        let n = into.len().min(self.sent_by(now - base) - self.delivered);
        let io = if n > 0 {
            into[..n].copy_from_slice(&self.stream[self.delivered..self.delivered + n]);
            self.delivered += n;
            Io::Bytes(n)
        } else if self.at_eof() {
            Io::Bytes(0)
        } else if now >= until.min(since + SLICE) {
            Io::Stalled
        } else {
            let next = self.segs.iter().find(|s| s.1 > self.delivered);
            let data = next.map_or(until, |s| until.min(base + s.0));
            self.wake = Some(data.min(since + SLICE));
            return None;
        };
        self.io.0 += 1;
        self.unrouted_reads += 1;
        Some(io)
    }

    /// The client's side of a write; `None` while the call blocks.
    fn write(&mut self, bytes: &[u8], until: Instant, now: Instant) -> Option<Io> {
        let since = self.call.map_or(now, |c| c.0);
        let n = match self.take {
            Take::Whole => bytes.len(),
            Take::Partial(m) => m.min(bytes.len()),
            Take::FailAfter(f) => f.saturating_sub(self.received.len()).min(bytes.len()),
            Take::Stall if now < until.min(since + SLICE) => {
                self.wake = Some(until.min(since + SLICE));
                return None;
            }
            Take::Stall => {
                self.io.1 += 1;
                return Some(Io::Stalled);
            }
        };
        self.io.1 += 1;
        self.received.extend_from_slice(&bytes[..n]);
        Some(if n == 0 { Io::Failed } else { Io::Bytes(n) })
    }

    /// The wire id of the request in hand: the client's when its head was
    /// parsed, else generated.
    fn wire_id(&self, parsed: bool) -> String {
        match self.reqs.get(self.k).and_then(|r| r.id.as_ref()) {
            Some(id) if parsed => id.clone(),
            _ => format!("c{}-r{}", self.id, self.k),
        }
    }

    fn route(&mut self, seq: Option<usize>, length: Option<usize>, wire_id: &str) -> Check {
        let (r, buffered) = (self.req()?, self.buffered());
        ensure!(
            self.phase == Phase::Head && buffered >= r.head && !matches!(r.kind, Kind::Framing(_)),
            "routed request {} in {:?} with {buffered} of its {}-byte head",
            self.k,
            self.phase,
            r.head
        );
        ensure!(seq == Some(self.k), "routed {seq:?} as request {}", self.k);
        ensure!(length.unwrap_or(0) == r.declared, "declared {length:?}");
        ensure!(wire_id == self.wire_id(true), "routed as {wire_id}");
        self.reached[0] |= self.unrouted_reads == 0;
        self.unrouted_reads = 0;
        Ok(())
    }

    /// A response the core began on its own: a refusal.
    fn refusal(&mut self, status: u16, now: Instant, cfg: &NetConfig) -> Check {
        let (r, buffered) = (self.req()?, self.buffered());
        let on_time = now == self.deadline(cfg);
        let ok = match (self.phase, status) {
            (Phase::Head, 408) => on_time && buffered > 0 && buffered < r.head,
            (Phase::Body, 408) => on_time && self.delivered < self.starts[self.k + 1],
            (Phase::Head, _) => {
                buffered >= r.head.min(MAX_HEAD_BYTES + 1) && r.kind == Kind::Framing(status)
            }
            (Phase::Body, 507) => r.kind == Kind::Unbuffered,
            _ => false,
        };
        ensure!(
            ok,
            "refused {status} in {:?} with {buffered} of {}",
            self.phase,
            r.head
        );
        let i = match status {
            507 => 16,
            408 => 1 + self.phase as usize,
            431 => 4,
            413 => 5,
            400 => 6,
            501 => 7,
            _ => 0,
        };
        self.reached[i] |= i > 0;
        self.counts[if status == 408 { 0 } else { 2 }] += u64::from(status != 507);
        self.refused = Some(self.phase);
        self.keep = false;
        self.expect = Some(Expect {
            status,
            ..Expect::default()
        });
        self.resp_at = self.received.len();
        self.enter(Phase::Write, now);
        Ok(())
    }

    /// The handler answers: `response` and its trace `verdict` must be what
    /// `want` says. The connection stays open only if the head asked,
    /// leaving no body unread, and no drain was seen (`close`: the
    /// listener's, as it answers).
    fn respond(
        &mut self,
        conn: &mut Conn,
        answer: (Response, Option<(String, Option<String>)>),
        want: Expect,
        close: bool,
        now: Instant,
    ) -> Check {
        let (response, verdict) = answer;
        let (r, status) = (self.req()?, response.status());
        let (kind, keep_alive) = (r.kind, r.keep_alive);
        ensure!(
            status == want.status,
            "request {} ({kind:?}) answered {status}, not {want:?}",
            self.k
        );
        ensure!(
            verdict == want.verdict,
            "request {} ({kind:?}) {status} traced {verdict:?}, not {want:?}",
            self.k
        );
        let unread = self.phase == Phase::Head && r.declared > 0;
        let drained = self.drained || close;
        self.keep = keep_alive && !drained && !unread;
        self.counts[2] += u64::from(matches!(status, 400 | 411));
        self.reached[8] |= unread;
        self.reached[14] |= drained && keep_alive && !unread;
        self.reached[25] |= status == 400;
        self.reached[26] |= status == 404 && self.phase == Phase::Body;
        self.reached[27] |= matches!(status, 405 | 411);
        self.refused = None;
        self.expect = Some(want);
        self.resp_at = self.received.len();
        self.enter(Phase::Write, now);
        conn.respond(&response, close);
        Ok(())
    }

    /// A response is done with: its status, wire id and keep-alive, and
    /// for a whole one its tenant's hint and quota and its JSON error.
    fn sent(
        &mut self,
        sent: (u16, bool, &str),
        now: Instant,
        cfg: &NetConfig,
        quota: Option<u64>,
    ) -> Check {
        let (status, ok, wire_id) = sent;
        ensure!(self.phase == Phase::Write, "sent in {:?}", self.phase);
        let want = self.expect.take().ok_or("a response to no answer")?;
        ensure!(
            status == want.status,
            "request {} sent {status}, not {want:?}",
            self.k
        );
        let id = self.wire_id(!(self.refused == Some(Phase::Head) && status == 408));
        ensure!(wire_id == id, "wire id {wire_id}, not {id}");
        if ok {
            let text = String::from_utf8_lossy(&self.received[self.resp_at..]).to_string();
            let has = |line: &str| text.contains(&format!("\r\n{line}\r\n"));
            let conn = if self.keep { "keep-alive" } else { "close" };
            let bound = format!("x-bitflow-max-body: {}", cfg.max_body_bytes);
            ensure!(
                text.starts_with(&format!("HTTP/1.1 {status} "))
                    && !text.lines().next().unwrap_or("").ends_with("Unknown")
                    && has(&format!("x-bitflow-request-id: {id}"))
                    && text.contains(&format!("\r\nconnection: {conn}\r\n\r\n"))
                    && (status != 413 || has(&bound)),
                "request {}: {text:?}, not connection: {conn}",
                self.k
            );
            let (hint, quota) = match want.refusal {
                Some((RejectReason::QuotaExceeded, _)) => (None, quota),
                Some((RejectReason::Draining, _)) | None => (None, None),
                Some((_, t)) => (Some(HINTS[t]), None),
            };
            ensure!(
                hint.map_or(!text.contains("retry-after"), |s| has(&format!(
                    "retry-after: {s}"
                ))) && quota.is_none_or(|q| has(&format!("x-bitflow-quota: {q}"))),
                "{want:?} sent without its tenant's hint or quota: {text:?}"
            );
            ensure!(
                want.code
                    .as_ref()
                    .is_none_or(|code| has("content-type: application/json")
                        && text.contains(&format!("{{\"code\":\"{code}\""))),
                "{text:?} is not the error {want:?} calls for"
            );
            if self.one_read && self.refused.is_none() {
                // None when it came in with the one before.
                self.reached[15] |= self.io.0 == 1;
                ensure!(
                    self.io.0 <= 1 && self.io.1 == 1,
                    "request {}: {:?} reads, writes",
                    self.k,
                    self.io
                );
            }
        } else {
            let failed = matches!(self.take, Take::FailAfter(f) if self.received.len() == f);
            ensure!(
                failed || now == self.deadline(cfg),
                "a write failed unprovoked"
            );
            self.counts[1] += u64::from(!failed);
            self.reached[if failed { 11 } else { 12 }] = true;
        }
        self.last_sent = Some((ok, self.keep));
        if ok && self.keep {
            self.k += 1;
            self.io = (0, 0);
            self.enter(Phase::Head, now);
        }
        Ok(())
    }

    /// The connection ended: justified by what the client did.
    fn close(&mut self, end: End, now: Instant, cfg: &NetConfig, drain: Option<Instant>) -> Check {
        let at_eof = self.at_eof();
        let ok = match end {
            End::Idle => {
                let by_deadline = now == self.deadline(cfg);
                let drain = drain.filter(|&d| d <= now && now <= d + SLICE);
                self.reached[3] |= by_deadline;
                self.reached[13] |= drain.is_some() && !by_deadline;
                self.phase == Phase::Head
                    && self.buffered() == 0
                    && (by_deadline || drain.is_some() || at_eof)
            }
            End::Abandoned => {
                let in_body = self.phase == Phase::Body;
                self.reached[9 + usize::from(in_body)] = true;
                at_eof && (in_body || self.phase == Phase::Head && self.buffered() > 0)
            }
            End::Answered => self.last_sent == Some((true, false)),
            End::WriteFailed => matches!(self.last_sent, Some((false, _))),
        };
        ensure!(
            ok,
            "closed {end:?} in {:?} at request {}",
            self.phase,
            self.k
        );
        // The connection thread returns: a plan still held is dropped with
        // it, and its body charge returned.
        (self.plan, self.body, self.end) = (None, None, Some(end));
        Ok(())
    }
}

/// A client's requests, and how it sends them: in one segment (mode 0), a
/// segment a request (1), random cuts (2), or the first head dripped (3).
fn draw_client(rng: &mut StdRng, id: u64, cfg: &NetConfig, tight: bool, start: Instant) -> Client {
    // Verdicts need clients that crowd the runtime.
    let mode = rng.gen_range(0..if tight { 2 } else { 4 });
    let unit = if tight { MS / 20 } else { MS };
    let healthy = tight || mode == 1;
    // A healthy request fits one read, and a tight runtime's budgets hold
    // most bodies.
    let sizes: &[usize] = match (tight, healthy) {
        (true, _) => &[0, 300, 300, 300, 300, 300, 300, 4000],
        (_, true) => &[0, 5, 300, 300, 4000],
        _ => &[0, 5, 300, 300, 4000, 20_000],
    };
    let reqs: Vec<Req> = (0..rng.gen_range(1..=if tight { 6 } else { 4 }))
        .map(|k| draw_req(rng, k, cfg.max_body_bytes, healthy, sizes))
        .collect();
    let starts: Vec<usize> = std::iter::once(0)
        .chain(reqs.iter().scan(0, |end, r| {
            *end += r.bytes.len();
            Some(*end)
        }))
        .collect();
    let len = starts[reqs.len()];
    let longest = cfg
        .header_timeout
        .max(cfg.read_timeout)
        .max(cfg.write_timeout);
    let mut at = Duration::ZERO;
    let mut segs = Vec::new();
    let mut cut_at = |end: usize, gap: Duration| {
        at += gap;
        segs.push((at, end));
    };
    match mode {
        0 => cut_at(len, Duration::ZERO),
        1 => {
            for &end in &starts[1..] {
                cut_at(end, rng.gen_range(1..100u32) * unit);
            }
        }
        2 => {
            let mut cuts: Vec<usize> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(1..=len))
                .collect();
            cuts.push(len);
            cuts.sort_unstable();
            for end in cuts {
                let gaps = [
                    rng.gen_range(1..100u32) * unit,
                    150 * MS,
                    cfg.header_timeout * 3 / 5,
                    longest * 3 / 2,
                ];
                cut_at(end, pick(rng, &gaps));
            }
        }
        _ => {
            let drip = pick(rng, &[MS, cfg.header_timeout / 8]);
            for end in 1..reqs[0].head.min(200) {
                cut_at(end, drip);
            }
            cut_at(len, drip);
        }
    }
    let cut = rng.gen_bool(0.2).then(|| rng.gen_range(1..len));
    if let Some(cut) = cut {
        segs.iter_mut().for_each(|s| s.1 = s.1.min(cut));
    }
    let take = match rng.gen_range(0..if tight { 16 } else { 8 }) {
        0 => Take::Partial(rng.gen_range(1..64)),
        1 => Take::FailAfter(rng.gen_range(0..400)),
        2 => Take::Stall,
        _ => Take::Whole,
    };
    Client {
        id,
        one_read: mode == 1 && matches!(take, Take::Whole),
        stream: reqs
            .iter()
            .flat_map(|r| r.bytes.iter().copied())
            .take(cut.unwrap_or(len))
            .collect(),
        reqs,
        starts,
        segs,
        eof: cut.is_some() || rng.gen_bool(0.5),
        delivered: 0,
        take,
        received: Vec::new(),
        k: 0,
        phase: Phase::Head,
        since: start,
        call: None,
        wake: None,
        drained: false,
        resp_at: 0,
        refused: None,
        keep: true,
        expect: None,
        io: (0, 0),
        unrouted_reads: 1,
        last_sent: None,
        plan: None,
        body: None,
        waiting: false,
        end: None,
        counts: [0; 3],
        reached: [false; N],
    }
}

struct Wire {
    conn: Conn,
    c: Client,
}

/// The modelled runtime, and the wires in front of it.
struct Sim<'a> {
    cfg: NetConfig,
    rt: runtime::Sim<'a>,
    tenants: Vec<SimTenant>,
    wires: Vec<Wire>,
    /// The wire of each submission, by id.
    ids: Vec<usize>,
    net_drain: Option<Instant>,
    server_drain: Option<Instant>,
    charge: Rc<Cell<Option<(usize, u64, bool)>>>,
    reached: [bool; N],
}

impl<'a> Sim<'a> {
    fn new(rng: &mut StdRng, sc: &'a Scenario, cfg: NetConfig, tight: bool) -> Self {
        let rt = runtime::Sim::new(sc);
        let charge = Rc::new(Cell::new(None));
        let tenants: Vec<SimTenant> = (0..3)
            .map(|t| SimTenant {
                t,
                gauges: Arc::clone(&rt.tenants[t].gauges),
                gov: Arc::clone(&rt.gov),
                quota: sc.quota,
                reservations: Rc::clone(&rt.reservations),
                charge: Rc::clone(&charge),
            })
            .collect();
        let start = rt.clock.now;
        let wires: Vec<Wire> = (0..rng.gen_range(if tight { 4 } else { 2 }..=8u64))
            .map(|id| Wire {
                conn: Conn::new(id, &cfg, Arc::clone(&tenants[0].gauges)),
                c: draw_client(rng, id, &cfg, tight, start),
            })
            .collect();
        // Often just as a segment lands, so that a request is in flight.
        let header = cfg.header_timeout.as_millis() as u32;
        let net_drain = match rng.gen_range(0..4) {
            0 => {
                let segs = &wires[rng.gen_range(0..wires.len())].c.segs;
                Some(segs[rng.gen_range(0..segs.len())].0)
            }
            1 => Some(rng.gen_range(0..2 * header) * MS),
            _ => None,
        };
        let server_drain = (tight && rng.gen_bool(0.3)).then(|| rng.gen_range(0..10u32) * MS);
        let mut sim = Self {
            cfg,
            rt,
            tenants,
            wires,
            ids: Vec::new(),
            net_drain: net_drain.map(|d| start + d),
            server_drain: server_drain.map(|d| start + d),
            charge,
            reached: [false; N],
        };
        if net_drain.is_some() {
            sim.wires.iter_mut().for_each(|w| w.c.one_read = false);
        }
        sim
    }

    /// Tells the runtime of the body charges the wires hold, before it
    /// checks its byte balance.
    fn sync(&mut self) {
        self.rt.held_elsewhere = [(0, 0); 3];
        for (t, bytes) in self.wires.iter().filter_map(|w| w.c.body) {
            let held = &mut self.rt.held_elsewhere[t];
            *held = (held.0 + 1, held.1 + bytes);
        }
    }

    /// Polls wire `i` until it waits on its client, the runtime or
    /// nothing; returns what it asks the runtime: tenant and budget.
    fn step_wire(&mut self, i: usize) -> Result<Option<(usize, Option<Duration>)>, String> {
        let (cfg, base) = (&self.cfg, self.rt.clock.base);
        loop {
            let now = self.rt.clock.now;
            let drain_now = self.net_drain.is_some_and(|d| now >= d);
            let Wire { conn, c } = &mut self.wires[i];
            if c.end.is_some() || c.waiting {
                return Ok(None);
            }
            // A socket call in progress was asked for under the drain as it
            // stood then.
            let draining = c.call.map_or(drain_now, |call| call.1);
            c.drained |= draining;
            c.wake = None;
            match conn.poll(now, draining) {
                Action::Read { into, until } => {
                    ensure!(
                        until <= c.deadline(cfg) && now < until,
                        "a read past the deadline"
                    );
                    let idle = c.phase == Phase::Head && c.buffered() == 0;
                    ensure!(!(idle && c.drained), "an idle connection read in a drain");
                    let want = match c.phase {
                        Phase::Head => MAX_HEAD_BYTES + 1 - c.buffered(),
                        _ => c.starts[c.k + 1] - c.delivered,
                    };
                    ensure!(
                        into.len() == want,
                        "a read of {} in {:?}",
                        into.len(),
                        c.phase
                    );
                    c.call.get_or_insert((now, draining));
                    let Some(io) = c.read(into, until, now, base) else {
                        return Ok(None);
                    };
                    c.call = None;
                    conn.on_read(io);
                }
                Action::Route {
                    head,
                    content_length,
                    wire_id,
                } => {
                    let seq = head.header("x-seq").and_then(|v| v.parse().ok());
                    c.route(seq, content_length, wire_id)?;
                    let tenants = &self.tenants;
                    let resolve = |name: Option<&str>| match name {
                        None => Some(tenants[0].clone()),
                        Some(n) => tenants.iter().find(|t| NAMES[t.t] == n).cloned(),
                    };
                    let gauges = &tenants[0].gauges;
                    let routed = handler::route(&head, content_length, false, gauges, resolve);
                    let charge = self.charge.take();
                    let answer = match routed {
                        Routed::Infer(infer) => {
                            c.body = charge.map(|(t, bytes, _)| (t, bytes));
                            c.plan = Some(infer);
                            conn.read_body();
                            c.enter(Phase::Body, now);
                            continue;
                        }
                        Routed::Page(_) => (Response::new(200).text("ok"), None),
                        Routed::Answer(answer) => (answer.response, answer.verdict),
                    };
                    let refused = charge.filter(|charge| charge.2).map(|charge| charge.0);
                    self.reached[22] |= refused.is_some_and(|t| t > 0);
                    let want = Expect::of(c.req()?.kind, refused, None)?;
                    c.respond(conn, answer, want, drain_now, now)?;
                }
                Action::Serve(body) => {
                    let r = c.req()?;
                    ensure!(c.phase == Phase::Body, "served in {:?}", c.phase);
                    ensure!(body == &r.bytes[r.head..], "request {}'s body differs", c.k);
                    let kind = r.kind;
                    let infer = c.plan.take().ok_or("a body with no plan")?;
                    let gauges = &self.tenants[0].gauges;
                    let submission = handler::decode(body, gauges)
                        .and_then(|input| infer.submission(input, gauges));
                    let answer = match submission {
                        Ok(sub) => {
                            let asked = (sub.tenant.t, sub.budget);
                            (c.plan, c.waiting) = (Some(infer), true);
                            // Answered when the runtime hands its verdict out.
                            return Ok(Some(asked));
                        }
                        Err(answer) => (answer.response, answer.verdict),
                    };
                    drop(infer);
                    c.body = None;
                    let want = Expect::of(kind, None, None)?;
                    c.respond(conn, answer, want, drain_now, now)?;
                }
                Action::Write { bytes, until } => {
                    if c.phase != Phase::Write {
                        let status = String::from_utf8_lossy(&bytes[9..12]).parse().unwrap_or(0);
                        c.refusal(status, now, cfg)?;
                    }
                    ensure!(
                        until <= c.deadline(cfg) && now < until,
                        "a write past the deadline"
                    );
                    c.call.get_or_insert((now, draining));
                    let Some(io) = c.write(bytes, until, now) else {
                        return Ok(None);
                    };
                    c.call = None;
                    conn.on_write(io);
                }
                Action::Sent {
                    status,
                    ok,
                    wire_id,
                } => c.sent((status, ok, wire_id), now, cfg, self.rt.sc.quota)?,
                Action::Close(end) => {
                    c.close(end, now, cfg, self.net_drain)?;
                    // (i): over is over.
                    let again = conn.poll(now, true);
                    ensure!(
                        matches!(again, Action::Close(e) if e == end),
                        "{again:?} after {end:?}"
                    );
                    return Ok(None);
                }
            }
        }
    }

    /// The runtime's verdict on submission `id`.
    fn answer(&mut self, id: usize, ended: Result<(), BitFlowError>) -> Check {
        let now = self.rt.clock.now;
        let drain_now = self.net_drain.is_some_and(|d| now >= d);
        let Wire { conn, c } = &mut self.wires[self.ids[id]];
        let infer = c.plan.take().ok_or("a verdict on no request")?;
        let want = Expect::of(c.req()?.kind, None, Some(&ended))?;
        (c.body, c.waiting) = (None, false);
        if let Some((reason, t)) = want.refusal {
            let quota = reason == RejectReason::QuotaExceeded;
            self.reached[19] |= want.status == 429 && t > 0 && !quota;
            self.reached[20] |= quota;
            self.reached[23] |= want.status == 507;
        }
        for (i, status) in [(17, 200), (18, 504), (21, 503), (24, 500)] {
            self.reached[i] |= want.status == status;
        }
        let answer = infer.answer(ended.map(|()| Vec::new()));
        c.respond(
            conn,
            (answer.response, answer.verdict),
            want,
            drain_now,
            now,
        )
    }

    /// The wire's counters against every byte moved and every refusal;
    /// the runtime's serve counters and leases.
    fn check(&self) -> Check {
        let g = &self.tenants[0].gauges;
        let counted = [
            g.net_bytes_in.get(),
            g.net_bytes_out.get(),
            g.net_timeouts_read.get(),
            g.net_timeouts_write.get(),
            g.net_malformed_requests.get(),
        ];
        let mut moved = [0; 5];
        for Wire { c, .. } in &self.wires {
            let add = [c.delivered as u64, c.received.len() as u64];
            for (m, n) in moved.iter_mut().zip(add.into_iter().chain(c.counts)) {
                *m += n;
            }
        }
        ensure!(
            counted == moved,
            "net counters {counted:?}: moved and refused {moved:?}"
        );
        self.rt.check()
    }

    /// Runs until every connection is over and the runtime idle.
    fn run(mut self) -> Result<[bool; N], String> {
        for _ in 0..100_000 {
            let now = self.rt.clock.now;
            self.rt.draining |= self.server_drain.is_some_and(|d| now >= d);
            // Until nothing more happens at `now`.
            loop {
                for (id, ended) in std::mem::take(&mut self.rt.verdicts) {
                    self.answer(id, ended)?;
                }
                for i in 0..self.wires.len() {
                    if let Some((tenant, budget)) = self.step_wire(i)? {
                        self.ids.push(i);
                        self.sync();
                        let arrival = Arrival {
                            at: Duration::ZERO,
                            budget,
                            cancelled: false,
                            tenant,
                        };
                        self.rt.submit(&arrival, self.ids.len() - 1)?;
                    }
                }
                if self.rt.verdicts.is_empty() {
                    break;
                }
            }
            self.sync();
            self.check()?;
            let wakes = self.wires.iter().map(|w| w.c.wake);
            let drains = [self.net_drain, self.server_drain].map(|d| d.filter(|&d| d > now));
            let next = wakes.chain([self.rt.next_event()]).chain(drains);
            let Some(next) = next.flatten().min() else {
                break;
            };
            self.rt.advance(next)?;
        }
        ensure!(
            self.wires.iter().all(|w| w.c.end.is_some()),
            "a connection never ended"
        );
        ensure!(
            self.rt.c.ends.iter().all(|&n| n == 1),
            "a submission never ended"
        );
        // Every lease back: each tenant its weights under one once the
        // workers' contexts go.
        self.rt.ctx.iter_mut().for_each(|c| *c = None);
        for (t, tenant) in self.tenants.iter().enumerate() {
            let g = tenant.gauges.govern.snapshot();
            ensure!(
                (g.mem_leases, g.mem_used_bytes) == (1, WEIGHTS[t]),
                "tenant {t}: {g:?} left"
            );
        }
        for Wire { c, .. } in &self.wires {
            for (seen, hit) in self.reached.iter_mut().zip(c.reached) {
                *seen |= hit;
            }
        }
        self.reached[28] = self.rt.c.refused_context;
        Ok(self.reached)
    }
}

/// One seed of a profile: the wire's deadlines and body bound, and the
/// runtime's scenario for the seed (its arrivals unused) — roomy and calm
/// for the wire profile; for the verdicts, with pools, queues and quotas
/// small enough for a handful of clients to fill.
fn run(seed: u64, tight: bool) -> Result<[bool; N], String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = NetConfig {
        header_timeout: pick(&mut rng, &[300, 1000]) * MS,
        read_timeout: pick(&mut rng, &[300, 1000]) * MS,
        write_timeout: pick(&mut rng, &[300, 1000]) * MS,
        max_body_bytes: pick(&mut rng, &[3000, 50_000, usize::MAX]),
        ..NetConfig::default()
    };
    let mut sc = scenario(seed);
    if tight {
        sc.config.workers = rng.gen_range(1..=2);
        sc.config.queue_capacity = pick(&mut rng, &[1, 2]);
        sc.quota = pick(&mut rng, &[None, Some(1), Some(2)]);
        // In a third of the seeds, 1 700 bytes a tenant: its weights and
        // one request's body and payload leave no room for a 400-byte
        // context, and a second request none for a 300-byte one, so
        // admitted requests find their worker without a context.
        let drawn = sc.config.govern.tenant_budget;
        sc.config.govern.tenant_budget = pick(&mut rng, &[drawn, drawn, Some(1_700)]);
    } else {
        sc.config.queue_capacity = 64;
        (sc.quota, sc.chaos) = (None, ChaosConfig::default());
        sc.config.govern = GovernorConfig::default();
    }
    Sim::new(&mut rng, &sc, cfg, tight).run()
}

/// Runs a profile's seeds, checking the outcomes `part` names.
fn run_profile<const K: usize>(seeds: Range<u64>, tight: bool, part: [usize; K]) {
    let names: Vec<&str> = OUTCOMES.split('|').collect();
    let outcomes = part.map(|i| names[i]);
    run_seeds(seeds, outcomes, |seed| {
        run(seed, tight).map(|reached| part.map(|i| reached[i]))
    });
}

#[test]
fn simulated_schedules_keep_the_connection_invariants() {
    run_profile(0..256, false, WIRE);
}

#[test]
#[ignore = "the 10 000-seed sweep; scripts/check.sh --net runs it"]
fn simulated_sweep_keeps_the_connection_invariants() {
    run_profile(256..10_256, false, WIRE);
}

#[test]
fn simulated_requests_get_the_verdicts_their_statuses_say() {
    run_profile(0..256, true, VERDICTS);
}

#[test]
#[ignore = "the 10 000-seed sweep; scripts/check.sh --net runs it"]
fn simulated_sweep_gets_the_verdicts_their_statuses_say() {
    run_profile(256..10_256, true, VERDICTS);
}
