//! A seeded, single-threaded simulation of `bitflow_net::conn::Conn` on a
//! virtual clock (one base `Instant` plus offsets), in front of a scripted
//! handler, so a schedule replays exactly from its seed. Each seed draws
//! the three deadlines and the body bound, then six connections, each with
//! its own requests — inferences with bodies from empty to past the
//! buffer, health checks, `connection: close`, client request ids good and
//! hostile, a head of exactly `MAX_HEAD_BYTES` and one a byte over, a body
//! over the bound, a signed or repeated `content-length`, a transfer
//! coding, bytes that are not HTTP, a health check carrying a request as
//! its body — and its own client: all bytes in one segment, a segment a
//! request, random cuts with gaps past the deadlines, or the first head
//! dripped; then idle, EOF, or EOF mid-request; whole, partial, failing or
//! stalled writes; and a drain at a random instant. After every step:
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
//! (v) `net_bytes_in`/`net_bytes_out` equal the bytes moved, and the
//! timeout and malformed counters the refusals;
//! (vi) requests reach the handler in order, byte for byte;
//! (vii) a request that arrives in one segment and is answered by whole
//! writes costs one read and one write.
//! `cargo test` runs 256 seeds; the `#[ignore]`d sweep 10 000.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bitflow_net::conn::{Action, Conn, End, Io};
use bitflow_net::http::{Response, MAX_HEAD_BYTES};
use bitflow_net::NetConfig;
use bitflow_telemetry::ServeGauges;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

const MS: Duration = Duration::from_millis(1);
/// The listener's poll slice: the longest one socket call blocks.
const SLICE: Duration = Duration::from_millis(100);

type Check = Result<(), String>;

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// One request on the wire and what the connection must make of it.
struct Req {
    bytes: Vec<u8>,
    /// Its head, through the blank line.
    head: usize,
    declared: usize,
    /// What it earns once its head is whole: 200, or a refusal.
    status: u16,
    /// The head asks for keep-alive and leaves no body unread.
    keep_alive: bool,
    /// The client's request id, when it sent a valid one.
    id: Option<String>,
}

fn req(k: usize, line: &str, extra: &str, body: &[u8], status: u16) -> Req {
    let mut bytes = format!("{line} HTTP/1.1\r\nx-seq: {k}\r\n{extra}\r\n").into_bytes();
    let head = bytes.len();
    bytes.extend_from_slice(body);
    Req {
        declared: body.len(),
        bytes,
        head,
        status,
        keep_alive: true,
        id: None,
    }
}

/// A health check whose head is exactly `len` bytes.
fn padded(k: usize, len: usize, status: u16) -> Req {
    let pad = "a".repeat(len - req(k, "GET /healthz", "x-pad: \r\n", b"", 0).head);
    req(k, "GET /healthz", &format!("x-pad: {pad}\r\n"), b"", status)
}

/// An inference of `body`; `extra` header lines.
fn infer(k: usize, body: &[u8], extra: &str) -> Req {
    let extra = format!("content-length: {}\r\n{extra}", body.len());
    req(k, "POST /v1/infer", &extra, body, 200)
}

/// Request `k`: the first six shapes are healthy, and of those the first
/// five inferences, with bodies up to 4000 bytes, or 20 000 unless
/// `healthy`.
fn draw_req(rng: &mut StdRng, k: usize, max_body: usize, healthy: bool) -> Req {
    let post = "POST /v1/infer";
    match rng.gen_range(0..if healthy { 6 } else { 16 }) {
        0..=4 => {
            let n = pick(rng, &[0, 5, 300, 4000, if healthy { 4000 } else { 20_000 }]);
            let mut body = vec![0; n.min(max_body)];
            rng.fill_bytes(&mut body);
            let close = rng.gen_bool(0.15);
            let mut extra = String::from(if close { "connection: close\r\n" } else { "" });
            // Valid; a bad charset; one byte too long.
            let ids = [format!("id-{k}.A_b"), "bad id&<x>".into(), "x".repeat(65)];
            let id = rng
                .gen_bool(0.3)
                .then(|| ids[rng.gen_range(0..3usize)].clone());
            if let Some(id) = &id {
                extra.push_str(&format!("x-bitflow-request-id: {id}\r\n"));
            }
            Req {
                keep_alive: !close,
                id: id.filter(|id| id.len() <= 64 && !id.contains(' ')),
                ..infer(k, &body, &extra)
            }
        }
        6 => padded(k, MAX_HEAD_BYTES, 200),
        // A body the handler never asks for must not be read as the next
        // request: the connection closes.
        7 => Req {
            keep_alive: false,
            ..req(
                k,
                "GET /healthz",
                "content-length: 23\r\n",
                b"GET /metrics HTTP/1.1\r\n",
                200,
            )
        },
        8 => req(k, post, "content-length: +5\r\n", b"abcde", 400),
        9 => req(
            k,
            post,
            "content-length: 5\r\ncontent-length: 99999\r\n",
            b"abcde",
            400,
        ),
        10 => req(k, post, "transfer-encoding: chunked\r\n", b"", 501),
        11 => req(k, "\x16\x03\x01 hello", "", b"", 400),
        12 if max_body == usize::MAX => Req {
            declared: usize::MAX - 64,
            ..req(
                k,
                post,
                &format!("content-length: {}\r\n", usize::MAX - 64),
                b"",
                507,
            )
        },
        12 => req(
            k,
            post,
            &format!("content-length: {}\r\n", max_body + 1),
            b"",
            413,
        ),
        13 => padded(k, MAX_HEAD_BYTES + 1, 431),
        _ => req(k, "GET /healthz", "", b"", 200),
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

struct Client {
    stream: Vec<u8>,
    /// At each offset from the base, the stream is sent up to an end.
    segs: Vec<(Duration, usize)>,
    /// EOF after the last byte; else idle for ever.
    eof: bool,
    delivered: usize,
    take: Take,
    received: Vec<u8>,
}

impl Client {
    fn sent_by(&self, t: Duration) -> usize {
        self.segs
            .iter()
            .take_while(|s| s.0 <= t)
            .last()
            .map_or(0, |s| s.1)
    }

    fn at_eof(&self) -> bool {
        self.eof && self.delivered == self.stream.len()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Head,
    Body,
    Write,
}

/// Outcomes, each to be reached by at least one seed in twenty: two
/// requests from one read, 408 in a head and in a body, an idle close at
/// the deadline, the framing refusals, a close for an unread body, EOF
/// mid-head and mid-body, a failed write, a write timeout, an idle close
/// and a `connection: close` on drain, one read and one write, and a 507.
const OUTCOMES: &str = "pipelined 408-head 408-body idle-deadline 431 413 400 501 \
    unread-body eof-head eof-body write-failed write-timeout drain-idle drain-close one-read 507";
const N: usize = 17;

/// Everything the simulator knows besides the core under test.
struct World<'a> {
    cfg: &'a NetConfig,
    reqs: &'a [Req],
    /// Where each request starts in the stream, and where the last ends.
    starts: Vec<usize>,
    gauges: Arc<ServeGauges>,
    client: Client,
    base: Instant,
    now: Instant,
    drain_at: Option<Instant>,
    drained: bool,
    /// The request in hand, its phase and when that began.
    k: usize,
    phase: Phase,
    since: Instant,
    /// The response in flight: where it starts in `received`, the phase
    /// the core refused in (if it refused), the keep-alive it must say.
    resp_at: usize,
    refused: Option<Phase>,
    keep: bool,
    /// Reads and writes of the request in hand; reads since a route.
    io: (u32, u32),
    unrouted_reads: u32,
    one_read: bool,
    /// The last response: written whole, and kept the connection open.
    last_sent: Option<(bool, bool)>,
    /// Read and write timeouts, and malformed refusals.
    counts: [u64; 3],
    reached: [bool; N],
}

impl<'a> World<'a> {
    fn req(&self) -> &'a Req {
        &self.reqs[self.k]
    }

    /// Bytes of the request in hand (and any behind it) in the core.
    fn buffered(&self) -> usize {
        self.client.delivered.saturating_sub(self.starts[self.k])
    }

    fn deadline(&self) -> Instant {
        let c = self.cfg;
        self.since + [c.header_timeout, c.read_timeout, c.write_timeout][self.phase as usize]
    }

    fn enter(&mut self, phase: Phase) {
        self.phase = phase;
        self.since = self.now;
    }

    /// The client's side of a read: what is sent by now, else a wait for
    /// data, the deadline or the end of the slice.
    fn read(&mut self, into: &mut [u8], until: Instant) -> Io {
        self.io.0 += 1;
        self.unrouted_reads += 1;
        let c = &mut self.client;
        let mut sent = c.sent_by(self.now - self.base);
        if sent == c.delivered && !c.at_eof() {
            let next = c.segs.iter().find(|s| s.1 > c.delivered);
            let wake = next.map_or(until, |s| until.min(self.base + s.0));
            self.now = wake.min(self.now + SLICE).max(self.now);
            sent = c.sent_by(self.now - self.base);
        }
        let n = into.len().min(sent - c.delivered);
        into[..n].copy_from_slice(&c.stream[c.delivered..c.delivered + n]);
        c.delivered += n;
        match n {
            0 if c.at_eof() => Io::Bytes(0),
            0 => Io::Stalled,
            n => Io::Bytes(n),
        }
    }

    /// The client's side of a write.
    fn write(&mut self, bytes: &[u8], until: Instant) -> Io {
        self.io.1 += 1;
        let c = &mut self.client;
        let n = match c.take {
            Take::Whole => bytes.len(),
            Take::Partial(m) => m.min(bytes.len()),
            Take::FailAfter(f) => f.saturating_sub(c.received.len()).min(bytes.len()),
            Take::Stall => {
                self.now = until.min(self.now + SLICE);
                return Io::Stalled;
            }
        };
        c.received.extend_from_slice(&bytes[..n]);
        if n == 0 {
            Io::Failed
        } else {
            Io::Bytes(n)
        }
    }

    /// The wire id of the request in hand: the client's when its head was
    /// parsed, else generated.
    fn wire_id(&self, parsed: bool) -> String {
        match &self.req().id {
            Some(id) if parsed => id.clone(),
            _ => format!("c7-r{}", self.k),
        }
    }

    fn route(&mut self, seq: Option<usize>, length: Option<usize>, wire_id: &str) -> Check {
        ensure!(self.k < self.reqs.len(), "a request no client sent");
        let r = self.req();
        ensure!(
            self.phase == Phase::Head && self.buffered() >= r.head && matches!(r.status, 200 | 507),
            "routed request {} in {:?} with {} of its {}-byte head",
            self.k,
            self.phase,
            self.buffered(),
            r.head
        );
        ensure!(seq == Some(self.k), "routed {seq:?} as request {}", self.k);
        ensure!(wire_id == self.wire_id(true), "routed as {wire_id}");
        ensure!(length.unwrap_or(0) == r.declared, "declared {length:?}");
        self.reached[0] |= self.unrouted_reads == 0;
        self.unrouted_reads = 0;
        Ok(())
    }

    /// A response the core began on its own: a refusal.
    fn refusal(&mut self, status: u16) -> Check {
        ensure!(
            self.k < self.reqs.len(),
            "refused {status} with no request in hand"
        );
        let (r, buffered) = (self.req(), self.buffered());
        let on_time = self.now == self.deadline();
        let ok = match (self.phase, status) {
            (Phase::Head, 408) => on_time && buffered > 0 && buffered < r.head,
            (Phase::Body, 408) => on_time && self.client.delivered < self.starts[self.k + 1],
            (Phase::Head, _) => buffered >= r.head.min(MAX_HEAD_BYTES + 1) && status == r.status,
            (Phase::Body, 507) => r.status == 507,
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
        self.resp_at = self.client.received.len();
        self.enter(Phase::Write);
        Ok(())
    }

    /// The handler answers: the connection must stay open only if the head
    /// asked, leaving no body unread, and no drain was seen.
    fn respond(&mut self) {
        let r = self.req();
        self.keep = r.keep_alive && !self.drained;
        self.reached[8] |= self.phase == Phase::Head && r.declared > 0;
        self.reached[14] |= self.drained && r.keep_alive;
        self.refused = None;
        self.resp_at = self.client.received.len();
        self.enter(Phase::Write);
    }

    fn sent(&mut self, status: u16, ok: bool, wire_id: &str) -> Check {
        ensure!(self.phase == Phase::Write, "sent in {:?}", self.phase);
        let want = self.refused.map_or(self.req().status, |_| status);
        ensure!(
            status == want,
            "request {} sent {status}, not {want}",
            self.k
        );
        let id = self.wire_id(!(self.refused == Some(Phase::Head) && status == 408));
        ensure!(wire_id == id, "wire id {wire_id}, not {id}");
        if ok {
            let text = String::from_utf8_lossy(&self.client.received[self.resp_at..]);
            let conn = if self.keep { "keep-alive" } else { "close" };
            let bound = format!("x-bitflow-max-body: {}\r\n", self.cfg.max_body_bytes);
            ensure!(
                text.starts_with(&format!("HTTP/1.1 {status} "))
                    && !text.lines().next().unwrap_or("").ends_with("Unknown")
                    && text.contains(&format!("\r\nx-bitflow-request-id: {id}\r\n"))
                    && text.contains(&format!("\r\nconnection: {conn}\r\n\r\n"))
                    && (status != 413 || text.contains(&bound)),
                "request {}: {text:?}, not connection: {conn}",
                self.k
            );
            if self.one_read && self.refused.is_none() {
                self.reached[15] = true;
                ensure!(
                    self.io == (1, 1),
                    "request {}: {:?} reads, writes",
                    self.k,
                    self.io
                );
            }
        } else {
            let c = &self.client;
            let failed = matches!(c.take, Take::FailAfter(f) if c.received.len() == f);
            ensure!(
                failed || self.now == self.deadline(),
                "a write failed unprovoked"
            );
            self.counts[1] += u64::from(!failed);
            self.reached[if failed { 11 } else { 12 }] = true;
        }
        self.last_sent = Some((ok, self.keep));
        if ok && self.keep {
            self.k += 1;
            self.io = (0, 0);
            self.enter(Phase::Head);
        }
        Ok(())
    }

    fn close(&mut self, end: End) -> Check {
        let at_eof = self.client.at_eof();
        let ok = match end {
            End::Idle => {
                let by_deadline = self.now == self.deadline();
                let drain = self
                    .drain_at
                    .filter(|&d| d <= self.now && self.now <= d + SLICE);
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
        Ok(())
    }
}

struct Sim<'a> {
    conn: Conn,
    w: World<'a>,
}

impl Sim<'_> {
    /// One poll, checked, and the client's or the handler's part in what
    /// it asks for; `Some(end)` once closed.
    fn step(&mut self) -> Result<Option<End>, String> {
        let w = &mut self.w;
        let now = w.now;
        let draining = w.drain_at.is_some_and(|d| now >= d);
        w.drained |= draining;
        match self.conn.poll(now, draining) {
            Action::Read { into, until } => {
                ensure!(
                    until <= w.deadline() && now < until,
                    "a read past the deadline"
                );
                let idle = w.phase == Phase::Head && w.buffered() == 0;
                ensure!(!(idle && w.drained), "an idle connection read in a drain");
                let want = match w.phase {
                    Phase::Head => MAX_HEAD_BYTES + 1 - w.buffered(),
                    _ => w.starts[w.k + 1] - w.client.delivered,
                };
                ensure!(
                    into.len() == want,
                    "a read of {} in {:?}",
                    into.len(),
                    w.phase
                );
                let io = w.read(into, until);
                self.conn.on_read(io);
            }
            Action::Route {
                head,
                content_length,
                wire_id,
            } => {
                let seq = head.header("x-seq").and_then(|v| v.parse().ok());
                w.route(seq, content_length, wire_id)?;
                if head.method == "POST" {
                    self.conn.read_body();
                    w.enter(Phase::Body);
                } else {
                    w.respond();
                    self.conn.respond(&Response::new(200).text("ok"), false);
                }
            }
            Action::Serve(body) => {
                let r = w.req();
                ensure!(w.phase == Phase::Body, "served in {:?}", w.phase);
                ensure!(body == &r.bytes[r.head..], "request {}'s body differs", w.k);
                w.respond();
                let k = w.k.to_string().into_bytes();
                self.conn.respond(&Response::new(200).body(k), false);
            }
            Action::Write { bytes, until } => {
                if w.phase != Phase::Write {
                    let status = String::from_utf8_lossy(&bytes[9..12]).parse().unwrap_or(0);
                    w.refusal(status)?;
                }
                ensure!(
                    until <= w.deadline() && now < until,
                    "a write past the deadline"
                );
                let io = w.write(bytes, until);
                self.conn.on_write(io);
            }
            Action::Sent {
                status,
                ok,
                wire_id,
            } => w.sent(status, ok, wire_id)?,
            Action::Close(end) => {
                w.close(end)?;
                return Ok(Some(end));
            }
        }
        // (v): every byte moved, and only those, counted.
        let counted = (w.gauges.net_bytes_in.get(), w.gauges.net_bytes_out.get());
        let moved = (w.client.delivered as u64, w.client.received.len() as u64);
        ensure!(
            counted == moved,
            "counted {counted:?} bytes, moved {moved:?}"
        );
        Ok(None)
    }
}

/// Drives one connection to its end and checks it; returns what the
/// client received.
fn run_conn(
    cfg: &NetConfig,
    reqs: &[Req],
    client: Client,
    drain_at: Option<Duration>,
    one_read: bool,
    reached: &mut [bool; N],
) -> Result<Vec<u8>, String> {
    let gauges = Arc::new(ServeGauges::default());
    let base = Instant::now();
    let starts = std::iter::once(0)
        .chain(reqs.iter().scan(0, |end, r| {
            *end += r.bytes.len();
            Some(*end)
        }))
        .collect();
    let w = World {
        cfg,
        reqs,
        starts,
        gauges: Arc::clone(&gauges),
        client,
        base,
        now: base,
        drain_at: drain_at.map(|d| base + d),
        drained: false,
        k: 0,
        phase: Phase::Head,
        since: base,
        resp_at: 0,
        refused: None,
        keep: true,
        io: (0, 0),
        unrouted_reads: 1,
        one_read,
        last_sent: None,
        counts: [0; 3],
        reached: [false; N],
    };
    let mut sim = Sim {
        conn: Conn::new(7, cfg, gauges),
        w,
    };
    let mut steps = 0;
    let end = loop {
        if let Some(end) = sim.step()? {
            break end;
        }
        steps += 1;
        ensure!(steps < 50_000, "no end after {steps} steps");
    };
    // (i): over is over.
    let again = sim.conn.poll(sim.w.now, true);
    ensure!(
        matches!(again, Action::Close(e) if e == end),
        "{again:?} after {end:?}"
    );
    let (w, g) = (&sim.w, &sim.w.gauges);
    let counted = [
        g.net_timeouts_read.get(),
        g.net_timeouts_write.get(),
        g.net_malformed_requests.get(),
    ];
    ensure!(
        counted == w.counts,
        "counted {counted:?}, refused {:?}",
        w.counts
    );
    for (seen, hit) in reached.iter_mut().zip(w.reached) {
        *seen |= hit;
    }
    Ok(sim.w.client.received)
}

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// One seed: deadlines and a body bound, then six connections.
fn run(seed: u64) -> Result<[bool; N], String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = NetConfig {
        header_timeout: pick(&mut rng, &[300, 1000]) * MS,
        read_timeout: pick(&mut rng, &[300, 1000]) * MS,
        write_timeout: pick(&mut rng, &[300, 1000]) * MS,
        // Past every buffer, a declared length is a 507.
        max_body_bytes: pick(&mut rng, &[3000, 50_000, usize::MAX]),
        ..NetConfig::default()
    };
    let longest = cfg
        .header_timeout
        .max(cfg.read_timeout)
        .max(cfg.write_timeout);
    let mut reached = [false; N];
    for c in 0..6 {
        // 0: one segment; 1: a segment a request; 2: random cuts; 3: the
        // first head dripped.
        let mode = rng.gen_range(0..4);
        let reqs: Vec<Req> = (0..rng.gen_range(1..=4))
            .map(|k| draw_req(&mut rng, k, cfg.max_body_bytes, mode == 1))
            .collect();
        let stream: Vec<u8> = reqs.iter().flat_map(|r| r.bytes.iter().copied()).collect();
        let len = stream.len();
        let mut at = Duration::ZERO;
        let mut segs = Vec::new();
        let mut cut_at = |end: usize, gap: Duration| {
            at += gap;
            segs.push((at, end));
        };
        match mode {
            0 => cut_at(len, Duration::ZERO),
            1 => {
                let mut end = 0;
                for r in &reqs {
                    end += r.bytes.len();
                    cut_at(end, rng.gen_range(1..100u32) * MS);
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
                        rng.gen_range(1..100u32) * MS,
                        150 * MS,
                        cfg.header_timeout * 3 / 5,
                        longest * 3 / 2,
                    ];
                    cut_at(end, gaps[rng.gen_range(0..4usize)]);
                }
            }
            _ => {
                let drip = pick(&mut rng, &[MS, cfg.header_timeout / 8]);
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
        let take = match rng.gen_range(0..8) {
            0 => Take::Partial(rng.gen_range(1..64)),
            1 => Take::FailAfter(rng.gen_range(0..400)),
            2 => Take::Stall,
            _ => Take::Whole,
        };
        // Often just as a segment lands, so that a request is in flight.
        let drain_at = match rng.gen_range(0..8) {
            0 => Some(segs[rng.gen_range(0..segs.len())].0),
            1 => Some(rng.gen_range(0..2 * cfg.header_timeout.as_millis() as u32) * MS),
            _ => None,
        };
        let one_read = mode == 1 && matches!(take, Take::Whole) && drain_at.is_none();
        let client = Client {
            stream: stream[..cut.unwrap_or(len)].to_vec(),
            segs,
            eof: cut.is_some() || rng.gen_bool(0.5),
            delivered: 0,
            take,
            received: Vec::new(),
        };
        run_conn(&cfg, &reqs, client, drain_at, one_read, &mut reached)
            .map_err(|e| format!("connection {c} (mode {mode}, {take:?}): {e}"))?;
    }
    Ok(reached)
}

/// Runs every seed, and checks that at least one in twenty reached each
/// outcome.
fn run_seeds(seeds: std::ops::Range<u64>) {
    let n = seeds.end - seeds.start;
    let mut seen = [0u64; N];
    for seed in seeds {
        let reached = run(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (count, hit) in seen.iter_mut().zip(reached) {
            *count += u64::from(hit);
        }
    }
    for (name, count) in OUTCOMES.split_whitespace().zip(seen) {
        assert!(count * 20 >= n, "{name}: {count} of {n} seeds");
    }
}

#[test]
fn simulated_schedules_keep_the_connection_invariants() {
    run_seeds(0..256);
}

#[test]
#[ignore = "the 10 000-seed sweep; scripts/check.sh --net runs it"]
fn simulated_sweep_keeps_the_connection_invariants() {
    run_seeds(256..10_256);
}
