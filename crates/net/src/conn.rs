//! One connection's side of the wire as a plain value: the input buffer,
//! the head scan, framing, the three per-phase deadlines, keep-alive and
//! drain, pipelining, request numbering and the `net_*` byte, timeout and
//! malformed counters. [`Conn`] owns no socket, reads no clock and takes
//! no lock: `now` is an argument of [`Conn::poll`], and what a syscall
//! moved comes back through [`Conn::on_read`] and [`Conn::on_write`].
//! [`crate::server`]'s connection thread is a syscall loop around it;
//! `tests/sim.rs` drives it through hostile byte schedules on a virtual
//! clock.
//!
//! ```text
//!   Head ─▶ Route ─▶ Body ─▶ Serve ─▶ Write ─▶ Sent ─▶ Head (keep-alive)
//!    │        └──── respond ─────────────▲       └───▶ Close
//!    └─ 400 408 413 431 501, Body ─ 408 507 ─▶ Write, then Close
//! ```
//!
//! Each phase that waits on the peer has a budget, armed by its first
//! poll: a whole head gets `header_timeout` however it drips (an idle
//! keep-alive connection closes silently at it), a body `read_timeout`, a
//! response `write_timeout`. A drain closes an idle connection at its next
//! poll and answers a request in flight with `connection: close`.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitflow_telemetry::ServeGauges;

use crate::config::NetConfig;
use crate::http::{self, Head, ParseError, Response};

/// What one read or write syscall came back with: bytes moved (a read of
/// `0` is the peer's EOF, a write of `0` a failure), nothing before the
/// socket's timeout (poll again), or a failed socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Io {
    Bytes(usize),
    Stalled,
    Failed,
}

impl Io {
    /// What a socket call's result means to the core.
    #[must_use]
    pub fn of(result: io::Result<usize>) -> Self {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        match result {
            Ok(n) => Io::Bytes(n),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Io::Stalled,
            Err(_) => Io::Failed,
        }
    }
}

/// How a connection ended: `Idle` with nothing in flight (the keep-alive
/// deadline passed with no byte of a next request, a drain began, or the
/// peer closed between requests); `Abandoned` by the peer with a request
/// partly read; `Answered` by a whole response that said
/// `connection: close`; or `WriteFailed` because the peer failed or the
/// response's `write_timeout` passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    Idle,
    Abandoned,
    Answered,
    WriteFailed,
}

/// What the connection needs next.
#[derive(Debug)]
pub enum Action<'a> {
    /// Read into `into` (never empty), waiting no later than `until`;
    /// report with [`Conn::on_read`].
    Read { into: &'a mut [u8], until: Instant },
    /// A complete, framed head (its body, if any, not yet read): answer it
    /// with [`Conn::respond`] or ask for its body with [`Conn::read_body`].
    Route {
        head: Head<'a>,
        /// The declared body length; `None` when the head declared none.
        content_length: Option<usize>,
        wire_id: &'a str,
    },
    /// The routed request's whole body: answer it with [`Conn::respond`].
    Serve(&'a [u8]),
    /// Write `bytes` (never empty), waiting no later than `until`; report
    /// with [`Conn::on_write`].
    Write { bytes: &'a [u8], until: Instant },
    /// A response is done with: `ok` when its last byte was written.
    Sent {
        status: u16,
        ok: bool,
        wire_id: &'a str,
    },
    /// Close the socket: the connection is over.
    Close(End),
}

/// Where the connection is. The waiting phases carry their deadline, armed
/// by their first poll; in `Route` and `Serve` the handler holds the head
/// or the request; `Sent(ok)` is a response done with, which the next poll
/// reports.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Head(Option<Instant>),
    Route,
    Body(Option<Instant>),
    Serve,
    Write(Option<Instant>),
    Sent(bool),
    Closed(End),
}

/// The response side: the request's wire id, the rendered response and
/// how much of it is out.
#[derive(Default)]
struct Reply {
    wire_id: String,
    out: Vec<u8>,
    written: usize,
    status: u16,
    keep_alive: bool,
    timeout: Duration,
}

impl Reply {
    fn start(&mut self, resp: &Response, keep_alive: bool) {
        resp.render(&mut self.out, keep_alive, Some(&self.wire_id));
        self.written = 0;
        self.status = resp.status();
        self.keep_alive = keep_alive;
    }

    /// Answers a request the connection cannot go on from, with
    /// `connection: close`, writing from `now` on.
    fn refuse<'a>(&'a mut self, phase: &mut Phase, now: Instant, resp: &Response) -> Action<'a> {
        self.start(resp, false);
        let until = now + self.timeout;
        *phase = Phase::Write(Some(until));
        Action::Write {
            bytes: &self.out,
            until,
        }
    }
}

/// A refusal whose body is its reason phrase.
fn plain(status: u16) -> Response {
    Response::new(status).text(http::reason(status))
}

/// One connection's protocol state, kept across its keep-alive requests.
pub struct Conn {
    id: u64,
    gauges: Arc<ServeGauges>,
    header_timeout: Duration,
    read_timeout: Duration,
    max_body_bytes: usize,
    /// Input: `buf[..filled]` is the current request from byte 0, then
    /// whatever the client pipelined behind it; the rest is room to read
    /// into, zeroed when the buffer grows and never again.
    buf: Vec<u8>,
    filled: usize,
    scanned: usize,
    /// The current request: one past its head, and one past its body.
    head_end: usize,
    total: usize,
    /// Whether the head asked to keep the connection open.
    keep_alive: bool,
    /// Latched by the first poll that sees a drain.
    draining: bool,
    req_no: u64,
    reply: Reply,
    phase: Phase,
}

impl Conn {
    /// Connection `id` under `config`'s deadlines and body bound, counting
    /// into `gauges`. The buffer holds the largest head and one byte more:
    /// a request that fits in it, head *and* body, is one read.
    #[must_use]
    pub fn new(id: u64, config: &NetConfig, gauges: Arc<ServeGauges>) -> Self {
        Self {
            id,
            gauges,
            header_timeout: config.header_timeout,
            read_timeout: config.read_timeout,
            max_body_bytes: config.max_body_bytes,
            buf: vec![0; http::MAX_HEAD_BYTES + 1],
            filled: 0,
            scanned: 0,
            head_end: 0,
            total: 0,
            keep_alive: false,
            draining: false,
            req_no: 0,
            reply: Reply {
                timeout: config.write_timeout,
                ..Reply::default()
            },
            phase: Phase::Head(None),
        }
    }

    /// The next thing to do at `now`; `draining` once the listener is
    /// shutting down. While the handler holds a head or a request, polling
    /// hands it over again.
    pub fn poll(&mut self, now: Instant, draining: bool) -> Action<'_> {
        self.draining |= draining;
        match self.phase {
            Phase::Head(deadline) => {
                let deadline = deadline.unwrap_or(now + self.header_timeout);
                self.phase = Phase::Head(Some(deadline));
                match http::find_head_end(&self.buf[..self.filled], &mut self.scanned) {
                    Some(end) if end <= http::MAX_HEAD_BYTES => return self.head(now, end),
                    None if self.filled <= http::MAX_HEAD_BYTES => {}
                    _ => {
                        self.gauges.net_malformed_requests.inc();
                        return self.refuse_head(now, 431);
                    }
                }
                if self.filled == 0 && (self.draining || now >= deadline) {
                    self.phase = Phase::Closed(End::Idle);
                    return Action::Close(End::Idle);
                }
                if now >= deadline {
                    self.gauges.net_timeouts_read.inc();
                    return self.refuse_head(now, 408);
                }
                // Until the head says how long the request is, read no
                // further than the byte that would prove the head oversized.
                Action::Read {
                    into: &mut self.buf[self.filled..=http::MAX_HEAD_BYTES],
                    until: deadline,
                }
            }
            Phase::Route => self.head(now, self.head_end),
            Phase::Body(deadline) => {
                if self.filled >= self.total {
                    self.phase = Phase::Serve;
                    return Action::Serve(&self.buf[self.head_end..self.total]);
                }
                let deadline = deadline.unwrap_or(now + self.read_timeout);
                self.phase = Phase::Body(Some(deadline));
                if now >= deadline {
                    self.gauges.net_timeouts_read.inc();
                    return self.reply.refuse(&mut self.phase, now, &plain(408));
                }
                // Exactly what is missing: never a byte past the body.
                Action::Read {
                    into: &mut self.buf[self.filled..self.total],
                    until: deadline,
                }
            }
            Phase::Serve => Action::Serve(&self.buf[self.head_end..self.total]),
            Phase::Write(deadline) => {
                let deadline = deadline.unwrap_or(now + self.reply.timeout);
                self.phase = Phase::Write(Some(deadline));
                if now >= deadline {
                    self.gauges.net_timeouts_write.inc();
                    self.phase = Phase::Sent(false);
                    return self.poll(now, false);
                }
                Action::Write {
                    bytes: &self.reply.out[self.reply.written..],
                    until: deadline,
                }
            }
            Phase::Sent(ok) => {
                self.phase = match (ok, self.reply.keep_alive) {
                    (true, true) => Phase::Head(None),
                    (true, false) => Phase::Closed(End::Answered),
                    (false, _) => Phase::Closed(End::WriteFailed),
                };
                self.req_no += 1;
                Action::Sent {
                    status: self.reply.status,
                    ok,
                    wire_id: &self.reply.wire_id,
                }
            }
            Phase::Closed(end) => Action::Close(end),
        }
    }

    /// A refusal before a head parsed: the wire id is generated.
    fn refuse_head(&mut self, now: Instant, status: u16) -> Action<'_> {
        set_wire_id(&mut self.reply.wire_id, None, self.id, self.req_no);
        self.reply.refuse(&mut self.phase, now, &plain(status))
    }

    /// Parses and frames the head in `buf[..end]`: one that does not parse,
    /// a transfer coding, a length given twice or not in digits, or a body
    /// past the bound is refused as malformed; the rest goes to the handler.
    fn head(&mut self, now: Instant, end: usize) -> Action<'_> {
        self.head_end = end;
        self.phase = Phase::Route;
        let malformed = match http::parse_head(&self.buf[..end]) {
            Err(e) => {
                set_wire_id(&mut self.reply.wire_id, None, self.id, self.req_no);
                Response::new(400).text(&e.to_string())
            }
            Ok(head) => {
                set_wire_id(&mut self.reply.wire_id, Some(&head), self.id, self.req_no);
                match head.content_length() {
                    Ok(n) if n.unwrap_or(0) <= self.max_body_bytes => {
                        self.keep_alive = head.keep_alive();
                        // Saturated, the sum is more than any buffer grows
                        // to: a 507 when the body is asked for.
                        self.total = end.saturating_add(n.unwrap_or(0));
                        return Action::Route {
                            head,
                            content_length: n,
                            wire_id: &self.reply.wire_id,
                        };
                    }
                    // Refused from the head alone: not a body byte is read.
                    Ok(_) => Response::new(413)
                        .header("x-bitflow-max-body", self.max_body_bytes as u64)
                        .text("request body exceeds the configured bound"),
                    Err(ParseError::UnsupportedTransferEncoding) => {
                        Response::new(501).text("only content-length framing is supported")
                    }
                    Err(e) => Response::new(400).text(&e.to_string()),
                }
            }
        };
        self.gauges.net_malformed_requests.inc();
        self.reply.refuse(&mut self.phase, now, &malformed)
    }

    /// Asks for the routed request's declared body, growing the buffer to
    /// hold it; a length no buffer can hold is a `507`.
    pub fn read_body(&mut self) {
        let more = self.total.saturating_sub(self.buf.len());
        if self.buf.try_reserve_exact(more).is_err() {
            self.reply.start(&plain(507), false);
            self.phase = Phase::Write(None);
            return;
        }
        self.buf.resize(self.buf.len() + more, 0);
        self.phase = Phase::Body(None);
    }

    /// Answers the request the handler holds. The connection stays open
    /// only if the head asked, no drain began, `close` is unset and no
    /// declared body is left unread (it would be read as the next request).
    pub fn respond(&mut self, resp: &Response, close: bool) {
        let (done, unread) = match self.phase {
            Phase::Serve => (self.total, false),
            _ => (self.head_end, self.total > self.head_end),
        };
        let keep_alive = self.keep_alive && !self.draining && !close && !unread;
        if keep_alive {
            // Moves what the client pipelined behind the request — usually
            // nothing — to the front.
            self.buf.copy_within(done..self.filled, 0);
            self.filled -= done;
            self.scanned = 0;
        }
        self.reply.start(resp, keep_alive);
        self.phase = Phase::Write(None);
    }

    /// Reports what the read of the last [`Action::Read`] did.
    pub fn on_read(&mut self, io: Io) {
        match io {
            Io::Bytes(0) | Io::Failed => {
                let end = match self.phase {
                    Phase::Head(_) if self.filled == 0 => End::Idle,
                    _ => End::Abandoned,
                };
                self.phase = Phase::Closed(end);
            }
            Io::Bytes(n) => {
                self.filled += n;
                self.gauges.net_bytes_in.add(n as u64);
            }
            Io::Stalled => {}
        }
    }

    /// Reports what the write of the last [`Action::Write`] did.
    pub fn on_write(&mut self, io: Io) {
        match io {
            Io::Bytes(0) | Io::Failed => self.phase = Phase::Sent(false),
            Io::Bytes(n) => {
                self.reply.written += n;
                self.gauges.net_bytes_out.add(n as u64);
                if self.reply.written >= self.reply.out.len() {
                    self.phase = Phase::Sent(true);
                }
            }
            Io::Stalled => {}
        }
    }
}

/// Writes the wire id of request `req_no` into `out`: the client's
/// `x-bitflow-request-id` when it is 1..=64 bytes of `[A-Za-z0-9._-]`
/// (which keeps hostile ids out of response headers and the flight
/// recorder), else a generated `c{conn}-r{req}`.
fn set_wire_id(out: &mut String, head: Option<&Head<'_>>, conn: u64, req_no: u64) {
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
