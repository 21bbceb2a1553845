//! Minimal HTTP/1.1 grammar: request-head parsing and response building.
//!
//! Only what the front-end needs, parsed defensively: a request line, a
//! bounded header block, `content-length`-framed bodies. Anything else —
//! chunked transfer coding, obsolete line folding, a missing version —
//! is refused with a typed error the caller turns into a 4xx/5xx. The
//! connection's state (deadlines, framing, byte accounting) lives in
//! [`crate::conn`]; this module is pure bytes-in, values-out and is
//! unit-tested as such.

use std::fmt;

/// Largest accepted request head (request line + headers), bytes. A head
/// that has not terminated within this bound is hostile or broken.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Why a request head was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Not parseable as an HTTP/1.x request head.
    Malformed(&'static str),
    /// The request declared a transfer coding this front-end rejects
    /// (only `content-length` framing is served).
    UnsupportedTransferEncoding,
    /// A body-carrying method arrived without a `content-length`.
    LengthRequired,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "only content-length framing is supported")
            }
            ParseError::LengthRequired => write!(f, "content-length required"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed request head, borrowing the bytes it was parsed from: a
/// request owns no copy of its method, target or headers.
#[derive(Clone, Copy, Debug)]
pub struct Head<'a> {
    /// Request method, as sent (methods are case-sensitive).
    pub method: &'a str,
    /// Request target (origin form, e.g. `/v1/infer/default`).
    pub target: &'a str,
    /// Whether the request was HTTP/1.1 (governs the keep-alive default).
    pub http11: bool,
    /// The header lines, each checked by [`parse_head`], up to (and maybe
    /// past) the blank line that ends them.
    headers: &'a str,
}

/// The header lines of a block that may run on past its blank line.
fn header_lines(block: &str) -> impl Iterator<Item = &str> {
    block.split("\r\n").take_while(|line| !line.is_empty())
}

/// `v` as a number when it is one run of ASCII digits (RFC 9110's
/// `1*DIGIT`) that fits: no sign, no space, no second value.
#[must_use]
pub fn digits<T: std::str::FromStr>(v: &str) -> Option<T> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse().ok()
}

impl<'a> Head<'a> {
    /// The first value of header `name` (ASCII case-insensitive),
    /// trimmed.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&'a str> {
        header_lines(self.headers)
            .filter_map(|line| line.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    }

    /// The declared body length. `Ok(None)` when absent. A transfer
    /// coding, a value that is not one run of digits, or a second
    /// `content-length` is an error, never a guess: a proxy that framed
    /// the message differently would smuggle a request past this one
    /// (RFC 9112 §6.3).
    pub fn content_length(&self) -> Result<Option<usize>, ParseError> {
        if self.header("transfer-encoding").is_some() {
            return Err(ParseError::UnsupportedTransferEncoding);
        }
        let named = |line: &&str| {
            line.split_once(':')
                .is_some_and(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        };
        if header_lines(self.headers).filter(named).count() > 1 {
            return Err(ParseError::Malformed("repeated content-length"));
        }
        let not_digits = ParseError::Malformed("content-length not a number");
        self.header("content-length")
            .map(|v| digits(v).ok_or(not_digits))
            .transpose()
    }

    /// Whether the connection should be kept open after the response:
    /// HTTP/1.1 defaults to yes, HTTP/1.0 to no, `connection: close`
    /// always wins.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Position one past the `\r\n\r\n` head terminator, if present. Only
/// bytes from `*scanned` on are looked at, and `*scanned` moves to where
/// the next look (after more bytes arrive) must resume: three short of
/// the end, since a terminator may straddle two reads. A head dripped a
/// byte at a time is thus searched once, not once per byte.
#[must_use]
pub fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = (*scanned).min(buf.len());
    let found = buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p + 4);
    *scanned = found.unwrap_or(buf.len().saturating_sub(3).max(from));
    found
}

/// Parses a complete request head (everything before the terminating
/// blank line, which may be included).
pub fn parse_head(bytes: &[u8]) -> Result<Head<'_>, ParseError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| ParseError::Malformed("head is not UTF-8"))?;
    let (request_line, headers) = text.split_once("\r\n").unwrap_or((text, ""));
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.chars().all(|c| c.is_ascii_uppercase()))
        .ok_or(ParseError::Malformed("bad method"))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/'))
        .ok_or(ParseError::Malformed("bad request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Malformed("extra request-line fields"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::Malformed("unsupported HTTP version")),
    };
    for line in header_lines(headers) {
        // Obsolete line folding (a header continued on an indented line)
        // is a known request-smuggling vector: refuse it.
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(ParseError::Malformed("folded header"));
        }
        let (name, _) = line
            .split_once(':')
            .ok_or(ParseError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed("bad header name"));
        }
    }
    Ok(Head {
        method,
        target,
        http11,
        headers,
    })
}

/// Canonical reason phrase for the statuses this front-end emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

/// A response header value: the three shapes the front-end emits, so the
/// common ones (fixed strings, counts) are held without allocating.
#[derive(Clone, Debug)]
pub enum HeaderValue {
    /// A fixed string.
    Fixed(&'static str),
    /// A count: seconds, bytes, requests.
    Count(u64),
    /// Text composed for this response.
    Text(String),
}

impl From<&'static str> for HeaderValue {
    fn from(v: &'static str) -> Self {
        HeaderValue::Fixed(v)
    }
}

impl From<u64> for HeaderValue {
    fn from(v: u64) -> Self {
        HeaderValue::Count(v)
    }
}

impl From<String> for HeaderValue {
    fn from(v: String) -> Self {
        HeaderValue::Text(v)
    }
}

impl fmt::Display for HeaderValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderValue::Fixed(v) => f.write_str(v),
            HeaderValue::Count(v) => write!(f, "{v}"),
            HeaderValue::Text(v) => f.write_str(v),
        }
    }
}

/// One response, rendered to bytes in a single buffer so the socket
/// writer deals in whole responses.
#[derive(Clone, Debug)]
pub struct Response {
    status: u16,
    headers: Vec<(&'static str, HeaderValue)>,
    body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    #[must_use]
    pub fn new(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The response status.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Appends one header.
    #[must_use]
    pub fn header(mut self, name: &'static str, value: impl Into<HeaderValue>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Sets the body.
    #[must_use]
    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Sets a plain-text body.
    #[must_use]
    pub fn text(self, body: &str) -> Self {
        self.header("content-type", "text/plain; charset=utf-8")
            .body(body.as_bytes().to_vec())
    }

    /// Renders the full wire form into `out` (cleared first, so one
    /// buffer serves every response of a connection). `content-length`
    /// and `connection` are always emitted so clients can frame the body
    /// and pipeline safely; `request_id`, when given, is echoed as
    /// `x-bitflow-request-id` — the front-end tags every response, so
    /// clients can correlate even errors with the id they sent (or were
    /// assigned).
    pub fn render(&self, out: &mut Vec<u8>, keep_alive: bool, request_id: Option<&str>) {
        use std::io::Write;
        out.clear();
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        if let Some(id) = request_id {
            let _ = write!(out, "x-bitflow-request-id: {id}\r\n");
        }
        let _ = write!(
            out,
            "content-length: {}\r\nconnection: {}\r\n\r\n",
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        out.extend_from_slice(&self.body);
    }

    /// [`Response::render`] into a fresh buffer, untagged.
    #[must_use]
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::new();
        self.render(&mut out, keep_alive, None);
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn parses_a_full_head() {
        let head =
            parse_head(b"POST /v1/infer/default HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n")
                .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.target, "/v1/infer/default");
        assert!(head.http11);
        assert_eq!(head.header("content-length"), Some("12"));
        assert_eq!(head.header("CONTENT-LENGTH"), Some("12"));
        assert_eq!(head.content_length().unwrap(), Some(12));
        assert!(head.keep_alive());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let head = parse_head(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!head.keep_alive());
        let head = parse_head(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!head.http11);
        assert!(!head.keep_alive());
        let head = parse_head(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(head.keep_alive());
    }

    #[test]
    fn refuses_garbage() {
        for bad in [
            &b"garbage\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            b"GET /x HTTP/1.1\r\na: b\r\n folded\r\n\r\n",
            b"\xff\xfe /x HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                parse_head(bad).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn rejects_transfer_encoding_and_bad_lengths() {
        let head = parse_head(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
        assert_eq!(
            head.content_length(),
            Err(ParseError::UnsupportedTransferEncoding)
        );
        let head = parse_head(b"POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n").unwrap();
        assert!(head.content_length().is_err());
        let head = parse_head(b"POST /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n").unwrap();
        assert!(head.content_length().is_err());
        // A sign, a list, or a second length is a framing error: each is a
        // request-smuggling vector against a proxy that reads it otherwise.
        for bad in [
            "+5",
            "5, 5",
            "5\r\ncontent-length: 999999999",
            "5\r\nContent-Length: 5",
        ] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let head = parse_head(raw.as_bytes()).unwrap();
            assert!(head.content_length().is_err(), "framed {raw:?}");
        }
        assert_eq!(digits::<u64>("+5"), None);
        assert_eq!(digits::<u64>("18446744073709551616"), None);
        assert_eq!(digits::<u64>("007"), Some(7));
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r", &mut 0), None);
        assert_eq!(
            find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY", &mut 0),
            Some(18)
        );
    }

    /// A maximum-size head dripped a byte at a time: the search resumes
    /// where it left off, so the bytes it is handed over the whole drip
    /// (a bound on its compares) are linear in the head, where a rescan
    /// from byte 0 after every read would be handed ~32 M.
    #[test]
    fn dripped_head_is_searched_once_not_once_per_byte() {
        let mut head = b"POST /v1/infer HTTP/1.1\r\n".to_vec();
        while head.len() < MAX_HEAD_BYTES - 16 {
            head.extend_from_slice(b"x-drip: y\r\n");
        }
        head.extend_from_slice(b"\r\n");
        let mut scanned = 0usize;
        let mut looked_at = 0usize;
        let mut found = None;
        for len in 1..=head.len() {
            assert_eq!(found, None, "found before the terminator arrived");
            looked_at += len - scanned.min(len);
            found = find_head_end(&head[..len], &mut scanned);
            assert!(scanned <= len);
        }
        assert_eq!(found, Some(head.len()));
        assert!(
            looked_at <= 4 * head.len(),
            "{looked_at} bytes searched for a {} byte head",
            head.len()
        );
    }

    #[test]
    fn terminator_split_across_reads_is_found() {
        let full = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\nNEXT";
        let end = full.len() - 4;
        // Every split of the four terminator bytes over two reads, and a
        // split just before them.
        for first in end - 5..end {
            let mut scanned = 0usize;
            assert_eq!(find_head_end(&full[..first], &mut scanned), None);
            assert_eq!(find_head_end(full, &mut scanned), Some(end), "{first}");
        }
    }

    #[test]
    fn response_wire_form() {
        let bytes = Response::new(429)
            .header("retry-after", 2u64)
            .text("slow down")
            .to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("content-length: 9\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nslow down"));
        let closed = Response::new(200).to_bytes(false);
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("connection: close"));
    }

    #[test]
    fn tagged_wire_form_echoes_the_request_id() {
        // A reused buffer holds only the latest response.
        let mut bytes = b"stale".to_vec();
        Response::new(200)
            .text("ok")
            .render(&mut bytes, true, Some("c7-r0"));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("x-bitflow-request-id: c7-r0\r\n"), "{text}");
        assert!(
            !String::from_utf8(Response::new(200).to_bytes(true))
                .unwrap()
                .contains("x-bitflow-request-id"),
            "untagged render must not invent an id"
        );
    }
}
