//! A minimal keep-alive HTTP/1.1 client over `std::net`, the benchmark's
//! own: it frames one `POST /v1/infer` per call and stamps the three
//! client-side phases (write, wait for first byte, read the rest).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response and the instants its phases ended.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request fully written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Body fully read.
    pub done: Instant,
}

/// The bytes of one inference request: head + tensor body.
pub fn infer_request(body: &[u8]) -> Vec<u8> {
    let mut req = infer_head(body.len()).into_bytes();
    req.extend_from_slice(body);
    req
}

/// The request head the benchmark sends for a body of `len` bytes.
pub fn infer_head(len: usize) -> String {
    format!("POST /v1/infer HTTP/1.1\r\nhost: bench\r\ncontent-length: {len}\r\n\r\n")
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with `TCP_NODELAY` and a read timeout, so a dead server
    /// fails the run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends `request` and reads one complete response.
    pub fn roundtrip(&mut self, request: &[u8]) -> Result<Reply, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let written = Instant::now();
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let mut first_byte = None;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed mid-response".into()),
                Ok(n) => {
                    first_byte.get_or_insert_with(Instant::now);
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let content_length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or("response without content-length")?;
        let mut body = self.buf[head_end..].to_vec();
        if body.len() > content_length {
            return Err("response longer than its content-length".into());
        }
        let have = body.len();
        body.resize(content_length, 0);
        self.stream
            .read_exact(&mut body[have..])
            .map_err(|e| format!("read body: {e}"))?;
        let done = Instant::now();
        Ok(Reply {
            status,
            body,
            written,
            first_byte: first_byte.unwrap_or(done),
            done,
        })
    }
}
