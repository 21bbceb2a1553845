//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as a Chrome trace when the run ends.
//!
//! A span is (name, layer, start, end, parent, request): spans of one
//! request share its sequence number, and a span's *self time* is its
//! duration minus the part its children cover.

use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran, e.g. `try_infer` or `conv2.1`.
    pub name: String,
    /// The crate the call went into (`graph`, `ops`, `serve`, `net`, …).
    pub layer: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request sequence number: the id every span of one request shares.
    pub request: u64,
    /// Recording thread (Chrome `tid`).
    pub thread: u32,
}

/// An append-only span log owned by one thread; logs of several threads
/// are [`SpanLog::merge`]d before writing.
#[derive(Clone, Debug)]
pub struct SpanLog {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log; every thread of one run shares `origin`.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.push_ns(name, layer, self.ns(start), self.ns(end), parent, request)
    }

    /// [`SpanLog::push`] with offsets already in ns since the origin.
    pub fn push_ns(
        &mut self,
        name: &str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's log, re-basing its parent indices.
    pub fn merge(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, ns: duration minus the union of its
    /// children's intervals (clipped to the span itself).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per (layer, name), ns, sorted by layer then name.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut by: std::collections::BTreeMap<String, (u64, usize)> = Default::default();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by.entry(format!("{}.{}", s.layer, s.name)).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
        by.into_iter().map(|(k, (ns, n))| (k, ns, n)).collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`ph: "X"`) event per span, times in µs, `cat` = layer, `args`
    /// carrying the request id, the parent span's name and the self time.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":{}}}}}",
            json_string(process)
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("", |p| self.spans[p].name.as_str());
            out.push_str(&format!(
                ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"request\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                json_string(&s.name),
                json_string(s.layer),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.thread,
                s.request,
                json_string(parent),
                self_ns[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Minimal JSON string escaping (names here are ASCII identifiers, but a
/// trace file must load whatever a name holds).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
