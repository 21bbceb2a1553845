//! Per-request span tracing.
//!
//! A [`RequestTrace`] is the full timing breakdown of one inference
//! request — lifecycle stages plus per-operator spans — accumulated across
//! threads by a [`TraceBuilder`] that travels with the request. Nothing is
//! built for a request that carries no builder, so the untraced hot path
//! never allocates a trace.

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Reads a field that older trace JSON may not carry: a missing key (the
/// vendored serde reads it as `Null`) falls back to the default. The
/// vendored derive has no `#[serde(default)]`, so the types below that
/// need defaulting implement `Deserialize` by hand with this helper.
fn field_or_default<T: Deserialize + Default>(
    v: &serde::Value,
    name: &str,
) -> Result<T, serde::DeError> {
    match v.field(name)? {
        serde::Value::Null => Ok(T::default()),
        other => T::from_value(other),
    }
}

/// One operator's contribution to a request.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct OpSpan {
    /// Index of the operator in the compiled plan (stable across requests).
    pub op_index: u64,
    /// Human-readable operator name (layer name or builtin step name).
    pub name: String,
    /// Offset of the operator's start from the trace origin, nanoseconds.
    /// Zero for traces recorded before request-scoped tracing existed (and
    /// for engine-only traces with no surrounding request).
    pub start_ns: u64,
    /// Wall time spent in the operator, nanoseconds.
    pub duration_ns: u64,
}

impl Deserialize for OpSpan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            op_index: Deserialize::from_value(v.field("op_index")?)?,
            name: Deserialize::from_value(v.field("name")?)?,
            start_ns: field_or_default(v, "start_ns")?,
            duration_ns: Deserialize::from_value(v.field("duration_ns")?)?,
        })
    }
}

/// A request-lifecycle stage, in wire order. Stages tile the request
/// wall-clock: each one ends where the next begins (modulo scheduler
/// hand-off gaps), so a trace's stage spans are non-overlapping and sum
/// to approximately [`RequestTrace::total_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Connection accepted → handler thread starts reading (first request
    /// on a connection only).
    Accept,
    /// Reading + parsing the request head.
    Parse,
    /// Reading the request body off the socket.
    ReadBody,
    /// Decoding the body into a tensor.
    Decode,
    /// Admission control inside `Server::submit` (quota, breaker, shed).
    Admit,
    /// Queued, waiting for a worker to pop the request.
    QueueWait,
    /// Popped, waiting for the micro-batch to form (coalesce window).
    BatchWait,
    /// Engine execution (the op spans nest inside this stage).
    Exec,
    /// Writing the response to the socket.
    Write,
}

impl Stage {
    /// Stable snake_case name, as serialized and as shown in trace viewers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::ReadBody => "read_body",
            Stage::Decode => "decode",
            Stage::Admit => "admit",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWait => "batch_wait",
            Stage::Exec => "exec",
            Stage::Write => "write",
        }
    }
}

impl Serialize for Stage {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Stage {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let s = String::from_value(v)?;
        match s.as_str() {
            "accept" => Ok(Stage::Accept),
            "parse" => Ok(Stage::Parse),
            "read_body" => Ok(Stage::ReadBody),
            "decode" => Ok(Stage::Decode),
            "admit" => Ok(Stage::Admit),
            "queue_wait" => Ok(Stage::QueueWait),
            "batch_wait" => Ok(Stage::BatchWait),
            "exec" => Ok(Stage::Exec),
            "write" => Ok(Stage::Write),
            other => Err(serde::DeError::new(format!("unknown stage `{other}`"))),
        }
    }
}

/// One lifecycle stage of a request, as offsets from the trace origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Stage duration, nanoseconds.
    pub duration_ns: u64,
}

/// The complete timing of one inference request.
///
/// The engine pushes the per-operator `spans`; the serving runtime and
/// network front-end add the request-scoped fields (ids, tenant, outcome,
/// lifecycle stages, batch metadata), all through one [`TraceBuilder`].
/// Deserialization defaults every request-scoped field, so pre-existing
/// JSONL traces still parse.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RequestTrace {
    /// Server-assigned numeric request id (0 for engine-only traces).
    pub request_id: u64,
    /// Client-visible wire id (`x-bitflow-request-id`). Empty for
    /// engine-only traces.
    pub id: String,
    /// Tenant (model registry entry) the request was served by. Empty for
    /// engine-only traces.
    pub tenant: String,
    /// Terminal outcome: `"ok"`, `"rejected:<reason>"`, `"error:<code>"`,
    /// or `"write_truncated"`. Empty for engine-only traces (treated as
    /// ok by the flight recorder).
    pub outcome: String,
    /// End-to-end request wall time, nanoseconds (trace origin → finish).
    pub total_ns: u64,
    /// Lifecycle stages in start order (see [`Stage`]).
    pub stages: Vec<StageSpan>,
    /// Size of the micro-batch this request executed in (0 = not batched
    /// through the serving runtime).
    pub batch_size: u64,
    /// The coalesce window that was configured when the batch formed, µs.
    pub coalesce_window_us: u64,
    /// The EWMA batch-latency estimate used for deadline-fit decisions
    /// when the batch formed, nanoseconds.
    pub est_batch_ns: u64,
    /// The thread the batch executed on: `"caller"` when a blocking caller
    /// ran its own request in a parked worker's context, `"worker"` when
    /// it crossed the queue. Empty when the request never executed.
    pub ran_on: String,
    /// Per-operator spans in execution order.
    pub spans: Vec<OpSpan>,
}

impl Deserialize for RequestTrace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            request_id: Deserialize::from_value(v.field("request_id")?)?,
            id: field_or_default(v, "id")?,
            tenant: field_or_default(v, "tenant")?,
            outcome: field_or_default(v, "outcome")?,
            total_ns: Deserialize::from_value(v.field("total_ns")?)?,
            stages: field_or_default(v, "stages")?,
            batch_size: field_or_default(v, "batch_size")?,
            coalesce_window_us: field_or_default(v, "coalesce_window_us")?,
            est_batch_ns: field_or_default(v, "est_batch_ns")?,
            ran_on: field_or_default(v, "ran_on")?,
            spans: Deserialize::from_value(v.field("spans")?)?,
        })
    }
}

impl RequestTrace {
    /// An engine-only trace: op spans and totals, no request-scoped
    /// context.
    #[must_use]
    pub fn new(request_id: u64, total_ns: u64, spans: Vec<OpSpan>) -> Self {
        Self {
            request_id,
            id: String::new(),
            tenant: String::new(),
            outcome: String::new(),
            total_ns,
            stages: Vec::new(),
            batch_size: 0,
            coalesce_window_us: 0,
            est_batch_ns: 0,
            ran_on: String::new(),
            spans,
        }
    }

    /// Whether the request resolved successfully. An empty outcome (an
    /// engine-only trace) counts as ok.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_empty() || self.outcome == "ok"
    }
}

/// Accumulates one [`RequestTrace`] across threads.
///
/// A builder is created where the request enters the system (the network
/// front-end at accept, or the serving runtime at submit) and shared —
/// `Arc`-cloned — with whichever connection, worker, and team threads
/// touch the request. All timestamps are converted to offsets from the
/// builder's origin `Instant`, so spans recorded on different threads
/// land on one consistent timeline.
#[derive(Debug)]
pub struct TraceBuilder {
    origin: Instant,
    inner: Mutex<TraceInner>,
}

#[derive(Debug, Default)]
struct TraceInner {
    id: String,
    tenant: String,
    outcome: String,
    request_id: u64,
    stages: Vec<StageSpan>,
    spans: Vec<OpSpan>,
    batch_size: u64,
    coalesce_window_us: u64,
    est_batch_ns: u64,
    ran_on: &'static str,
}

impl TraceBuilder {
    /// A builder whose origin is now.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Self::with_origin(id, Instant::now())
    }

    /// A builder whose origin is an earlier instant (e.g. when the
    /// connection was accepted, before the builder could be allocated).
    #[must_use]
    pub fn with_origin(id: impl Into<String>, origin: Instant) -> Self {
        Self {
            origin,
            inner: Mutex::new(TraceInner {
                id: id.into(),
                ..TraceInner::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Nanoseconds elapsed since the trace origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Converts an instant to an offset from the trace origin (saturating
    /// at zero for instants before the origin).
    #[must_use]
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The wire id this builder was created with.
    #[must_use]
    pub fn id(&self) -> String {
        self.lock().id.clone()
    }

    /// Sets the engine/serve-assigned numeric request id.
    pub fn set_request_id(&self, request_id: u64) {
        self.lock().request_id = request_id;
    }

    /// Sets the tenant name.
    pub fn set_tenant(&self, tenant: &str) {
        let mut g = self.lock();
        g.tenant.clear();
        g.tenant.push_str(tenant);
    }

    /// Sets the terminal outcome. Last writer wins; callers set it exactly
    /// once at resolution.
    pub fn set_outcome(&self, outcome: &str) {
        let mut g = self.lock();
        g.outcome.clear();
        g.outcome.push_str(outcome);
    }

    /// Sets the outcome only when no earlier layer recorded one. The
    /// network front-end uses this to label HTTP-layer failures without
    /// clobbering the serving runtime's more precise verdicts
    /// (`rejected:*`, `cancelled`, `error:panic`, ...).
    pub fn set_outcome_if_empty(&self, outcome: &str) {
        let mut g = self.lock();
        if g.outcome.is_empty() {
            g.outcome.push_str(outcome);
        }
    }

    /// Records batch-formation metadata and the thread the batch runs on
    /// (`"caller"` or `"worker"`).
    pub fn set_batch(
        &self,
        batch_size: u64,
        coalesce_window_us: u64,
        est_batch_ns: u64,
        ran_on: &'static str,
    ) {
        let mut g = self.lock();
        g.batch_size = batch_size;
        g.coalesce_window_us = coalesce_window_us;
        g.est_batch_ns = est_batch_ns;
        g.ran_on = ran_on;
    }

    /// Records one lifecycle stage between two instants.
    pub fn stage(&self, stage: Stage, start: Instant, end: Instant) {
        let start_ns = self.offset_ns(start);
        let end_ns = self.offset_ns(end).max(start_ns);
        self.stage_ns(stage, start_ns, end_ns - start_ns);
    }

    /// Records one lifecycle stage from raw origin offsets.
    pub fn stage_ns(&self, stage: Stage, start_ns: u64, duration_ns: u64) {
        self.lock().stages.push(StageSpan {
            stage,
            start_ns,
            duration_ns,
        });
    }

    /// Appends one operator span.
    pub fn push_op(&self, span: OpSpan) {
        self.lock().spans.push(span);
    }

    /// Total recorded duration of `stage` (summed over occurrences), or
    /// `None` when the stage was never recorded.
    #[must_use]
    pub fn stage_total_ns(&self, stage: Stage) -> Option<u64> {
        let g = self.lock();
        let mut total = 0u64;
        let mut seen = false;
        for s in &g.stages {
            if s.stage == stage {
                total = total.saturating_add(s.duration_ns);
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// Seals the trace: total time is origin → now, stages are sorted by
    /// start offset. The builder can be finished only once meaningfully;
    /// later calls would see the already-drained state.
    #[must_use]
    pub fn finish(&self) -> RequestTrace {
        let total_ns = self.now_ns();
        let mut g = self.lock();
        let inner = std::mem::take(&mut *g);
        drop(g);
        let mut stages = inner.stages;
        stages.sort_by_key(|s| s.start_ns);
        RequestTrace {
            request_id: inner.request_id,
            id: inner.id,
            tenant: inner.tenant,
            outcome: inner.outcome,
            total_ns,
            stages,
            batch_size: inner.batch_size,
            coalesce_window_us: inner.coalesce_window_us,
            est_batch_ns: inner.est_batch_ns,
            ran_on: inner.ran_on.to_string(),
            spans: inner.spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> RequestTrace {
        RequestTrace::new(
            id,
            100 * id,
            vec![OpSpan {
                op_index: 0,
                name: "conv1".to_string(),
                start_ns: 5 * id,
                duration_ns: 90 * id,
            }],
        )
    }

    #[test]
    fn trace_round_trips_through_json() {
        let t = trace(42);
        let json = serde_json::to_string(&t).expect("serialize");
        let back: RequestTrace = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, t);
    }

    #[test]
    fn legacy_trace_json_still_deserializes() {
        // Traces written before request-scoped tracing carry only the
        // engine fields; the serde defaults must fill in the rest.
        let legacy = r#"{"request_id":7,"total_ns":900,
            "spans":[{"op_index":0,"name":"conv1","duration_ns":800}]}"#;
        let t: RequestTrace = serde_json::from_str(legacy).expect("legacy trace");
        assert_eq!(t.request_id, 7);
        assert!(t.id.is_empty() && t.stages.is_empty());
        assert_eq!(t.spans[0].start_ns, 0);
        assert!(t.is_ok(), "empty outcome counts as ok");
    }

    #[test]
    fn trace_builder_accumulates_and_sorts_stages() {
        let origin = std::time::Instant::now();
        let tb = TraceBuilder::with_origin("req-1", origin);
        tb.set_request_id(9);
        tb.set_tenant("vgg");
        tb.set_outcome("ok");
        tb.set_batch(4, 250, 1_000_000, "worker");
        // Record stages out of order; finish() must sort by start offset.
        tb.stage_ns(Stage::Exec, 3_000, 500);
        tb.stage_ns(Stage::Parse, 0, 1_000);
        tb.stage_ns(Stage::QueueWait, 1_000, 2_000);
        tb.push_op(OpSpan {
            op_index: 0,
            name: "conv1".to_string(),
            start_ns: 3_100,
            duration_ns: 300,
        });
        assert_eq!(tb.stage_total_ns(Stage::QueueWait), Some(2_000));
        assert_eq!(tb.stage_total_ns(Stage::Write), None);
        let t = tb.finish();
        assert_eq!(t.request_id, 9);
        assert_eq!(
            (t.id.as_str(), t.tenant.as_str(), t.outcome.as_str()),
            ("req-1", "vgg", "ok")
        );
        assert_eq!(
            (t.batch_size, t.coalesce_window_us, t.est_batch_ns),
            (4, 250, 1_000_000)
        );
        assert_eq!(t.ran_on, "worker");
        let order: Vec<Stage> = t.stages.iter().map(|s| s.stage).collect();
        assert_eq!(order, vec![Stage::Parse, Stage::QueueWait, Stage::Exec]);
        assert_eq!(t.spans.len(), 1);
        assert!(t.is_ok());
    }

    #[test]
    fn trace_builder_offsets_saturate_before_origin() {
        let origin = std::time::Instant::now();
        let tb = TraceBuilder::with_origin("x", origin);
        let before = origin - std::time::Duration::from_millis(5);
        assert_eq!(tb.offset_ns(before), 0);
        tb.stage(Stage::Accept, before, origin);
        let t = tb.finish();
        assert_eq!(t.stages[0].start_ns, 0);
    }
}
