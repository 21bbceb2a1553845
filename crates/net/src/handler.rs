//! The handler step: what a request's head, its body and the serving
//! runtime's answers make of it, as plain values. [`route`] reads a head
//! (and the length [`crate::conn::Conn`] framed) into a response, a page
//! the listener renders, or an [`Infer`] whose body is to be read;
//! [`decode`] and [`Infer::submission`] turn the body into what the
//! serving runtime is asked; [`Infer::answer`] turns its result into the
//! response. The step
//! owns no socket, reads no clock and takes no lock: the serving runtime
//! comes in through [`Tenant`], which [`crate::server`] implements for
//! [`bitflow_serve::ModelClient`], and the submission goes out as a value
//! that the caller submits. [`crate::server`]'s connection thread is its
//! one driver; `tests/sim.rs` drives it between `Conn`s and a modelled
//! serving runtime on a virtual clock.
//!
//! ```text
//!   route ─▶ Answer (400 404 405 411, a body refusal)
//!     ├───▶ Page (healthz, metrics, debug)
//!     └───▶ Infer ─▶ decode, submission ─▶ Answer (400 bad_tensor/bad_deadline, 404)
//!                        └──▶ Submit ─▶ (serving runtime) ─▶ answer ─▶ Answer
//! ```

use std::time::Duration;

use bitflow_graph::{BitFlowError, RejectReason};
use bitflow_telemetry::ServeGauges;
use bitflow_tensor::Tensor;

use crate::http::{self, Head, Response};
use crate::status::{error_status, reject_status, reject_wants_retry_after};

/// One tenant of the serving runtime, as the handler asks it: the one
/// handle a request's body is charged, hinted and refused through.
pub trait Tenant {
    /// A charge against the tenant's byte budget, returned when dropped.
    type Lease;
    /// The tenant's served name, as its traces record it.
    fn name(&self) -> &str;
    /// Charges a not-yet-read body of `bytes` to the tenant.
    fn reserve_body(&self, bytes: u64) -> Result<Self::Lease, RejectReason>;
    /// How long a refused client should back off.
    fn retry_after_hint(&self) -> Duration;
    /// The tenant's admission quota, if it has one.
    fn quota(&self) -> Option<u64>;
}

/// A response, and the verdict the handler decided for the request's
/// trace: `rejected:{label}` and the tenant for a refusal decided here,
/// `http:{status}` for the handler's own statuses; `None` where the
/// serving runtime's verdict (or a `200`'s empty one) stands.
#[derive(Debug)]
pub struct Answer {
    pub response: Response,
    pub verdict: Option<(String, Option<String>)>,
}

impl Answer {
    fn http(response: Response) -> Self {
        let verdict = Some((format!("http:{}", response.status()), None));
        Self { response, verdict }
    }
}

/// A route the listener answers from the serving runtime's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Page<'h> {
    Healthz,
    Metrics,
    /// `GET /debug/trace` or `GET /debug/requests/{id}`, with the debug
    /// routes enabled.
    Debug {
        path: &'h str,
        query: &'h str,
    },
}

/// What a head asks for.
pub enum Routed<'h, T: Tenant> {
    /// Answered from the head alone: the connection closes after it when
    /// the head declared a body.
    Answer(Answer),
    Page(Page<'h>),
    /// An inference whose body is to be read.
    Infer(Infer<T>),
}

/// Routes a framed head: `content_length` is the length it declared,
/// `debug` whether the debug routes exist, `gauges` where a malformed
/// request is counted, and `tenants` the serving runtime's tenant of a
/// name (`None`: the default one).
pub fn route<'h, T: Tenant>(
    head: &Head<'h>,
    content_length: Option<usize>,
    debug: bool,
    gauges: &ServeGauges,
    tenants: impl Fn(Option<&str>) -> Option<T>,
) -> Routed<'h, T> {
    let target = head.target;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let is_infer = target == "/v1/infer" || target.starts_with("/v1/infer/");
    let is_debug = debug && (path == "/debug/trace" || path.starts_with("/debug/requests/"));
    let only = |allow| Routed::Answer(Answer::http(not_allowed(allow)));
    match (head.method, target) {
        ("GET", "/healthz") => Routed::Page(Page::Healthz),
        ("GET", "/metrics") => Routed::Page(Page::Metrics),
        (_, "/healthz" | "/metrics") => only("GET"),
        ("POST", _) if is_infer => plan_infer(head, content_length, gauges, tenants),
        (_, _) if is_infer => only("POST"),
        ("GET", _) if is_debug => Routed::Page(Page::Debug { path, query }),
        (_, _) if is_debug => only("GET"),
        _ => Routed::Answer(Answer::http(Response::new(404).text("no such route"))),
    }
}

fn not_allowed(allow: &'static str) -> Response {
    Response::new(405)
        .header("allow", allow)
        .text(&format!("{allow} only"))
}

/// An inference request past every check its head allows: its tenant
/// (`None`: no such tenant), the declared body's charge against that
/// tenant's budget, held until the request is answered, and the
/// `x-bitflow-deadline-ms` budget (`None` when it is not a whole number
/// of milliseconds). The last two checks, and the tenant's, are judged
/// once the body is read, so a refusal over them leaves the connection
/// usable.
pub struct Infer<T: Tenant> {
    tenant: Option<T>,
    _lease: Option<T::Lease>,
    deadline: Option<Option<Duration>>,
}

/// What an inference asks of the serving runtime: its decoded input and
/// latency budget, for `tenant`.
pub struct Submit<'a, T> {
    pub input: Tensor,
    pub budget: Option<Duration>,
    pub tenant: &'a T,
}

/// What an inference request's head decides beyond its framing: a length
/// is required, and the declared body is charged to the tenant it names
/// before a byte of it is read — under memory pressure the refusal costs
/// a head, not a buffered body. The tenant is resolved once; its charge,
/// its backoff hint and its verdicts all go through that one handle.
fn plan_infer<'h, T: Tenant>(
    head: &Head<'h>,
    content_length: Option<usize>,
    gauges: &ServeGauges,
    tenants: impl Fn(Option<&str>) -> Option<T>,
) -> Routed<'h, T> {
    let Some(length) = content_length else {
        gauges.net_malformed_requests.inc();
        return Routed::Answer(Answer::http(
            Response::new(411).text("content-length required"),
        ));
    };
    let name = head
        .target
        .strip_prefix("/v1/infer/")
        .filter(|name| !name.is_empty());
    let tenant = tenants(name);
    let lease = match &tenant {
        None => None,
        Some(t) => match t.reserve_body(length as u64) {
            Ok(lease) => Some(lease),
            Err(reason) => {
                let response = rejection(reason, t.retry_after_hint(), t.quota());
                let label = format!("rejected:{}", reason.label());
                let verdict = Some((label, Some(t.name().to_string())));
                return Routed::Answer(Answer { response, verdict });
            }
        },
    };
    Routed::Infer(Infer {
        tenant,
        _lease: lease,
        deadline: match head.header("x-bitflow-deadline-ms") {
            None => Some(None),
            Some(v) => http::digits(v).map(|ms| Some(Duration::from_millis(ms))),
        },
    })
}

/// The tensor a whole request body encodes, or the malformed `400` that
/// refuses one that is not a tensor.
pub fn decode(body: &[u8], gauges: &ServeGauges) -> Result<Tensor, Answer> {
    bitflow_tensor::io::decode_tensor(body).map_err(|e| {
        gauges.net_malformed_requests.inc();
        Answer::http(bad_request("bad_tensor", &e.to_string()))
    })
}

impl<T: Tenant> Infer<T> {
    /// The submission of the decoded `input`, or the response that refuses
    /// it: a deadline that is not a whole number of milliseconds is a
    /// malformed `400`, never read as "no deadline"; an unknown tenant is a
    /// `404`.
    pub fn submission(&self, input: Tensor, gauges: &ServeGauges) -> Result<Submit<'_, T>, Answer> {
        let Some(budget) = self.deadline else {
            gauges.net_malformed_requests.inc();
            return Err(Answer::http(bad_request(
                "bad_deadline",
                "x-bitflow-deadline-ms must be a whole number of milliseconds",
            )));
        };
        let Some(tenant) = &self.tenant else {
            return Err(Answer::http(Response::new(404).text("unknown model")));
        };
        Ok(Submit {
            input,
            budget,
            tenant,
        })
    }

    /// The response to what the serving runtime made of the submission;
    /// the body's charge is returned here.
    pub fn answer(self, result: Result<Vec<f32>, BitFlowError>) -> Answer {
        let response = match result {
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
                let (hint, quota) = self.tenant.as_ref().map_or((Duration::ZERO, None), |t| {
                    (t.retry_after_hint(), t.quota())
                });
                rejection(reason, hint, quota)
            }
            Err(err) => Response::new(error_status(&err))
                .header("content-type", "application/json")
                .body(serde_json::to_vec(&err).unwrap_or_default()),
        };
        Answer {
            response,
            verdict: None,
        }
    }
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

/// A `400` for a request whose framing was fine (the body is fully
/// consumed, so the connection survives it) but whose content was not, in
/// the same `{"code","message"}` shape as [`BitFlowError`]. Both arguments
/// are fixed strings with nothing to escape.
fn bad_request(code: &str, message: &str) -> Response {
    Response::new(400)
        .header("content-type", "application/json")
        .body(format!("{{\"code\":\"{code}\",\"message\":\"{message}\"}}").into_bytes())
}
