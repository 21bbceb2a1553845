//! # bitflow-net
//!
//! HTTP/1.1 network front-end for the BitFlow serving runtime: the wire
//! face of [`bitflow_serve::Server`], built directly on
//! [`std::net::TcpListener`] — no async runtime, no HTTP library, one
//! thread per connection bounded by a connection cap.
//!
//! ## Wire contract
//!
//! * `POST /v1/infer` and `POST /v1/infer/{tenant}` — body is a BitFlow
//!   tensor container ([`bitflow_tensor::io::encode_tensor`]); a `200`
//!   carries the raw little-endian `f32` logits
//!   (`content-type: application/octet-stream`). An optional
//!   `x-bitflow-deadline-ms` request header sets the per-request latency
//!   budget.
//! * **Request ids** — every response (including errors and pre-parse
//!   refusals) carries an `x-bitflow-request-id` header. A
//!   client-supplied `x-bitflow-request-id` is honored when it is 1..=64
//!   bytes of `[A-Za-z0-9._-]`; otherwise a `c{conn}-r{req}` id is
//!   generated. The same id names the request's trace in the flight
//!   recorder, so a client can quote it to `/debug/requests/{id}`.
//! * **`server-timing`** ([`NetConfig::server_timing`]) — inference
//!   responses carry `queue`/`exec`/`app` durations (milliseconds) from
//!   the request's trace; the write stage cannot ride in its own
//!   response and is observable as the `bitflow_stage_write_ns`
//!   histogram instead.
//! * Typed failures map onto wire statuses in one exhaustive match
//!   ([`status::reject_status`] / [`status::error_status`]): queue-full
//!   and breaker shedding are `429` with a `Retry-After` derived from the
//!   queue depth and the tenant's batch-latency EWMA, quota exhaustion is
//!   `429` with an `x-bitflow-quota` header, draining is `503`, a missed
//!   deadline is `504`. Error bodies are the engine's own
//!   `{"code", "message"}` JSON ([`bitflow_graph::BitFlowError`]).
//! * `GET /metrics` — one Prometheus text exposition of every tenant,
//!   told apart by their served names as the `model` label (a lone tenant
//!   keeps its model's own name).
//! * `GET /healthz` — `200 ok` while the circuit breaker is closed and
//!   the server is not draining; `503` otherwise.
//! * `GET /debug/trace` and `GET /debug/requests/{id}`
//!   ([`NetConfig::debug_endpoints`], default off — the routes `404`
//!   like any unknown path until enabled) — live extraction from the
//!   flight recorder: the full retained dump as a JSON trace list (or a
//!   Perfetto-loadable Chrome trace document with `?format=chrome`), and
//!   one trace looked up by request id. `503` when the serving runtime
//!   carries no recorder (`BITFLOW_TRACE` unset).
//!
//! ## Hostile-client hardening
//!
//! Every connection gets a slowloris header deadline, a bounded header
//! block, a length-checked bounded body, read/write deadlines, and
//! partial-write-safe responses, all decided by the clock-free
//! [`conn::Conn`]; what each request asks and how it is answered is the
//! equally clock-free handler step ([`handler`]). The accept loop sheds connections past the cap with an
//! immediate `503`. Shutdown is a graceful drain: stop accepting, finish
//! requests already on a connection, then close. All of it is observable
//! through the `net_*` counters on the default tenant's
//! [`bitflow_telemetry::ServeGauges`].
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod config;
pub mod conn;
pub mod handler;
pub mod http;
pub mod server;
pub mod status;

pub use config::NetConfig;
pub use server::NetServer;
