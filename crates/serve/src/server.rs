//! The serving runtime: bounded admission queue, worker pool with
//! deadline-aware continuous micro-batching, multi-model tenancy,
//! circuit breaker, and response delivery.
//!
//! Invariants (the seeded simulators `crates/serve/tests/sim.rs` and
//! `crates/net/tests/sim.rs`, and the chaos soak `tests/soak.rs`, check
//! them):
//!
//! * Every admitted request **resolves exactly once** — with logits, or
//!   with a typed [`BitFlowError`]. Rejected submissions never allocate a
//!   response slot at all.
//! * [`bitflow_telemetry::ServeSnapshot`]'s conservation law holds **per
//!   model**: `submitted == accepted + rejected_*`, and once drained
//!   `accepted == completed + failed + shed_deadline + deadline_missed +
//!   cancelled`. Serving counters live on the [`ModelEntry`], so a
//!   multi-tenant server keeps one independent ledger per served name.
//! * A worker panic (injected or real) is isolated to its request; the
//!   engine rebuilds the scratch context it ran in and the worker keeps
//!   serving. A panic that escapes the per-request backstop restarts the
//!   worker loop. Either way the pool never shrinks.
//! * Successful responses are bit-identical to serial `try_infer` on a
//!   fresh context — the engine's no-poisoning guarantee, exercised here
//!   across panics, cancellations, context replacement, and coalesced
//!   micro-batches.
//! * Every context a request runs in is built by `ctx_for`:
//!   fallibly, and charged to its tenant for as long as it is cached.
//! * **Execution needs a slot.** There is one context slot per worker
//!   (`Shared::slots`), locked by whoever serves a batch in it, so at
//!   most `config.workers` inferences run at once and at most that many
//!   contexts are leased — workers and blocking callers counted together.
//!
//! **Where a request runs**: [`ModelClient::submit`] never blocks — the
//! request crosses the queue and a worker serves it. [`ModelClient::call`]
//! admits the same way, then, if nothing is queued and a worker is parked,
//! borrows that worker's slot and serves the request on the calling
//! thread; otherwise it queues and waits.
//!
//! Every decision — admission, batch formation, the breaker, the brownout
//! state — is [`crate::policy::Policy`]'s, called under the queue lock.
//! This module keeps the threads, the queue, the slots, the leases and the
//! traces. One queue and one pool serve every entry of a
//! [`ModelRegistry`] ([`Server::start_multi`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bitflow_graph::engine::InferenceContext;
use bitflow_graph::{BatchItem, BitFlowError, CancelToken, CompiledModel, RejectReason};
use bitflow_telemetry::{FlightRecorder, ServeSnapshot, Stage, TraceBuilder};
use bitflow_tensor::Tensor;

use crate::chaos;
use crate::config::ServerConfig;
use crate::govern::{MemoryLease, ResourceGovernor};
use crate::policy::{DegradationState, Outcome, Policy, Queued, Verdict};
use crate::registry::{ModelEntry, ModelRegistry};

/// Locks, treating poisoning as recovered: the runtime catches panics
/// around everything that runs under these locks, and the guarded state
/// stays consistent (counters and queues are updated atomically with
/// respect to the panic points).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One-shot response cell: worker resolves, caller waits.
#[derive(Default)]
struct ResponseSlot {
    result: Mutex<Option<Result<Vec<f32>, BitFlowError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// First resolution wins; later calls are no-ops (by construction
    /// there are none, but a response cell must not be able to flap).
    fn resolve(&self, r: Result<Vec<f32>, BitFlowError>) {
        let mut cell = lock(&self.result);
        if cell.is_none() {
            *cell = Some(r);
            self.ready.notify_all();
        }
    }
}

/// The caller's end of an admitted request.
pub struct ResponseHandle {
    id: u64,
    token: CancelToken,
    slot: Arc<ResponseSlot>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl ResponseHandle {
    /// Server-assigned request id (also the chaos decision stream and the
    /// engine's inference tag inside micro-batches).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cooperatively cancels the request. If it is still queued it
    /// resolves as [`BitFlowError::Cancelled`] without running; if it is
    /// mid-inference it stops at the next operator boundary.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    #[must_use]
    pub fn try_wait(&self) -> Option<Result<Vec<f32>, BitFlowError>> {
        lock(&self.slot.result).take()
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<Vec<f32>, BitFlowError> {
        let mut cell = lock(&self.slot.result);
        loop {
            if let Some(r) = cell.take() {
                return r;
            }
            cell = self
                .slot
                .ready
                .wait(cell)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One request as handed to [`ModelClient::submit`]: the input plus the
/// context that travels with it to the engine.
pub struct Submission {
    /// Input image.
    pub input: Tensor,
    /// Deadline and/or external cancellation. `None` applies the
    /// configured [`ServerConfig::default_deadline`] (if any).
    pub token: Option<CancelToken>,
    /// A caller-opened request trace: the server records its admit /
    /// queue-wait / batch-formation / exec stages (and the engine its
    /// operator spans) into it, but does **not** finish it — the caller
    /// finishes and offers it to the recorder after the response leaves
    /// the process, so post-serve stages land in the same trace. `None`
    /// lets the server open (and finish) its own when a recorder is
    /// configured.
    pub trace: Option<Arc<TraceBuilder>>,
}

impl Submission {
    /// A request with the default deadline and no caller-opened trace.
    #[must_use]
    pub fn new(input: Tensor) -> Self {
        Self {
            input,
            token: None,
            trace: None,
        }
    }
}

/// A request's lifecycle trace as it travels the queue. `owned` traces
/// were opened by the server itself — finished and offered to the flight
/// recorder when the request resolves. A front-end-opened trace
/// (`owned == false`) is finished by the front end after the response
/// bytes leave the process, so the write stage lands in the same trace.
struct TraceRef {
    tb: Arc<TraceBuilder>,
    owned: bool,
}

/// One queued request. The model `Arc` is captured at admission: a hot
/// swap concurrent with this request does not change the weights it runs
/// against.
struct Request {
    id: u64,
    entry: Arc<ModelEntry>,
    model: Arc<CompiledModel>,
    input: Tensor,
    token: CancelToken,
    slot: Arc<ResponseSlot>,
    /// When the request entered the admission queue.
    enqueued_at: Instant,
    /// When a worker dequeued it (= `enqueued_at` until actually popped,
    /// so the queue-wait arithmetic is total even for evicted requests).
    popped_at: Instant,
    /// Lifecycle trace travelling with the request (`None`: tracing off).
    trace: Option<TraceRef>,
    /// The governor's byte charge for this request's payload, released
    /// (by drop) when the request resolves — whatever path resolves it.
    _lease: MemoryLease,
}

impl Request {
    /// The request as the engine runs it: its id is the tag fault hooks
    /// see.
    fn item(&self) -> BatchItem<'_> {
        BatchItem {
            input: &self.input,
            cancel: &self.token,
            tag: self.id,
            trace: self.trace.as_ref().map(|t| Arc::clone(&t.tb)),
        }
    }
}

impl Queued for Request {
    fn deadline(&self) -> Option<Instant> {
        self.token.deadline()
    }

    fn cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    fn batches_with(&self, head: &Self) -> bool {
        Arc::ptr_eq(&self.model, &head.model)
    }
}

/// Everything under the queue lock: the queue, the drain flag, and the
/// policy that decides admission, batching, degradation and the breaker.
struct QueueState {
    items: VecDeque<Request>,
    draining: bool,
    policy: Policy,
}

struct Shared {
    registry: ModelRegistry,
    default_entry: Arc<ModelEntry>,
    governor: Arc<ResourceGovernor>,
    config: ServerConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    next_id: AtomicU64,
    pops: AtomicU64,
    /// One scratch-context slot per worker, locked by whoever is serving
    /// a batch in it: the worker itself, or — while that worker is parked
    /// — a blocking caller ([`ModelClient::call`]). Execution needs a
    /// slot, so at most `config.workers` inferences run and at most that
    /// many contexts are leased, workers and callers counted together.
    slots: Vec<Mutex<CtxCache>>,
}

impl Shared {
    /// A slot nobody is serving in, with its worker's id. Never blocks.
    fn free_slot(&self) -> Option<(u64, MutexGuard<'_, CtxCache>)> {
        self.slots
            .iter()
            .zip(0u64..)
            .find_map(|(slot, worker_id)| match slot.try_lock() {
                Ok(cache) => Some((worker_id, cache)),
                Err(TryLockError::Poisoned(p)) => Some((worker_id, p.into_inner())),
                Err(TryLockError::WouldBlock) => None,
            })
    }

    /// Ticks the policy (the queue lock held) against the governor's
    /// pressure, publishing a state change on every tenant's gauge.
    fn tick(&self, q: &mut QueueState, now: Instant) -> DegradationState {
        let pressure = self.governor.pressure_permille();
        if let Some(state) = q.policy.tick(now, pressure, q.items.len()) {
            for entry in self.registry.entries() {
                entry
                    .counters()
                    .govern
                    .degradation_state
                    .set(state.as_u64());
            }
        }
        q.policy.state()
    }
}

/// The serving runtime. Dropping it drains: admissions stop
/// ([`RejectReason::Draining`]), queued requests are still served, workers
/// are joined.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a single-model server: the model is registered as
    /// [`crate::registry::DEFAULT_MODEL`], unmetered, and the
    /// [`Server::submit`] pair targets it. If the model has telemetry
    /// enabled, serving counters land in the same
    /// [`bitflow_telemetry::MetricsSnapshot`] as its operator metrics;
    /// otherwise the server keeps standalone gauges (see
    /// [`Server::metrics`]).
    #[must_use]
    pub fn start(model: Arc<CompiledModel>, config: ServerConfig) -> Self {
        Self::start_multi(ModelRegistry::single(model), config)
    }

    /// Starts `config.workers` worker threads over every model in
    /// `registry`. One queue and one pool serve all tenants; per-model
    /// quotas and gauges keep them isolated and accountable. The first
    /// registered entry is the default the [`Server::submit`] pair
    /// targets; use [`Server::client`] to address the others.
    ///
    /// # Panics
    /// If the registry is empty.
    #[must_use]
    pub fn start_multi(registry: ModelRegistry, mut config: ServerConfig) -> Self {
        assert!(
            !registry.entries().is_empty(),
            "a server needs at least one registered model"
        );
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        config.max_batch = config.max_batch.max(1);
        let alloc_fail_nth = config.chaos.as_ref().map_or(0, |c| c.alloc_fail_nth);
        let governor = ResourceGovernor::new(config.govern, alloc_fail_nth);
        for entry in registry.entries() {
            let budget = &entry.counters().govern.mem_budget_bytes;
            budget.set(governor.tenant_budget());
            ready_to_serve(&config, &governor, entry, &entry.current());
        }
        let default_entry = Arc::clone(&registry.entries()[0]);
        let shared = Arc::new(Shared {
            registry,
            default_entry,
            governor,
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                draining: false,
                policy: Policy::new(&config),
            }),
            available: Condvar::new(),
            next_id: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            slots: (0..config.workers).map(|_| Mutex::default()).collect(),
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bitflow-serve-{worker_id}"))
                    .spawn(move || worker_main(&shared, worker_id))
            })
            .filter_map(Result::ok)
            .collect();
        Self { shared, workers }
    }

    /// Submits to the default model with the configured default deadline
    /// (if any).
    pub fn submit(&self, input: Tensor) -> Result<ResponseHandle, RejectReason> {
        self.default_client().submit(Submission::new(input))
    }

    /// Submits to the default model with an explicit latency budget
    /// (overrides the default).
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        budget: Duration,
    ) -> Result<ResponseHandle, RejectReason> {
        self.default_client().submit(Submission {
            token: Some(CancelToken::with_budget(budget)),
            ..Submission::new(input)
        })
    }

    /// The submission handle of the default model (the first registered
    /// entry).
    #[must_use]
    pub fn default_client(&self) -> ModelClient<'_> {
        ModelClient {
            server: self,
            entry: Arc::clone(&self.shared.default_entry),
        }
    }

    /// A submission handle scoped to one registered model, or `None` if
    /// `name` is not registered. The client borrows the server: tenants
    /// cannot outlive the pool serving them.
    #[must_use]
    pub fn client(&self, name: &str) -> Option<ModelClient<'_>> {
        self.shared.registry.get(name).map(|entry| ModelClient {
            server: self,
            entry: Arc::clone(entry),
        })
    }

    /// The tenant set this server serves.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Point-in-time serving counters of the **default** model (shared
    /// with its telemetry when that is enabled). Per-tenant counters live
    /// on [`ModelClient::metrics`].
    #[must_use]
    pub fn metrics(&self) -> ServeSnapshot {
        self.shared.default_entry.counters().snapshot()
    }

    /// The default model's live gauges handle (e.g. to wire into an
    /// exporter).
    #[must_use]
    pub fn gauges(&self) -> Arc<bitflow_telemetry::ServeGauges> {
        self.shared.default_entry.gauges()
    }

    /// The flight recorder receiving finished request traces, if tracing
    /// is enabled — a network front-end shares it for its `/debug`
    /// endpoints and for offering its own connection-opened traces.
    #[must_use]
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.config.recorder.clone()
    }

    /// Whether the circuit breaker is currently shedding admissions — the
    /// health signal a front-end's `/healthz` endpoint reports.
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        lock(&self.shared.queue).policy.breaker_open(Instant::now())
    }

    /// The resource governor metering this server's byte budgets.
    #[must_use]
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.shared.governor
    }

    /// Re-evaluates and returns the degradation state. Health endpoints
    /// poll this; the polling itself drives autonomous recovery — an
    /// idle server steps back toward `Normal` as soon as anything looks
    /// at it.
    #[must_use]
    pub fn degradation_state(&self) -> DegradationState {
        self.shared
            .tick(&mut lock(&self.shared.queue), Instant::now())
    }

    /// Whether the server has begun draining for shutdown. New
    /// submissions are rejected with [`RejectReason::Draining`].
    #[must_use]
    pub fn draining(&self) -> bool {
        lock(&self.shared.queue).draining
    }

    /// Stops admissions without stopping the pool: from here on `submit`
    /// returns [`RejectReason::Draining`] while already-queued requests
    /// are still served. Irreversible; [`Server::shutdown`] completes it.
    pub fn drain(&self) {
        lock(&self.shared.queue).draining = true;
        self.shared.available.notify_all();
    }

    /// Stops admissions, serves out the queue, joins the pool, and
    /// returns the default model's final counters (its weights still
    /// leased: the entry outlives the pool).
    pub fn shutdown(self) -> ServeSnapshot {
        let entry = Arc::clone(&self.shared.default_entry);
        drop(self);
        entry.counters().snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A submission handle scoped to one tenant of a multi-model server.
pub struct ModelClient<'a> {
    server: &'a Server,
    entry: Arc<ModelEntry>,
}

impl std::fmt::Debug for ModelClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelClient")
            .field("entry", &self.entry)
            .finish_non_exhaustive()
    }
}

impl ModelClient<'_> {
    /// Submits one request to this tenant through the admission queue.
    /// Never blocks: the request is either admitted or rejected with a
    /// typed reason, counted either way.
    pub fn submit(&self, request: Submission) -> Result<ResponseHandle, RejectReason> {
        let (q, req) = self.admit(request)?;
        Ok(enqueue(&self.server.shared, q, req))
    }

    /// Submits one request and blocks for its answer; a refusal at
    /// admission comes back as [`BitFlowError::Rejected`]. Admission is
    /// [`ModelClient::submit`]'s. Then, when nothing is queued and a
    /// worker is parked, the request runs here, on the calling thread, in
    /// that worker's context — a thread that is going to block for the
    /// answer anyway saves the two hand-offs to a worker and back.
    /// Otherwise it queues and waits like any other request, so a caller
    /// never overtakes queued work and never runs beside a full pool.
    pub fn call(&self, request: Submission) -> Result<Vec<f32>, BitFlowError> {
        let sh = &*self.server.shared;
        let (mut q, req) = self.admit(request).map_err(BitFlowError::Rejected)?;
        let free = if q.items.is_empty() {
            sh.free_slot()
        } else {
            None
        };
        let Some((worker_id, mut cache)) = free else {
            return enqueue(sh, q, req).wait();
        };
        req.entry.counters().admitted_on_caller();
        q.policy.begin();
        drop(q);
        // The worker's obligations come with its slot: the backstop
        // around everything outside the engine's own per-request one, and
        // a fresh cache after a chaos kill — there is no loop to unwind
        // here, so a kill only costs the context.
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_pop(sh, worker_id, &mut cache, std::slice::from_ref(&req), true)
        }));
        if !matches!(served, Ok(None)) {
            *cache = None;
            sh.default_entry.counters().worker_restarts.inc();
        }
        drop(cache);
        let answer = lock(&req.slot.result).take();
        answer.unwrap_or_else(|| {
            Err(BitFlowError::Internal(
                "the serving runtime panicked outside inference".to_string(),
            ))
        })
    }

    /// The admission body `submit` and `call` share: the policy's verdict
    /// ([`Policy::admit`]), then the payload lease and the quota, each
    /// refusal counted. On success the request is built and the queue is
    /// still locked, so where it goes next is decided under the lock that
    /// admitted it.
    fn admit(
        &self,
        request: Submission,
    ) -> Result<(MutexGuard<'_, QueueState>, Request), RejectReason> {
        let Submission {
            input,
            token,
            trace,
        } = request;
        let entry = &self.entry;
        let sh = &self.server.shared;
        let t_submit = Instant::now();
        let token = token.unwrap_or_else(|| match sh.config.default_deadline {
            Some(budget) => CancelToken::with_budget(budget),
            None => CancelToken::new(),
        });
        // A front-end trace is adopted as-is; otherwise the server opens
        // one itself when (and only when) a recorder is configured, so the
        // untraced submit path allocates nothing extra.
        let trace = match trace {
            Some(tb) => Some(TraceRef { tb, owned: false }),
            None => sh.config.recorder.as_ref().map(|_| TraceRef {
                tb: Arc::new(TraceBuilder::with_origin(String::new(), t_submit)),
                owned: true,
            }),
        };
        if let Some(t) = &trace {
            t.tb.set_tenant(entry.name());
        }
        entry.counters().submitted.inc();
        let refuse = |reason| Err(reject(sh, entry, &trace, t_submit, reason));
        let mut q = lock(&sh.queue);
        // Every submission ticks the state machine, so the verdict sees
        // the state as of now — before the request costs queue space or
        // bytes.
        sh.tick(&mut q, t_submit);
        let QueueState {
            items,
            draining,
            policy,
        } = &mut *q;
        match policy.admit(entry.priority(), items, *draining, t_submit) {
            Verdict::Admit => {}
            Verdict::Evict(i) => {
                if let Some(victim) = items.remove(i) {
                    victim.entry.counters().dequeued();
                    account(sh, &victim, Err(dead_error(&victim)), true);
                }
            }
            Verdict::Refuse(reason) => return refuse(reason),
        }
        // The payload's byte charge rides just ahead of the quota: the
        // lease is RAII, so a quota reject below releases it by drop and
        // the "no reject path needs a release" discipline still holds.
        let bytes = std::mem::size_of_val(input.data()) as u64;
        let Ok(lease) = sh
            .governor
            .reserve(entry.counters(), bytes, "request payload")
        else {
            return refuse(RejectReason::MemoryPressure);
        };
        // Quota last, after every other reject: a charge is then always
        // matched by an admitted request, and no reject path needs a
        // release.
        if !entry.try_admit() {
            return refuse(RejectReason::QuotaExceeded);
        }
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        if let Some(t) = &trace {
            t.tb.set_request_id(id);
            t.tb.stage(Stage::Admit, t_submit, now);
        }
        let req = Request {
            id,
            entry: Arc::clone(entry),
            model: entry.current(),
            input,
            token,
            slot: Arc::new(ResponseSlot::default()),
            enqueued_at: now,
            popped_at: now,
            trace,
            _lease: lease,
        };
        Ok((q, req))
    }

    /// The registry entry this client submits to.
    #[must_use]
    pub fn entry(&self) -> &Arc<ModelEntry> {
        &self.entry
    }

    /// This tenant's point-in-time serving counters.
    #[must_use]
    pub fn metrics(&self) -> ServeSnapshot {
        self.entry.counters().snapshot()
    }

    /// Charges `bytes` of not-yet-read request body against this tenant's
    /// budget: the network front-end calls this before reading a body, so
    /// a hostile `content-length` is refused before a byte is buffered.
    /// Any refusal, injected ones included, is
    /// [`RejectReason::MemoryPressure`]. No serving counters move here: the
    /// request was never submitted, so the conservation law is untouched.
    pub fn reserve_body(&self, bytes: u64) -> Result<MemoryLease, RejectReason> {
        self.server
            .shared
            .governor
            .reserve(self.entry.counters(), bytes, "request body")
            .map_err(|_| RejectReason::MemoryPressure)
    }

    /// A coarse backoff hint for rejected submissions against this
    /// tenant, from the shared queue depth and the tenant's batch EWMA.
    #[must_use]
    pub fn retry_after_hint(&self) -> Duration {
        let config = &self.server.shared.config;
        let depth = lock(&self.server.shared.queue).items.len() as u64;
        let batches = depth.div_ceil(config.max_batch as u64);
        let ns = batches.saturating_mul(self.entry.est_batch_ns().max(1)) / config.workers as u64;
        Duration::from_nanos(ns).max(Duration::from_secs(1))
    }

    /// Hot-swaps this tenant's model with zero downtime: in-flight and
    /// queued requests finish on the weights they were admitted with;
    /// subsequent admissions run `new`. Returns the displaced model. If
    /// the server injects operator chaos, the replacement gets the fault
    /// hook before it can serve.
    pub fn swap(&self, new: Arc<CompiledModel>) -> Arc<CompiledModel> {
        let shared = &self.server.shared;
        ready_to_serve(&shared.config, &shared.governor, &self.entry, &new);
        self.entry.swap_model(new)
    }
}

/// Readies `model` to serve under `entry`: the chaos fault hook (the first
/// installer wins), and a forced charge for its weights that replaces the
/// displaced model's lease — forced, because a server must start even
/// overcommitted and let the brownout machine degrade it. A displaced
/// model draining its last requests is briefly unaccounted.
fn ready_to_serve(
    config: &ServerConfig,
    governor: &Arc<ResourceGovernor>,
    entry: &ModelEntry,
    model: &CompiledModel,
) {
    if let Some(c) = config
        .chaos
        .as_ref()
        .filter(|c| c.slow_ppm > 0 || c.panic_ppm > 0)
    {
        let _ = model.install_fault_hook(chaos::fault_hook(c.clone()));
    }
    let bytes = (model.float_model_bytes() + model.packed_model_bytes()) as u64;
    drop(entry.set_weight_lease(governor.reserve_forced(entry.counters(), bytes)));
}

/// Puts an admitted request in the queue (still locked by its admission),
/// wakes a worker for it, and returns the caller's end.
fn enqueue(shared: &Shared, mut q: MutexGuard<'_, QueueState>, req: Request) -> ResponseHandle {
    let handle = ResponseHandle {
        id: req.id,
        token: req.token.clone(),
        slot: Arc::clone(&req.slot),
    };
    req.entry.counters().enqueued();
    q.items.push_back(req);
    drop(q);
    shared.available.notify_one();
    handle
}

/// Counts a rejection on the entry's ledger and passes the reason
/// through. With a trace: stamps the admit stage and a `rejected:*`
/// outcome, and (for server-owned traces) finishes the trace into the
/// recorder — so every shed admission is visible in the flight recorder,
/// per its always-retain-errors policy.
fn reject(
    shared: &Shared,
    entry: &ModelEntry,
    trace: &Option<TraceRef>,
    t_submit: Instant,
    reason: RejectReason,
) -> RejectReason {
    if let Some(t) = trace {
        t.tb.stage(Stage::Admit, t_submit, Instant::now());
        t.tb.set_outcome(&format!("rejected:{}", reason.label()));
        finish_owned(shared, t);
    }
    entry.counters().rejected(reason.label());
    reason
}

/// Finishes a server-owned trace into the recorder; a front-end-owned
/// trace is left open for the front end to finish after the write stage.
fn finish_owned(shared: &Shared, t: &TraceRef) {
    if t.owned {
        if let Some(rec) = &shared.config.recorder {
            rec.offer(t.tb.finish());
        }
    }
}

/// The error a request found dead resolves with: caller cancellation wins
/// over deadline expiry, mirroring [`CancelToken::check`].
fn dead_error(req: &Request) -> BitFlowError {
    if req.token.is_cancelled() {
        BitFlowError::Cancelled
    } else {
        BitFlowError::DeadlineExceeded
    }
}

/// A worker's scratch context, keyed by the model it was built for, with
/// the governor's byte charge for it (held while cached). In a multi-model
/// server a worker hops between tenants; the cache rebuilds only when the
/// served model changes (hot swap or tenant hop), so the common
/// single-tenant path reuses one context forever.
type CtxCache = Option<(Arc<CompiledModel>, InferenceContext, MemoryLease)>;

/// The cached context for `req`'s model, building one fallibly on a miss:
/// the allocation goes through [`CompiledModel::try_new_context`] and its
/// bytes are charged to the request's tenant — the typed error on refusal
/// fails one request instead of aborting the worker. The request was
/// admitted, so a refused charge is the failure `try_new_context` reports,
/// [`BitFlowError::ResourceExhausted`], never an admission refusal: the
/// wire, the counters and the trace all read it as a failure.
fn ctx_for<'c>(
    cache: &'c mut CtxCache,
    shared: &Shared,
    req: &Request,
) -> Result<&'c mut InferenceContext, BitFlowError> {
    let model = &req.model;
    if !matches!(cache, Some((cached, ..)) if Arc::ptr_eq(cached, model)) {
        // Free the displaced context's charge before building the
        // replacement, so a tight budget can still hop tenants.
        *cache = None;
        let ctx = model.try_new_context()?;
        let bytes = ctx.activation_bytes() as u64;
        let lease = shared
            .governor
            .reserve(req.entry.counters(), bytes, "inference context")
            .map_err(|_| BitFlowError::ResourceExhausted {
                what: "inference context",
                bytes,
            })?;
        *cache = Some((Arc::clone(model), ctx, lease));
    }
    match cache {
        Some((_, ctx, _)) => Ok(ctx),
        None => unreachable!("the cache was just filled"),
    }
}

/// Blocks for the next micro-batch: pops the queue head, then lets the
/// policy coalesce compatible followers and (with a non-zero coalesce
/// window) wait a bounded time for more ([`Policy::batch`]). Returns `None`
/// when the queue is drained dry.
fn pop_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut q = lock(&shared.queue);
    let head = loop {
        if let Some(mut req) = q.items.pop_front() {
            req.popped_at = Instant::now();
            req.entry.counters().dequeued();
            break req;
        }
        if q.draining {
            return None;
        }
        q = shared
            .available
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    };
    q.policy.begin();
    let (popped, est) = (head.popped_at, head.entry.est_batch_ns());
    let mut batch = vec![head];
    let mut now = popped;
    loop {
        let QueueState {
            items,
            draining,
            policy,
        } = &mut *q;
        let taken = batch.len();
        let wait_until = policy.batch(items, &mut batch, est, popped, now);
        for req in &mut batch[taken..] {
            req.popped_at = now;
            req.entry.counters().dequeued();
        }
        let Some(until) = wait_until.filter(|_| !*draining) else {
            break;
        };
        q = shared
            .available
            .wait_timeout(q, until.saturating_duration_since(now))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        now = Instant::now();
    }
    if shared.config.max_batch > 1 && !q.items.is_empty() {
        // Incompatible requests may remain; make sure another worker
        // wakes for them (this worker consumed notifications while
        // coalescing).
        shared.available.notify_one();
    }
    Some(batch)
}

/// The watchdog shell around one worker: restarts the serving loop (with
/// a fresh context cache in its slot — the old one is mid-panic suspect)
/// until it exits cleanly at drain. Restarts are counted but never give
/// up: a worker that keeps dying keeps coming back, and the circuit
/// breaker — not the pool size — is what turns persistent faults into
/// load shedding.
fn worker_main(shared: &Shared, worker_id: usize) {
    loop {
        let exited = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, worker_id)));
        // Restarting or gone, the slot is emptied: at drain that returns
        // the context's lease (waiting out a caller still serving in it;
        // none can arrive after — admission is closed).
        *lock(&shared.slots[worker_id]) = None;
        match exited {
            Ok(()) => return,
            Err(_) => shared.default_entry.counters().worker_restarts.inc(),
        }
    }
}

/// Pops and serves micro-batches until drain completes, holding the
/// worker's slot only while it serves one (parked, the slot is free for a
/// blocking caller). Panics escape to [`worker_main`] only from the chaos
/// kill site or a bug in this crate — inference panics are contained
/// per-request inside the engine.
fn worker_loop(shared: &Shared, worker_id: usize) {
    loop {
        let Some(batch) = pop_batch(shared) else {
            return;
        };
        // A caller that borrowed the slot while this worker was parked is
        // waited out: one inference at most, as if the pool were busy.
        let mut cache = lock(&shared.slots[worker_id]);
        let killed = serve_pop(shared, worker_id as u64, &mut cache, &batch, false);
        drop(cache);
        if let Some(pop) = killed {
            panic!("chaos: injected worker kill (worker {worker_id}, pop {pop})");
        }
    }
}

/// Serves one pop — a worker's micro-batch, or a caller's own request —
/// in `cache`, the slot of worker `worker_id`, with that worker's seeded
/// chaos around it: a stall before the batch, and `Some(pop)` back when
/// chaos kills this pop. The kill is decided after `serve_batch`: every
/// request has resolved, so it can only cost a restart, never a response.
fn serve_pop(
    shared: &Shared,
    worker_id: u64,
    cache: &mut CtxCache,
    batch: &[Request],
    on_caller: bool,
) -> Option<u64> {
    let pop = shared.pops.fetch_add(1, Ordering::Relaxed);
    let chaos_cfg = shared.config.chaos.as_ref();
    if let Some(chaos_cfg) = chaos_cfg {
        if chaos_cfg.stall_hit(worker_id, pop) {
            std::thread::sleep(chaos_cfg.stall);
        }
    }
    serve_batch(shared, cache, batch, on_caller);
    chaos_cfg
        .is_some_and(|c| c.kill_hit(worker_id, pop))
        .then_some(pop)
}

/// Serves one micro-batch and resolves every slot. Exactly one outcome
/// counter fires per request, keeping the conservation law exact, and the
/// policy hears every outcome, under one lock, before any slot resolves.
fn serve_batch(shared: &Shared, cache: &mut CtxCache, batch: &[Request], on_caller: bool) {
    // Dead on arrival: don't spend an inference run on them. A singleton
    // — every pop of a calm queue, every caller-run request — is looked at
    // where it lies; only a real batch is split into vectors.
    let is_dead = |req: &&Request| req.token.is_cancelled() || req.token.deadline_passed();
    let (one, split);
    let (dead, live): (&[&Request], &[&Request]) = match batch {
        [only] => {
            one = [only];
            if is_dead(&only) {
                (&one, &[])
            } else {
                (&[], &one)
            }
        }
        _ => {
            split = batch.iter().partition::<Vec<_>, _>(is_dead);
            (&split.0, &split.1)
        }
    };
    let started = Instant::now();
    if let Some(head) = live.first() {
        head.entry.counters().batch_served(live.len() as u64);
        // Stage accounting: queue wait (enqueue → dequeue) and
        // batch-formation wait (dequeue → execution start) — always into
        // the entry's histograms, and into each request's trace when
        // tracing is on.
        let window_us = shared.config.coalesce_window.as_micros() as u64;
        let est_batch_ns = head.entry.est_batch_ns();
        let ran_on = if on_caller { "caller" } else { "worker" };
        for req in live {
            req.entry.counters().stage_queue_wait.record(
                req.popped_at
                    .saturating_duration_since(req.enqueued_at)
                    .as_nanos() as u64,
            );
            req.entry
                .counters()
                .stage_batch_wait
                .record(started.saturating_duration_since(req.popped_at).as_nanos() as u64);
            if let Some(t) = &req.trace {
                t.tb.stage(Stage::QueueWait, req.enqueued_at, req.popped_at);
                t.tb.stage(Stage::BatchWait, req.popped_at, started);
                t.tb.set_batch(live.len() as u64, window_us, est_batch_ns, ran_on);
            }
        }
    }
    // The batch shares one model (`Policy::batch` groups by model), so one
    // cached, leased context serves it: the engine runs the items back to
    // back in it, or — when a share is worth waking the worker team — fans
    // them out, this thread still working in it.
    let mut results = Vec::new();
    while results.len() < live.len() {
        let rest = &live[results.len()..];
        let ctx = match ctx_for(cache, shared, rest[0]) {
            Ok(ctx) => ctx,
            Err(e) => {
                // Context creation refused (budget or injected allocation
                // failure): this request fails typed, the worker lives,
                // and the next request retries the build.
                results.push(Err(e));
                continue;
            }
        };
        // A singleton lends its item from the stack: on the 26 µs
        // loopback round trip of `small_cnn`, a one-element vector here
        // measured 0.6 µs.
        let (one, many);
        let items = match rest {
            [only] => {
                one = only.item();
                std::slice::from_ref(&one)
            }
            _ => {
                many = rest.iter().map(|req| req.item()).collect::<Vec<_>>();
                many.as_slice()
            }
        };
        let t0 = Instant::now();
        let ran = rest[0].model.run_batch(ctx, items);
        let t1 = Instant::now();
        // One engine call serves the batch, so per-request exec is the
        // whole batch's span; the operator spans inside the trace carry
        // the item-exact timings.
        let exec_ns = t1.saturating_duration_since(t0).as_nanos() as u64;
        for req in rest {
            req.entry.counters().stage_exec.record(exec_ns);
            if let Some(t) = &req.trace {
                t.tb.stage(Stage::Exec, t0, t1);
            }
        }
        // Taking the engine's vector whole keeps a singleton at one
        // allocation.
        if results.is_empty() {
            results = ran;
        } else {
            results.extend(ran);
        }
    }
    // The policy hears every outcome, under one lock, before any slot
    // resolves. The breaker guards the whole pool, so its trips land on
    // the default entry's gauges.
    let done = Instant::now();
    let outcomes = dead.iter().map(|req| Outcome::of(&Err(dead_error(req))));
    if lock(&shared.queue)
        .policy
        .on_outcomes(outcomes.chain(results.iter().map(Outcome::of)), done)
    {
        shared.default_entry.counters().breaker_trips.inc();
    }
    for req in dead {
        account(shared, req, Err(dead_error(req)), true);
    }
    for (req, result) in live.iter().zip(results) {
        account(shared, req, result, false);
    }
    if let Some(head) = live.first() {
        let ns = done.saturating_duration_since(started).as_nanos();
        head.entry
            .record_batch_ns(u64::try_from(ns).unwrap_or(u64::MAX));
    }
}

/// Counts one request's outcome on its entry's ledger, releases its quota
/// charge, and resolves its slot. A `shed` request died in the queue
/// (evicted at a full queue, or popped dead) and never ran: its queue wait
/// ends here, and an expired deadline counts as `shed_deadline`.
fn account(shared: &Shared, req: &Request, result: Result<Vec<f32>, BitFlowError>, shed: bool) {
    let counters = req.entry.counters();
    if shed {
        let now = Instant::now();
        let waited = now.saturating_duration_since(req.enqueued_at);
        counters.stage_queue_wait.record(waited.as_nanos() as u64);
        if let Some(t) = &req.trace {
            t.tb.stage(Stage::QueueWait, req.enqueued_at, now);
        }
    }
    let label = match &result {
        Ok(_) => {
            counters.completed.inc();
            ""
        }
        Err(BitFlowError::Cancelled) => {
            counters.cancelled.inc();
            "cancelled"
        }
        Err(BitFlowError::DeadlineExceeded) if shed => {
            counters.shed_deadline.inc();
            "shed:deadline"
        }
        Err(BitFlowError::DeadlineExceeded) => {
            counters.deadline_missed.inc();
            "deadline"
        }
        Err(BitFlowError::Internal(_)) => {
            counters.worker_panics.inc();
            counters.failed.inc();
            "error:panic"
        }
        Err(_) => {
            counters.failed.inc();
            "error"
        }
    };
    if let Some(t) = &req.trace {
        if result.is_err() {
            t.tb.set_outcome(label);
        }
        finish_owned(shared, t);
    }
    // The quota slot first: a caller that holds its answer must find its
    // request out of flight, and may resubmit at once.
    req.entry.release();
    req.slot.resolve(result);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::config::BreakerConfig;
    use bitflow_graph::models::small_cnn;
    use bitflow_graph::weights::NetworkWeights;
    use bitflow_tensor::Layout;
    use rand::{rngs::StdRng, SeedableRng};

    fn model_with_seed(seed: u64) -> Arc<CompiledModel> {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(seed);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        Arc::new(CompiledModel::try_compile(&spec, &weights).expect("seed model compiles"))
    }

    fn model_and_inputs(n: usize) -> (Arc<CompiledModel>, Vec<Tensor>) {
        let spec = small_cnn();
        let mut rng = StdRng::seed_from_u64(42);
        let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
        let model = CompiledModel::try_compile(&spec, &weights).expect("seed model compiles");
        let inputs = (0..n)
            .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
            .collect();
        (Arc::new(model), inputs)
    }

    /// Chaos that always stalls each pop for `stall`, and nothing else.
    fn always_stall(stall: Duration) -> ChaosConfig {
        ChaosConfig {
            seed: 1,
            stall_ppm: 1_000_000,
            stall,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn responses_match_serial_inference() {
        let (model, inputs) = model_and_inputs(8);
        let server = Server::start(Arc::clone(&model), ServerConfig::default());
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|i| server.submit(i.clone()).expect("admitted"))
            .collect();
        let mut oracle_ctx = model.try_new_context().expect("context");
        for (input, handle) in inputs.iter().zip(handles) {
            let want = model.try_infer(&mut oracle_ctx, input).expect("oracle");
            assert_eq!(handle.wait().expect("served"), want);
        }
        let snap = server.shutdown();
        assert_eq!(snap.submitted, 8);
        assert_eq!(snap.accepted, 8);
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn full_queue_rejects_newest() {
        let (model, inputs) = model_and_inputs(4);
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                chaos: Some(always_stall(Duration::from_millis(300))),
                ..ServerConfig::default()
            },
        );
        let first = server.submit(inputs[0].clone()).expect("first admitted");
        // Let the worker pop the first request and enter its stall, so
        // the queue is empty again and its single slot is free.
        std::thread::sleep(Duration::from_millis(50));
        let second = server.submit(inputs[1].clone()).expect("second admitted");
        match server.submit(inputs[2].clone()) {
            Err(RejectReason::QueueFull) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert!(first.wait().is_ok());
        assert!(second.wait().is_ok());
        let snap = server.shutdown();
        assert_eq!(snap.rejected_queue_full, 1);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.accepted, 2);
    }

    #[test]
    fn deadline_aware_shedding_evicts_dead_entries() {
        let (model, inputs) = model_and_inputs(4);
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                chaos: Some(always_stall(Duration::from_millis(300))),
                ..ServerConfig::default()
            },
        );
        let first = server.submit(inputs[0].clone()).expect("first admitted");
        std::thread::sleep(Duration::from_millis(50));
        // Queued with a deadline that expires while it waits.
        let doomed = server
            .submit_with_deadline(inputs[1].clone(), Duration::from_millis(1))
            .expect("doomed admitted");
        std::thread::sleep(Duration::from_millis(10));
        // Queue is full, but the queued entry is dead: evicted, admitted.
        let third = server.submit(inputs[2].clone()).expect("third admitted");
        assert!(matches!(doomed.wait(), Err(BitFlowError::DeadlineExceeded)));
        assert!(first.wait().is_ok());
        assert!(third.wait().is_ok());
        let snap = server.shutdown();
        assert_eq!(snap.rejected_queue_full, 0);
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.completed, 2);
    }

    #[test]
    fn cancelled_request_resolves_cancelled() {
        let (model, inputs) = model_and_inputs(1);
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                chaos: Some(always_stall(Duration::from_millis(200))),
                ..ServerConfig::default()
            },
        );
        let handle = server.submit(inputs[0].clone()).expect("admitted");
        handle.cancel();
        assert!(matches!(handle.wait(), Err(BitFlowError::Cancelled)));
        let snap = server.shutdown();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn deadline_cuts_a_request_short() {
        let (model, inputs) = model_and_inputs(1);
        // Every operator sleeps 60ms; a 20ms budget cannot finish.
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                chaos: Some(ChaosConfig {
                    seed: 1,
                    slow_ppm: 1_000_000,
                    slow: Duration::from_millis(60),
                    ..ChaosConfig::default()
                }),
                ..ServerConfig::default()
            },
        );
        let handle = server
            .submit_with_deadline(inputs[0].clone(), Duration::from_millis(20))
            .expect("admitted");
        assert!(matches!(handle.wait(), Err(BitFlowError::DeadlineExceeded)));
        let snap = server.shutdown();
        // Cut mid-run or shed before running, depending on scheduling —
        // either way it is accounted exactly once.
        assert_eq!(snap.deadline_missed + snap.shed_deadline, 1);
        assert_eq!(snap.completed, 0);
    }

    #[test]
    fn an_idle_server_leaves_shed_after_a_stall_longer_than_the_budgets() {
        let (model, inputs) = model_and_inputs(1);
        let mut registry = ModelRegistry::new();
        registry.register("a", Arc::clone(&model), None);
        registry.register("b", model, None);
        let server = Server::start_multi(
            registry,
            ServerConfig {
                workers: 1,
                chaos: Some(always_stall(Duration::from_millis(20))),
                ..ServerConfig::default()
            },
        );
        // Every pop stalls past every budget: 24 misses take the miss EWMA
        // over the Shed threshold.
        let doomed: Vec<ResponseHandle> = (0..24)
            .map(|_| {
                server
                    .submit_with_deadline(inputs[0].clone(), Duration::from_millis(1))
                    .expect("admitted")
            })
            .collect();
        for handle in doomed {
            assert!(matches!(handle.wait(), Err(BitFlowError::DeadlineExceeded)));
        }
        assert_eq!(server.degradation_state(), DegradationState::Shed);
        // Every tenant's state gauge reads the change, not only the one
        // whose requests missed.
        let gauges = |name: &str| server.client(name).expect("registered").metrics();
        let states = || ["a", "b"].map(|name| gauges(name).govern.degradation_state);
        assert_eq!(states(), [2, 2]);
        // Shed refuses every Normal-priority request, so no outcome can
        // fold the EWMA back down: only idle time does.
        let give_up = Instant::now() + Duration::from_secs(5);
        loop {
            let state = server.degradation_state();
            if state == DegradationState::Normal {
                break;
            }
            assert!(
                Instant::now() < give_up,
                "an idle server stuck in {state:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(states(), [0, 0]);
        let handle = server.submit(inputs[0].clone()).expect("admitted again");
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn breaker_trips_after_consecutive_faults_and_recovers() {
        let (model, inputs) = model_and_inputs(8);
        let server = Server::start(
            Arc::clone(&model),
            ServerConfig {
                workers: 1,
                breaker: BreakerConfig {
                    fault_threshold: 3,
                    cooldown: Duration::from_millis(100),
                },
                // Every operator panics: each request is an isolated fault.
                chaos: Some(ChaosConfig {
                    seed: 1,
                    panic_ppm: 1_000_000,
                    ..ChaosConfig::default()
                }),
                ..ServerConfig::default()
            },
        );
        for input in inputs.iter().take(3) {
            let handle = server.submit(input.clone()).expect("admitted");
            match handle.wait() {
                Err(BitFlowError::Internal(msg)) => {
                    assert!(msg.contains("chaos"), "panic message survived: {msg}");
                    assert!(msg.contains("operator `"), "op attribution survived: {msg}");
                }
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        // Third consecutive fault tripped the breaker: shedding.
        match server.submit(inputs[3].clone()) {
            Err(RejectReason::Shedding) => {}
            other => panic!("expected Shedding, got {other:?}"),
        }
        // After the cooldown, admissions resume.
        std::thread::sleep(Duration::from_millis(120));
        let readmitted = server.submit(inputs[4].clone());
        assert!(readmitted.is_ok(), "breaker must close after cooldown");
        let _ = readmitted.map(ResponseHandle::wait);
        let snap = server.shutdown();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.rejected_shedding, 1);
        assert_eq!(snap.worker_panics, 4);
        assert_eq!(snap.failed, 4);
    }

    #[test]
    fn worker_kills_restart_without_losing_responses() {
        let (model, inputs) = model_and_inputs(6);
        let server = Server::start(
            Arc::clone(&model),
            ServerConfig {
                workers: 2,
                // Every pop kills its worker after the response resolves.
                chaos: Some(ChaosConfig {
                    seed: 1,
                    kill_ppm: 1_000_000,
                    ..ChaosConfig::default()
                }),
                ..ServerConfig::default()
            },
        );
        let mut oracle_ctx = model.try_new_context().expect("context");
        for input in &inputs {
            let want = model.try_infer(&mut oracle_ctx, input).expect("oracle");
            let handle = server.submit(input.clone()).expect("admitted");
            assert_eq!(handle.wait().expect("served across kills"), want);
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.worker_restarts, 6, "one restart per served pop");
    }

    #[test]
    fn shutdown_drains_queued_requests_and_rejects_new_ones() {
        let (model, inputs) = model_and_inputs(4);
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                chaos: Some(always_stall(Duration::from_millis(100))),
                ..ServerConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .take(3)
            .map(|i| server.submit(i.clone()).expect("admitted"))
            .collect();
        server.drain();
        match server.submit(inputs[3].clone()) {
            Err(RejectReason::Draining) => {}
            other => panic!("expected Draining, got {other:?}"),
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 3, "drain serves everything already queued");
        assert_eq!(snap.rejected_draining, 1);
        assert_eq!(snap.queue_depth, 0);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn micro_batches_coalesce_and_match_serial() {
        let (model, inputs) = model_and_inputs(32);
        // One worker that stalls 100ms per pop: submissions pile up behind
        // the first pop, so later pops must coalesce real batches.
        let server = Server::start(
            Arc::clone(&model),
            ServerConfig {
                workers: 1,
                max_batch: 8,
                chaos: Some(always_stall(Duration::from_millis(100))),
                ..ServerConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|i| server.submit(i.clone()).expect("admitted"))
            .collect();
        let mut oracle_ctx = model.try_new_context().expect("context");
        for (input, handle) in inputs.iter().zip(handles) {
            let want = model.try_infer(&mut oracle_ctx, input).expect("oracle");
            assert_eq!(
                handle.wait().expect("served"),
                want,
                "batched responses must be bit-identical to serial inference"
            );
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 32);
        assert_eq!(snap.batch_items, 32, "every request served via a batch");
        assert!(
            snap.batches < 32,
            "a deep queue must coalesce, got {} batches",
            snap.batches
        );
        assert!(snap.batch_size_max > 1);
        assert!(
            snap.batch_size_max <= 8,
            "max_batch bounds coalescing, got {}",
            snap.batch_size_max
        );
    }

    #[test]
    fn coalesce_window_waits_for_followers() {
        let (model, inputs) = model_and_inputs(2);
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                max_batch: 2,
                coalesce_window: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        );
        let h1 = server.submit(inputs[0].clone()).expect("admitted");
        std::thread::sleep(Duration::from_millis(20));
        let h2 = server.submit(inputs[1].clone()).expect("admitted");
        assert!(h1.wait().is_ok());
        assert!(h2.wait().is_ok());
        let snap = server.shutdown();
        // Whether the worker popped before or after the second submission,
        // the window merges both requests into one batch.
        assert_eq!(snap.batches, 1, "window must coalesce the follower");
        assert_eq!(snap.batch_items, 2);
        assert_eq!(snap.batch_size_max, 2);
    }

    #[test]
    fn drain_races_submit_without_losing_work() {
        let (model, inputs) = model_and_inputs(1);
        let server = Arc::new(Server::start(
            model,
            ServerConfig {
                workers: 2,
                queue_capacity: 4096,
                ..ServerConfig::default()
            },
        ));
        let submitter = {
            let server = Arc::clone(&server);
            let input = inputs[0].clone();
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                loop {
                    match server.submit(input.clone()) {
                        Ok(handle) => admitted.push(handle),
                        Err(RejectReason::Draining) => break,
                        // A tight submit loop can outrun the pool.
                        Err(RejectReason::QueueFull) => {}
                        Err(other) => panic!("unexpected rejection: {other:?}"),
                    }
                }
                // Draining is irreversible: later submissions must keep
                // being rejected the same way.
                for _ in 0..16 {
                    match server.submit(input.clone()) {
                        Err(RejectReason::Draining) => {}
                        other => panic!("expected Draining after drain, got {other:?}"),
                    }
                }
                admitted
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        server.drain();
        let admitted = submitter.join().expect("submitter thread");
        let accepted = admitted.len() as u64;
        for handle in admitted {
            assert!(
                handle.wait().is_ok(),
                "admitted work must be served across the drain race"
            );
        }
        let snap = server.metrics();
        assert!(snap.rejected_draining >= 16);
        assert_eq!(snap.accepted, accepted);
        assert_eq!(
            snap.submitted,
            snap.accepted + snap.rejected_draining + snap.rejected_queue_full,
            "conservation across the submit/drain race"
        );
        assert_eq!(snap.completed, accepted, "no admitted request was lost");
    }

    #[test]
    fn multi_model_tenancy_isolates_quotas_and_counters() {
        let model_a = model_with_seed(42);
        let model_b = model_with_seed(7);
        let (_, inputs) = model_and_inputs(5);
        let mut registry = ModelRegistry::new();
        registry.register("a", Arc::clone(&model_a), None);
        registry.register("b", Arc::clone(&model_b), Some(2));
        // One worker stalled 200ms per pop: quota-charged requests stay
        // unresolved while we submit, making the quota outcome exact.
        let server = Server::start_multi(
            registry,
            ServerConfig {
                workers: 1,
                max_batch: 8,
                chaos: Some(always_stall(Duration::from_millis(200))),
                govern: crate::GovernorConfig {
                    global_budget: Some(64 << 20),
                    tenant_budget: Some(48 << 20),
                },
                ..ServerConfig::default()
            },
        );
        assert!(server.client("c").is_none(), "unknown tenant");
        let client_a = server.client("a").expect("registered");
        let client_b = server.client("b").expect("registered");

        let mut b_handles = Vec::new();
        let mut b_rejected = 0u64;
        for input in &inputs {
            match client_b.submit(Submission::new(input.clone())) {
                Ok(h) => b_handles.push(h),
                Err(RejectReason::QuotaExceeded) => b_rejected += 1,
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        assert_eq!(b_handles.len(), 2, "quota admits exactly two");
        assert_eq!(b_rejected, 3);
        let a_handles: Vec<ResponseHandle> = inputs
            .iter()
            .take(4)
            .map(|i| {
                client_a
                    .submit(Submission::new(i.clone()))
                    .expect("unmetered tenant admits")
            })
            .collect();

        let mut ctx_a = model_a.try_new_context().expect("context");
        let mut ctx_b = model_b.try_new_context().expect("context");
        for (input, handle) in inputs.iter().zip(b_handles) {
            let want = model_b.try_infer(&mut ctx_b, input).expect("b oracle");
            assert_eq!(handle.wait().expect("served"), want);
        }
        for (input, handle) in inputs.iter().zip(a_handles) {
            let want = model_a.try_infer(&mut ctx_a, input).expect("a oracle");
            assert_eq!(handle.wait().expect("served"), want);
        }

        let snap_a = client_a.metrics();
        let snap_b = client_b.metrics();
        assert_eq!(
            (snap_a.submitted, snap_a.accepted, snap_a.completed),
            (4, 4, 4)
        );
        assert_eq!(
            (snap_b.submitted, snap_b.accepted, snap_b.completed),
            (5, 2, 2)
        );
        assert_eq!(snap_b.rejected_quota, 3);
        // The budget gauge reads the one each tenant is held to.
        assert_eq!(snap_b.govern.mem_budget_bytes, 48 << 20);
        assert_eq!(client_a.entry().in_flight(), 0, "quota fully released");
        assert_eq!(client_b.entry().in_flight(), 0, "quota fully released");
        drop(server);
    }

    #[test]
    fn recorder_captures_lifecycle_stages_and_retains_errors() {
        use bitflow_telemetry::{FlightRecorder, RecorderConfig};
        let (model, inputs) = model_and_inputs(4);
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
        let server = Server::start(
            Arc::clone(&model),
            ServerConfig {
                workers: 1,
                recorder: Some(Arc::clone(&recorder)),
                ..ServerConfig::default()
            },
        );
        assert!(server.recorder().is_some());
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .take(3)
            .map(|i| server.submit(i.clone()).expect("admitted"))
            .collect();
        let ids: Vec<u64> = handles.iter().map(ResponseHandle::id).collect();
        for h in handles {
            assert!(h.wait().is_ok());
        }
        // A cancelled request must be retained unconditionally. The token
        // is cancelled before submission, so the worker deterministically
        // finds it dead on arrival.
        let token = CancelToken::new();
        token.cancel();
        let doomed = server
            .default_client()
            .submit(Submission {
                token: Some(token),
                ..Submission::new(inputs[3].clone())
            })
            .expect("admitted");
        let doomed_id = doomed.id();
        assert!(matches!(doomed.wait(), Err(BitFlowError::Cancelled)));
        let _ = server.shutdown();
        let traces = recorder.dump();
        let cancelled = traces
            .iter()
            .find(|t| t.request_id == doomed_id && !t.is_ok())
            .expect("cancelled request retained by the always-keep-errors policy");
        assert!(
            cancelled.outcome == "cancelled" || cancelled.outcome == "shed:deadline",
            "unexpected outcome {:?}",
            cancelled.outcome
        );
        // Ok traces compete for the slow-N slots; with 4 offers and the
        // default window they are all still candidates, so every request
        // is visible with its full stage set.
        for id in ids {
            let t = traces
                .iter()
                .find(|t| t.request_id == id)
                .expect("ok trace visible");
            assert_eq!(t.tenant, crate::registry::DEFAULT_MODEL);
            assert!(t.batch_size >= 1);
            for stage in [
                Stage::Admit,
                Stage::QueueWait,
                Stage::BatchWait,
                Stage::Exec,
            ] {
                assert!(
                    t.stages.iter().any(|s| s.stage == stage),
                    "request {id} missing stage {stage:?} in {:?}",
                    t.stages
                );
            }
            assert!(!t.spans.is_empty(), "operator spans nested in the trace");
            let sum: u64 = t.stages.iter().map(|s| s.duration_ns).sum();
            assert!(
                sum <= t.total_ns + t.total_ns / 20 + 500_000,
                "stages (sum {sum}ns) must fit the request wall-clock ({}ns)",
                t.total_ns
            );
        }
    }

    #[test]
    fn a_refused_context_fails_its_admitted_request_as_exhausted() {
        use crate::govern::GovernorConfig;
        let (model, inputs) = model_and_inputs(1);
        let weights = (model.float_model_bytes() + model.packed_model_bytes()) as u64;
        let ctx = model.context_bytes() as u64;
        let payload = std::mem::size_of_val(inputs[0].data()) as u64;
        // Room for the weights and the payload, not for the worker's
        // context: admission takes the request, the worker cannot serve it.
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                govern: GovernorConfig {
                    global_budget: None,
                    tenant_budget: Some(weights + payload + ctx - 1),
                },
                ..ServerConfig::default()
            },
        );
        let handle = server.submit(inputs[0].clone()).expect("the payload fits");
        match handle.wait() {
            Err(BitFlowError::ResourceExhausted {
                what: "inference context",
                bytes,
            }) => assert_eq!(bytes, ctx),
            other => panic!("expected a refused context, got {other:?}"),
        }
        let snap = server.shutdown();
        let counted = (snap.accepted, snap.failed, snap.govern.rejected_memory);
        assert_eq!(counted, (1, 1, 0), "a failure, not an admission refusal");
    }

    #[test]
    fn coalesced_batches_run_in_the_one_leased_context() {
        use crate::govern::GovernorConfig;
        const BURST: u64 = 8;
        let (model, inputs) = model_and_inputs(BURST as usize);
        let weights = (model.float_model_bytes() + model.packed_model_bytes()) as u64;
        let ctx = model.context_bytes() as u64;
        let payload = std::mem::size_of_val(inputs[0].data()) as u64;
        // Room for the weights, the whole burst's payloads and one
        // context — not two.
        let budget = weights + BURST * payload + 2 * ctx - 1;
        let server = Server::start(
            model,
            ServerConfig {
                workers: 1,
                max_batch: BURST as usize,
                // The first pop waits for company, so the worker's very
                // first engine call is a coalesced batch.
                coalesce_window: Duration::from_millis(200),
                govern: GovernorConfig {
                    global_budget: None,
                    tenant_budget: Some(budget),
                },
                ..ServerConfig::default()
            },
        );
        let within_budget = |when: &str| {
            let used = server.governor().used();
            assert!(used <= budget, "{when}: {used} bytes charged of {budget}");
        };
        let mut admitted = Vec::new();
        for input in &inputs {
            // This close to the budget the brownout machine may shed the
            // tail of the burst; that is a typed outcome too.
            match server.submit(input.clone()) {
                Ok(handle) => admitted.push(handle),
                Err(RejectReason::MemoryPressure) => {}
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
            within_budget("submitting");
        }
        for handle in admitted {
            assert!(handle.wait().is_ok(), "admitted work is served");
            within_budget("serving");
        }
        let snap = server.metrics();
        assert!(snap.batch_size_max > 1, "the burst must coalesce");
        assert_eq!(snap.accepted, snap.completed);
        assert_eq!(snap.submitted, snap.accepted + snap.govern.rejected_memory);
        // Idle, the tenant holds its weights and the context the batches
        // ran in — the one context there ever was, and it is on the books.
        // (The worker drops a batch's payload leases just after it
        // resolves the last response.)
        let settle = Instant::now() + Duration::from_secs(5);
        while server.governor().used() != weights + ctx && Instant::now() < settle {
            std::thread::yield_now();
        }
        assert_eq!(server.governor().used(), weights + ctx);
        assert_eq!(server.metrics().govern.mem_leases, 2);
        let gauges = server.gauges();
        drop(server);
        let gone = gauges.snapshot().govern;
        assert_eq!((gone.mem_leases, gone.mem_used_bytes), (0, 0));
    }

    #[test]
    fn hot_swap_serves_new_model_without_downtime() {
        let model_a = model_with_seed(42);
        let model_b = model_with_seed(7);
        let (_, inputs) = model_and_inputs(1);
        let input = &inputs[0];
        let mut ctx_a = model_a.try_new_context().expect("context");
        let mut ctx_b = model_b.try_new_context().expect("context");
        let want_a = model_a.try_infer(&mut ctx_a, input).expect("a oracle");
        let want_b = model_b.try_infer(&mut ctx_b, input).expect("b oracle");
        assert_ne!(want_a, want_b, "seeds must produce distinct models");

        let server = Server::start(
            Arc::clone(&model_a),
            ServerConfig {
                workers: 1,
                chaos: Some(always_stall(Duration::from_millis(100))),
                ..ServerConfig::default()
            },
        );
        let client = server
            .client(crate::registry::DEFAULT_MODEL)
            .expect("default");
        // h1 captures the old model at admission; the swap races the stall
        // but can never retarget it.
        let h1 = server.submit(input.clone()).expect("admitted");
        let displaced = client.swap(Arc::clone(&model_b));
        assert!(Arc::ptr_eq(&displaced, &model_a));
        let h2 = server.submit(input.clone()).expect("admitted");
        assert_eq!(h1.wait().expect("served"), want_a, "pre-swap weights");
        assert_eq!(h2.wait().expect("served"), want_b, "post-swap weights");
        assert_eq!(client.entry().swaps(), 1);
        let snap = server.shutdown();
        assert_eq!(snap.completed, 2);
    }
}
