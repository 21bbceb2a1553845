//! `ModelClient::call`: a blocking caller serves its own request in a
//! parked worker's slot.
//!
//! What must hold, counting workers and callers together:
//!
//! * **At most `config.workers` inferences at once** — execution needs a
//!   slot, whoever runs it. A fault hook counts the executions in flight
//!   (it sees every operator boundary of every served request).
//! * **Nothing is lost or double-counted** — `submitted == accepted +
//!   rejected_*`, `accepted == completed + …`, every request passes
//!   `serve_batch` exactly once (`batch_items`), and `served_on_caller`
//!   says how many of them never touched the queue.
//! * **`submit` never blocks** — it returns while every inference in the
//!   process is held still.
//! * **A caller never runs beside a full pool** — with every slot busy,
//!   `call` queues like `submit` and a worker serves it.
//! * **The slots are empty after drain** — only the weight lease is left.
//!
//! Answers are bit-identical to serial `try_infer` throughout.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use bitflow_graph::{small_cnn, CompiledModel, NetworkWeights, UNTAGGED};
use bitflow_serve::{Server, ServerConfig, Submission};
use bitflow_telemetry::ServeSnapshot;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};

const WORKERS: usize = 2;
const INPUTS: usize = 8;

/// A compiled `small_cnn`, inputs for it, and their serial answers —
/// computed before any hook is installed.
fn model_inputs_oracle() -> (Arc<CompiledModel>, Vec<Tensor>, Vec<Vec<f32>>) {
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random_with_bn(&spec, &mut rng);
    let model = Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"));
    let inputs: Vec<Tensor> = (0..INPUTS)
        .map(|_| Tensor::random(spec.input, Layout::Nhwc, &mut rng))
        .collect();
    let mut ctx = model.try_new_context().expect("context allocates");
    let oracle = inputs
        .iter()
        .map(|i| model.try_infer(&mut ctx, i).expect("inference"))
        .collect();
    (model, inputs, oracle)
}

/// Served executions in flight, and the most there ever were.
#[derive(Default)]
struct InFlight {
    now: AtomicU64,
    peak: AtomicU64,
}

/// Installs a hook that counts served executions in flight — up at a
/// request's first operator, down at its last — and calls `at_start` in
/// between, while the execution is counted.
fn watch(model: &CompiledModel, at_start: impl Fn() + Send + Sync + 'static) -> Arc<InFlight> {
    let in_flight = Arc::new(InFlight::default());
    let last_op = model.op_descriptors().len() - 1;
    let seen = Arc::clone(&in_flight);
    assert!(model.install_fault_hook(Arc::new(move |op, _, tag| {
        // Untagged runs are the test's own oracle, not served requests.
        if tag == UNTAGGED {
            return;
        }
        if op == 0 {
            let now = seen.now.fetch_add(1, Ordering::SeqCst) + 1;
            seen.peak.fetch_max(now, Ordering::SeqCst);
            at_start();
        }
        if op == last_op {
            seen.now.fetch_sub(1, Ordering::SeqCst);
        }
    })));
    in_flight
}

fn server(model: &Arc<CompiledModel>) -> Server {
    Server::start(
        Arc::clone(model),
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 64,
            // One request per engine call: `batches` then counts requests.
            max_batch: 1,
            ..ServerConfig::default()
        },
    )
}

fn weight_bytes(model: &CompiledModel) -> u64 {
    (model.float_model_bytes() + model.packed_model_bytes()) as u64
}

/// The conservation laws, exact, for a run in which nothing was
/// cancelled, expired or refused; and the drained server's lease balance.
fn assert_conserved(snap: &ServeSnapshot, requests: u64, model: &CompiledModel) {
    let rejected = snap.rejected_queue_full
        + snap.rejected_shedding
        + snap.rejected_draining
        + snap.rejected_quota
        + snap.govern.rejected_memory;
    assert_eq!(snap.submitted, requests);
    assert_eq!(snap.submitted, snap.accepted + rejected);
    assert_eq!(
        snap.accepted,
        snap.completed + snap.failed + snap.shed_deadline + snap.deadline_missed + snap.cancelled
    );
    assert_eq!(
        snap.completed, requests,
        "calm traffic: everything completes"
    );
    // Every request went through `serve_batch` once, on a caller or on a
    // worker; `served_on_caller` is the callers' share of them.
    assert_eq!((snap.batches, snap.batch_items), (requests, requests));
    assert!(snap.served_on_caller <= snap.batches);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.worker_restarts, 0);
    // Workers joined and emptied their slots: the contexts' leases are
    // back, the payloads' went with their requests.
    assert_eq!(snap.govern.mem_leases, 1, "only the weight lease remains");
    assert_eq!(snap.govern.mem_used_bytes, weight_bytes(model));
}

#[test]
fn eight_callers_share_two_slots_with_the_workers() {
    const CALLERS: usize = 8;
    const EACH: usize = 40;
    let (model, inputs, oracle) = model_inputs_oracle();
    // Long enough in flight that executions overlap whenever they may.
    let in_flight = watch(&model, || std::thread::sleep(Duration::from_micros(200)));
    let server = server(&model);

    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (server, inputs, oracle) = (&server, &inputs, &oracle);
            s.spawn(move || {
                let client = server.default_client();
                for r in 0..EACH {
                    let i = (caller + r) % INPUTS;
                    let logits = client
                        .call(Submission::new(inputs[i].clone()))
                        .expect("calm traffic is served");
                    assert_eq!(logits, oracle[i], "caller {caller} request {r}");
                }
            });
        }
        // Queue traffic beside the callers: workers stay in the game, and
        // callers that find the queue occupied must line up behind it.
        s.spawn(|| {
            for r in 0..EACH {
                let i = r % INPUTS;
                let handle = server.submit(inputs[i].clone()).expect("admitted");
                assert_eq!(handle.wait().expect("served"), oracle[i], "submit {r}");
            }
        });
    });

    let peak = in_flight.peak.load(Ordering::SeqCst);
    assert!(
        (1..=WORKERS as u64).contains(&peak),
        "{peak} inferences ran at once on a pool of {WORKERS}"
    );
    assert_eq!(in_flight.now.load(Ordering::SeqCst), 0);
    assert_eq!(server.default_client().entry().in_flight(), 0);
    let snap = server.shutdown();
    assert_conserved(&snap, ((CALLERS + 1) * EACH) as u64, &model);
}

/// A gate every served execution stops at (inside its first operator
/// boundary, counted as in flight) until the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.opened.wait(open).expect("gate lock");
        }
    }

    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }
}

#[test]
fn with_both_slots_busy_call_queues_and_submit_still_returns_at_once() {
    let (model, inputs, oracle) = model_inputs_oracle();
    let gate = Arc::new(Gate::default());
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let entered_tx = Mutex::new(entered_tx);
    let in_flight = watch(&model, {
        let gate = Arc::clone(&gate);
        move || {
            let _ = entered_tx.lock().expect("sender lock").send(());
            gate.wait();
        }
    });
    let server = server(&model);
    let long = Duration::from_secs(30);

    std::thread::scope(|s| {
        let call = |i: usize| {
            let (server, inputs) = (&server, &inputs);
            s.spawn(move || {
                server
                    .default_client()
                    .call(Submission::new(inputs[i].clone()))
            })
        };
        // Two callers find the queue empty and a slot free each, and stop
        // at the gate inside it: both slots are now provably busy, on
        // threads that are not workers.
        let a = call(0);
        let b = call(1);
        for _ in 0..WORKERS {
            entered_rx.recv_timeout(long).expect("a caller took a slot");
        }
        assert_eq!(server.metrics().served_on_caller, 2);

        // A third caller has no slot to borrow: it queues (a worker pops
        // it and waits for its own slot back).
        let c = call(2);
        while server.metrics().accepted < 3 {
            std::thread::yield_now();
        }
        assert_eq!(server.metrics().served_on_caller, 2);

        // `submit` never blocks: it returns while every inference in the
        // process stands at the gate. (From another thread, with a
        // watchdog, so a regression fails instead of hanging.)
        let (done_tx, done_rx) = mpsc::channel();
        let (server_ref, inputs_ref) = (&server, &inputs);
        s.spawn(move || {
            let _ = done_tx.send(server_ref.submit(inputs_ref[3].clone()));
        });
        let d = done_rx
            .recv_timeout(long)
            .expect("submit returned while no inference could finish")
            .expect("admitted");
        assert!(
            entered_rx.try_recv().is_err(),
            "nothing may start executing while both slots are held"
        );

        gate.open();
        for (i, caller) in [a, b, c].into_iter().enumerate() {
            let logits = caller.join().expect("caller thread").expect("served");
            assert_eq!(logits, oracle[i], "caller {i}");
        }
        assert_eq!(d.wait().expect("served"), oracle[3]);
    });

    assert_eq!(in_flight.peak.load(Ordering::SeqCst), WORKERS as u64);
    let snap = server.shutdown();
    assert_conserved(&snap, 4, &model);
    assert_eq!(
        snap.served_on_caller, 2,
        "the queued caller and the submission ran on workers"
    );
}
