//! Serve a binarized CNN over HTTP and poke it with curl.
//!
//! ```sh
//! cargo run --release --example serve_http            # serves ~20 s
//! cargo run --release --example serve_http -- 120     # serves 120 s
//! BITFLOW_NET_ADDR=127.0.0.1:8017 cargo run --release --example serve_http
//! ```
//!
//! The example writes a ready-made request body (a random input tensor in
//! the `bitflow_tensor::io` encoding) next to the printed curl commands,
//! serves for the requested number of seconds, then drains and prints the
//! final counters.

use bitflow::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);

    // One tenant, random weights; `bitflow-train` produces real ones.
    let spec = small_cnn();
    let mut rng = StdRng::seed_from_u64(42);
    let weights = NetworkWeights::random(&spec, &mut rng);
    let model = Arc::new(CompiledModel::try_compile(&spec, &weights).expect("model compiles"));
    let mut registry = ModelRegistry::new();
    registry.register("cnn", Arc::clone(&model), None);
    let server = Arc::new(Server::start_multi(registry, ServerConfig::from_env()));

    let net = NetServer::bind(Arc::clone(&server), NetConfig::from_env())?;
    let addr = net.local_addr();

    // A ready-made request body, so the curl below works as typed.
    let image = Tensor::random(spec.input, Layout::Nhwc, &mut StdRng::seed_from_u64(7));
    let body = bitflow::tensor::io::encode_tensor(&image);
    let body_path = std::env::temp_dir().join("bitflow_image.tensor");
    std::fs::write(&body_path, &body)?;

    println!("serving {} on http://{addr} for {secs} s", spec.name);
    println!("\ntry:");
    println!(
        "  curl -sS http://{addr}/v1/infer/cnn \\\n       \
         -H 'x-bitflow-deadline-ms: 50' \\\n       \
         --data-binary @{} -o /tmp/logits.f32",
        body_path.display()
    );
    println!("  curl -i  http://{addr}/healthz");
    println!("  curl -s  http://{addr}/metrics | grep bitflow_net");

    std::thread::sleep(Duration::from_secs(secs));

    let drained = net.shutdown();
    println!("\nnet drained cleanly: {drained}");
    let client = server.client("cnn").expect("registered above");
    let snap = client.metrics();
    println!(
        "served: submitted={} completed={} rejected_queue_full={}",
        snap.submitted, snap.completed, snap.rejected_queue_full
    );
    Ok(())
}
