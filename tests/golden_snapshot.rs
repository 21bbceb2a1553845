//! Golden end-to-end snapshots: the serving path must reproduce checksummed
//! logits for the two example models, exactly.
//!
//! The recipes follow `examples/quickstart.rs` (small CNN, seed 42) and
//! `examples/vgg_inference.rs` (VGG-16, seed 7): seed an `StdRng`, draw
//! random weights, then draw the input image from the *same* stream. Every
//! BitFlow operator computes exact integers over ±1 data, so the logits are
//! bit-stable across SIMD tiers and thread counts — any checksum change
//! means an intentional numerical change and must be blessed explicitly:
//!
//! ```sh
//! BITFLOW_BLESS=1 cargo test --test golden_snapshot
//! ```
//!
//! which rewrites the files under `tests/golden/`. The integer oracle
//! reproduces the quickstart digest on its own, which ties the goldens to
//! the arithmetic rather than to whatever the engine once computed.

#[path = "common/oracle.rs"]
mod oracle;

use bitflow_graph::models::{small_cnn, vgg16};
use bitflow_graph::spec::NetworkSpec;
use bitflow_graph::weights::NetworkWeights;
use bitflow_graph::CompiledModel;
use bitflow_tensor::{Layout, Tensor};
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;

/// FNV-1a 64-bit over the little-endian bit patterns of the logits. FNV is
/// deliberate: dependency-free, stable, and any single flipped bit anywhere
/// in the vector changes the digest.
fn fnv1a64_logits(logits: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in logits {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.fnv64"))
}

/// The example recipe: seeded weights, then the image from the same rng.
fn recipe(spec: &NetworkSpec, seed: u64) -> (NetworkWeights, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights = NetworkWeights::random(spec, &mut rng);
    let image = Tensor::random(spec.input, Layout::Nhwc, &mut rng);
    (weights, image)
}

/// The engine's logits for the example recipe.
fn run_recipe(spec: &NetworkSpec, seed: u64) -> Vec<f32> {
    let (weights, image) = recipe(spec, seed);
    let model = CompiledModel::try_compile(spec, &weights).expect("golden compile");
    let mut ctx = model.try_new_context().expect("context allocates");
    model.try_infer(&mut ctx, &image).expect("golden inference")
}

fn check_golden(name: &str, logits: &[f32]) {
    let digest = format!("{:016x}", fnv1a64_logits(logits));
    let path = golden_path(name);
    if std::env::var_os("BITFLOW_BLESS").is_some() {
        std::fs::write(&path, format!("{digest}\n")).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BITFLOW_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        digest,
        want.trim(),
        "{name}: packed-logits checksum changed — if intentional, re-bless with BITFLOW_BLESS=1"
    );
}

#[test]
fn quickstart_logits_reproduce_exactly() {
    let spec = small_cnn();
    let logits = run_recipe(&spec, 42);
    assert_eq!(logits.len(), 10);
    check_golden("quickstart_small_cnn", &logits);
}

#[test]
fn vgg16_logits_reproduce_exactly() {
    let spec = vgg16();
    let logits = run_recipe(&spec, 7);
    assert_eq!(logits.len(), 1000);
    check_golden("vgg16", &logits);
}

#[test]
fn oracle_reproduces_the_quickstart_golden() {
    let spec = small_cnn();
    let (weights, image) = recipe(&spec, 42);
    check_golden(
        "quickstart_small_cnn",
        &oracle::logits(&spec, &weights, &image),
    );
}

#[test]
fn batch_path_matches_golden_single_path() {
    // The batch serving path must land on the same logits as the
    // single-request path for the same recipe.
    let spec = small_cnn();
    let (weights, image) = recipe(&spec, 42);
    let model = CompiledModel::try_compile(&spec, &weights).expect("model compiles");

    let mut ctx = model.try_new_context().expect("context allocates");
    let single = model.try_infer(&mut ctx, &image).expect("single");
    let batch = model.try_infer_batch(std::slice::from_ref(&image));
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0].as_ref().expect("batch ok"), &single);
}
