//! # bitflow-bench
//!
//! Benchmark harness for the BitFlow reproduction. Every table and figure
//! of the paper's evaluation section has a regenerating target:
//!
//! | paper artifact | binary (`cargo run --release -p bitflow-bench --bin …`) |
//! |---|---|
//! | Table I (SIMD instructions) | `table1` |
//! | Table II (data structures) | `table2` |
//! | Table III (fused packing) | `table3` |
//! | Table IV (workloads) | `table4` |
//! | Table V (accuracy & size) | `table5` |
//! | Fig. 7 (vectorization speedup) | `fig7` |
//! | Fig. 8 (multi-core, i7 analog) | `fig8` |
//! | Fig. 9 (multi-core, Phi analog) | `fig9` |
//! | Fig. 10 (per-op vs GPU) | `fig10` |
//! | Fig. 11 (VGG end-to-end vs GPU) | `fig11` |
//! | §III-A AIT analysis | `ait` |
//!
//! `cargo bench -p bitflow-bench --bench ablation` times the design choices
//! beyond the paper's figures (EXPERIMENTS.md, "Ablations").
//!
//! All binaries print a paper-style text table and write machine-readable
//! JSON next to the repo root under `results/` (override the directory
//! with `BITFLOW_RESULTS_DIR`). End-to-end and per-layer regressions are the
//! repo benchmark's to catch (`benchmark/`, `scripts/pairs.sh`), not this
//! crate's.
//!
//! Measurement conventions (documented deviations in EXPERIMENTS.md):
//!
//! * Per-operator binary measurements time the *kernel* with pre-packed
//!   weights (packing is a network-initialization cost in BitFlow) and,
//!   for convolution, pre-packed inputs (inter-layer activations stay
//!   packed inside a BNN; the binarize+pack of the previous layer's output
//!   is fused there). A conv is the engine's call: sign bits into a padded
//!   map allocated once, on the body the engine would pick
//!   (`workloads::ConvOperands`). Binary FC timings include input packing —
//!   its input arrives flattened from pooling in VGG.
//! * The float baseline is the optimized im2col+sgemm path with weight
//!   transposition hoisted, i.e. a fair production-style float operator.
//! * Multi-thread runs install a sized thread-count scope per measurement
//!   (`timing::with_pool`); the threads are `bitflow_simd::team`'s.
#![forbid(unsafe_code)]

pub mod fig_multicore;
pub mod runners;
pub mod timing;
pub mod workloads;

use bitflow_telemetry::SCHEMA_VERSION;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// Directory for JSON result dumps (`BITFLOW_RESULTS_DIR` or `results/`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("BITFLOW_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The `schema_version` recorded in an existing artifact, if the file
/// exists and parses. v1 artifacts predate the field and read as `None`.
fn existing_schema_version(path: &Path) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    match v.field("schema_version").ok()? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Stamps `schema_version` into the top level of a serialized value:
/// inserted as the first key of an object (replacing any existing one), or
/// wrapped as `{schema_version, data}` for non-object roots.
fn stamp_schema_version(v: Value) -> Value {
    let version = (
        "schema_version".to_string(),
        Value::UInt(SCHEMA_VERSION as u64),
    );
    match v {
        Value::Object(fields) => {
            let mut out = vec![version];
            out.extend(fields.into_iter().filter(|(k, _)| k != "schema_version"));
            Value::Object(out)
        }
        other => Value::Object(vec![version, ("data".to_string(), other)]),
    }
}

/// Writes a serializable result object as pretty JSON under
/// [`results_dir`], creating the directory if needed.
///
/// Every artifact gets a top-level `schema_version` field stamped in
/// ([`SCHEMA_VERSION`]). If the target file already exists and carries a
/// *newer* schema version, the write is refused: a newer tool wrote that
/// file, and silently downgrading it would destroy fields this build does
/// not know about.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Some(existing) = existing_schema_version(&path) {
        if existing > SCHEMA_VERSION as u64 {
            eprintln!(
                "warning: {} has schema v{existing}, newer than this build's v{SCHEMA_VERSION}; refusing to overwrite",
                path.display()
            );
            return;
        }
    }
    let stamped = stamp_schema_version(value.to_value());
    match serde_json::to_string_pretty(&stamped) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// True when quick (smoke-run) mode is requested: `--quick` on the command
/// line, or `BITFLOW_QUICK=1`. This is the single place that defines
/// quick-mode activation for every bench binary.
///
/// Quick mode shrinks workloads (spatial dims 4×, VGG-16 → small CNN,
/// shorter measurement budgets); the exact reduction is each binary's
/// choice, the trigger is defined here.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("BITFLOW_QUICK").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_inserts_version_first_in_objects() {
        let v = Value::Object(vec![("x".to_string(), Value::UInt(7))]);
        let stamped = stamp_schema_version(v);
        let Value::Object(fields) = stamped else {
            panic!("expected object");
        };
        assert_eq!(fields[0].0, "schema_version");
        assert_eq!(fields[0].1, Value::UInt(SCHEMA_VERSION as u64));
        assert_eq!(fields[1].0, "x");
    }

    #[test]
    fn stamp_replaces_stale_version_and_wraps_non_objects() {
        let v = Value::Object(vec![
            ("schema_version".to_string(), Value::UInt(1)),
            ("x".to_string(), Value::UInt(7)),
        ]);
        let Value::Object(fields) = stamp_schema_version(v) else {
            panic!("expected object");
        };
        assert_eq!(fields.len(), 2, "stale version replaced, not duplicated");
        assert_eq!(fields[0].1, Value::UInt(SCHEMA_VERSION as u64));
        // Non-object roots get wrapped so the version has somewhere to live.
        let Value::Object(wrapped) = stamp_schema_version(Value::UInt(3)) else {
            panic!("expected wrapper object");
        };
        assert_eq!(wrapped[1], ("data".to_string(), Value::UInt(3)));
    }

    #[test]
    fn existing_schema_version_probes_tolerantly() {
        let dir = std::env::temp_dir().join(format!("bitflow-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.json");
        // Missing file → None.
        assert_eq!(existing_schema_version(&path), None);
        // v1 artifact without the field → None (treated as oldest).
        std::fs::write(&path, r#"{"x": 1}"#).unwrap();
        assert_eq!(existing_schema_version(&path), None);
        // Stamped artifact → its version.
        std::fs::write(&path, r#"{"schema_version": 99, "x": 1}"#).unwrap();
        assert_eq!(existing_schema_version(&path), Some(99));
        // Garbage → None (never a panic).
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(existing_schema_version(&path), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
