//! Pins both exporters to checked-in bytes.
//!
//! `golden/snapshot.json` is a fixed, fully populated [`MetricsSnapshot`]
//! (every counter distinct and non-zero, label values that need escaping,
//! sparse histograms, an overflow batch-size bucket, an idle operator);
//! `golden/snapshot.prom` is its Prometheus exposition. Loading the JSON,
//! writing it back and rendering it must reproduce both files byte for
//! byte, so a renamed key, a reordered family or a reworded help line is a
//! visible diff here and not a surprise on a dashboard.
//!
//! After an intended format change — a new counter, say — give the new key
//! a value in `snapshot.json` by hand (the JSON is the fixture), then
//! regenerate the exposition with
//! `BITFLOW_BLESS=1 cargo test -p bitflow-telemetry --test golden`.

use bitflow_telemetry::MetricsSnapshot;
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, produced: &str) {
    let path = golden(name);
    if std::env::var_os("BITFLOW_BLESS").is_some() {
        std::fs::write(&path, produced).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        want == produced,
        "{name} changed — if intended, re-bless with BITFLOW_BLESS=1\n--- produced ---\n{produced}"
    );
}

#[test]
fn json_and_exposition_match_the_goldens() {
    let text = std::fs::read_to_string(golden("snapshot.json")).expect("read golden");
    let snap: MetricsSnapshot = serde_json::from_str(&text).expect("golden JSON parses");
    check(
        "snapshot.json",
        &(serde_json::to_string_pretty(&snap).expect("serialize") + "\n"),
    );
    check("snapshot.prom", &snap.to_prometheus());
}
