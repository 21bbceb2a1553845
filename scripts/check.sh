#!/usr/bin/env bash
# One-command gate for PRs: formatting, lints, and the tier-1 tests.
#
#   scripts/check.sh          # everything, incl. building benchmark/ and
#                             # running each of its workloads once; ends
#                             # with the scripts/loc.sh table
#   scripts/check.sh --fast   # skip the release build and the benchmark
#                             # stage (lints + debug tests)
#   scripts/check.sh --serve  # additionally run the serving-runtime gate:
#                             # strict clippy on bitflow-serve (warnings,
#                             # incl. unwrap/expect, denied), its unit tests
#                             # (governor and chaos included), the
#                             # caller-runs slot test in release mode, the
#                             # simulator's 10 000-seed sweep of the policy
#                             # and the resource governor (the #[ignore]d
#                             # half of crates/serve/tests/sim.rs; tier-1
#                             # runs a 256-seed slice), and the multi-tenant
#                             # chaos soak (injected allocation failure
#                             # included) with its calm control
#   scripts/check.sh --net    # additionally run the network front-end gate:
#                             # strict clippy on bitflow-net (warnings,
#                             # incl. unwrap/expect, denied), the hostile-
#                             # client + tracing suites, the per-request
#                             # allocation budget in release mode, the
#                             # trace-export round-trip proptests, the TCP
#                             # chaos soak with the flight recorder enabled
#   scripts/check.sh --perf   # additionally run the repo benchmark's
#                             # four workloads on the working tree against
#                             # HEAD: scripts/pairs.sh HEAD --pairs 3
#                             # --traced 1 --seconds 5 (one traced run a
#                             # side), which fails if --compare calls
#                             # any row `regressed`. Off by default: it
#                             # compares wall-clock medians, so CI machines
#                             # with unstable clocks should opt in
#                             # deliberately.
#   scripts/check.sh --sanitize # additionally run the unit tests of the two
#                             # crates that hold the kernels' `unsafe`
#                             # (bitflow-simd, bitflow-tensor) under
#                             # AddressSanitizer (needs the nightly
#                             # toolchain; builds into target/<triple>/)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
perf=0
serve=0
net=0
sanitize=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        --perf) perf=1 ;;
        --serve) serve=1 ;;
        --net) net=1 ;;
        --sanitize) sanitize=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --release
fi

echo "==> cargo test -q (tier-1: root suite incl. differential/golden/no-alloc harnesses)"
cargo test -q

echo "==> cargo test -q --workspace (all crates)"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
    # benchmark/ is a package of its own that pins the crates' public API
    # (benchmark/src/sut.rs) and their logits (benchmark/golden.json); the
    # driver builds and runs it, so an API change that passes everything
    # above can still be refused there. A smoke test, not a measurement.
    # Building rewrites benchmark/Cargo.lock whenever a crate's dependency
    # list changed; it is put back as it was, since only a change to
    # benchmark/ may change it.
    echo "==> benchmark build + one short run per workload (pinned API, pinned logits)"
    mkdir -p .bench_build
    cp benchmark/Cargo.lock .bench_build/Cargo.lock.saved
    build=0
    CARGO_TARGET_DIR=.bench_build/change cargo build --release --offline \
        --manifest-path benchmark/Cargo.toml || build=$?
    cp .bench_build/Cargo.lock.saved benchmark/Cargo.lock
    ((build == 0)) || exit "$build"
    for workload in vgg16_latency tiered_batch small_http_closed tiered_serve_open; do
        last=$(.bench_build/change/release/bitflow-benchmark --workload "$workload" \
            --seconds 2 --trace 0 --seed 1 | tail -n 1)
        if [[ $last != *'"correct": true'* ]]; then
            echo "benchmark workload $workload did not end in \"correct\": true: $last" >&2
            exit 1
        fi
    done
fi

if [[ $serve -eq 1 ]]; then
    echo "==> clippy -p bitflow-serve (unwrap/expect denied on the serving runtime)"
    # The crate roots carry #![warn(clippy::unwrap_used, clippy::expect_used)];
    # -D warnings promotes those to errors for this crate without leaking
    # the lint into vendored path dependencies.
    cargo clippy -p bitflow-serve --all-targets -- -D warnings
    echo "==> serving unit tests"
    cargo test -q -p bitflow-serve
    echo "==> caller-runs: callers and workers share the slots (release)"
    cargo test --release -q -p bitflow-serve --test caller_runs
    echo "==> policy simulator: the 10 000-seed sweep"
    cargo test -q -p bitflow-serve --test sim -- --ignored
    echo "==> chaos soak (multi-tenant, injected allocation failure) + calm control"
    cargo test -q --test serve_soak
fi

if [[ $net -eq 1 ]]; then
    echo "==> clippy -p bitflow-net (unwrap/expect denied on the front-end)"
    cargo clippy -p bitflow-net --all-targets -- -D warnings
    echo "==> net unit tests + hostile-client and tracing suites"
    cargo test -q -p bitflow-net
    echo "==> allocation budget of a warm keep-alive request (release)"
    cargo test --release -q -p bitflow-net --test alloc_budget
    echo "==> trace-export round-trip proptests (Chrome + Prometheus)"
    cargo test -q -p bitflow-telemetry --test chrome_props --test prometheus_props
    echo "==> TCP chaos soak (flight recorder enabled)"
    BITFLOW_TRACE=1 cargo test -q --test net_soak
fi

if [[ $perf -eq 1 ]]; then
    echo "==> benchmark pairs: the working tree against HEAD (scripts/pairs.sh)"
    scripts/pairs.sh HEAD --pairs 3 --traced 1 --seconds 5
fi

if [[ $sanitize -eq 1 ]]; then
    echo "==> AddressSanitizer: bitflow-simd + bitflow-tensor unit tests (nightly)"
    RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q --offline \
        --target x86_64-unknown-linux-gnu --lib -p bitflow-simd -p bitflow-tensor
fi

if [[ $fast -eq 0 ]]; then
    echo "==> scripts/loc.sh (tracked Rust lines per crate)"
    scripts/loc.sh
fi

echo "OK"
