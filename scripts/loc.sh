#!/usr/bin/env bash
# Tracked Rust lines per workspace crate, `src` apart from
# tests/benches/examples — the LOC column of BENCH_<pr>.json (ROADMAP items
# 5 and 6). Not counted: vendor/ (offline stand-ins for crates.io
# dependencies) and benchmark/ (the harness, not the system it measures).
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # total lines of the tracked *.rs files under the given directories
    git ls-files -- "$@" | { grep '\.rs$' || true; } | xargs -r cat | wc -l
}

printf '%-16s %8s %8s\n' crate src other
total_src=0
total_other=0
for dir in crates/* .; do
    src=$(count "$dir/src")
    other=$(count "$dir/tests" "$dir/benches" "$dir/examples")
    name=${dir#crates/}
    printf '%-16s %8d %8d\n' "${name/#./(root)}" "$src" "$other"
    total_src=$((total_src + src))
    total_other=$((total_other + other))
done
printf '%-16s %8d %8d\n' total "$total_src" "$total_other"
