#!/usr/bin/env bash
# Parent-vs-change pairs of the repo benchmark, written up as one BENCH file.
#
#   scripts/pairs.sh <parent-rev> [--pairs N] [--traced N] [--seconds S] [--pr N] [--claim workload.metric]
#
# Builds the benchmark twice, each into its own target directory under
# .bench_build/: from <parent-rev> (checked out in a temporary clone that is
# removed on exit) and from the working tree, uncommitted changes included.
# Then, per workload, N alternated pairs at seeds 1..N (the parent runs first
# on odd pairs, the change on even ones), each run saved with --save. Then
# --traced N (default 3) --trace 1 runs of vgg16_latency a side, alternated
# the same way, at seeds 1..N, for the per-layer ledger. Run length is
# --seconds, or the benchmark's own default. Each workload row's verdict is
# the change binary's own `--compare parent.jsonl change.jsonl`, so the
# bounds are applied in one place. With --claim, the named row is also
# judged as a gain: better in at least nine tenths of the pairs, and the
# medians further apart, in the better direction, than the parent's
# interquartile range.
#
# Each ledger row gets each side's median and exclusive-quartile spread
# over the traced runs, the ratio of the medians, and a verdict: `moved`
# when the medians are further apart than both sides' spreads, otherwise
# `unresolved` -- always `unresolved` with fewer than three traced runs a
# side, whose spread says nothing. The table is printed and kept in
# .bench_build/pairs/ledger.txt.
#
# Every run is bracketed by `operator_explorer --probe` (built once, from the
# working tree): the AMX body, the Zmm body and a dependent-ALU chain, and
# the CPU the probe ran on, just before and just after the run. Both lines
# are kept with the run's result (probe.before / probe.after in results.jsonl
# and in each run of the BENCH file), so a run made in the host's slow AMX
# phase, or a pair that straddles one, can be told apart.
#
# Writes BENCH_<pr>.json at the repo root with --pr, otherwise
# .bench_build/pairs/bench.json; the saved runs, logs and the --compare table
# sit in .bench_build/pairs/ either way. Exits 1 if any row is `regressed`, 2
# if a run could not be made. benchmark/Cargo.lock is put back as it was
# after every build.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/pairs.sh <parent-rev> [--pairs N] [--traced N] [--seconds S] [--pr N] [--claim workload.metric]" >&2
    exit 2
}
[[ $# -ge 1 && $1 != -* ]] || usage
parent_rev=$1
shift
pairs=10
traced=3
seconds=
pr=
claim=
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --traced) traced=$2 ;;
        --seconds) seconds=$2 ;;
        --pr) pr=$2 ;;
        --claim) claim=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "--pairs needs a positive whole number" >&2; exit 2; }
[[ $traced =~ ^[1-9][0-9]*$ ]] || { echo "--traced needs a positive whole number" >&2; exit 2; }
[[ -z $pr || $pr =~ ^[0-9]+$ ]] || { echo "--pr needs a whole number" >&2; exit 2; }
[[ -z $claim || $claim =~ ^[a-z0-9_]+\.[a-z0-9_]+$ ]] || { echo "--claim needs workload.metric" >&2; exit 2; }
command -v jq >/dev/null || { echo "scripts/pairs.sh needs jq" >&2; exit 2; }

root=$PWD
parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_short=$(git rev-parse --short "$parent_sha")
change_desc="working tree on $(git rev-parse --short HEAD)"
[[ -z $(git status --porcelain) ]] || change_desc+=", with uncommitted changes"
out=.bench_build/pairs
rm -rf "$out"
mkdir -p "$out"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
lock=benchmark/Cargo.lock
cp "$lock" "$tmp/Cargo.lock"
restore_lock() { cp "$tmp/Cargo.lock" "$lock"; }
trap 'restore_lock; rm -rf "$tmp"' EXIT

echo "==> building the benchmark at $parent_short and in the working tree" >&2
git clone --quiet --shared --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout --quiet --detach "$parent_sha"
declare -A bin
for side in parent change; do
    src=$root
    [[ $side == change ]] || src=$tmp/parent
    CARGO_TARGET_DIR=$root/.bench_build/$side cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
    restore_lock
    bin[$side]=$root/.bench_build/$side/release/bitflow-benchmark
done
CARGO_TARGET_DIR=$root/.bench_build/probe cargo build --release --offline --quiet \
    --example operator_explorer
probe_bin=$root/.bench_build/probe/release/examples/operator_explorer

# probe: the probe's JSON line, or null if it printed none.
probe() {
    local line
    line=$("$probe_bin" --probe 2>/dev/null | tail -n 1) || true
    if jq -e 'type == "object"' <<<"$line" >/dev/null 2>&1; then echo "$line"; else echo null; fi
}

# run <side> <workload> <seed> <trace>: one run, saved to <side>.jsonl, with
# its result line (correct/attempted/failed) kept in results.jsonl.
run() {
    local side=$1 workload=$2 seed=$3 trace=$4 status=0
    local log=$out/$side.$workload.$seed.trace$trace.log
    local before after
    before=$(probe)
    "${bin[$side]}" --workload "$workload" --seed "$seed" --trace "$trace" \
        ${seconds:+--seconds "$seconds"} --save "$out/$side.jsonl" >"$log" 2>&1 || status=$?
    after=$(probe)
    local result
    result=$(tail -n 1 "$log")
    if ((status > 1)) || ! jq -e '.correct | type == "boolean"' <<<"$result" >/dev/null 2>&1; then
        echo "$side $workload seed $seed trace $trace could not run (exit $status); see $log" >&2
        tail -n 5 "$log" >&2
        exit 2
    fi
    jq -c --arg side "$side" --arg w "$workload" --argjson seed "$seed" --argjson trace "$trace" \
        --argjson before "$before" --argjson after "$after" \
        '{side: $side, workload: $w, seed: $seed, trace: ($trace == 1), correct, attempted, failed,
          probe: {before: $before, after: $after}}' \
        <<<"$result" >>"$out/results.jsonl"
    jq -r --arg run "$side $workload seed $seed trace $trace" \
        --argjson before "$before" --argjson after "$after" \
        '"\($run): correct \(.correct), failed \(.failed)"
         + (.metrics.latency_p50_ms.value // empty | ", latency_p50_ms \(.)")
         + ", amx probe \($before.amx_ms // "-") -> \($after.amx_ms // "-") ms"
         + " (cpu \($before.cpu // "-") -> \($after.cpu // "-"))"' <<<"$result" >&2
}

first_sides=()
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then first_sides+=(parent); else first_sides+=(change); fi
done
# alternate <workload> <count> <trace>: <count> pairs at seeds 1..<count>,
# the parent first on odd ones.
alternate() {
    local i side order
    for ((i = 1; i <= $2; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$1" "$i" "$3"; done
    done
}
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    echo "==> $workload: $pairs pairs" >&2
    alternate "$workload" "$pairs" 0
done
echo "==> vgg16_latency: $traced traced runs a side" >&2
alternate vgg16_latency "$traced" 1

echo "==> --compare parent.jsonl change.jsonl (the change's binary)" >&2
compare_status=0
"${bin[change]}" --compare "$out/parent.jsonl" "$out/change.jsonl" >"$out/compare.txt" || compare_status=$?
cat "$out/compare.txt"
((compare_status <= 1)) || exit 2
awk 'NR > 1 && NF { print $1 "." $2, $NF }' "$out/compare.txt" |
    jq -R -s 'split("\n") | map(select(length > 0) | split(" ") | {key: .[0], value: .[1]}) | from_entries' \
        >"$out/verdicts.json"

# scripts/loc.sh of a tree as {crate: [src, other]}, or null if it has none.
loc() {
    if [[ -x $1/scripts/loc.sh ]]; then
        "$1/scripts/loc.sh" | jq -R -s 'split("\n")[1:] | map(select(length > 0) | [splits(" +")])
            | map({key: .[0], value: [(.[1] | tonumber), (.[2] | tonumber)]}) | from_entries'
    else
        echo null
    fi
}

# The first processor's model and SIMD flags, from /proc/cpuinfo.
host() {
    jq -R -s --argjson nproc "$(nproc)" --arg rustc "$(rustc -V)" '
        split("\n\n")[0] | split("\n") | map(capture("^(?<key>[^\t:]+)\\s*:\\s?(?<value>.*)$")) | from_entries
        | (.flags | split(" ")) as $flags
        | {model_name: .["model name"], family: (.["cpu family"] | tonumber), model: (.model | tonumber),
           stepping: (.stepping | tonumber? // null), amx_int8: any($flags[]; . == "amx_int8"),
           simd_flags: [$flags[] | select(test("^(popcnt|avx2|avx512.*|amx.*)$"))],
           nproc: $nproc, rustc: $rustc}' /proc/cpuinfo
}

summarize=$(
    cat <<'JQ'
def median: sort | length as $n
    | if $n == 0 then null elif $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
# Quartile k of 4 by the exclusive method, as the iqr_share of benchmark/src/stats.rs.
def quartile($k): sort | length as $n | ([[$k * ($n + 1) / 4, 1] | max, $n] | min) as $pos
    | ($pos | floor) as $lo
    | if $lo >= $n then .[$n - 1] else .[$lo - 1] + ($pos - $lo) * (.[$lo] - .[$lo - 1]) end;
def iqr: if length < 2 then 0 else quartile(3) - quartile(1) end;
def untraced($runs; $w): [$runs[] | select((.trace | not) and .workload == $w)] | sort_by(.seed);
def traced_runs($runs): [$runs[] | select(.trace)] | sort_by(.seed);
def abs: if . < 0 then -. else . end;
# One ledger row: each side's median and spread over the traced runs, and
# `moved` only when the medians are further apart than both spreads.
def ledger_row($name):
    [traced_runs($parent_runs)[] | .metrics[$name].value | numbers] as $p
    | [traced_runs($change_runs)[] | .metrics[$name].value | numbers] as $c
    | ($p | median) as $mp | ($c | median) as $mc
    | ($p | iqr) as $sp | ($c | iqr) as $sc
    | ([$contract[0].per_layer[] | select(.name == $name) | .better][0]) as $better
    | (if ([$p, $c | length] | min) >= 3 and (($mc - $mp) | abs) > ([$sp, $sc] | max)
       then "moved" else "unresolved" end) as $verdict
    | {parent: $mp, change: $mc, parent_spread: $sp, change_spread: $sc,
       ratio_change_over_parent: (if $mp == null or $mc == null or $mp == 0 then null else $mc / $mp end),
       verdict: $verdict, better: $better,
       change_better: (if $verdict != "moved" or $better == null then null
                       elif $better == "lower" then $mc < $mp else $mc > $mp end),
       parent_runs: $p, change_runs: $c};
def ledger:
    [traced_runs($parent_runs)[], traced_runs($change_runs)[] | .metrics | keys[]] | unique
    | map({key: ., value: ledger_row(.)}) | from_entries;
# +1 where lower is better, -1 where higher is.
def sign($metric): if ([$contract[0].end_to_end[] | select(.name == $metric)][0].better == "lower") then 1 else -1 end;
def row($w; $metric):
    (untraced($parent_runs; $w) | map(.metrics[$metric].value)) as $p
    | (untraced($change_runs; $w) | map(.metrics[$metric].value)) as $c
    | ([$p, $c | length] | min) as $n
    | sign($metric) as $s
    | ($p | median) as $mp | ($c | median) as $mc
    | {parent: $mp, change: $mc, parent_iqr: ($p | iqr), change_iqr: ($c | iqr),
       ratio_change_over_parent: ($mc / $mp),
       worse_by: ([$s * ($mc - $mp) / $mp, 0] | max),
       change_better_pairs: ([range($n) | select($s * ($c[.] - $p[.]) < 0)] | length),
       ties: ([range($n) | select($c[.] == $p[.])] | length),
       pairs: $n,
       verdict: $verdicts[0]["\($w).\($metric)"],
       parent_runs: $p, change_runs: $c};
def side_results($w; $side): [$results[] | select(.workload == $w and .side == $side and (.trace | not))];
def workload($w):
    reduce $contract[0].end_to_end[].name as $metric ({}; .[$metric] = row($w; $metric))
    + {all_correct: ([$results[] | select(.workload == $w and (.trace | not)) | .correct] | all),
       attempted: {parent: (side_results($w; "parent") | map(.attempted) | add),
                   change: (side_results($w; "change") | map(.attempted) | add)},
       failed: {parent: (side_results($w; "parent") | map(.failed) | add),
                change: (side_results($w; "change") | map(.failed) | add)},
       runs: {parent: (side_results($w; "parent") | map({seed, correct, attempted, failed, probe})),
              change: (side_results($w; "change") | map({seed, correct, attempted, failed, probe}))}};
def claim_result($workloads):
    ($contract[0].end_to_end | map(.name)) as $metrics
    | [$workloads | to_entries[] | .key as $w | $metrics[] as $metric
       | {row: "\($w).\($metric)", verdict: $workloads[$w][$metric].verdict}] as $rows
    | {regressed: [$rows[] | select(.verdict == "regressed") | .row],
       unresolved: [$rows[] | select(.verdict == "unresolved") | .row],
       within_bound: [$rows[] | select(.verdict == "ok") | .row]}
    + if $claim == "" then {claimed: null} else
        ($claim | split(".")) as [$w, $metric]
        | $workloads[$w][$metric] as $r
        | (sign($metric) * ($r.parent - $r.change)) as $gained
        | ($r.pairs * 9 / 10 | ceil) as $need
        | {claimed: $claim,
           gain: ($r.change_better_pairs >= $need and $gained > $r.parent_iqr),
           summary: "\($claim): \($r.parent) -> \($r.change) (x\($r.ratio_change_over_parent)); the change better in \($r.change_better_pairs) of \($r.pairs) pairs, \($need) needed; medians \($gained) apart in the better direction, against a parent IQR of \($r.parent_iqr)"}
      end;
(reduce ($contract[0].workloads[].name) as $w ({}; .[$w] = workload($w))) as $workloads
| {
    pr: (if $pr == "" then null else ($pr | tonumber) end),
    parent: $parent,
    change: $change,
    method: "\($pairs) alternated parent/change pairs per workload (seeds 1-\($pairs), \(if $seconds == "" then "the default run length of the benchmark" else "--seconds \($seconds)" end); the parent first on odd pairs and the change first on even ones, see first_side_by_pair), each side built once with cargo build --release --offline into its own target directory (parent: a clone at \($parent); change: the \($change)). Every run saved with --save and its result line kept (workloads.*.runs), with the operator_explorer --probe lines taken just before and just after it (probe); medians, exclusive-quartile IQRs (the spread of benchmark/src/stats.rs) and every run recorded; row verdicts from --compare parent.jsonl change.jsonl of the change binary. Then \($traced) alternated --trace 1 runs of vgg16_latency a side, seeds 1-\($traced) (traced). Written by scripts/pairs.sh.",
    claim: (if $claim == "" then null else $claim end),
    host: $host,
    loc: {tool: "scripts/loc.sh of each tree: tracked *.rs lines, crates/*/src + src (src) apart from tests/benches/examples (other); vendor/ and benchmark/ not counted",
          src: {parent: $loc_parent.total[0]?, change: $loc_change.total[0]?},
          other: {parent: $loc_parent.total[1]?, change: $loc_change.total[1]?},
          per_crate_src_other: ((($loc_parent // {}) + ($loc_change // {})) | keys_unsorted
              | map({key: ., value: {parent: $loc_parent[.]?, change: $loc_change[.]?}}) | from_entries)},
    first_side_by_pair: $first_sides,
    workloads: $workloads,
    traced: {note: "\($traced) alternated --trace 1 runs of vgg16_latency a side, seeds 1-\($traced), after the pairs; the ledger runs the layers of every workload. Per row: each side's median and exclusive-quartile spread, the ratio of the medians, and a verdict: moved when the medians are further apart than both spreads, unresolved otherwise and always with fewer than three runs a side; change_better where BENCHMARK.json names the better direction",
             runs: $traced,
             correct: {parent: [$results[] | select(.trace and .side == "parent") | .correct],
                       change: [$results[] | select(.trace and .side == "change") | .correct]},
             probes: {parent: [$results[] | select(.trace and .side == "parent") | {seed, probe}],
                      change: [$results[] | select(.trace and .side == "change") | {seed, probe}]},
             rows: ledger},
    claim_result: claim_result($workloads)
  }
JQ
)

if [[ -n $pr ]]; then report=BENCH_$pr.json; else report=$out/bench.json; fi
jq -n \
    --slurpfile contract BENCHMARK.json \
    --slurpfile parent_runs "$out/parent.jsonl" \
    --slurpfile change_runs "$out/change.jsonl" \
    --slurpfile results "$out/results.jsonl" \
    --slurpfile verdicts "$out/verdicts.json" \
    --argjson host "$(host)" \
    --argjson loc_parent "$(loc "$tmp/parent")" \
    --argjson loc_change "$(loc "$root")" \
    --argjson first_sides "$(printf '%s\n' "${first_sides[@]}" | jq -R . | jq -s .)" \
    --arg pr "$pr" --arg parent "$parent_short" --arg change "$change_desc" \
    --arg seconds "$seconds" --arg claim "$claim" --argjson pairs "$pairs" --argjson traced "$traced" \
    "$summarize" >"$report"
echo "wrote $report" >&2
jq -r '.traced.rows | to_entries[] | .value as $r
    | [.key, ($r.parent, $r.change, $r.parent_spread, $r.change_spread, $r.ratio_change_over_parent | . // "-"),
       $r.verdict + (if $r.change_better == null then "" elif $r.change_better then "(better)" else "(worse)" end)]
    | join(" ")' "$report" |
    awk 'function num(x, f) { return x == "-" ? x : sprintf(f, x) }
         BEGIN { printf "%-40s %12s %12s %10s %10s %8s %s\n", "ledger row", "parent", "change", "p_spread", "c_spread", "ratio", "verdict" }
         { printf "%-40s %12s %12s %10s %10s %8s %s\n", $1, num($2, "%.5g"), num($3, "%.5g"), num($4, "%.3g"),
                  num($5, "%.3g"), num($6, "%.4f"), $7 }' >"$out/ledger.txt"
grep -E '^(ledger row|graph\.(op_ms\.|ops_sum_ms|parallel_speedup))| moved' "$out/ledger.txt" >&2 || true
jq -r '.claim_result | "regressed: \(.regressed | if . == [] then "none" else join(", ") end); unresolved: \(.unresolved | if . == [] then "none" else join(", ") end)"
    + (if .claimed then "; claim \(.summary): \(if .gain then "gain" else "not met" end)" else "" end)' "$report" >&2
exit $((compare_status == 1))
