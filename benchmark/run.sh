#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, as BENCHMARK.json's `command` asks: metric
#       lines, then the JSON result object as the last line of stdout.
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, one process each: end-to-end metrics with tracing
#       off, then the per-layer metrics from the traced pass. Prints every
#       metric as `workload metric value unit`; the JSON result objects go to
#       benchmark/out/result-<workload>-trace<0|1>.json.
#   benchmark/run.sh --self-check [--seed N] [--seconds S]
#       the whole end-to-end benchmark twice on one build; fails if any
#       metric disagrees with itself by more than its bound.
#
# Run from anywhere; paths are resolved from this file. The build goes to
# $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="${CARGO_TARGET_DIR:-$here/target}/release/vod-service-benchmark"
out="$here/out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

single=0 self_check=0 pass=()
for arg in "$@"; do
    case "$arg" in
        --workload) single=1; pass+=("$arg") ;;
        --self-check) self_check=1 ;;
        *) pass+=("$arg") ;;
    esac
done

if [ "$single" = 1 ]; then
    exec "$bin" --out "$out" "${pass[@]}"
fi

workloads=$("$bin" --list)
mkdir -p "$out"

# run_all <trace>: one process per workload; metric lines to stdout, the
# result object to benchmark/out/.
run_all() {
    local w
    for w in $workloads; do
        "$bin" --out "$out" --workload "$w" --trace "$1" "${pass[@]}" > "$out/last-run.txt"
        tail -n 1 "$out/last-run.txt" > "$out/result-$w-trace$1.json"
        grep -v '^{' "$out/last-run.txt"
    done
    rm -f "$out/last-run.txt"
}

if [ "$self_check" = 0 ]; then
    run_all 0
    run_all 1
    exit 0
fi

run_all 0 > "$out/self-check-first.txt"
run_all 0 > "$out/self-check-second.txt"
# `--bounds` prints `metric better bound`, the bound being `exact` for a
# metric that one seed fixes bit for bit; join both runs on `workload metric`.
"$bin" --bounds | awk -v first="$out/self-check-first.txt" -v second="$out/self-check-second.txt" '
    { better[$1] = $2; bound[$1] = $3 }
    END {
        while ((getline line < first) > 0) { split(line, f, " "); a[f[1] " " f[2]] = f[3]; order[++n] = f[1] " " f[2] }
        while ((getline line < second) > 0) { split(line, f, " "); b[f[1] " " f[2]] = f[3] }
        bad = 0
        printf "%-16s %-14s %18s %18s %9s %8s\n", "workload", "metric", "first", "second", "rel.diff", "bound"
        for (i = 1; i <= n; i++) {
            key = order[i]; split(key, k, " "); m = k[2]
            if (!(key in b)) { print key " missing from the second run"; bad = 1; continue }
            if (bound[m] == "exact") {
                ok = (a[key] == b[key]); rel = ok ? 0 : 1
            } else {
                # Positive = the second run is worse.
                rel = (b[key] - a[key]) / a[key]; if (better[m] == "higher") rel = -rel
                ok = (rel <= bound[m] && -rel <= bound[m])
            }
            printf "%-16s %-14s %18s %18s %+9.4f %8s %s\n", k[1], m, a[key], b[key], rel, bound[m], ok ? "" : "FAIL"
            if (!ok) bad = 1
        }
        exit bad
    }'
