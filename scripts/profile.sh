#!/usr/bin/env bash
# Profiling harness around the service benchmark: builds benchmark/ and runs
# one workload exactly as BENCHMARK.json times it
# (`vod-service-benchmark --workload W --trace 0`) under `perf stat`
# (instruction/cycle/cache counters) or `perf record`, and, when available,
# renders a flame SVG — so "makes a hot path measurably faster" PRs can cite
# instruction counts of the timed code path, not just wall-clock medians.
#
# Usage:
#   scripts/profile.sh <workload> [stat|record|flame] [extra harness args...]
#
#   scripts/profile.sh contended                      # perf stat, full-length run
#   scripts/profile.sh contended stat --seconds 5     # counters on a short run
#   scripts/profile.sh overload_faults record         # perf record -> perf.data
#   scripts/profile.sh steady flame --seconds 5       # flamegraph SVG (needs tooling)
#
# Workloads are those `benchmark/run.sh` runs (`vod-service-benchmark --list`).
# Artifacts land in results/profile/: <workload>.stat.txt, <workload>.perf.data,
# <workload>.flame.svg (and under out/ whatever the harness writes when the
# extra args include `--trace 1`). Each tool
# degrades gracefully: without `perf` the script falls back to
# /usr/bin/time -v (or a plain timed run), and `flame` explains what is
# missing instead of failing the build.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD="${1:?usage: scripts/profile.sh <workload> [stat|record|flame] [args...]}"
MODE="${2:-stat}"
shift || true
[ "$#" -gt 0 ] && shift || true

OUT_DIR="results/profile"
mkdir -p "$OUT_DIR"

echo "==> building the service benchmark (release)"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/vod-service-benchmark"
RUN=("$BIN" --workload "$WORKLOAD" --trace 0 --out "$OUT_DIR/out" "$@")
echo "==> profiling ${RUN[*]} ($MODE)"

case "$MODE" in
    stat)
        STAT_OUT="$OUT_DIR/${WORKLOAD}.stat.txt"
        if command -v perf >/dev/null 2>&1; then
            # Portable counter set; unsupported counters print <not counted>
            # rather than failing.
            perf stat -o "$STAT_OUT" \
                -e task-clock,instructions,cycles,branches,branch-misses,cache-references,cache-misses \
                -- "${RUN[@]}" || {
                echo "perf stat failed (often: perf_event_paranoid); falling back to time -v" >&2
                { /usr/bin/time -v "${RUN[@]}"; } 2> "$STAT_OUT" \
                    || { time "${RUN[@]}"; } 2> "$STAT_OUT"
            }
        else
            echo "perf not installed; recording /usr/bin/time -v instead" >&2
            { /usr/bin/time -v "${RUN[@]}"; } 2> "$STAT_OUT" \
                || { time "${RUN[@]}"; } 2> "$STAT_OUT"
        fi
        echo "==> counters written to $STAT_OUT"
        sed -n '1,30p' "$STAT_OUT"
        ;;
    record)
        if ! command -v perf >/dev/null 2>&1; then
            echo "error: 'record' needs perf installed" >&2
            exit 1
        fi
        PERF_DATA="$OUT_DIR/${WORKLOAD}.perf.data"
        perf record -o "$PERF_DATA" -g --call-graph dwarf -- "${RUN[@]}"
        echo "==> samples written to $PERF_DATA"
        echo "    inspect with: perf report -i $PERF_DATA"
        ;;
    flame)
        if ! command -v perf >/dev/null 2>&1; then
            echo "error: 'flame' needs perf installed" >&2
            exit 1
        fi
        PERF_DATA="$OUT_DIR/${WORKLOAD}.perf.data"
        SVG="$OUT_DIR/${WORKLOAD}.flame.svg"
        perf record -o "$PERF_DATA" -g --call-graph dwarf -- "${RUN[@]}"
        if command -v flamegraph.pl >/dev/null 2>&1 && command -v stackcollapse-perf.pl >/dev/null 2>&1; then
            perf script -i "$PERF_DATA" | stackcollapse-perf.pl | flamegraph.pl > "$SVG"
            echo "==> flamegraph written to $SVG"
        elif command -v inferno-flamegraph >/dev/null 2>&1 && command -v inferno-collapse-perf >/dev/null 2>&1; then
            perf script -i "$PERF_DATA" | inferno-collapse-perf | inferno-flamegraph > "$SVG"
            echo "==> flamegraph written to $SVG"
        else
            echo "samples recorded to $PERF_DATA, but no flamegraph tool found." >&2
            echo "install Brendan Gregg's FlameGraph scripts or 'cargo install inferno'," >&2
            echo "then: perf script -i $PERF_DATA | stackcollapse-perf.pl | flamegraph.pl > $SVG" >&2
        fi
        ;;
    *)
        echo "error: unknown mode '$MODE' (expected stat, record, or flame)" >&2
        exit 1
        ;;
esac
