#!/usr/bin/env bash
# Profiling harness around the criterion benches: wraps a single bench
# binary in `perf stat` (instruction/cycle/cache counters) and, when
# available, `perf record` + flamegraph/stackcollapse for a flame SVG —
# so "makes a hot path measurably faster" PRs can cite instruction
# counts, not just wall-clock medians.
#
# Usage:
#   scripts/profile.sh <bench> [stat|record|flame] [extra bench args...]
#
#   scripts/profile.sh repair_latency                 # perf stat, full bench
#   scripts/profile.sh repair_latency stat -- --test  # counters on the smoke run
#   scripts/profile.sh ablations record               # perf record -> perf.data
#   scripts/profile.sh repair_latency flame           # flamegraph SVG (needs tooling)
#
# Artifacts land in results/profile/: <bench>.stat.txt, <bench>.perf.data,
# <bench>.flame.svg. Each tool degrades gracefully: without `perf` the
# script falls back to /usr/bin/time -v (or a plain timed run), and
# `flame` explains what is missing instead of failing the build.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:?usage: scripts/profile.sh <bench> [stat|record|flame] [args...]}"
MODE="${2:-stat}"
shift || true
[ "$#" -gt 0 ] && shift || true

OUT_DIR="results/profile"
mkdir -p "$OUT_DIR"

echo "==> building bench '$BENCH' (release, no run)"
cargo bench --offline -p vod-bench --bench "$BENCH" --no-run

# Resolve the freshest bench binary for this bench name.
BIN="$(ls -t target/release/deps/${BENCH}-* 2>/dev/null | grep -v '\.d$' | head -1 || true)"
if [ -z "$BIN" ]; then
    echo "error: no built binary matching target/release/deps/${BENCH}-*" >&2
    exit 1
fi
echo "==> profiling $BIN ($MODE) $*"

case "$MODE" in
    stat)
        STAT_OUT="$OUT_DIR/${BENCH}.stat.txt"
        if command -v perf >/dev/null 2>&1; then
            # Portable counter set; unsupported counters print <not counted>
            # rather than failing.
            perf stat -o "$STAT_OUT" \
                -e task-clock,instructions,cycles,branches,branch-misses,cache-references,cache-misses \
                -- "$BIN" --bench "$@" || {
                echo "perf stat failed (often: perf_event_paranoid); falling back to time -v" >&2
                { /usr/bin/time -v "$BIN" --bench "$@"; } 2> "$STAT_OUT" \
                    || { time "$BIN" --bench "$@"; } 2> "$STAT_OUT"
            }
        else
            echo "perf not installed; recording /usr/bin/time -v instead" >&2
            { /usr/bin/time -v "$BIN" --bench "$@"; } 2> "$STAT_OUT" \
                || { time "$BIN" --bench "$@"; } 2> "$STAT_OUT"
        fi
        echo "==> counters written to $STAT_OUT"
        sed -n '1,30p' "$STAT_OUT"
        ;;
    record)
        if ! command -v perf >/dev/null 2>&1; then
            echo "error: 'record' needs perf installed" >&2
            exit 1
        fi
        PERF_DATA="$OUT_DIR/${BENCH}.perf.data"
        perf record -o "$PERF_DATA" -g --call-graph dwarf -- "$BIN" --bench "$@"
        echo "==> samples written to $PERF_DATA"
        echo "    inspect with: perf report -i $PERF_DATA"
        ;;
    flame)
        if ! command -v perf >/dev/null 2>&1; then
            echo "error: 'flame' needs perf installed" >&2
            exit 1
        fi
        PERF_DATA="$OUT_DIR/${BENCH}.perf.data"
        SVG="$OUT_DIR/${BENCH}.flame.svg"
        perf record -o "$PERF_DATA" -g --call-graph dwarf -- "$BIN" --bench "$@"
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
