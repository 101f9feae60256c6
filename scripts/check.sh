#!/usr/bin/env bash
# Full local gate: every suite once (`cargo test`; the root manifest's
# default members are the whole workspace), then only what no test can
# say — vodx runs, the benchmark smoke and its untouched lock file,
# call-site lints — rustdoc, fmt and clippy (which also checks the
# crates' clippy.toml "not used here" rules).
# Usage: scripts/check.sh  (from anywhere; runs at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

vodx() { cargo run -q --release --offline -p vod-experiments --bin vodx -- "$@"; }

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q (every suite in the workspace)"
cargo test -q --offline

echo "==> vodx runs (service, cycles, flight recording, inspect, table5 --rpu 3)"
# The service drivers run end to end, and a recording reads back. The
# committed results/ artifacts are pinned by tests/paper_claims.rs, except
# two regenerated here byte for byte: inspect.txt (vodx assembles it; no
# library call returns it) and table5_rpu3.txt (too slow for tier-1).
tmp="$(mktemp -d /tmp/vod-check.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT
vodx service >/dev/null
vodx cycles --fast >/dev/null
vodx service --fast --record "$tmp/flight.jsonl" >/dev/null
vodx trace "$tmp/flight.jsonl" >/dev/null
vodx inspect >"$tmp/inspect.txt"
diff results/inspect.txt "$tmp/inspect.txt"
vodx table5 --rpu 3 --out "$tmp" >/dev/null
diff results/table5_rpu3.txt "$tmp/table5.txt"

echo "==> service benchmark (smoke run, harness tests and lints)"
# The harness is its own package calling the core API through
# benchmark/src/adapter.rs; a core change that breaks it must fail here.
benchmark/run.sh --smoke >/dev/null
(cd benchmark && cargo test -q --offline && cargo clippy --offline --all-targets -- -D warnings)
# run.sh builds without --locked: a changed dependency edge would rewrite
# the harness's lock file silently, and the harness is frozen.
if ! git diff --quiet -- benchmark/Cargo.lock; then
  echo "error: building the harness changed benchmark/Cargo.lock" >&2
  exit 1
fi

echo "==> comparator lint (no panicking partial_cmp in first-party code)"
# NaN-poisoned sorts panic at runtime; f64::total_cmp is the workspace rule.
if grep -rn --include='*.rs' -E 'partial_cmp\([^)]*\)\s*\.\s*(unwrap|expect)' \
    crates src tests examples 2>/dev/null; then
  echo "error: use f64::total_cmp instead of partial_cmp().unwrap()" >&2
  exit 1
fi

echo "==> admission lint (the kernel asks the constraints in one place, after the placement filter)"
# A trial's trace is the list of questions the kernel asked; a second call
# site, or one ahead of the allow_remote_placement filter, would ask (and
# record) about sources that cannot take the request.
awk '/^#\[cfg\(test\)\]/ { exit }
     /^fn greedy_with_cursor/ { kernel = 1 }
     /^}/ { kernel = 0 }
     kernel && /!policy\.allow_remote_placement/ && !filter { filter = FNR }
     /\.admits\(/ { calls++; if (!kernel || !filter) stray = FNR }
     END {
       if (calls != 1) { print "error: " calls + 0 " .admits( call sites in " FILENAME "; the kernel has one"; exit 1 }
       if (stray) { print "error: " FILENAME ":" stray ": .admits( outside the source loop or ahead of its allow_remote_placement filter"; exit 1 }
     }' crates/core/src/greedy.rs >&2

echo "==> standing-jobs lint (jobs are rebuilt, and trials looked up, in one place)"
# Outside its test module sorp.rs reads an overflow set in two places — the
# rebuild of a moved storage's jobs and the fallback tail — and looks a
# trial up in one; a second site is the rebuild-everything loop coming back.
for want in 'overflow_set(:2' 'take_cached(:1'; do
  call="${want%:*}"
  n="$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// && !/^fn / { print }' crates/core/src/sorp.rs \
      | grep -oF "$call" | wc -l)"
  if [ "$n" -ne "${want#*:}" ]; then
    echo "error: $n calls of $call in crates/core/src/sorp.rs, expected ${want#*:}" >&2
    exit 1
  fi
done

echo "==> one-pipeline lint (no oracle switches, one pipeline body in shard.rs)"
# Reference implementations live in crates/oracles, not behind a bool on a
# production struct; and the solve pipeline exists once, so the partition
# and the merge are each called from exactly one place.
if grep -rn --include='*.rs' -E 'use_[a-z_]*: bool' crates/core/src crates/experiments/src; then
  echo "error: no use_* switches in crates/{core,experiments}/src (put the reference in crates/oracles)" >&2
  exit 1
fi
for call in 'partition_requests(' 'PricedSchedule::merge('; do
  n="$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' crates/core/src/shard.rs | grep -cF "$call" || true)"
  if [ "$n" -gt 1 ]; then
    echo "error: $n calls of $call in crates/core/src/shard.rs; the pipeline has one body" >&2
    exit 1
  fi
done
# vod-oracles is dev-only: outside its own manifest and the workspace
# table it may be named under [dev-dependencies] alone.
if awk 'FNR == 1 { sec = "" } /^\[/ { sec = $0 }
        /vod-oracles/ && sec != "[dev-dependencies]" && sec != "[workspace.dependencies]" && sec != "[package]" {
          print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' Cargo.toml crates/*/Cargo.toml; then
  echo "error: vod-oracles may appear under [dev-dependencies] only" >&2
  exit 1
fi

echo "==> one-timer lint (no [[bench]] targets, no criterion dependency)"
# Timings come from the service benchmark (benchmark/, BENCHMARK.json) and
# the paper's figures from `vodx`; a bench target would be a third timer.
manifests="$(find . \( -name target -o -name .bench_build -o -name .git \) -prune -o -name Cargo.toml -print)"
# shellcheck disable=SC2086
if grep -nE '^\[\[bench\]\]|^[[:space:]]*criterion[[:space:]]*[.=]|dependencies\.criterion' $manifests; then
  echo "error: time through benchmark/run.sh, not a [[bench]] target or criterion" >&2
  exit 1
fi

echo "==> one-driver lint (service_run over ServiceLoop is the only code that runs a cycle)"
# Outside test modules: ServiceLoop::run_cycle is called once, from
# service_run, and no entry point has a *_recorded twin (the recorder rides
# in SchedCtx).
driver_hits="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { test = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.run_cycle\(/ && !(FILENAME == "crates/core/src/service.rs" && fn == "service_run") {
      print FILENAME ":" FNR ": run_cycle called outside service_run" }
    /\.run_cycle\(/ { calls++ }
    /fn [a-z_]*_recorded[(<]/ { print FILENAME ":" FNR ": a *_recorded twin" }
    END { if (calls != 1) print calls + 0 " .run_cycle( calls under crates/*/src; service_run has the one" }')"
if [ -n "$driver_hits" ]; then
  echo "$driver_hits" >&2
  echo "error: drive cycles through vod_core::service_run" >&2
  exit 1
fi

echo "==> one-commit lint (a cycle's schedule enters the book once, after repair, from run_cycle)"
# Outside test modules crates/core/src has one book commit, the call of
# absorb_solved( inside run_cycle (absorb( is its every-row-dirty form for
# callers without a solve ledger, and only wraps it), one residency loop
# into the book, in absorb_solved, and no second commit path: no warm-state
# wrapper that commits inside the solve, no repair-side commit or ledger
# rebuild that cannot see the book, no re-pricing of the schedule between
# solve and repair.
commit_hits="$(awk '
    FNR == 1 { test = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.absorb(_solved)?\(/ && FILENAME != "crates/core/src/timeline.rs" {  # Prefix::absorb folds a breakpoint
      if (FILENAME == "crates/core/src/warm.rs" && fn == "absorb") { next }
      calls++
      if (!(FILENAME == "crates/core/src/service.rs" && fn == "run_cycle")) {
        print FILENAME ":" FNR ": the book absorbs outside run_cycle" } }
    FILENAME == "crates/core/src/warm.rs" && /\.residencies\(\)/ { loops++
      if (fn != "absorb_solved") { print FILENAME ":" FNR ": a second residency loop into the book" } }
    /absorb_repaired|shard_solve_warm|WarmState([^s]|$)/ {
      print FILENAME ":" FNR ": a second commit path (absorb_repaired / shard_solve_warm / WarmState)" }
    FILENAME == "crates/core/src/repair.rs" && /fn commit\(|from_schedule\(/ {
      print FILENAME ":" FNR ": repair commits through SolveState::commit on the state ledger" }
    FILENAME == "crates/core/src/service.rs" && /PricedSchedule::price\(/ {
      print FILENAME ":" FNR ": run_cycle re-prices the schedule" }
    END { if (calls != 1) print calls + 0 " book commits under crates/core/src; run_cycle has the one"
          if (loops != 1) print loops + 0 " residency loops in warm.rs; absorb_solved has the one" }
    ' crates/core/src/*.rs)"
if [ -n "$commit_hits" ]; then
  echo "$commit_hits" >&2
  echo "error: one commit per cycle — solve, repair the state, absorb what ships (see DESIGN.md §11.3)" >&2
  exit 1
fi

echo "==> one-definition lint (root tests build the benchmark cells from Scenario)"
# vod_experiments::Scenario::named is the one definition of each cell; a
# root test that draws the harness's catalog seed itself is a hand copy
# that silently stops matching when the cell changes. tests/setup_pin.rs
# pins the generators against their oracles and keeps its own inputs.
if grep -rn --include='*.rs' '0xCA7A_10C0_FFEE_0001' tests | grep -v '^tests/setup_pin\.rs:'; then
  echo "error: reduce Scenario::named(..) instead of rebuilding a benchmark cell by hand" >&2
  exit 1
fi

echo "==> cargo doc (rustdoc warnings, e.g. a broken intra-doc link, fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings (with the crates' clippy.toml rules)"
# crates/simulator: no HashMap / HashSet. crates/workload: no BTreeMap /
# HashMap in shard.rs; no generate_requests / generate_regional_requests /
# slice::sort_by in arrivals.rs. crates/faults: no RouteTable::build_avoiding
# in FaultPlan::generate. crates/core: no RouteTable::path / try_path, no
# parallel_map or std::thread::{spawn, scope}, no HashMap / HashSet.
cargo clippy --workspace --offline -- -D warnings

echo "All checks passed."
