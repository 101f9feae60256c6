#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Usage: scripts/check.sh  (from anywhere; runs at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q --release (workspace, optimized)"
cargo test -q --release --offline --workspace

echo "==> oracle crate + solver and ledger equivalence suites"
# vod-oracles' own tests show its audit has teeth; sorp_cache_props runs
# the production solver against the audited naive loop (and carries the
# trial-cache exactness regressions: the contended cell, the hand-built
# rebind); timeline_props and greedy_kernel_props hold the ledger to the
# flat scan directly.
cargo test -q --offline -p vod-oracles
cargo test -q --offline -p vod-core --test sorp_cache_props
cargo test -q --offline -p vod-core --test timeline_props
cargo test -q --offline -p vod-core --test greedy_kernel_props
cargo test -q --offline -p vod-core --test shard_props

echo "==> warm-start property suite"
cargo test -q --offline -p vod-core --test warm_start_props

echo "==> service-frontend property + overload suites"
cargo test -q --offline -p vod-core --test service_props
cargo test -q --offline --test service_overload_e2e
cargo run -q --release --offline -p vod-experiments --bin vodx -- service >/dev/null
cargo run -q --release --offline -p vod-experiments --bin vodx -- cycles --fast >/dev/null

echo "==> fault-injection suite"
cargo test -q --offline -p vod-faults
cargo test -q --offline -p vod-core repair
cargo test -q --offline -p vod-core --test repair_props
cargo test -q --offline --test fault_injection_e2e --test failure_injection
cargo test -q --offline -p vod-simulator --test replay_props

echo "==> data-model suites (shared routes, flat batches) and the per-request budgets"
cargo test -q --offline -p vod-core --test route_props
cargo test -q --offline -p vod-cost-model --test batch_props
cargo test -q --offline --test alloc_budget
cargo test -q --offline --test admission_budget
cargo test -q --offline --test resolve_budget
# One commit per cycle: on the benchmark's overload_faults cell, and over
# random fault plans, budgets, queue bounds and shardings, every cycle is
# overflow-free, leaves the book feasible and replays clean on every rung;
# repair over carried occupancy never overflows base + schedule.
cargo test -q --offline --test service_overload_e2e overload_faults_cell_replays_clean_on_every_rung
cargo test -q --offline -p vod-core --test repair_props repair_preserves_capacity_feasibility
cargo test -q --offline -p vod-core --test service_props the_book_is_feasible_after_every_cycle
# Burst-cycle bookkeeping: the key-selected heat ranking and the one-pass
# queue / park merges against the code they replaced (private, so unit
# tests), deadline misses by ticket, the cell's pinned decisions, and
# budgets no request fits.
cargo test -q --offline -p vod-core --lib service::tests::shed_order_matches_the_comparator_sort
cargo test -q --offline -p vod-core --lib service::tests::release_and_park_merges_match_per_ticket_inserts
cargo test -q --offline -p vod-core --test service_props a_served_twin_of_a_shed_ticket_is_still_a_deadline_miss
cargo test -q --offline --test service_overload_e2e overload_faults_cell_decisions_are_pinned
cargo test -q --offline --test service_overload_e2e adversarial_budgets_shed_or_run_full_and_conserve

echo "==> telemetry suite (obs crate + recorder transparency + e2e reconcile)"
cargo test -q --offline -p vod-obs
cargo test -q --offline -p vod-core --test telemetry_props
cargo test -q --offline --test telemetry_e2e
rec="$(mktemp /tmp/vod-flight.XXXXXX.jsonl)"
cargo run -q --release --offline -p vod-experiments --bin vodx -- service --fast --record "$rec" >/dev/null
cargo run -q --release --offline -p vod-experiments --bin vodx -- trace "$rec" >/dev/null
rm -f "$rec"

echo "==> service benchmark (smoke run, harness tests and lints)"
# The harness is its own package calling the core API through
# benchmark/src/adapter.rs; a core change that breaks it must fail here.
benchmark/run.sh --smoke >/dev/null
(cd benchmark && cargo test -q --offline && cargo clippy --offline --all-targets -- -D warnings)

echo "==> comparator lint (no panicking partial_cmp in first-party code)"
# NaN-poisoned sorts panic at runtime; f64::total_cmp is the workspace rule.
if grep -rn --include='*.rs' -E 'partial_cmp\([^)]*\)\s*\.\s*(unwrap|expect)' \
    crates src tests examples 2>/dev/null; then
  echo "error: use f64::total_cmp instead of partial_cmp().unwrap()" >&2
  exit 1
fi

echo "==> determinism lint (no hash containers in the replay simulator)"
# Whatever reaches a SimReport must come out in the same order on every
# run; RandomState iteration order does not.
if grep -rn --include='*.rs' -E 'Hash(Map|Set)' crates/simulator/src; then
  echo "error: keep HashMap/HashSet out of crates/simulator/src (sort, or use BTreeMap)" >&2
  exit 1
fi

echo "==> route lint (a transfer's route is a shared handle, never a per-request Vec)"
# Outside their test modules the schedulers take routes from the interning
# cells (RouteTable::shared_path, SchedCtx::relay_route); RouteTable::path /
# try_path build a fresh Vec per call and are for tests and one-off queries.
for f in crates/cost-model/src/schedule.rs crates/core/src/{greedy,sorp,repair,baselines}.rs; do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f" \
      | grep -E 'route: Vec<NodeId>|\.(try_)?path\('; then
    echo "error: use RouteTable::shared_path / SchedCtx::relay_route (Arc<[NodeId]>) in $f" >&2
    exit 1
  fi
done

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

echo "==> one-fan-out lint (the shard map is the only fan-out in core; one ledger implementation)"
# Outside test modules crates/core/src maps with an ExecMode in exactly one
# place (solve_over's map over shards), never calls parallel_map, never
# picks a mode for its caller, and has no second ledger or mode-taking twin.
core_src="$(for f in crates/core/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f"; done)"
if [ "$(grep -cF 'map_with_mode(' <<<"$core_src")" -ne 1 ] \
    || ! grep -F 'map_with_mode(' <<<"$core_src" | grep -q '^crates/core/src/shard.rs:'; then
  grep -F 'map_with_mode(' <<<"$core_src" >&2 || true
  echo "error: crates/core/src has one map_with_mode( call, in shard.rs::solve_over" >&2
  exit 1
fi
if grep -E 'parallel_map\(|ExecMode::default\(\)|ivsp_solve_with_mode|price_with_mode|LedgerMode' <<<"$core_src"; then
  echo "error: no inner fan-out, hidden ExecMode or ledger switch in crates/core/src (see DESIGN.md §8)" >&2
  exit 1
fi
# The experiments hand ExecMode::default() to service_run (the shard map may
# use it) and to nothing else: the two pinned solver signatures ignore their
# mode and get ExecMode::Sequential, so a sweep cell never looks parallel.
if grep -rn --include='*.rs' -F 'ExecMode::default()' crates/experiments/src | grep -v 'service_run('; then
  echo "error: under crates/experiments/src only service_run takes ExecMode::default()" >&2
  exit 1
fi

echo "==> one-driver lint (service_run over ServiceLoop is the only code that runs a cycle)"
# Outside test modules: ServiceLoop::run_cycle is called once, from
# service_run, and no entry point has a *_recorded twin (the recorder rides
# in SchedCtx) — the replay event's producer in the simulator excepted.
driver_hits="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { test = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.run_cycle\(/ && !(FILENAME == "crates/core/src/service.rs" && fn == "service_run") {
      print FILENAME ":" FNR ": run_cycle called outside service_run" }
    /\.run_cycle\(/ { calls++ }
    /fn [a-z_]*_recorded[(<]/ && fn != "replay_service_cycle_recorded" {
      print FILENAME ":" FNR ": a *_recorded twin" }
    END { if (calls != 1) print calls + 0 " .run_cycle( calls under crates/*/src; service_run has the one" }')"
if [ -n "$driver_hits" ]; then
  echo "$driver_hits" >&2
  echo "error: drive cycles through vod_core::service_run" >&2
  exit 1
fi

echo "==> one-commit lint (a cycle's schedule enters the book once, after repair, from run_cycle)"
# Outside test modules crates/core/src has one call of the book's absorb(,
# inside run_cycle, and no second commit path: no warm-state wrapper that
# commits inside the solve, no repair-side commit or ledger rebuild that
# cannot see the book, no re-pricing of the schedule between solve and repair.
commit_hits="$(awk '
    FNR == 1 { test = 0; fn = "" }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    match($0, /fn [a-z_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /\.absorb\(/ && FILENAME != "crates/core/src/timeline.rs" { calls++  # Prefix::absorb folds a breakpoint
      if (!(FILENAME == "crates/core/src/service.rs" && fn == "run_cycle")) {
        print FILENAME ":" FNR ": the book absorbs outside run_cycle" } }
    /absorb_repaired|shard_solve_warm|WarmState([^s]|$)/ {
      print FILENAME ":" FNR ": a second commit path (absorb_repaired / shard_solve_warm / WarmState)" }
    FILENAME == "crates/core/src/repair.rs" && /fn commit\(|from_schedule\(/ {
      print FILENAME ":" FNR ": repair commits through SolveState::commit on the state ledger" }
    FILENAME == "crates/core/src/service.rs" && /PricedSchedule::price\(/ {
      print FILENAME ":" FNR ": run_cycle re-prices the schedule" }
    END { if (calls != 1) print calls + 0 " .absorb( calls under crates/core/src; run_cycle has the one" }
    ' crates/core/src/*.rs)"
if [ -n "$commit_hits" ]; then
  echo "$commit_hits" >&2
  echo "error: one commit per cycle — solve, repair the state, absorb what ships (see DESIGN.md §11.3)" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --offline -- -D warnings

echo "All checks passed."
