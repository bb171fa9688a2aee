#!/usr/bin/env bash
# CI driver: builds the three preset configurations and runs their test
# suites. The release preset runs everything; the asan preset re-runs
# everything under AddressSanitizer+UBSan; the tsan preset runs the
# concurrency suites (thread_pool_test, meta_parallel_test, the TermStore
# interning hammer, the or-parallel tableau differential/cancellation
# hammer, and the reduced-seed cross-engine fuzz sweep TableauFuzzTsan)
# under ThreadSanitizer to certify the work-stealing pool, the parallel
# bouquet meta decision, the sharded hash-consing arena, and the
# or-parallel branch search. The trail-based tableau engine is serial by
# design (one mutable branch per trail, never shared across threads), so
# its tsan coverage is the fuzz sweep's serial trail passes racing only
# against the COW engines' pools. Extra gates: the `parallel` ctest label
# (the whole concurrency tier) is re-run as one batch on release, and the
# fixed-seed `fuzz` label (the 500-seed cross-engine differential sweep)
# runs as its own release batch; the index-layer differential suite
# (indexed matcher/engine vs the naive reference, the parallel-vs-serial
# and trail-vs-COW tableau differentials) is re-run
# explicitly under asan; the perf-trajectory files BENCH_datalog.json and
# BENCH_terms.json are regenerated and schema-checked against their
# bench/*.expected_keys so trajectory tooling never sees a silently
# drifted format (BENCH_terms must additionally show a nonzero intern hit
# rate, and BENCH_tableau.json — written by both tiling_runfit and
# meta_decision — is schema-checked after each writer, with the bouquet
# family additionally required to show a nonzero consistency-cache hit
# rate and every point required to report parallel and trail verdicts
# identical to the serial engine's, and the pigeonhole rows additionally
# required to show the trail engine's COW-copy elimination and nonzero
# nogood pruning). BENCH_serving.json (the serving layer's trajectory
# file) is regenerated and schema-checked too; its run doubles as the
# release-tier smoke of the concurrent line-protocol driver and must show
# zero protocol errors, a nonzero plan-cache hit rate, incremental-vs-
# scratch speedup above 1, and differentially identical answers. The
# serving suites (ServeSession/ServeDriver/BenchJson) re-run under asan,
# and the concurrent driver hammer joins the tsan tier. The unified
# scheduler gets its own gates: the Scheduler suite (nested task-group
# drains, the same-group-Wait regression, the exactly-one-pool acceptance
# test) runs in the asan batch, under tsan, and as its own release tier
# (ctest -L scheduler); BENCH_scheduler.json — the cross-layer contention
# bench — is regenerated and schema-checked, and must report
# verdicts_identical=1, zero serve protocol errors, and exactly one pool
# per scheduler. BENCH_planner.json (the multi-backend planner bench) is
# regenerated and schema-checked; every row must report answers
# bit-identical to its family's differential reference, every family must
# show the planner beating the worst pinned backend, the FO fast path must
# beat the datalog fixpoint on the lookup family, and the planner must
# choose at least three distinct backends across the families. The planner
# suites (FoRewriter/CompiledUcq/CspSat/Planner*) and the rule-pruning
# fixpoint differential (DatalogPrune) join the asan batch and
# PlannerConcurrency joins the tsan filter. The probe-escalation
# differential (EscalationDifferential: escalated verdicts vs the
# full-tableau-only solver), the multi-pair ground-model check
# (GroundModelsSatisfyTheOntology) and the meta-decision stats-delta test
# join the asan batch too. Finally, when clang-tidy is
# installed, the modernize/performance/bugprone profile in .clang-tidy
# runs over src/logic and src/reasoner.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

for preset in release asan tsan; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$JOBS"
done

echo "=== [release] concurrency tier (ctest -L parallel) ==="
ctest --preset release -j "$JOBS" -L parallel

echo "=== [release] cross-engine fuzz tier (ctest -L fuzz) ==="
ctest --preset release -j "$JOBS" -L fuzz

echo "=== [asan] differential suite (indexed vs naive reference) ==="
ctest --preset asan -j "$JOBS" \
  -R 'IndexedMatchesNaive|IndexedEngineMatchesNaive|RandomizedIndexMaintenance|SemiNaiveMatchesNaive|TableauDifferential|TableauParallel|TableauTrail|TableauFuzzTsan|ConsistencyCache|ServeSession|ServeDriver|BenchJson|Scheduler|FoRewriter|CompiledUcq|CspSat|Planner|DatalogPrune|EscalationDifferential|GroundModelsSatisfyTheOntology|MetaDecisionTableauStatsAreThisRunsOwn'

echo "=== [release] scheduler tier (ctest -L scheduler) ==="
ctest --preset release -j "$JOBS" -L scheduler

echo "=== perf trajectory: BENCH_datalog.json schema ==="
(cd build-release && ./bench/datalog_rewriting --benchmark_filter=_none_ >/dev/null)
keys_tmp="$(mktemp)"
grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_datalog.json \
  | tr -d '":' | sort -u > "$keys_tmp"
if ! diff -u bench/BENCH_datalog.expected_keys "$keys_tmp"; then
  echo "BENCH_datalog.json key schema drifted;" \
       "update bench/BENCH_datalog.expected_keys" >&2
  rm -f "$keys_tmp"
  exit 1
fi
rm -f "$keys_tmp"

echo "=== perf trajectory: BENCH_terms.json schema ==="
(cd build-release && ./bench/fig1_landscape --benchmark_filter=_none_ >/dev/null)
keys_tmp="$(mktemp)"
grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_terms.json \
  | tr -d '":' | sort -u > "$keys_tmp"
if ! diff -u bench/BENCH_terms.expected_keys "$keys_tmp"; then
  echo "BENCH_terms.json key schema drifted;" \
       "update bench/BENCH_terms.expected_keys" >&2
  rm -f "$keys_tmp"
  exit 1
fi
rm -f "$keys_tmp"
if ! grep -o '"formula_hit_rate": [0-9.e+-]*' build-release/BENCH_terms.json \
    | awk '{ exit !($2 > 0) }'; then
  echo "BENCH_terms.json: formula intern hit rate is zero —" \
       "hash consing is not deduplicating" >&2
  exit 1
fi

check_tableau_schema() {
  keys_tmp="$(mktemp)"
  grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_tableau.json \
    | tr -d '":' | sort -u > "$keys_tmp"
  if ! diff -u bench/BENCH_tableau.expected_keys "$keys_tmp"; then
    echo "BENCH_tableau.json key schema drifted ($1);" \
         "update bench/BENCH_tableau.expected_keys" >&2
    rm -f "$keys_tmp"
    exit 1
  fi
  rm -f "$keys_tmp"
}

echo "=== perf trajectory: BENCH_tableau.json schema (tiling_runfit) ==="
(cd build-release && ./bench/tiling_runfit --benchmark_filter=_none_ >/dev/null)
check_tableau_schema tiling_runfit

echo "=== perf trajectory: BENCH_tableau.json schema (meta_decision) ==="
(cd build-release && ./bench/meta_decision --benchmark_filter=_none_ >/dev/null)
check_tableau_schema meta_decision
if ! grep -o '"cache_hit_rate": [0-9.e+-]*' build-release/BENCH_tableau.json \
    | awk 'BEGIN { ok = 1 } { if ($2 <= 0) ok = 0 } END { exit !ok }'; then
  echo "BENCH_tableau.json: a bouquet-family point has zero consistency" \
       "cache hit rate — the chase memo is not being shared" >&2
  exit 1
fi
if ! grep -o '"verdicts_identical": [01]' build-release/BENCH_tableau.json \
    | awk 'BEGIN { ok = 1 } { if ($2 != 1) ok = 0 } END { exit !ok }'; then
  echo "BENCH_tableau.json: engine verdicts diverge from the naive" \
       "differential reference" >&2
  exit 1
fi
if ! grep -o '"parallel_verdicts_identical": [01]' \
    build-release/BENCH_tableau.json \
    | awk 'BEGIN { ok = 1 } { if ($2 != 1) ok = 0 } END { exit !ok }'; then
  echo "BENCH_tableau.json: or-parallel verdicts diverge from the serial" \
       "engine — cancellation or the shared budget broke determinism" >&2
  exit 1
fi
if ! grep -o '"trail_verdicts_identical": [01]' \
    build-release/BENCH_tableau.json \
    | awk 'BEGIN { ok = 1 } { if ($2 != 1) ok = 0 } END { exit !ok }'; then
  echo "BENCH_tableau.json: trail-engine verdicts diverge from the COW" \
       "engine — destructive backtracking or nogood pruning is unsound" >&2
  exit 1
fi
# The trail engine's raison d'être on the branch-heavy family: destructive
# backtracking must eliminate every COW clone, and learned nogoods must
# actually prune sibling colorings.
if ! grep '"family": "pigeonhole"' build-release/BENCH_tableau.json \
    | grep -o '"trail_cow_copies": [0-9]*' \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 0) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_tableau.json: a pigeonhole trail pass materialized COW" \
       "copies — destructive branching is cloning instances" >&2
  exit 1
fi
if ! grep '"family": "pigeonhole"' build-release/BENCH_tableau.json \
    | grep -o '"nogood_prunes": [0-9]*' \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 <= 0) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_tableau.json: a pigeonhole trail pass pruned no branches —" \
       "nogood learning is not firing" >&2
  exit 1
fi

echo "=== perf trajectory: BENCH_serving.json schema (serving) ==="
(cd build-release && ./bench/serving --benchmark_filter=_none_ >/dev/null)
keys_tmp="$(mktemp)"
grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_serving.json \
  | tr -d '":' | sort -u > "$keys_tmp"
if ! diff -u bench/BENCH_serving.expected_keys "$keys_tmp"; then
  echo "BENCH_serving.json key schema drifted;" \
       "update bench/BENCH_serving.expected_keys" >&2
  rm -f "$keys_tmp"
  exit 1
fi
rm -f "$keys_tmp"
# The serving run doubles as the release-tier smoke of the concurrent
# driver: every point must finish with zero protocol errors, plans must
# actually be reused across sessions, the incremental sessions must beat
# per-delta from-scratch evaluation, and their answers must be
# bit-identical to it on every delta.
if ! grep -o '"errors": [0-9]*' build-release/BENCH_serving.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 0) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_serving.json: a serving sweep point recorded protocol" \
       "errors — the concurrent driver smoke failed" >&2
  exit 1
fi
if ! grep -o '"plan_cache_hit_rate": [0-9.e+-]*' \
    build-release/BENCH_serving.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 <= 0) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_serving.json: a sweep point has zero plan-cache hit rate —" \
       "sessions are recompiling instead of sharing compiled plans" >&2
  exit 1
fi
if ! grep -o '"incremental_speedup": [0-9.e+-]*' \
    build-release/BENCH_serving.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 <= 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_serving.json: incremental maintenance is not beating" \
       "from-scratch evaluation on the delta family" >&2
  exit 1
fi
if ! grep -o '"answers_identical": [01]' build-release/BENCH_serving.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_serving.json: incremental answers diverge from the" \
       "from-scratch reference — SaturateDelta/DRed is unsound" >&2
  exit 1
fi

echo "=== perf trajectory: BENCH_scheduler.json schema (scheduler_contention) ==="
(cd build-release && ./bench/scheduler_contention --benchmark_filter=_none_ >/dev/null)
keys_tmp="$(mktemp)"
grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_scheduler.json \
  | tr -d '":' | sort -u > "$keys_tmp"
if ! diff -u bench/BENCH_scheduler.expected_keys "$keys_tmp"; then
  echo "BENCH_scheduler.json key schema drifted;" \
       "update bench/BENCH_scheduler.expected_keys" >&2
  rm -f "$keys_tmp"
  exit 1
fi
rm -f "$keys_tmp"
# The contention run is the release-tier proof that sharing one pool is
# safe: every parallel verdict computed under cross-layer contention must
# equal the serial reference, and the serving traffic must finish with
# zero protocol errors.
if ! grep -o '"verdicts_identical": [01]' build-release/BENCH_scheduler.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_scheduler.json: verdicts under cross-layer contention" \
       "diverge from the serial reference" >&2
  exit 1
fi
if ! grep -o '"serve_errors": [0-9]*' build-release/BENCH_scheduler.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 0) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_scheduler.json: serving traffic recorded protocol errors" \
       "while sharing the pool with the reasoning layers" >&2
  exit 1
fi
# At least one pool must have been created and exactly one per scheduler:
# a pools_created != 1 here means a layer snuck a private pool back in.
if ! grep -o '"pools_created": [0-9]*' build-release/BENCH_scheduler.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_scheduler.json: the shared scheduler reports a pool count" \
       "other than one" >&2
  exit 1
fi

echo "=== perf trajectory: BENCH_planner.json schema (planner) ==="
(cd build-release && ./bench/planner --benchmark_filter=_none_ >/dev/null)
keys_tmp="$(mktemp)"
grep -o '"[A-Za-z_][A-Za-z0-9_]*":' build-release/BENCH_planner.json \
  | tr -d '":' | sort -u > "$keys_tmp"
if ! diff -u bench/BENCH_planner.expected_keys "$keys_tmp"; then
  echo "BENCH_planner.json key schema drifted;" \
       "update bench/BENCH_planner.expected_keys" >&2
  rm -f "$keys_tmp"
  exit 1
fi
rm -f "$keys_tmp"
# The planner run is the release-tier proof of the backend lattice: every
# backend's answers on every family must be bit-identical to the family's
# reference run, the planner must beat the worst pinned backend on every
# family, the FO fast path must beat the datalog fixpoint it replaces on
# the lookup family, and the planner must actually exercise the lattice
# (at least three distinct backends chosen across the families).
if ! grep -o '"answers_identical": [01]' build-release/BENCH_planner.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_planner.json: a backend's answers diverge from the" \
       "family's differential reference" >&2
  exit 1
fi
if ! grep -o '"planner_speedup": [0-9.e+-]*' build-release/BENCH_planner.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 <= 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_planner.json: the planner is not beating the worst pinned" \
       "backend on every family" >&2
  exit 1
fi
if ! grep -o '"fo_beats_datalog": [01]' build-release/BENCH_planner.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 != 1) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_planner.json: the FO fast path is not beating the datalog" \
       "fixpoint on the lookup family" >&2
  exit 1
fi
if ! grep -o '"distinct_backends": [0-9]*' build-release/BENCH_planner.json \
    | awk 'BEGIN { ok = 1; n = 0 } { n++; if ($2 < 3) ok = 0 } \
           END { exit !(ok && n > 0) }'; then
  echo "BENCH_planner.json: the planner chose fewer than three distinct" \
       "backends — the lattice is not being exercised" >&2
  exit 1
fi

echo "=== clang-tidy (modernize, performance, bugprone) ==="
if command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy -p build-release --quiet src/logic/*.cc src/reasoner/*.cc
else
  echo "clang-tidy not installed; skipping static-analysis step"
fi

echo "ci.sh: all presets green"
