#!/usr/bin/env bash
# CI entry point: build + test the default preset, then the asan-ubsan
# preset. The chaos suite (test_chaos) runs under both, so every seeded
# fault schedule is exercised with memory/UB checking on.
#
# The default preset's ctest run includes the ScriptLint.* gate (sor lint
# --strict over examples/scripts/*.sor and both built-in scripts); a
# separate stage below re-runs the linter explicitly so its diagnostics
# appear in the CI log even on success.
#
# A clang-tidy stage (bugprone/performance/concurrency, config in
# .clang-tidy) runs when clang-tidy is installed and is skipped with a
# notice otherwise — the container image does not ship it.
#
# A ThreadSanitizer stage always runs the multi-threaded tests (the
# determinism contract, the chaos suite and the plan oracles drive the
# sharded runtime with threads > 1); pass --with-tsan to run the FULL suite
# under TSan too.
#
# Usage: tools/ci.sh [--with-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=(default asan-ubsan)
FULL_TSAN=0
if [[ "${1:-}" == "--with-tsan" ]]; then
  FULL_TSAN=1
fi

# CMake presets need >= 3.21; fall back to a plain build on older CMake.
if ! cmake --list-presets >/dev/null 2>&1; then
  echo "ci: cmake too old for presets; plain build" >&2
  cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "$(nproc)"
  ctest --test-dir build -j "$(nproc)" --output-on-failure
  exit 0
fi

# The asan-ubsan and tsan test presets exclude the one wall-clock gate,
# Perf.IndexedScanVisitationAtLeast5xFasterThanBaseline: sanitizers slow it
# past its bound. The default preset runs it.
for preset in "${PRESETS[@]}"; do
  echo "=== preset: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "$(nproc)"
  ctest --preset "${preset}" -j "$(nproc)"
done

echo "=== stage: determinism lint ==="
# Static gate against nondeterminism sources (wall clocks, rand(), hash-
# ordered containers, thread ids) in the deterministic core; see
# tools/determinism_lint.sh for the pattern list and the per-line
# `det-lint: allow` escape.
tools/determinism_lint.sh

echo "=== stage: sensescript lint ==="
SOR_BIN=build/tools/sor
if [[ -x "${SOR_BIN}" ]]; then
  for script in examples/scripts/*.sor; do
    "${SOR_BIN}" lint "${script}" --strict
  done
  "${SOR_BIN}" lint --builtin trails --strict
  "${SOR_BIN}" lint --builtin coffee --strict
else
  echo "ci: ${SOR_BIN} not built; lint already covered by ScriptLint.* tests" >&2
fi

echo "=== stage: observability ==="
# Determinism gate on the telemetry subsystem (docs/observability.md): the
# exact same chaos campaign must produce byte-identical traces — compared
# here via `sor trace --fingerprint` — at 1, 2, and 8 worker threads, for
# several seeds and both scenarios (trails carries the GPS and
# multi-sensor uploads). test_obs proves this in-process; this stage proves
# it through the shipped CLI. Then micro_obs smoke-runs the overhead report.
if [[ -x "${SOR_BIN}" ]]; then
  for scenario in coffee trails; do
    for seed in 1 2 3 4 5; do
      baseline=""
      for threads in 1 2 8; do
        fp="$("${SOR_BIN}" trace --scenario "${scenario}" --chaos \
              --seed "${seed}" --threads "${threads}" --fingerprint)"
        if [[ -z "${baseline}" ]]; then
          baseline="${fp}"
        elif [[ "${fp}" != "${baseline}" ]]; then
          echo "ci: trace fingerprint diverged (scenario=${scenario}" \
               "seed=${seed} threads=${threads}): ${fp} != ${baseline}" >&2
          exit 1
        fi
      done
      echo "ci: ${scenario} trace ${baseline} stable across threads 1/2/8" \
           "(seed ${seed})"
    done
  done
  "${SOR_BIN}" trace --chaos --seed 1 --summary
else
  echo "ci: ${SOR_BIN} not built; determinism covered by ObsDeterminism.*" >&2
fi
if [[ -x build/bench/micro_obs ]]; then
  build/bench/micro_obs
else
  echo "ci: build/bench/micro_obs not built; skipping overhead report" >&2
fi
# SenseScript compile + per-run cost of the one executor (--allow-dirty:
# a smoke run, not a blessed BENCH_micro_script.json refresh).
if [[ -x build/bench/micro_script ]]; then
  build/bench/micro_script --allow-dirty
else
  echo "ci: build/bench/micro_script not built; skipping script cost report" >&2
fi

echo "=== stage: chaos matrix (overload + churn, docs/robustness.md) ==="
# Robustness gate: the node/storage fault domains and the overload ladder,
# under ASan/UBSan. The churn + throttle fingerprint matrices (2 scenarios
# x 5 seeds x threads 1/2/8) and the chaos battery (10-seed churn rankings
# == fault-free baseline, overload sheds-stale-and-recovers, storage-fault
# reprime) all run here; the same tests run under TSan in the tsan stage
# below, whose -R already matches 'Determinism\.|Chaos\.'.
ctest --preset asan-ubsan -j "$(nproc)" --output-on-failure \
  -R 'Determinism\.(Churn|Throttle)|Chaos\.(Churn|Overload|Storage)'
# Shed-counter smoke through the shipped CLI: a budget-capped campaign
# must report non-zero throttle AND stale-shed counters in `sor metrics`.
if [[ -x "${SOR_BIN}" ]]; then
  overload_metrics="$("${SOR_BIN}" metrics --scenario coffee --overload)"
  for counter in server.uploads_throttled server.uploads_shed; do
    value="$(echo "${overload_metrics}" | awk -v c="${counter}" \
             '$1 == c { print $2 }')"
    if [[ -z "${value}" || "${value}" == "0" ]]; then
      echo "ci: ${counter} not exercised by 'sor metrics --overload'" \
           "(got '${value:-missing}')" >&2
      exit 1
    fi
    echo "ci: ${counter}=${value} under --overload"
  done
else
  echo "ci: ${SOR_BIN} not built; shed counters covered by ServerOverload.*" >&2
fi
# Overload bench smoke: exits non-zero if the fleet fails to fully drain
# after the 2x-overload campaign (output is the BENCH_overload.json body).
if [[ -x build/bench/overload ]]; then
  build/bench/overload > BENCH_overload.json
  echo "ci: wrote BENCH_overload.json"
else
  echo "ci: build/bench/overload not built; skipping overload bench" >&2
fi

echo "=== stage: out-of-process serving (docs/deployment.md) ==="
# Integration gate for the `sor serve` daemon + `sor loadgen` pair: bring
# the daemon up on a Unix socket, replay a campaign over real sockets,
# SIGTERM it, and require (a) a clean exit, (b) a snapshot on disk, (c) a
# non-empty loadgen report, and (d) rankings byte-identical to the
# in-process `sor fieldtest` run of the same seed — the equivalence
# contract the daemon tests prove over pipes, re-proven here through the
# shipped binaries and a real socket.
if [[ -x "${SOR_BIN}" ]]; then
  serve_dir="$(mktemp -d)"
  serve_sock="${serve_dir}/sor.sock"
  serve_args=(--scenario trails --phones 4 --period 1200 --seed 42)
  "${SOR_BIN}" serve "${serve_args[@]}" --bind "unix:${serve_sock}" \
    --snapshot "${serve_dir}/snapshot.bin" \
    --rankings-out "${serve_dir}/rankings.daemon.txt" \
    > "${serve_dir}/serve.log" 2>&1 &
  serve_pid=$!
  for _ in $(seq 50); do
    [[ -S "${serve_sock}" ]] && break
    sleep 0.1
  done
  "${SOR_BIN}" loadgen "${serve_args[@]}" --connect "unix:${serve_sock}" \
    --workers 2 --report "${serve_dir}/BENCH_loadgen.json"
  kill -TERM "${serve_pid}"
  if ! wait "${serve_pid}"; then
    echo "ci: sor serve exited non-zero after SIGTERM" >&2
    cat "${serve_dir}/serve.log" >&2
    exit 1
  fi
  [[ -s "${serve_dir}/snapshot.bin" ]] \
    || { echo "ci: daemon wrote no snapshot" >&2; exit 1; }
  [[ -s "${serve_dir}/BENCH_loadgen.json" ]] \
    || { echo "ci: loadgen wrote no report" >&2; exit 1; }
  cp "${serve_dir}/BENCH_loadgen.json" BENCH_loadgen.json
  "${SOR_BIN}" fieldtest "${serve_args[@]}" \
    --rankings-out "${serve_dir}/rankings.inproc.txt" > /dev/null
  if ! cmp "${serve_dir}/rankings.daemon.txt" \
           "${serve_dir}/rankings.inproc.txt"; then
    echo "ci: daemon rankings differ from in-process run" >&2
    diff "${serve_dir}/rankings.daemon.txt" \
         "${serve_dir}/rankings.inproc.txt" >&2 || true
    exit 1
  fi
  echo "ci: daemon rankings byte-identical to in-process run"
  echo "ci: wrote BENCH_loadgen.json"
  # Unknown-flag rejection: every subcommand must name the bad flag and
  # exit non-zero instead of silently ignoring a typo.
  if "${SOR_BIN}" fieldtest --scenario trails --phoens 3 \
       > "${serve_dir}/badflag.log" 2>&1; then
    echo "ci: unknown flag was accepted" >&2
    exit 1
  fi
  grep -q "phoens" "${serve_dir}/badflag.log" \
    || { echo "ci: unknown-flag error does not name the flag" >&2; exit 1; }
  echo "ci: unknown flags rejected with the offending name"
  # An unknown scheduler value is refused the same way, naming the values
  # that are accepted.
  if "${SOR_BIN}" fieldtest --scenario trails --scheduler greedy \
       > "${serve_dir}/badsched.log" 2>&1; then
    echo "ci: unknown scheduler was accepted" >&2
    exit 1
  fi
  grep -q "lazy|periodic" "${serve_dir}/badsched.log" \
    || { echo "ci: unknown-scheduler error does not name lazy|periodic" >&2
         exit 1; }
  echo "ci: unknown scheduler rejected with the accepted values"
  rm -rf "${serve_dir}"
else
  echo "ci: ${SOR_BIN} not built; daemon covered by Daemon.* tests" >&2
fi

echo "=== stage: perf regression (operation counts) ==="
# Host-independent perf gate (docs/performance.md): the Perf.* suite pins
# the incremental data path's complexity guarantees as exact operation
# counts — processor.blobs_decoded is O(new uploads) per pass (never
# O(uploads × passes)), the upload/process hot path performs zero full
# table scans (db.full_scans), and the streaming accumulators stay
# bit-identical to the full recompute, including across snapshot/restore.
# Counts don't wobble with host load the way wall time does, so this stage
# fails only on real complexity regressions. micro_db then smoke-runs the
# per-operation storage cost report.
ctest --preset default -R 'Perf\.' --output-on-failure
if [[ -x build/bench/micro_db ]]; then
  # --allow-dirty: this is a smoke run, not a blessed BENCH_*.json refresh.
  build/bench/micro_db --allow-dirty
else
  echo "ci: build/bench/micro_db not built; skipping storage cost report" >&2
fi

echo "=== stage: layerbench self-test ==="
# The layer-timed benchmark (layerbench/README.md) builds its own copy of
# the libraries into the gitignored .bench_build/ and checks its campaign
# driver against the System::RunFieldTest oracle. A change that breaks the
# benchmark's build or its equivalence fails here, not at benchmark time.
python3 layerbench/run.py --self-test

echo "=== stage: 10k-phone scale smoke (O(delta) scheduling) ==="
# One 10k-phone campaign cell (~50s serial). The gate is the counters, not
# the wall time: plan-delta distribution must send EXACTLY one schedule per
# join (a fleet-wide redistribution would send ~fleet per join), and the
# per-join gain-evaluation count must stay O(window+budget) — hundreds at
# most, never the ~10k an O(fleet) replan would charge. Rows copied out of
# the database per join (the campaign's total over its joins, so it also
# carries each phone's uploads and leave) stay under the same constant cap
# as Perf.JoinAndLeaveMaterializeO1Rows (kMaxRowsMaterializedPerEvent in
# tests/test_perf.cpp); diffing the participation set per join would copy
# thousands.
ROWS_PER_JOIN_CAP=32
if [[ -x build/bench/scale_phones ]]; then
  cell_json="$(build/bench/scale_phones --cell 3334 1)"
  echo "ci: ${cell_json}"
  sent_per_join="$(sed -n 's/.*"schedules_sent_per_join": \([0-9.]*\).*/\1/p' \
                   <<<"${cell_json}")"
  evals_per_join="$(sed -n 's/.*"gain_evaluations_per_join": \([0-9.]*\).*/\1/p' \
                    <<<"${cell_json}")"
  if [[ "${sent_per_join}" != "1.000" ]]; then
    echo "ci: schedules_sent_per_join=${sent_per_join} (want 1.000) —" \
         "plan-delta distribution regressed to fleet-wide pushes" >&2
    exit 1
  fi
  if awk -v e="${evals_per_join}" 'BEGIN { exit !(e >= 1000) }'; then
    echo "ci: gain_evaluations_per_join=${evals_per_join} (want <1000) —" \
         "join replanning regressed toward O(fleet)" >&2
    exit 1
  fi
  rows_per_join="$(sed -n 's/.*"rows_materialized_per_join": \([0-9.]*\).*/\1/p' \
                   <<<"${cell_json}")"
  if [[ -z "${rows_per_join}" ]] || awk -v r="${rows_per_join}" \
       -v cap="${ROWS_PER_JOIN_CAP}" 'BEGIN { exit !(r > cap) }'; then
    echo "ci: rows_materialized_per_join=${rows_per_join:-missing}" \
         "(want <=${ROWS_PER_JOIN_CAP}) — joins regressed to copying" \
         "O(fleet) rows" >&2
    exit 1
  fi
else
  echo "ci: build/bench/scale_phones not built; skipping scale smoke" >&2
fi

echo "=== stage: multi-thread perf smoke (epoch runtime) ==="
# Wall-clock sanity for the epoch two-phase runtime (docs/runtime.md): on a
# multi-core host, running the 1000-phone scale_phones cell at threads=2
# must not be more than 25% slower than the serial run — phase A is
# supposed to overlap the per-phone compute, so a large regression means
# the merge pass (or something feeding it) reintroduced serialization.
# Single-core hosts measure the same serial machine plus coordination
# overhead at every thread count, so the comparison is meaningless there
# and is skipped with a notice rather than silently passed.
if [[ -x build/bench/scale_phones ]]; then
  if [[ "$(nproc)" -ge 2 ]]; then
    serial_ms="$(build/bench/scale_phones --cell 334 1 \
                 | sed -n 's/.*"wall_ms": \([0-9.]*\).*/\1/p')"
    two_ms="$(build/bench/scale_phones --cell 334 2 \
              | sed -n 's/.*"wall_ms": \([0-9.]*\).*/\1/p')"
    echo "ci: scale_phones 1000 phones: threads=1 ${serial_ms}ms," \
         "threads=2 ${two_ms}ms"
    # Fail if threads=2 wall > 1.25x serial wall.
    if awk -v s="${serial_ms}" -v t="${two_ms}" \
           'BEGIN { exit !(t > 1.25 * s) }'; then
      echo "ci: threads=2 regressed >25% vs serial" \
           "(${two_ms}ms vs ${serial_ms}ms) — epoch runtime not parallel" >&2
      exit 1
    fi
  else
    echo "ci: single-core host ($(nproc) cpu); skipping threads=2 vs" \
         "serial comparison — every thread count measures the same" \
         "serial machine" >&2
  fi
else
  echo "ci: build/bench/scale_phones not built; skipping perf smoke" >&2
fi

echo "=== stage: clang-tidy ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # The default preset's compile_commands.json drives the analysis; limit
  # it to first-party sources (deps under build/ are not ours to fix).
  cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t tidy_sources < <(find src tools -name '*.cpp' | sort)
  clang-tidy -p build --quiet "${tidy_sources[@]}"
else
  echo "ci: clang-tidy not installed; skipping C++ lint stage" >&2
fi

echo "=== preset: tsan (sharded runtime) ==="
cmake --preset tsan
if [[ "${FULL_TSAN}" == "1" ]]; then
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan -j "$(nproc)"
else
  # Default stage: only the tests that exercise threads > 1 — the
  # determinism contract and the chaos battery on the parallel runtime,
  # the plan oracles' delta observers on FlushReschedules workers, and
  # tasks on two threads executing the one module they share.
  cmake --build --preset tsan -j "$(nproc)" \
    --target test_determinism test_chaos test_plan_oracle test_phone
  ctest --preset tsan -j "$(nproc)" \
    -R 'Determinism\.|Chaos\.|PlanOracle\.|TaskCompileCache\.ConcurrentTasks'
fi
