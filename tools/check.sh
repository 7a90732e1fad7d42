#!/usr/bin/env bash
# Builds and runs the tier-1 test suite under AddressSanitizer,
# ThreadSanitizer and UndefinedBehaviorSanitizer (cmake
# -DDSKS_SANITIZE=...) — with a dedicated chaos pass exercising storage
# fault injection under each sanitizer — then a Release perf smoke that
# fails if bench_throughput's single-thread qps dropped more than 25%
# below the committed bench/baseline_throughput.json, a `dsks_cli chaos`
# smoke proving the process survives injected faults, and a `dsks_cli
# serve` smoke whose live /varz, /metrics and /tracez must show the
# queries it just served.
# Usage:
#
#   tools/check.sh            # all three sanitizers + perf smoke
#   tools/check.sh thread     # just one sanitizer (skips the perf smoke)
#
# DSKS_SKIP_PERF=1 skips the perf smoke. Build trees go to build-asan/,
# build-tsan/, build-ubsan/ and build-perf/ next to build/ (all
# gitignored).
set -euo pipefail

cd "$(dirname "$0")/.."

# UBSan only prints its report by default and the test still exits 0;
# halting turns every report into a failure.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

sanitizers=("${@:-address}")
if [ "$#" -eq 0 ]; then
  sanitizers=(address thread undefined)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address)   dir=build-asan ;;
    thread)    dir=build-tsan ;;
    undefined) dir=build-ubsan ;;
    *)         dir=build-$san ;;
  esac
  echo "=== $san sanitizer: configuring $dir ==="
  cmake -B "$dir" -S . -DDSKS_SANITIZE="$san" > /dev/null
  cmake --build "$dir" -j"$(nproc)"
  echo "=== $san sanitizer: running tests ==="
  # die_after_fork=0: gtest death tests fork; TSan only instruments the
  # parent side here and the forked child exec()s or exits immediately.
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ctest --output-on-failure -j"$(nproc)")
  # The chaos suite is in ctest already; run it again on its own so a
  # sanitizer hit in the fault-handling paths is attributed loudly.
  echo "=== $san sanitizer: chaos (storage faults under $san) ==="
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ./tests/chaos_test \
      --gtest_brief=1)
  # Storage and chaos suites again with pages on a real file: the ctest
  # pass above covered the sim backend (the default); DSKS_TEST_BACKEND
  # reruns the same binaries against pread/pwrite + CRC sidecar, so both
  # backends face the same faults under the same sanitizer. The golden
  # counters must come out identical on both backends.
  echo "=== $san sanitizer: storage + chaos suites on the file backend ==="
  for t in storage_test fault_injection_test buffer_pool_concurrency_test \
           durability_test prefetch_test golden_counters_test obs_test \
           trace_attribution_test chaos_test; do
    (cd "$dir" && DSKS_TEST_BACKEND=file TSAN_OPTIONS="die_after_fork=0" \
        "./tests/$t" --gtest_brief=1)
  done
  # The query-service suite on its own too: the TCP front end is where
  # worker threads, the batcher, the poll loop and client threads all
  # meet, so a data race there should be attributed loudly, like chaos.
  echo "=== $san sanitizer: query service (server_test under $san) ==="
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ./tests/server_test \
      --gtest_brief=1)
  echo "=== $san sanitizer: OK ==="
done

# Perf smoke: only in the default full run, and skippable for machines
# where a Release build or stable timing is unavailable.
if [ "$#" -eq 0 ] && [ "${DSKS_SKIP_PERF:-0}" != "1" ]; then
  echo "=== perf smoke: building build-perf (Release) ==="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-perf -j"$(nproc)" --target bench_throughput --target dsks_cli
  echo "=== perf smoke: bench_throughput, 3 runs, best counts ==="
  : > build-perf/perf_smoke.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        DSKS_BENCH_THREADS=1 ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_smoke.jsonl
  done
  python3 tools/perf_gate.py bench/baseline_throughput.json \
    build-perf/perf_smoke.jsonl
  echo "=== perf smoke: OK ==="

  # Tracing-overhead gate: the same bench re-run with 1-in-16 sampled
  # tracing must stay inside the noise band of the unsampled smoke above.
  # "Always-on sampled tracing" is only honest if sampling is ~free.
  echo "=== tracing-overhead gate: 3 sampled runs vs the unsampled smoke ==="
  : > build-perf/perf_sampled.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        DSKS_BENCH_THREADS=1 DSKS_BENCH_SAMPLE=16 ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_sampled.jsonl
  done
  python3 tools/perf_gate.py overhead build-perf/perf_smoke.jsonl \
    build-perf/perf_sampled.jsonl
  echo "=== tracing-overhead gate: OK ==="

  # Observability smoke: the bench artifact must match the schema
  # (including the merged-histogram fields and a per-phase profile), and
  # the metrics endpoint must expose the executor histogram plus live
  # pool/disk sources.
  echo "=== obs smoke: validating BENCH_throughput.json + dsks_cli metrics ==="
  python3 tools/perf_gate.py validate-bench build-perf/BENCH_throughput.json
  ./build-perf/tools/dsks_cli metrics --queries 32 --threads 2 \
    > build-perf/metrics_smoke.json
  python3 tools/perf_gate.py validate-metrics build-perf/metrics_smoke.json
  echo "=== obs smoke: OK ==="

  # Chaos smoke: a Release-build workload under injected read faults must
  # exit 0 with its failures accounted — queries fail, the process does not.
  echo "=== chaos smoke: dsks_cli chaos under injected faults ==="
  ./build-perf/tools/dsks_cli chaos --queries 128 --threads 8 \
    --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== chaos smoke: OK ==="

  # Server smoke: start the query server with every query traced, run one
  # valid and one malformed query over the socket, scrape the
  # shared-listener observability routes while it still serves — nothing
  # drains its executor, so /varz must show the served query live — then
  # stop it with SIGTERM and expect a clean summary. Then an overload
  # drill at ~4x capacity whose JSON record must pass the schema +
  # exact-admission gate with real shedding, and the end-to-end chaos
  # drill over a socket. Note: no DSKS_IO_DELAY_US=0 here — the sim
  # disk's default per-read delay is what makes the drill actually
  # saturate its tiny queue.
  echo "=== server smoke: serve, query, scrape, overload drill, shutdown ==="
  rm -f build-perf/serve_smoke.out
  ./build-perf/tools/dsks_cli serve --port 0 --sample 1 --duration-ms 120000 \
      > build-perf/serve_smoke.out &
  serve_pid=$!
  serve_port=""
  for _ in $(seq 1 300); do
    serve_port="$(sed -n \
      's/^serving queries on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      build-perf/serve_smoke.out 2>/dev/null | head -1)"
    [ -n "$serve_port" ] && break
    sleep 0.2
  done
  if [ -z "$serve_port" ]; then
    echo "server smoke: serve never printed its port" >&2
    cat build-perf/serve_smoke.out >&2
    exit 1
  fi
  python3 - "$serve_port" <<'EOF'
import json, socket, sys
port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
f = s.makefile("r")
# A valid query answers OK with its id echoed...
s.sendall(b'{"op":"sk","terms":[1,2],"edge":0,"offset":0,'
          b'"delta":1000,"id":"smoke"}\n')
resp = json.loads(f.readline())
if resp.get("status") != "OK" or resp.get("id") != "smoke":
    sys.exit(f"server smoke: unexpected response {resp}")
# ...and a malformed line answers INVALID_ARGUMENT on the same connection.
s.sendall(b"this is not json\n")
resp = json.loads(f.readline())
if resp.get("status") != "INVALID_ARGUMENT":
    sys.exit(f"server smoke: malformed line answered {resp}")
print("server smoke: query OK, malformed line rejected in-band")
EOF
  # A worker records its query just after the response goes out, so poll
  # (bounded) until /varz carries the one admitted query; the malformed
  # line never reaches the executor.
  varz_ok=0
  for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$serve_port/varz" \
         > build-perf/varz_smoke.json &&
       grep -q '"executor.queries":1[,}]' build-perf/varz_smoke.json &&
       python3 tools/perf_gate.py validate-metrics build-perf/varz_smoke.json \
         > /dev/null; then
      varz_ok=1
      break
    fi
    sleep 0.1
  done
  if [ "$varz_ok" != 1 ]; then
    echo "server smoke: live /varz never showed the served query" >&2
    cat build-perf/varz_smoke.json >&2
    python3 tools/perf_gate.py validate-metrics build-perf/varz_smoke.json
    exit 1
  fi
  python3 tools/perf_gate.py validate-metrics build-perf/varz_smoke.json
  curl -fsS "http://127.0.0.1:$serve_port/tracez" > build-perf/tracez_smoke.json
  python3 - build-perf/tracez_smoke.json <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
if snap["recorded"] < 1 or not snap["recent"]:
    sys.exit("server smoke: /tracez recorded no queries")
print(f"server smoke: /tracez recorded {snap['recorded']} queries")
EOF
  curl -fsS "http://127.0.0.1:$serve_port/metrics" \
    > build-perf/metrics_serve_smoke.txt
  grep -q '^# TYPE ' build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: /metrics has no Prometheus TYPE lines" >&2
    exit 1
  }
  if grep -q 'dsks_dsks_' build-perf/metrics_serve_smoke.txt; then
    echo "server smoke: /metrics has a doubled dsks_ prefix" >&2
    exit 1
  fi
  curl -fsS "http://127.0.0.1:$serve_port/statusz" |
    grep -q '"admitted":1' || {
    echo "server smoke: /statusz does not show the admitted query" >&2
    exit 1
  }
  curl -fsS "http://127.0.0.1:$serve_port/healthz" > /dev/null
  kill -TERM "$serve_pid"
  wait "$serve_pid" || {
    echo "server smoke: serve did not exit cleanly on SIGTERM" >&2
    exit 1
  }
  grep -q '^served ' build-perf/serve_smoke.out || {
    echo "server smoke: serve printed no shutdown summary" >&2
    exit 1
  }
  ./build-perf/tools/dsks_cli drill --clients 8 --queries 32 --threads 2 \
      --queue 8 --invalid-p 0.05 > build-perf/drill_smoke.out
  grep '"bench":"server_drill"' build-perf/drill_smoke.out |
    head -1 > build-perf/drill_smoke.json
  python3 tools/perf_gate.py validate-server build-perf/drill_smoke.json
  python3 - build-perf/drill_smoke.json <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
if rec["server_shed"] == 0:
    sys.exit("server smoke: drill at 4x capacity shed nothing — the "
             "overload probe is not probing overload")
print(f"server smoke: drill shed {rec['server_shed']} of "
      f"{rec['server_offered']} offered, exactly accounted")
EOF
  ./build-perf/tools/dsks_cli chaos --socket --queries 128 --threads 8 \
      --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== server smoke: OK ==="

  # File-backend smoke: a small bench run with pages on a real file must
  # produce a schema-valid artifact stamped "backend":"file" (kept in a
  # separate cwd so it can never be confused with the sim artifact or fed
  # to the sim perf gate), and chaos must survive on real files too.
  echo "=== file-backend smoke: bench_throughput + dsks_cli chaos ==="
  mkdir -p build-perf/file-smoke
  (cd build-perf/file-smoke && DSKS_IO_DELAY_US=0 DSKS_BENCH_SCALE=0.3 \
      DSKS_BENCH_QUERIES=40 DSKS_BENCH_THREADS=1,2 \
      ../bench/bench_throughput --backend=file)
  python3 tools/perf_gate.py validate-bench \
    build-perf/file-smoke/BENCH_throughput.json
  grep -q '"backend":"file"' build-perf/file-smoke/BENCH_throughput.json || {
    echo "file-backend smoke: artifact is missing \"backend\":\"file\"" >&2
    exit 1
  }
  ./build-perf/tools/dsks_cli chaos --backend file --queries 128 \
    --threads 8 --read-fault-p 0.002 --retries 2 --seed 42
  echo "=== file-backend smoke: OK ==="

  # Cold-cache smoke: the prefetch A/B on real files must produce a
  # schema-valid artifact with cold records, and prefetching must actually
  # reduce blocking misses there — a silent prefetch regression would
  # otherwise only show up as slowly eroding cold-start latency.
  echo "=== cold-cache smoke: bench_throughput --cold on the file backend ==="
  mkdir -p build-perf/cold-smoke
  (cd build-perf/cold-smoke && DSKS_IO_DELAY_US=0 DSKS_BENCH_SCALE=0.3 \
      DSKS_BENCH_QUERIES=40 ../bench/bench_throughput --backend=file --cold)
  python3 tools/perf_gate.py validate-bench \
    build-perf/cold-smoke/BENCH_throughput.json
  grep -q '"cold":1' build-perf/cold-smoke/BENCH_throughput.json || {
    echo "cold-cache smoke: artifact is missing \"cold\":1 records" >&2
    exit 1
  }
  python3 - build-perf/cold-smoke/BENCH_throughput.json <<'EOF'
import json, sys
recs = json.load(open(sys.argv[1]))
for wl in ("sk", "div-com"):
    misses = {r["prefetch"]: r["pool_misses"] for r in recs
              if r.get("cold") == 1 and r.get("workload") == wl}
    if misses.get(1, 1) * 2 > misses.get(0, 0):
        sys.exit(f"cold-cache smoke: {wl}: prefetch-on misses {misses.get(1)} "
                 f"not < half of prefetch-off misses {misses.get(0)}")
    print(f"cold-cache smoke: {wl}: misses {misses[0]} -> {misses[1]}")
EOF
  echo "=== cold-cache smoke: OK ==="
fi
