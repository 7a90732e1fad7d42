#!/usr/bin/env bash
# Builds and runs the tier-1 test suite under AddressSanitizer,
# ThreadSanitizer and UndefinedBehaviorSanitizer (cmake
# -DDSKS_SANITIZE=...; the undefined build adds float-cast-overflow) —
# with a dedicated chaos pass exercising storage fault injection under
# each sanitizer — then the Release pass: a warning-free Release build of
# every target, the four examples (each must exit 0), a `dsks_cli
# generate`/`info`/`query` smoke over every query mode, two crafted
# dataset files and a flag `query` does not read,
# a `dsks_cli serve` smoke that must print its per-phase `setup:` and
# `setup peak rss:` lines and whose live /varz, /metrics and /tracez must
# show the queries it served, `dsks_cli drill` smokes (overload, and
# injected faults on both storage backends, which must be retried),
# file-backend and cold-cache bench smokes, and last the two gates:
# bench_throughput's qps must stay above 75% of the committed
# bench/baseline_throughput.json, and its 1-in-16 sampled runs must keep
# 85% of the unsampled qps. The gates run after every smoke, so a gate
# that fails on host load does not hide a smoke.
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
  # backends face the same faults under the same sanitizer, and the index
  # builders' direct page writes meet the file too. The golden counters and
  # index images must come out identical on both backends, the
  # pread miss path must allocate nothing (alloc_free_test), and
  # the adjacency views into the memo arena meet a real index file
  # (adjacency_memo_test). The index files go to a private TMPDIR, which
  # must be empty afterwards: a test (a death test's child included) that
  # leaves its dsks_* files behind fails the run.
  echo "=== $san sanitizer: storage + chaos suites on the file backend ==="
  file_tmp="$(mktemp -d)"
  for t in storage_test fault_injection_test buffer_pool_concurrency_test \
           durability_test golden_counters_test obs_test \
           trace_attribution_test chaos_test index_storage_test \
           alloc_free_test adjacency_memo_test; do
    (cd "$dir" && DSKS_TEST_BACKEND=file TMPDIR="$file_tmp" \
        TSAN_OPTIONS="die_after_fork=0" "./tests/$t" --gtest_brief=1)
  done
  leftovers="$(find "$file_tmp" -name 'dsks_*')"
  if [ -n "$leftovers" ]; then
    echo "file-backend suites left index files behind:" >&2
    echo "$leftovers" >&2
    exit 1
  fi
  rm -rf "$file_tmp"
  # The query-service suite on its own too: the TCP front end is where
  # worker threads, the poll loop and client threads all meet, so a data
  # race there should be attributed loudly, like chaos.
  echo "=== $san sanitizer: query service (server_test under $san) ==="
  (cd "$dir" && TSAN_OPTIONS="die_after_fork=0" ./tests/server_test \
      --gtest_brief=1)
  echo "=== $san sanitizer: OK ==="
done

# A `dsks_cli drill` under injected read faults (extra arguments passed
# through, `$1` names the output) whose record must pass validate-server
# and show at least one retry. Every injected fault fails the read it
# lands on, but a drill that sends few requests can still draw no fault
# and miss the retry path it is there to exercise. These drills send 512
# requests at a 2% read-fault rate (see EXPERIMENTS.md for the retries
# seen).
fault_drill_smoke() {
  local out="build-perf/fault_drill_$1.json"
  shift
  ./build-perf/tools/dsks_cli drill --clients 8 --queries 64 --threads 8 \
      --queue 512 --read-fault-p 0.02 --retries 2 --seed 42 "$@" |
    grep '"bench":"server_drill"' | head -1 > "$out"
  python3 tools/perf_gate.py validate-server "$out"
  python3 - "$out" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
if rec["server_retries"] == 0:
    sys.exit("fault drill: no retries — the faults never reached the retry "
             "path")
print(f"fault drill: {rec['server_read_faults']} read faults injected, "
      f"{rec['server_retries']} retries, {rec['server_client_failed']} "
      f"failed responses of {rec['server_offered']}")
EOF
}

# Perf smoke: only in the default full run, and skippable for machines
# where a Release build or stable timing is unavailable.
if [ "$#" -eq 0 ] && [ "${DSKS_SKIP_PERF:-0}" != "1" ]; then
  # Every target, tests included, and not one compiler warning: a
  # warning in a Release build is where an optimizer's view of the code
  # (inlining, -Wrestrict, -Wmaybe-uninitialized) first shows. Only what
  # this run recompiles is checked.
  echo "=== perf smoke: building build-perf (Release, every target) ==="
  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-perf -j"$(nproc)" 2>&1 | tee build-perf/build.log
  if grep -q 'warning:' build-perf/build.log; then
    echo "perf smoke: the Release build printed warnings:" >&2
    grep 'warning:' build-perf/build.log >&2
    exit 1
  fi

  # The runs both gates at the end grade: 3 unsampled runs, then 3 with
  # 1-in-16 sampled tracing, best counts.
  echo "=== perf smoke: bench_throughput, 3 unsampled + 3 sampled runs ==="
  : > build-perf/perf_smoke.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_smoke.jsonl
  done
  : > build-perf/perf_sampled.jsonl
  for _ in 1 2 3; do
    (cd build-perf && DSKS_IO_DELAY_US=0 DSKS_BENCH_QUERIES=100 \
        DSKS_BENCH_SAMPLE=16 ./bench/bench_throughput) |
      sed -n 's/^JSON //p' >> build-perf/perf_sampled.jsonl
  done

  # Observability smoke: the bench artifact must match the schema,
  # including a per-phase profile. The registry's JSON is validated on a
  # live /varz in the server smoke below.
  echo "=== obs smoke: validating BENCH_throughput.json ==="
  python3 tools/perf_gate.py validate-bench build-perf/BENCH_throughput.json
  echo "=== obs smoke: OK ==="

  # Examples: each runs with no arguments and must exit 0. They show the
  # library's use as a reader would copy it; the build above only shows
  # that they still compile.
  echo "=== examples: quickstart, restaurant_finder, road_trip_planner," \
    "index_tuning ==="
  for example in quickstart restaurant_finder road_trip_planner index_tuning; do
    status=0
    "./build-perf/examples/$example" > "build-perf/example_$example.out" ||
      status=$?
    if [ "$status" -ne 0 ]; then
      echo "examples: $example exited $status" >&2
      cat "build-perf/example_$example.out" >&2
      exit 1
    fi
    echo "examples: $example OK"
  done
  echo "=== examples: OK ==="

  # CLI smoke: generate a small SYN dataset, then `dsks_cli query` in all
  # five modes with --trace (and div-com on the file backend). Every trace
  # line must be the one per-phase rendering: a "query" root and the five
  # cost fields on every phase. A whole-network div-com query (keyword 0,
  # δmax = 10^6, k = 10) must leave under 10% of its traced time to the
  # root: COM's per-arrival work belongs to a phase. Two crafted dataset
  # files (no objects; a term id of 2^32 - 1) must fail with a message and
  # an exit code below 128, not a signal.
  echo "=== cli smoke: dsks_cli generate, info, query in every mode ==="
  cli=./build-perf/tools/dsks_cli
  "$cli" generate --preset SYN --scale 0.05 --out build-perf/cli_smoke.dsks
  "$cli" info build-perf/cli_smoke.dsks
  : > build-perf/cli_smoke.out
  for mode in boolean knn ranked div-seq div-com; do
    "$cli" query --data build-perf/cli_smoke.dsks --terms 0,1 --k 4 \
      --mode "$mode" --trace >> build-perf/cli_smoke.out
  done
  "$cli" query --data build-perf/cli_smoke.dsks --terms 0,1 --k 4 \
    --mode div-com --trace --backend file >> build-perf/cli_smoke.out
  "$cli" query --data build-perf/cli_smoke.dsks --terms 0 --delta 1000000 \
    --k 10 --mode div-com --trace >> build-perf/cli_smoke.out
  python3 - build-perf/cli_smoke.out <<'EOF'
import json, sys
fields = {"spans", "ms", "pool_hits", "pool_misses", "disk_reads"}
traces = [json.loads(line) for line in open(sys.argv[1])
          if line.startswith("{")]
if len(traces) != 7:
    sys.exit(f"cli smoke: {len(traces)} trace lines, want 7")
for trace in traces:
    if "query" not in trace:
        sys.exit(f"cli smoke: trace without a 'query' root: {trace}")
    for phase, cost in trace.items():
        if set(cost) != fields:
            sys.exit(f"cli smoke: phase {phase} has fields {sorted(cost)}")
print(f"cli smoke: {len(traces)} traces, each with the five fields per phase")
wide = traces[-1]
share = wide["query"]["ms"] / sum(cost["ms"] for cost in wide.values())
if share >= 0.10:
    sys.exit(f"cli smoke: the wide div-com query's root keeps {share:.1%} "
             "of its traced time (want under 10%)")
print(f"cli smoke: the wide div-com query's root keeps {share:.1%}")
EOF
  python3 - build-perf <<'EOF'
import struct, sys
# Version-1 dataset files: one edge between two nodes, then the objects.
def write(path, objects):
    b = b"DSKS" + struct.pack("<I", 1)
    b += struct.pack("<Q", 2) + struct.pack("<4d", 0, 0, 100, 0)
    b += struct.pack("<Q", 1) + struct.pack("<IId", 0, 1, 100.0)
    b += struct.pack("<Q", len(objects))
    for terms in objects:
        b += struct.pack("<IdI", 0, 50.0, len(terms))
        b += struct.pack(f"<{len(terms)}I", *terms)
    open(path, "wb").write(b)
write(sys.argv[1] + "/cli_no_objects.dsks", [])
write(sys.argv[1] + "/cli_huge_term.dsks", [[2**32 - 1]])
EOF
  for crafted in cli_no_objects cli_huge_term; do
    status=0
    "$cli" query --data "build-perf/$crafted.dsks" --terms 0 \
      > /dev/null 2> build-perf/cli_crafted.err || status=$?
    if [ "$status" -eq 0 ] || [ "$status" -ge 128 ] ||
       [ ! -s build-perf/cli_crafted.err ]; then
      echo "cli smoke: $crafted.dsks exited $status" \
        "(want 1..127 with a message)" >&2
      exit 1
    fi
    echo "cli smoke: $crafted.dsks rejected: $(cat build-perf/cli_crafted.err)"
  done
  # A flag the subcommand does not read exits 2 with a message naming it.
  status=0
  "$cli" query --data build-perf/cli_smoke.dsks --terms 0,1 --threads 4 \
    --repeat 8 > /dev/null 2> build-perf/cli_flag.err || status=$?
  if [ "$status" -ne 2 ] ||
     ! grep -q '^unknown flag --[a-z]* for query$' build-perf/cli_flag.err; then
    echo "cli smoke: an unknown query flag exited $status" \
      "(want 2 with 'unknown flag --X for query')" >&2
    cat build-perf/cli_flag.err >&2
    exit 1
  fi
  echo "cli smoke: $(cat build-perf/cli_flag.err)"
  echo "=== cli smoke: OK ==="

  # Server smoke: start the query server with every query traced, run one
  # valid query, one malformed line, one div request with k above the cap
  # and one query with a term outside the vocabulary over one socket (the
  # last must still be answered), scrape the shared-listener observability
  # routes while it still serves — nothing drains its executor, so /varz
  # must show the served queries live — then
  # stop it with SIGTERM and expect a clean summary with its memory line.
  # Then an overload drill at ~4x capacity whose JSON record must pass the
  # schema + exact-admission gate with real shedding, and a drill under
  # injected read faults: queries fail, the process does not, every fault
  # is one Status-coded response and some are retried. Note: no
  # DSKS_IO_DELAY_US=0 here — the sim disk's default per-read delay is
  # what makes the drill actually saturate its tiny queue.
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
# ...and so does a div request above the k cap, before any work is done...
s.sendall(b'{"op":"div","terms":[1,2],"edge":0,"offset":0,'
          b'"delta":1000,"k":1000000}\n')
resp = json.loads(f.readline())
if resp.get("status") != "INVALID_ARGUMENT":
    sys.exit(f"server smoke: k past the cap answered {resp}")
# ...and a term no object carries answers an empty result, still in-band.
s.sendall(b'{"op":"sk","terms":[1,4000000000],"edge":0,"offset":0,'
          b'"delta":1000}\n')
line = f.readline()
if not line:
    sys.exit("server smoke: unknown term closed the connection unanswered")
resp = json.loads(line)
if resp.get("status") != "OK" or resp.get("count") != 0:
    sys.exit(f"server smoke: unknown term answered {resp}")
print("server smoke: query OK, malformed line and k past the cap "
      "rejected in-band, unknown term answered empty")
EOF
  # A worker records its query just after the response goes out, so poll
  # (bounded) until /varz carries the two admitted queries; the malformed
  # line and the k past the cap never reach the executor.
  varz_ok=0
  for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$serve_port/varz" \
         > build-perf/varz_smoke.json &&
       grep -q '"executor.queries":2[,}]' build-perf/varz_smoke.json &&
       python3 tools/perf_gate.py validate-metrics build-perf/varz_smoke.json \
         > /dev/null; then
      varz_ok=1
      break
    fi
    sleep 0.1
  done
  if [ "$varz_ok" != 1 ]; then
    echo "server smoke: live /varz never showed the served queries" >&2
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
  # Resident memory is a level, typed as a gauge, and the heap the server
  # holds is never zero.
  grep -qx '# TYPE dsks_process_rss_bytes gauge' \
      build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: /metrics has no process_rss_bytes gauge" >&2
    exit 1
  }
  grep -Eqx 'dsks_process_heap_in_use_bytes [1-9][0-9]*' \
      build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: /metrics shows no heap in use" >&2
    exit 1
  }
  # serve runs on the sim backend, which lends its pages to the pool: the
  # index is held once, in the disk's memory, and no frame owns a buffer.
  grep -qx 'dsks_db_pool_frame_bytes 0' \
      build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: pool frames own page buffers on the sim backend" >&2
    exit 1
  }
  grep -Eqx 'dsks_db_disk_resident_bytes [1-9][0-9]*' \
      build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: /metrics shows no resident sim pages" >&2
    exit 1
  }
  # Where the setup peak falls: each phase's gauge holds the process's
  # peak RSS as that phase ended.
  grep -Eqx 'dsks_db_setup_index_build_peak_rss_bytes [1-9][0-9]*' \
      build-perf/metrics_serve_smoke.txt || {
    echo "server smoke: /metrics shows no setup peak rss gauge" >&2
    exit 1
  }
  curl -fsS "http://127.0.0.1:$serve_port/statusz" |
    grep -q '"admitted":2[,}]' || {
    echo "server smoke: /statusz does not show the admitted queries" >&2
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
  grep -Eq '^setup: dataset [0-9.]+ ms, term_stats [0-9.]+ ms, ccam [0-9.]+ ms, index_build [0-9.]+ ms, prepare [0-9.]+ ms$' \
      build-perf/serve_smoke.out || {
    echo "server smoke: serve printed no per-phase setup line" >&2
    exit 1
  }
  grep -Eq '^setup peak rss: dataset [0-9.]+ MiB, term_stats [0-9.]+ MiB, ccam [0-9.]+ MiB, index_build [0-9.]+ MiB, prepare [0-9.]+ MiB$' \
      build-perf/serve_smoke.out || {
    echo "server smoke: serve printed no per-phase peak rss line" >&2
    exit 1
  }
  grep -Eq '^memory: rss [0-9.]+ MiB, peak rss [0-9.]+ MiB, heap in use [0-9.]+ MiB$' \
      build-perf/serve_smoke.out || {
    echo "server smoke: the shutdown summary has no memory line" >&2
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
  fault_drill_smoke sim
  echo "=== server smoke: OK ==="

  # File-backend smoke: a small bench run with pages on a real file must
  # produce a schema-valid artifact stamped "backend":"file" (kept in a
  # separate cwd so it can never be confused with the sim artifact or fed
  # to the sim perf gate), and the fault drill must survive on real files
  # too.
  echo "=== file-backend smoke: bench_throughput + fault drill ==="
  mkdir -p build-perf/file-smoke
  (cd build-perf/file-smoke && DSKS_IO_DELAY_US=0 DSKS_BENCH_SCALE=0.3 \
      DSKS_BENCH_QUERIES=40 ../bench/bench_throughput --backend=file)
  python3 tools/perf_gate.py validate-bench \
    build-perf/file-smoke/BENCH_throughput.json
  grep -q '"backend":"file"' build-perf/file-smoke/BENCH_throughput.json || {
    echo "file-backend smoke: artifact is missing \"backend\":\"file\"" >&2
    exit 1
  }
  fault_drill_smoke file --backend file
  echo "=== file-backend smoke: OK ==="

  # Cold-cache smoke: the cold series on real files must produce a
  # schema-valid artifact with cold records, whose every page read is a
  # demand miss.
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
for r in recs:
    if r.get("cold") != 1:
        continue
    if r["pool_misses"] != r["disk_reads"]:
        sys.exit(f"cold-cache smoke: {r['workload']}: {r['pool_misses']} "
                 f"misses but {r['disk_reads']} disk reads")
    print(f"cold-cache smoke: {r['workload']}: {r['disk_reads']} reads, "
          "each a demand miss")
EOF
  echo "=== cold-cache smoke: OK ==="

  # The gates, last: qps against the committed floor, and sampled tracing
  # against the unsampled runs. Both report before either fails the run.
  echo "=== gates: perf floor and tracing overhead ==="
  gates_ok=1
  python3 tools/perf_gate.py bench/baseline_throughput.json \
    build-perf/perf_smoke.jsonl || gates_ok=0
  python3 tools/perf_gate.py overhead build-perf/perf_smoke.jsonl \
    build-perf/perf_sampled.jsonl || gates_ok=0
  if [ "$gates_ok" != 1 ]; then
    echo "=== gates: FAIL ===" >&2
    exit 1
  fi
  echo "=== gates: OK ==="
fi
