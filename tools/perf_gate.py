#!/usr/bin/env python3
"""Perf smoke gate and bench/metrics JSON validation.

Usage:
  perf_gate.py <baseline.json> <smoke.jsonl>
      Compare bench_throughput output against the committed baseline; exit
      non-zero when single-thread qps regressed by more than the allowed
      fraction (default 25%). <smoke.jsonl> holds one bench_throughput JSON
      record per line (the "JSON " prefix already stripped), possibly from
      several repeated runs; the gate scores each workload by its best run
      so that scheduler noise on small machines cannot fail the check.

  perf_gate.py validate-bench <BENCH_throughput.json>
      Validate the bench artifact (a JSON array): every measurement record
      must carry the full latency block, and at least one per-phase
      profile record must be present.

  perf_gate.py validate-metrics <metrics.json>
      Validate a registry dump such as `dsks_cli serve`'s /varz: all four
      registry sections, the executor's latency histogram and query
      counter, and live db.pool.* / db.disk.* sources must be present.

  perf_gate.py validate-server <drill.json>
      Validate a `dsks_cli drill` "server_drill" record: every server_*
      field present with the right type, and the arithmetic exact —
      offered == admitted + shed + invalid + quota_denied, admitted ==
      completed, the client tallies (ok + cancelled + rejected + invalid
      + failed) == offered, /metrics scrapeable throughout, and the
      drill's own invariant verdict true.

  perf_gate.py overhead <off.jsonl> <on.jsonl>
      Tracing-overhead gate: compare single-thread qps of a sampled run
      (sample_rate > 0 on every warm record) against an unsampled run of
      the same workloads, best-of per workload on both sides. Fails when
      the sampled side is below OVERHEAD_TOLERANCE of the unsampled side —
      i.e. when 1-in-N tracing costs more than the perf-gate noise band.
"""

import json
import sys

TOLERANCE = 0.75  # fail when qps < TOLERANCE * baseline
# The overhead gate compares two fresh runs on the same machine moments
# apart, so it can be tighter than the committed-baseline gate — but
# best-of-3 qps on a small shared box still jitters, hence not 0.95.
OVERHEAD_TOLERANCE = 0.85

# --- tiny schema validator ---------------------------------------------------
# Supported keys: "type" ("object"|"array"|"number"|"integer"|"string"),
# "required" (dict of name -> sub-schema for objects), "items" (sub-schema
# applied to every array element / every object value), "min" (numbers).
# Deliberately hand-rolled: the container has no jsonschema package.


def validate(value, schema, path="$"):
    """Returns a list of error strings (empty when valid)."""
    errors = []
    t = schema.get("type")
    if t == "object":
        if not isinstance(value, dict):
            return [f"{path}: expected object, got {type(value).__name__}"]
        for name, sub in schema.get("required", {}).items():
            if name not in value:
                errors.append(f"{path}: missing required key '{name}'")
            else:
                errors += validate(value[name], sub, f"{path}.{name}")
        if "items" in schema:
            for name, item in value.items():
                errors += validate(item, schema["items"], f"{path}.{name}")
    elif t == "array":
        if not isinstance(value, list):
            return [f"{path}: expected array, got {type(value).__name__}"]
        for i, item in enumerate(value):
            errors += validate(item, schema.get("items", {}), f"{path}[{i}]")
    elif t == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return [f"{path}: expected number, got {type(value).__name__}"]
        if "min" in schema and value < schema["min"]:
            errors.append(f"{path}: {value} below minimum {schema['min']}")
    elif t == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            return [f"{path}: expected integer, got {type(value).__name__}"]
        if "min" in schema and value < schema["min"]:
            errors.append(f"{path}: {value} below minimum {schema['min']}")
    elif t == "string":
        if not isinstance(value, str):
            return [f"{path}: expected string, got {type(value).__name__}"]
    return errors


NUM = {"type": "number", "min": 0}

MEASUREMENT_SCHEMA = {
    "type": "object",
    "required": {
        "bench": {"type": "string"},
        # which storage backend served the pages ("sim" or "file"): numbers
        # from different backends are different experiments and must never
        # be pooled, so every record has to say which one it came from
        "backend": {"type": "string"},
        "workload": {"type": "string"},
        # cache regime: 1 when the pool was cleared before every query
        # (cold-cache A/B runs), 0 for the steady-state warm series. The
        # perf gate refuses to grade one regime against the other.
        "cold": {"type": "integer", "min": 0},
        # 1 when speculative prefetching was enabled for the run; cold
        # records come in off/on pairs so the miss reduction is auditable
        "prefetch": {"type": "integer", "min": 0},
        "threads": {"type": "integer", "min": 1},
        "queries": {"type": "integer", "min": 1},
        "wall_ms": NUM,
        "qps": NUM,
        "avg_ms": NUM,
        "p50_ms": NUM,
        "p95_ms": NUM,
        "p99_ms": NUM,
        # error accounting: benches run fault-free, so these must be zero
        # (checked separately in validate_bench, not just present)
        "errors": {"type": "integer", "min": 0},
        "error_rate": NUM,
        # sampled-tracing regime of the run: 1-in-N (0 = tracing off) and
        # how many queries actually ran traced. Present on every record so
        # a sampled run can never masquerade as an unsampled baseline.
        "sample_rate": {"type": "integer", "min": 0},
        "sampled_queries": {"type": "integer", "min": 0},
    },
}

PHASE_PROFILE_SCHEMA = {
    "type": "object",
    "required": {
        "bench": {"type": "string"},
        "backend": {"type": "string"},
        "workload": {"type": "string"},
        "queries": {"type": "integer", "min": 1},
        "phase_profile": {
            "type": "object",
            "items": {
                "type": "object",
                "required": {
                    "spans": {"type": "integer", "min": 1},
                    "ms": NUM,
                    "pool_hits": {"type": "integer", "min": 0},
                    "pool_misses": {"type": "integer", "min": 0},
                    "disk_reads": {"type": "integer", "min": 0},
                    "prefetched_pages": {"type": "integer", "min": 0},
                },
            },
        },
    },
}

HISTOGRAM_SCHEMA = {
    "type": "object",
    "required": {
        "count": {"type": "integer", "min": 0},
        "sum_ms": NUM,
        "min_ms": NUM,
        "max_ms": NUM,
        "avg_ms": NUM,
        "p50_ms": NUM,
        "p95_ms": NUM,
        "p99_ms": NUM,
    },
}

METRICS_SCHEMA = {
    "type": "object",
    "required": {
        "counters": {"type": "object", "items": {"type": "integer", "min": 0}},
        "gauges": {"type": "object", "items": {"type": "number"}},
        "sources": {"type": "object", "items": {"type": "integer", "min": 0}},
        "histograms": {"type": "object", "items": HISTOGRAM_SCHEMA},
    },
}


INT = {"type": "integer", "min": 0}

SERVER_DRILL_SCHEMA = {
    "type": "object",
    "required": {
        "bench": {"type": "string"},
        "server_clients": {"type": "integer", "min": 1},
        "server_threads": {"type": "integer", "min": 1},
        "server_queue": {"type": "integer", "min": 1},
        "server_offered": INT,
        "server_admitted": INT,
        "server_completed": INT,
        "server_shed": INT,
        "server_invalid": INT,
        "server_quota_denied": INT,
        "server_cancelled": INT,
        "server_client_ok": INT,
        "server_client_cancelled": INT,
        "server_client_rejected": INT,
        # responses that are none of OK, CANCELLED, RESOURCE_EXHAUSTED and
        # INVALID_ARGUMENT: IO_ERROR, CORRUPTION and the rest
        "server_client_failed": INT,
        # IO_ERROR re-runs under the drill's retry budget, and the faults
        # the storage injector put in (0 without fault flags)
        "server_retries": INT,
        "server_read_faults": INT,
        "server_bit_flips": INT,
        "server_transport_errors": INT,
        "server_scrapes_ok": INT,
        "server_scrapes_failed": INT,
        "server_wall_ms": NUM,
        "server_qps": NUM,
    },
}


def report(label, errors):
    if errors:
        for e in errors:
            print(f"{label}: {e}")
        return 1
    print(f"{label}: OK")
    return 0


def validate_bench(path) -> int:
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    errors = validate(records, {"type": "array"}, "$")
    if errors:
        return report(f"validate-bench {path}", errors)
    profiles = 0
    for i, rec in enumerate(records):
        if isinstance(rec, dict) and "phase_profile" in rec:
            profiles += 1
            errors += validate(rec, PHASE_PROFILE_SCHEMA, f"$[{i}]")
            # the root phase must be present so phase shares have a total
            if "query" not in rec.get("phase_profile", {}):
                errors.append(f"$[{i}].phase_profile: missing 'query' root phase")
        else:
            errors += validate(rec, MEASUREMENT_SCHEMA, f"$[{i}]")
            # Benches run with fault injection off; a failed query there
            # means the error accounting (or the storage layer) is broken.
            if rec.get("errors", 0) != 0:
                errors.append(
                    f"$[{i}]: fault-free bench reports {rec['errors']} errors"
                )
            if rec.get("error_rate", 0) != 0:
                errors.append(
                    f"$[{i}]: fault-free bench reports error_rate "
                    f"{rec['error_rate']}"
                )
            # Cold records exist to audit the prefetch miss reduction, so
            # they must carry the counters that reduction is computed from.
            if rec.get("cold") == 1:
                for key in (
                    "pool_misses",
                    "disk_reads",
                    "prefetch_issued",
                    "prefetch_hits",
                    "prefetch_wasted",
                    "prefetch_dropped",
                ):
                    if key not in rec:
                        errors.append(f"$[{i}]: cold record missing '{key}'")
                    else:
                        errors += validate(
                            rec[key],
                            {"type": "integer", "min": 0},
                            f"$[{i}].{key}",
                        )
    if profiles == 0:
        errors.append("$: no phase_profile record found")
    return report(f"validate-bench {path} ({len(records)} records)", errors)


def validate_metrics(path) -> int:
    with open(path, encoding="utf-8") as f:
        metrics = json.load(f)
    errors = validate(metrics, METRICS_SCHEMA, "$")
    if not errors:
        sources = metrics["sources"]
        for prefix in ("db.pool.", "db.disk."):
            if not any(k.startswith(prefix) for k in sources):
                errors.append(f"$.sources: no key with prefix '{prefix}'")
        if "executor.query_ms" not in metrics["histograms"]:
            errors.append("$.histograms: missing 'executor.query_ms'")
        if "executor.queries" not in metrics["counters"]:
            errors.append("$.counters: missing 'executor.queries'")
    return report(f"validate-metrics {path}", errors)


def validate_server(path) -> int:
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    errors = validate(rec, SERVER_DRILL_SCHEMA, "$")
    if not errors:
        if rec["bench"] != "server_drill":
            errors.append(f"$.bench: expected 'server_drill', got {rec['bench']!r}")
        # The admission arithmetic must be exact, not approximate: every
        # offered request is accounted exactly once, and every admitted
        # query produced a completion.
        offered = rec["server_offered"]
        accounted = (
            rec["server_admitted"]
            + rec["server_shed"]
            + rec["server_invalid"]
            + rec["server_quota_denied"]
        )
        if offered != accounted:
            errors.append(
                f"$: offered {offered} != admitted + shed + invalid + "
                f"quota_denied = {accounted}"
            )
        if rec["server_admitted"] != rec["server_completed"]:
            errors.append(
                f"$: admitted {rec['server_admitted']} != completed "
                f"{rec['server_completed']} — queries were lost"
            )
        if rec["server_client_rejected"] != (
            rec["server_shed"] + rec["server_quota_denied"]
        ):
            errors.append(
                f"$: client RESOURCE_EXHAUSTED {rec['server_client_rejected']} "
                f"!= shed + quota_denied"
            )
        # Every request the server saw got exactly one tallied answer. The
        # drill checks client INVALID_ARGUMENT == server invalid itself.
        answered = (
            rec["server_client_ok"]
            + rec["server_client_cancelled"]
            + rec["server_client_rejected"]
            + rec["server_invalid"]
            + rec["server_client_failed"]
        )
        if answered != offered:
            errors.append(
                f"$: client tallies ok + cancelled + rejected + invalid + "
                f"failed = {answered} != offered {offered}"
            )
        if rec["server_scrapes_ok"] < 1 or rec["server_scrapes_failed"] != 0:
            errors.append(
                f"$: /metrics not scrapeable throughout "
                f"(ok {rec['server_scrapes_ok']}, "
                f"failed {rec['server_scrapes_failed']})"
            )
        if rec.get("server_invariants_ok") is not True:
            errors.append("$: server_invariants_ok is not true")
    return report(f"validate-server {path}", errors)


def perf_gate(baseline_path, smoke_path) -> int:
    with open(baseline_path, encoding="utf-8") as f:
        baseline_doc = json.load(f)
    baseline = baseline_doc["qps"]
    # The baseline was measured on one specific backend (sim unless it says
    # otherwise). Records from any other backend are a different experiment
    # — a real-file run must not be graded against sim numbers, nor mask a
    # sim regression by happening to be fast. Skip them loudly.
    baseline_backend = baseline_doc.get("backend", "sim")
    # Same for the cache regime: a cold-cache record (the pool cleared
    # before every query) measures a different experiment than the warm
    # steady state the baseline describes. Mixing them either hides a real
    # regression or flags a phantom one, so mismatched records are skipped
    # just as loudly.
    baseline_cold = baseline_doc.get("cold", 0)
    skipped_backends: dict[str, int] = {}
    skipped_cold = 0
    best: dict[str, float] = {}
    with open(smoke_path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("threads") != 1:
                continue
            backend = rec.get("backend", "sim")
            if backend != baseline_backend:
                skipped_backends[backend] = skipped_backends.get(backend, 0) + 1
                continue
            if rec.get("cold", 0) != baseline_cold:
                skipped_cold += 1
                continue
            wl = rec["workload"]
            best[wl] = max(best.get(wl, 0.0), rec["qps"])
    for backend, n in sorted(skipped_backends.items()):
        print(
            f"perf gate: skipped {n} record(s) from backend '{backend}' "
            f"(baseline is '{baseline_backend}')"
        )
    if skipped_cold:
        regime = "cold" if baseline_cold else "warm"
        print(
            f"perf gate: skipped {skipped_cold} record(s) from the other "
            f"cache regime (baseline is {regime})"
        )

    failed = False
    for wl, base_qps in baseline.items():
        got = best.get(wl)
        if got is None:
            print(f"perf gate: no threads=1 measurement for workload '{wl}'")
            failed = True
            continue
        floor = TOLERANCE * base_qps
        verdict = "OK" if got >= floor else "FAIL"
        print(
            f"perf gate: {wl}: {got:.1f} qps vs baseline {base_qps:.1f} "
            f"(floor {floor:.1f}) -> {verdict}"
        )
        if got < floor:
            failed = True
    return 1 if failed else 0


def best_qps_by_workload(path, want_sampled):
    """Best single-thread warm qps per workload; errors for wrong regime.

    `want_sampled` asserts the file really is the regime the caller thinks
    it is: an unsampled file accidentally passed as the "on" side would
    make the overhead gate vacuous, so that is an error, not a skip.
    """
    best: dict[str, float] = {}
    errors = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("threads") != 1 or rec.get("cold", 0) != 0:
                continue
            rate = rec.get("sample_rate", 0)
            if want_sampled and rate == 0:
                errors.append(f"{path}:{n}: expected a sampled record")
            elif not want_sampled and rate != 0:
                errors.append(
                    f"{path}:{n}: unsampled side has sample_rate {rate}"
                )
            if want_sampled and rate > 0 and rec.get("sampled_queries", 0) == 0:
                errors.append(f"{path}:{n}: sampled run traced 0 queries")
            wl = rec["workload"]
            best[wl] = max(best.get(wl, 0.0), rec["qps"])
    return best, errors


def overhead_gate(off_path, on_path) -> int:
    off, errors = best_qps_by_workload(off_path, want_sampled=False)
    on, on_errors = best_qps_by_workload(on_path, want_sampled=True)
    errors += on_errors
    for e in errors:
        print(f"overhead gate: {e}")
    failed = bool(errors)
    for wl, off_qps in sorted(off.items()):
        on_qps = on.get(wl)
        if on_qps is None:
            print(f"overhead gate: no sampled measurement for '{wl}'")
            failed = True
            continue
        floor = OVERHEAD_TOLERANCE * off_qps
        verdict = "OK" if on_qps >= floor else "FAIL"
        ratio = on_qps / off_qps if off_qps > 0 else 0.0
        print(
            f"overhead gate: {wl}: sampled {on_qps:.1f} qps vs unsampled "
            f"{off_qps:.1f} ({ratio:.2f}x, floor {floor:.1f}) -> {verdict}"
        )
        if on_qps < floor:
            failed = True
    if not off:
        print(f"overhead gate: no unsampled threads=1 records in {off_path}")
        failed = True
    return 1 if failed else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "validate-bench":
        return validate_bench(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "validate-metrics":
        return validate_metrics(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "validate-server":
        return validate_server(sys.argv[2])
    if len(sys.argv) == 4 and sys.argv[1] == "overhead":
        return overhead_gate(sys.argv[2], sys.argv[3])
    if len(sys.argv) == 3:
        return perf_gate(sys.argv[1], sys.argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
