#!/usr/bin/env python3
"""Validates hisrect_cli observability artifacts.

Checks (any subset, per the flags given):
  --trace trace.json       Chrome trace-event JSON: well-formed, every event
                           carries name/ph/ts/dur/pid/tid, ph == "X",
                           durations are non-negative, begin timestamps are
                           monotonically non-decreasing (the exporter sorts),
                           and metadata.dropped_events == 0.
  --telemetry telem.jsonl  JSONL: every line parses as an object with a
                           "kind"; "epoch" records carry phase/step/loss/
                           grad_norm/lr/rollbacks/pairs_per_sec; each phase
                           ends with a record at step == steps_total, and
                           epoch numbers increase within a (phase, steps_total)
                           run segment.
  --metrics metrics.json   JSON object; counters are non-negative; histogram
                           bucket_counts sum to count. With --serving also
                           given, the hisrect.serve.* request/batch series
                           must be present and consistent.
  --serving BENCH.json     bench_serving record: qps > 0, latency percentiles
                           present and ordered (p50 <= p95 <= p99), zero lost
                           requests (admitted == completed), served scores
                           bitwise-identical to offline, the encoder-cache
                           soak held its bound with visible evictions, the
                           batch-size histogram sums to the batch count, and
                           (if a "plan" record is present) the recorded-plan
                           path did zero steady-state tensor allocations.
                           If a "variants" array is present (single-thread
                           scoring sweep), all three variants must be
                           there, every variant must match eager bitwise and
                           planned variants must do zero steady-state
                           allocations.
                           If a "router" record is present (hash-sharded
                           ShardRouter phase): admitted burst capacity must
                           be monotone in shard count with zero dropped
                           futures, the replay must be bitwise-identical with
                           zero drops across an injected one-shard-failed
                           fleet deploy (exactly one rollback, then a clean
                           redeploy that advances the version), and shard
                           occupancy must stay within the max/min bound.
  --admin snapshots.jsonl  Admin-endpoint poll capture (one JSON object per
                           line, each {"statusz": ..., "metrics": ...} as
                           scraped from a live --admin-port server): required
                           /statusz keys present, uptime and the serving
                           counters monotonically non-decreasing across
                           polls, the admin request counter strictly
                           increasing (every poll is itself a scrape), live
                           window percentiles ordered (p50 <= p95 <= p99),
                           and stage-trace accounting visible (recorded
                           traces track admitted requests).
  --expect-plan            with --metrics: require the recorded-plan series
                           (hisrect.nn.tensor_allocs, hisrect.nn.arena_bytes,
                           hisrect.nn.plan_cache_{hits,misses}) with cache
                           hits > 0 and misses > 0 (the scoring plan cache,
                           the only cache site — training runs eager — exports
                           both counters).

Exits 0 when every requested check passes, 1 otherwise (messages on stderr).
Used by tools/run_benches.sh as the `obs` and `serving` gates.
"""

import argparse
import json
import sys

EPOCH_REQUIRED_KEYS = (
    "phase",
    "step",
    "steps_total",
    "loss",
    "grad_norm",
    "lr",
    "rollbacks",
    "pairs_per_sec",
)

errors = []


def fail(message):
    errors.append(message)


def check_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
        return
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
        return
    if not events:
        fail(f"{path}: traceEvents is empty (expected at least one span)")
    last_ts = None
    for index, event in enumerate(events):
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid"):
            if key not in event:
                fail(f"{path}: event {index} missing '{key}': {event}")
                break
        else:
            if event["ph"] != "X":
                fail(f"{path}: event {index} has ph={event['ph']!r}, want 'X'")
            if event["dur"] < 0:
                fail(f"{path}: event {index} has negative dur {event['dur']}")
            if event["ts"] < 0:
                fail(f"{path}: event {index} has negative ts {event['ts']}")
            if last_ts is not None and event["ts"] < last_ts:
                fail(
                    f"{path}: event {index} ts {event['ts']} < previous "
                    f"{last_ts} (exporter must sort by begin time)"
                )
            last_ts = event["ts"]
    dropped = trace.get("metadata", {}).get("dropped_events")
    if dropped is None:
        fail(f"{path}: metadata.dropped_events missing")
    elif dropped != 0:
        fail(f"{path}: {dropped} dropped span(s); raise the per-thread cap")


def check_telemetry(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        fail(f"{path}: cannot read: {exc}")
        return
    if not lines:
        fail(f"{path}: empty (expected at least one record)")
        return
    epochs = 0
    # Per (phase, steps_total) segment: last epoch index and final step seen.
    segments = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            fail(f"{path}:{number}: blank line")
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{number}: not JSON: {exc}")
            continue
        if not isinstance(record, dict) or "kind" not in record:
            fail(f"{path}:{number}: record without 'kind': {line[:120]}")
            continue
        if record["kind"] != "epoch":
            continue
        epochs += 1
        missing = [key for key in EPOCH_REQUIRED_KEYS if key not in record]
        if missing:
            fail(f"{path}:{number}: epoch record missing {missing}")
            continue
        key = (record["phase"], record["steps_total"])
        last_epoch, _ = segments.get(key, (0, 0))
        if record["epoch"] <= last_epoch:
            # A resumed or repeated run restarts its numbering; only flag
            # non-increase when the step also went backwards.
            _, last_step = segments[key]
            if record["step"] <= last_step:
                fail(
                    f"{path}:{number}: epoch {record['epoch']} not increasing "
                    f"within phase {record['phase']!r}"
                )
        segments[key] = (record["epoch"], record["step"])
    if epochs == 0:
        fail(f"{path}: no 'epoch' records (training telemetry missing)")
    for (phase, steps_total), (_, last_step) in segments.items():
        if last_step != steps_total:
            fail(
                f"{path}: phase {phase!r} last record at step {last_step}, "
                f"want a final record at steps_total={steps_total}"
            )


def check_metrics(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
        return
    if not isinstance(metrics, dict) or not metrics:
        fail(f"{path}: expected a non-empty JSON object keyed by metric name")
        return
    for name, value in metrics.items():
        kind = value.get("type")
        if kind in ("counter", "gauge"):
            if kind == "counter" and value.get("value", 0) < 0:
                fail(f"{path}: counter {name} is negative: {value}")
        elif kind == "histogram":
            buckets = value.get("bucket_counts", [])
            boundaries = value.get("boundaries", [])
            if len(buckets) != len(boundaries) + 1:
                fail(
                    f"{path}: histogram {name} has {len(buckets)} buckets for "
                    f"{len(boundaries)} boundaries (want boundaries+1)"
                )
            if sum(buckets) != value.get("count"):
                fail(
                    f"{path}: histogram {name} bucket sum {sum(buckets)} != "
                    f"count {value.get('count')}"
                )
        else:
            fail(f"{path}: metric {name} has unknown type {kind!r}")


PLAN_METRICS = (
    "hisrect.nn.tensor_allocs",
    "hisrect.nn.arena_bytes",
    "hisrect.nn.plan_cache_hits",
    "hisrect.nn.plan_cache_misses",
)


def check_plan_metrics(path):
    """The hisrect.nn.* series a recorded-plan (--plan) run must leave."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
        return
    for name in PLAN_METRICS:
        if name not in metrics:
            fail(f"{path}: plan run left no {name} metric")
    hits = metrics.get("hisrect.nn.plan_cache_hits", {}).get("value", 0)
    if hits <= 0:
        fail(
            f"{path}: hisrect.nn.plan_cache_hits is {hits} — the planned "
            "path never replayed a cached plan"
        )
    misses = metrics.get("hisrect.nn.plan_cache_misses", {}).get("value", 0)
    if misses <= 0:
        fail(
            f"{path}: hisrect.nn.plan_cache_misses is {misses} — every plan "
            "starts as a miss, so a planned run must record at least one"
        )
    arena = metrics.get("hisrect.nn.arena_bytes", {}).get("value", 0)
    if arena <= 0:
        fail(f"{path}: hisrect.nn.arena_bytes is {arena} — no plan was "
             "memory-planned")


SERVE_METRICS = (
    "hisrect.serve.requests_admitted",
    "hisrect.serve.batches",
    "hisrect.serve.batch_size",
    "hisrect.serve.request_latency_seconds",
    # Robustness series, registered eagerly at server construction so they
    # are present (possibly 0) in every serving metrics dump.
    "hisrect.serve.deadline_exceeded",
    "hisrect.serve.cancelled",
    "hisrect.serve.swaps",
    "hisrect.serve.swap_rollbacks",
)


def check_serve_metrics(path):
    """The hisrect.serve.* series a serving run must leave behind."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
        return
    for name in SERVE_METRICS:
        if name not in metrics:
            fail(f"{path}: serving run left no {name} metric")
    admitted = metrics.get("hisrect.serve.requests_admitted", {}).get("value")
    latency = metrics.get("hisrect.serve.request_latency_seconds", {})
    if admitted is not None and latency.get("count") is not None:
        if latency["count"] > admitted:
            fail(
                f"{path}: {latency['count']} latency observations for only "
                f"{admitted} admitted requests"
            )


STATUSZ_REQUIRED_KEYS = (
    "uptime_seconds",
    "build",
    "accepting",
    "draining",
    "model_version",
    "queue_depth",
    "stats",
    "encoder_cache",
    "arena_bytes",
    "window_latency",
    "stage_traces",
)

# Serving counters that must never decrease across successive scrapes of the
# same process.
STATUSZ_MONOTONIC_STATS = (
    "admitted",
    "rejected",
    "completed",
    "batches",
    "cancelled",
    "expired",
    "aborted",
    "swaps",
)


def check_admin(path):
    """Validates a JSONL capture of live /statusz + /metrics polls."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        fail(f"{path}: cannot read: {exc}")
        return
    if len(lines) < 2:
        fail(f"{path}: want at least 2 poll snapshots to check monotonicity, "
             f"got {len(lines)}")
        return
    snapshots = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{number}: not JSON: {exc}")
            return
        if "statusz" not in record or "metrics" not in record:
            fail(f"{path}:{number}: snapshot missing 'statusz' or 'metrics'")
            return
        snapshots.append(record)

    previous_stats = None
    previous_uptime = None
    previous_admin_requests = None
    previous_recorded = None
    for number, snapshot in enumerate(snapshots, start=1):
        statusz = snapshot["statusz"]
        for key in STATUSZ_REQUIRED_KEYS:
            if key not in statusz:
                fail(f"{path}:{number}: /statusz missing '{key}'")
                return
        for klass in ("interactive", "batch"):
            if klass not in statusz["queue_depth"]:
                fail(f"{path}:{number}: queue_depth missing '{klass}'")
        uptime = statusz["uptime_seconds"]
        if previous_uptime is not None and uptime < previous_uptime:
            fail(f"{path}:{number}: uptime went backwards "
                 f"({previous_uptime} -> {uptime})")
        previous_uptime = uptime
        stats = statusz["stats"]
        for key in STATUSZ_MONOTONIC_STATS:
            if key not in stats:
                fail(f"{path}:{number}: stats missing '{key}'")
                return
            if previous_stats is not None and stats[key] < previous_stats[key]:
                fail(
                    f"{path}:{number}: counter stats.{key} decreased "
                    f"({previous_stats[key]} -> {stats[key]})"
                )
        previous_stats = stats
        window = statusz["window_latency"]
        if window is not None:
            for klass in ("interactive", "batch"):
                live = window.get(klass)
                if live is None:
                    fail(f"{path}:{number}: window_latency missing '{klass}'")
                    continue
                if live.get("count", 0) > 0:
                    p50, p95, p99 = live["p50"], live["p95"], live["p99"]
                    if not p50 <= p95 <= p99:
                        fail(
                            f"{path}:{number}: live {klass} percentiles not "
                            f"ordered: p50={p50} p95={p95} p99={p99}"
                        )
        traces = statusz["stage_traces"]
        if traces is not None:
            recorded = traces.get("recorded", 0)
            if previous_recorded is not None and recorded < previous_recorded:
                fail(f"{path}:{number}: stage_traces.recorded decreased "
                     f"({previous_recorded} -> {recorded})")
            previous_recorded = recorded
            # Every admitted request leaves exactly one trace; a scrape can
            # race a completion, so allow recorded to trail admitted.
            if recorded > stats["admitted"]:
                fail(
                    f"{path}:{number}: {recorded} stage traces for only "
                    f"{stats['admitted']} admitted requests"
                )
        admin_requests = (
            snapshot["metrics"]
            .get("hisrect.admin.requests", {})
            .get("value")
        )
        if admin_requests is None:
            fail(f"{path}:{number}: /metrics missing hisrect.admin.requests")
        elif (previous_admin_requests is not None
              and admin_requests <= previous_admin_requests):
            fail(
                f"{path}:{number}: hisrect.admin.requests did not advance "
                f"between polls ({previous_admin_requests} -> "
                f"{admin_requests}) — each poll is itself a scrape"
            )
        if admin_requests is not None:
            previous_admin_requests = admin_requests

    last_traces = snapshots[-1]["statusz"]["stage_traces"]
    if last_traces is not None and last_traces.get("recorded", 0) <= 0:
        fail(f"{path}: tracing enabled but no stage trace was ever recorded")


def check_serving(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"{path}: cannot parse: {exc}")
        return
    for key in ("qps", "latency_ms", "requests", "batches", "admitted",
                "completed", "lost", "served_bitwise_identical", "cache",
                "batch_size_hist"):
        if key not in record:
            fail(f"{path}: missing '{key}'")
            return
    if record["qps"] <= 0:
        fail(f"{path}: qps must be positive, got {record['qps']}")
    latency = record["latency_ms"]
    for key in ("p50", "p95", "p99"):
        if key not in latency:
            fail(f"{path}: latency_ms missing '{key}'")
            return
    if not latency["p50"] <= latency["p95"] <= latency["p99"]:
        fail(
            f"{path}: latency percentiles not ordered: p50={latency['p50']} "
            f"p95={latency['p95']} p99={latency['p99']}"
        )
    if record["lost"] != 0:
        fail(f"{path}: {record['lost']} lost request(s) — drain must "
             "complete every admitted request")
    resolved_elsewhere = (record.get("cancelled", 0) + record.get("expired", 0)
                          + record.get("aborted", 0))
    if (record["admitted"] - record["completed"] - resolved_elsewhere
            != record["lost"]):
        fail(
            f"{path}: admitted {record['admitted']} - completed "
            f"{record['completed']} - cancelled/expired/aborted "
            f"{resolved_elsewhere} != lost {record['lost']}"
        )
    if record["served_bitwise_identical"] is not True:
        fail(f"{path}: served scores not bitwise-identical to offline eval")
    cache = record["cache"]
    for key in ("capacity", "soak_evictions", "size_after", "bound_held"):
        if key not in cache:
            fail(f"{path}: cache record missing '{key}'")
            return
    if cache["bound_held"] is not True:
        fail(
            f"{path}: encoder cache exceeded its bound "
            f"({cache['size_after']} > {cache['capacity']})"
        )
    if cache["soak_evictions"] <= 0:
        fail(f"{path}: soak produced no evictions — the bound was never "
             "exercised")
    hist = record["batch_size_hist"]
    if sum(hist.get("counts", [])) != record["batches"]:
        fail(
            f"{path}: batch_size_hist counts sum "
            f"{sum(hist.get('counts', []))} != batches {record['batches']}"
        )
    plan = record.get("plan")
    if plan is not None:
        if plan.get("steady_state_allocs") != 0:
            fail(
                f"{path}: planned serving did "
                f"{plan.get('steady_state_allocs')} steady-state tensor "
                "allocation(s); want 0 after warmup"
            )
        if plan.get("arena_high_water_bytes", 0) <= 0:
            fail(f"{path}: plan record has no arena high-water")
    overload = record.get("overload")
    if overload is not None:
        for key in ("ran", "p99_uncontended_ms", "p99_overload_ms",
                    "p99_ratio_ok", "batch_shed", "swapped_version",
                    "responses_new_version", "dropped", "bitwise_identical",
                    "swap_rollbacks", "ok"):
            if key not in overload:
                fail(f"{path}: overload record missing '{key}'")
                return
        if overload["ran"] is not True:
            fail(f"{path}: overload phase never ran")
        if overload["ok"] is not True:
            fail(f"{path}: overload gate failed")
        if overload["p99_ratio_ok"] is not True:
            fail(
                f"{path}: interactive p99 under overload "
                f"({overload['p99_overload_ms']}ms) exceeds 2x uncontended "
                f"({overload['p99_uncontended_ms']}ms)"
            )
        if overload["batch_shed"] <= 0:
            fail(f"{path}: overload shed no batch-class requests — the "
                 "priority bound was never exercised")
        if overload["swapped_version"] <= 0:
            fail(f"{path}: no model version was hot-swapped during overload")
        if overload["responses_new_version"] <= 0:
            fail(f"{path}: no response attributable to the swapped-in "
                 "model version")
        if overload["dropped"] != 0:
            fail(f"{path}: {overload['dropped']} request(s) dropped across "
                 "the hot swap")
        if overload["bitwise_identical"] is not True:
            fail(f"{path}: scores served across the swap diverged from "
                 "offline eval")
        if overload["swap_rollbacks"] != 0:
            fail(f"{path}: {overload['swap_rollbacks']} unexpected swap "
                 "rollback(s) during the overload run")
        stages = overload.get("stages")
        if stages is not None:
            for stage in ("queue", "batch", "encode", "score", "resolve"):
                if stage not in stages:
                    fail(f"{path}: overload stages missing '{stage}'")
                    continue
                for key in ("mean_ms", "p99_ms"):
                    if stages[stage].get(key, -1) < 0:
                        fail(
                            f"{path}: overload stage {stage}.{key} is "
                            f"{stages[stage].get(key)!r}; want >= 0"
                        )
            if overload.get("trace_accounting_ok") is not True:
                fail(
                    f"{path}: stage-trace accounting failed — per-stage sums "
                    "must reproduce each request's measured latency within 1%"
                )
            if overload.get("traces_scored", 0) <= 0:
                fail(f"{path}: overload recorded no scored stage traces")
            if overload.get("admin_polls", 0) <= 0:
                fail(f"{path}: no admin scrape landed during the overload run")
    admin = record.get("admin")
    if admin is not None:
        for key in ("ran", "p99_noadmin_ms", "p99_admin_ms", "polls",
                    "requests_per_mode", "ok"):
            if key not in admin:
                fail(f"{path}: admin record missing '{key}'")
                return
        if admin["ran"] is not True:
            fail(f"{path}: admin A/B phase never ran")
        if admin["ok"] is not True:
            fail(
                f"{path}: admin overhead gate failed — p99 with a 10 Hz "
                f"scraper ({admin['p99_admin_ms']}ms) exceeds 1.05x the "
                f"admin-disabled run ({admin['p99_noadmin_ms']}ms)"
            )
        if admin["polls"] < 5:
            fail(f"{path}: admin A/B saw only {admin['polls']} scrape(s); "
                 "the instrumented mode was not meaningfully polled")
        if admin["requests_per_mode"] < 100:
            fail(f"{path}: admin A/B scored only "
                 f"{admin['requests_per_mode']} requests per mode")
    router = record.get("router")
    if router is not None:
        for key in ("ran", "scaling", "replay", "balance", "ok"):
            if key not in router:
                fail(f"{path}: router record missing '{key}'")
                return
        if router["ran"] is not True:
            fail(f"{path}: router phase never ran")
        if router["ok"] is not True:
            fail(f"{path}: router gate failed")
        scaling = router["scaling"]
        for key in ("shard_counts", "burst_offered", "per_shard_queue_bound",
                    "admitted", "dropped", "ok"):
            if key not in scaling:
                fail(f"{path}: router scaling record missing '{key}'")
                return
        admitted = scaling["admitted"]
        if len(admitted) != len(scaling["shard_counts"]):
            fail(f"{path}: router scaling admitted/shard_counts mismatch")
        elif any(b < a for a, b in zip(admitted, admitted[1:])):
            fail(
                f"{path}: router admitted capacity not monotone in shard "
                f"count: {admitted}"
            )
        if scaling["dropped"] != 0:
            fail(f"{path}: router burst left {scaling['dropped']} future(s) "
                 "unresolved across drain")
        if scaling["ok"] is not True:
            fail(f"{path}: router capacity did not scale with shard count: "
                 f"{admitted} admitted for {scaling['shard_counts']} shards")
        replay = router["replay"]
        for key in ("shards", "offered", "completed", "shed", "dropped",
                    "bitwise_identical", "incumbent_version", "fleet_version",
                    "responses_fleet", "failed_deploy_rolled_back",
                    "swap_rollbacks", "ok"):
            if key not in replay:
                fail(f"{path}: router replay record missing '{key}'")
                return
        if replay["dropped"] != 0:
            fail(f"{path}: {replay['dropped']} request(s) dropped across the "
                 "router fleet deploy")
        if replay["bitwise_identical"] is not True:
            fail(f"{path}: scores served through the router diverged from "
                 "offline eval")
        if replay["failed_deploy_rolled_back"] is not True:
            fail(f"{path}: injected one-shard warmup failure did not roll "
                 "the fleet deploy back")
        if replay["swap_rollbacks"] != 1:
            fail(f"{path}: want exactly 1 swap rollback from the injected "
                 f"failed fleet deploy, got {replay['swap_rollbacks']}")
        if replay["fleet_version"] <= replay["incumbent_version"]:
            fail(f"{path}: clean fleet redeploy did not advance the version "
                 f"({replay['incumbent_version']} -> "
                 f"{replay['fleet_version']})")
        if replay["responses_fleet"] <= 0:
            fail(f"{path}: no response attributable to the fleet-deployed "
                 "version")
        balance = router["balance"]
        for key in ("shards", "requests", "routed_per_shard", "max_min_ratio",
                    "bound", "ok"):
            if key not in balance:
                fail(f"{path}: router balance record missing '{key}'")
                return
        if len(balance["routed_per_shard"]) != balance["shards"]:
            fail(f"{path}: router balance routed_per_shard has "
                 f"{len(balance['routed_per_shard'])} entries for "
                 f"{balance['shards']} shards")
        if min(balance["routed_per_shard"], default=0) <= 0:
            fail(f"{path}: router balance left a shard with zero routed "
                 "requests")
        if balance["max_min_ratio"] > balance["bound"]:
            fail(
                f"{path}: router shard occupancy imbalanced — max/min "
                f"{balance['max_min_ratio']:.3f} exceeds bound "
                f"{balance['bound']}"
            )
    variants = record.get("variants")
    if variants is not None:
        by_name = {}
        for variant in variants:
            for key in ("name", "pairs_per_sec", "matches_eager",
                        "steady_state_allocs"):
                if key not in variant:
                    fail(f"{path}: variant record missing '{key}'")
                    return
            by_name[variant["name"]] = variant
        for name in ("baseline", "plan", "plan_fuse"):
            if name not in by_name:
                fail(f"{path}: variants missing '{name}'")
                return
        for name, variant in by_name.items():
            if variant["pairs_per_sec"] <= 0:
                fail(f"{path}: variant {name} has non-positive throughput")
            if variant["matches_eager"] is not True:
                fail(f"{path}: variant {name} diverged from eager")
            if name != "baseline" and variant["steady_state_allocs"] != 0:
                fail(
                    f"{path}: variant {name} did "
                    f"{variant['steady_state_allocs']} steady-state tensor "
                    "allocation(s); want 0 after warmup"
                )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace-event JSON to validate")
    parser.add_argument("--telemetry", help="telemetry JSONL to validate")
    parser.add_argument("--metrics", help="metrics JSON to validate")
    parser.add_argument("--serving", help="BENCH_serving.json to validate")
    parser.add_argument(
        "--admin",
        help="JSONL capture of live /statusz + /metrics polls to validate",
    )
    parser.add_argument(
        "--expect-plan",
        action="store_true",
        help="with --metrics: require the recorded-plan metric series",
    )
    args = parser.parse_args()
    if not (args.trace or args.telemetry or args.metrics or args.serving
            or args.admin):
        parser.error(
            "nothing to check: pass --trace/--telemetry/--metrics/--serving"
            "/--admin"
        )
    if args.trace:
        check_trace(args.trace)
    if args.telemetry:
        check_telemetry(args.telemetry)
    if args.metrics:
        check_metrics(args.metrics)
        if args.serving:
            check_serve_metrics(args.metrics)
        if args.expect_plan:
            check_plan_metrics(args.metrics)
    elif args.expect_plan:
        parser.error("--expect-plan requires --metrics")
    if args.serving:
        check_serving(args.serving)
    if args.admin:
        check_admin(args.admin)
    if errors:
        for message in errors:
            print(f"check_telemetry: {message}", file=sys.stderr)
        print(f"check_telemetry: FAILED ({len(errors)} error(s))",
              file=sys.stderr)
        return 1
    print("check_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
