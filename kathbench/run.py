#!/usr/bin/env python3
"""Builds the KathDB benchmark from source and runs one workload.

    python3 kathbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 kathbench/run.py --smoke

Run from the root of a KathDB checkout. The first call configures and
builds the library and the kathbench binary (Release) into .bench_build/;
later calls only rebuild what changed. Build output goes to stderr.

A run is split into segments of about 3.5 seconds. Each segment is one
process of the binary on a freshly set-up system, so memory stays bounded
(the lineage store grows with every query) and every segment starts from
the same process state. This script merges the segments' raw
measurements, computes the metrics BENCHMARK.json names and prints them
as the last line of stdout:

    {"correct": true, "attempted": 187, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.

--smoke runs all three workloads at tiny sizes, traced and untraced, and
checks that each prints every metric BENCHMARK.json names, with its unit,
and that no query failed.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "kathbench")
STATE_DIR = os.path.join(ROOT, ".bench_build", "kathbench-state")
BINARY = os.path.join(BUILD_DIR, "kathbench")
WORKLOADS = ("paper_large", "sessions_wire", "sessions_cold")
SEGMENT_S = 3.5        # timed length of one segment, about
MIN_P90_SAMPLES = 100  # p90 keeps ten samples beyond it, over the run
MIN_SEGMENT_SAMPLES = 20  # a segment's own p90 has two beyond it
RUN_BUDGET_S = 170.0   # a whole run, all segments
# FAO templates with alternatives the optimizer chooses between.
CHOICE_TEMPLATES = ("classify_boring_cascade", "classify_boring_pixels",
                    "classify_boring_stats", "keyword_similarity_cached",
                    "keyword_similarity_score")
PLAN_MIX_TOLERANCE = 0.10


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("kathbench: no KathDB sources (CMakeLists.txt, src/) in "
                 + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "kathbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("kathbench: build failed: " + " ".join(cmd))


# ------------------------------------------------------------- segments

def run_segments(workload, seed, seconds, trace, smoke):
    """Runs the binary once per segment; returns the raw records."""
    n = max(1, round(seconds / SEGMENT_S))
    min_samples = (math.ceil(10 / n) if smoke else
                   max(MIN_SEGMENT_SAMPLES, math.ceil(MIN_P90_SAMPLES / n)))
    deadline = time.monotonic() + RUN_BUDGET_S
    records = []
    for k in range(n):
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds / n), "--segment", str(k),
               "--min-samples", str(min_samples)]
        # paper_large decomposes inside its timed loop in every segment;
        # the sessions workloads decompose once, after the last one.
        if trace and (workload == "paper_large" or k == n - 1):
            cmd.append("--decompose")
        if smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.exit("kathbench: run exceeded %d s" % RUN_BUDGET_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit("kathbench: segment %d exited with %d"
                     % (k, proc.returncode))
        records.append(json.loads(lines[-1]))
    return records


def merge(records):
    """Sums counts, concatenates samples, keeps per-segment values."""
    m = {"per_segment": {}, "chosen": {}, "counters": {}, "layers": {},
         "latency_ms": [], "wire": any(r["wire"] for r in records)}
    for r in records:
        seg = m["per_segment"]
        seg.setdefault("p50_ms", []).append(percentile(r["latency_ms"], 0.5))
        seg.setdefault("p90_ms", []).append(percentile(r["latency_ms"], 0.9))
        seg.setdefault("qps", []).append(
            ratio(r["timed_attempted"], r["timed_s"]))
        for key, value in r.items():
            if key in ("setup_s", "ingest_doc_us", "ingest_image_us",
                       "peak_rss_mb"):
                m["per_segment"].setdefault(key, []).append(value)
            elif key == "latency_ms":
                m["latency_ms"] += value
            elif key in ("chosen", "counters", "layers"):
                for k, v in value.items():
                    if isinstance(v, list):
                        m[key][k] = m[key].get(k, []) + v
                    else:
                        m[key][k] = m[key].get(k, 0) + v
            elif key != "wire":
                m[key] = m.get(key, 0) + value
    return m


# -------------------------------------------------------------- metrics

def ratio(num, den):
    return num / den if den else 0.0


def percentile(values, p):
    """Nearest rank, p in (0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[max(1, math.ceil(p * len(v))) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def plan_mix(m):
    q = m["timed_attempted"]
    return {t: ratio(m["chosen"].get(t, 0), q) for t in CHOICE_TEMPLATES}


def plan_mix_changed(workload, mix, persist):
    """Compares with the previous run's mix, warns, stores this one."""
    if not persist:
        return 0.0
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, "plan_mix_%s.json" % workload)
    changed = False
    if os.path.isfile(path):
        with open(path) as f:
            prev = json.load(f)
        for name, share in mix.items():
            before = prev.get(name, 0.0)
            if abs(share - before) > PLAN_MIX_TOLERANCE:
                changed = True
                print("WARNING plan mix changed since the previous run: "
                      "%s chosen in %.2f of queries, was %.2f"
                      % (name, share, before), file=sys.stderr)
    with open(path, "w") as f:
        json.dump(mix, f)
    return 1.0 if changed else 0.0


def end_to_end(m):
    # Timings are medians over the segments of each segment's own value,
    # so a host slowdown that lasts less than half the run, or one process
    # whose "auto" plan choices lean one way, does not move them.
    seg = m["per_segment"]
    return [
        ("latency_p50_ms", median(seg["p50_ms"]), "ms"),
        ("latency_p90_ms", median(seg["p90_ms"]), "ms"),
        ("throughput_qps", median(seg["qps"]), "1/s"),
        ("setup_s", median(seg["setup_s"]), "s"),
        # Billed once per distinct model call while the cache holds it,
        # so averaged over every query the systems served, prime
        # included: warm sessions_wire alone would read almost zero.
        ("tokens_per_query", ratio(m["served_tokens"], m["served"]),
         "tokens"),
        ("answered_frac", ratio(m["attempted"] - m["failed"],
                                m["attempted"]), "fraction"),
        ("answer_f1", ratio(2 * m["tp"], 2 * m["tp"] + m["fp"] + m["fn"]),
         "fraction"),
        ("peak_rss_mb", median(seg["peak_rss_mb"]), "MiB"),
    ]


def per_layer(m, mix, mix_changed):
    lt, c, seg = m["layers"], m["counters"], m["per_segment"]
    n = lt.get("queries", 0)
    q = m["timed_attempted"]
    node_sum = sum(lt.get(k, 0.0) for k in ("score_ms", "classify_ms",
                                             "join_ms", "rank_ms",
                                             "other_ms"))
    think = ratio(m["think_ms"], q)
    server_ms = median([x - think for x in m["latency_ms"]])
    out = [
        ("fao.score_ms", ratio(lt.get("score_ms", 0), n), "ms"),
        ("fao.classify_ms", ratio(lt.get("classify_ms", 0), n), "ms"),
        ("relational.join_ms", ratio(lt.get("join_ms", 0), n), "ms"),
        ("relational.rank_ms", ratio(lt.get("rank_ms", 0), n), "ms"),
        ("relational.other_ms", ratio(lt.get("other_ms", 0), n), "ms"),
        ("engine.execute_ms", ratio(lt.get("execute_ms", 0), n), "ms"),
        ("engine.unattributed_ms",
         ratio(lt.get("execute_ms", 0) - node_sum, n), "ms"),
        ("engine.attributed_frac", ratio(node_sum, lt.get("execute_ms", 0)),
         "fraction"),
        ("parser.parse_ms", ratio(lt.get("parse_ms", 0), n), "ms"),
        ("planner.generate_ms", ratio(lt.get("generate_ms", 0), n), "ms"),
        ("optimizer.optimize_ms", ratio(lt.get("optimize_ms", 0), n), "ms"),
        ("optimizer.profile_ms", ratio(lt.get("profile_ms", 0), n), "ms"),
        ("trace.overhead_frac",
         ratio(median(lt.get("traced_ms", [])),
               median(lt.get("untraced_ms", []))) - 1.0, "fraction"),
        ("trace.queries", n, "count"),
    ]
    out += [("optimizer.chosen." + t, mix[t], "fraction")
            for t in CHOICE_TEMPLATES]
    out += [
        ("optimizer.plan_mix_changed", mix_changed, "bool"),
        ("latency.samples", len(m["latency_ms"]), "count"),
        ("lineage.entries_per_query", ratio(c["lineage"], q), "entries"),
        ("llm.calls_per_query", ratio(c["llm_calls"], q), "calls"),
        ("engine.repairs_per_query", ratio(m["repairs"], q), "count"),
        ("engine.anomalies_per_query", ratio(m["anomalies"], q), "count"),
        ("multimodal.ingest_doc_us", median(seg["ingest_doc_us"]), "us"),
        ("multimodal.ingest_image_us", median(seg["ingest_image_us"]), "us"),
        ("service.cache_hit_rate",
         ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
         "fraction"),
        ("service.cache_evictions_per_query", ratio(c["cache_evictions"], q),
         "count"),
        ("llm.batch_size_mean",
         ratio(c["batch_generated"], c["batch_flushes"]), "prompts"),
        ("llm.coalesced_frac",
         ratio(c["batch_coalesced"], c["batch_submitted"]), "fraction"),
        ("llm.deadline_flush_frac",
         ratio(c["batch_deadline_flushes"], c["batch_flushes"]), "fraction"),
        ("net.asks_per_query", ratio(m["asks"], q), "count"),
        ("net.think_ms_per_query", think, "ms"),
        ("net.server_ms_per_query", server_ms if m["wire"] else 0.0, "ms"),
        ("net.frames_per_query", ratio(c["net_frames"], q), "frames"),
        ("net.bytes_per_row", ratio(c["net_partial_bytes"], m["rows"]),
         "B/row"),
        ("net.protocol_errors", c["net_protocol_errors"], "count"),
    ]
    return out


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object."""
    m = merge(run_segments(workload, seed, seconds, trace, smoke))
    mix = plan_mix(m)
    mix_changed = plan_mix_changed(workload, mix, persist=not smoke)
    metrics = per_layer(m, mix, mix_changed) if trace else end_to_end(m)
    print("%s seed=%d trace=%d: %d queries attempted, %d failed, "
          "%d timed samples in %.2f s" % (
              workload, seed, trace, m["attempted"], m["failed"],
              len(m["latency_ms"]), m["timed_s"]), file=sys.stderr)
    for name, value, unit in metrics:
        print("  %-42s %16.6f %s" % (name, value, unit), file=sys.stderr)
    return {"correct": m["failed"] == 0, "attempted": int(m["attempted"]),
            "failed": int(m["failed"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit in metrics}}


# ---------------------------------------------------------------- smoke

def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = "%s --trace %d" % (workload, trace)
            result = run_workload(workload, 1, 1.0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics %s, BENCHMARK.json names %s"
                                % (where, sorted(got.items()),
                                   sorted(want.items())))
            if (not result["correct"] or result["failed"] != 0
                    or result["attempted"] < 1):
                problems.append("%s: %d of %d queries failed"
                                % (where, result["failed"],
                                   result["attempted"]))
            if trace == 0 and result["metrics"]["answered_frac"]["value"] != 1:
                problems.append("%s: answered_frac %r" % (
                    where, result["metrics"]["answered_frac"]["value"]))
    for p in problems:
        print("SMOKE FAIL " + p, file=sys.stderr)
    print("kathbench smoke: %s" % ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
