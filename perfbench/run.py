#!/usr/bin/env python3
"""Repository benchmark: drive a real defa_serve with one workload and
print every metric by name and unit, then one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/CMakeLists.txt (the repository's defa_serve plus the load
program) into .bench_build/perfbench; later runs rebuild incrementally.
With --trace 0 the result line carries the end-to-end metrics, measured
with tracing off; with --trace 1 it carries the per-layer metrics, from a
second, traced window on the same server.  Workloads, metrics and the
layer each one belongs to are described in perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("coco_prune_sweep", "small_scene_stream", "tiny_open_rates")
# --seconds sets each workload's request count; the runs were checked to
# end well within LOAD_TIMEOUT_S up to MAX_SECONDS (see README.md).
MAX_SECONDS = 20
LOAD_TIMEOUT_S = 165

# Point/pixel/FLOP reduction bands per configuration label, around what
# the seed commit measured (coco: its one fixed scene; small and tiny: the
# range over many seeded scenes and thresholds, e.g. about 1900 small
# scenes gave points 0.832-0.883, pixels 0.449-0.685, FLOPs 0.500-0.570).
# A result outside its band fails the run: pruning that silently stopped
# working stays bit-identical to a reference that stopped too, but not
# inside these bands.
BANDS = {
    "coco_prune_sweep": {
        "DEFA-INT12-nonarrow": {"point_reduction": (0.81, 0.87), "pixel_reduction": (0.42, 0.49), "flop_reduction": (0.44, 0.50)},
        "PAP": {"point_reduction": (0.81, 0.87), "pixel_reduction": (0.0, 0.0), "flop_reduction": (0.36, 0.42)},
        "FWP": {"point_reduction": (0.0, 0.0), "pixel_reduction": (0.13, 0.19), "flop_reduction": (0.01, 0.05)},
        "PAP+FWP": {"point_reduction": (0.81, 0.87), "pixel_reduction": (0.42, 0.49), "flop_reduction": (0.44, 0.50)},
    },
    "small_scene_stream": {
        "DEFA": {"point_reduction": (0.80, 0.91), "pixel_reduction": (0.42, 0.72), "flop_reduction": (0.47, 0.60)},
    },
    "tiny_open_rates": {
        "DEFA": {"point_reduction": (0.45, 0.62), "pixel_reduction": (0.15, 0.25), "flop_reduction": (0.30, 0.40)},
        "PAP": {"point_reduction": (0.35, 0.70), "pixel_reduction": (0.0, 0.0), "flop_reduction": (0.20, 0.42)},
        "FWP": {"point_reduction": (0.0, 0.0), "pixel_reduction": (0.0, 0.55), "flop_reduction": (0.0, 0.08)},
        "PAP+FWP+INT12": {"point_reduction": (0.35, 0.70), "pixel_reduction": (0.10, 0.45), "flop_reduction": (0.22, 0.46)},
    },
}

PHASES = ("reference_build", "value_projection", "gather_aggregate", "quantize_narrow",
          "pap_prune", "fwp_prune", "plan_build")


def build():
    """Configure once, then build defa_serve and perfbench_load."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: %s holds no defa source tree to build" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "defa_serve", "perfbench_load", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_load(args, raw_path):
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_load"), "--serve", os.path.join(BUILD, "defa", "defa_serve"),
           "--workdir", workdir, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", raw_path]
    # Own process group: on timeout perfbench_load and its server go together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=LOAD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        raise SystemExit("perfbench: perfbench_load exited with %d" % rc)
    with open(raw_path) as f:
        return json.load(f)


# ------------------------------------------------------------------ metadata

def source_digest():
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for sub in ("src", "tools"):
        for path in sorted(glob.glob(os.path.join(ROOT, sub, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                files.append(path)
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def build_info():
    info = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            name = key.split(":")[0]
            if name in ("CMAKE_CXX_COMPILER", "CMAKE_BUILD_TYPE", "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
                        "CMAKE_GENERATOR", "DEFA_TRACE", "DEFA_KERNELS_SIMD", "DEFA_KERNELS_NATIVE"):
                info[name] = value
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        info[key] = line.split(None, 1)[1].rstrip(")\n").strip('"')
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, raw):
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build": build_info(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "default_backend": raw["backends"]["default"],
        "server_argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in raw["server_argv"]],
        "wire_version": raw["wire_version"],
        "clients": raw["clients"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------- metrics

def window_samples(window, rungs=None):
    """Column dict of a window's samples, optionally only those of the
    open-loop rungs (ladder indices) in `rungs`."""
    s = window["samples"]
    keep = [i for i in range(len(s["cat"])) if rungs is None or s["rung"][i] in rungs]
    return {k: [v[i] for i in keep] for k, v in s.items()}


def measured_samples(raw, window):
    """The samples latency is reported on: the whole window of a closed
    loop, every segment at the operating rate of the open loop."""
    if "ladder" not in raw:
        return window_samples(window)
    return window_samples(window, {r for r, rung in enumerate(raw["ladder"])
                                   if rung["rate"] == raw["operating_rate"]})


def ok_only(s):
    keep = [i for i, st in enumerate(s["status"]) if st == 0]
    return {k: [v[i] for i in keep] for k, v in s.items()}


def counter_delta(window, key):
    return window["server_after"]["cache"][key] - window["server_before"]["cache"][key]


def hit_rate(window, hits, misses):
    h, m = counter_delta(window, hits), counter_delta(window, misses)
    return h / (h + m) if h + m else 0.0


def end_to_end(raw):
    w = raw["timed"]
    allc = stats.failure_counts(w["samples"]["status"])
    s = ok_only(measured_samples(raw, w))
    lat = stats.from_due_ms(s["due_us"], s["done_us"])
    tail_label, tail_v = stats.block_tail(lat)
    throughput = allc["ok"] / w["wall_s"]
    rungs = []
    max_rate = throughput  # a closed loop's capacity at its client count
    if "ladder" in raw:
        for r, rung in enumerate(raw["ladder"]):
            if rung["rate"] == raw["operating_rate"]:
                continue  # reported as latency_p50_ms / latency_tail_ms
            rs = window_samples(w, {r})
            verdict = stats.rung_verdict(rs["due_us"], rs["done_us"], rs["status"], raw["limit_ms"])
            verdict["rate"] = rung["rate"]
            rungs.append(verdict)
        max_rate = stats.capacity([v for v in rungs if v["rate"] > raw["operating_rate"]])
    metrics = {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "throughput_rps": (throughput, "1/s"),
        "latency_p50_ms": (stats.median(lat), "ms"),
        "latency_tail_ms": (tail_v, "ms"),
        "max_rate_rps": (max_rate, "1/s"),
        "peak_rss_mb": (w["vm_hwm_kb"] / 1024.0, "MB"),
        "cpu_ms_per_req": (w["cpu_ticks"] * 1000.0 / w["clk_tck"] / max(1, allc["ok"]), "ms"),
    }
    extra = {
        "failed_share": allc["failed"] / allc["attempted"],
        "latency_tail_label": tail_label,
        "latency_tail_raw": stats.tail(lat),
        "latency_samples": len(lat),
        "rungs": rungs,
    }
    return metrics, extra


def per_layer(raw, catalog):
    u, t = raw["timed"], raw["traced"]
    us = ok_only(measured_samples(raw, u))
    n_u = len(u["samples"]["status"])
    rtt = [(d - s) / 1000.0 for s, d in zip(us["send_us"], us["done_us"])]
    overhead = [r - q - x for r, q, x in zip(rtt, us["queue_ms"], us["run_ms"])]
    srv = {k: u["server_after"]["wire"]["v2"][k] - u["server_before"]["wire"]["v2"][k]
           for k in u["client_ser"]}
    cli = u["client_ser"]
    queue_tail_label, queue_tail = stats.block_tail(us["queue_ms"])

    nodes, violations = stats.span_tree([
        {"name": e["name"], "ts": e["ts"], "dur": e["dur"], "tid": e["tid"],
         "trace_id": e.get("args", {}).get("trace_id", "")} for e in t["spans"]])
    by_trace = {tid: c for tid, c in zip(t["samples"]["trace_id"], t["samples"]["cat"]) if tid}
    traced_ok = sum(1 for tid, st in zip(t["samples"]["trace_id"], t["samples"]["status"]) if tid and st == 0)
    encoders = [i for i, n in enumerate(nodes) if n["name"] == "encoder"]
    computed = []
    for i in encoders:
        inner = stats.descendants(nodes, i)
        if any(nodes[j]["name"] == "gather_aggregate" for j in inner):
            computed.append((i, inner))
    # Encoder children outside the named phases would break the account
    # "phases + unattributed = encoder"; list them so a new span shows.
    unnamed = sorted({nodes[j]["name"] for i, _ in computed for j in nodes[i]["children"]} - set(PHASES))
    enc_us = sum(nodes[i]["dur"] for i, _ in computed)
    enc_self_us = sum(nodes[i]["self_us"] for i, _ in computed)
    phase_us = {p: 0 for p in PHASES}
    for _, inner in computed:
        for j in inner:
            if nodes[j]["name"] in phase_us:
                phase_us[nodes[j]["name"]] += nodes[j]["self_us"]
    n_comp = max(1, len(computed))
    comp_cats = [catalog[by_trace[nodes[i]["trace_id"]]] for i, _ in computed if nodes[i]["trace_id"] in by_trace]
    gather_bytes = [c["kept_points"] * 4 * c["d_head"] * 4 for c in comp_cats]
    sims = [n["dur"] / 1000.0 for n in nodes if n["name"] == "simulate"]
    ts = ok_only(measured_samples(raw, t))
    traced_p50 = stats.median(stats.from_due_ms(ts["due_us"], ts["done_us"]))
    untraced_p50 = stats.median(stats.from_due_ms(us["due_us"], us["done_us"]))

    m = {
        "client.overhead_ms_p50": (stats.median(overhead), "ms"),
        "client.send_lag_ms_p99": (stats.nearest_rank(stats.send_lag_ms(us["due_us"], us["send_us"]), 99), "ms"),
        "serve.wire.encode_us_per_req": ((cli["encode_ms"] + srv["encode_ms"]) * 1000.0 / n_u, "us"),
        "serve.wire.decode_us_per_req": ((cli["decode_ms"] + srv["decode_ms"]) * 1000.0 / n_u, "us"),
        "serve.wire.bytes_per_req": ((cli["encode_bytes"] + srv["encode_bytes"]) / n_u, "B"),
        "serve.scheduler.queue_ms_p50": (stats.median(us["queue_ms"]), "ms"),
        "serve.scheduler.queue_ms_tail": (queue_tail, "ms"),
        "serve.scheduler.run_ms_p50": (stats.median(us["run_ms"]), "ms"),
        "api.engine.memo_hit_rate": (hit_rate(u, "memo_hits", "memo_misses"), "ratio"),
        "api.engine.context_hit_rate": (hit_rate(u, "context_hits", "context_misses"), "ratio"),
        "api.engine.context_builds": (counter_delta(u, "context_misses"), "count"),
        "api.engine.computed_share": (len(computed) / max(1, traced_ok), "ratio"),
    }
    for p in PHASES:
        m["core.pipeline.%s_ms" % p] = (phase_us[p] / 1000.0 / n_comp, "ms")
        m["core.pipeline.%s_share" % p] = (phase_us[p] / enc_us if enc_us else 0.0, "ratio")
    m.update({
        "core.pipeline.unattributed_share": (enc_self_us / enc_us if enc_us else 0.0, "ratio"),
        "core.pipeline.gflops_per_s": (sum(c["actual_gflops"] for c in comp_cats) / (enc_us / 1e6) if enc_us else 0.0, "GFLOP/s"),
        "kernels.plan_hit_rate": (hit_rate(u, "plan_hits", "plan_misses"), "ratio"),
        "kernels.gather_bytes_per_req": (sum(gather_bytes) / len(gather_bytes) if gather_bytes else 0.0, "B"),
        "kernels.gather_gbps": (sum(gather_bytes) / (phase_us["gather_aggregate"] * 1e3) if phase_us["gather_aggregate"] else 0.0, "GB/s"),
        "prune.flop_reduction": (sum(c["flop_reduction"] for c in comp_cats) / len(comp_cats) if comp_cats else 0.0, "ratio"),
        "arch.simulate_ms_p50": (stats.median(sims) if sims else 0.0, "ms"),
        "obs.trace_overhead": (traced_p50 / untraced_p50 - 1.0, "ratio"),
        "obs.dropped_spans": (t["dropped_spans"], "count"),
    })
    extra = {
        "queue_tail_label": queue_tail_label,
        "queue_tail_raw": stats.tail(us["queue_ms"]),
        "computed_encoder_runs": len(computed),
        "encoder_runs": len(encoders),
        "traced_requests": traced_ok,
        "spans": len(nodes),
        "nesting_violations": len(violations),
        "encoder_children_outside_phases": unnamed,
        "attribution": stats.attribution(nodes),
        "gather_bytes_note": "computed: kept points x 4 corners x d_head x 4-byte values",
    }
    return m, extra


def band_failures(workload, catalog):
    bands = BANDS[workload]
    bad = []
    for i, c in enumerate(catalog):
        if "point_reduction" not in c:
            continue
        for key, (lo, hi) in bands[c["label"]].items():
            if not lo - 1e-12 <= c[key] <= hi + 1e-12:
                bad.append({"request": i, "label": c["label"], key: c[key], "band": [lo, hi]})
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        ap.error("--seed must be >= 0 and --seconds in [1, %d]" % MAX_SECONDS)

    build()
    raws = os.path.join(BUILD, "raw")
    os.makedirs(raws, exist_ok=True)
    raw = run_load(args, os.path.join(raws, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)))

    catalog = raw["catalog"]
    e2e, e2e_extra = end_to_end(raw)
    layers, layer_extra = per_layer(raw, catalog) if args.trace else ({}, {})
    bands = band_failures(args.workload, catalog)
    mismatched = raw["gate"]["mismatched"]
    measured = raw["timed"]["samples"]["status"] + (raw["traced"]["samples"]["status"] if args.trace else [])
    counts = stats.failure_counts(measured)
    # Attempted and failed cover every request sent: warm-ups and windows.
    sent = [p for p in raw["phases"] if not p["name"].startswith("gate")]
    attempted, failed = sum(p["sent"] for p in sent), sum(p["failed"] for p in sent)
    # A traced run that lost spans or could not nest them has no trustworthy
    # per-layer split.
    correct = (not mismatched and not bands and counts["wrong"] == 0
               and not layer_extra.get("nesting_violations")
               and (not args.trace or raw["traced"]["dropped_spans"] == 0))

    meta = metadata(args, raw)
    result = {"meta": meta, "attempted": attempted, "failed": failed, "phases": raw["phases"],
              "counts": counts, "gate": raw["gate"],
              "band_failures": bands, "end_to_end": e2e, "end_to_end_extra": e2e_extra,
              "per_layer": layers, "per_layer_extra": layer_extra, "correct": correct}
    out_dir = os.path.join(BUILD, "results", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "seed%d-trace%d-%d.json" % (args.seed, args.trace, time.time_ns()))
    with open(out, "w") as f:
        json.dump(result, f, indent=1)

    print("perfbench %s seed %d, %ds, trace %d -> %s" % (args.workload, args.seed, args.seconds, args.trace,
                                                         os.path.relpath(out, ROOT)))
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in raw["phases"]:
        print("phase %-16s sent %6d  succeeded %6d  failed %d" % (p["name"], p["sent"], p["ok"], p["failed"]))
    print("gate: %d distinct results vs in-process reference engine, %d mismatched; %d outside reduction bands"
          % (raw["gate"]["distinct"], len(mismatched), len(bands)))
    for r in e2e_extra["rungs"]:
        print("rung %6.0f/s  p50 %.3f ms  %s %.3f ms  drain %.3f ms  achieved %.1f/s  %s"
              % (r["rate"], r["p50_ms"], r["tail_label"], r["tail_ms"], r["drain_ms"], r["achieved_rps"],
                 "pass" if r["passes"] else "FAIL"))
    raw_p, raw_v = e2e_extra["latency_tail_raw"]
    print("latency_tail_ms = %s of %d samples; their own p%g %.3f ms; failed_share %.6f"
          % (e2e_extra["latency_tail_label"], e2e_extra["latency_samples"], raw_p, raw_v,
             e2e_extra["failed_share"]))
    if args.trace:
        for name, row in sorted(layer_extra["attribution"].items()):
            print("attribution %-16s n %5d  unattributed %.4f" % (name, row["count"], row["unattributed_share"]))
        print("spans %d, nesting violations %d, encoder children outside the named phases: %s"
              % (layer_extra["spans"], layer_extra["nesting_violations"],
                 ", ".join(layer_extra["encoder_children_outside_phases"]) or "none"))
        raw_p, raw_v = layer_extra["queue_tail_raw"]
        print("serve.scheduler.queue_ms_tail = %s; their own p%g %.3f ms" % (layer_extra["queue_tail_label"], raw_p, raw_v))
    for name, (value, unit) in (list(e2e.items()) + list(layers.items())):
        print("metric %-40s %14.6g %s" % (name, value, unit))
    # The result line carries exactly the metrics BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    computed = layers if args.trace else e2e
    shown = {}
    for m in declared:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise SystemExit("perfbench: %s is in %s, BENCHMARK.json says %s" % (m["name"], unit, m["unit"]))
        shown[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
