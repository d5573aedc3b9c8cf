#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload dnc-fine --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the repository's libraries plus the stbench binary)
under .bench_build/perfbench, runs one workload, prints every metric by
name with its unit, writes a stamped result file and prints, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
BUILD = CHECKOUT / ".bench_build" / "perfbench"
BINARY = BUILD / "stbench"
RESULTS = BUILD / "results"
BUILD_TYPE = "RelWithDebInfo"
DEADLINE_S = 170  # every run must end within 180 s

WORKLOADS = ["dnc-fine", "dnc-coarse", "echo", "stvm"]
APPS = ["fib", "knapsack", "cilksort", "futures", "magic", "heat", "strassen",
        "blockedmul", "nqueens"]
CILK_APPS = [a for a in APPS if a != "futures"]
LAYERS = ["apps", "runtime", "sync", "io", "stvm", "cilk", "util", "gen", "bench"]
# STVM programs reported by name: the kernel and mode each one is.
VM_PROGS = {"fib": ("pfib", "ref_ms"), "pfib": ("pfib", "par_ms"), "psum": ("psum", "par_ms")}

END_TO_END = {"speedup_par": "ratio", "overhead_p1": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {
        "time_par_ms": "ms", "time_p1_ms": "ms",
        "runtime.forks": "count", "runtime.forks_per_ms": "1/ms", "runtime.fork_ns": "ns",
        "runtime.tasks_completed": "count", "runtime.region_high_water": "count",
        "runtime.heap_fallbacks": "count", "runtime.suspends": "count",
        "runtime.resumes": "count", "runtime.steal_attempts": "count",
        "runtime.steals_received": "count", "runtime.steals_rejected": "count",
        "runtime.steals_cancelled": "count", "runtime.steal_hit_ratio": "ratio",
        "runtime.steal_unaccounted": "count", "runtime.steal_latency_p50_us": "us",
        "runtime.steal_latency_p99_us": "us", "runtime.cpu_per_wall_par": "ratio",
        "runtime.idle_wakes": "count", "runtime.run_empty_us": "us",
        "runtime.suspend_to_restart_p99_us": "us",
        "sync.future_ns": "ns", "sync.spawns": "count",
        "io.wakeups": "count", "io.events": "count", "io.events_per_wakeup": "ratio",
        "io.migrations": "count", "io.wait_p99_us": "us", "io.connect_ms": "ms",
        "gen.late_p99_us": "us", "gen.sent": "count", "gen.completed": "count",
        "echo_rps": "req/s", "lat_p50_us": "us", "lat_p99_us": "us", "rps_at_slo": "req/s",
    }
    for app in APPS:
        for mode in ("seq", "p1", "par"):
            units[f"apps.{app}.{mode}_ms"] = "ms"
    for app in CILK_APPS:
        units[f"cilk.{app}.par_ms"] = "ms"
    units["cilk.ratio_par"] = "ratio"
    units.update({"stvm.assemble_ms": "ms", "stvm.postprocess_ms": "ms",
                  "stvm.vm_ctor_ms": "ms"})
    for prog in VM_PROGS:
        units[f"stvm.{prog}.run_ms"] = "ms"
        units[f"stvm.{prog}.minstr_per_s"] = "Minstr/s"
    for c in ("instructions", "suspends", "restarts", "steals_served", "frames_unwound",
              "shrink_reclaimed"):
        units[f"stvm.{c}"] = "count"
    units["vm_minstr_per_s"] = "Minstr/s"
    units["util.trace_overhead_pct"] = "%"
    units["util.hist_p99_over_max"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units["error_rate"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configures once, then builds stbench; False on any failure."""
    if not (CHECKOUT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/ beside perfbench/; run from a checkout of the repository")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD), "--target", "stbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, trace, tiny, deadline):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    raw = RESULTS / f"{stem}.raw.json"
    spans = RESULTS / f"{stem}.spans.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(raw), "--spans", str(spans)]
    if tiny:
        cmd.append("--tiny")
    for stale in (raw, spans):
        stale.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        # run() kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {timeout:.0f} s")
        return None, None
    if proc.returncode != 0:
        log(f"perfbench: stbench exited with {proc.returncode}")
        return None, None
    rec = json.loads(raw.read_text())
    span_list = json.loads(spans.read_text()) if trace and spans.is_file() else []
    return rec, span_list


# -------------------------------------------------------------- metrics

def med(values):
    return statistics.median(values) if values else 0.0


def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def round_ratio(num, den):
    """Median over rounds of num / den, both timed in the same round, so
    drift of the machine's speed between rounds cancels."""
    return med([a / b for a, b in zip(num, den)])


def end_to_end(rec):
    ks = rec["kernels"]
    return {
        "speedup_par": geomean([round_ratio(k["seq_ms"], k["par_ms"]) for k in ks]),
        "overhead_p1": geomean([round_ratio(k["p1_ms"], k["seq_ms"]) for k in ks]),
        "setup_s": med(rec["setup_s"]),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
    }


def times(kernels):
    """Geomean over kernels of the median time at P and at P1."""
    return {"time_par_ms": geomean([med(k["par_ms"]) for k in kernels]),
            "time_p1_ms": geomean([med(k["p1_ms"]) for k in kernels])}


def histogram(rec, tag, name):
    for snap in rec["snapshots"]:
        if snap["tag"] == tag:
            for h in snap["data"].get("histograms", []):
                if h["name"] == name:
                    return h
    return {}


def self_pct(spans):
    """Each span's duration minus the part its children cover, summed per
    layer, as a share of all self time."""
    children = {}
    for i, (_, _, t0, t1, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for i, (_, layer, t0, t1, _) in enumerate(spans):
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        per_layer[layer] = per_layer.get(layer, 0.0) + max(0, t1 - t0 - covered)
    total = sum(per_layer.values()) or 1.0
    return {f"{layer}.self_pct": 100.0 * per_layer[layer] / total for layer in LAYERS}


def per_layer(rec, spans):
    L = rec["layer"]
    g = lambda key: float(L.get(key, 0.0))
    # Times come from the untraced rounds of a traced run, counts from the
    # traced ones.
    U = {k["name"]: k for k in rec["untraced"] or rec["kernels"]}
    T = {k["name"]: k for k in rec["kernels"]}
    m = times(U.values())

    forks = g("p1.forks")  # per round, in which kernel n runs kernel_triples.n times
    p1_total = sum(g(f"kernel_triples.{n}") * med(k["p1_ms"]) for n, k in U.items())
    fork_kernels = [n for n in U if n != "futures" and g(f"kernel_forks.{n}") > 0]
    fork_count = sum(g(f"kernel_forks.{n}") for n in fork_kernels)
    fork_extra_ms = sum(med(U[n]["p1_ms"]) - med(U[n]["seq_ms"]) for n in fork_kernels)
    attempts, received = g("par.steal_attempts"), g("par.steals_received")
    rejected, cancelled = g("par.steals_rejected"), g("par.steals_cancelled")
    steal_lat = histogram(rec, "par", "steal_latency")
    m.update({
        "runtime.forks": forks,
        "runtime.forks_per_ms": forks / p1_total if p1_total > 0 else 0.0,
        "runtime.fork_ns": fork_extra_ms * 1e6 / fork_count if fork_count else 0.0,
        "runtime.tasks_completed": g("p1.tasks_completed"),
        "runtime.region_high_water": g("region_high_water"),
        "runtime.heap_fallbacks": g("p1.heap_fallbacks") + g("par.heap_fallbacks"),
        "runtime.suspends": g("par.suspends"),
        "runtime.resumes": g("par.resumes"),
        "runtime.steal_attempts": attempts,
        "runtime.steals_received": received,
        "runtime.steals_rejected": rejected,
        "runtime.steals_cancelled": cancelled,
        "runtime.steal_hit_ratio": received / attempts if attempts else 0.0,
        "runtime.steal_unaccounted": attempts - received - rejected - cancelled,
        "runtime.steal_latency_p50_us": steal_lat.get("p50", 0.0) / 1e3,
        "runtime.steal_latency_p99_us": steal_lat.get("p99", 0.0) / 1e3,
        "runtime.cpu_per_wall_par": g("par.cpu_per_wall"),
        "runtime.idle_wakes": g("par.idle_wakes"),
        "runtime.run_empty_us": g("run_empty_us"),
        "runtime.suspend_to_restart_p99_us":
            histogram(rec, "par", "suspend_to_restart").get("p99", 0.0) / 1e3,
    })

    spawns = g("kernel_forks.futures")
    fut = U.get("futures")
    m["sync.spawns"] = spawns
    m["sync.future_ns"] = ((med(fut["p1_ms"]) - med(fut["seq_ms"])) * 1e6 / spawns
                           if fut and spawns else 0.0)

    wakeups, events = g("par.io_wakeups"), g("par.io_events")
    m.update({
        "io.wakeups": wakeups, "io.events": events,
        "io.events_per_wakeup": events / wakeups if wakeups else 0.0,
        "io.migrations": g("par.io_migrations"),
        "io.wait_p99_us": histogram(rec, "par", "io_wait").get("p99", 0.0) / 1e3,
        "io.connect_ms": g("io.connect_ms"),
        "gen.late_p99_us": g("open.late_p99_us"), "gen.sent": g("open.sent"),
        "gen.completed": g("open.completed"),
        "echo_rps": g("closed.rps"), "lat_p50_us": g("open.lat_p50_us"),
        "lat_p99_us": g("open.lat_p99_us"), "rps_at_slo": g("slo.rps_at_slo"),
    })

    for app in APPS:
        for mode in ("seq", "p1", "par"):
            m[f"apps.{app}.{mode}_ms"] = med(U[app][f"{mode}_ms"]) if app in U else 0.0
    ratios = []
    for app in CILK_APPS:
        ck = med(U[app]["ref_ms"]) if app in U else 0.0
        m[f"cilk.{app}.par_ms"] = ck
        if ck > 0:
            ratios.append(med(U[app]["par_ms"]) / ck)
    m["cilk.ratio_par"] = geomean(ratios)

    m.update({k: g(k) for k in ("stvm.assemble_ms", "stvm.postprocess_ms", "stvm.vm_ctor_ms")})
    instr_total = ms_total = 0.0
    for prog, (kernel, mode) in VM_PROGS.items():
        ms = med(U[kernel][mode]) if kernel in U else 0.0
        instr = g(f"vm.{prog}.instructions")
        m[f"stvm.{prog}.run_ms"] = ms
        m[f"stvm.{prog}.minstr_per_s"] = instr / ms / 1e3 if ms > 0 else 0.0
        instr_total += instr
        ms_total += ms
    for c in ("suspends", "restarts", "steals_served", "frames_unwound", "shrink_reclaimed"):
        m[f"stvm.{c}"] = g(f"vm.pfib.{c}") + g(f"vm.psum.{c}")
    m["stvm.instructions"] = instr_total
    m["vm_minstr_per_s"] = instr_total / ms_total / 1e3 if ms_total > 0 else 0.0

    overhead = []
    for name, k in T.items():
        for mode in ("p1_ms", "par_ms"):
            if name in U and med(U[name][mode]) > 0 and med(k[mode]) > 0:
                overhead.append(med(k[mode]) / med(U[name][mode]))
    m["util.trace_overhead_pct"] = 100.0 * (geomean(overhead) - 1.0) if overhead else 0.0
    m["util.hist_p99_over_max"] = float(sum(
        1 for snap in rec["snapshots"] for h in snap["data"].get("histograms", [])
        if h.get("count", 0) > 0 and h["p99"] > h["max"]))
    m.update(self_pct(spans))
    m["error_rate"] = rec["failed"] / max(1, rec["attempted"])
    return m


def workload_extras(rec):
    """Numbers printed beside the gated metrics: the times, and what exists on
    one workload only."""
    L = rec["layer"]
    m = per_layer(rec, [])
    extras = {k: (v, "ms") for k, v in times(rec["kernels"]).items()}
    if rec["workload"] == "echo":
        top = f"lat_p{100 * L.get('open.lat_top_q', 0):.4g}_us"
        extras.update({"echo_rps": (m["echo_rps"], "req/s"), "lat_p50_us": (m["lat_p50_us"], "us"),
                       "lat_p99_us": (m["lat_p99_us"], "us"),
                       top: (L.get("open.lat_top_us", 0), "us"),
                       "lat_samples": (m["gen.completed"], "count"),
                       "rps_at_slo": (m["rps_at_slo"], "req/s")})
    if rec["workload"] == "stvm":
        extras["vm_minstr_per_s"] = (m["vm_minstr_per_s"], "Minstr/s")
    return extras


# ----------------------------------------------------------------- stamp

def stamp(rec):
    try:
        sha = subprocess.run(["git", "-C", str(CHECKOUT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((CHECKOUT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(CHECKOUT)).encode())
                digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "source_sha256": digest.hexdigest()[:16],
            "nproc": rec["nproc"], "cpu_model": cpu, "build_type": BUILD_TYPE,
            "P": rec["P"], "stvm_engine": rec["engine"]}


# ------------------------------------------------------------------ main

def fmt(v):
    return f"{v:.6g}"


def measure(workload, seed, seconds, trace, tiny, deadline):
    """Runs one workload; returns (result dict, human-readable lines) or None."""
    rec, spans = run_binary(workload, seed, seconds, trace, tiny, deadline)
    if rec is None:
        return None
    metrics = end_to_end(rec) if not trace else per_layer(rec, spans)
    units = END_TO_END if not trace else PER_LAYER
    failed = int(rec["failed"])
    values_ok = all(math.isfinite(v) for v in metrics.values())
    if not trace:
        values_ok = values_ok and all(v > 0 for v in metrics.values())
    result = {
        "correct": failed == 0 and values_ok,
        "attempted": max(1, int(rec["attempted"])),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    lines = [f"workload {workload}  seed {seed}  trace {trace}  P {rec['P']}  "
             f"engine {rec['engine']}  nproc {rec['nproc']}"]
    for k in rec["kernels"]:
        lines.append(f"  {k['name']:<11} seq {fmt(med(k['seq_ms'])):>9} ms   "
                     f"p1 {fmt(med(k['p1_ms'])):>9} ms   par {fmt(med(k['par_ms'])):>9} ms"
                     f"   (n={len(k['par_ms'])})")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<36} {fmt(m['value']):>12} {m['unit']}")
    if not trace:
        for name, (v, unit) in workload_extras(rec).items():
            lines.append(f"  {name:<36} {fmt(v):>12} {unit}")
        lines.append(f"  {'error_rate':<36} {fmt(failed / result['attempted']):>12} ratio")
    for msg in rec["failures"]:
        lines.append(f"  FAILED: {msg}")
    record = {"stamp": stamp(rec), "workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, **result, "kernels": rec["kernels"]}
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"  result file: {path.relative_to(CHECKOUT)}")
    return result, lines


def self_test():
    """Tiny sizes: every workload emits every metric of BENCHMARK.json with
    no failed operation."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if want[0] != set(END_TO_END) or want[1] != set(PER_LAYER):
        problems.append("BENCHMARK.json metric lists differ from run.py's")
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            out = measure(w, 1, 1, trace, True, time.monotonic() + DEADLINE_S)
            if out is None:
                problems.append(f"{w} trace {trace}: no result")
                continue
            result, _ = out
            missing = want[trace] - set(result["metrics"])
            if missing:
                problems.append(f"{w} trace {trace}: missing {sorted(missing)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{w} trace {trace}: failed {result['failed']}, "
                                f"correct {result['correct']}")
            print(f"self-test {w} trace {trace}: {len(result['metrics'])} metrics, "
                  f"failed {result['failed']}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at tiny sizes and check the metric sets")
    args = ap.parse_args()
    if not build():
        log("perfbench: build failed")
        return 2
    deadline = time.monotonic() + DEADLINE_S  # the first run may also build
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny, deadline)
    if out is None:
        return 1
    result, lines = out
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
