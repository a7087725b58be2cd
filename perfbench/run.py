"""graphzeta benchmark.

    python3 perfbench/run.py --workload casimir --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes
    python3 perfbench/run.py --selftest            # checker against refs.json

One run imports graphzeta from ./src of the checkout, times the set-up in
fresh interpreters, then runs passes over the workload's operations until
the time budget is spent.  Every pass rescales each pool graph by a seeded
factor c (see pool.py), runs the operations in a seeded order, times each
call and checks its output against the unit-scale reference mapped to c
(see ops.py).  The last stdout line is the JSON result; with --trace 0 it
carries the end-to-end metrics, with --trace 1 the per-layer metrics of
spans.py.  Timings are medians over passes; per-layer figures are per pass.

Each workload run needs its own interpreter: the package caches bond solves
by value, so a repetition inside one process would measure cache hits.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
from pool import POOL, WORKLOADS, passes, scale_doc  # noqa: E402

SETUP_REPEATS = 7
KIND_METRIC = {"zeta": "zeta_s", "energy": "energy_s", "force": "force_s",
               "spectrum": "spectrum_s"}


def setup_seconds(workload, seed):
    """Median wall time of fresh interpreters doing the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)], check=True, cwd=ROOT,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def clear_solve_cache():
    """Start every pass cold, as a fresh interpreter would.  Graphs with a
    bump repeat their inputs in every pass (see pool.py)."""
    from graphzeta import interval
    cached = getattr(interval, "_solve_cached", None)
    if cached is not None:
        cached.cache_clear()


def run_workload(workload, seed, seconds, trace):
    import graphzeta as gz
    refs = ops.load_refs()
    setup = None if trace else setup_seconds(workload, seed)

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    pass_walls = []
    kind_walls = defaultdict(list)
    attempted = failed = 0
    worst_ratio = 0.0
    caught = Counter()
    start = time.perf_counter()
    for pass_no, (scales, op_list) in enumerate(passes(workload, seed)):
        clear_solve_cache()
        if tracer is not None:
            tracer.op = (pass_no, None)
        graphs = {name: gz.parse_graph(json.dumps(scale_doc(POOL[name], c)))
                  for name, c in scales.items()}
        wall = 0.0
        by_kind = defaultdict(float)
        for kind, name, arg in op_list:
            c = scales[name]
            if tracer is not None:
                tracer.op = (pass_no, attempted)
            attempted += 1
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    out = ops.run(kind, *graphs[name], arg, c)
                except Exception as exc:  # a raising operation is a failure
                    out = exc
                dt = time.perf_counter() - t0
            for w in seen:
                caught[(kind, w.category.__name__)] += 1
                print(f"warning in {kind} {name} {arg}: "
                      f"{w.category.__name__}: {w.message}", file=sys.stderr)
            if isinstance(out, Exception):
                ratio = math.inf
                print(f"FAIL {kind} {name} {arg} c={c!r}: {out!r}",
                      file=sys.stderr)
            else:
                ratio = ops.error_ratio(
                    kind, out, ops.expected(kind, name, arg, c, refs), c)
                if not ratio <= 1.0:
                    print(f"FAIL {kind} {name} {arg} c={c!r}: error is "
                          f"{ratio:.3g} x tolerance", file=sys.stderr)
            print(f"op {kind} {name} {arg} c={c:.6f} {dt:.4f} s "
                  f"error/tol {ratio:.3g}", file=sys.stderr)
            failed += not ratio <= 1.0
            worst_ratio = max(worst_ratio, ratio)
            wall += dt
            by_kind[kind] += dt
        pass_walls.append(wall)
        for kind, dt in by_kind.items():
            kind_walls[kind].append(dt)
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(pass_walls)
    summary = [(KIND_METRIC[k], statistics.median(v), "s")
               for k, v in sorted(kind_walls.items())]
    summary += [("passes", n, "count"), ("attempted", attempted, "count"),
                ("failed", failed, "count"),
                ("failed_frac", failed / attempted, "ratio"),
                ("warnings", sum(caught.values()), "count")]
    print("# " + ", ".join(f"{k} {v:.6g} {u}" for k, v, u in summary))

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(pass_walls), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        tracer.uninstall()
        layer = tracer.layer_metrics(n)
        layer["trace.wall_s"] = statistics.median(pass_walls)
        layer["casimir.integration_warnings"] = sum(
            v for (kind, cat), v in caught.items()
            if kind in ("energy", "force") and cat == "IntegrationWarning") / n
        layer["ops.warnings"] = sum(caught.values()) / n
        layer["check.worst_err_ratio"] = worst_ratio
        tracer.write(ROOT / ".bench_out" / f"trace-{workload}-{seed}.json.gz")
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: (layer[k], units[k]) for k in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own interpreter."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", w["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w['name']} --trace {trace} failed")
            results[trace] = json.loads(lines[-1])
            print(f"{w['name']} trace={trace}: {lines[-2][2:]}")
        r0, r1 = results[0], results[1]
        ok &= r0["correct"] and r1["correct"]
        print(f"{w['name']}: attempted {r0['attempted']}, failed "
              f"{r0['failed']}, failed_frac "
              f"{r0['failed'] / r0['attempted']:.6g}")
        for res in (r0, r1):
            for name, m in res["metrics"].items():
                print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
        overhead = (r1["metrics"]["trace.wall_s"]["value"]
                    - r0["metrics"]["wall_s"]["value"])
        print(f"  {'trace.overhead_s':36s} {overhead:14.6g} s")
    return ok


def selftest():
    """At c = 1 every output must meet its reference, and the same output
    moved by twice its tolerance must be reported as a failure."""
    import graphzeta as gz
    refs = ops.load_refs()
    bad = 0
    for workload, op_list in WORKLOADS.items():
        graphs = {}
        for kind, name, arg in op_list:
            if name not in graphs:
                graphs[name] = gz.parse_graph(json.dumps(POOL[name]))
            out = ops.run(kind, *graphs[name], arg, 1.0)
            want = ops.expected(kind, name, arg, 1.0, refs)
            ratio = ops.error_ratio(kind, out, want, 1.0)
            moved = perturb(kind, out)
            moved_ratio = ops.error_ratio(kind, moved, want, 1.0)
            good = ratio <= 1.0 and moved_ratio > 1.0
            bad += not good
            print(f"{'ok ' if good else 'BAD'} {workload:13s} {kind:8s} "
                  f"{name:18s} {str(arg):22s} error/tol {ratio:.3g}, "
                  f"perturbed {moved_ratio:.3g}", flush=True)
    return bad == 0


def perturb(kind, out):
    if kind == "zeta":
        return out + 2.0 * ops.TOL["zeta"]
    if kind == "energy":
        return (out[0] + 2.0 * ops.TOL["fp_half"], out[1])
    if kind == "force":
        return out + 2.0 * ops.TOL["force"]
    return ((out[0][0] + 2.0 * ops.TOL["spectrum"], out[0][1]),) + out[1:]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        return 0 if selftest() else 1
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
    if args.workload == "all":
        return 0 if run_all(args.seed, seconds) else 1
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
