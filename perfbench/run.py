"""hermgabor benchmark: one closed-loop client driving the public library API.

    python3 perfbench/run.py --workload galerkin --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists): ``galerkin``, ``certify``,
``sqrt_law``. The run imports the library from ``src/`` of the checkout it
sits in, checks every answer against ``reference.json`` and invariants, and
prints one line per metric followed, as the last line, by a JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same lists untraced and traced
and reports the per-layer metrics. Details, the environment record and the
spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("galerkin", "certify", "sqrt_law")
# Nominal wall time of one request list on the reference machine (2-vCPU
# Xeon VM; measured 10.5-12.9 s, 3.1-3.7 s and 16.8-22.6 s as the host's
# load varied). A run measures floor(seconds / nominal) lists, so both sides
# of a comparison do the same work for the same --seconds.
LIST_SECONDS = {"galerkin": 11.5, "certify": 3.4, "sqrt_law": 18.0}
# One BLAS thread: on the 2-vCPU reference machine two OpenBLAS threads made
# repeated galerkin requests vary by up to 18% (coefficient of variation)
# against 2-12% with one, and were slower on most requests.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


SETUP_CHILD = """\
import sys
from time import perf_counter
t0 = perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import hermgabor
import workloads
workloads.warm_up(sys.argv[3])
print(repr(perf_counter() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hermgabor" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'hermgabor'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import hermgabor
    if not Path(hermgabor.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hermgabor from {hermgabor.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup_samples = [_setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]
    workloads.warm_up(args.workload)
    reference = workloads.load_reference()
    n_lists = max(1, int(args.seconds // LIST_SECONDS[args.workload]))
    if args.trace:
        n_lists = max(1, n_lists // 2)
    lists = workloads.request_lists(reference, args.workload, args.seed, n_lists)

    runs = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        for i, requests in enumerate(lists):
            # alternate which side goes first, so warm caches favour neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        runs.append(run_list(workloads, args.workload, requests,
                                             i, tracer))
                else:
                    runs.append(run_list(workloads, args.workload, requests, i))
    else:
        for i, requests in enumerate(lists):
            runs.append(run_list(workloads, args.workload, requests, i))

    attempted = sum(len(r["latencies"]) for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    failed = len({(p["list"], p["request"], p["traced"]) for p in problems})
    env = environment(nproc)

    print(f"hermgabor benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}; closed loop, one client; "
          f"{n_lists} list(s) of {len(lists[0])} requests")
    print("env: " + json.dumps(env, sort_keys=True))
    for p in problems[:20]:
        print(f"FAILED list {p['list']} request {p['request']}: {p['what']}")
    detail = {}
    if args.trace:
        metrics = tracer.layer_metrics()
        plain = statistics.median(r["seconds"] for r in runs if not r["traced"])
        traced = statistics.median(r["seconds"] for r in runs if r["traced"])
        metrics["trace.overhead_ratio"] = traced / plain
        detail["solve_s_untraced"] = plain
        detail["solve_s_traced"] = traced
        units = _units("per_layer")
        for name, value in metrics.items():
            label = " (computed)" if name in tracing.COMPUTED else ""
            print(f"{name} = {value!r} {units[name]}{label}")
    else:
        latencies = [x for r in runs for x in r["latencies"]]
        tail, pct, beyond = tail_latency(latencies)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(r["seconds"] for r in runs),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(setup_samples=setup_samples, tail_percentile=pct,
                      tail_beyond=beyond, latency_samples=len(latencies),
                      fail_ratio=failed / attempted)
        notes = {
            "setup_s": f"median of {SETUP_SAMPLES} fresh processes, import + "
                       "first-call warm-up",
            "solve_s": f"median over {len(runs)} list(s) of {len(lists[0])} "
                       "checked requests",
            "latency_p50_s": f"n={len(latencies)}",
            "latency_tail_s": f"p{pct}, n={len(latencies)}, {beyond} samples "
                              "beyond" + ("" if beyond >= TAIL_BEYOND else
                                          "; too few samples, maximum shown"),
            "peak_rss_mb": "ru_maxrss of the benchmark process",
        }
        units = _units("end_to_end")
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]} ({notes[name]})")
        print(f"fail_ratio = {failed / attempted!r} ratio ({failed} of {attempted})")

    write_results(args, env, metrics, detail, problems, runs, tracer)
    out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


def run_list(workloads, workload, requests, index, tracer=None):
    """Run one request list back to back; time each request and the list."""
    call = tracer.call if tracer is not None else workloads.direct
    latencies = []
    problems = []
    start = perf_counter()
    for j, (params, ref) in enumerate(requests):
        if tracer is not None:
            tracer.request = f"{index}:{j}"
        t0 = perf_counter()
        try:
            answer = workloads.execute(workload, params, call)
        except Exception:  # a request that raises is a failure, not an abort
            latencies.append(perf_counter() - t0)
            problems.append({"list": index, "request": j, "traced": bool(tracer),
                             "params": params,
                             "what": traceback.format_exc(limit=3)})
            continue
        latencies.append(perf_counter() - t0)
        for what in workloads.check(workload, answer, ref):
            problems.append({"list": index, "request": j, "traced": bool(tracer),
                             "params": params, "what": what})
    return {"seconds": perf_counter() - start, "latencies": latencies,
            "problems": problems, "traced": tracer is not None}


def tail_latency(samples):
    """(value, percentile, samples beyond) at the highest whole percentile
    that leaves at least TAIL_BEYOND samples above it (nearest rank); the
    maximum when that percentile would not lie above the median."""
    s = sorted(samples)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return s[-1], 100, 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return s[rank - 1], pct, n - rank


def _setup_sample(workload) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _units(kind):
    """Metric units of one kind ("end_to_end" or "per_layer") as declared."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# environment record


def environment(nproc) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {pkg.__name__: _blas(pkg) for pkg in (numpy, scipy)},
        "caches_bytes": _cache_sizes(),
    }


def _blas(pkg) -> dict:
    try:
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    threads = None
    libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "thread_cap": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _cache_sizes() -> dict:
    getconf = shutil.which("getconf")
    sizes = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        value = None
        if getconf:
            out = subprocess.run([getconf, key], capture_output=True, text=True)
            value = int(out.stdout) if out.stdout.strip().isdigit() else None
        sizes[key] = value
    return sizes


def write_results(args, env, metrics, detail, problems, runs, tracer):
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "detail": detail, "problems": problems,
              "lists": [{"seconds": r["seconds"], "traced": r["traced"],
                         "latencies": r["latencies"]} for r in runs]}
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
