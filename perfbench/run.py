"""Benchmark entry point for magforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (perfbench/session.py) as one closed-loop client: one process, no
threads, each request sent after the previous one returned.  Passes repeat
until S seconds have gone by; the first pass is followed by the correctness
checks, and every later pass must produce byte-identical outputs.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over passes); with ``--trace 1``
traced and untraced passes alternate, and the metrics are the per-layer ones
(medians over traced passes) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
WORKLOADS = ("integrality_deep", "plus_space", "quasi_session")
SETUP_PROBES = 6  # setup samples besides the one each pass gives
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "req_p50_s": "s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bit"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def spawn(workload: str, seed: int, mode: str, tag: str) -> dict:
    """Run one session child and return its JSON result with setup_s added."""
    cache_dir = os.path.join(RUN_DIR, str(os.getpid()), tag, "cache")
    trace_file = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    env = dict(os.environ, MAGFORMS_CACHE_DIR=cache_dir, PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "session.py"), SRC, workload, str(seed), mode, cache_dir, trace_file]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} session for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "magforms", "__init__.py")):
        print(f"no magforms sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        return run(args)
    finally:
        shutil.rmtree(os.path.join(RUN_DIR, str(os.getpid())), ignore_errors=True)


def run(args) -> int:
    spawn(args.workload, args.seed, "probe", "warmup")  # writes bytecode caches
    setup = [spawn(args.workload, args.seed, "probe", f"probe{i}")["setup_s"] for i in range(SETUP_PROBES)]

    passes, traced = [], []
    t_start = time.monotonic()
    while True:
        i = len(passes) + len(traced)
        if args.trace and i % 2 == 1:
            mode = "trace"
        else:
            mode = "check" if i == 0 else "pass"
        res = spawn(args.workload, args.seed, mode, f"pass{i}")
        (traced if mode == "trace" else passes).append(res)
        setup.append(res["setup_s"])
        print(
            f"pass {i} [{mode}] {args.workload} seed={args.seed}: run_s={res['run_s']:.4f} "
            f"req_p50_s={res['req_p50_s']:.5f} peak_rss_mib={res['peak_rss_mib']:.1f} "
            f"setup_s={res['setup_s']:.4f} attempted={res['attempted']} failed={res['failed']} "
            f"backend={res['backend']} python={res['python']} cores={res['cores']}",
            flush=True,
        )
        for err in res["errors"]:
            print(f"  failed: {err}", flush=True)
        if time.monotonic() - t_start >= args.seconds and (not args.trace or traced):
            break

    failures = passes[0]["check_failures"]
    digests = {r["digest"] for r in passes + traced}
    if len(digests) != 1:
        failures.append(f"passes disagree: {len(digests)} distinct output digests")
    for msg in failures:
        print(f"check failed: {msg}", flush=True)
    all_runs = passes + traced
    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in all_runs),
        "failed": sum(r["failed"] for r in all_runs),
    }
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = {
                "value": statistics.median(r["layers"][name] for r in traced),
                "unit": layer_unit(name),
            }
        traced_s = statistics.median(r["run_s"] for r in traced)
        untraced_s = statistics.median(r["run_s"] for r in passes)
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s - 1, "unit": "ratio"}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(r["run_s"] for r in passes),
            "req_p50_s": statistics.median(r["req_p50_s"] for r in passes),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary["metrics"] = metrics
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
