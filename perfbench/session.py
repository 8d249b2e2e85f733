"""One pass of a workload in a fresh interpreter.

Usage (run.py starts it): python3 session.py SRC WORKLOAD SEED MODE CACHE_DIR TRACE_FILE

MODE is "probe" (import and exit), "pass", "check" (a pass followed by the
correctness checks) or "trace" (a pass with every layer wrapped).  The last
line of standard output is one JSON object with the pass's figures.
"""

import os
import sys
import time

SRC = os.path.abspath(sys.argv[1])
sys.path.insert(0, SRC)

import magforms  # noqa: E402
import magforms.cli  # noqa: E402,F401

READY = time.monotonic()


def _backend() -> str:
    mpz = getattr(magforms.series, "_mpz", int)
    return "int-fallback" if mpz is int else getattr(mpz, "__module__", "gmpy2")


def main() -> int:
    # imported after READY, so that set-up time covers magforms alone
    import hashlib
    import json
    import platform
    import resource
    import statistics

    workload, seed, mode, cache_dir, trace_file = sys.argv[2:7]
    if not os.path.abspath(magforms.__file__).startswith(SRC + os.sep):
        print(f"magforms imported from {magforms.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {
        "ready": READY,
        "backend": _backend(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
    }
    if mode == "probe":
        print(json.dumps(result))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    requests = workloads.build(workload, int(seed))
    tracer = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    outputs, latencies, errors = [], [], []
    t_pass = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = workloads.execute(req, cache_dir)
        except Exception as exc:  # a failed request is counted, not fatal
            out = None
            errors.append(f"request {i} {req}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    run_s = time.perf_counter() - t_pass
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(requests), fh)

    import checks

    result.update(
        run_s=run_s,
        req_p50_s=statistics.median(latencies),
        peak_rss_mib=peak_rss_mib,
        attempted=len(requests),
        failed=len(errors),
        errors=errors,
        digest=hashlib.sha256(checks.canonical(outputs).encode()).hexdigest(),
    )
    if mode == "check":
        result["check_failures"] = checks.check_all(requests, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
