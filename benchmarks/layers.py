"""Layer benchmark for magforms: the series kernel, combination, inversion,
named forms, plus-space bases and quasi-modular sweeps.

    python3 benchmarks/layers.py --before OLD/src --after src --out BENCH.json

Times each case below against the ``magforms`` package under each of the two
source trees (for example ``src`` of an older commit unpacked elsewhere, and
``src`` of this checkout) and writes the results under ``"before"`` and
``"after"`` in the JSON file OUT.  Each run also records the peak resident
memory of its interpreter (``peak_rss_mib``, stored as
``median_peak_rss_mib`` next to ``median_s``), and each case gets
``"after_over_before"``, the ratio of the medians.  Every side records the
big-integer backend (gmpy2 or the pure-``int`` fallback), the Python version
and the core count.

Each case runs in REPEATS fresh interpreters per side, so the memo caches of
``magforms.forms`` start empty.  The two sides alternate, before, after,
after, before, ..., so a drift in the machine's speed falls on both.  Inputs
are built before the clock starts; the kernel cases time the best of
KERNEL_CALLS calls inside one interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REPEATS = 3
KERNEL_CALLS = 5


def flat(rng: random.Random, n: int, bits: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n)]


def geometric(rng: random.Random, n: int, step: int) -> list[int]:
    """a_i of about step*(i+1) bits, as in 1/E4 (step 8) or 1/E4^2 (16)."""
    return [rng.choice((-1, 1)) * (rng.getrandbits(step) << (step * i) | rng.getrandbits(step * i)) for i in range(n)]


# name -> (kind, parameters).
# Kernel cases are named a_b_n: "flat195" is 195-bit coefficients,
# "geometric8" a_i of about 8(i+1) bits.  The two flat pairs pack about 10^5
# and 10^6 bits per operand; flat70_geometric16 is lopsided; the square case
# passes one list twice, at an odd length, as pow_int and Newton's steps do.
CASES = {
    "conv_int.flat195_flat195_n250": ("kernel", {"n": 250, "a": ("flat", 195), "b": ("flat", 195)}),
    "conv_int.flat495_flat495_n1000": ("kernel", {"n": 1000, "a": ("flat", 495), "b": ("flat", 495)}),
    "conv_int.geometric8_geometric8_n400": ("kernel", {"n": 400, "a": ("geometric", 8), "b": ("geometric", 8)}),
    "conv_int.flat70_geometric16_n400": ("kernel", {"n": 400, "a": ("flat", 70), "b": ("geometric", 16)}),
    "conv_int.geometric16_square_n401": ("kernel", {"n": 401, "a": ("geometric", 16), "b": "a"}),
    # shaped like one step of the former j(4tau) ladder at q^3600: a product
    # and 40 elements q^-m + O(q), coefficient i of about 16 sqrt(i) bits,
    # combined with rational scalars
    "linear_combine.ladder41_3600": ("linear_combine", {"terms": 41, "prec": 3600, "bits": 16}),
    "inv_E4.500": ("inv_e4", {"N": 500}),
    "inv_E4.1000": ("inv_e4", {"N": 1000}),
    "inv_E4.2000": ("inv_e4", {"N": 2000}),
    # a constant term of 3: the coefficient at q^n has denominator 3^(n+1)
    "inv_E4plus2.1000": ("inv_e4", {"N": 1000, "plus": 2}),
    "named_form.F4a.1000": ("named_form", {"names": ["F4a"], "N": 1000}),
    "named_form.F6.1000": ("named_form", {"names": ["F6"], "N": 1000}),
    "named_form.Triple8.500": ("named_form", {"names": ["Triple8"], "N": 500}),
    "named_form.LS8.350": ("named_form", {"names": ["LS8"], "N": 350}),
    # two j-quotients over the same denominator (j - 54000)^2, in one interpreter
    "named_form.HK_num1_HK_num2.360": ("named_form", {"names": ["HK_num1", "HK_num2"], "N": 360}),
    # the basis behind perfbench plus_space's slowest request, lift-table
    # row 4 (T4' of the element q^-3 + O(q), with q^-4 beside it, at q^3600)
    "plus_basis.k2_m3_m4_3600": ("plus_basis", {"k": 2, "m_list": [3, 4], "prec": 3600}),
    # the bases of `magforms table1 --extended --rows 6,8,9,10`, which asks
    # for orders 43, 67, 163 at q^3600 (the same elements as 163 alone) and 7
    # at q^14400
    "plus_basis.m163_3600": ("plus_basis", {"k": 2, "m_list": [163], "prec": 3600}),
    "plus_basis.m7_14400": ("plus_basis", {"k": 2, "m_list": [7], "prec": 14400}),
    # weight 1/2: the two seeds theta and h0 (m = 0 comes with every basis) and a
    # j(4tau)-polynomial of degree 5, then h0 alone, at q^3600
    "plus_basis.k0_m3_m4_m23_3600": ("plus_basis", {"k": 0, "m_list": [3, 4, 23], "prec": 3600}),
    "named_plus_form.h0_3600": ("named_plus_form", {"name": "h0", "N": 3600}),
    # the shape of perfbench quasi_session's certificate and sweep requests:
    # every w4/w6 sweep element f(a, b, c) - anchor expanded at q^150, then q^200
    "quasi.sweep_expand_150_200": ("sweep_expand", {"precs": [150, 200]}),
}


def run_case(kind: str, params: dict) -> dict:
    """One repeat of a case in this interpreter; returns its timings in s."""
    from magforms import forms, halfint, series

    if kind == "kernel":
        rng = random.Random(f"{params['a']}{params['b']}{params['n']}")
        make = {"flat": flat, "geometric": geometric}
        a = make[params["a"][0]](rng, params["n"], params["a"][1])
        b = a if params["b"] == "a" else make[params["b"][0]](rng, params["n"], params["b"][1])
        best = float("inf")
        for _ in range(KERNEL_CALLS):
            t0 = time.perf_counter()
            series._conv_int(a, b, params["n"])
            best = min(best, time.perf_counter() - t0)
        return {"s": best}
    if kind == "linear_combine":
        rng = random.Random("ladder")
        prec, bits = params["prec"], params["bits"]
        terms = []
        for t in range(params["terms"]):
            m = 4 * t + 3
            body = [rng.getrandbits(1 + int(bits * (i + 1) ** 0.5)) - rng.getrandbits(8) for i in range(prec)]
            scalar = Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 12, 768)))
            terms.append((scalar, series.QSeries(-m, [1] + [0] * m + body)))
        t0 = time.perf_counter()
        series.linear_combine(terms)
        return {"s": time.perf_counter() - t0}
    if kind == "inv_e4":
        e4 = forms.eisenstein(4, params["N"]) + params.get("plus", 0)
        t0 = time.perf_counter()
        series.inv(e4)
        return {"s": time.perf_counter() - t0}
    if kind == "named_form":
        t0 = time.perf_counter()
        for name in params["names"]:
            forms.named_form(name, params["N"])
        return {"s": time.perf_counter() - t0}
    if kind == "named_plus_form":
        t0 = time.perf_counter()
        halfint.named_plus_form(params["name"], params["N"])
        return {"s": time.perf_counter() - t0}
    if kind == "sweep_expand":
        from magforms import quasi, verify

        elements = [elem for weight in (4, 6) for _, elem in verify._sweep(weight)]
        t0 = time.perf_counter()
        for prec in params["precs"]:
            for elem in elements:
                quasi.expand(elem, prec)
        return {"s": time.perf_counter() - t0}
    if kind == "plus_basis":
        kernel = series._conv_int
        spent = [0.0, 0]  # seconds in outermost kernel calls, nesting depth

        def timed_kernel(*args):
            spent[1] += 1
            t0 = time.perf_counter()
            try:
                return kernel(*args)
            finally:
                spent[1] -= 1
                if not spent[1]:
                    spent[0] += time.perf_counter() - t0

        series._conv_int = timed_kernel
        t0 = time.perf_counter()
        halfint.plus_basis(params["k"], params["m_list"], params["prec"])
        return {"s": time.perf_counter() - t0, "conv_int_s": spent[0]}
    raise ValueError(f"unknown case kind {kind!r}")


def environment() -> dict:
    from magforms import series

    return {
        "backend": "int-fallback" if series._mpz is int else "gmpy2",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }


def child(name: str, src: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    kind, params = CASES[name]
    result = run_case(kind, params)
    # the whole interpreter's peak, inputs included (ru_maxrss is in KiB on Linux)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"environment": environment(), "result": result}))
    return 0


def measure(srcs: dict, name: str) -> tuple[dict, dict]:
    """Summaries and environments of case *name* by side, its fresh
    interpreters run in the order before, after, after, before, ..."""
    runs = {side: [] for side in srcs}
    envs = {}
    for i in range(2 * REPEATS):
        side = ("before", "after")[(i + 1) // 2 % 2]
        argv = [sys.executable, os.path.abspath(__file__), "--child", name, srcs[side]]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        envs[side] = out["environment"]
        runs[side].append(out["result"])
    summaries = {}
    for side, side_runs in runs.items():
        summary = {"params": CASES[name][1], "runs": side_runs}
        for key in side_runs[0]:
            summary[f"median_{key}"] = statistics.median(r[key] for r in side_runs)
        summaries[side] = summary
    return summaries, envs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="directory holding the baseline magforms package")
    parser.add_argument("--after", help="directory holding the magforms package to compare")
    parser.add_argument("--out")
    parser.add_argument("--child", nargs=2, metavar=("CASE", "SRC"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(*args.child)
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")

    srcs = {"before": args.before, "after": args.after}
    bench = {"harness": "benchmarks/layers.py", "cases": {}}
    for name in CASES:
        case, envs = measure(srcs, name)
        before, after = case["before"]["median_s"], case["after"]["median_s"]
        case["after_over_before"] = after / before
        bench["cases"][name] = case
        bench.update((side, {"environment": env}) for side, env in envs.items())
        print(f"{name}: before {before:.4f} s, after {after:.4f} s", flush=True)
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
