"""Self-test of the correctness checks.

    python3 perfbench/selftest.py      (from the repository root)

Runs one request of every kind (seed 0), asserts that its check passes on the
program's real output, then feeds the check deliberately corrupted copies of
that output (a coefficient off by one, a flipped row sign, a missing witness,
a flipped verdict, a cache hit that differs by one byte) and asserts that each
one is caught.  Exits 1 if a clean output fails or a corruption slips through.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from magforms.series import QSeries  # noqa: E402


def bump(s: QSeries, n: int) -> QSeries:
    """s with the coefficient of q^n increased by one."""
    coeffs = list(s.coeffs)
    coeffs[n - s.lead] += 1
    return QSeries(s.lead, coeffs, s.prec)


def negate(s: QSeries) -> QSeries:
    return QSeries(s.lead, [-c for c in s.coeffs], s.prec)


def flip_check(report, i: int = 0):
    """A VerificationReport copy whose i-th check has the opposite verdict."""
    out = dataclasses.replace(report, checks=list(report.checks))
    out.checks[i] = dataclasses.replace(out.checks[i], ok=not out.checks[i].ok)
    return out


def flip_magnetic(rep):
    """A MagneticReport that reports the opposite verdict; a failing report
    loses its witness, a passing one gains the witness q^1, denominator 2."""
    if rep.ok:
        return dataclasses.replace(rep, ok=False, exponent=1, denominator=2)
    return dataclasses.replace(rep, ok=True, exponent=None, denominator=None)


def bump_stdout(text: str, i: int) -> str:
    d = json.loads(text)
    d["coeffs"][i] = str(Fraction(d["coeffs"][i]) + 1)
    return json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"


def with_(out: dict, **changes) -> dict:
    return {**out, **changes}


def corruptions(req, out):
    """(description, corrupted output) pairs for one request."""
    kind = req["kind"]
    if kind == "theorem":
        yield "integrality verdict flipped", with_(out, report=flip_check(out["report"]))
    elif kind == "named_integrality":
        s = out["series"]
        yield "coefficient off by one in the prefix", with_(out, series=bump(s, 5))
        yield "coefficient off by one at the window's end", with_(out, series=bump(s, s.prec))
        yield "integrality verdict flipped", with_(out, report=flip_magnetic(out["report"]))
    elif kind in ("e2_family", "sweep_magnetic"):
        label = "missing witness" if not out["report"].ok else "invented witness"
        yield label, with_(out, report=flip_magnetic(out["report"]))
    elif kind == "certificate":
        cert = out["cert"]
        yield "certificate mu off by one", with_(out, cert=dataclasses.replace(cert, mu=cert.mu + 1))
        yield "certificate reported unverified", with_(out, verified=not out["verified"])
    elif kind == "cli_magnetic":
        report = json.loads(out["stdout"])
        report["checks"][0] = {**report["checks"][0], "ok": not report["checks"][0]["ok"], "detail": ""}
        yield "CLI verdict flipped, witness dropped", with_(out, stdout=json.dumps(report))
        yield "CLI exit code flipped", with_(out, exit=1 - out["exit"])
    elif kind == "expand":
        yield "expand coefficient off by one", with_(out, stdout=bump_stdout(out["stdout"], 3))
        yield "expand exit code 1", with_(out, exit=1)
    elif kind == "table_lift":
        yield f"row {req['row']} sign flipped", with_(out, lift=negate(out["lift"]))
        yield f"row {req['row']} last lifted coefficient off by one", with_(out, lift=bump(out["lift"], out["lift"].prec))
    elif kind == "table_rhs":
        s = out["series"]
        yield "right-hand side off by one past the exact prefix", with_(out, series=bump(s, s.prec - 1))
    elif kind == "t4_family":
        m = req["ms"][0]
        g = out["basis"][m]
        basis = dict(out["basis"])
        basis[m] = bump(g, 4)
        yield "basis element off by one", with_(out, basis=basis)
        basis = dict(out["basis"])
        basis[m] = bump(g, 2)  # q^2 is outside the weight 5/2 plus space
        yield "basis element leaves the plus space", with_(out, basis=basis)
        images = dict(out["images"])
        images[m] = bump(images[m], 1)
        yield "T4' image off by one", with_(out, images=images)
    elif kind == "raising":
        yield "raised series off by one", with_(out, raised=bump(out["raised"], 4))
    elif kind == "lift":
        yield "phi(psi(f)) off by one at q^4", with_(out, back=bump(out["back"], 4))
        yield "psi(f) off by one", with_(out, lift=bump(out["lift"], 2))
    elif kind == "unlift":
        yield "phi(Delta) off by one at q^9", with_(out, back=bump(out["back"], 9))
    elif kind in ("hecke_congruence", "strong_congruence"):
        yield "divisibility verdict flipped", with_(out, report=flip_check(out["report"]))


def main() -> int:
    run_dir = os.path.join(os.getcwd(), ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="selftest-", dir=run_dir)
    problems = 0
    # the first request of each kind, and the lift table rows 1 and 4 (sign -1)
    seen = set()
    samples = []
    for name in workloads.NAMES:
        for req in workloads.build(name, 0):
            key = (req["kind"], req.get("row") if req["kind"] == "table_lift" else None)
            if key in seen or key[1] not in (None, 1, 4):
                continue
            seen.add(key)
            samples.append(req)
    try:
        for req in samples:
            out = workloads.execute(req, cache_dir)
            clean = checks.CHECKS[req["kind"]](req, out)
            status = "ok" if not clean else "FAILED on the real output: " + "; ".join(clean)
            problems += bool(clean)
            print(f"{req['kind']:18s} clean output: {status}")
            for what, bad in corruptions(req, out):
                caught = checks.CHECKS[req["kind"]](req, bad)
                problems += not caught
                print(f"{'':18s} {what}: {'caught' if caught else 'NOT CAUGHT'}")
            if req["kind"] == "expand":
                repeat = [req, req]
                caught = checks.check_cache_repeats(repeat, [out, with_(out, stdout=out["stdout"] + " ")])
                problems += not caught
                print(f"{'':18s} cache hit differs by one byte: {'caught' if caught else 'NOT CAUGHT'}")
                problems += bool(checks.check_cache_repeats(repeat, [out, dict(out)]))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print("selftest:", "PASS" if not problems else f"FAIL ({problems} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
