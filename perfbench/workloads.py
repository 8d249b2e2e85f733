"""The three workloads: seeded request streams and the calls each request makes.

A request is a plain dict built from the seed alone.  :func:`execute` turns it
into calls on magforms' public API or its CLI entry point.  Every call goes
through a module attribute (``forms.named_form``, not an imported name), so
the tracer's wrappers see it.

The seed fixes the order of the requests and a small jitter of each window
(a few exponents), which moves which memo entries are shared but keeps the
work of a pass within a few per cent from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import magforms.cli as cli
from magforms import forms, halfint, lifts, quasi, series, tables, verify

NAMES = ("integrality_deep", "plus_space", "quasi_session")

# integrality_deep: request i gets the window DEEP_PREC + DEEP_STEP * i plus
# one seeded jitter shared by all.  Named forms build at window + 8 (F4a, F4b,
# F6) or + 16 and + 18 (the j quotients) and quasi-monomials at the window
# itself; no multiple of 7 is a difference of those offsets, so two requests
# never share a memo entry by accident, and every seed does the same work.
# Each LS8/Triple8 order gets its own window, so the median request builds
# its form rather than hitting the memo.
DEEP_PREC = 300
DEEP_STEP = 7
HK_PRIMES = (5, 7)

# plus_space: lift tables at LIFT_COEFFS coefficients need basis windows of
# LIFT_COEFFS^2 * 4^t for rows using T4'^t, i.e. 900 and 3600.
LIFT_COEFFS = 30
RHS_PREC = 160
T4_FAMILIES = ((3, 12, 48), (4, 16, 64), (7, 28))
T4_COEFFS = 60
RAISING_PREC = 100
LIFT_PREC = 900
UNLIFT_PREC = 40
HECKE_PREC = 60
STRONG_PREC = 250

# quasi_session
CERT_PREC = 150
SESSION_PREC = 200
EXPAND_EXPRESSIONS = (
    "F4a",
    "F6",
    "E6^2/E4^2 - E4",
    "E2*E4^2/E6 - E4",
    "delta(F4b)",
    "antiderivative(F4a, 1)",
    "(E4^3 - E6^2)/1728",
    "f(2,-1,1) - f(0,1,0)",
)
EXPAND_REPEATS = 4  # a third of the expand requests repeat an earlier one


def sweep(weight: int):
    """Monomial exponents of the reduction sweeps: weight 4 with E2 exponent
    at most 2, weight 6 with E2 exponent at most 4 and E6 exponent >= 0."""
    if weight == 4:
        grid = ((a, b, c) for a in range(3) for b in range(-4, 5) for c in range(-4, 5))
        anchor = (0, 1, 0)
    else:
        grid = ((a, b, c) for a in range(5) for b in range(-4, 5) for c in range(5))
        anchor = (0, 0, 1)
    return [e for e in grid if 2 * e[0] + 4 * e[1] + 6 * e[2] == weight and e != anchor]


def build(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integrality_deep":
        return _integrality_deep(rng)
    if workload == "plus_space":
        return _plus_space(rng)
    if workload == "quasi_session":
        return _quasi_session(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


def _jitter(rng, base: int) -> int:
    # a wider jitter moves the cost of a pass by several per cent on
    # windows of a few hundred, which would show as seed-to-seed spread
    return base + rng.randrange(3)


def _integrality_deep(rng) -> list[dict]:
    slots = [{"kind": "theorem", "which": "th1"}, {"kind": "theorem", "which": "th2"}]
    for name in ("LS8", "Triple8"):
        for order in (1, 2, 3):
            slots.append([{"kind": "named_integrality", "name": name, "order": order, "prime": None}])
    for name in ("HK_num1", "HK_num2"):
        slots.append([{"kind": "named_integrality", "name": name, "order": 1, "prime": p} for p in HK_PRIMES])
    slots += [{"kind": "e2_family", "m": 5, "j": j} for j in (4, 6)]
    jitter = rng.randrange(4)
    reqs = []
    for i, slot in enumerate(slots):
        for req in slot if isinstance(slot, list) else [slot]:
            reqs.append({**req, "prec": DEEP_PREC + DEEP_STEP * i + jitter})
    rng.shuffle(reqs)
    return reqs


def _plus_space(rng) -> list[dict]:
    # Each right-hand side gets its own window (3 apart: j builds at window
    # + 16 and + 18), so every row builds j itself and a row's latency does
    # not depend on whether an earlier row filled the memo.
    rhs_prec = _jitter(rng, RHS_PREC)
    reqs = []
    for i, row in enumerate(tables.DEFAULT_ROWS):
        reqs.append({"kind": "table_lift", "row": row, "coeffs": LIFT_COEFFS})
        reqs.append({"kind": "table_rhs", "row": row, "prec": rhs_prec + 3 * i})
    for family in T4_FAMILIES:
        reqs.append({"kind": "t4_family", "ms": list(family), "coeffs": _jitter(rng, T4_COEFFS)})
    raising_prec = _jitter(rng, RAISING_PREC)
    for which in ("theta", "h0", "f4b"):
        reqs.append({"kind": "raising", "which": which, "prec": raising_prec})
    reqs.append({"kind": "lift", "name": "f4a", "prec": _jitter(rng, LIFT_PREC)})
    reqs.append({"kind": "unlift", "prec": _jitter(rng, UNLIFT_PREC)})
    reqs.append(
        {"kind": "hecke_congruence", "form": "f4a", "prime": 3, "n": 2, "prec": _jitter(rng, HECKE_PREC)}
    )
    reqs.append(
        {"kind": "strong_congruence", "form": "F4a", "prime": 5, "n": 2, "prec": _jitter(rng, STRONG_PREC)}
    )
    rng.shuffle(reqs)
    return reqs


def _quasi_session(rng) -> list[dict]:
    reqs = []
    for weight in (4, 6):
        for exps in sweep(weight):
            reqs.append(
                {"kind": "certificate", "weight": weight, "exps": list(exps), "prec": _jitter(rng, CERT_PREC)}
            )
            reqs.append(
                {"kind": "sweep_magnetic", "weight": weight, "exps": list(exps), "prec": _jitter(rng, SESSION_PREC)}
            )
    for m in (1, 2, 3, 4, 5, 6):
        for j in (4, 6):
            reqs.append({"kind": "cli_magnetic", "m": m, "j": j, "prec": _jitter(rng, SESSION_PREC)})
    for expr in EXPAND_EXPRESSIONS:
        reqs.append({"kind": "expand", "expr": expr, "prec": _jitter(rng, SESSION_PREC)})
    rng.shuffle(reqs)
    cold = [i for i, r in enumerate(reqs) if r["kind"] == "expand"]
    for original in sorted(rng.sample(cold, EXPAND_REPEATS), reverse=True):
        at = rng.randrange(original + 1, len(reqs) + 1)
        reqs.insert(at, dict(reqs[original]))
    return reqs


# ----------------------------------------------------------------------
# executing a request
# ----------------------------------------------------------------------


def quasi_element(weight: int, exps) -> quasi.QuasiElement:
    """The sweep difference f(a,b,c) - anchor."""
    anchor = (0, 1, 0) if weight == 4 else (0, 0, 1)
    return quasi.QuasiElement.single(*exps) - quasi.QuasiElement.single(*anchor)


def family_element(m: int, j: int) -> quasi.QuasiElement:
    """E2^m (delta E_j)/E_j, via delta E4 = (E2 E4 - E6)/3 and
    delta E6 = (E2 E6 - E4^2)/2."""
    E = quasi.QuasiElement.single
    if j == 4:
        return (E(m + 1, 0, 0) - E(m, -1, 1)) * Fraction(1, 3)
    return (E(m + 1, 0, 0) - E(m, 2, -1)) * Fraction(1, 2)


def table_group(row_id: int):
    """(pole orders, basis window) shared by the table rows of one T4' depth,
    so rows of a group reuse one basis computation as verify_table1 does."""
    depth = max(p for _, p in tables.get_row(row_id).hecke_poly)
    ms = sorted(
        r.basis_m
        for r in tables.LIFT_TABLE
        if r.row_id in tables.DEFAULT_ROWS and max(p for _, p in r.hecke_poly) == depth
    )
    return ms, LIFT_COEFFS * LIFT_COEFFS * 4**depth


def raising_inputs(which: str, prec: int):
    """The weight k+1/2 input of a raising relation and its target name."""
    work = prec + 30
    if which == "theta":
        return halfint.PlusForm(0, forms.theta(work)), "g0"
    h0 = halfint.named_plus_form("h0", work)
    if which == "h0":
        return h0, "f4a"
    e6_4 = forms.eisenstein(6, work // 4 + 2).substitute_power(4)
    d4 = forms.discriminant(work // 4 + 2).substitute_power(4)
    extra = 2 * forms.theta(work) * e6_4**2 * d4.inverse()
    combo = series.linear_combine([(-4, h0.series), (2012, forms.theta(work)), (1, extra)])
    return halfint.PlusForm(0, combo), "f4b"


def family_expression(m: int, j: int) -> str:
    return f"E2^{m}*delta(E{j})/E{j}"


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"stdout": out.getvalue(), "exit": code}


def execute(req: dict, cache_dir: str) -> dict:
    """Run one request; returns its outputs by name."""
    kind = req["kind"]
    if kind == "theorem":
        return {"report": verify.verify_theorem(req["which"], req["prec"])}
    if kind == "named_integrality":
        s = forms.named_form(req["name"], req["prec"])
        rep = quasi.magnetic_check(s, req["prec"], order=req["order"], p=req["prime"])
        return {"series": s, "report": rep}
    if kind == "e2_family":
        return {"report": quasi.magnetic_check(family_element(req["m"], req["j"]), req["prec"])}
    if kind == "sweep_magnetic":
        return {"report": quasi.magnetic_check(quasi_element(req["weight"], req["exps"]), req["prec"])}
    if kind == "certificate":
        elem = quasi_element(req["weight"], req["exps"])
        reduce = quasi.reduce_weight4 if req["weight"] == 4 else quasi.reduce_weight6
        cert = reduce(elem)
        return {"cert": cert, "verified": quasi.verify_certificate(cert, req["prec"])}
    if kind == "expand":
        return _cli(["expand", req["expr"], "--prec", str(req["prec"]), "--cache-dir", cache_dir])
    if kind == "cli_magnetic":
        expr = family_expression(req["m"], req["j"])
        return _cli(["congruence", expr, "--order", "1", "--prec", str(req["prec"]), "--json"])
    if kind == "table_lift":
        row = tables.get_row(req["row"])
        ms, need = table_group(req["row"])
        f = halfint.plus_basis(2, ms, need)[row.basis_m]
        parts = []
        for coeff, power in row.hecke_poly:
            g = f
            for _ in range(power):
                g = halfint.t4_prime(g)
            parts.append((coeff, g.series))
        combo = series.linear_combine(parts)
        return {"lift": lifts.psi(halfint.PlusForm(2, combo * row.scalar))}
    if kind == "table_rhs":
        row = tables.get_row(req["row"])
        prec = req["prec"]
        j = forms.j_invariant(prec + 16)
        e4 = forms.eisenstein(4, prec + 16)
        num = forms.poly_in_j(row.numerator, j)
        den = forms.poly_in_j(row.denominator, j) ** row.denominator_power
        rhs = (e4**row.e4_power * num * den.inverse()).truncate(prec)
        return {"series": rhs, "report": quasi.magnetic_check(rhs, prec)}
    if kind == "t4_family":
        ms = req["ms"]
        basis = halfint.plus_basis(2, ms, 4 * req["coeffs"] + 20)
        images = {m: halfint.t4_prime(basis[m]).series for m in ms[:-1]}
        return {"basis": {m: basis[m].series for m in ms}, "images": images}
    if kind == "raising":
        source, target = raising_inputs(req["which"], req["prec"])
        return {
            "source": source.series,
            "raised": halfint.raising(source).series,
            "target": halfint.named_plus_form(target, req["prec"]).series,
        }
    if kind == "lift":
        f = halfint.named_plus_form(req["name"], req["prec"])
        F = lifts.psi(f)
        return {"f": f.series, "lift": F, "back": lifts.phi(F, f.k)}
    if kind == "unlift":
        return {"back": lifts.phi(forms.discriminant(req["prec"]), 2)}
    if kind in ("hecke_congruence", "strong_congruence"):
        return {
            "report": verify.verify_congruence(req["form"], req["prime"], req["n"], 1, req["prec"])
        }
    raise ValueError(f"unknown request kind {kind!r}")
