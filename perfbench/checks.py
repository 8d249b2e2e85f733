"""Correctness checks on a pass's outputs, run outside the timed region.

Every series a request produced is compared with :mod:`reference`: exactly
on its first PREFIX coefficients, and modulo each prime of
``reference.PRIMES`` on its whole window.  The verdicts the program reports
(integrality, witnesses, divisibility, certificates) are then derived again
from those validated coefficients and must agree.  Plus-space outputs are
checked through the identities they must satisfy: basis shape, integrality
and support, the T4' relation, the raising relations, phi(psi(f)) = square
part of f, and the lift table up to the sign derived for rows 4 and 13.

No check reads a report's verdict or an exit code as the answer: ``table1``
and ``misc`` report the known refutations as FAIL on correct code.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np

import reference as ref
import workloads
from magforms import exprs, forms, halfint, quasi, series

PREFIX = 24
EXACT = ref.EXACT
MODULAR = list(ref.MODULAR)

# The lift table's printed scalars of rows 4 and 13 carry the wrong sign;
# the lifts equal the negated right-hand sides (README, "Verified discrepancies").
ROW_SIGNS = {4: -1, 13: -1}

# Witnesses of the non-magnetic control E2^5 (delta E_j)/E_j: (exponent, denominator).
CONTROL_WITNESSES = {4: (11, 11), 6: (5, 5)}

# Generators of the reduction certificates, by the names certificates use.
GENERATORS = {
    "Ga": ((1, (0, -2, 2)), (-1, (0, 1, 0))),
    "Gb": ((1, (1, 2, -1)), (-1, (0, 1, 0))),
    "F6": ((Fraction(1, 1728), (0, 0, 1)), (Fraction(-1, 1728), (0, -3, 3))),
}


def _qm_sum(R, terms, n):
    return ref.linear(R, [(c, ref.quasi_monomial(R, *mono, n)) for c, mono in terms], n)


EXPAND_REFERENCE = {
    "F4a": lambda R, n: ref.named_form(R, "F4a", n),
    "F6": lambda R, n: ref.named_form(R, "F6", n),
    "E6^2/E4^2 - E4": lambda R, n: _qm_sum(R, GENERATORS["Ga"], n),
    "E2*E4^2/E6 - E4": lambda R, n: _qm_sum(R, GENERATORS["Gb"], n),
    "delta(F4b)": lambda R, n: R.delta(ref.named_form(R, "F4b", n)),
    "antiderivative(F4a, 1)": lambda R, n: R.antiderivative(ref.named_form(R, "F4a", n)),
    "(E4^3 - E6^2)/1728": lambda R, n: ref.discriminant(R, n),
    "f(2,-1,1) - f(0,1,0)": lambda R, n: _qm_sum(R, ((1, (2, -1, 1)), (-1, (0, 1, 0))), n),
}

# Quotient identities: the form times FACTOR equals PRODUCT.
QUOTIENTS = {
    "F4a": (lambda R, n: ref.power(R, ref.eisenstein(R, 4, n), 2), lambda R, n: ref.discriminant(R, n)),
    "F4b": (
        lambda R, n: ref.power(R, ref.eisenstein(R, 6, n), 2),
        lambda R, n: R.mul(ref.eisenstein(R, 4, n), ref.discriminant(R, n)),
    ),
    "F6": (
        lambda R, n: ref.power(R, ref.eisenstein(R, 4, n), 3),
        lambda R, n: R.mul(ref.eisenstein(R, 6, n), ref.discriminant(R, n)),
    ),
}


# ----------------------------------------------------------------------
# serialisation for comparing passes
# ----------------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, series.QSeries):
        return {"lead": obj.lead, "prec": obj.prec, "coeffs": [str(c) for c in obj.coeffs]}
    if hasattr(obj, "to_json_dict") and hasattr(obj, "verdict"):
        d = obj.to_json_dict()
        d.pop("timing", None)
        return d
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(_untimed(v) if k == "stdout" else v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, int, str, type(None))):
        return obj
    return str(obj)


def _untimed(text: str):
    """CLI output; a JSON report loses its timing block, the only part that
    differs between runs."""
    try:
        d = json.loads(text)
    except ValueError:
        return text
    if isinstance(d, dict) and "timing" in d:
        d.pop("timing")
        return d
    return text


def canonical(outputs) -> str:
    """Outputs as canonical JSON, report timings left out."""
    return json.dumps(_plain(outputs), sort_keys=True)


# ----------------------------------------------------------------------
# helpers on exact windows
# ----------------------------------------------------------------------


def _coeff(s, n):
    return s.coeffs[n - s.lead] if n >= s.lead else Fraction(0)


def _as_dict(s) -> dict:
    return {s.lead + i: Fraction(c) for i, c in enumerate(s.coeffs)}


def _first_difference(R, got, want):
    if R is EXACT:
        return next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
    return int(np.nonzero(got != want)[0][0])


def match_reference(s, build, label: str, prec: int, factor=None) -> list[str]:
    """s must equal build(R, n) on the exponents 0..prec (s * factor must,
    when a factor is given): exactly on PREFIX terms, modulo primes on all."""
    if s.prec != prec:
        return [f"{label}: window ends at q^{s.prec}, requested q^{prec}"]
    bad = [n for n in range(s.lead, 0) if _coeff(s, n)]
    if bad:
        return [f"{label}: nonzero coefficient at q^{bad[0]} of a power series"]
    fails = []
    for R in [EXACT] + MODULAR:
        n = min(PREFIX, prec + 1) if R is EXACT else prec + 1
        got = R.series([_coeff(s, k) for k in range(n)])
        if factor is not None:
            got = R.mul(got, factor(R, n))
        want = build(R, n)
        if not R.equal(got, want):
            where = _first_difference(R, got, want)
            fails.append(f"{label}: differs from the reference at q^{where} ({'exact' if R is EXACT else f'mod {R.p}'})")
    return fails


def _agree(a, b, lo: int, hi: int, label: str, scale_a=1, scale_b=1) -> list[str]:
    """scale_a * a == scale_b * b on the exponents lo..hi."""
    if hi > min(a.prec, b.prec):
        return [f"{label}: window ends below q^{hi}"]
    for n in range(lo, hi + 1):
        if scale_a * _coeff(a, n) != scale_b * _coeff(b, n):
            return [f"{label}: differs at q^{n}"]
    return []


def _verdict(label: str, claimed_ok: bool, truth, claimed_witness=None) -> list[str]:
    """Compare a reported verdict (and witness) with the derived truth."""
    if claimed_ok != (truth is None):
        return [f"{label}: reported ok={claimed_ok}, derived {'integral' if truth is None else truth}"]
    if truth is not None and claimed_witness is not None and tuple(claimed_witness) != tuple(truth):
        return [f"{label}: reported witness {claimed_witness}, derived {truth}"]
    return []


def _named_form_check(s, name: str, prec: int) -> list[str]:
    if name in QUOTIENTS:
        factor, product = QUOTIENTS[name]
        return match_reference(s, product, f"{name} quotient identity", prec, factor=factor)
    return match_reference(s, lambda R, n: ref.named_form(R, name, n), name, prec)


def _magnetic(s, rep, label: str, order: int = 1, p=None) -> list[str]:
    truth = ref.first_nonintegral(s.coeffs, s.lead, order, p)
    return _verdict(label, rep.ok, truth, (rep.exponent, rep.denominator))


# ----------------------------------------------------------------------
# one check per request kind
# ----------------------------------------------------------------------


def check_theorem(req, out):
    prec = req["prec"]
    cases = [("F4a", 1), ("F4b", 1)] if req["which"] == "th1" else [("F6", 1), ("F6", 2)]
    checks = out["report"].checks
    if len(checks) != len(cases):
        return [f"{req['which']}: {len(checks)} checks reported, expected {len(cases)}"]
    fails = []
    for name in sorted({name for name, _ in cases}):
        fails += _named_form_check(forms.named_form(name, prec), name, prec)
    for (name, order), check in zip(cases, checks):
        s = forms.named_form(name, prec)
        fails += _verdict(f"{name} order {order}", check.ok, ref.first_nonintegral(s.coeffs, s.lead, order))
    return fails


def check_named_integrality(req, out):
    s, name = out["series"], req["name"]
    return _named_form_check(s, name, req["prec"]) + _magnetic(
        s, out["report"], f"{name} order {req['order']} p={req['prime']}", req["order"], req["prime"]
    )


def _family_check(req, s, claimed_ok: bool, claimed_witness) -> list[str]:
    """E2^m (delta E_j)/E_j: the series, the verdict and, for the control
    m = 5, the witness re-derived by the reference."""
    m, j, prec = req["m"], req["j"], req["prec"]
    label = f"E2^{m} (delta E{j})/E{j}"
    fails = match_reference(s, lambda R, n: ref.e2_family(R, m, j, n), label, prec)
    fails += _verdict(label, claimed_ok, ref.first_nonintegral(s.coeffs, s.lead), claimed_witness)
    if m == 5:
        witness = ref.first_nonintegral(ref.e2_family(EXACT, m, j, PREFIX), 0)
        if witness != CONTROL_WITNESSES[j]:
            fails.append(f"{label}: reference witness {witness}, expected {CONTROL_WITNESSES[j]}")
        if tuple(claimed_witness) != witness:
            fails.append(f"{label}: reported witness {claimed_witness}, reference {witness}")
    return fails


def check_e2_family(req, out):
    rep = out["report"]
    s = quasi.expand(workloads.family_element(req["m"], req["j"]), req["prec"])
    return _family_check(req, s, rep.ok, (rep.exponent, rep.denominator))


def check_cli_magnetic(req, out):
    report = json.loads(out["stdout"])
    if len(report["checks"]) != 1:
        return [f"{len(report['checks'])} checks reported, expected 1"]
    check = report["checks"][0]
    found = re.search(r"denominator (\d+) at q\^(-?\d+)", check["detail"])
    witness = (int(found.group(2)), int(found.group(1))) if found else (None, None)
    s = exprs.evaluate(workloads.family_expression(req["m"], req["j"]), req["prec"])
    fails = _family_check(req, s, check["ok"], witness)
    if out["exit"] != (0 if check["ok"] else 1):
        fails.append(f"exit code {out['exit']} for a report with ok={check['ok']}")
    return fails


def check_sweep_magnetic(req, out):
    w, exps, prec = req["weight"], tuple(req["exps"]), req["prec"]
    anchor = (0, 1, 0) if w == 4 else (0, 0, 1)
    s = quasi.expand(workloads.quasi_element(w, exps), prec)
    label = f"f{exps} - f{anchor}"
    fails = match_reference(s, lambda R, n: _qm_sum(R, ((1, exps), (-1, anchor)), n), label, prec)
    return fails + _magnetic(s, out["report"], label)


def check_certificate(req, out):
    cert, w, exps = out["cert"], req["weight"], tuple(req["exps"])
    anchor = (0, 1, 0) if w == 4 else (0, 0, 1)
    label = f"certificate for f{exps} - f{anchor}"
    given = {tuple(mono): Fraction(c) for mono, c in cert.input.terms.items()}
    if given != {exps: 1, anchor: -1}:
        return [f"{label}: certificate input is {cert.input}"]
    unknown = set(cert.gens) - set(GENERATORS)
    if unknown:
        return [f"{label}: unknown generators {sorted(unknown)}"]
    holds = True
    for R in [EXACT] + MODULAR:
        n = PREFIX if R is EXACT else req["prec"] + 1
        lhs = _qm_sum(R, ((1, exps), (-1, anchor)), n)
        terms = [(Fraction(cert.mu), anchor)]
        for name, coeff in cert.gens.items():
            terms += [(coeff * c, mono) for c, mono in GENERATORS[name]]
        rhs = R.add(
            _qm_sum(R, terms, n),
            R.delta(_qm_sum(R, [(c, tuple(mono)) for mono, c in cert.delta_part.terms.items()], n)),
        )
        holds = holds and R.equal(lhs, rhs)
    if out["verified"] != holds:
        return [f"{label}: program says verified={out['verified']}, reference identity holds={holds}"]
    if not holds:
        return [f"{label}: the certificate identity fails"]
    return []


def check_expand(req, out):
    label = f"expand {req['expr']!r}"
    if out["exit"] != 0:
        return [f"{label}: exit code {out['exit']}"]
    d = json.loads(out["stdout"])
    s = SimpleNamespace(lead=int(d["lead"]), prec=int(d["prec"]), coeffs=tuple(Fraction(c) for c in d["coeffs"]))
    return match_reference(s, EXPAND_REFERENCE[req["expr"]], label, req["prec"])


def check_table_lift(req, out):
    row = workloads.tables.get_row(req["row"])
    C = req["coeffs"]
    lift = out["lift"]
    if lift.lead != 1 or lift.prec != C:
        return [f"row {row.row_id}: lift window [{lift.lead}, {lift.prec}], expected [1, {C}]"]
    rhs = ref.j_rational(EXACT, C + 1, row.e4_power, row.numerator, row.denominator, row.denominator_power)
    sign = ROW_SIGNS.get(row.row_id, 1)
    for n in range(1, C + 1):
        if _coeff(lift, n) != sign * rhs[n]:
            return [f"row {row.row_id}: lift differs from {sign:+d} * right-hand side at q^{n}"]
    return []


def check_table_rhs(req, out):
    row = workloads.tables.get_row(req["row"])
    s, label = out["series"], f"row {row.row_id} right-hand side"
    fails = match_reference(
        s,
        lambda R, n: ref.j_rational(R, n, row.e4_power, row.numerator, row.denominator, row.denominator_power),
        label,
        req["prec"],
    )
    return fails + _magnetic(s, out["report"], label)


def check_plus_basis_element(m: int, s, prec: int) -> list[str]:
    """Weight 5/2 (k = 2) basis element q^-m + O(q)."""
    label = f"basis element q^-{m}"
    if s.lead != -m or s.prec != prec:
        return [f"{label}: window [{s.lead}, {s.prec}], expected [{-m}, {prec}]"]
    for n in range(-m, 1):
        if _coeff(s, n) != (1 if n == -m else 0):
            return [f"{label}: coefficient {_coeff(s, n)} at q^{n}, shape is q^-{m} + O(q)"]
    for n, c in _as_dict(s).items():
        if c.denominator != 1:
            return [f"{label}: coefficient {c} at q^{n} is not integral"]
        if c and not ref.admissible(2, n):
            return [f"{label}: nonzero coefficient at q^{n} outside the plus space"]
    return []


def check_t4_family(req, out):
    ms, basis, images = req["ms"], out["basis"], out["images"]
    prec = 4 * req["coeffs"] + 20
    fails = []
    for m in ms:
        fails += check_plus_basis_element(m, basis[m], prec)
    if fails:
        return fails
    for m, image in images.items():
        g = basis[m]
        mine, lo, hi = ref.hecke_tp2(_as_dict(g), g.lead, g.prec, 2, 2)
        if (image.lead, image.prec) != (lo, hi) or any(_coeff(image, n) != mine[n] for n in range(lo, hi + 1)):
            fails.append(f"g_{m}|T4': differs from the reference operator")
            continue
        # g_m|T4' = 8 g_4m + 2 (-m|2) g_m + g_(m/4), the last term when -m/4 is a plus exponent
        terms = [(8, basis[4 * m]), (2 * ref.kronecker2(-m), g)]
        if m % 4 == 0 and ref.admissible(2, -m // 4):
            terms.append((1, basis[m // 4]))
        for n in range(lo, hi + 1):
            if mine[n] != sum(c * _coeff(b, n) for c, b in terms):
                fails.append(f"g_{m}|T4' = 8 g_{4 * m} + 2(-{m}|2) g_{m} fails at q^{n}")
                break
    return fails


def _raise_reference(s, k: int):
    """delta f - ((2k+1)/6) E2(4 tau) f on the exact window of f."""
    n = s.prec - s.lead + 1
    u = [_coeff(s, s.lead + i) for i in range(n)]
    e2 = ref.eisenstein(EXACT, 2, n // 4 + 1)
    e2_4 = [Fraction(0)] * n
    for i, c in enumerate(e2):
        if 4 * i < n:
            e2_4[4 * i] = c
    prod = EXACT.mul(u, e2_4)
    c = Fraction(2 * k + 1, 6)
    return {s.lead + i: (s.lead + i) * u[i] - c * prod[i] for i in range(n)}


def check_raising(req, out):
    which, prec = req["which"], req["prec"]
    source, raised, target = out["source"], out["raised"], out["target"]
    fails = []
    if which == "theta":
        th = ref.theta(EXACT, source.prec + 1)
        if source.lead != 0 or any(_coeff(source, n) != th[n] for n in range(source.prec + 1)):
            fails.append("theta differs from 1 + 2 sum q^(n^2)")
    mine = _raise_reference(source, 0)
    hi = min(raised.prec, source.prec)
    if any(_coeff(raised, n) != mine[n] for n in range(source.lead, hi + 1)):
        fails.append(f"raising of {which}: differs from the reference operator")
    scale_a, scale_b, lo = {
        "theta": (-6, 1, 0),
        "h0": (Fraction(-6, 19), 64, -3),
        "f4b": (Fraction(3, 25), 108, -4),
    }[which]
    return fails + _agree(raised, target, lo, prec, f"raising relation for {which}", scale_a, scale_b)


def check_lift(req, out):
    f, lift, back = out["f"], out["lift"], out["back"]
    fails = []
    mine = ref.lift(_as_dict(f), f.lead, f.prec, 2)
    if lift.lead != 1 or lift.prec != len(mine) or any(_coeff(lift, n) != v for n, v in mine.items()):
        fails.append("psi differs from the reference lift")
    for n in range(1, min(back.prec, f.prec) + 1):
        if _coeff(back, n) != (_coeff(f, n) if isqrt(n) ** 2 == n else 0):
            fails.append(f"phi(psi(f)) differs from the square part of f at q^{n}")
            break
    return fails


def check_unlift(req, out):
    back = out["back"]
    mine = ref.lift(_as_dict(back), back.lead, back.prec, 2)
    dl = ref.discriminant(EXACT, len(mine) + 1)
    if any(v != dl[n] for n, v in mine.items()):
        return ["psi(phi(Delta)) differs from Delta"]
    return []


def _valuation_ok(c: Fraction, p: int, e: int) -> bool:
    if c.denominator % p == 0:
        return False
    return c.numerator == 0 or c.numerator % p**e == 0


def check_hecke_congruence(req, out):
    p, n_steps, prec = req["prime"], req["n"], req["prec"]
    checks = out["report"].checks
    if len(checks) != n_steps:
        return [f"{len(checks)} Hecke steps reported, expected {n_steps}"]
    g = halfint.named_plus_form(req["form"], prec * p * p).series
    coeffs, lead, hi = _as_dict(g), g.lead, g.prec
    fails = []
    for step, check in enumerate(checks, start=1):
        coeffs, lead, hi = ref.hecke_tp2(coeffs, lead, hi, 2, p)
        bad = next((n for n in range(lead, hi + 1) if not _valuation_ok(coeffs[n], p, step)), None)
        fails += _verdict(f"{req['form']}|T_{p * p}^{step}", check.ok, bad)
    return fails


def check_strong_congruence(req, out):
    p, n, prec = req["prime"], req["n"], req["prec"]
    s = forms.named_form(req["form"], prec)
    fails = _named_form_check(s, req["form"], prec)
    step = p**n
    bad = next((m for m in range(step, prec + 1, step) if _coeff(s, m) % step), None)
    return fails + _verdict(f"{req['form']} {p}^{n} | m => {p}^{n} | a(m)", out["report"].checks[0].ok, bad)


CHECKS = {
    "theorem": check_theorem,
    "named_integrality": check_named_integrality,
    "e2_family": check_e2_family,
    "cli_magnetic": check_cli_magnetic,
    "sweep_magnetic": check_sweep_magnetic,
    "certificate": check_certificate,
    "expand": check_expand,
    "table_lift": check_table_lift,
    "table_rhs": check_table_rhs,
    "t4_family": check_t4_family,
    "raising": check_raising,
    "lift": check_lift,
    "unlift": check_unlift,
    "hecke_congruence": check_hecke_congruence,
    "strong_congruence": check_strong_congruence,
}


def check_cache_repeats(requests, outputs) -> list[str]:
    """A repeated expand (a cache hit) must print the cold result's bytes."""
    first = {}
    fails = []
    for req, out in zip(requests, outputs):
        if req["kind"] != "expand" or out is None:
            continue
        key = (req["expr"], req["prec"])
        if key in first and out["stdout"] != first[key]:
            fails.append(f"expand {req['expr']!r} at {req['prec']}: cache hit differs from the cold result")
        first.setdefault(key, out["stdout"])
    return fails


def check_all(requests, outputs) -> list[str]:
    fails = []
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if out is None:
            continue
        try:
            msgs = CHECKS[req["kind"]](req, out)
        except Exception as exc:  # a malformed output fails its check
            msgs = [f"check raised {type(exc).__name__}: {exc}"]
        fails += [f"request {i} ({req['kind']}): {msg}" for msg in msgs]
    return fails + check_cache_repeats(requests, outputs)
