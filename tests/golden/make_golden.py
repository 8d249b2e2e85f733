"""Golden outputs: one sha256 per expansion, basis and report.

The golden set pins the exact bytes that refactors of the working-precision,
representation and memo layers must keep: ``exprs.evaluate`` on every named
form, a few Laurent expressions and plus-space basis elements at windows
0-3, 7 and 40 (trimmed and untrimmed), quotients by powers of E4 and E6 at
the same windows, ``plus_basis`` with its
``pool_s_max`` for k = 0..7 and for the weight-1/2 and 5/2 orders through 23
at q^900, the weight-1/2 and 5/2 named forms at q^900, eight verification
reports without their ``timing`` block,
the j-quotients LS8, Triple8 and the HK numerators at q^350 and the
right-hand side of every lift-table row at q^60,
the reduction certificate and the q^40 expansion of every w4/w6 sweep
element, ``parse_element`` on
the README element, and a few ``psi``/``phi`` lifts.
A case that raises records the exception class instead of a digest.

Regenerate (only when an output is meant to change) from the repository root::

    PYTHONPATH=src python tests/golden/make_golden.py

It names every key whose output changed, was added or was removed, and counts
the unchanged ones, before it rewrites ``outputs.json``.

``tests/test_golden.py`` recomputes every case and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from magforms.exprs import evaluate
from magforms.forms import FormName, discriminant, j_quotient, named_form
from magforms.halfint import admissible, named_plus_form, plus_basis
from magforms.lifts import phi, psi
from magforms.quasi import QuasiElement, expand, parse_element, reduce_weight4, reduce_weight6
from magforms.tables import LIFT_TABLE
from magforms.verify import (
    _sweep,
    verify_congruence,
    verify_misc,
    verify_table1,
    verify_theorem,
)

OUTPUTS = Path(__file__).with_name("outputs.json")

WINDOWS = (0, 1, 2, 3, 7, 40)
PLUS_NAMES = ("g0", "g1", "g2", "h0", "f4a", "f4b", "f6half")
LAURENT = ("q", "1/Delta", "1/Delta^3", "q^-1", "j^2", "1/(E4-1)", "dilate(j,4)*Delta")
# divisions by E4^k and E6^k, as in the sweeps and the E2^m delta(E_k)/E_k family
QUOTIENTS = (
    "E6^2/E4^2 - E4",
    "E2*E4^2/E6 - E4",
    "E2^5*delta(E4)/E4",
    "E2^3*delta(E6)/E6",
    "F4a/E4^3",
    "f(2,-1,1) - f(0,1,0)",
)
# (k, m): per weight a pole order that needs a j(4tau) polynomial above the
# pool seeds, and the seed k = 3, m = 1, whose pool leads sit above windows 0-2;
# weight 3/2 (k = 1) has no seed 1 + O(q) or q^-1 + O(q) for the j(4tau)
# polynomials to multiply, so its basis cases record the BasisError, at one window
BASIS = ((0, 4), (1, 1), (2, 4), (3, 1), (3, 5))
BASIS_MAX_M = 8
# (k, orders, window): the weight-5/2 orders of lift-table rows 1-3, 7 and
# 11-13 (no T4'), and every weight-1/2 order through 23, at q^900
DEEP_BASES = (
    (2, (7, 8, 11, 15, 19, 20, 23), 900),
    (0, tuple(m for m in range(24) if admissible(0, -m)), 900),
)
# the weight-1/2 and 5/2 named forms at q^900
DEEP_NAMES = (("g0", "g1", "g2", "h0", "f4a", "f4b"), 900)
# the j-quotients E4^e num(j)/den(j)^p of the integrality checks, and the
# right-hand sides of the lift table (the extended rows included)
DEEP_QUOTIENTS = (("LS8", "Triple8", "HK_num1", "HK_num2"), 350)
LIFT_RHS_PREC = 60


def _orders(k: int) -> list[int]:
    return [m for m in range(BASIS_MAX_M + 1) if admissible(k, -m)]


def _windows(k: int | None) -> tuple[int, ...]:
    return (7,) if k == 1 else WINDOWS


def _expressions():
    """(expression, plus-space weight parameter or None)."""
    names = [f.value for f in FormName] + list(PLUS_NAMES) + list(LAURENT) + list(QUOTIENTS)
    return [(text, None) for text in names] + [
        (f"basis:k={k},m={m}", k) for k, m in BASIS
    ]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report(report) -> str:
    payload = report.to_json_dict()
    del payload["timing"]
    return _canonical(payload)


def _plus_basis(k: int, prec: int, orders=None) -> str:
    basis = plus_basis(k, _orders(k) if orders is None else orders, prec)
    return _canonical(
        {
            "pool_s_max": basis.pool_s_max,
            "elements": {str(m): f.series.to_json_dict() for m, f in basis.elements.items()},
        }
    )


def _certificate(cert) -> str:
    return _canonical(
        {
            "mu": str(cert.mu),
            "generators": {name: str(val) for name, val in cert.gens.items()},
            "delta_part": str(cert.delta_part),
        }
    )


def _element(text: str) -> str:
    e = parse_element(text)
    return _canonical({"weight": e.weight, "element": str(e)})


# one element outside each reduction space: E2 power 3 > 2 in weight 4,
# E6 power -1 < 0 in weight 6
_OUT_OF_SCOPE = {
    4: QuasiElement.single(3, 1, -1) - QuasiElement.single(0, 1, 0),
    6: QuasiElement.single(0, 3, -1) - QuasiElement.single(0, 0, 1),
}


def cases():
    """Yield (key, thunk) pairs; each thunk returns the output as a string."""
    for text, k in _expressions():
        for prec in _windows(k):
            for trim in (False, True):
                yield (
                    f"evaluate|{text}|{prec}|{'trim' if trim else 'full'}",
                    lambda text=text, prec=prec, trim=trim: evaluate(text, prec, trim).to_json(),
                )
    # k = 4..7 pin the element chosen where q^-m + O(q) is not unique (k = 6)
    for k in range(8):
        for prec in _windows(k):
            yield f"plus_basis|k={k}|{prec}", lambda k=k, prec=prec: _plus_basis(k, prec)
    for k, orders, prec in DEEP_BASES:
        yield (
            f"plus_basis|k={k}|m={','.join(map(str, orders))}|{prec}",
            lambda k=k, prec=prec, orders=orders: _plus_basis(k, prec, orders),
        )
    names, prec = DEEP_NAMES
    for name in names:
        yield (
            f"named_plus_form|{name}|{prec}",
            lambda name=name, prec=prec: named_plus_form(name, prec).series.to_json(),
        )
    names, prec = DEEP_QUOTIENTS
    for name in names:
        yield (
            f"named_form|{name}|{prec}",
            lambda name=name, prec=prec: named_form(name, prec).to_json(),
        )
    for row in LIFT_TABLE:
        args = (row.e4_power, row.numerator, row.denominator, row.denominator_power)
        yield (
            f"j_quotient|row{row.row_id}|{LIFT_RHS_PREC}",
            lambda args=args: j_quotient(*args, LIFT_RHS_PREC).to_json(),
        )
    for which in ("th1", "th2"):
        yield f"verify_theorem|{which}|150", lambda w=which: _report(verify_theorem(w, 150))
    for which in ("w4", "w6"):
        yield f"verify_theorem|{which}|60", lambda w=which: _report(verify_theorem(w, 60))
    yield "verify_misc|120|150", lambda: _report(verify_misc(120, 150))
    yield (
        "verify_table1|1,2,3,4,5,7|12|100",
        lambda: _report(verify_table1([1, 2, 3, 4, 5, 7], 12, 100)),
    )
    # rows 11-13 carry the degree-2/3 and degree-5 j-polynomials
    yield (
        "verify_table1|11,12,13|12|100",
        lambda: _report(verify_table1([11, 12, 13], 12, 100)),
    )
    yield (
        "verify_congruence|f4a|3|2|1|40",
        lambda: _report(verify_congruence("f4a", 3, 2, 1, 40)),
    )
    for weight, reduce in ((4, reduce_weight4), (6, reduce_weight6)):
        for exps, elem in _sweep(weight):
            yield (
                f"reduce|w{weight}|f{exps}",
                lambda r=reduce, e=elem: _certificate(r(e)),
            )
            yield f"expand|w{weight}|f{exps}|40", lambda e=elem: expand(e, 40).to_json()
        yield (
            f"reduce|w{weight}|out_of_scope",
            lambda r=reduce, e=_OUT_OF_SCOPE[weight]: _certificate(r(e)),
        )
    readme_element = "3/2*f(1,-1,1) - f(0,1,0)"
    yield f"parse_element|{readme_element}", lambda: _element(readme_element)
    yield "psi|f4a|900", lambda: psi(named_plus_form("f4a", 900)).to_json()
    yield "psi|basis:k=3,m=1|300", lambda: psi(plus_basis(3, [1], 300)[1]).to_json()
    for k in (2, 3):
        yield f"phi|Delta|40|k={k}", lambda k=k: phi(discriminant(40), k).to_json()
    yield "phi|Delta|40|k=3|out_prec=200", lambda: phi(discriminant(40), 3).truncate(200).to_json()


def digest(thunk) -> str:
    """sha256 of the output, or ``error:<exception class>`` if it raises."""
    try:
        text = thunk()
    except Exception as exc:  # the error class is part of the golden output
        return f"error:{type(exc).__name__}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute() -> dict[str, str]:
    return {key: digest(thunk) for key, thunk in cases()}


def _print_moves(old: dict[str, str], new: dict[str, str]) -> None:
    """Name every key whose output changed, appeared or disappeared."""
    for label, keys in (
        ("changed", [k for k in new if k in old and new[k] != old[k]]),
        ("added", [k for k in new if k not in old]),
        ("removed", [k for k in old if k not in new]),
    ):
        for key in sorted(keys):
            print(f"{label}: {key}")
    print(f"unchanged: {sum(1 for k in new if old.get(k) == new[k])}")


if __name__ == "__main__":
    outputs = compute()
    old = json.loads(OUTPUTS.read_text(encoding="utf-8")) if OUTPUTS.exists() else {}
    _print_moves(old, outputs)
    OUTPUTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUTS}")
