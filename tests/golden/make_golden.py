"""Golden outputs: one sha256 per expansion, basis and report.

The golden set pins the exact bytes that refactors of the working-precision,
representation and memo layers must keep: ``exprs.evaluate`` on every named
form, a few Laurent expressions and plus-space basis elements at windows
0-3, 7 and 40 (trimmed and untrimmed), ``plus_basis`` with its
``pool_s_max``, and seven verification reports without their ``timing`` block.
A case that raises records the exception class instead of a digest.

Regenerate (only when an output is meant to change) from the repository root::

    PYTHONPATH=src python tests/golden/make_golden.py

``tests/test_golden.py`` recomputes every case and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from magforms.exprs import evaluate
from magforms.forms import FormName
from magforms.halfint import admissible, plus_basis
from magforms.verify import (
    verify_congruence,
    verify_misc,
    verify_table1,
    verify_theorem,
)

OUTPUTS = Path(__file__).with_name("outputs.json")

WINDOWS = (0, 1, 2, 3, 7, 40)
PLUS_NAMES = ("g0", "g1", "g2", "h0", "f4a", "f4b", "f6half")
LAURENT = ("q", "1/Delta", "1/Delta^3", "q^-1", "j^2", "1/(E4-1)", "dilate(j,4)*Delta")
# (k, m): per weight a pole order that needs a j(4tau) step above the pool
# seeds, and the seed k = 3, m = 1, whose pool leads sit above windows 0-2;
# weight 3/2 (k = 1) has no element q^-m + O(q) with zero constant term, so
# its basis cases record the BasisError, at one window since each costs ~1 s
BASIS = ((0, 4), (1, 1), (2, 4), (3, 1), (3, 5))
BASIS_MAX_M = 8


def _orders(k: int) -> list[int]:
    return [m for m in range(BASIS_MAX_M + 1) if admissible(k, -m)]


def _windows(k: int | None) -> tuple[int, ...]:
    return (7,) if k == 1 else WINDOWS


def _expressions():
    """(expression, plus-space weight parameter or None)."""
    names = [f.value for f in FormName] + list(PLUS_NAMES) + list(LAURENT)
    return [(text, None) for text in names] + [
        (f"basis:k={k},m={m}", k) for k, m in BASIS
    ]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _report(report) -> str:
    payload = report.to_json_dict()
    del payload["timing"]
    return _canonical(payload)


def _plus_basis(k: int, prec: int) -> str:
    basis = plus_basis(k, _orders(k), prec)
    return _canonical(
        {
            "pool_s_max": basis.pool_s_max,
            "elements": {str(m): f.series.to_json_dict() for m, f in basis.elements.items()},
        }
    )


def cases():
    """Yield (key, thunk) pairs; each thunk returns the output as a string."""
    for text, k in _expressions():
        for prec in _windows(k):
            for trim in (False, True):
                yield (
                    f"evaluate|{text}|{prec}|{'trim' if trim else 'full'}",
                    lambda text=text, prec=prec, trim=trim: evaluate(text, prec, trim).to_json(),
                )
    for k in range(4):
        for prec in _windows(k):
            yield f"plus_basis|k={k}|{prec}", lambda k=k, prec=prec: _plus_basis(k, prec)
    for which in ("th1", "th2"):
        yield f"verify_theorem|{which}|150", lambda w=which: _report(verify_theorem(w, 150))
    for which in ("w4", "w6"):
        yield f"verify_theorem|{which}|60", lambda w=which: _report(verify_theorem(w, 60))
    yield "verify_misc|120|150", lambda: _report(verify_misc(120, 150))
    yield (
        "verify_table1|1,2,3,4,5,7|12|100",
        lambda: _report(verify_table1([1, 2, 3, 4, 5, 7], 12, 100)),
    )
    yield (
        "verify_congruence|f4a|3|2|1|40",
        lambda: _report(verify_congruence("f4a", 3, 2, 1, 40)),
    )


def digest(thunk) -> str:
    """sha256 of the output, or ``error:<exception class>`` if it raises."""
    try:
        text = thunk()
    except Exception as exc:  # the error class is part of the golden output
        return f"error:{type(exc).__name__}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute() -> dict[str, str]:
    return {key: digest(thunk) for key, thunk in cases()}


if __name__ == "__main__":
    OUTPUTS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUTS}")
