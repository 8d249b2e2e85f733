"""Per-layer spans recorded from outside the program.

:meth:`Tracer.install` wraps the public functions of each magforms module in
every magforms module namespace that binds them (``from .series import mul``
makes ``forms.mul`` a second binding), plus the methods that carry a layer's
work: ``QSeries.antiderivative`` and ``QSeries.integrality_check`` (the
integrality scan) and ``SeriesCache.get``/``put``.  Each call becomes a span
(name, start, end, parent, request); spans stay in memory until the pass ends.

A span's self time is its duration minus the durations of its direct children.
A layer's ``.s`` sums the outermost spans of its functions, so a function that
reaches itself through another wrapped function is not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from magforms import cache, series

LAYERS = ("series", "forms", "quasi", "halfint", "lifts", "exprs", "cache", "verify", "cli")

# Scalar helpers called once per coefficient; a span each would cost more than
# the work they do and blur every self time around them.
_SCALAR_HELPERS = {
    "halfint.admissible",
    "halfint.kronecker",
    "halfint.chi_symbol",
    "lifts.lift_discriminant",
    "series.coefficient",
    "cache.default_cache_dir",
}

# metric prefix -> what is reported ("calls" and/or "s"; every "s" also gets
# a "self_s").  A prefix aggregates the spans of the same name, or those
# listed in SPANS.
REPORTED = {
    "series.mul": ("calls", "s"),
    "series.inv": ("calls", "s"),
    "series.linear_combine": ("calls", "s"),
    "series.integrality": ("s",),
    "forms.named_form": ("calls", "s"),
    "forms.quasi_monomial": ("calls", "s"),
    "forms.eisenstein": ("calls",),
    "forms.j_invariant": ("s",),
    "forms.discriminant": ("s",),
    "quasi.reduce": ("s",),
    "quasi.verify_certificate": ("s",),
    "quasi.magnetic_check": ("calls", "s"),
    "halfint.plus_basis": ("calls", "s"),
    "halfint.t4_prime": ("s",),
    "halfint.raising": ("s",),
    "halfint.named_plus_form": ("s",),
    "lifts.psi": ("s",),
    "lifts.phi": ("s",),
    "lifts.congruence": ("s",),
    "exprs.evaluate": ("calls", "s"),
    "cache.get": ("calls", "s"),
    "cache.put": ("s",),
}
SPANS = {
    "series.integrality": ("series.integrality", "series.antiderivative", "series.integrality_check"),
    "quasi.reduce": ("quasi.reduce_weight4", "quasi.reduce_weight6"),
    "lifts.congruence": ("lifts.strong_magnetic_congruence_check",),
}


def _bits(s) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in s.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request, self_s]
        self.stack = []
        self.request = None
        self.counts = Counter()
        self.max_bits = 0
        self.seen = {"forms.named_form": set(), "forms.eisenstein": set()}
        self._restore = []

    # ------------------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if name in self.seen:
                key = (args, tuple(sorted(kwargs.items())))
                if key in self.seen[name]:
                    self.counts[name + ".repeats"] += 1
                self.seen[name].add(key)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.request, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_mul(self, args, result):
        self.counts["series.mul.input_bits"] += sum(len(s.coeffs) * _bits(s) for s in args[:2])
        self.max_bits = max(self.max_bits, _bits(result))

    def _on_inv(self, args, result):
        self.max_bits = max(self.max_bits, _bits(result))

    def _on_get(self, args, result):
        if result is not None:
            self.counts["cache.hits"] += 1

    def _on_put(self, args, result):
        cache_obj, key = args[0], args[1]
        if cache_obj.enabled:
            self.counts["cache.bytes_written"] += cache_obj._path(key).stat().st_size

    def install(self) -> None:
        hooks = {"series.mul": self._on_mul, "series.inv": self._on_inv}
        modules = [m for n, m in sys.modules.items() if n == "magforms" or n.startswith("magforms.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"magforms.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in _SCALAR_HELPERS
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        methods = (
            (series.QSeries, "antiderivative", "series.integrality", None),
            (series.QSeries, "integrality_check", "series.integrality", None),
            (cache.SeriesCache, "get", "cache.get", self._on_get),
            (cache.SeriesCache, "put", "cache.put", self._on_put),
        )
        for cls, attr, name, hook in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------

    def _self_times(self) -> None:
        for span in self.spans:
            span[5] = span[2] - span[1]
        for span in self.spans:
            if span[3] is not None:
                self.spans[span[3]][5] -= span[2] - span[1]

    def _outermost(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return False
            parent = self.spans[parent][3]
        return True

    def metrics(self) -> dict:
        self._self_times()
        out = {}
        for prefix, kinds in REPORTED.items():
            names = SPANS.get(prefix, (prefix,))
            idxs = [i for i, s in enumerate(self.spans) if s[0] in names]
            if "calls" in kinds:
                out[f"{prefix}.calls"] = len(idxs)
            if "s" in kinds:
                out[f"{prefix}.s"] = sum(
                    self.spans[i][2] - self.spans[i][1] for i in idxs if self._outermost(i, names)
                )
                out[f"{prefix}.self_s"] = sum(self.spans[i][5] for i in idxs)
        out["series.mul.input_bits"] = self.counts["series.mul.input_bits"]
        out["series.max_coeff_bits"] = self.max_bits
        for prefix in ("forms.named_form", "forms.eisenstein"):
            calls = sum(1 for s in self.spans if s[0] == prefix)
            out[f"{prefix}.repeat_ratio"] = self.counts[prefix + ".repeats"] / calls if calls else 0.0
        gets = out["cache.get.calls"]
        out["cache.hits"] = self.counts["cache.hits"]
        out["cache.hit_ratio"] = out["cache.hits"] / gets if gets else 0.0
        out["cache.bytes_written"] = self.counts["cache.bytes_written"]
        for layer in ("verify", "cli"):
            out[f"{layer}.self_s"] = sum(s[5] for s in self.spans if s[0].startswith(layer + "."))
        return out

    def dump(self, requests) -> dict:
        return {
            "requests": requests,
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "request": r, "self_s": st}
                for n, t0, t1, p, r, st in self.spans
            ],
        }
