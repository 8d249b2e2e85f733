"""Exact truncated Laurent series over arbitrary-precision rationals.

A :class:`QSeries` stores the coefficients of a Laurent series on an explicit
window of exponents ``[lead, prec]`` (both inclusive).  The series is zero
below ``lead`` by construction and *unknown* above ``prec``; no operation ever
fabricates a coefficient outside the window it can honestly derive.  The
coefficients are stored as integer numerators ``nums`` over one positive
common denominator ``den`` with ``gcd(den, *nums) == 1``; this canonical form
is what ``==`` and ``hash`` compare, and every operation works on those
integers, so every computation in this package is exact.  ``coeffs`` and
``coefficient`` give the same values as :class:`fractions.Fraction`.

Precision propagates pessimistically:

* sums and differences are known through the smallest input ``prec``;
* a product ``f*g`` is known through ``min(f.prec + v(g), g.prec + v(f))``
  where ``v`` is the valuation (first nonzero exponent);
* the inverse of a series with valuation ``v`` is known through
  ``f.prec - 2*v``.

These rules are also the one working-precision rule of the package: they fix,
before anything is computed, how many exponents a construction loses (a
factor of valuation ``-w < 0`` costs the other factor ``w`` exponents, and
inverting a series of valuation ``v > 0`` costs ``2*v``).  A constructor
works at the requested window plus that loss and ends with
:meth:`QSeries.truncate`, which refuses to extend a window, so a wrong count
raises :class:`PrecisionError` instead of returning a short series.  User
expressions, which have no static valuation, measure the loss on one pass and
widen by it once (:func:`magforms.exprs.evaluate`).

Multiplication is a short product: :func:`_conv_int` returns exactly the
coefficients a product keeps (``mul`` its window, the Newton inverse each
step's half) on the numerators, over the product of the denominators.  It
multiplies by Kronecker substitution at the two points +-2^h: the even- and
odd-index coefficients of each list are packed into one huge integer each,
one coefficient per slot of 2h bits, and the two half-length products are
multiplied with gmpy2 (GMP) when available and with Python ints otherwise;
their sum and difference hold the even and odd coefficients.  The slot width is
bounded by what is read back: the largest bits(a_i) + bits(b_j) over
i + j < n, plus bits(min(la, lb)) + 2.  When one operand's coefficients are
more than four times as wide as the other's, the wide operand is split into
limbs of about twice the narrow width, one narrow product per limb, because
CPython's Karatsuba makes that cheaper than one product padded to the wide
width.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence, Union

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pure-int fallback: same results, several times slower
    _mpz = int


class SeriesError(Exception):
    """Base class for errors raised by the series layer."""


class UsageError(SeriesError):
    """An operation was called with structurally invalid arguments."""


class DomainError(SeriesError):
    """The operation is undefined for this input (e.g. inverting zero)."""


class PrecisionError(SeriesError):
    """A coefficient outside the known window was requested."""


class AntiderivativeError(DomainError):
    """The formal anti-derivative does not exist (nonzero constant term)."""


Scalar = Union[int, Fraction]

_SCHOOLBOOK_CUTOFF = 24
_LOPSIDED_RATIO = 4


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise UsageError(f"not an exact rational: {x!r}")


@contextmanager
def _unlimited_digits():
    """Lift CPython's limit on int/str conversions for the block and restore it
    after: the limit (4300 digits by default since 3.11 and 3.10.7; 3.10.0-3.10.6
    have neither it nor its setter) is below the coefficients of deep windows."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _conv_int(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first *n* coefficients of the product of two integer lists.

    The result is truncated, or padded with zeros, to exactly *n* entries.
    Short operands go through the schoolbook loop; an operand whose largest
    coefficient is much wider than the other's is split into limbs
    (:func:`_conv_split`); everything else is one Kronecker product,
    evaluated at two points.

    Kronecker substitution packs a list into one integer, a coefficient per
    slot of ``width`` bits.  Signed coefficients are packed with an offset of
    2^(width-1) per slot, written as a repeated byte pattern so that no big
    division is needed.  Since |c_k| <= min(la, lb) * max_{i+j=k} |a_i||b_j|,
    a slot of ``max_{i+j<n} (bits(a_i) + bits(b_j)) + bits(min(la, lb)) + 2``
    bits holds every coefficient that is read back; the bound is never below
    either operand's largest bit length + 2, so every input fits its slot too.

    Packing the even-index and the odd-index coefficients apart, E and O, gives
    a(+-2^h) = E +- 2^h O with h = width/2 (Harvey's KS2, J. Symbolic Comput.
    44, 2009): two products P+ and P- of half the length of one.  Exactly,
    (P+ + P-)/2 = sum_m c_2m 2^(width m) and (P+ - P-)/2^(h+1) =
    sum_m c_(2m+1) 2^(width m); each is read modulo 2^(width slots) through
    its ceil(n/2) or floor(n/2) slots, since the slots at and above *n* may
    overflow, but carries and borrows only move upward.  When ``a is b`` both
    evaluations are squared.
    """
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    la, lb = len(a), len(b)
    out = [0] * n
    if not la or not lb:
        return out
    if min(la, lb) <= _SCHOOLBOOK_CUTOFF:
        if la > lb:
            a, b = b, a
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b[: n - i], i):
                    if bj:
                        out[k] += ai * bj
        return out
    abits = [x.bit_length() for x in a]
    bbits = abits if square else [x.bit_length() for x in b]
    amax, bmax = max(abits), max(bbits)
    if amax == 0 or bmax == 0:
        return out
    log = min(la, lb).bit_length()
    if amax > _LOPSIDED_RATIO * (bmax + log):
        return _conv_split(a, abits, b, n, 2 * (bmax + log))
    if bmax > _LOPSIDED_RATIO * (amax + log):
        return _conv_split(b, bbits, a, n, 2 * (amax + log))
    bprefix = list(accumulate(bbits, max))
    need = max(x + bprefix[min(lb, n - i) - 1] for i, x in enumerate(abits)) + log + 2
    nbytes = (need + 7) // 8
    width, h = 8 * nbytes, 4 * nbytes
    off = 1 << (width - 1)
    pattern = bytes(nbytes - 1) + b"\x80"  # little-endian bytes of `off`

    def pack(cs: Sequence[int]):
        raw = b"".join((c + off).to_bytes(nbytes, "little") for c in cs)
        return _mpz(int.from_bytes(raw, "little") - int.from_bytes(pattern * len(cs), "little"))

    def evaluate(cs: Sequence[int]):  # cs(2^h) and cs(-2^h)
        even, odd = pack(cs[0::2]), pack(cs[1::2]) << h
        return even + odd, even - odd

    def read(packed, slots: int) -> list[int]:
        lifted = (packed + int.from_bytes(pattern * slots, "little")) & ((1 << (width * slots)) - 1)
        raw = int(lifted).to_bytes(slots * nbytes, "little")
        return [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") - off for i in range(slots)]

    ap, am = evaluate(a)
    bp, bm = (ap, am) if square else evaluate(b)
    plus, minus = ap * bp, am * bm
    out[0::2] = read((plus + minus) >> 1, (n + 1) // 2)
    out[1::2] = read((plus - minus) >> (h + 1), n // 2)
    return out


def _conv_split(
    a: Sequence[int], abits: Sequence[int], b: Sequence[int], n: int, limb_bits: int
) -> list[int]:
    """:func:`_conv_int` for an *a* much wider than *b*, one limb at a time.

    Each a_i is cut into signed limbs of ``limb_bits`` bits (rounded up to
    whole bytes), a_i = sum_l d_il 2^(K l).  Limb l of every coefficient is
    multiplied by *b* in one narrow product, which starts at the first a_i
    that has such a limb: under geometric growth the low coefficients have no
    high limbs.  The partial products are summed by Horner's rule from the
    top limb down.  Karatsuba makes many narrow products cheaper than one
    wide product whose slots are padded to a_i's width.
    """
    lbytes = (limb_bits + 7) // 8
    k = 8 * lbytes
    counts = [-(-x // k) for x in abits]
    first = []  # first[l]: index of the first coefficient with more than l limbs
    for i, c in enumerate(counts):
        while len(first) < c:
            first.append(i)
    signs = [-1 if x < 0 else 1 for x in a]
    raws = [abs(x).to_bytes(c * lbytes, "little") for x, c in zip(a, counts)]
    out = [0] * n
    for limb in range(len(first) - 1, -1, -1):
        z = first[limb]
        lo, hi = limb * lbytes, (limb + 1) * lbytes
        digits = [s * int.from_bytes(r[lo:hi], "little") for s, r in zip(signs[z:], raws[z:])]
        for i, c in enumerate(_conv_int(digits, b, n - z), z):
            out[i] = (out[i] << k) + c
    return out


class QSeries:
    """A truncated Laurent series with exact rational coefficients.

    ``nums[i] / den`` is the coefficient of ``q**(lead+i)``; the window runs
    from ``lead`` to ``prec`` inclusive, ``den > 0`` and
    ``gcd(den, *nums) == 1``.  ``coeffs`` holds the same coefficients as
    :class:`~fractions.Fraction` values, built on first read.  Instances are
    immutable; every operation returns a fresh series.
    """

    __slots__ = ("lead", "prec", "nums", "den", "_coeffs")

    def __init__(self, lead: int, coeffs: Iterable, prec: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if prec is not None and len(cs) != prec - lead + 1:
            raise UsageError(
                f"coefficient count {len(cs)} does not match window [{lead}, {prec}]"
            )
        den = lcm(*(c.denominator for c in cs))  # clears every denominator
        self._set(lead, [c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, lead: int, nums: Sequence[int], den: int) -> None:
        if not nums:
            raise UsageError("empty window: prec < lead")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "prec", lead + len(nums) - 1)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _of(cls, lead: int, nums: Sequence[int], den: int = 1) -> "QSeries":
        """The series sum nums[i]/den q^(lead+i), reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        self = object.__new__(cls)
        self._set(lead, nums, den)
        return self

    def __setattr__(self, *args):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        return (QSeries._of, (self.lead, self.nums, self.den))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls._of(0, [0] * (prec + 1))

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls._of(0, [1] + [0] * prec)

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1, prec: int | None = None) -> "QSeries":
        if prec is None:
            prec = exponent
        if prec < exponent:
            raise UsageError("prec below the monomial exponent")
        c = _as_fraction(coeff)
        return cls._of(exponent, [c.numerator] + [0] * (prec - exponent), c.denominator)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first read and kept."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(self._fractions()))
        return self._coeffs

    def _fractions(self) -> Iterable[Fraction]:
        return (Fraction(x, self.den) for x in self.nums)

    def coefficient(self, n: int) -> Fraction:
        """Exact coefficient of q**n; raises PrecisionError outside the window."""
        if n < self.lead or n > self.prec:
            raise PrecisionError(
                f"coefficient at q^{n} outside known window [{self.lead}, {self.prec}]"
            )
        return Fraction(self.nums[n - self.lead], self.den)

    def _get(self, n: int) -> Fraction:
        """Coefficient of q**n, using that the series is zero below `lead`.

        Still refuses to read above `prec`, where nothing is known.
        """
        if n > self.prec:
            raise PrecisionError(
                f"coefficient at q^{n} beyond known precision {self.prec}"
            )
        if n < self.lead:
            return Fraction(0)
        return Fraction(self.nums[n - self.lead], self.den)

    def _first_possible_nonzero(self) -> int:
        for i, x in enumerate(self.nums):
            if x:
                return self.lead + i
        return self.prec + 1

    def valuation(self) -> int:
        """Smallest exponent with a nonzero tracked coefficient."""
        v = self._first_possible_nonzero()
        if v > self.prec:
            raise DomainError("valuation of a series that is zero on its window")
        return v

    def is_zero_window(self) -> bool:
        return not any(self.nums)

    def constant_term(self) -> Fraction:
        return self._get(0)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries._of(self.lead, [-x for x in self.nums], self.den)

    def __add__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return linear_combine([(1, self), (1, other)])
        return self + QSeries.monomial(0, _as_fraction(other), max(self.prec, 0))

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return linear_combine([(1, self), (-1, other)])
        return self + (-_as_fraction(other))

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def _scale(self, a: Fraction) -> "QSeries":
        if a == 1:
            return self
        n = a.numerator
        return QSeries._of(self.lead, [n * x for x in self.nums], self.den * a.denominator)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return mul(self, other)
        return self._scale(_as_fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            return mul(self, other.inverse())
        a = _as_fraction(other)
        if a == 0:
            raise DomainError("division by zero scalar")
        return self._scale(1 / a)

    def __pow__(self, n: int) -> "QSeries":
        return pow_int(self, n)

    def inverse(self) -> "QSeries":
        return inv(self)

    # ------------------------------------------------------------------
    # calculus and substitution
    # ------------------------------------------------------------------

    def delta(self) -> "QSeries":
        """Apply q d/dq: multiply the coefficient at q**n by n."""
        return QSeries._of(
            self.lead, [x * n for n, x in enumerate(self.nums, self.lead)], self.den
        )

    def antiderivative(self, order: int = 1) -> "QSeries":
        """Formal anti-derivative (inverse of delta), `order` times.

        The integration constant is fixed to 0.  Raises AntiderivativeError
        when a nonzero constant term blocks the operation.  Each coefficient
        x/(den n**order) is reduced by a gcd with the small den n**order and
        scaled over the lcm of the reduced denominators, so an integral result
        gets den 1 without a gcd over the whole window.
        """
        if order < 1:
            raise UsageError("antiderivative order must be a positive integer")
        if self.lead <= 0 <= self.prec and self.nums[-self.lead]:
            raise AntiderivativeError(
                f"no formal anti-derivative: constant term {self._get(0)} is nonzero"
            )
        reduced = []
        for n, x in enumerate(self.nums, self.lead):
            d = self.den * n**order if x else 1
            g = gcd(x, d)
            reduced.append((x // g, d // g))
        den = lcm(*(d for _, d in reduced))
        out = object.__new__(QSeries)  # in lowest terms already: no _of gcd
        out._set(self.lead, [x * (den // d) for x, d in reduced], den)
        return out

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q**m (exponent n becomes m*n); gaps become zeros."""
        if m < 1:
            raise UsageError("substitute_power requires m >= 1")
        if m == 1:
            return self
        out = [0] * ((len(self.nums) - 1) * m + 1)
        out[::m] = self.nums
        return QSeries._of(self.lead * m, out, self.den)

    # ------------------------------------------------------------------
    # window manipulation
    # ------------------------------------------------------------------

    def truncate(self, new_prec: int) -> "QSeries":
        """Restrict the window to [lead, new_prec]."""
        if new_prec > self.prec:
            raise PrecisionError(
                f"cannot extend window: have prec {self.prec}, asked {new_prec}"
            )
        if new_prec < self.lead:
            raise PrecisionError("truncation below the lead exponent")
        if new_prec == self.prec:
            return self
        return QSeries._of(self.lead, self.nums[: new_prec - self.lead + 1], self.den)

    def restrict(self, lo: int, hi: int) -> "QSeries":
        """Restrict to the window [lo, hi]; lo may sit below lead (zeros)."""
        if hi > self.prec:
            raise PrecisionError("restriction beyond known precision")
        if lo > hi:
            raise UsageError("empty restriction window")
        zeros = [0] * max(min(self.lead, hi + 1) - lo, 0)
        body = self.nums[max(lo - self.lead, 0) : max(hi - self.lead + 1, 0)]
        return QSeries._of(lo, zeros + list(body), self.den)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k (shift all exponents by k)."""
        return QSeries._of(self.lead + k, self.nums, self.den)

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.lead == other.lead
            and self.prec == other.prec
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.lead, self.prec, self.den, self.nums))

    def agrees_with(self, other: "QSeries", lo: int | None = None, hi: int | None = None) -> bool:
        """True when both series agree on the overlap of their windows.

        The overlap may be narrowed with lo/hi; an empty overlap is an error.
        """
        lo_eff = max(self.lead, other.lead) if lo is None else lo
        hi_eff = min(self.prec, other.prec) if hi is None else hi
        if lo_eff > hi_eff:
            raise PrecisionError("series windows do not overlap")
        return self.restrict(lo_eff, hi_eff) == other.restrict(lo_eff, hi_eff)

    # ------------------------------------------------------------------
    # integrality
    # ------------------------------------------------------------------

    def integrality_check(self, p: int | None = None) -> "IntegralityReport":
        """Check coefficient denominators on the window.

        Without *p*: every coefficient must be an integer.  With *p*: the
        prime *p* must not divide any denominator (p-integrality).  The
        coefficient denominators all divide ``den``, so the scan is skipped
        when ``den`` is 1 or, with *p*, prime to *p*.
        """
        den = self.den
        if den != 1 and (p is None or den % p == 0):
            for i, x in enumerate(self.nums):
                d = den // gcd(x, den)
                if (d != 1) if p is None else (d % p == 0):
                    return IntegralityReport(False, p, self.lead + i, d, (self.lead, self.prec))
        return IntegralityReport(True, p, None, None, (self.lead, self.prec))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        with _unlimited_digits():
            coeffs = [str(c) for c in self._fractions()]
        return {"lead": self.lead, "prec": self.prec, "coeffs": coeffs}

    def to_json(self) -> str:
        """Canonical (bit-exact) JSON encoding."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        with _unlimited_digits():
            coeffs = [Fraction(s) for s in d["coeffs"]]
        return cls(int(d["lead"]), coeffs, int(d["prec"]))

    @classmethod
    def from_json(cls, s: str) -> "QSeries":
        return cls.from_json_dict(json.loads(s))

    def __repr__(self):
        parts = []
        for n, c in enumerate(self._fractions(), self.lead):
            if c == 0:
                continue
            with _unlimited_digits():
                parts.append(f"{c}*q^{n}")
            if len(parts) >= 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"QSeries([{self.lead},{self.prec}]: {body})"


@dataclass(frozen=True)
class IntegralityReport:
    """Outcome of an integrality scan over a series window."""

    ok: bool
    prime: int | None
    exponent: int | None
    denominator: int | None
    window: tuple[int, int]

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            kind = "integral" if self.prime is None else f"{self.prime}-integral"
            return f"IntegralityReport(OK: {kind} on {self.window})"
        return (
            f"IntegralityReport(violation at q^{self.exponent}: "
            f"denominator {self.denominator})"
        )


# ----------------------------------------------------------------------
# module-level operations (the functional surface of the series layer)
# ----------------------------------------------------------------------


def linear_combine(terms: Sequence[tuple[Scalar, QSeries]]) -> QSeries:
    """Coefficient-wise rational combination of series.

    The result window is [min lead, min prec] over the inputs; the numerators
    are summed over the lcm of the scaled denominators.
    """
    if not terms:
        raise UsageError("linear_combine requires at least one term")
    lead = min(s.lead for _, s in terms)
    prec = min(s.prec for _, s in terms)
    if prec < lead:
        raise PrecisionError("combination window is empty")
    scaled = [(a, s) for a, s in ((_as_fraction(a), s) for a, s in terms) if a]
    den = lcm(*(a.denominator * s.den for a, s in scaled))
    acc = [0] * (prec - lead + 1)
    for a, s in scaled:
        factor = a.numerator * (den // (a.denominator * s.den))
        base = s.lead - lead
        vals = [x + factor * y for x, y in zip(acc[base:], s.nums)]
        acc[base : base + len(vals)] = vals
    return QSeries._of(lead, acc, den)


def mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product, known through min(f.prec + v(g), g.prec + v(f))."""
    ef = f._first_possible_nonzero()
    eg = g._first_possible_nonzero()
    prec = min(f.prec + eg, g.prec + ef)
    lead = min(ef + eg, prec)
    length = prec - lead + 1
    a = f.nums[ef - f.lead : ef - f.lead + length]
    b = a if g is f else g.nums[eg - g.lead : eg - g.lead + length]
    return QSeries._of(lead, _conv_int(a, b, length), f.den * g.den)


def inv(f: QSeries) -> QSeries:
    """Multiplicative inverse; result window is [-v, f.prec - 2v].

    Newton on the numerators u: if W/D inverts u modulo q^t, then
    u*W = D + q^t H, and W/D - q^t (W*H)/D^2 inverts u modulo q^(2t).  So
    each step reads H off a product of length 2t, reduces H/D to H'/E in
    lowest terms, multiplies W by E, appends the first t coefficients of
    -(W*H') and multiplies D by E: the second product is half as long as
    u*W, and D stays +-1 when u starts with +-1.
    """
    v = f.valuation()  # DomainError for the zero series
    u = f.nums[v - f.lead :]
    w, d = [1], u[0]
    t = 1
    while t < len(u):
        t2 = min(2 * t, len(u))
        h = _conv_int(u[:t2], w, t2)[t:]
        g = gcd(d, *h)
        e, h = d // g, [x // g for x in h]
        w = ([x * e for x in w] if e != 1 else w) + [-x for x in _conv_int(w, h, t2 - t)]
        d *= e
        t = t2
    return QSeries._of(-v, [f.den * x for x in w] if f.den != 1 else w, d)


def pow_int(f: QSeries, n: int) -> QSeries:
    """Integer power by repeated squaring (negative n through inv)."""
    if not isinstance(n, int):
        raise UsageError("pow_int exponent must be an integer")
    if n == 0:
        return QSeries.one(max(f.prec, 0))
    if n < 0:
        return pow_int(inv(f), -n)
    result = None
    base = f
    m = n
    while m:
        if m & 1:
            result = base if result is None else mul(result, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return result


def widest_window(build):
    """Memoise ``build(*key, prec)`` on ``key``, keeping the widest window built.

    A request with ``prec`` in ``[kept.lead, kept.prec]`` is served by
    ``truncate``, which is exact because every coefficient on a window is
    exact; any other request calls ``build``, so its checks still run, and a
    wider result replaces the kept one.  Memory grows with the keys, never
    with the windows asked for.  A builder may go behind this memo only if
    ``build(*key, p) == build(*key, P).truncate(p)``, or both raise the same
    exception class, for every ``p <= P``.
    """
    kept: dict[tuple, QSeries] = {}

    @wraps(build)
    def memo(*args):
        key, prec = args[:-1], args[-1]
        series = kept.get(key)
        if series is not None and series.lead <= prec <= series.prec:
            return series.truncate(prec)
        series = build(*args)
        if key not in kept or series.prec > kept[key].prec:
            kept[key] = series
        return series

    return memo
