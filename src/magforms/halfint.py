"""Half-integral weight machinery on the Kohnen plus space.

Forms of weight k + 1/2 live on the congruence subgroup of level 4; the plus
space keeps exactly the exponents n with (-1)^k n = 0 or 1 mod 4.  This module
provides:

* :class:`PlusForm`, a series tagged with k whose plus condition is checked on
  construction;
* the operators U_p, V_p, chi_p, T_{p^2} (half-integral weight), the
  integral-weight operator family, the plus projection and T_4' = K+ o T_4;
* the raising operator sending weight k+1/2 to k+5/2;
* construction of the canonical basis elements q^{-m} + O(q) by exact linear
  algebra over a theta/E_{2,4}/Delta(4tau) pool, extended to deep poles by
  j(4tau) multiplication, each element memoised at its widest window;
* the named weight-1/2 and 5/2 forms used throughout the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .series import (
    PrecisionError,
    QSeries,
    SeriesError,
    UsageError,
    linear_combine,
    widest_window,
)
from .forms import _j, e24, eisenstein, quasi_monomial, theta


class PlusSpaceError(SeriesError):
    """A series violates the plus-space support condition."""


class BasisError(SeriesError):
    """The basis construction could not produce the requested element."""


def admissible(k: int, n: int) -> bool:
    """True when the exponent n may carry a nonzero coefficient."""
    r = n % 4 if k % 2 == 0 else (-n) % 4
    return r in (0, 1)


@dataclass(frozen=True)
class PlusReport:
    ok: bool
    exponent: int | None
    window: tuple[int, int]

    def __bool__(self):
        return self.ok


def plus_check(series: QSeries, k: int) -> PlusReport:
    """Verify the parity-dependent vanishing, one residue class mod 4 at a time."""
    lo, hi, nums = series.lead, series.prec, series.nums
    bad = [
        next(n for n in range(start, hi + 1, 4) if nums[n - lo])
        for start in range(lo, min(lo + 4, hi + 1))
        if not admissible(k, start) and any(nums[start - lo :: 4])
    ]
    return PlusReport(not bad, min(bad, default=None), (lo, hi))


class PlusForm:
    """A q-series of weight k + 1/2 supported on the plus-space exponents."""

    __slots__ = ("k", "series")

    def __init__(self, k: int, series: QSeries):
        if k < 0:
            raise UsageError("weight parameter k must be nonnegative")
        report = plus_check(series, k)
        if not report.ok:
            raise PlusSpaceError(
                f"coefficient at q^{report.exponent} violates the plus condition "
                f"for weight {k}+1/2"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "series", series)

    def __setattr__(self, *args):
        raise AttributeError("PlusForm is immutable")

    def __reduce__(self):
        return (PlusForm, (self.k, self.series))

    def coefficient(self, n: int) -> Fraction:
        return self.series.coefficient(n)

    def truncate(self, prec: int) -> "PlusForm":
        return PlusForm(self.k, self.series.truncate(prec))

    def __eq__(self, other):
        if not isinstance(other, PlusForm):
            return NotImplemented
        return self.k == other.k and self.series == other.series

    def __hash__(self):
        return hash((self.k, self.series))

    def __repr__(self):
        return f"PlusForm(k={self.k}, {self.series!r})"


# ----------------------------------------------------------------------
# characters
# ----------------------------------------------------------------------


def kronecker(d: int, D: int) -> int:
    """The symbol (d|D) for the two discriminants used by the lifts."""
    if d < 1:
        raise UsageError("kronecker symbol is used with d >= 1 here")
    if D == 1:
        return 1
    if D == -3:
        return _legendre(d, 3)
    raise UsageError(f"unsupported discriminant {D}")


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _kronecker_two(a: int) -> int:
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def chi_symbol(n: int, p: int, k: int) -> int:
    """The twist character value ((-1)^k n | p)."""
    a = -n if k % 2 else n
    if p == 2:
        return _kronecker_two(a)
    return _legendre(a, p)


# ----------------------------------------------------------------------
# elementary operators on raw series
# ----------------------------------------------------------------------


def u_p(f: QSeries, p: int) -> QSeries:
    """a(n) -> a(np); the window shrinks by a factor p."""
    if p < 2:
        raise UsageError("u_p needs p >= 2")
    lo = -((-f.lead) // p)
    hi = f.prec // p
    if hi < lo:
        raise PrecisionError(f"window too small for U_{p}")
    return QSeries._of(lo, f.nums[lo * p - f.lead : hi * p - f.lead + 1 : p], f.den)


def v_p(f: QSeries, p: int) -> QSeries:
    """Exponent n -> np (substitution q -> q^p)."""
    return f.substitute_power(p)


def chi_p(f: QSeries, p: int, k: int) -> QSeries:
    """a(n) -> ((-1)^k n | p) a(n); the window is unchanged."""
    return QSeries._of(
        f.lead, [chi_symbol(n, p, k) * x for n, x in enumerate(f.nums, f.lead)], f.den
    )


def kohnen_project(f: QSeries, k: int) -> QSeries:
    """Zero out the coefficients at inadmissible exponents."""
    return QSeries._of(
        f.lead, [x if admissible(k, n) else 0 for n, x in enumerate(f.nums, f.lead)], f.den
    )


def t_p2_series(f: QSeries, k: int, p: int) -> QSeries:
    """f|T_{p^2} = f|U_{p^2} + p^(k-1) f|chi_p + p^(2k-1) f|V_{p^2}."""
    if p < 2:
        raise UsageError("T_{p^2} needs a prime p >= 2")
    return linear_combine(
        [
            (1, u_p(f, p * p)),
            (Fraction(p) ** (k - 1), chi_p(f, p, k)),
            (Fraction(p) ** (2 * k - 1), v_p(f, p * p)),
        ]
    )


def t_p2(f: PlusForm, p: int) -> PlusForm:
    """Half-integral weight Hecke operator at an odd prime."""
    if p % 2 == 0:
        raise UsageError("use t4_prime for p = 2")
    return PlusForm(f.k, t_p2_series(f.series, f.k, p))


def big_t_p(F: QSeries, twok: int, p: int) -> QSeries:
    """Integral-weight operator F|U_p + p^(twok-1) F|V_p."""
    if twok % 2:
        raise UsageError("twok must be even")
    return linear_combine([(1, u_p(F, p)), (Fraction(p) ** (twok - 1), v_p(F, p))])


def t4_prime(f: PlusForm) -> PlusForm:
    """T_4' = K+ composed with T_4; maps the plus space onto itself."""
    raw = t_p2_series(f.series, f.k, 2)
    return PlusForm(f.k, kohnen_project(raw, f.k))


# ----------------------------------------------------------------------
# raising operator
# ----------------------------------------------------------------------


def raising(f: PlusForm) -> PlusForm:
    """delta f - ((2k+1)/6) E2(4tau) f, of weight (k+2) + 1/2."""
    s = f.series
    # a lead -w < 0 of f costs E2(4tau) w exponents
    e2_4 = at_4tau(lambda p: eisenstein(2, p), s.prec - min(s.lead, 0))
    out = linear_combine([(1, s.delta()), (Fraction(-(2 * f.k + 1), 6), e2_4 * s)])
    return PlusForm(f.k + 2, out)


# ----------------------------------------------------------------------
# exact linear algebra over the theta / E_{2,4} / Delta(4tau) pool
# ----------------------------------------------------------------------


def _solve_particular(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gauss-Jordan; particular solution with free variables set to zero."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(ncols):
        sel = next((r for r in range(row, nrows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if aug[r][ncols] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * ncols
    for r, c in pivots:
        solution[c] = aug[r][ncols]
    return solution


def _pool_descriptors(k: int, s_max: int) -> list[tuple[int, int, int]]:
    """(theta power, e24 power, delta4 inverse power) column descriptors."""
    out = []
    for s in range(s_max + 1):
        top = (2 * k + 1 + 24 * s) // 4
        for b in range(top + 1):
            a = 2 * k + 1 + 24 * s - 4 * b
            out.append((a, b, s))
    return out


def _pool_element(a: int, b: int, s: int, prec: int) -> QSeries:
    """theta^a * E_{2,4}^b / Delta(4tau)^s through `prec`, or through its lead
    q^(b - 4s) when that lies above.

    1/Delta(4tau)^s has valuation -4s, so it costs theta^a E_{2,4}^b 4s
    exponents.
    """
    prec = max(prec, b - 4 * s)
    work = prec + 4 * s
    out = theta(work) ** a
    if b:
        out = out * e24(work) ** b
    if s:
        out = out * at_4tau(lambda p: quasi_monomial(0, 0, 0, p, -s), prec)
    return out.truncate(prec)


# Pool size of every seed solve: it represents each seed q^-m + O(q), m <= 3,
# that exists for k = 0 and 3..7; at k = 1 the m = 0 seed does not exist.
_SEED_S_MAX = 3


def _seed_combination(k: int, m: int):
    """Solve for f_m = q^{-m} + O(q) on the pool; returns descriptor weights."""
    s_max = _SEED_S_MAX
    bound = 4 * s_max + 2 * k + 8
    descriptors = _pool_descriptors(k, s_max)
    columns = [_pool_element(a, b, s, bound) for (a, b, s) in descriptors]
    # the principal part must be q^-m, and every inadmissible exponent vanish
    exponents = [e for e in range(-4 * s_max, bound + 1) if e <= 0 or not admissible(k, e)]
    rows = [[col._get(e) for col in columns] for e in exponents]
    solution = _solve_particular(rows, [Fraction(int(e == -m)) for e in exponents])
    if solution is None:
        return None
    return [
        (coeff, desc) for coeff, desc in zip(solution, descriptors) if coeff != 0
    ]


def _build_seed(k: int, m: int, prec: int) -> QSeries:
    """Construct the basis element f_m (m <= 3) through q^prec."""
    combo = _seed_combination(k, m)
    if combo is None:
        raise BasisError(
            f"basis element q^-{m} (k={k}) not found: pool with "
            f"s_max={_SEED_S_MAX} cannot represent q^-{m}"
        )
    series = linear_combine(
        [(coeff, _pool_element(a, b, s, prec)) for coeff, (a, b, s) in combo]
    ).restrict(-m, prec)
    _validate_shape(k, m, series)
    return series


def _validate_shape(k: int, m: int, series: QSeries) -> None:
    for e, x in enumerate(series.nums[: 1 - series.lead], series.lead):
        if x != (series.den if e == -m else 0):
            raise BasisError(
                f"element q^-{m}: coefficient {series._get(e)} at q^{e}, "
                f"expected {int(e == -m)}"
            )
    rep = plus_check(series, k)
    if not rep.ok:
        raise BasisError(f"element q^-{m}: plus violation at q^{rep.exponent}")
    integ = series.integrality_check()
    if not integ.ok:
        raise BasisError(
            f"element q^-{m}: non-integral coefficient at q^{integ.exponent}"
        )


@dataclass(frozen=True)
class PlusBasis:
    k: int
    elements: dict[int, PlusForm]
    pool_s_max: int

    def __getitem__(self, m: int) -> PlusForm:
        return self.elements[m]


def _admissible_pole_orders(k: int, max_m: int) -> list[int]:
    return [m for m in range(max_m + 1) if admissible(k, -m)]


@widest_window
def _element(k: int, m: int, prec: int) -> QSeries:
    """The basis element q^-m + O(q) through q^prec: a seed for m < 4, else
    f_(m-4) j(4tau) with integral corrections by the lower elements."""
    if m < 4:
        if k == 2 and m == 0:
            return _g0_series(prec)
        if k == 2 and m == 3:
            series = _g_combination("f3", prec).restrict(-3, prec)
            _validate_shape(2, 3, series)
            return series
        return _build_seed(k, m, prec)
    # f_(m-4) has valuation 4-m and j(4tau) valuation -4, so each factor
    # costs the other 4 and m-4 exponents
    product = _element(k, m - 4, prec + 4) * at_4tau(_j, prec + m - 4)
    # each element q^-m2 + O(q) vanishes at q^-m3 for m3 < m2, so every
    # correction scalar can be read off the raw product; the highest order
    # goes first, so the lower ones are truncations of its chain
    terms = [(1, product)] + [
        (-product._get(-m2), _element(k, m2, prec))
        for m2 in reversed(_admissible_pole_orders(k, m - 1))
        if product._get(-m2)
    ]
    series = linear_combine(terms).restrict(-m, prec)
    _validate_shape(k, m, series)
    return series


def plus_basis(k: int, m_list: Sequence[int], prec: int) -> PlusBasis:
    """Basis elements q^{-m} + O(q) for each requested pole order."""
    if k < 0:
        raise UsageError(f"weight parameter k must be >= 0, got {k}")
    if not m_list:
        raise UsageError("empty pole-order list")
    for m in m_list:
        if m < 0:
            raise UsageError("pole orders must be nonnegative")
        if not admissible(k, -m):
            raise UsageError(
                f"pole order {m} is not admissible for weight {k}+1/2"
            )
    if k == 1:
        raise BasisError(
            "weight 3/2 (k = 1) has no basis: the j(4tau) ladder starts from the "
            "seeds 1 + O(q) and q^-1 + O(q), and neither exists in weight 3/2"
        )
    if prec < 0:
        raise PrecisionError("the seed 1 + O(q) needs a window through q^0")
    # the highest order first, so the lower ones are truncations of its chain
    elements = {m: _element(k, m, prec) for m in sorted(m_list, reverse=True)}
    # weight 5/2 takes its seeds from g0 and f3, not from the pool
    pool_s_max = 0 if k == 2 else _SEED_S_MAX
    return PlusBasis(k, {m: PlusForm(k, elements[m]) for m in m_list}, pool_s_max)


# ----------------------------------------------------------------------
# named forms
# ----------------------------------------------------------------------


def at_4tau(build, prec: int) -> QSeries:
    """Every factor at 4tau: build(p), a series of level 1, through q^ceil(prec/4),
    substituted q -> q^4 once, so its inverses and products run at a quarter of
    the length; the window reaches q^prec or a little further."""
    return build(-(-prec // 4)).substitute_power(4)


# The named generators are not memoised, so a lift or congruence request costs
# the same whatever ran before it; plus_basis memoises its seeds in _element.
def _g0_series(prec: int) -> QSeries:
    th = theta(prec)
    return (th * (th**4 - 20 * e24(prec))).truncate(prec)


# g1, g2 and h0 each carry one factor at 4tau of valuation -4, a monomial
# with Delta^-1 or j, which costs their other factors 4 exponents.
def _g1_series(prec: int) -> QSeries:
    """theta (E4^2 E6 / Delta)(4tau)."""
    m4 = at_4tau(lambda p: quasi_monomial(0, 2, 1, p, -1), prec)
    return (theta(prec + 4) * m4).truncate(prec)


def _g2_series(prec: int, g0: QSeries | None = None) -> QSeries:
    """g0 j(4tau); pass *g0* if it is already built through prec + 4."""
    g0 = _g0_series(prec + 4) if g0 is None else g0
    return (g0 * at_4tau(_j, prec)).truncate(prec)


def _h0_series(prec: int) -> QSeries:
    """f theta (theta^4 - 2f)(theta^4 - 16f) (E6/Delta)(4tau) + 56 theta, f = E_{2,4}."""
    work = prec + 4
    th = theta(work)
    f = e24(work)
    m4 = at_4tau(lambda p: quasi_monomial(0, 0, 1, p, -1), prec)
    main = f * th * (th**4 - 2 * f) * (th**4 - 16 * f) * m4
    return (main + 56 * th).truncate(prec)


# the weight 5/2 combinations of g0, g1 and g2; f3 is the basis element
# q^-3 + O(q), which plus_basis serves
_G_COMBINATIONS = {
    "f3": (56, Fraction(1, 12), Fraction(-1, 12)),
    "f4a": (Fraction(7, 8), Fraction(1, 768), Fraction(-1, 768)),
    "f4b": (Fraction(19, 18), Fraction(-5, 648), Fraction(-1, 648)),
}


def _g_combination(name: str, prec: int) -> QSeries:
    g0 = _g0_series(prec + 4)  # g2 needs it there; the combination stops at prec
    gens = (g0, _g1_series(prec), _g2_series(prec, g0))
    return linear_combine(list(zip(_G_COMBINATIONS[name], gens)))


def _f6half_series(prec: int) -> QSeries:
    # built through q^3 at least, the window the exact scale is read on
    f1 = plus_basis(3, [1], max(prec, 3))[1].series
    return (f1 * f6half_scale(3)).truncate(prec)


# name -> (k, builder) for every name named_plus_form accepts
_NAMED_BUILDERS = {
    "g0": (2, _g0_series),
    "g1": (2, _g1_series),
    "g2": (2, _g2_series),
    "h0": (0, _h0_series),
    "f4a": (2, lambda prec: _g_combination("f4a", prec)),
    "f4b": (2, lambda prec: _g_combination("f4b", prec)),
    "f6half": (3, _f6half_series),
}
PLUS_FORM_NAMES = frozenset(_NAMED_BUILDERS)


def named_plus_form(name: str, prec: int) -> PlusForm:
    """The named weight-1/2 and 5/2 forms, plus f6half of weight 7/2."""
    if name not in _NAMED_BUILDERS:
        raise UsageError(f"unknown plus form {name!r}")
    k, builder = _NAMED_BUILDERS[name]
    return PlusForm(k, builder(prec))


def f6half_scale(prec: int = 60) -> Fraction:
    """The normalising scalar applied to the weight 7/2 basis element."""
    a3 = plus_basis(3, [1], max(prec, 3))[1].series.coefficient(3)
    if a3 == 0:
        raise BasisError("cannot normalise f6half: vanishing q^3 coefficient")
    return Fraction(1) / a3
