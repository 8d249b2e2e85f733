"""Half-integral weight machinery on the Kohnen plus space.

Forms of weight k + 1/2 live on the congruence subgroup of level 4; the plus
space keeps exactly the exponents n with (-1)^k n = 0 or 1 mod 4.  This module
provides:

* :class:`PlusForm`, a series tagged with k whose plus condition is checked on
  construction;
* the operators U_p, V_p, chi_p, T_{p^2} (half-integral weight), the
  integral-weight operator family, the plus projection and T_4' = K+ o T_4;
* the raising operator sending weight k+1/2 to k+5/2;
* the canonical basis elements q^{-m} + O(q), memoised at their widest window,
  as polynomials in j(4tau) times the seeds m < 4: at weights 1/2 and 5/2 every
  element is theta X(4tau) - 6 (delta theta) A(4tau), with X and A of level 1,
  and from weight 7/2 on the seeds come from exact linear algebra over a
  theta/E_{2,4}/Delta(4tau) pool;
* the named weight-1/2 and 5/2 forms used throughout the verification suite,
  as such polynomials in the seeds, and f6half of weight 7/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import isqrt, lcm
from typing import Sequence

from .series import (
    PrecisionError,
    QSeries,
    SeriesError,
    UsageError,
    linear_combine,
    widest_window,
)
from .forms import _monomial, _powers, e24, eisenstein, poly_in_j, quasi_monomial, theta


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


@dataclass(frozen=True)
class PlusForm:
    """A q-series of weight k + 1/2 supported on the plus-space exponents."""

    k: int
    series: QSeries

    def __post_init__(self):
        if self.k < 0:
            raise UsageError("weight parameter k must be nonnegative")
        report = plus_check(self.series, self.k)
        if not report.ok:
            raise PlusSpaceError(
                f"coefficient at q^{report.exponent} violates the plus condition "
                f"for weight {self.k}+1/2"
            )

    def coefficient(self, n: int) -> Fraction:
        return self.series.coefficient(n)

    def truncate(self, prec: int) -> "PlusForm":
        return PlusForm(self.k, self.series.truncate(prec))


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
    """Gauss-Jordan; particular solution with free variables set to zero, or
    None when the system is inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []  # pivots[row] is its column
    for col in range(ncols):
        row = len(pivots)
        sel = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        if len(pivots) == len(aug):
            break
    if any(r[ncols] != 0 for r in aug[len(pivots) :]):
        return None
    solution = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        solution[c] = aug[r][ncols]
    return solution


def _pool_element(a: int, b: int, s: int, prec: int) -> QSeries:
    """theta^a * E_{2,4}^b / Delta(4tau)^s through `prec`, or through its lead
    q^(b - 4s) when that lies above; 1/Delta(4tau)^s, of valuation -4s, costs
    theta^a E_{2,4}^b 4s exponents."""
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

# (k, m) -> the seed f_m's pool coefficients, solved once on a window fixed by k
_POOL_SOLUTIONS: dict[tuple[int, int], list[Fraction]] = {}


def _pool_seed(k: int, m: int, prec: int) -> QSeries:
    """f_m = q^{-m} + O(q), m <= 3, through q^prec, solved on the pool."""
    # (theta power, E_{2,4} power, Delta(4tau) inverse power) of each column
    descriptors = [
        (2 * k + 1 + 24 * s - 4 * b, b, s)
        for s in range(_SEED_S_MAX + 1)
        for b in range((2 * k + 1 + 24 * s) // 4 + 1)
    ]
    solution = _POOL_SOLUTIONS.get((k, m))
    if solution is None:
        bound = 4 * _SEED_S_MAX + 2 * k + 8
        columns = [_pool_element(a, b, s, bound) for (a, b, s) in descriptors]
        # the principal part must be q^-m, and every inadmissible exponent vanish
        exponents = [e for e in range(-4 * _SEED_S_MAX, bound + 1) if e < 1 or not admissible(k, e)]
        rows = [[col._get(e) for col in columns] for e in exponents]
        solution = _solve_particular(rows, [Fraction(int(e == -m)) for e in exponents])
        if solution is None:
            raise BasisError(
                f"basis element q^-{m} (k={k}) not found: pool with "
                f"s_max={_SEED_S_MAX} cannot represent q^-{m}"
            )
        _POOL_SOLUTIONS[k, m] = solution
    return linear_combine(
        [(c, _pool_element(a, b, s, prec)) for c, (a, b, s) in zip(solution, descriptors) if c]
    )


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


# k -> {m: {seed r: ascending coefficients of P_r}}, f_m = sum_r P_r(j(4tau)) f_r, grown on demand
_J_POLYS: dict[int, dict] = {}


def _poly_sum(*polys) -> list:
    """The sum of ascending coefficient lists, with no zero top coefficient."""
    out = [sum(cs) for cs in zip_longest(*polys, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _j_polys(k: int, m: int) -> dict:
    """{r: P_r} with f_m = sum_r P_r(j(4tau)) f_r over the seeds f_r, r < 4.  For
    m = 4i + r, f_m is j(4tau)^i f_r minus c_n f_n for each n < m, c_n its
    coefficient at q^-n (f_r through q^(4i) gives them).  The leads q^(-4i-r)
    differ, so this is the only such sum with principal part q^-m: f_(m-4) j(4tau)
    corrected by lower elements is the same."""
    rows = {r: {r: [1]} for r in _admissible_pole_orders(k, 3)}
    table = _J_POLYS.setdefault(k, dict(rows))
    if m in table:
        return table[m]
    seeds = {r: _element(k, r, m) for r in rows}
    js = _powers(_monomial(0, 3, 0, -1, m // 4), m // 4)  # j^i through q^(m // 4 - i + 1)
    for n in _admissible_pole_orders(k, m):
        if n in table:
            continue
        i, r = divmod(n, 4)
        # (j^i)(4tau) through q^4 or beyond, times f_r through q^(4i), reaches q^0
        part = (js[i].substitute_power(4) * seeds[r].truncate(4 * i)).truncate(0)
        terms = [(-part._get(-n2), polys) for n2, polys in table.items()] + [(1, {r: [0] * i + [1]})]
        table[n] = {
            g: _poly_sum(*([c * x for x in ps.get(g, ())] for c, ps in terms if c)) for g in rows
        }
    return table[m]


def _theta_sums(x: QSeries, a: QSeries, prec: int) -> QSeries:
    """theta X(4tau) - 6 (delta theta) A(4tau) through q^prec, for X and A of
    level 1 through q^(prec // 4): with theta = 1 + 2 sum q^(s^2), each product
    is isqrt(prec) shifted sums, and X(4tau), A(4tau) vanish off multiples of 4."""
    lo = min(x.lead, a.lead)
    x, a = x.restrict(lo, prec // 4), a.restrict(lo, prec // 4)
    den = lcm(x.den, a.den)
    xs, As = ([v * (den // f.den) for v in f.nums] for f in (x, a))
    out = [0] * (prec - 4 * lo + 1)
    for s in range(isqrt(prec - 4 * lo) + 1):
        t, u = (2, 12 * s * s) if s else (1, 0)  # theta and -6 delta theta at q^(s^2)
        out[s * s :: 4] = [o + t * v - u * w for o, v, w in zip(out[s * s :: 4], xs, As)]
    return QSeries._of(4 * lo, out, den)


def _theta_form(k: int, row: dict, prec: int) -> QSeries:
    """P_0(j(4tau)) f_0 + P_3(j(4tau)) f_3 of weight 1/2 or 5/2, row = {0: P_0, 3: P_3},
    as theta (Y + E2 A)(4tau) - 6 (delta theta) A(4tau) on [-4d, prec], d the top
    degree in j, with Y and A of level 1.  At k = 0, f_0 = theta and f_3 = h0:
    Y = P_0 + P_3 (j - 1056)/12, A = -P_3 E4 E6/(12 Delta).  At k = 2, f_0 = g0 and
    f_3 = 56 g0 + (g1 - j g0)/12 with g1 = theta (-delta j)(4tau): A = P_0 +
    P_3 (56 - j/12), Y = -delta C(j)/12 with C' = P_3, so only j needs an inverse."""
    p, r = row.get(0, []), row.get(3, [])
    w = prec // 4
    if k == 0:
        ap = [Fraction(x, -12) for x in r]
        yp = _poly_sum(p, [-88 * x for x in r], [0] + [Fraction(x, 12) for x in r])
        d = max(len(yp), len(r) + 1) - 1  # Y, P_3(j) E4 E6/Delta and E2 A reach q^w
    else:
        ap = _poly_sum(p, [56 * x for x in r], [0] + [Fraction(-x, 12) for x in r])
        yp = [0] + [Fraction(x, -12 * (i + 1)) for i, x in enumerate(r)]  # -C/12
        d = max(len(ap), len(yp)) - 1  # A(j), C(j) and E2 A(j) reach q^w
    js = _powers(_monomial(0, 3, 0, -1, w + d), max(len(ap), len(yp)) - 1)
    a, y = (linear_combine(list(zip(cs, js))) for cs in (ap or [0], yp))
    if k == 0:
        a = a * quasi_monomial(0, 1, 1, w + d - 1, -1) if r else QSeries.zero(w)
    return _theta_sums(eisenstein(2, w + d) * a + (y if k == 0 else y.delta()), a, prec)


@widest_window
def _element(k: int, m: int, prec: int) -> QSeries:
    """The basis element q^-m + O(q) through q^prec: sum_r P_r(j(4tau)) f_r over
    the seeds, in theta form at k = 0 and 2; at k >= 3 the seeds are pool solves."""
    if k in (0, 2):
        series = _theta_form(k, _j_polys(k, m), prec)
    elif m < 4:
        series = _pool_seed(k, m, prec)
    else:
        terms = []
        for r, p in _j_polys(k, m).items():
            d = len(p) - 1  # f_r has valuation -r and P(j(4tau)) -4d: each costs the other
            if d > 0:
                pj = at_4tau(lambda w: poly_in_j(p, _monomial(0, 3, 0, -1, w + d - 1)), prec + r)
                terms.append((1, _element(k, r, prec + 4 * d) * pj))
            elif p:
                terms.append((p[0], _element(k, r, prec)))
        series = linear_combine(terms).truncate(prec)
    _validate_shape(k, m, series)
    return series.restrict(-m, prec)


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
            "weight 3/2 (k = 1) has no basis: the j(4tau) polynomials multiply the "
            "seeds 1 + O(q) and q^-1 + O(q), and neither exists in weight 3/2"
        )
    if prec < 0:
        raise PrecisionError("the seed 1 + O(q) needs a window through q^0")
    # the highest order first, so one extension of the j-polynomial table serves all
    elements = {m: _element(k, m, prec) for m in sorted(m_list, reverse=True)}
    # pinned in the basis outputs: 0 at k = 2, else the pool size (k = 0 solves nothing on it)
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


# name -> (k, {seed r: P_r}) of the weight-1/2 and 5/2 forms sum_r P_r(j(4tau)) f_r
_NAMED_ROWS = {
    "g0": (2, {0: [1]}),
    "g1": (2, {0: [-672, 1], 3: [12]}),
    "g2": (2, {0: [0, 1]}),
    "f4a": (2, {3: [Fraction(1, 64)]}),
    "f4b": (2, {0: [Fraction(337, 54), Fraction(-1, 108)], 3: [Fraction(-5, 54)]}),
    "h0": (0, {3: [1]}),
}

PLUS_FORM_NAMES = frozenset(_NAMED_ROWS) | {"f6half"}


def named_plus_form(name: str, prec: int) -> PlusForm:
    """The named weight-1/2 and 5/2 forms, plus f6half of weight 7/2."""
    if name == "f6half":  # built through q^3 at least, the window the exact scale is read on
        f1 = plus_basis(3, [1], max(prec, 3))[1].series
        return PlusForm(3, (f1 * f6half_scale()).truncate(prec))
    if name not in _NAMED_ROWS:
        raise UsageError(f"unknown plus form {name!r}")
    k, row = _NAMED_ROWS[name]
    series = _theta_form(k, row, prec)
    # h0's window starts at its lead q^-3 (or at q^prec below it), the others' at q^-4d
    return PlusForm(k, series.restrict(min(-3, prec), prec) if name == "h0" else series)


def f6half_scale() -> Fraction:
    """The normalising scalar applied to the weight 7/2 basis element."""
    a3 = plus_basis(3, [1], 3)[1].series.coefficient(3)
    if a3 == 0:
        raise BasisError("cannot normalise f6half: vanishing q^3 coefficient")
    return Fraction(1) / a3
