"""Constructors for the classical q-expansions: Eisenstein series, the
discriminant cusp form, the theta series, the level-4 weight-2 form E_{2,4},
the monomials E2^a E4^b E6^c Delta^d (j, F4a, F4b and F6 among them), the
j-quotients E4^e num(j)/den(j)^p and the named forms of the verification suite.

Every constructor returns a series whose window is exactly [lead, prec] for
the requested prec.  Working precision follows one rule, read off the
valuation rules in :mod:`magforms.series`: a constructor works at the
requested window plus the exponents its factors lose, and the final
``truncate``, which refuses to extend a window, checks that the window was
reached.  A monomial with Delta^-s loses s exponents.  A j-quotient
E4^e num(j)/den(j)^p is built homogenised, as E4^e Delta^s N/D^p with N and D
polynomials in E4^3 and Delta and s = p deg(den) - deg(num): D has valuation 0
and Delta^s valuation s, so N and 1/D^p are needed through q^(prec - s) only.

Every expansion is memoised at the widest window built so far
(:func:`magforms.series.widest_window`); narrower windows are truncations.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import isqrt

from .series import PrecisionError, QSeries, UsageError, linear_combine, mul, widest_window


class FormName(enum.Enum):
    E2 = "E2"
    E4 = "E4"
    E6 = "E6"
    DELTA = "Delta"
    J = "j"
    THETA = "theta"
    E24 = "E24"
    F4A = "F4a"
    F4B = "F4b"
    F6 = "F6"
    LS8 = "LS8"
    TRIPLE8 = "Triple8"
    HK_NUM1 = "HK_num1"
    HK_NUM2 = "HK_num2"


_EIS_CONSTANTS = {2: -24, 4: 240, 6: -504}


def _sigma_sieve(power: int, limit: int) -> tuple[int, ...]:
    """sigma_power(n) for n = 0..limit (index 0 unused, kept 0)."""
    sums = [0] * (limit + 1)
    for d in range(1, limit + 1):
        dk = d**power
        for n in range(d, limit + 1, d):
            sums[n] += dk
    return tuple(sums)


@widest_window
def eisenstein(k: int, prec: int) -> QSeries:
    """E_k = 1 + c_k sum sigma_{k-1}(n) q^n for k in {2, 4, 6}."""
    if k not in _EIS_CONSTANTS:
        raise UsageError(f"unsupported Eisenstein weight {k}; expected 2, 4 or 6")
    if prec < 0:
        raise UsageError("prec must be >= 0")
    c = _EIS_CONSTANTS[k]
    sig = _sigma_sieve(k - 1, prec)
    return QSeries._of(0, [1] + [c * sig[n] for n in range(1, prec + 1)])


def _eta_cube(prec: int) -> QSeries:
    """prod (1-q^m)^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}."""
    coeffs = [0] * (prec + 1)
    k = 0
    while k * (k + 1) // 2 <= prec:
        coeffs[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return QSeries._of(0, coeffs)


@widest_window
def discriminant(prec: int) -> QSeries:
    """Delta = q prod (1-q^m)^24 = q (eta^3)^8."""
    if prec < 1:
        raise UsageError("prec must be >= 1 for Delta")
    j3 = _eta_cube(prec)
    return (((j3 * j3) * (j3 * j3)) ** 2).shift(1).truncate(prec)


def j_invariant(prec: int) -> QSeries:
    """j = E4^3 / Delta, with lead exponent -1."""
    # the check stays outside the memo: j at q^0 would truncate the kept
    # series, where j_invariant(0) raises
    if prec < 1:
        raise UsageError("prec must be >= 1 for j")
    return _monomial(0, 3, 0, -1, prec)


@widest_window
def theta(prec: int) -> QSeries:
    """theta = 1 + 2 sum_{n>=1} q^{n^2}."""
    if prec < 0:
        raise UsageError("prec must be >= 0")
    coeffs = [0] * (prec + 1)
    coeffs[0] = 1
    for n in range(1, isqrt(prec) + 1):
        coeffs[n * n] = 2
    return QSeries._of(0, coeffs)


@widest_window
def e24(prec: int) -> QSeries:
    """The weight-2 form on level 4: sum over odd n of sigma_1(n) q^n,
    which is (-E2(q) + 3 E2(q^2) - 2 E2(q^4))/24."""
    if prec < 0:
        raise UsageError("prec must be >= 0")
    sig = _sigma_sieve(1, prec)
    return QSeries._of(0, [0] + [sig[n] if n % 2 else 0 for n in range(1, prec + 1)])


def _level1(i: int, work: int) -> QSeries:
    """E2, E4, E6 or Delta/q (i = 0, 1, 2, 3) through q^work."""
    return discriminant(work + 1).shift(-1) if i == 3 else eisenstein(2 * i + 2, work)


@widest_window
def _inverse_part(b: int, c: int, s: int, work: int) -> QSeries:
    """1/(E4^b E6^c (Delta/q)^s) through q^work (b, c, s >= 0, not all 0), one
    Newton inverse per exponent triple: a power of a kept 1/E4 costs more than
    the inverse of E4^b.  The product has valuation 0, so its inverse is exact
    on [0, work]."""
    return reduce(mul, [_level1(i, work) ** e for i, e in enumerate((0, b, c, s)) if e]).inverse()


def quasi_monomial(a: int, b: int, c: int, prec: int, d: int = 0) -> QSeries:
    """The monomial E2^a E4^b E6^c Delta^d on the window [d, prec]: with
    Delta = q (Delta/q), q^d times a series of valuation 0 through q^(prec - d),
    so Delta^-s costs the other factors s exponents.  The positive powers are
    multiplied first, while their coefficients are small, then the kept inverse
    of the product of the negative ones (:func:`_inverse_part`)."""
    if a < 0:
        raise UsageError("the E2 exponent must be nonnegative")
    if 0 <= prec < d:
        raise PrecisionError(f"the monomial starts at q^{d}, above q^{prec}")
    return _monomial(a, b, c, d, prec)


@widest_window
def _monomial(a: int, b: int, c: int, d: int, prec: int) -> QSeries:
    """:func:`quasi_monomial` without its argument checks, kept per exponent
    tuple at its widest window (the entry (0, 3, 0, -1) is j)."""
    work = prec - d
    exponents = (a, b, c, d)
    factors = [_level1(i, work) ** e for i, e in enumerate(exponents) if e > 0]
    if min(exponents) < 0:
        factors.append(_inverse_part(*(max(-e, 0) for e in exponents[1:]), work))
    return (reduce(mul, factors) if factors else QSeries.one(work)).shift(d).truncate(prec)


def _powers(x: QSeries, d: int) -> list:
    """[1, x, ..., x^d], each power the previous one times x; the 1 is the series
    one through max(x.prec, 0), a term for a combination, never a factor."""
    return [QSeries.one(max(x.prec, 0))] + list(accumulate([x] * d, mul))


def poly_in_j(coeffs_ascending, j: QSeries) -> QSeries:
    """sum c_i j^i (integer or Fraction c_i) at the j series, one combination over
    the powers of j, so degree d >= 1 loses d - 1 exponents of j."""
    return linear_combine(list(zip(coeffs_ascending, _powers(j, len(coeffs_ascending) - 1))))


def _homogenise(coeffs, work: int) -> QSeries:
    """Delta^deg P(j) = sum c_i E4^(3i) Delta^(deg - i) through q^work, for P = sum c_i j^i
    of degree deg, from powers of E4^3 and of Delta; terms with deg - i > work vanish."""
    deg = len(coeffs) - 1
    e4s = _powers(_monomial(0, 3, 0, 0, work), deg)
    deltas = _powers(discriminant(work + 1), min(deg, work))  # Delta needs q^1, even at work 0
    terms = [(coeffs[deg], e4s[deg])]
    for i in range(max(deg - work, 0), deg):
        terms.append((coeffs[i], deltas[deg - i] * e4s[i] if i else deltas[deg]))
    return linear_combine(terms)


@widest_window
def _den_inverse(den: tuple, p: int, work: int) -> QSeries:
    """1/(Delta^deg den(j))^p through q^work >= 0, kept per denominator: the
    constant term is den's top coefficient, so the inverse is exact on [0, work]."""
    return (_homogenise(den, work) ** p).inverse()


def j_quotient(e4_power: int, num, den, den_power: int, prec: int) -> QSeries:
    """E4^e4_power num(j) / den(j)^den_power through q^prec, for integer polynomials
    num, den in j (ascending, den's top coefficient nonzero) with den_power deg(den)
    >= deg(num), as E4^e4_power Delta^s N / D^den_power (module docstring)."""
    s = den_power * (len(den) - 1) - (len(num) - 1)
    if not num or not den or not den[-1] or s < 0:
        raise UsageError("j_quotient: num empty, den's top coefficient 0, or p deg(den) < deg(num)")
    if prec < s:
        raise PrecisionError(f"the j-quotient starts at q^{s}, above q^{prec}")
    out = quasi_monomial(0, e4_power, 0, prec, s) * _homogenise(num, prec - s)
    return (out * _den_inverse(tuple(den), den_power, prec - s)).truncate(prec)


# (E2, E4, E6, Delta) exponents of the named monomials
_MONOMIAL_FORMS = {
    FormName.F4A: (0, -2, 0, 1),
    FormName.F4B: (0, 1, -2, 1),
    FormName.F6: (0, -3, 1, 1),
}


# (E4 power, numerator in j, denominator in j, denominator power)
_J_FORM_DATA = {
    FormName.LS8: (2, (-3 * 2**10, 1), (0, 1), 2),
    FormName.TRIPLE8: (
        2,
        (-98280 * 15**6, 1610452125, -443556, 13),
        (15**3, 1),
        4,
    ),
    FormName.HK_NUM1: (1, (0, 1), (-2 * 30**3, 1), 2),
    FormName.HK_NUM2: (1, (1,), (-2 * 30**3, 1), 2),
}


@widest_window
def _quotient(name: FormName, work: int) -> QSeries:
    """F4a, F4b, F6 or a j-quotient through q^work (work >= 1)."""
    if name in _MONOMIAL_FORMS:
        a, b, c, d = _MONOMIAL_FORMS[name]
        return quasi_monomial(a, b, c, work, d)
    return j_quotient(*_J_FORM_DATA[name], work)


def named_form(name, prec: int) -> QSeries:
    """Expansion of a named form; accepts a FormName or its string tag."""
    if isinstance(name, str):
        try:
            name = FormName(name)
        except ValueError:
            raise UsageError(f"unknown form name {name!r}") from None
    if name is FormName.E2:
        return eisenstein(2, prec)
    if name is FormName.E4:
        return eisenstein(4, prec)
    if name is FormName.E6:
        return eisenstein(6, prec)
    if name is FormName.DELTA:
        return discriminant(prec)
    if name is FormName.J:
        return j_invariant(prec)
    if name is FormName.THETA:
        return theta(prec)
    if name is FormName.E24:
        return e24(prec)
    # built at the window itself (at least q^1, which Delta and j need);
    # truncate rejects a lead above prec
    return _quotient(name, max(prec, 1)).truncate(prec)


# ----------------------------------------------------------------------
# the second-order differential operators from the solution-space checks
# ----------------------------------------------------------------------


def hk_operator_apply(f: QSeries, k: int) -> QSeries:
    """Apply D_k = delta^2 - ((k+1)/6) E2 delta + (k(k+1)/12) (delta E2)."""
    e2 = eisenstein(2, max(f.prec - min(f.lead, 0), 0))  # a lead -w < 0 costs E2 w
    df = f.delta()
    terms = [(Fraction(-(k + 1), 6), e2 * df), (Fraction(k * (k + 1), 12), e2.delta() * f)]
    return linear_combine([(1, df.delta())] + terms)


def specific_d_apply(f: QSeries) -> QSeries:
    """Apply D = delta^2 - E2 delta + (7 E2^2 - 5 E4 - 2 E2 E6 / E4)/36."""
    work = f.prec - min(f.lead, 0)  # a lead -w < 0 of f costs E2 w exponents
    e2 = eisenstein(2, work)
    multiplier = (7 * e2**2 - 5 * eisenstein(4, work) - 2 * quasi_monomial(1, -1, 1, work)) / 36
    df = f.delta()
    return linear_combine([(1, df.delta()), (-1, e2 * df), (1, multiplier * f)])
