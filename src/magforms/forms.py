"""Constructors for the classical q-expansions: Eisenstein series, the
discriminant cusp form, the elliptic modular invariant j, the theta series,
the level-4 weight-2 form E_{2,4}, quasi-modular monomials E2^a E4^b E6^c,
and the named meromorphic forms used by the verification suite.

Every constructor returns a series whose window is exactly [lead, prec] for
the requested prec.  Working precision follows one rule, read off the
valuation rules in :mod:`magforms.series`: a constructor works at the
requested window plus the exponents its inverses lose, and the final
``truncate``, which refuses to extend a window, checks that the window was
reached.  The named quotients lose nothing: F4a, F4b and F6 divide by powers
of E4 and E6 (valuation 0), and the j-quotients divide by powers of
polynomials in j, which gains one or two exponents.

Every expansion is memoised at the widest window built so far
(:func:`magforms.series.widest_window`); narrower windows are truncations.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import isqrt

from .series import QSeries, UsageError, linear_combine, widest_window


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
    if prec < 1:
        raise UsageError("prec must be >= 1 for j")
    return _j(prec)


# j_invariant keeps its prec check outside the memo: j(0) would truncate the
# kept series, where j_invariant(0) raises
@widest_window
def _j(prec: int) -> QSeries:
    work = prec + 2
    return (eisenstein(4, work) ** 3 * discriminant(work).inverse()).truncate(prec)


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


def quasi_monomial(a: int, b: int, c: int, prec: int) -> QSeries:
    """The monomial E2^a E4^b E6^c (negative b, c through inversion)."""
    if a < 0:
        raise UsageError("the E2 exponent must be nonnegative")
    out = QSeries.one(prec)
    for k, e in ((2, a), (4, b), (6, c)):
        if e:
            out = out * eisenstein(k, prec) ** e
    return out.truncate(prec)


def poly_in_j(coeffs_ascending, j: QSeries) -> QSeries:
    """Evaluate an integer polynomial at the j series (Horner)."""
    if not coeffs_ascending:
        raise UsageError("empty polynomial")
    acc = QSeries.monomial(0, coeffs_ascending[-1], j.prec)
    for c in reversed(coeffs_ascending[:-1]):
        acc = acc * j
        acc = acc + QSeries.monomial(0, c, max(acc.prec, 0))
    return acc


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
    if name is FormName.F4A:
        out = discriminant(work) * eisenstein(4, work).inverse() ** 2
    elif name is FormName.F4B:
        out = eisenstein(4, work) * discriminant(work) * eisenstein(6, work).inverse() ** 2
    elif name is FormName.F6:
        out = eisenstein(6, work) * discriminant(work) * eisenstein(4, work).inverse() ** 3
    else:
        e4_power, num, den, den_power = _J_FORM_DATA[name]
        j = j_invariant(work)
        out = poly_in_j(num, j) * (poly_in_j(den, j) ** den_power).inverse()
        if e4_power:
            out = out * eisenstein(4, work) ** e4_power
    return out.truncate(work)


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
    # the quotients lose no exponents, so they are built at the window itself
    # (at least q^1, which Delta and j need); truncate rejects a lead above prec
    return _quotient(name, max(prec, 1)).truncate(prec)


# ----------------------------------------------------------------------
# the second-order differential operators from the solution-space checks
# ----------------------------------------------------------------------


def hk_operator_apply(f: QSeries, k: int) -> QSeries:
    """Apply D_k = delta^2 - ((k+1)/6) E2 delta + (k(k+1)/12) (delta E2)."""
    e2 = eisenstein(2, max(f.prec - min(f.lead, 0) + 4, 0))
    df = f.delta()
    ddf = df.delta()
    term2 = (e2 * df) * Fraction(-(k + 1), 6)
    term3 = (e2.delta() * f) * Fraction(k * (k + 1), 12)
    return linear_combine([(1, ddf), (1, term2), (1, term3)])


def specific_d_apply(f: QSeries) -> QSeries:
    """Apply D = delta^2 - E2 delta + (7 E2^2 - 5 E4 - 2 E2 E6 / E4)/36."""
    work = f.prec - min(f.lead, 0) + 4
    e2 = eisenstein(2, work)
    e4 = eisenstein(4, work)
    e6 = eisenstein(6, work)
    multiplier = (7 * e2**2 - 5 * e4 - 2 * (e2 * e6) * e4.inverse()) / 36
    df = f.delta()
    return linear_combine([(1, df.delta()), (-1, e2 * df), (1, multiplier * f)])
