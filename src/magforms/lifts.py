"""The additive lift from weight k+1/2 plus-space series to weight 2k, its
one-sided inverse, the square part, and the strong-magnetic congruence check.

With D = 1 for k even and D = -3 for k odd, the lift sends a Laurent series
f = sum a(n) q^n to F = sum_{n>0} A(n) q^n where

    A(n) = sum_{d|n} (d|D) d^(k-1) a(|D| n^2 / d^2).

The weight w(d) = (d|D) d^(k-1) is completely multiplicative, so the lift is
the Dirichlet convolution A = w * b with b(n) = a(|D| n^2).  The reverse map
solves it for b by forward substitution and is supported on the exponents
|D| n^2.  Both maps accept arbitrary Laurent series with the weight
supplied explicitly; nothing here assumes modularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .series import PrecisionError, QSeries, UsageError
from .halfint import PlusForm, kronecker


def lift_discriminant(k: int) -> int:
    """D = 1 for k even, -3 for k odd."""
    if k < 1:
        raise UsageError("lift weight parameter k must be >= 1")
    return 1 if k % 2 == 0 else -3


def _weights(D: int, k: int, n_max: int) -> list[int]:
    """[0, w(1), ..., w(n_max)] with w(d) = (d|D) d^(k-1), completely multiplicative."""
    return [0] + [kronecker(d, D) * d ** (k - 1) for d in range(1, n_max + 1)]


def psi(f: PlusForm | QSeries, k: int | None = None) -> QSeries:
    """The lift; output exponents run from 1 to isqrt(prec/|D|)."""
    if isinstance(f, PlusForm):
        series = f.series
        k = f.k if k is None else k
    else:
        series = f
        if k is None:
            raise UsageError("psi on a raw series needs the weight parameter k")
    D = lift_discriminant(k)
    n_max = isqrt(series.prec // abs(D)) if series.prec >= abs(D) else 0
    if n_max < 1:
        raise PrecisionError(
            f"input precision {series.prec} yields no lifted coefficients"
        )
    a = series.restrict(0, series.prec)  # a.nums[e] is the numerator at q^e
    out = [0] * n_max  # exponents 1..n_max
    for d, w in enumerate(_weights(D, k, n_max)):
        if w:
            # A(n) gains w(d) a(|D| (n/d)^2) at every multiple n = d*m
            for m in range(1, n_max // d + 1):
                out[d * m - 1] += w * a.nums[abs(D) * m * m]
    return QSeries._of(1, out, a.den)


def phi(F: QSeries, k: int) -> QSeries:
    """The reverse map, supported on the exponents |D| n^2."""
    D = lift_discriminant(k)
    n_max = F.prec
    if n_max < 1:
        raise PrecisionError("input precision too small for the reverse lift")
    coeffs = [0] * (abs(D) * (n_max + 1) ** 2 - 1)  # up to the first that needs b(n_max + 1)
    w = _weights(D, k, n_max)
    # solve F = w * b (Dirichlet convolution) for b by forward substitution:
    # when n is reached, every w(d) b(n/d) with d > 1 has been subtracted
    head = F.restrict(0, n_max)  # head.nums[n] is the numerator at q^n
    b = list(head.nums)
    for n in range(1, n_max + 1):
        coeffs[abs(D) * n * n - 1] = b[n]
        for d in range(2, n_max // n + 1):
            b[n * d] -= w[d] * b[n]
    return QSeries._of(1, coeffs, head.den)


def square_part(f: QSeries, k: int) -> QSeries:
    """Keep exactly the coefficients at exponents |D| n^2 with n > 0."""
    D = lift_discriminant(k)
    if f.prec < 1:
        raise PrecisionError("square part needs a window reaching past q^0")
    a = f.restrict(0, f.prec)  # a.nums[e] is the numerator at q^e
    coeffs = [0] * f.prec
    for n in range(1, isqrt(f.prec // abs(D)) + 1):
        coeffs[abs(D) * n * n - 1] = a.nums[abs(D) * n * n]
    return QSeries._of(1, coeffs, a.den)


@dataclass(frozen=True)
class CongruenceReport:
    ok: bool
    prime: int
    n: int
    power: int
    exponent: int | None
    value: Fraction | None
    window: tuple[int, int]

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return (
                f"CongruenceReport(OK: {self.prime}^{self.n} | m implies "
                f"{self.prime}^{self.power * self.n} | A(m) on {self.window})"
            )
        return (
            f"CongruenceReport(failure at m={self.exponent}: A(m)={self.value} "
            f"not divisible by {self.prime}^{self.power * self.n})"
        )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def strong_magnetic_congruence_check(
    F: QSeries, p: int, n: int, power: int = 1
) -> CongruenceReport:
    """Verify p^n | m implies p^(power*n) | A(m) for every tracked m > 0."""
    if not _is_prime(p):
        raise UsageError(f"{p} is not prime")
    if n < 1:
        raise UsageError("congruence exponent n must be positive")
    if power not in (1, 2):
        raise UsageError("power must be 1 or 2")
    integ = F.integrality_check()
    if not integ.ok:
        raise UsageError(
            f"strong magnetic check needs integral input; denominator "
            f"{integ.denominator} at q^{integ.exponent}"
        )
    step = p**n
    modulus = p ** (power * n)
    start = ((max(F.lead, 1) + step - 1) // step) * step
    # the input is integral, so its numerators are its coefficients
    for m in range(start, F.prec + 1, step):
        if F.nums[m - F.lead] % modulus:
            return CongruenceReport(False, p, n, power, m, F._get(m), (F.lead, F.prec))
    return CongruenceReport(True, p, n, power, None, None, (F.lead, F.prec))
