"""Independent reference arithmetic for checking magforms' outputs.

Nothing here imports magforms.  A power series is a list of coefficients for
the exponents 0, 1, ..., n-1; products and inverses are truncated to n terms,
which is exact for power series.  Two coefficient rings share every constructor:

* :class:`Exact` holds plain Python lists of ``Fraction`` with schoolbook
  product and inverse.  It checks short prefixes exactly.
* :class:`ModP` holds numpy ``int64`` arrays modulo a prime below 2^20.  It
  checks whole windows: each product of residues is below 2^40, so a
  convolution of up to 2^20 terms cannot overflow.

The forms are built from their definitions, not from magforms' formulas:
divisor sums for E2, E4 and E6, Jacobi's identity for eta^3 and
Delta = q (eta^3)^8, and j only through its homogenised form E4^3 / Delta.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

# Two primes just below 2^20: a wrong coefficient escapes a check modulo both
# only if the error is divisible by their product, about 2^40.
PRIMES = (1048573, 1048571)

_EIS_CONSTANTS = {2: -24, 4: 240, 6: -504}


class Exact:
    """Exact rationals; schoolbook product and inverse."""

    def scalar(self, x):
        return Fraction(x)

    def series(self, values):
        return [Fraction(v) for v in values]

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def scale(self, c, a):
        c = Fraction(c)
        return [c * x for x in a]

    def mul(self, a, b):
        n = min(len(a), len(b))
        out = [Fraction(0)] * n
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] += ai * b[j]
        return out

    def inv(self, a):
        if a[0] == 0:
            raise ZeroDivisionError("power series with zero constant term")
        inv0 = 1 / a[0]
        w = [inv0]
        for k in range(1, len(a)):
            w.append(-inv0 * sum(a[i] * w[k - i] for i in range(1, k + 1)))
        return w

    def delta(self, a):
        return [n * x for n, x in enumerate(a)]

    def shift(self, a):
        """Multiply by q, keeping the length."""
        return [Fraction(0)] + a[:-1]

    def antiderivative(self, a):
        if a[0] != 0:
            raise ZeroDivisionError("nonzero constant term")
        return [Fraction(0)] + [x / n for n, x in enumerate(a) if n]

    def equal(self, a, b):
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))


class ModP:
    """Residues modulo a prime p < 2^20 in numpy int64 arrays."""

    def __init__(self, p: int):
        self.p = p

    def scalar(self, x):
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {x.denominator} is 0 mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def series(self, values):
        return np.array([self.scalar(v) for v in values], dtype=np.int64)

    def add(self, a, b):
        n = min(len(a), len(b))
        return (a[:n] + b[:n]) % self.p

    def scale(self, c, a):
        return (self.scalar(c) * a) % self.p

    def mul(self, a, b):
        n = min(len(a), len(b))
        return np.convolve(a[:n], b[:n])[:n] % self.p

    def inv(self, a):
        p = self.p
        if a[0] % p == 0:
            raise ZeroDivisionError("power series with zero constant term")
        inv0 = pow(int(a[0]), -1, p)
        w = np.zeros(len(a), dtype=np.int64)
        w[0] = inv0
        for k in range(1, len(a)):
            s = int(np.dot(a[1 : k + 1], w[k - 1 :: -1])) % p
            w[k] = (-inv0 * s) % p
        return w

    def delta(self, a):
        return (a * np.arange(len(a), dtype=np.int64)) % self.p

    def shift(self, a):
        return np.concatenate([np.zeros(1, dtype=np.int64), a[:-1]])

    def antiderivative(self, a):
        if a[0] % self.p:
            raise ZeroDivisionError("nonzero constant term")
        inverses = [0] + [pow(n, -1, self.p) for n in range(1, len(a))]
        return (a * np.array(inverses, dtype=np.int64)) % self.p

    def equal(self, a, b):
        return len(a) == len(b) and bool(np.array_equal(a, b))


EXACT = Exact()
MODULAR = tuple(ModP(p) for p in PRIMES)


# ----------------------------------------------------------------------
# constructors shared by both rings
# ----------------------------------------------------------------------


def power(R, a, e: int):
    if e < 0:
        a, e = R.inv(a), -e
    out = R.series([1] + [0] * (len(a) - 1))
    while e:
        if e & 1:
            out = R.mul(out, a)
        e >>= 1
        if e:
            a = R.mul(a, a)
    return out


def _sigma(power_: int, n: int) -> list[int]:
    sums = [0] * n
    for d in range(1, n):
        dk = d**power_
        for m in range(d, n, d):
            sums[m] += dk
    return sums


def eisenstein(R, k: int, n: int):
    """E_k = 1 + c_k sum_{m>=1} sigma_{k-1}(m) q^m."""
    sig = _sigma(k - 1, n)
    c = _EIS_CONSTANTS[k]
    return R.series([1] + [c * sig[m] for m in range(1, n)])


def discriminant(R, n: int):
    """Delta = q (eta^3)^8 with eta^3 = sum (-1)^k (2k+1) q^(k(k+1)/2)."""
    eta3 = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return R.shift(power(R, R.series(eta3), 8))


def theta(R, n: int):
    coeffs = [0] * n
    coeffs[0] = 1
    for m in range(1, isqrt(n - 1) + 1):
        coeffs[m * m] = 2
    return R.series(coeffs)


def quasi_monomial(R, a: int, b: int, c: int, n: int):
    """E2^a E4^b E6^c; negative exponents go through the inverse."""
    out = R.series([1] + [0] * (n - 1))
    for k, e in ((2, a), (4, b), (6, c)):
        if e:
            out = R.mul(out, power(R, eisenstein(R, k, n), e))
    return out


def linear(R, terms, n: int):
    """sum of coeff * series over (coeff, series) pairs."""
    out = R.series([0] * n)
    for coeff, s in terms:
        out = R.add(out, R.scale(coeff, s))
    return out


def j_rational(R, n: int, e4_power: int, num, den, den_power: int):
    """E4^e num(j) / den(j)^dp for integer polynomials given ascending.

    With j = E4^3/Delta, num(j) = N(E4, Delta) / Delta^deg(num) where N is
    homogeneous; the quotient becomes E4^e N Delta^(dp deg(den) - deg(num))
    / D^dp, a power series because D has constant term 1 for a monic den.
    """
    e4 = eisenstein(R, 4, n)
    dl = discriminant(R, n)
    e4_cubed = power(R, e4, 3)

    def homogenise(poly):
        deg = len(poly) - 1
        return linear(
            R,
            [
                (c, R.mul(power(R, e4_cubed, i), power(R, dl, deg - i)))
                for i, c in enumerate(poly)
                if c
            ],
            n,
        )

    shift = den_power * (len(den) - 1) - (len(num) - 1)
    if shift < 0 or den[-1] != 1:
        raise ValueError("j_rational needs a monic denominator of high enough degree")
    top = R.mul(R.mul(power(R, e4, e4_power), homogenise(num)), power(R, dl, shift))
    return R.mul(top, power(R, R.inv(homogenise(den)), den_power))


# The named forms, stated from their definitions.
J_FORMS = {
    "LS8": (2, (-3 * 2**10, 1), (0, 1), 2),
    "Triple8": (2, (-98280 * 15**6, 1610452125, -443556, 13), (15**3, 1), 4),
    "HK_num1": (1, (0, 1), (-2 * 30**3, 1), 2),
    "HK_num2": (1, (1,), (-2 * 30**3, 1), 2),
}


def named_form(R, name: str, n: int):
    if name in J_FORMS:
        return j_rational(R, n, *J_FORMS[name])
    dl = discriminant(R, n)
    if name == "F4a":
        return R.mul(dl, power(R, eisenstein(R, 4, n), -2))
    if name == "F4b":
        e4, e6 = eisenstein(R, 4, n), eisenstein(R, 6, n)
        return R.mul(R.mul(e4, dl), power(R, e6, -2))
    if name == "F6":
        e4, e6 = eisenstein(R, 4, n), eisenstein(R, 6, n)
        return R.mul(R.mul(e6, dl), power(R, e4, -3))
    raise KeyError(name)


def e2_family(R, m: int, j: int, n: int):
    """E2^m (delta E_j) / E_j."""
    ej = eisenstein(R, j, n)
    return R.mul(power(R, eisenstein(R, 2, n), m), R.mul(R.delta(ej), R.inv(ej)))


def first_nonintegral(coeffs, lead: int, order: int = 1, p: int | None = None):
    """First (exponent, denominator) where the order-fold anti-derivative of
    an exact series is not (p-)integral, or None.  Exponent 0 must be 0."""
    for i, c in enumerate(coeffs):
        n = lead + i
        if n == 0:
            if c != 0:
                raise ValueError("anti-derivative blocked by a constant term")
            continue
        den = (Fraction(c) / Fraction(n) ** order).denominator
        if (p is None and den != 1) or (p is not None and den % p == 0):
            return n, den
    return None


# ----------------------------------------------------------------------
# half-integral weight operators on exact Laurent windows
# ----------------------------------------------------------------------


def admissible(k: int, n: int) -> bool:
    """Kohnen plus-space support: (-1)^k n = 0 or 1 mod 4."""
    return ((-1) ** k * n) % 4 in (0, 1)


def kronecker2(a: int) -> int:
    """The Kronecker symbol (a|2)."""
    if a % 2 == 0:
        return 0
    return 1 if a % 8 in (1, 7) else -1


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hecke_tp2(coeffs: dict, lead: int, prec: int, k: int, p: int):
    """f|T_{p^2} of weight k+1/2 on {n: coeff}; for p = 2 it is T4' (the
    plus projection of T4).  Returns (dict, lead, prec) on the exponents that
    the input window determines."""

    def a(n):
        if n < lead:
            return Fraction(0)
        if n > prec:
            raise IndexError(n)
        return coeffs[n]

    hi = prec // (p * p)
    lo = p * p * lead if lead < 0 else 0
    out = {}
    for n in range(lo, hi + 1):
        a_ = (-1) ** k * n
        chi = kronecker2(a_) if p == 2 else legendre(a_, p)
        v = a(p * p * n) + Fraction(p) ** (k - 1) * chi * a(n)
        if n % (p * p) == 0:
            v += Fraction(p) ** (2 * k - 1) * a(n // (p * p))
        if p == 2 and not admissible(k, n):
            v = Fraction(0)
        out[n] = v
    return out, lo, hi


def lift(coeffs: dict, lead: int, prec: int, k: int) -> dict:
    """The additive lift A(n) = sum_{d|n} (d|D) d^(k-1) a(|D| n^2/d^2),
    D = 1 for even k and -3 for odd k, on every n the window determines."""
    D = 1 if k % 2 == 0 else -3

    def sym(d):
        if D == 1:
            return 1
        return 0 if d % 3 == 0 else (1 if d % 3 == 1 else -1)

    out = {}
    n = 1
    while abs(D) * n * n <= prec:
        acc = Fraction(0)
        for d in range(1, n + 1):
            if n % d == 0 and sym(d):
                e = abs(D) * (n // d) ** 2
                acc += sym(d) * Fraction(d) ** (k - 1) * (coeffs[e] if e >= lead else 0)
        out[n] = acc
        n += 1
    return out
