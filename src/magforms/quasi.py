"""Weight-homogeneous combinations of the monomials E2^a E4^b E6^c.

The derivation acts on monomials by

    delta f_{a,b,c} = ((k-a)/12) f_{a+1,b,c} - (a/12) f_{a-1,b+1,c}
                      - (b/3) f_{a,b-1,c+1} - (c/2) f_{a,b+2,c-1},

with k = 2a + 4b + 6c the weight.  On top of this the module reduces cuspidal
weight-4 elements (exponent a <= 2) and weight-6 elements (a <= 4, c >= 0) to
an anchor, a fixed set of generators and an exact delta-image, returning
certificates that can be re-verified on q-expansions.  A reduction is a chain
of eliminations through the derivation formula: each monomial is rewritten
through the delta-image of a source named by a table of base monomials or by a
recursion on the exponents, until only terminal monomials (the anchor and the
generators) remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from .series import IntegralityReport, QSeries, UsageError, linear_combine
from .forms import quasi_monomial
from .exprs import parse_expression


class ReductionScopeError(UsageError):
    """The element lies outside the space the reduction algorithm covers."""


class QuasiMonomial(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def weight(self) -> int:
        return 2 * self.a + 4 * self.b + 6 * self.c

    def __str__(self):
        return f"f({self.a},{self.b},{self.c})"


def _sort_key(m: QuasiMonomial):
    # deterministic processing order: most negative c first, then b, then a
    return (-m.c, -m.b, m.a)


class QuasiElement:
    """A finite rational combination of quasi-monomials of one fixed weight."""

    __slots__ = ("weight", "terms")

    def __init__(self, weight: int, terms: Mapping[QuasiMonomial, Fraction] | None = None):
        clean: dict[QuasiMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = QuasiMonomial(*mono)
            if mono.a < 0:
                raise UsageError(f"negative E2 exponent in {mono}")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if mono.weight != weight:
                raise UsageError(
                    f"monomial {mono} has weight {mono.weight}, element has {weight}"
                )
            clean[mono] = clean.get(mono, Fraction(0)) + coeff
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c != 0})

    def __setattr__(self, *args):
        raise AttributeError("QuasiElement is immutable")

    def __reduce__(self):
        return (QuasiElement, (self.weight, self.terms))

    @classmethod
    def single(cls, a: int, b: int, c: int, coeff=1) -> "QuasiElement":
        mono = QuasiMonomial(a, b, c)
        return cls(mono.weight, {mono: Fraction(coeff)})

    @classmethod
    def zero(cls, weight: int) -> "QuasiElement":
        return cls(weight, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QuasiElement") -> "QuasiElement":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.weight != other.weight:
            raise UsageError(
                f"cannot add weight {self.weight} and weight {other.weight} elements"
            )
        merged = dict(self.terms)
        for m, c in other.terms.items():
            merged[m] = merged.get(m, Fraction(0)) + c
        return QuasiElement(self.weight, merged)

    def __sub__(self, other: "QuasiElement") -> "QuasiElement":
        return self + (-1) * other

    def __neg__(self) -> "QuasiElement":
        return (-1) * self

    def __mul__(self, scalar) -> "QuasiElement":
        s = Fraction(scalar)
        return QuasiElement(self.weight, {m: s * c for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuasiElement):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.weight == other.weight and self.terms == other.terms

    def __hash__(self):
        # every zero element is equal to every other, whatever its weight
        return hash((self.weight if self.terms else None, tuple(sorted(self.terms.items()))))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_sort_key):
            c = self.terms[mono]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = str(mono) if mag == 1 else f"{mag}*{mono}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"QuasiElement(weight={self.weight}: {self})"


def _value(node) -> Union[Fraction, QuasiElement]:
    """A Fraction for a numeric subtree, a QuasiElement for one with f(a,b,c)."""
    op = node[0]
    if op == "int":
        return Fraction(node[1])
    if op == "monomial":
        return QuasiElement.single(*node[1:])
    if op == "neg":
        return -_value(node[1])
    if op not in ("sum", "product"):
        raise UsageError("an element is a rational combination of f(a,b,c) terms")
    out = _value(node[1])
    for o, operand in node[2]:
        rhs = _value(operand)
        scalars = isinstance(out, Fraction) + isinstance(rhs, Fraction)
        if o == "/" and not isinstance(rhs, Fraction):
            raise UsageError("an element can only be divided by a number")
        if o == "/" and rhs == 0:
            raise UsageError("division by zero in element")
        if o == "*" and not scalars:
            raise UsageError("a product of f(a,b,c) terms is not an element")
        if o in "+-" and scalars == 1:
            raise UsageError("a number cannot be added to an f(a,b,c) term")
        if o in "*/":
            out = out * (rhs if o == "*" else 1 / rhs)
        else:
            out = out + rhs if o == "+" else out - rhs
    return out


def parse_element(text: str) -> QuasiElement:
    """Parse `3/2*f(1,-1,1) - f(0,1,0)` style element syntax.

    The text is read with the expression grammar of :mod:`magforms.exprs`
    and must be a rational combination of f(a,b,c) terms, or 0.
    """
    try:  # the parser and _value recurse per level of nesting
        value = _value(parse_expression(text))
    except RecursionError:
        raise UsageError("element nested too deeply") from None
    if isinstance(value, Fraction):
        if value:
            raise UsageError("an element needs f(a,b,c) terms")
        return QuasiElement.zero(0)
    return value


# ----------------------------------------------------------------------
# derivation, expansion, cuspidality
# ----------------------------------------------------------------------


def delta_monomial(m: QuasiMonomial) -> QuasiElement:
    k = m.weight
    a, b, c = m
    out: dict[QuasiMonomial, Fraction] = {}

    def add(mono: QuasiMonomial, coeff: Fraction):
        if coeff:
            out[mono] = out.get(mono, Fraction(0)) + coeff

    add(QuasiMonomial(a + 1, b, c), Fraction(k - a, 12))
    if a:
        add(QuasiMonomial(a - 1, b + 1, c), Fraction(-a, 12))
    if b:
        add(QuasiMonomial(a, b - 1, c + 1), Fraction(-b, 3))
    if c:
        add(QuasiMonomial(a, b + 2, c - 1), Fraction(-c, 2))
    return QuasiElement(k + 2, out)


def delta_element(v: QuasiElement) -> QuasiElement:
    """Term-by-term image of the derivation; like terms merged."""
    out = QuasiElement.zero(v.weight + 2)
    for mono, coeff in v.terms.items():
        out = out + coeff * delta_monomial(mono)
    return out


def expand(v: QuasiElement, prec: int) -> QSeries:
    """q-expansion of the element through exponent prec."""
    if v.is_zero():
        return QSeries.zero(prec)
    terms = [
        (coeff, quasi_monomial(m.a, m.b, m.c, prec)) for m, coeff in v.terms.items()
    ]
    return linear_combine(terms)


def is_cuspidal(v: QuasiElement) -> bool:
    """True when the constant term vanishes (all monomials start with 1)."""
    return sum(v.terms.values(), Fraction(0)) == 0


# ----------------------------------------------------------------------
# reduction certificates
# ----------------------------------------------------------------------

ANCHOR_W4 = QuasiMonomial(0, 1, 0)
ANCHOR_W6 = QuasiMonomial(0, 0, 1)

# generator elements, expressed inside the same monomial algebra
GEN_W4 = {
    "Ga": QuasiElement.single(0, -2, 2) - QuasiElement.single(0, 1, 0),
    "Gb": QuasiElement.single(1, 2, -1) - QuasiElement.single(0, 1, 0),
}
GEN_W6 = {
    "F6": Fraction(1, 1728)
    * (QuasiElement.single(0, 0, 1) - QuasiElement.single(0, -3, 3)),
}


@dataclass(frozen=True)
class ReductionCertificate:
    """input = mu * anchor + sum(gens) + delta(delta_part), as formal elements."""

    input: QuasiElement
    weight: int
    mu: Fraction
    gens: dict[str, Fraction]
    delta_part: QuasiElement

    @property
    def anchor(self) -> QuasiMonomial:
        return ANCHOR_W4 if self.weight == 4 else ANCHOR_W6

    def generator_elements(self) -> Mapping[str, QuasiElement]:
        return GEN_W4 if self.weight == 4 else GEN_W6

    def reconstruction(self) -> QuasiElement:
        """The right-hand side as a formal element."""
        out = self.mu * QuasiElement.single(*self.anchor)
        for name, coeff in self.gens.items():
            out = out + coeff * self.generator_elements()[name]
        out = out + delta_element(self.delta_part)
        return out


# Terminal monomials: lam * mono adds lam to mu and lam times the listed
# coefficients to the generators and the delta-part.  The -4608 in
# f(2,-1,1) = f(0,0,1) - 4608 F6 + delta(4 f(1,-1,1) - 4 f(0,-2,2) + 6 f(0,1,0))
# is forced by exact expansion of both sides.
_TERMINAL_W4 = {
    ANCHOR_W4: ({}, {}),
    QuasiMonomial(0, -2, 2): ({"Ga": 1}, {}),
    QuasiMonomial(1, 2, -1): ({"Gb": 1}, {}),
}
_TERMINAL_W6 = {
    ANCHOR_W6: ({}, {}),
    QuasiMonomial(2, -1, 1): (
        {"F6": -4608},
        {QuasiMonomial(1, -1, 1): 4, QuasiMonomial(0, -2, 2): -4, QuasiMonomial(0, 1, 0): 6},
    ),
}

# Base monomials, each with the source whose delta-image eliminates it.
_BASE_W4 = {
    QuasiMonomial(2, 0, 0): QuasiMonomial(1, 0, 0),
    QuasiMonomial(1, -1, 1): QuasiMonomial(0, -1, 1),
}
_BASE_W6 = {
    QuasiMonomial(1, 1, 0): QuasiMonomial(0, 1, 0),
    QuasiMonomial(3, 0, 0): QuasiMonomial(2, 0, 0),
    QuasiMonomial(4, -2, 1): QuasiMonomial(4, -1, 0),
}


def _recursion_w4(m: QuasiMonomial) -> QuasiMonomial | None:
    if m.c <= -2:
        return QuasiMonomial(m.a, m.b - 2, m.c + 1)
    return QuasiMonomial(m.a, m.b + 1, m.c - 1) if m.b <= -3 else None


def _recursion_w6(m: QuasiMonomial) -> QuasiMonomial | None:
    return QuasiMonomial(m.a, m.b + 1, m.c - 1) if m.c >= 2 else None


def _add(table: dict, mono: QuasiMonomial, coeff: Fraction) -> None:
    """table[mono] += coeff, dropping the entry when it cancels."""
    table[mono] = table.get(mono, 0) + coeff
    if not table[mono]:
        del table[mono]


def _reduce(
    v: QuasiElement, weight: int, gens, scope_error, terminal, base, recursion
) -> ReductionCertificate:
    """Run the work list of one weight; `scope_error(mono)` returns a message
    for a monomial outside the space (else None).  A terminal monomial is read
    off its table entry.  Any other is eliminated through the source `src` that
    `base` or `recursion` names: if delta(src) = c * mono + rest, then
    lam * mono = delta((lam / c) * src) - (lam / c) * rest, and rest is queued.
    """
    if not v.is_zero() and v.weight != weight:
        raise UsageError(f"reduce_weight{weight} needs weight {weight}, got {v.weight}")
    for mono in v.terms:
        message = scope_error(mono)
        if message:
            raise ReductionScopeError(message)
    mu = Fraction(0)
    coords = {name: Fraction(0) for name in gens}
    delta: dict[QuasiMonomial, Fraction] = {}
    pending = dict(v.terms)
    while pending:
        mono = min(pending, key=_sort_key)
        lam = pending.pop(mono)
        if mono in terminal:
            named, part = terminal[mono]
            mu += lam
            for name, coeff in named.items():
                coords[name] += coeff * lam
            for m, coeff in part.items():
                _add(delta, m, coeff * lam)
            continue
        src = base.get(mono) or recursion(mono)
        image = delta_monomial(src).terms if src else {}
        if mono not in image:  # pragma: no cover - unreachable inside the declared spaces
            raise ReductionScopeError(f"no reduction rule for {mono}")
        scale = lam / image[mono]
        _add(delta, src, scale)
        for m, coeff in image.items():
            if m != mono:
                _add(pending, m, -scale * coeff)
    return ReductionCertificate(v, weight, mu, coords, QuasiElement(weight - 2, delta))


def _scope_w4(mono: QuasiMonomial) -> str | None:
    if mono.a > 2:
        return (
            f"monomial {mono} has E2 exponent {mono.a} > 2; outside the "
            "weight-4 reduction space"
        )


def _scope_w6(mono: QuasiMonomial) -> str | None:
    if mono.c < 0 or mono.a > 4:
        return (
            f"monomial {mono} outside the weight-6 reduction space "
            "(need c >= 0 and a <= 4)"
        )


def reduce_weight4(v: QuasiElement) -> ReductionCertificate:
    """Decompose a weight-4 element (all monomials with a <= 2).

    The two recursions eliminate c <= -2 and b <= -3 monomials; the base and
    terminal tables handle the five weight-4 monomials with small exponents.
    """
    return _reduce(v, 4, GEN_W4, _scope_w4, _TERMINAL_W4, _BASE_W4, _recursion_w4)


def reduce_weight6(v: QuasiElement) -> ReductionCertificate:
    """Decompose a weight-6 element (monomials with a <= 4 and c >= 0)."""
    return _reduce(v, 6, GEN_W6, _scope_w6, _TERMINAL_W6, _BASE_W6, _recursion_w6)


def verify_certificate(cert: ReductionCertificate, prec: int) -> bool:
    """Expand both sides to `prec` and compare exactly."""
    if prec < 1:
        raise UsageError("verification precision must be >= 1")
    lhs = expand(cert.input, prec)
    rhs_elem = cert.reconstruction()
    if not rhs_elem.is_zero() and not cert.input.is_zero():
        if rhs_elem.weight != cert.input.weight:
            return False
    rhs = expand(rhs_elem, prec)
    return lhs.agrees_with(rhs, 0, prec)


# ----------------------------------------------------------------------
# the magnetic property
# ----------------------------------------------------------------------


def magnetic_check(
    v: Union[QuasiElement, QSeries],
    prec: int,
    order: int = 1,
    p: int | None = None,
) -> IntegralityReport:
    """Check that the `order`-fold anti-derivative is (p-)integral on its window.

    The input must be cuspidal: a QuasiElement with vanishing coefficient sum,
    or a series with zero constant term.
    """
    if isinstance(v, QuasiElement):
        if not is_cuspidal(v):
            raise UsageError("magnetic_check requires a cuspidal element")
        series = expand(v, prec)
    else:
        series = v.truncate(min(v.prec, prec))
        if series.lead <= 0 <= series.prec and series.constant_term() != 0:
            raise UsageError("magnetic_check requires a cuspidal series")
    return series.antiderivative(order).integrality_check(p)
