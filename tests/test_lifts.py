"""The additive lift, its reverse, square parts, and congruence checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms.forms import discriminant, named_form
from magforms.halfint import big_t_p, kronecker, named_plus_form, t_p2_series, t4_prime
from magforms.lifts import (
    CongruenceReport,
    lift_discriminant,
    phi,
    psi,
    square_part,
    strong_magnetic_congruence_check,
)
from magforms.series import PrecisionError, QSeries, UsageError


def rand_series(rng, lead, prec):
    return QSeries(lead, [rng.randint(-99, 99) for _ in range(prec - lead + 1)])


def test_lift_discriminant():
    assert lift_discriminant(2) == 1
    assert lift_discriminant(3) == -3
    with pytest.raises(UsageError):
        lift_discriminant(0)


def test_psi_f4a_reproduces_quotient():
    f4a = named_plus_form("f4a", 3600)
    lifted = psi(f4a)
    assert lifted.coefficient(1) == 1  # A(1) = a(1)
    assert lifted.coefficient(2) == -504  # a(4) + 2 a(1) = -506 + 2
    target = named_form("F4a", lifted.prec)
    assert lifted.agrees_with(target, 1, lifted.prec)


def test_psi_precision_contract():
    f = QSeries(0, [1] * 101)
    out = psi(f, 2)
    assert out.lead == 1 and out.prec == 10  # isqrt(100)
    with pytest.raises(PrecisionError):
        psi(QSeries(0, [1, 1]), 3)  # |D| = 3 > prec


def test_phi_zero():
    out = phi(QSeries.zero(20), 2)
    assert out.is_zero_window()


def test_phi_psi_square_part():
    rng = random.Random(41)
    for _ in range(100):
        k = rng.randint(1, 4)
        D = 1 if k % 2 == 0 else -3
        lead = rng.randint(-6, 1)
        prec = rng.randint(abs(D) * 9, abs(D) * 120)
        f = rand_series(rng, lead, prec)
        lifted = psi(f, k)
        recovered = phi(lifted, k)
        expected = square_part(f, k)
        hi = min(recovered.prec, expected.prec)
        assert recovered.agrees_with(expected, 1, hi)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n):
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    lead=st.integers(-6, 2),
    coeffs=st.lists(st.integers(-99, 99), min_size=1, max_size=150),
    data=st.data(),
)
def test_psi_phi_match_divisor_sums(k, lead, coeffs, data):
    # A(n) = sum_{d|n} (d|D) d^(k-1) a(|D| (n/d)^2), and the reverse map
    # b(n) = sum_{d|n} mu(d) (d|D) d^(k-1) F(n/d) at the exponent |D| n^2
    f = QSeries(lead, coeffs)
    D = lift_discriminant(k)
    if f.prec < abs(D):
        with pytest.raises(PrecisionError):
            psi(f, k)
    else:
        lifted = psi(f, k)
        for n in range(1, lifted.prec + 1):
            expected = sum(
                kronecker(d, D) * d ** (k - 1) * f._get(abs(D) * (n // d) ** 2)
                for d in _divisors(n)
            )
            assert lifted.coefficient(n) == expected
    if f.prec < 1:
        return
    full = abs(D) * (f.prec + 1) ** 2 - 1
    out_prec = data.draw(st.integers(1, full))
    back = phi(f, k).truncate(out_prec)
    assert back.lead == 1 and back.prec == out_prec
    squares = {abs(D) * n * n: n for n in range(1, f.prec + 1)}
    for e in range(1, out_prec + 1):
        n = squares.get(e)
        expected = 0 if n is None else sum(
            _moebius(d) * kronecker(d, D) * d ** (k - 1) * f._get(n // d)
            for d in _divisors(n)
        )
        assert back.coefficient(e) == expected


def test_square_part():
    f = QSeries(-4, [1] * 30)  # window [-4, 25]
    sq = square_part(f, 2)
    assert sq.lead == 1
    assert sq.coefficient(1) == 1 and sq.coefficient(4) == 1
    assert sq.coefficient(2) == 0 and sq.coefficient(3) == 0
    # a series supported away from the square exponents collapses to zero
    g = QSeries(2, [1, 1, 0, 1, 1, 0])  # exponents 2,3,5,6 only
    assert square_part(g, 2).is_zero_window()


def test_square_part_of_named_lemma():
    f4a = named_plus_form("f4a", 500)
    f4b = named_plus_form("f4b", 500)
    assert square_part(f4a.series, 2).integrality_check().ok
    assert square_part(f4b.series, 2).integrality_check().ok


def test_psi_equals_psi_of_square_part():
    rng = random.Random(42)
    for _ in range(20):
        k = rng.randint(1, 3)
        f = rand_series(rng, -4, 400)
        a, b = psi(f, k), psi(square_part(f, k), k)
        assert a.agrees_with(b, 1, min(a.prec, b.prec))


def test_hecke_equivariance_named_forms():
    for name in ("f4a", "f4b"):
        form = named_plus_form(name, 10000)
        for p in (3, 5):
            half = form.series
            full = psi(form)
            for _ in (1, 2):
                half = t_p2_series(half, 2, p)
                full = big_t_p(full, 4, p)
                got = psi(half, 2)
                assert got.agrees_with(full, 1, min(got.prec, full.prec))


def test_t4_prime_equivariance():
    f4a = named_plus_form("f4a", 10000)
    lhs = psi(t4_prime(f4a))
    rhs = big_t_p(psi(f4a), 4, 2)
    assert lhs.agrees_with(rhs, 1, min(lhs.prec, rhs.prec))


def test_lift_blind_to_kohnen_projection():
    # the lift reads only square exponents, which the projection keeps, so
    # applying the raw p=2 operator or its projected version lifts equally
    f4a = named_plus_form("f4a", 6400)
    raw = t_p2_series(f4a.series, 2, 2)
    projected = t4_prime(f4a).series
    assert psi(raw, 2).agrees_with(psi(projected, 2))


def test_reverse_lift_of_hecke_image_mod_3():
    # Delta under the weight-4 operator at p=3 is divisible by 3, and the
    # reverse lift keeps that divisibility on its square-exponent support
    d = discriminant(900)
    image = big_t_p(d, 4, 3)
    for c in image.coeffs:
        assert c.denominator == 1 and c.numerator % 3 == 0
    back = phi(image, 2).truncate(280)
    assert all(c.numerator % 3 == 0 for c in back.coeffs)
    from math import isqrt

    for n in range(1, back.prec + 1):
        if isqrt(n) ** 2 != n:
            assert back.coefficient(n) == 0


def test_divisibility_transfer():
    # A(n)/n = sum over d|n of a(d^2)/d, and integrality transfers
    f4a = named_plus_form("f4a", 2500)
    scaled = f4a.series * 64
    lifted = psi(scaled, 2)
    for n in range(1, lifted.prec + 1):
        total = Fraction(0)
        ok_div = True
        for d in range(1, n + 1):
            if n % d == 0:
                a_d2 = scaled._get(d * d)
                if a_d2 % d != 0:
                    ok_div = False
                total += Fraction(a_d2, d)
        assert lifted.coefficient(n) / n == total
        assert ok_div  # n | a(n^2) holds for the integral rescaling
        assert total.denominator == 1


def test_strong_magnetic_reports():
    F4a = named_form("F4a", 1000)
    assert strong_magnetic_congruence_check(F4a, 5, 2, 1).ok
    F6 = named_form("F6", 1000)
    assert strong_magnetic_congruence_check(F6, 5, 1, 2).ok
    # Delta is not magnetic: 11 | m does not force 11 | tau(m)
    d = discriminant(400)
    rep = strong_magnetic_congruence_check(d, 11, 1, 1)
    assert not rep.ok and rep.exponent == 11
    # but the classical congruences at 5 and 7 do hold on the window
    assert strong_magnetic_congruence_check(d, 5, 1, 1).ok
    rep2 = strong_magnetic_congruence_check(d, 5, 1, 2)
    assert not rep2.ok and rep2.exponent == 5 and rep2.value == 4830


def test_strong_magnetic_rejects_non_integral():
    with pytest.raises(UsageError):
        strong_magnetic_congruence_check(QSeries(1, [Fraction(1, 2)]), 2, 1, 1)
