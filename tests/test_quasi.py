"""The monomial algebra, its derivation, reductions, and certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms.forms import eisenstein
from magforms.quasi import (
    QuasiElement,
    QuasiMonomial,
    ReductionScopeError,
    delta_element,
    expand,
    is_cuspidal,
    magnetic_check,
    parse_element,
    reduce_weight4,
    reduce_weight6,
    verify_certificate,
)
from magforms.series import UsageError
from magforms.verify import _family_element


def single(a, b, c, coeff=1):
    return QuasiElement.single(a, b, c, coeff)


def random_element(rng, weight):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, 3)
        c = rng.randint(-2, 2)
        rem = weight - 2 * a - 6 * c
        if rem % 4:
            continue
        b = rem // 4
        mono = QuasiMonomial(a, b, c)
        terms[mono] = terms.get(mono, 0) + Fraction(
            rng.randint(-5, 5), rng.randint(1, 4)
        )
    return QuasiElement(weight, terms)


def test_weight_validation():
    with pytest.raises(UsageError):
        QuasiElement(4, {QuasiMonomial(0, 0, 1): 1})
    with pytest.raises(UsageError):
        single(1, 0, 0) + single(0, 1, 0)


def test_delta_element_on_e2():
    d = delta_element(single(1, 0, 0))
    assert d == QuasiElement(
        4, {QuasiMonomial(2, 0, 0): Fraction(1, 12), QuasiMonomial(0, 1, 0): Fraction(-1, 12)}
    )
    assert delta_element(QuasiElement.zero(2)).is_zero()


def test_delta_homomorphism():
    rng = random.Random(21)
    for _ in range(200):
        w = rng.choice([2, 4, 6, 8])
        v = random_element(rng, w)
        if v.is_zero():
            continue
        lhs = expand(delta_element(v), 60)
        rhs = expand(v, 60).delta()
        assert lhs.agrees_with(rhs, 0, 60)


def test_expand_basics():
    assert expand(single(0, 1, 0), 10) == eisenstein(4, 10)
    v = single(2, -3, 2, Fraction(3, 7)) - single(0, 1, 0, Fraction(2, 5))
    total = Fraction(3, 7) - Fraction(2, 5)
    assert expand(v, 5).coefficient(0) == total


def test_is_cuspidal():
    assert is_cuspidal(single(0, 1, 0) - single(0, -2, 2))
    assert not is_cuspidal(single(0, 1, 0))
    rng = random.Random(22)
    for _ in range(20):
        v = random_element(rng, 6)
        assert is_cuspidal(delta_element(random_element(rng, 4)))


def test_reduce_weight4_base_cases():
    cert = reduce_weight4(single(2, 0, 0) - single(0, 1, 0))
    assert cert.mu == 0
    assert cert.gens == {"Ga": 0, "Gb": 0}
    assert cert.delta_part == single(1, 0, 0, 12)
    assert verify_certificate(cert, 300)

    cert = reduce_weight4(single(1, 2, -1) - single(0, 1, 0))
    assert cert.gens["Gb"] == 1 and cert.gens["Ga"] == 0
    assert cert.mu == 0 and cert.delta_part.is_zero()

    cert = reduce_weight4(single(1, -1, 1) - single(0, 1, 0))
    assert cert.gens["Ga"] == -2
    assert cert.delta_part == single(0, -1, 1, 6)
    assert verify_certificate(cert, 300)


def test_reduce_weight4_cuspidal_has_zero_anchor():
    rng = random.Random(23)
    for _ in range(30):
        v = random_element(rng, 4)
        if any(m.a > 2 for m in v.terms):
            continue
        cert = reduce_weight4(v)
        assert verify_certificate(cert, 120)
        if is_cuspidal(v):
            assert cert.mu == 0


def test_reduce_weight4_scope_error():
    with pytest.raises(ReductionScopeError):
        reduce_weight4(single(3, 1, -1) - single(0, 1, 0))


def test_reduce_weight6():
    cert = reduce_weight6(single(3, 0, 0) - single(1, 1, 0))
    assert cert.mu == 0 and cert.gens["F6"] == 0
    assert cert.delta_part == single(2, 0, 0, 6)
    assert verify_certificate(cert, 300)

    cert = reduce_weight6(single(2, -1, 1) - single(0, 0, 1))
    assert cert.mu == 0
    assert cert.gens["F6"] == -4608
    expected_delta = single(1, -1, 1, 4) + single(0, -2, 2, -4) + single(0, 1, 0, 6)
    assert cert.delta_part == expected_delta
    assert verify_certificate(cert, 300)

    zero_cert = reduce_weight6(QuasiElement.zero(6))
    assert zero_cert.mu == 0 and zero_cert.delta_part.is_zero()
    assert verify_certificate(zero_cert, 50)


def test_reduce_weight6_scope_error():
    with pytest.raises(ReductionScopeError):
        reduce_weight6(single(0, 3, -1))  # c < 0
    with pytest.raises(ReductionScopeError):
        reduce_weight6(single(5, -1, 0))  # a > 4


def test_tampered_certificate_fails():
    cert = reduce_weight4(single(1, -1, 1) - single(0, 1, 0))
    from magforms.quasi import ReductionCertificate

    bad = ReductionCertificate(
        cert.input, cert.weight, cert.mu + 1, cert.gens, cert.delta_part
    )
    assert not verify_certificate(bad, 60)


# weight -> (reduction, its space: E2 power a <= 2 in weight 4, a <= 4 and c >= 0 in weight 6)
_SPACES = {
    4: (reduce_weight4, lambda m: m.a <= 2),
    6: (reduce_weight6, lambda m: m.a <= 4 and m.c >= 0),
}


@pytest.mark.parametrize("weight", [4, 6])
def test_formal_reconstruction_identity(weight):
    reduce, in_space = _SPACES[weight]
    rng = random.Random(24)
    reduced = 0
    for _ in range(40):
        v = random_element(rng, weight)
        if v.is_zero() or not all(in_space(m) for m in v.terms):
            continue
        assert reduce(v).reconstruction() == v
        reduced += 1
    assert reduced >= 10


def test_alternate_generators_reduce_with_nonzero_coordinates():
    # E2 (delta Ej)/Ej and (delta^2 Ej)/Ej for j = 4, 6: each is cuspidal in
    # the weight-4 space, reduces with a nonzero generator coordinate, and is
    # magnetic
    alternates = {
        "E2 dE4/E4": Fraction(1, 3) * (single(2, 0, 0) - single(1, -1, 1)),
        "E2 dE6/E6": Fraction(1, 2) * (single(2, 0, 0) - single(1, 2, -1)),
        "d2E4/E4": Fraction(5, 36)
        * (single(2, 0, 0) + single(0, 1, 0) - 2 * single(1, -1, 1)),
        "d2E6/E6": Fraction(7, 24)
        * (single(2, 0, 0) + single(0, 1, 0) - 2 * single(1, 2, -1)),
    }
    e2 = eisenstein(2, 40)
    e4 = eisenstein(4, 40)
    e6 = eisenstein(6, 40)
    series = {
        "E2 dE4/E4": e2 * e4.delta() * e4.inverse(),
        "E2 dE6/E6": e2 * e6.delta() * e6.inverse(),
        "d2E4/E4": e4.delta().delta() * e4.inverse(),
        "d2E6/E6": e6.delta().delta() * e6.inverse(),
    }
    for name, elem in alternates.items():
        assert expand(elem, 35).agrees_with(series[name], 0, 35)
        assert is_cuspidal(elem)
        cert = reduce_weight4(elem)
        assert verify_certificate(cert, 200)
        assert any(c != 0 for c in cert.gens.values())
        assert magnetic_check(elem, 200).ok


@pytest.mark.parametrize("j", [4, 6])
def test_family_element_expands_to_its_quotient(j):
    # verify._family_element(m, j) is E2^m (delta Ej)/Ej
    e2, ej = eisenstein(2, 40), eisenstein(j, 40)
    quotient = ej.delta() * ej.inverse()
    for m in range(7):
        assert expand(_family_element(m, j), 40).agrees_with(e2**m * quotient, 0, 40)


def test_magnetic_check():
    gen = single(0, 1, 0) - single(0, -2, 2)  # 1728 * Delta/E4^2
    rep = magnetic_check(gen, 300)
    assert rep.ok
    with pytest.raises(UsageError):
        magnetic_check(single(0, 1, 0), 50)
    # E2^5 (delta E4)/E4 is not magnetic; the witness must be reported
    v = Fraction(1, 3) * (single(6, 0, 0) - single(5, -1, 1))
    rep = magnetic_check(v, 100)
    assert not rep.ok and rep.exponent == 11 and rep.denominator == 11


def test_magnetic_check_prime_mode():
    v = Fraction(1, 3) * (single(6, 0, 0) - single(5, -1, 1))
    assert magnetic_check(v, 100, p=7).ok
    assert not magnetic_check(v, 100, p=11).ok


def test_parse_format_round_trip():
    e = parse_element("3/2*f(1,-1,1) - f(0,1,0)")
    assert e.weight == 4
    assert parse_element(str(e)) == e
    assert parse_element("-f(0,1,0) + f(2,0,0)").weight == 4
    with pytest.raises(UsageError):
        parse_element("f(1,2)")
    # the element is read with the expression grammar: parentheses and a
    # rational divisor parse, and 0 is the zero element
    assert parse_element("2*(f(0,1,0) - f(2,0,0))") == 2 * (single(0, 1, 0) - single(2, 0, 0))
    assert parse_element("f(0,1,0)/2") == Fraction(1, 2) * single(0, 1, 0)
    assert parse_element("0").is_zero()


@pytest.mark.parametrize(
    "text",
    [
        "5",
        "f(0,1,0) + 1",
        "E4",
        "f(0,1,0)*f(0,1,0)",
        "f(0,1,0)/0",
        "f(0,1,0)^2",
        "",
        "3f(0,1,0)",
        "3 f(0,1,0)",
        "+f(0,1,0)",
    ],
)
def test_parse_element_rejects(text):
    # only rational multiples of f(a,b,c) joined by + and - are elements
    with pytest.raises(UsageError):
        parse_element(text)


# the weight-4 monomials f(a, b, c) with a <= 2 and |c| <= 3
_MONOMIALS_W4 = [
    (a, (4 - 2 * a - 6 * c) // 4, c)
    for a in range(3)
    for c in range(-3, 4)
    if (4 - 2 * a - 6 * c) % 4 == 0
]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_MONOMIALS_W4),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
        max_size=5,
    )
)
def test_parse_element_round_trips_str(terms):
    e = QuasiElement(4, terms)
    assert parse_element(str(e)) == e


def test_zero_elements_hash_alike():
    # every zero element equals every other, so sets and dicts keep one of them
    zeros = [QuasiElement.zero(w) for w in (2, 4, 6)] + [single(0, 1, 0) - single(0, 1, 0)]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    assert len(set(zeros)) == 1
    assert {QuasiElement.zero(4): "w4"}[QuasiElement.zero(6)] == "w4"
    assert len({single(0, 1, 0), single(0, 1, 0) * 1, QuasiElement.zero(4)}) == 2
