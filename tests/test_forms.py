"""Classical q-expansions and the second-order operators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms.exprs import evaluate
from magforms.forms import (
    FormName,
    _homogenise,
    discriminant,
    e24,
    eisenstein,
    hk_operator_apply,
    j_invariant,
    j_quotient,
    named_form,
    poly_in_j,
    quasi_monomial,
    specific_d_apply,
    theta,
)
from magforms.series import PrecisionError, QSeries, SeriesError, UsageError, linear_combine
from magforms.tables import LIFT_TABLE


def test_eisenstein_values():
    assert eisenstein(2, 1).coefficient(1) == -24
    assert eisenstein(4, 2).coefficient(2) == 2160  # 240 * sigma_3(2)
    assert eisenstein(6, 2).coefficient(0) == 1
    assert eisenstein(6, 1).coefficient(1) == -504
    with pytest.raises(UsageError):
        eisenstein(8, 5)


def test_ramanujan_system_prec_500():
    prec = 500
    e2, e4, e6 = eisenstein(2, prec), eisenstein(4, prec), eisenstein(6, prec)
    assert (e2.delta() - (e2 * e2 - e4) / 12).is_zero_window()
    assert (e4.delta() - (e2 * e4 - e6) / 3).is_zero_window()
    assert (e6.delta() - (e2 * e6 - e4**2) / 2).is_zero_window()


def test_discriminant():
    d = discriminant(30)
    assert d.lead == 1 and d.coefficient(1) == 1 and d.coefficient(2) == -24
    # the constructor builds the eta product only; the Eisenstein identity
    # is checked here and in acceptance c03 at q^1000
    e4, e6 = eisenstein(4, 30), eisenstein(6, 30)
    assert ((e4**3 - e6**2) / 1728).agrees_with(d, 1, 30)


def test_j_invariant():
    j = j_invariant(4)
    assert j.lead == -1
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884


def test_theta():
    th = theta(30)
    assert th.coefficient(0) == 1
    assert th.coefficient(4) == 2
    assert th.coefficient(3) == 0
    assert th.coefficient(25) == 2


def test_e24():
    e = e24(20)
    assert e.coefficient(3) == 4  # sigma_1(3)
    assert e.coefficient(2) == 0  # even exponents vanish
    assert e.coefficient(1) == 1
    # the constructor builds the divisor sums only; check them against
    # (-E2(q) + 3 E2(q^2) - 2 E2(q^4))/24
    prec = 500
    e2 = eisenstein(2, prec)
    combo = linear_combine(
        [
            (Fraction(-1, 24), e2),
            (Fraction(3, 24), e2.substitute_power(2).truncate(prec)),
            (Fraction(-2, 24), e2.substitute_power(4).truncate(prec)),
        ]
    )
    assert combo == e24(prec)


def test_quasi_monomial():
    prec = 25
    assert quasi_monomial(0, 1, 0, prec) == eisenstein(4, prec)
    lhs = quasi_monomial(0, 1, 0, prec) - quasi_monomial(0, -2, 2, prec)
    rhs = 1728 * named_form("F4a", prec)
    assert lhs.agrees_with(rhs, 0, prec)
    for (a, b, c) in [(0, 1, 0), (2, -3, 2), (1, 2, -1), (3, 0, -1)]:
        assert quasi_monomial(a, b, c, 8).coefficient(0) == 1
    with pytest.raises(UsageError):
        quasi_monomial(-1, 0, 0, 5)


BUILDER_WINDOWS = (0, 1, 7, 40)


def _outcome(build, *args):
    """The series, or the class of the SeriesError it raises."""
    try:
        return build(*args)
    except SeriesError as exc:
        return type(exc)


@pytest.mark.parametrize("prec", BUILDER_WINDOWS[1:])
def test_quasi_monomial_j_and_its_shift(prec):
    j = j_invariant(prec)
    assert quasi_monomial(0, 3, 0, prec, -1) == j
    # E4^3 - E6^2 = 1728 Delta, so E6^2 / Delta = j - 1728
    assert quasi_monomial(0, 0, 2, prec, -1) == j - 1728


@pytest.mark.parametrize("prec", BUILDER_WINDOWS)
@pytest.mark.parametrize(
    "name, exponents",
    [("F4a", (0, -2, 0, 1)), ("F4b", (0, 1, -2, 1)), ("F6", (0, -3, 1, 1))],
)
def test_quasi_monomial_named_quotients(name, exponents, prec):
    a, b, c, d = exponents
    expected = _outcome(named_form, name, prec)
    assert _outcome(quasi_monomial, a, b, c, prec, d) == expected
    if prec == 0:
        assert expected is PrecisionError  # the window lies below the lead q^1


@pytest.mark.parametrize("prec", BUILDER_WINDOWS)
@pytest.mark.parametrize(
    "exponents",
    [
        (0, 3, 0, -1),
        (0, 0, 2, -1),
        (1, -1, 1, 0),
        (2, 2, 0, -2),
        (0, 0, 0, -3),
        (0, -2, 0, 1),
        (1, 0, 1, 2),
    ],
)
def test_quasi_monomial_window_is_exactly_d_to_prec(exponents, prec):
    a, b, c, d = exponents
    if prec < d:
        with pytest.raises(PrecisionError):
            quasi_monomial(a, b, c, prec, d)
        return
    f = quasi_monomial(a, b, c, prec, d)
    assert (f.lead, f.prec) == (d, prec)
    assert f.coefficient(d) == 1


_e = eisenstein

# expression -> the same quotient from plain series products and inverses,
# evaluated left to right as the expression is
QUOTIENT_REFERENCES = {
    "E6^2/E4^2 - E4": lambda p: _e(6, p) ** 2 * (_e(4, p) ** 2).inverse() - _e(4, p),
    "E2*E4^2/E6 - E4": lambda p: _e(2, p) * _e(4, p) ** 2 * _e(6, p).inverse() - _e(4, p),
    "E2^5*delta(E4)/E4": lambda p: _e(2, p) ** 5 * _e(4, p).delta() * _e(4, p).inverse(),
    "E2^3*delta(E6)/E6": lambda p: _e(2, p) ** 3 * _e(6, p).delta() * _e(6, p).inverse(),
    "F4a/E4^3": lambda p: named_form("F4a", p) * (_e(4, p) ** 3).inverse(),
    "f(2,-1,1) - f(0,1,0)": lambda p: _e(2, p) ** 2 * _e(6, p) * _e(4, p).inverse() - _e(4, p),
    "E4/E6^2": lambda p: _e(4, p) * (_e(6, p) ** 2).inverse(),
    "(E2*E6)/E4^4": lambda p: _e(2, p) * _e(6, p) * (_e(4, p) ** 4).inverse(),
}


@pytest.mark.parametrize("prec", (-1, 0, 1, 2, 3, 40, 201))
@pytest.mark.parametrize("text", QUOTIENT_REFERENCES)
def test_divisions_by_e4_and_e6_powers_equal_plain_inverses(text, prec):
    # a division by E4^k or E6^k goes through the kept monomial inverse
    assert _outcome(evaluate, text, prec) == _outcome(QUOTIENT_REFERENCES[text], prec)


def _horner(coeffs, j):
    """sum c_i j^i by Horner's rule from the scaled c_d j, the construction the
    combination over a table of powers of j replaced."""
    *rest, top = coeffs
    if not rest:
        return QSeries.monomial(0, top, max(j.prec, 0))
    acc = top * j
    for c in reversed(rest[1:]):
        acc = (acc + c) * j
    return acc + rest[0]


_SCALARS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, st.integers(-99, 99), st.sampled_from((1, 2, 12, 768))),
)


@pytest.mark.parametrize("degree", range(13))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_poly_in_j_is_the_sum_of_powers_on_its_window(degree, data):
    # Fraction and int coefficients, a nonzero top one; degree d >= 1 loses d - 1
    # exponents of j, so windows q^1..q^30 include ones shorter than the degree
    coeffs = data.draw(st.lists(_SCALARS, min_size=degree, max_size=degree))
    coeffs.append(data.draw(_SCALARS.filter(bool)))
    prec = data.draw(st.integers(1, 30))
    value = poly_in_j(coeffs, j_invariant(prec))
    assert (value.lead, value.prec) == (-degree, prec - max(degree - 1, 0))
    assert value == _horner(coeffs, j_invariant(prec))
    wide = j_invariant(prec + degree)
    power, terms = QSeries.one(prec + degree), []
    for c in coeffs:
        terms.append((c, power))
        power = power * wide
    assert value == linear_combine(terms).restrict(-degree, value.prec)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=6), st.integers(0, 40))
def test_homogenise_is_the_sum_of_its_monomials(coeffs, work):
    # the per-term construction it replaced: E4^(3i) Delta^(deg - i) as one
    # monomial each; zero coefficients, a zero top one and deg - i > work included
    deg = len(coeffs) - 1
    terms = range(max(deg - work, 0), deg + 1)
    reference = linear_combine([(coeffs[i], quasi_monomial(0, 3 * i, 0, work, deg - i)) for i in terms])
    assert _homogenise(coeffs, work) == reference


@pytest.mark.parametrize("row", LIFT_TABLE, ids=lambda row: f"row{row.row_id}")
def test_j_quotient_matches_the_wide_j_construction(row):
    # the construction it replaces: j and E4 built 16 exponents further
    prec = 120
    j, e4 = j_invariant(prec + 16), eisenstein(4, prec + 16)
    den = poly_in_j(row.denominator, j) ** row.denominator_power
    wide = (e4**row.e4_power * poly_in_j(row.numerator, j) * den.inverse()).truncate(prec)
    args = (row.e4_power, row.numerator, row.denominator, row.denominator_power)
    assert j_quotient(*args, prec) == wide


def _j_form_quotient(e, num, den, p, prec):
    """E4^e num(j)/den(j)^p by the j-form construction: polynomials in the Laurent
    series j, then a fresh inverse of den(j)^p."""
    j = j_invariant(prec)
    out = quasi_monomial(0, e, 0, prec) * poly_in_j(num, j)
    return (out * (poly_in_j(den, j) ** p).inverse()).truncate(prec)


@st.composite
def _quotient_args(draw):
    """(e, num, den, p) with integer num and den, nonzero top coefficients and
    p deg(den) >= deg(num)."""
    coeff, top = st.integers(-(10**6), 10**6), st.integers(1, 10**6).map(lambda c: c * (-1) ** c)
    p = draw(st.integers(1, 3))
    den = draw(st.lists(coeff, max_size=3)) + [draw(top)]
    num_degree = draw(st.integers(0, p * (len(den) - 1)))
    num = draw(st.lists(coeff, min_size=num_degree, max_size=num_degree)) + [draw(top)]
    return draw(st.integers(0, 2)), tuple(num), tuple(den), p


@settings(max_examples=40, deadline=None)
@given(_quotient_args(), st.integers(1, 60))
def test_homogenised_j_quotient_equals_the_j_form(args, prec):
    # below its lead q^s each raises the same class
    assert _outcome(j_quotient, *args, prec) == _outcome(_j_form_quotient, *args, prec)


@pytest.mark.parametrize(
    "num, den, p",
    [
        ((), (1, 1), 2),  # no numerator
        ((1,), (1, 0), 1),  # den's top coefficient is 0
        ((1, 2, 3), (5, 1), 1),  # p deg(den) < deg(num): a pole at the cusp
    ],
)
def test_j_quotient_outside_its_domain_is_a_usage_error(num, den, p):
    with pytest.raises(UsageError):
        j_quotient(1, num, den, p, 40)


def test_j_quotient_below_its_lead_is_a_precision_error():
    # HK_num2 = E4/(j - 54000)^2 starts at q^2
    with pytest.raises(PrecisionError):
        j_quotient(1, (1,), (-54000, 1), 2, 1)
    assert j_quotient(1, (1,), (-54000, 1), 2, 2) == QSeries(2, [1])


def test_named_form_f4a():
    f = named_form("F4a", 10)
    assert f.lead == 1 and f.coefficient(1) == 1
    assert f.coefficient(2) == -504  # also = a(4) + 2 a(1) = -506 + 2 through the lift


def test_named_form_f6():
    f = named_form(FormName.F6, 10)
    assert f.coefficient(1) == 1


def test_named_form_triple8_data():
    # the embedded numerator constant term
    from magforms.forms import _J_FORM_DATA

    assert _J_FORM_DATA[FormName.TRIPLE8][1][0] == -98280 * 15**6


def test_named_forms_cuspidal_leads():
    for tag in ("F4a", "F4b", "F6", "LS8", "Triple8", "HK_num1"):
        assert named_form(tag, 12).valuation() >= 1
    assert named_form("HK_num2", 12).valuation() >= 1


def test_named_forms_integral_windows():
    for tag in ("F4a", "F4b", "F6", "LS8", "Triple8", "HK_num1", "HK_num2"):
        assert named_form(tag, 150).integrality_check().ok


def test_specific_d_solutions():
    prec = 120
    assert specific_d_apply(eisenstein(4, prec)).is_zero_window()
    y = eisenstein(4, prec) * named_form("F4a", prec).antiderivative()
    assert specific_d_apply(y).is_zero_window()


def test_hk_operator_d5():
    prec = 120
    assert hk_operator_apply(eisenstein(4, prec).delta(), 5).is_zero_window()
    # E4 itself is not a D_5 solution; the operator must not collapse to zero
    assert not hk_operator_apply(eisenstein(4, prec), 5).is_zero_window()


def test_unknown_name_rejected():
    with pytest.raises(UsageError):
        named_form("E8", 5)
