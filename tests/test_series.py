"""Core series layer: windows, arithmetic, derivation, integrality."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms.series import (
    _LOPSIDED_RATIO,
    _SCHOOLBOOK_CUTOFF,
    AntiderivativeError,
    DomainError,
    PrecisionError,
    QSeries,
    UsageError,
    _conv_int,
    inv,
    linear_combine,
)
from magforms.forms import discriminant, eisenstein


def qs(lead, *coeffs):
    return QSeries(lead, coeffs)


def random_series(rng, lead_range=(-5, 3), length_range=(1, 30), coeff_bound=99):
    lead = rng.randint(*lead_range)
    length = rng.randint(*length_range)
    return QSeries(lead, [rng.randint(-coeff_bound, coeff_bound) for _ in range(length)])


# ----------------------------------------------------------------------
# construction and access
# ----------------------------------------------------------------------


def test_window_invariants():
    f = qs(-2, 1, 0, 3)
    assert f.lead == -2 and f.prec == 0
    assert f.coefficient(-2) == 1
    with pytest.raises(PrecisionError):
        f.coefficient(1)
    with pytest.raises(PrecisionError):
        f.coefficient(-3)
    with pytest.raises(UsageError):
        QSeries(0, [])


def test_valuation():
    assert qs(-1, 0, 0, 5).valuation() == 1
    with pytest.raises(DomainError):
        qs(0, 0, 0).valuation()


def test_immutability():
    f = qs(0, 1, 2)
    with pytest.raises(AttributeError):
        f.lead = 5
    with pytest.raises(TypeError):
        f.coeffs[0] = 3


def _copyable_objects():
    from magforms.halfint import named_plus_form
    from magforms.quasi import QuasiElement

    return [
        qs(-1, Fraction(1, 64), 0, Fraction(-3, 2), 7),
        named_plus_form("g0", 12),
        QuasiElement.single(1, -1, 1, Fraction(2, 3)) - QuasiElement.single(0, 1, 0),
    ]


@pytest.mark.parametrize("index", range(3), ids=["QSeries", "PlusForm", "QuasiElement"])
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_immutable_types_copy_and_pickle(index, round_trip):
    obj = _copyable_objects()[index]
    back = round_trip(obj)
    assert type(back) is type(obj)
    assert back == obj and hash(back) == hash(obj)


def test_json_round_trip():
    f = qs(-1, Fraction(1, 64), 0, Fraction(-3, 2), 7)
    assert QSeries.from_json(f.to_json()) == f
    assert QSeries.monomial(1).to_json() == '{"coeffs":["1"],"lead":1,"prec":1}'


# ----------------------------------------------------------------------
# linear_combine
# ----------------------------------------------------------------------


def test_linear_combine_cancellation():
    f = qs(0, 1, 1)
    out = linear_combine([(1, f), (-1, f)])
    assert out.is_zero_window() and out.lead == 0 and out.prec == 1


def test_linear_combine_e4_minus_e6():
    prec = 10
    out = linear_combine([(1, eisenstein(4, prec)), (-1, eisenstein(6, prec))])
    assert out.coefficient(0) == 0
    assert out.coefficient(1) == 744  # 240 - (-504)


def test_linear_combine_empty():
    with pytest.raises(UsageError):
        linear_combine([])


def test_linear_combine_window_is_min():
    f, g = qs(-1, 1, 2, 3), qs(0, 5, 6)
    out = linear_combine([(1, f), (1, g)])
    assert out.lead == -1 and out.prec == 1
    assert out.coefficient(-1) == 1 and out.coefficient(0) == 7


# ----------------------------------------------------------------------
# multiplication and inversion
# ----------------------------------------------------------------------


def test_mul_simple():
    out = qs(0, 1, 1) * qs(0, 1, -1)  # (1+q)(1-q) = 1 - q^2 but window stops at 1
    assert out.lead == 0 and out.prec == 1
    assert out.coefficient(0) == 1 and out.coefficient(1) == 0


def test_mul_precision_contract():
    f = QSeries(0, [1] + [7] * 10)  # prec 10, valuation 0
    g = QSeries(2, [1] * 5)  # window [2, 6], valuation 2
    out = f * g
    assert out.lead == 2
    assert out.prec == min(10 + 2, 6 + 0)


def test_inverse_of_e4_squared():
    e4sq = eisenstein(4, 10) ** 2
    assert [int(e4sq.coefficient(i)) for i in (0, 1, 2)] == [1, 480, 61920]
    inv = e4sq.inverse()
    assert [int(inv.coefficient(i)) for i in (0, 1, 2)] == [1, -480, 168480]


def test_inverse_of_q():
    out = QSeries.monomial(1, 1, 5).inverse()
    assert out.lead == -1 and out.coefficient(-1) == 1
    assert all(out.coefficient(i) == 0 for i in range(0, out.prec + 1))


def test_inverse_round_trip():
    e6 = eisenstein(6, 12)
    assert e6.inverse().inverse().agrees_with(e6)


def test_inverse_of_zero_errors():
    with pytest.raises(DomainError):
        qs(0, 0, 0, 0).inverse()


def test_inverse_precision_contract():
    d = discriminant(10)  # window [1, 10], valuation 1
    inv = d.inverse()
    assert inv.lead == -1 and inv.prec == 10 - 2


def test_pow():
    th2 = (QSeries(0, [1, 2, 0, 0, 2]) ** 2)
    assert th2.coefficient(1) == 4
    e4 = eisenstein(4, 6)
    assert (e4**0).coefficient(0) == 1
    d4inv = discriminant(12).substitute_power(4) ** -1
    assert d4inv.lead == -4


def test_mul_commutative_associative():
    rng = random.Random(11)
    for _ in range(25):
        f, g, h = (random_series(rng) for _ in range(3))
        if f.is_zero_window() or g.is_zero_window() or h.is_zero_window():
            continue
        assert (f * g).agrees_with(g * f)
        lhs = (f * g) * h
        rhs = f * (g * h)
        assert lhs.agrees_with(rhs, max(lhs.lead, rhs.lead), min(lhs.prec, rhs.prec))


def test_inv_times_self_is_one():
    rng = random.Random(12)
    for _ in range(25):
        f = random_series(rng)
        try:
            v = f.valuation()
        except DomainError:
            continue
        prod = f * f.inverse()
        assert prod.coefficient(0) == 1
        assert all(
            prod.coefficient(i) == 0 for i in range(prod.lead, prod.prec + 1) if i != 0
        )


# ----------------------------------------------------------------------
# the product kernel against the schoolbook product
# ----------------------------------------------------------------------


def schoolbook(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def signed(rng, bits):
    return rng.choice((-1, 1)) * rng.getrandbits(bits)


KERNEL = settings(max_examples=150, deadline=None)


@st.composite
def int_lists(draw):
    """Flat, geometric (a_i ~ +-2^(8i)) or all-zero lists, with leading zeros."""
    rng = draw(st.randoms(use_true_random=False))
    n, zeros = draw(st.integers(0, 3 * _SCHOOLBOOK_CUTOFF)), draw(st.integers(0, 6))
    shape = draw(st.sampled_from(("flat", "geometric", "zero")))
    if shape == "flat":
        bits = draw(st.integers(1, 200))
        body = [signed(rng, bits) for _ in range(n)]
    elif shape == "geometric":
        body = [signed(rng, 8) << (8 * i) | rng.getrandbits(8 * i) for i in range(n)]
    else:
        body = [0] * n
    return ([0] * zeros + body)[:n] if draw(st.booleans()) else body


@KERNEL
@given(int_lists(), int_lists(), st.data())
def test_conv_int_matches_schoolbook(a, b, data):
    """n runs from below len(a) to past the end of the product."""
    n = data.draw(st.integers(0, len(a) + len(b) + 3))
    assert _conv_int(a, b, n) == schoolbook(a, b, n)


@KERNEL
@given(
    st.randoms(use_true_random=False),
    st.integers(1, 40),
    st.floats(2.0, 3 * _LOPSIDED_RATIO),
    st.integers(_SCHOOLBOOK_CUTOFF + 1, 80),
    st.integers(_SCHOOLBOOK_CUTOFF + 1, 80),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_conv_int_lopsided_split(rng, narrow, ratio, la, lb, geometric, swap, data):
    """Pairs on both sides of the split threshold, either operand wide."""
    wide = int(ratio * (narrow + min(la, lb).bit_length()))
    a = [signed(rng, wide) for _ in range(la)]
    if geometric:  # the low coefficients have no high limbs
        a = [x >> max(0, wide - 8 * (i + 1)) for i, x in enumerate(a)]
    a[-1] = (1 << wide) - 1
    b = [signed(rng, narrow) for _ in range(lb)]
    if swap:
        a, b = b, a
    n = data.draw(st.integers(0, la + lb + 3))
    assert _conv_int(a, b, n) == schoolbook(a, b, n)


@KERNEL
@given(
    st.integers(1, 130),
    st.integers(1, 3 * _SCHOOLBOOK_CUTOFF),
    st.integers(1, 3 * _SCHOOLBOOK_CUTOFF),
    st.sampled_from((1, -1)),
    st.data(),
)
def test_conv_int_same_sign_worst_case(s, la, lb, sign, data):
    """All a_i = b_j = +-(2^s - 1): every slot reaches its bound."""
    a, b = [sign * ((1 << s) - 1)] * la, [(1 << s) - 1] * lb
    n = data.draw(st.integers(0, la + lb + 3))
    assert _conv_int(a, b, n) == schoolbook(a, b, n)


@KERNEL
@given(
    st.randoms(use_true_random=False),
    st.integers(_SCHOOLBOOK_CUTOFF + 1, 80),
    st.integers(_SCHOOLBOOK_CUTOFF + 1, 80),
    st.sampled_from(("even", "odd", "both")),
    st.sampled_from(("even", "odd", "both")),
    st.sampled_from(("random", "alternating", "positive")),
    st.integers(1, 130),
    st.booleans(),
    st.data(),
)
def test_conv_int_parity_classes(rng, la, lb, a_support, b_support, shape, s, square, data):
    """The two-point evaluation at +-2^h on operands living on one parity of
    index, where P(2^h) = +-P(-2^h), and on the alternating worst case
    a_i = (-1)^i (2^s - 1), which makes every |a(-2^h)| as large as it gets."""

    def operand(length, support):
        top = (1 << s) - 1
        if shape == "random":
            cs = [signed(rng, s) for _ in range(length)]
        else:
            cs = [(-1) ** i * top if shape == "alternating" else top for i in range(length)]
        return [c if support in ("both", ("even", "odd")[i % 2]) else 0 for i, c in enumerate(cs)]

    a = operand(la, a_support)
    b = a if square else operand(lb, b_support)
    total = len(a) + len(b)
    n = data.draw(st.sampled_from((1, total - 2, total - 1, total, total + 1)) | st.integers(0, total + 3))
    assert _conv_int(a, b, n) == schoolbook(a, b, n)


@KERNEL
@given(int_lists(), st.data())
def test_conv_int_square_matches_copy(a, data):
    n = data.draw(st.integers(0, 2 * len(a) + 3))
    assert _conv_int(a, a, n) == _conv_int(a, list(a), n) == schoolbook(a, a, n)


def recurrence_inverse(u):
    """c_0 = 1/u_0 and c_n = -(1/u_0) sum_{i=1..n} u_i c_{n-i}."""
    c = [1 / u[0]]
    for n in range(1, len(u)):
        c.append(-sum(u[i] * c[n - i] for i in range(1, n + 1)) / u[0])
    return c


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=30),
        min_size=1,
        max_size=3 * _SCHOOLBOOK_CUTOFF,
    ).filter(lambda u: u[0] != 0),
    st.integers(0, 3),
)
def test_inv_matches_recurrence(u, v):
    out = inv(QSeries(0, [0] * v + u))
    assert out.lead == -v
    assert list(out.coeffs) == recurrence_inverse([Fraction(x) for x in u])


# ----------------------------------------------------------------------
# delta, antiderivative, substitution
# ----------------------------------------------------------------------


def test_delta_constant_is_zero():
    assert qs(0, 5).delta().is_zero_window()


def test_delta_e2_matches_ramanujan():
    prec = 40
    e2, e4 = eisenstein(2, prec), eisenstein(4, prec)
    assert e2.delta().agrees_with((e2 * e2 - e4) / 12)


def test_delta_e4_coefficient():
    assert eisenstein(4, 3).delta().coefficient(1) == 240


def test_antiderivative_examples():
    f = QSeries(1, [1, -504])
    out = f.antiderivative()
    assert out.coefficient(1) == 1 and out.coefficient(2) == -252
    assert qs(0, 0, 0).antiderivative().is_zero_window()
    with pytest.raises(AntiderivativeError):
        qs(0, 3, 1).antiderivative()


def test_antiderivative_names_offending_coefficient():
    with pytest.raises(AntiderivativeError, match="7"):
        qs(0, 7).antiderivative()


def test_delta_antiderivative_round_trip():
    rng = random.Random(13)
    for _ in range(30):
        f = random_series(rng)
        if f.lead <= 0 <= f.prec:
            coeffs = list(f.coeffs)
            coeffs[-f.lead] = 0
            f = QSeries(f.lead, coeffs)
        assert f.antiderivative().delta().agrees_with(f)


def test_substitute_power():
    assert QSeries.monomial(1).substitute_power(4) == QSeries.monomial(4)
    e2_4 = eisenstein(2, 5).substitute_power(4)
    assert e2_4.coefficient(4) == -24
    f = qs(-1, 3, 1, 4)
    assert f.substitute_power(1) == f
    with pytest.raises(UsageError):
        f.substitute_power(0)


def test_substitute_power_composes():
    rng = random.Random(14)
    for _ in range(20):
        f = random_series(rng)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        lhs = f.substitute_power(a * b)
        rhs = f.substitute_power(a).substitute_power(b)
        assert lhs == rhs


# ----------------------------------------------------------------------
# integrality
# ----------------------------------------------------------------------


def test_integrality_check():
    ok = QSeries(1, [1, -252]).integrality_check()
    assert ok.ok
    bad = QSeries(-4, [Fraction(-1, 108), 0, 0, 0, 1]).integrality_check()
    assert not bad.ok and bad.exponent == -4 and bad.denominator == 108
    # 108 = 2^2 * 3^3 so 5-integrality holds
    assert QSeries(-4, [Fraction(-1, 108), 1]).integrality_check(p=5).ok
    assert not QSeries(0, [Fraction(1, 3)]).integrality_check(p=3).ok


# ----------------------------------------------------------------------
# precision honesty
# ----------------------------------------------------------------------


def test_truncation_never_changes_overlap():
    rng = random.Random(15)
    for _ in range(20):
        f, g = random_series(rng), random_series(rng)
        if f.is_zero_window() or g.is_zero_window():
            continue
        full = f * g
        if f.prec - 1 < f.lead:
            continue
        cut = f.truncate(f.prec - 1) * g
        assert full.agrees_with(cut, cut.lead, min(cut.prec, full.prec))


def test_truncated_inverse_agrees():
    rng = random.Random(17)
    for _ in range(20):
        f = random_series(rng, length_range=(3, 25))
        try:
            v = f.valuation()
        except DomainError:
            continue
        if f.prec - 1 < f.lead:
            continue
        full = f.inverse()
        cut = f.truncate(f.prec - 1).inverse()
        assert full.agrees_with(cut, cut.lead, min(cut.prec, full.prec))


def test_integer_inputs_stay_integer():
    rng = random.Random(16)
    for _ in range(20):
        f, g = random_series(rng), random_series(rng)
        assert (f * g).integrality_check().ok
        assert (f + g).integrality_check().ok
        assert f.delta().integrality_check().ok


# ----------------------------------------------------------------------
# random operation chains against a plain-Fraction reference
# ----------------------------------------------------------------------
#
# A reference series is (lead, [Fraction, ...]); every function below
# follows the window rules of the series layer with Fraction arithmetic only.


def ref_first(f):
    lead, cs = f
    return next((lead + i for i, c in enumerate(cs) if c), lead + len(cs))


def ref_mul(f, g):
    (fl, fc), (gl, gc) = f, g
    fp, gp = fl + len(fc) - 1, gl + len(gc) - 1
    ef, eg = ref_first(f), ref_first(g)
    hi = min(fp + eg, gp + ef)
    lo = min(ef + eg, hi)
    return lo, [
        sum(
            (fc[i - fl] * gc[n - i - gl] for i in range(fl, fp + 1) if gl <= n - i <= gp),
            Fraction(0),
        )
        for n in range(lo, hi + 1)
    ]


def ref_inv(f):
    v = ref_first(f)
    if v >= f[0] + len(f[1]):
        return None  # zero on its window
    return -v, recurrence_inverse(f[1][v - f[0] :])


def ref_pow(f, n):
    """Square-and-multiply in the order pow_int uses, so the windows agree."""
    if n == 0:
        return 0, [Fraction(1)] + [Fraction(0)] * max(f[0] + len(f[1]) - 1, 0)
    if n < 0:
        return ref_pow(ref_inv(f), -n)
    result, base = None, f
    while n:
        if n & 1:
            result = base if result is None else ref_mul(result, base)
        n >>= 1
        if n:
            base = ref_mul(base, base)
    return result


def ref_antiderivative(f, order):
    lead, cs = f
    if lead <= 0 < lead + len(cs) and cs[-lead]:
        return None  # nonzero constant term
    return lead, [c / n**order if n else Fraction(0) for n, c in enumerate(cs, lead)]


def ref_substitute(f, m):
    lead, cs = f
    out = [Fraction(0)] * ((len(cs) - 1) * m + 1)
    out[::m] = cs
    return lead * m, out


def ref_combine(a, f, b, g):
    lead = min(f[0], g[0])
    prec = min(f[0] + len(f[1]), g[0] + len(g[1])) - 1
    if prec < lead:
        return None

    def at(s, n):
        return s[1][n - s[0]] if n >= s[0] else Fraction(0)

    return lead, [a * at(f, n) + b * at(g, n) for n in range(lead, prec + 1)]


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def rational_series(draw):
    return draw(st.integers(-3, 3)), draw(st.lists(small_fractions, min_size=1, max_size=12))


CHAIN_OPS = (
    "mul", "inv", "pow", "delta", "antiderivative", "substitute_power", "linear_combine", "truncate"
)


def assert_canonical(f, ref):
    assert f.den > 0
    assert math.gcd(f.den, *f.nums) == 1
    assert (f.lead, f.prec) == (ref[0], ref[0] + len(ref[1]) - 1)
    assert list(f.coeffs) == ref[1]


@settings(max_examples=200, deadline=None)
@given(rational_series(), st.lists(st.sampled_from(CHAIN_OPS), min_size=1, max_size=6), st.data())
def test_random_chains_match_fraction_reference(start, ops, data):
    """Each step keeps the canonical form and the reference's coefficients,
    and a truncation equals the same window built from Fractions."""
    f, ref = QSeries(*start), start
    assert_canonical(f, ref)
    for op in ops:
        if len(ref[1]) > 40:
            break
        if op == "mul":
            other = data.draw(rational_series())
            f, ref = f * QSeries(*other), ref_mul(ref, other)
        elif op == "inv":
            ref = ref_inv(ref)
            if ref is None:
                with pytest.raises(DomainError):
                    f.inverse()
                return
            f = f.inverse()
        elif op == "pow":
            n = data.draw(st.integers(-2, 3))
            if n < 0 and ref_inv(ref) is None:
                return
            f, ref = f**n, ref_pow(ref, n)
        elif op == "delta":
            f, ref = f.delta(), (ref[0], [c * n for n, c in enumerate(ref[1], ref[0])])
        elif op == "antiderivative":
            order = data.draw(st.integers(1, 2))
            ref = ref_antiderivative(ref, order)
            if ref is None:
                with pytest.raises(AntiderivativeError):
                    f.antiderivative(order)
                return
            f = f.antiderivative(order)
        elif op == "substitute_power":
            m = data.draw(st.integers(1, 3))
            f, ref = f.substitute_power(m), ref_substitute(ref, m)
        elif op == "linear_combine":
            a, b = data.draw(small_fractions), data.draw(small_fractions)
            other = data.draw(rational_series())
            ref = ref_combine(a, ref, b, other)
            if ref is None:
                with pytest.raises(PrecisionError):
                    linear_combine([(a, f), (b, QSeries(*other))])
                return
            f = linear_combine([(a, f), (b, QSeries(*other))])
        else:
            p = data.draw(st.integers(ref[0], ref[0] + len(ref[1]) - 1))
            f, ref = f.truncate(p), (ref[0], ref[1][: p - ref[0] + 1])
        assert_canonical(f, ref)
        p = data.draw(st.integers(f.lead, f.prec))
        cut, built = f.truncate(p), QSeries(f.lead, ref[1][: p - f.lead + 1])
        assert cut == built and hash(cut) == hash(built)
