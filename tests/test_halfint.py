"""Plus space forms, Hecke operators, the raising operator, and the basis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms import halfint
from magforms.forms import discriminant, e24, eisenstein, j_invariant, quasi_monomial, theta
from magforms.halfint import (
    BasisError,
    PlusForm,
    PlusSpaceError,
    admissible,
    at_4tau,
    big_t_p,
    chi_p,
    kohnen_project,
    kronecker,
    named_plus_form,
    plus_basis,
    plus_check,
    raising,
    t4_prime,
    t_p2,
    t_p2_series,
    u_p,
    v_p,
    f6half_scale,
)
from magforms.series import PrecisionError, QSeries, UsageError, linear_combine, widest_window


def rand_series(rng, lead, prec):
    return QSeries(lead, [rng.randint(-99, 99) for _ in range(prec - lead + 1)])


def rand_plus_series(rng, k, lead, prec):
    return QSeries(
        lead,
        [
            rng.randint(-99, 99) if admissible(k, n) else 0
            for n in range(lead, prec + 1)
        ],
    )


# ----------------------------------------------------------------------
# plus condition and symbols
# ----------------------------------------------------------------------


def test_admissible():
    assert [n for n in range(8) if admissible(2, n)] == [0, 1, 4, 5]
    assert [n for n in range(8) if admissible(3, n)] == [0, 3, 4, 7]


def test_plus_check_and_construction():
    g0 = named_plus_form("g0", 60)
    assert plus_check(g0.series, 2).ok
    h0 = named_plus_form("h0", 30)
    assert plus_check(h0.series, 0).ok
    with pytest.raises(PlusSpaceError):
        PlusForm(2, theta(20).shift(1))  # exponent 2 is not admissible


def test_kronecker():
    assert kronecker(5, 1) == 1
    assert kronecker(3, -3) == 0
    assert kronecker(2, -3) == -1
    assert kronecker(7, -3) == 1
    with pytest.raises(UsageError):
        kronecker(0, 1)
    with pytest.raises(UsageError):
        kronecker(1, 5)


# ----------------------------------------------------------------------
# elementary operators
# ----------------------------------------------------------------------


def test_level4_rule_off_a_multiple_of_four():
    # E6(4tau) / Delta(4tau) through q^41, inverted at the full length: Delta(4tau)
    # through q^52 has valuation 4, so its inverse reaches q^44
    prec = 41
    full = eisenstein(6, 12).substitute_power(4) * discriminant(13).substitute_power(4).inverse()
    quarter = at_4tau(lambda p: quasi_monomial(0, 0, 1, p, -1), prec)
    assert quarter.prec >= prec
    assert quarter.truncate(prec) == full.truncate(prec)


def test_u_v_identities():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(10):
            f = rand_series(rng, rng.randint(-5, 0), 200)
            assert u_p(v_p(f, p), p).agrees_with(f)


def test_chi_kills_multiples():
    f = QSeries(0, [1] * 20)
    out = chi_p(f, 5, 2)
    assert all(out.coefficient(5 * i) == 0 for i in range(0, 4))


def test_v_chi_and_chi_u_vanish():
    rng = random.Random(32)
    for p in (3, 5):
        for k in (2, 3):
            f = rand_series(rng, -4, p * p * 30)
            assert chi_p(v_p(f, p * p), p, k).is_zero_window()
            assert u_p(chi_p(f, p, k), p * p).is_zero_window()


def test_u_p_window_shortfall():
    with pytest.raises(PrecisionError):
        u_p(QSeries(1, [1, 2]), 5)


def test_tau_eigenvalue():
    d = discriminant(12)
    assert big_t_p(d, 12, 2).coefficient(1) == -24  # tau(2)
    # Delta is an eigenform: Delta|T_p = tau(p) Delta
    for p in (2, 3, 5):
        d = discriminant(60)
        out = big_t_p(d, 12, p)
        tau_p = discriminant(p).coefficient(p)
        assert out.agrees_with(tau_p * d, 1, out.prec)


def test_t_p2_mod_p():
    rng = random.Random(33)
    for p in (3, 5):
        f = rand_series(rng, -4, p * p * 40)
        diff = linear_combine([(1, t_p2_series(f, 2, p)), (-1, u_p(f, p * p))])
        for c in diff.coeffs:
            assert c.denominator == 1 and c.numerator % p == 0


def test_kohnen_projection_idempotent():
    rng = random.Random(34)
    f = rand_series(rng, -6, 60)
    once = kohnen_project(f, 2)
    assert kohnen_project(once, 2) == once
    g0 = named_plus_form("g0", 40)
    assert kohnen_project(g0.series, 2) == g0.series


def test_t_p2_preserves_plus():
    f4a = named_plus_form("f4a", 900)
    out = t_p2(f4a, 3)  # construction re-validates the plus condition
    assert out.k == 2
    with pytest.raises(UsageError):
        t_p2(f4a, 2)


# ----------------------------------------------------------------------
# raising operator
# ----------------------------------------------------------------------


def test_raising_theta_gives_g0():
    th = PlusForm(0, theta(120))
    out = raising(th)
    assert out.k == 2
    g0 = named_plus_form("g0", 100)
    assert (out.series * -6).agrees_with(g0.series, 0, 100)


def test_raising_h0_gives_f4a():
    h0 = named_plus_form("h0", 140)
    f4a = named_plus_form("f4a", 120)
    lhs = raising(h0).series * Fraction(-6, 19)
    assert lhs.agrees_with(64 * f4a.series, -3, 120)


def test_raising_parity():
    rng = random.Random(35)
    f = PlusForm(3, rand_plus_series(rng, 3, -4, 200))
    out = raising(f)
    assert out.k == 5
    assert plus_check(out.series, 5).ok


# ----------------------------------------------------------------------
# basis construction
# ----------------------------------------------------------------------


def test_basis_m0_is_g0():
    basis = plus_basis(2, [0], 60)
    assert basis[0].series.agrees_with(named_plus_form("g0", 60).series)


def test_basis_printed_g0_values():
    f0 = plus_basis(2, [0], 50)[0]
    printed = {0: 1, 1: -10, 4: -70, 5: -48, 8: -120, 9: -250, 16: -550, 25: -1210, 36: -1750, 49: -3370}
    for n, value in printed.items():
        if n <= 49:
            assert f0.series._get(n) == value


def test_basis_shapes_and_integrality():
    basis = plus_basis(2, [3, 4, 7, 8], 80)
    for m in (3, 4, 7, 8):
        f = basis[m].series
        assert f.coefficient(-m) == 1
        for e in range(-m + 1, 1):
            assert f._get(e) == 0
        assert f.integrality_check().ok
        assert plus_check(f, 2).ok


def test_basis_f3_from_named_generators():
    basis = plus_basis(2, [3], 60)
    g0 = named_plus_form("g0", 60).series
    g1 = named_plus_form("g1", 60).series
    g2 = named_plus_form("g2", 60).series
    expected = linear_combine(
        [(Fraction(1, 12), g1), (Fraction(-1, 12), g2), (56, g0)]
    )
    assert basis[3].series.agrees_with(expected, -3, 60)


def test_basis_g1_decomposition():
    basis = plus_basis(2, [0, 3, 4], 60)
    recomposed = linear_combine(
        [(1, basis[4].series), (2, basis[3].series), (2, basis[0].series)]
    )
    assert recomposed.agrees_with(named_plus_form("g1", 60).series, -4, 60)


def test_basis_weight_7_half():
    basis = plus_basis(3, [0, 1], 60)
    f1 = basis[1].series
    assert f1.coefficient(-1) == 1 and f1.coefficient(0) == 0
    assert f1.integrality_check().ok
    assert plus_check(f1, 3).ok
    assert f1.coefficient(3) == -384


def test_basis_weight_7_half_ladder():
    basis = plus_basis(3, [4, 5], 50)
    for m in (4, 5):
        f = basis[m].series
        assert f.coefficient(-m) == 1
        assert all(f._get(e) == 0 for e in range(-m + 1, 1))
        assert f.integrality_check().ok
        assert plus_check(f, 3).ok


def test_basis_rejects_inadmissible():
    with pytest.raises(UsageError):
        plus_basis(2, [2], 30)
    with pytest.raises(UsageError):
        plus_basis(3, [3], 30)


@pytest.mark.parametrize("k", [0, 2, 3, 4, 5, 6, 7])
def test_basis_seeds_from_one_pool_size(k):
    # pool_s_max reports 3, the pool's 1/Delta(4tau)^s for s <= 3, at every k but 2;
    # the seeds q^-m + O(q), m <= 3, are theta forms at k = 0 and 2, pool solves above
    orders = [m for m in range(4) if admissible(k, -m)]
    basis = plus_basis(k, orders, 40)
    assert basis.pool_s_max == (0 if k == 2 else 3)
    for m in orders:
        f = basis[m].series
        assert f.coefficient(-m) == 1
        assert all(f._get(e) == 0 for e in range(-m + 1, 1))
        assert f.integrality_check().ok


def test_pool_seeds_are_solved_once_per_k_and_m(monkeypatch):
    # the solve reads a window fixed by k, so widening a seed reuses it; past
    # the widest-window memo every call below builds its window afresh
    solve, calls = halfint._solve_particular, []
    monkeypatch.setattr(halfint, "_POOL_SOLUTIONS", {})
    monkeypatch.setattr(halfint, "_solve_particular", lambda *a: calls.append(a) or solve(*a))
    build = halfint._element.__wrapped__
    for k, m in ((3, 1), (6, 3)):
        widest = build(k, m, 60)
        for prec in (40, 41):
            assert build(k, m, prec) == widest.truncate(prec)
    assert len(calls) == 2
    # at k = 1 the seed 1 + O(q) does not exist: the failure is not kept
    for _ in range(2):
        with pytest.raises(BasisError):
            halfint._pool_seed(1, 0, 10)
    assert len(calls) == 4 and (1, 0) not in halfint._POOL_SOLUTIONS


def _h0_product_formula(prec):
    """f theta (theta^4 - 2f)(theta^4 - 16f) (E6/Delta)(4tau) + 56 theta, f = E_{2,4}."""
    work = prec + 4  # (E6/Delta)(4tau), of valuation -4, costs the other factors 4
    th, f = theta(work), e24(work)
    m4 = at_4tau(lambda p: quasi_monomial(0, 0, 1, p, -1), prec)
    main = f * th * (th**4 - 2 * f) * (th**4 - 16 * f) * m4
    return (main + 56 * th).truncate(prec)


@pytest.mark.parametrize("prec", [0, 1, 2, 3, 40, 901])
def test_weight_half_theta_form_matches_the_pool_and_the_product_formula(prec):
    # the k = 0 seeds theta and h0 in theta form equal their pool solves, and h0
    # equals the level-4 product formula
    for r in (0, 3):
        pool = halfint._pool_seed(0, r, prec).restrict(-r, prec)
        assert plus_basis(0, [r], prec)[r].series == pool
    assert named_plus_form("h0", prec).series == _h0_product_formula(prec)


def test_weight_half_basis_never_solves_on_the_pool(monkeypatch):
    # past the memo of elements and j-polynomials, every k = 0 element is built afresh
    def refuse(*args):
        raise AssertionError(f"_pool_seed{args} called")

    monkeypatch.setattr(halfint, "_pool_seed", refuse)
    monkeypatch.setattr(halfint, "_J_POLYS", {})
    monkeypatch.setattr(halfint, "_element", widest_window(halfint._element.__wrapped__))
    basis = plus_basis(0, [0, 3, 4, 7, 23], 60)
    assert basis[23].series.coefficient(-23) == 1 and basis[0].series == theta(60)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_theta_sums_equal_the_plain_products(data):
    # X(4tau) and A(4tau) vanish off multiples of 4, so level-1 series through
    # q^w give the level-4 ones through q^prec for prec < 4w + 4
    w = data.draw(st.integers(0, 3), label="level-1 window")
    prec = 4 * w + data.draw(st.integers(1, 3), label="prec - 4w")
    coeff = st.fractions(min_value=-99, max_value=99, max_denominator=12)

    def level1(label):
        lead = data.draw(st.integers(-3, 0), label=f"{label} lead")
        n = w - lead + 1
        return QSeries(lead, data.draw(st.lists(coeff, min_size=n, max_size=n), label=label))

    def at_4tau_through_prec(f):
        return QSeries(4 * f.lead, list(f.substitute_power(4).coeffs) + [0] * (prec - 4 * w))

    x, a = level1("X"), level1("A")
    lo = 4 * min(x.lead, a.lead)
    th = theta(prec - lo)
    plain = th * at_4tau_through_prec(x) - 6 * th.delta() * at_4tau_through_prec(a)
    assert halfint._theta_sums(x, a, prec) == plain.restrict(lo, prec)


@pytest.mark.parametrize("k", [0, 3])
def test_elements_are_j_polynomials_in_the_seeds(k):
    # sum_r f_r P_{m,r}(j(4tau)), with the powers of j multiplied out plainly
    prec, degree = 40, 3
    j = j_invariant(prec // 4 + degree + 2)
    for m in [m for m in range(13) if admissible(k, -m)]:
        terms = []
        for r, p in halfint._j_polys(k, m).items():
            assert len(p) <= degree + 1
            power, poly = QSeries.one(j.prec), []
            for c in p:
                poly.append((c, power))
                power = power * j
            if p:
                seed = plus_basis(k, [r], prec + 4 * degree)[r].series
                terms.append((1, seed * linear_combine(poly).substitute_power(4)))
        expected = linear_combine(terms).restrict(-m, prec)
        assert plus_basis(k, [m], prec)[m].series == expected


@pytest.mark.parametrize("k", [0, 2, 3, 6])
def test_elements_match_the_j4tau_ladder(k):
    # f_m = f_(m-4) j(4tau) - sum_n c_n f_n, each c_n read off the principal
    # part; at k = 6, where q^-m + O(q) is not unique, this fixes the choice
    prec, top = 24, 16
    wide = prec + top
    J = j_invariant(wide // 4 + 2).substitute_power(4)
    f = {}
    for m in [m for m in range(top + 1) if admissible(k, -m)]:
        if m < 4:
            f[m] = plus_basis(k, [m], wide)[m].series
            continue
        product = f[m - 4] * J
        terms = [(1, product)] + [(-product._get(-n), f[n]) for n in f]
        f[m] = linear_combine(terms).restrict(-m, product.prec)
        assert plus_basis(k, [m], prec)[m].series == f[m].truncate(prec)


def test_basis_weight_3_half_has_no_seed():
    # weight 3/2 has no element 1 + O(q), the m = 0 seed that every basis
    # builds first, so even the pole-order-1 basis fails
    with pytest.raises(BasisError, match="weight 3/2"):
        plus_basis(1, [1], 40)
    # a negative weight parameter is refused before any solve
    with pytest.raises(UsageError, match="k must be >= 0"):
        plus_basis(-1, [0], 40)


def test_basis_window_below_q0_is_a_precision_error():
    # every basis holds, or is built on, 1 + O(q), which needs q^0
    for k, m in ((0, 4), (2, 3), (3, 5)):
        with pytest.raises(PrecisionError):
            plus_basis(k, [m], -1)


def test_t4_prime_recursions_family4():
    basis = plus_basis(2, [4, 16, 64], 420)
    lhs = t4_prime(basis[4]).series
    assert lhs.agrees_with(8 * basis[16].series, None, 100)
    lhs = t4_prime(basis[16]).series
    rhs = linear_combine([(8, basis[64].series), (1, basis[4].series)])
    assert lhs.agrees_with(rhs, None, 100)


# ----------------------------------------------------------------------
# named forms
# ----------------------------------------------------------------------


def test_lemma1_printed_coefficients():
    f4a = named_plus_form("f4a", 30)
    assert f4a.coefficient(-3) == Fraction(1, 64)
    assert f4a.coefficient(1) == 1
    assert f4a.coefficient(4) == -506
    f4b = named_plus_form("f4b", 30)
    assert f4b.coefficient(-4) == Fraction(-1, 108)
    assert f4b.coefficient(1) == 1
    assert f4b.coefficient(4) == 1222


def test_lemma1_denominators():
    f4a = named_plus_form("f4a", 400)
    f4b = named_plus_form("f4b", 400)
    assert (64 * f4a.series).integrality_check().ok
    assert (108 * f4b.series).integrality_check().ok
    for c in f4a.series.coeffs:
        assert 64 % c.denominator == 0
    for c in f4b.series.coeffs:
        assert 108 % c.denominator == 0


def test_g2_equals_g0_times_j4():
    # the interpretation of the undefined symbol in the g2 display
    g2 = named_plus_form("g2", 50)
    assert g2.coefficient(0) == 674 and g2.coefficient(1) == -7488


def test_h0_values():
    h0 = named_plus_form("h0", 30)
    assert h0.series.lead == -3
    assert h0.coefficient(-3) == 1
    assert h0.coefficient(1) == -248
    assert h0.coefficient(4) == 26752
    assert plus_check(h0.series, 0).ok


def test_f6half_normalisation():
    assert f6half_scale() == Fraction(-1, 384)
    f = named_plus_form("f6half", 200)
    assert f.k == 3
    assert f.coefficient(3) == 1  # makes the lifted q-coefficient equal 1
