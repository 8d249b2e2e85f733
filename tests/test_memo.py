"""The widest-window memo: every memoised builder, served at any window and
in any order, returns what the builder itself returns."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magforms import forms, halfint, series
from magforms.forms import FormName, j_invariant, named_form
from magforms.halfint import named_plus_form, plus_basis
from magforms.quasi import expand
from magforms.series import QSeries, SeriesError, UsageError, widest_window
from magforms.verify import _sweep

# (memoised builder, key, windows); _element is only asked for windows >= 0,
# which plus_basis guarantees
MEMOISED = (
    [(forms.eisenstein, (k,), (-2, 60)) for k in (2, 4, 6, 8)]
    + [(b, (), (-2, 60)) for b in (forms.discriminant, forms.theta, forms.e24)]
    + [(forms._quotient, (name,), (-2, 40)) for name in (FormName.F4A, FormName.F4B, FormName.F6)]
    + [(forms._quotient, (name,), (-2, 40)) for name in forms._J_FORM_DATA]
    + [
        (forms._inverse_part, key, (-2, 60))
        for key in ((1, 0, 0), (3, 0, 0), (0, 2, 0), (2, 1, 0), (0, 0, 1), (0, 2, 1))
    ]
    # (0, 3, 0, -1) is j and (0, 3, 0, 0) the E4^3 whose powers build the homogenised
    # j-polynomials; (0, 6, 0, 1) has positive exponents only
    + [
        (forms._monomial, key, (-2, 60))
        for key in (
            (0, 3, 0, -1), (0, -2, 0, 1), (1, -1, 1, 0), (2, 2, 0, -2), (0, 0, 0, -3), (0, 6, 0, 1),
            (0, 3, 0, 0),
        )
    ]
    # the LS8, Triple8 and HK denominators (den, den_power)
    + [
        (forms._den_inverse, key, (-2, 60))
        for key in dict.fromkeys((den, p) for _, _, den, p in forms._J_FORM_DATA.values())
    ]
    + [
        (halfint._element, key, (0, 24))
        for key in ((0, 0), (0, 3), (0, 4), (0, 8), (2, 3), (2, 4), (2, 7), (3, 1), (3, 5), (3, 8))
    ]
)


def _outcome(build, *args):
    """The series, or the class of the SeriesError it raises."""
    try:
        return build(*args)
    except SeriesError as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memo_serves_what_the_builder_builds(data):
    build, key, (lo, hi) = data.draw(st.sampled_from(MEMOISED))
    for prec in data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6)):
        assert _outcome(build, *key, prec) == _outcome(build.__wrapped__, *key, prec)


def test_widest_window_keeps_the_widest_build():
    calls = []

    @widest_window
    def ones(n, prec):
        calls.append(prec)
        if prec < 0:
            raise UsageError("prec must be >= 0")
        return QSeries(0, [n] * (prec + 1))

    assert ones(1, 5) == QSeries(0, [1] * 6)
    assert ones(1, 3) == QSeries(0, [1] * 4)  # a truncation of the kept window
    assert ones(2, 3) == QSeries(0, [2] * 4)  # another key builds
    assert ones(1, 9) == QSeries(0, [1] * 10)  # wider: built and kept
    assert ones(1, 7) == QSeries(0, [1] * 8)
    with pytest.raises(UsageError):  # below the kept lead: the builder decides
        ones(1, -1)
    assert calls == [5, 3, 9, -1]


def test_j_at_window_zero_raises_after_a_wide_build():
    j_invariant(100)
    with pytest.raises(UsageError):
        j_invariant(0)


def _count_inverses(monkeypatch) -> list:
    """Empty the kept monomials, their inverse parts, the named quotients and the
    kept j-quotient denominators, and record each series.inv call."""
    for name in ("_inverse_part", "_monomial", "_quotient", "_den_inverse"):
        monkeypatch.setattr(forms, name, widest_window(getattr(forms, name).__wrapped__))
    calls, inv = [], series.inv
    monkeypatch.setattr(series, "inv", lambda f: calls.append(f) or inv(f))
    return calls


def test_each_sweep_denominator_is_inverted_once(monkeypatch):
    calls = _count_inverses(monkeypatch)
    elements = [elem for _, elem in _sweep(4)]
    denominators = {
        (max(-m.b, 0), max(-m.c, 0)) for elem in elements for m in elem.terms if min(m.b, m.c) < 0
    }
    for prec in (60, 40, 60):
        for elem in elements:
            expand(elem, prec)
    assert len(calls) == len(denominators) > 1


def test_h0_inverts_delta_once(monkeypatch):
    # j = E4^3/Delta and E4 E6/Delta share the kept 1/(Delta/q)
    calls = _count_inverses(monkeypatch)
    named_plus_form("h0", 900)
    assert len(calls) == 1


def test_hk_numerators_share_one_denominator_inverse(monkeypatch):
    # HK_num1 and HK_num2 divide by the same (j - 54000)^2, homogenised
    calls = _count_inverses(monkeypatch)
    named_form("HK_num1", 120)
    named_form("HK_num2", 120)
    assert len(calls) == 1


@pytest.mark.parametrize("prec", [0, 1, 2])
def test_f6half_below_its_normalising_coefficient_is_the_wide_truncation(prec):
    code = f"from magforms.halfint import named_plus_form; print(named_plus_form('f6half', {prec}).series.to_json())"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    wide = named_plus_form("f6half", 60).series.truncate(prec)
    assert QSeries.from_json_dict(json.loads(fresh.stdout)) == wide
    assert named_plus_form("f6half", prec).series == wide


def test_narrow_basis_after_a_wide_build_equals_a_fresh_build():
    plus_basis(0, [4], 40)
    warm = plus_basis(0, [4], 0)[4].series
    code = "from magforms.halfint import plus_basis; print(plus_basis(0, [4], 0)[4].series.to_json())"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert warm == QSeries.from_json_dict(json.loads(fresh.stdout))
