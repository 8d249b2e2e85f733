"""Embedded verification data for the thirteen weight-4 lift identities.

Each row records the lift input (scalar, pole order of the weight-5/2 basis
element, and a polynomial in the plus-space operator T4') together with the
expected right-hand side E4^e * num(j) / den(j)^dp, with the integer
polynomial coefficients stored ascending.  The deep-pole rows (43, 67, 163)
are gated behind the extended flag; row 6 is also marked extended because it
needs the same wide window as rows 4-5 but sits outside the default check
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import UsageError


@dataclass(frozen=True)
class LiftTableRow:
    row_id: int
    scalar: Fraction
    basis_m: int
    # polynomial in T4': list of (coefficient, operator power)
    hecke_poly: tuple[tuple[Fraction, int], ...]
    e4_power: int
    numerator: tuple[int, ...]
    denominator: tuple[int, ...]
    denominator_power: int
    extended: bool = False


_ID = ((Fraction(1), 0),)


def _poly(*pairs) -> tuple[tuple[Fraction, int], ...]:
    return tuple((Fraction(c), p) for c, p in pairs)


LIFT_TABLE: tuple[LiftTableRow, ...] = (
    LiftTableRow(
        1, Fraction(1, 27), 7, _ID,
        1, (-8 * 15**3, 19), (15**3, 1), 2,
    ),
    LiftTableRow(
        2, Fraction(-1, 8), 8, _ID,
        1, (-3 * 20**3, 101), (-(20**3), 1), 2,
    ),
    LiftTableRow(
        3, Fraction(1, 64), 11, _ID,
        1, (-6 * 32**3, 43), (32**3, 1), 2,
    ),
    LiftTableRow(
        4, Fraction(1, 48**2), 3, _poly((1, 1)),
        1, (18 * 15**3, 14), (-2 * 30**3, 1), 2,
    ),
    LiftTableRow(
        5, Fraction(1, 108), 4, _poly((1, 0), (Fraction(-1, 2), 1)),
        1, (404 * 33**3, 611), (-(66**3), 1), 2,
    ),
    LiftTableRow(
        6, Fraction(1, 27), 7, _poly((2, 0), (Fraction(-1, 2), 1)),
        1, (5272 * 255**3, 82451), (-(255**3), 1), 2,
        True,
    ),
    LiftTableRow(
        7, Fraction(1, 12**3), 19, _ID,
        1, (-2 * 96**3, 25), (96**3, 1), 2,
    ),
    LiftTableRow(
        8, Fraction(1, 12**3), 43, _ID,
        1, (-578 * 960**3, 11329), (960**3, 1), 2,
        True,
    ),
    LiftTableRow(
        9, Fraction(1, 12**3), 67, _ID,
        1, (-49442 * 5280**3, 1221961), (5280**3, 1), 2,
        True,
    ),
    LiftTableRow(
        10, Fraction(1, 12**3), 163, _ID,
        1, (-23238932978 * 640320**3, 908855380249), (640320**3, 1), 2,
        True,
    ),
    LiftTableRow(
        11, Fraction(1, 15), 15, _ID,
        1,
        (837864 * 495**3, 28709816985, -15219684, 785),
        (-(495**3), 191025, 1),
        2,
    ),
    LiftTableRow(
        12, Fraction(-1, 80), 20, _ID,
        1,
        (123 * 20**3 * 880**3, -984198615040, 72767680, 733),
        (-(880**3), -158 * 20**3, 1),
        2,
    ),
    LiftTableRow(
        13, Fraction(-1), 23, _ID,
        1,
        (
            4378632 * 187**3 * 5**15,
            -47816219216827 * 5**12,
            3414887843776 * 5**9,
            5214621227 * 5**6,
            -286458244 * 5**3,
            141826,
        ),
        (187**3 * 5**9, -329683 * 5**6, 27934 * 5**3, 1),
        2,
    ),
)

DEFAULT_ROWS: tuple[int, ...] = tuple(
    row.row_id for row in LIFT_TABLE if not row.extended
)
EXTENDED_ROWS: tuple[int, ...] = tuple(
    row.row_id for row in LIFT_TABLE if row.extended
)


def get_row(row_id: int) -> LiftTableRow:
    for row in LIFT_TABLE:
        if row.row_id == row_id:
            return row
    raise UsageError(f"no lift table row {row_id}")
