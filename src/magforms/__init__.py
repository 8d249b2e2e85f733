"""Exact q-expansion arithmetic for (quasi-)modular forms.

The package computes truncated q-expansions with exact rational coefficients,
implements the differential algebra of quasi-modular forms with constructive
weight-4/6 reduction certificates, half-integral-weight Hecke operators on the
Kohnen plus space, the Shimura-Borcherds lift, and batch verification of the
integrality ("magnetic") identities the library is built around.
"""

from .series import (
    AntiderivativeError,
    DomainError,
    IntegralityReport,
    PrecisionError,
    QSeries,
    SeriesError,
    UsageError,
    inv,
    linear_combine,
    mul,
    pow_int,
)
from .forms import (
    FormName,
    discriminant,
    e24,
    eisenstein,
    hk_operator_apply,
    j_invariant,
    named_form,
    quasi_monomial,
    specific_d_apply,
    theta,
)

__all__ = [
    "AntiderivativeError",
    "DomainError",
    "FormName",
    "IntegralityReport",
    "PrecisionError",
    "QSeries",
    "SeriesError",
    "UsageError",
    "discriminant",
    "e24",
    "eisenstein",
    "hk_operator_apply",
    "inv",
    "j_invariant",
    "linear_combine",
    "mul",
    "named_form",
    "pow_int",
    "quasi_monomial",
    "specific_d_apply",
    "theta",
]

__version__ = "0.1.0"
