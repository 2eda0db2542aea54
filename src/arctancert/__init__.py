"""Arctangent approximation families with numerically certified error bounds.

A library of closed-form and series approximants for arctan (two-sided bound
pairs of every order, Chebyshev truncations, continued-fraction convergents,
series around x = 1, and a Machin-series pi), together with an
extended-precision oracle and a sup-norm harness that measures each family's
error against its claimed bound.
"""

from .core import (
    BoundPair,
    LiftedApproximant,
    lagrange_p,
    lift_interval_map,
    shafer_fink_bounds,
    theorem2_bounds,
    theorem4_upper,
    theorem5_approx,
)
from .families import Approximant
from .master import (
    a_n,
    master_bounds,
    master_params,
)
from .series import (
    blend_w,
    cf_arctan,
    cheb_arctan,
    machin_pi,
    taylor1_s,
    taylor1_t,
)
from .verify import (
    BoundKind,
    ErrorReport,
    Interval,
    OracleConfig,
    certify_bound,
    norm_transfer_check,
    oracle_arctan,
    oracle_pi,
    sup_error,
)

__version__ = "0.1.0"

__all__ = [
    "Approximant",
    "BoundKind",
    "BoundPair",
    "ErrorReport",
    "Interval",
    "LiftedApproximant",
    "OracleConfig",
    "a_n",
    "blend_w",
    "certify_bound",
    "cf_arctan",
    "cheb_arctan",
    "lagrange_p",
    "lift_interval_map",
    "machin_pi",
    "master_bounds",
    "master_params",
    "norm_transfer_check",
    "oracle_arctan",
    "oracle_pi",
    "shafer_fink_bounds",
    "sup_error",
    "taylor1_s",
    "taylor1_t",
    "theorem2_bounds",
    "theorem4_upper",
    "theorem5_approx",
]
