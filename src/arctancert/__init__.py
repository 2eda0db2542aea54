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
    nested_radical_seq,
    shafer_fink_bounds,
    theorem2_bounds,
    theorem4_upper,
    theorem5_approx,
)
from .families import Approximant, claimed_sup_bound, family_info, list_rows
from .master import (
    MasterParams,
    a_n,
    denominator_product,
    elementary_symmetric,
    gn_eval,
    master_bounds,
    master_params,
    pn_coefficients,
)
from .series import (
    blend_w,
    cf_arctan,
    cheb_arctan,
    cheb_coefficients,
    machin_pi,
    machin_pi_fraction,
    taylor1_s,
    taylor1_t,
)
from .verify import (
    BoundKind,
    ErrorReport,
    Interval,
    OracleConfig,
    certify_bound,
    default_config,
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
    "MasterParams",
    "OracleConfig",
    "a_n",
    "blend_w",
    "certify_bound",
    "cf_arctan",
    "cheb_arctan",
    "cheb_coefficients",
    "claimed_sup_bound",
    "default_config",
    "denominator_product",
    "elementary_symmetric",
    "family_info",
    "gn_eval",
    "lagrange_p",
    "lift_interval_map",
    "list_rows",
    "machin_pi",
    "machin_pi_fraction",
    "master_bounds",
    "master_params",
    "nested_radical_seq",
    "norm_transfer_check",
    "oracle_arctan",
    "oracle_pi",
    "pn_coefficients",
    "shafer_fink_bounds",
    "sup_error",
    "taylor1_s",
    "taylor1_t",
    "theorem2_bounds",
    "theorem4_upper",
    "theorem5_approx",
]
