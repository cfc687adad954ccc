"""Exact construction and cross-verification of zonal harmonic kernels.

The package builds the degree-k zonal harmonic kernel on R^(n+1) by several
independent symbolic routes (direct ultraspherical expansion, a raising
operator built from the Kelvin inversion, iterated Laplacians acting on the
low-dimensional kernels, real parts of Clifford paravector products, and a
Laplacian-plus-inversion route on negative powers) and certifies their exact
agreement over the rationals, together with the classical polynomial
identities the constructions rest on.
"""

from .gegenbauer import chebyshev_T, gegenbauer, zonal_direct
from .radialexpr import (
    ExtendedValue,
    PoleError,
    RadialExpr,
    RadialOverflow,
    constant,
    coordinate,
    from_terms,
    inner_xy,
    norm_power,
    quadratic_form,
)
from .ratnum import binomial, factorial, pochhammer
from .verify import SuiteArgs, VerificationReport, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "pochhammer", "binomial", "factorial",
    "RadialExpr", "ExtendedValue", "PoleError", "RadialOverflow",
    "constant", "coordinate", "inner_xy", "norm_power", "quadratic_form",
    "from_terms",
    "gegenbauer", "chebyshev_T", "zonal_direct",
    "run_suite", "run_suites", "SuiteArgs", "VerificationReport",
    "__version__",
]
