"""Exact-arithmetic bounds on irrationality and non-quadraticity measures of
alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1))."""

from .asymptotics import (alpha_value, digamma, k_constants, saddle_complex,
                          saddle_real)
from .errors import (CertificateError, DomainError, IntegralityError,
                     NonApplicableError, PrecisionError, SieveCapacityError)
from .exact_arith import PrimeSieve, QuadRat, Rat, d_upto
from .forms import (IntegerForms, IntPoly, Params, UVWValues, build_A,
                    derivative, eval_UVW, scaled_integer_forms, series_uvw,
                    shift_poly, tail_transform_coeffs, x_point)
from .measures import (BoundResult, VerificationRow, headline_table,
                       mu2_bound, mu_bound, predicted_decay, search_params,
                       verify_forms)
from .omega import (IntervalSet, OmegaReport, compute_omega, delta_products,
                    floor_sum_min, floor_sum_value, n_constants,
                    omega_contains)

__version__ = "0.1.0"

__all__ = [
    "Rat", "QuadRat", "PrimeSieve", "d_upto",
    "Params", "IntPoly", "UVWValues", "IntegerForms",
    "build_A", "shift_poly", "derivative", "tail_transform_coeffs",
    "eval_UVW", "scaled_integer_forms", "series_uvw", "x_point",
    "IntervalSet", "OmegaReport", "compute_omega", "delta_products",
    "n_constants", "floor_sum_value", "floor_sum_min", "omega_contains",
    "digamma", "alpha_value", "saddle_real", "saddle_complex", "k_constants",
    "BoundResult", "VerificationRow", "mu_bound", "mu2_bound",
    "verify_forms", "search_params", "headline_table", "predicted_decay",
    "DomainError", "SieveCapacityError", "IntegralityError",
    "NonApplicableError", "PrecisionError", "CertificateError",
    "__version__",
]
