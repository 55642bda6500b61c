"""Exact-arithmetic bounds on irrationality and non-quadraticity measures of
alpha_k = sqrt(2k+1) * ln((sqrt(2k+1)-1)/(sqrt(2k+1)+1)).

Each name loads its module on first access (PEP 562), so a process imports
only the layers it uses: the bound commands never load ``forms``."""

_EXPORTS = {
    "asymptotics": ("digamma", "k_constants", "saddle_complex", "saddle_real"),
    "errors": ("CertificateError", "DomainError", "IntegralityError",
               "NonApplicableError", "PrecisionError"),
    "exact_arith": ("Params", "PrimeSieve", "d_upto"),
    "forms": ("IntegerForms", "UVWValues", "VerificationRow", "eval_UVW",
              "scaled_integer_forms", "verify_forms", "x_point"),
    "measures": ("BoundResult", "headline_table", "mu2_bound", "mu_bound",
                 "predicted_decay", "search_params"),
    "omega": ("compute_omega", "delta_products", "n_constants",
              "omega_contains"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value

