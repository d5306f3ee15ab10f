"""Fast free-space solver for the discrete Poisson equation on Z^2."""

from .green import (
    GreensTable,
    apply_discrete_laplacian,
    default_table,
    phi,
    phi_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "GreensTable",
    "apply_discrete_laplacian",
    "default_table",
    "phi",
    "phi_asymptotic",
    "__version__",
]
