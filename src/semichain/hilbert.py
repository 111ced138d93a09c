"""Dense complex linear algebra for small Hilbert spaces.

Everything here is physics-agnostic: plain numpy arrays in double
precision, validated for shape and finiteness. Operators are square
``(n, n)`` complex arrays, states are ``(n,)`` complex vectors.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


def as_operator(a, dim: int | None = None) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix.

    Raises DimensionMismatch for non-square or wrong-sized input and
    NonFiniteInput for NaN/Inf entries.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise NonFiniteInput("matrix entries must be finite")
    return a


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a complex vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of dim {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v.view(float))):
        raise NonFiniteInput("vector entries must be finite")
    return v
