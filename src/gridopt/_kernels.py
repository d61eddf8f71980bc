"""The numeric kernel on the solve path: the dense tableau pivot."""

from __future__ import annotations

import numpy as np


def tableau_pivot(T: np.ndarray, r: int, j: int) -> None:
    """Gauss-Jordan pivot of dense tableau ``T`` on entry (r, j), in place."""
    piv = T[r, j]
    T[r, :] /= piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    # kill residual round-off in the pivot column
    T[:, j] = 0.0
    T[r, j] = 1.0

