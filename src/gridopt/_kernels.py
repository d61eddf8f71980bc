"""The numeric kernel on the solve path: the dense tableau pivot.

A pivot divides the pivot row by the pivot, then subtracts a multiple of it
from each row whose pivot-column entry is nonzero. A row whose entry is
exactly zero (+0.0 or -0.0) would change by exact zeros, so it is skipped,
and the tableau is the one the rank-1 update over every row gives (equal
under ``np.array_equal``; at most the sign of a zero entry differs). When
more than half of the rows change, the update runs over every row instead:
gathering those rows and their products would take two temporaries of
nearly the tableau's size, where the whole update takes one, and would save
no time.
"""

from __future__ import annotations

import numpy as np


def tableau_pivot(T: np.ndarray, r: int, j: int) -> None:
    """Gauss-Jordan pivot of dense tableau ``T`` on entry (r, j), in place."""
    T[r, :] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    rows = col.nonzero()[0]
    if 2 * rows.size > T.shape[0]:
        T -= col[:, None] * T[r]
    else:
        T[rows] -= col[rows, None] * T[r]
    # kill residual round-off in the pivot column
    T[:, j] = 0.0
    T[r, j] = 1.0
