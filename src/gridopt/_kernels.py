"""Numeric kernels on the solve path: the tableau pivot and batch interpolation."""

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


def interp_many(
    axes_flat: np.ndarray,
    offsets: np.ndarray,
    strides: np.ndarray,
    values: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Multilinear interpolation of many points (P, n) against a flat table.

    ``axes_flat`` concatenates the per-axis breakpoints, delimited by
    ``offsets`` (length n+1); ``strides`` are the flat-index strides of the
    value array (last axis fastest). Points must already lie in the hull.
    """
    npts, n = points.shape
    cell = np.empty((npts, n), dtype=np.int64)
    frac = np.empty((npts, n))
    for j in range(n):
        axis = axes_flat[offsets[j] : offsets[j + 1]]
        k = np.searchsorted(axis, points[:, j], side="right") - 1
        np.clip(k, 0, axis.size - 2, out=k)
        cell[:, j] = k
        frac[:, j] = (points[:, j] - axis[k]) / (axis[k + 1] - axis[k])
    out = np.zeros(npts)
    for corner in range(1 << n):
        lam = np.ones(npts)
        idx = np.zeros(npts, dtype=np.int64)
        for j in range(n):
            bit = (corner >> j) & 1
            lam *= frac[:, j] if bit else 1.0 - frac[:, j]
            idx += (cell[:, j] + bit) * strides[j]
        out += lam * values[idx]
    return out
