"""The tableau pivot kernel against direct elimination and, bit for bit,
against the dense rank-1 update it replaces."""

import numpy as np
import pytest

from gridopt import _kernels


rng = np.random.default_rng(1234)


def test_pivot_matches_manual_elimination():
    T = rng.normal(size=(5, 9))
    r, j = 2, 4
    expected = T.copy()
    expected[r] /= T[r, j]
    for i in range(5):
        if i != r:
            expected[i] -= expected[i, j] * expected[r]
    work = T.copy()
    _kernels.tableau_pivot(work, r, j)
    np.testing.assert_allclose(work, expected, atol=1e-12)
    assert work[r, j] == 1.0
    assert np.all(work[np.arange(5) != r, j] == 0.0)


def _dense_pivot(T: np.ndarray, r: int, j: int) -> np.ndarray:
    """The dense update over every row: T - outer(col, pivot row), with the
    pivot column zeroed and the pivot set to 1."""
    out = T.copy()
    out[r] /= T[r, j]
    col = out[:, j].copy()
    col[r] = 0.0
    out -= np.outer(col, out[r])
    out[:, j] = 0.0
    out[r, j] = 1.0
    return out


def _sparse_tableau(m: int, ncols: int, density: float) -> np.ndarray:
    T = rng.normal(size=(m, ncols))
    T[rng.random(size=(m, ncols)) > density] = 0.0
    return T


def _zero_column(m, ncols, r, j):
    T = _sparse_tableau(m, ncols, 0.5)
    T[:, j] = 0.0
    T[r, j] = -2.5
    return T


def _negative_zeros(m, ncols, r, j):
    T = _sparse_tableau(m, ncols, 0.5)
    T[T == 0.0] = -0.0  # in the pivot column too, so rows with -0.0 there are skipped
    T[r, j] = 0.75
    return T


def _few_zeros(m, ncols, r, j):
    # more than half of the rows change, so the update runs over every row
    T = rng.normal(size=(m, ncols))
    T[::5, j] = 0.0
    T[r, j] = -1.25
    return T


def _exact_zeros(m, ncols, r, j):
    T = _sparse_tableau(m, ncols, 0.3)
    T[::2, j] = 0.0
    T[r, j] = 1.5
    return T


@pytest.mark.parametrize(
    "make", [_exact_zeros, _zero_column, _negative_zeros, _few_zeros],
    ids=["exact_zeros_in_column", "column_zero_but_pivot", "negative_zeros", "few_zeros"],
)
def test_pivot_equals_the_dense_update(make):
    for m, ncols in [(1, 3), (6, 11), (19, 40), (60, 130)]:
        for _ in range(5):
            r, j = int(rng.integers(m)), int(rng.integers(ncols))
            T = make(m, ncols, r, j)
            zero = (T[:, j] == 0.0).nonzero()[0]
            work = T.copy()
            _kernels.tableau_pivot(work, r, j)
            assert np.array_equal(work, _dense_pivot(T, r, j))
            # a row whose pivot-column entry is zero keeps its values, and
            # every bit of them while at most half of the rows change (the
            # update over every row may turn -0.0 into +0.0); its
            # pivot-column entry becomes +0.0
            keep = np.arange(ncols) != j
            skipped = 2 * (m - 1 - zero.size) <= m
            for i in zero:
                assert np.array_equal(work[i, keep], T[i, keep])
                assert not skipped or work[i, keep].tobytes() == T[i, keep].tobytes()
                assert work[i, j] == 0.0


def test_pivot_sequence_equals_the_dense_update():
    # a tableau grows fill-in and round-off over many pivots, as in a solve
    T = _sparse_tableau(30, 70, 0.15)
    T[:, 40:] = np.eye(30)
    dense = T.copy()
    pivots = 0
    for _ in range(200):
        r, j = int(rng.integers(30)), int(rng.integers(70))
        if abs(T[r, j]) < 1e-3:
            continue
        _kernels.tableau_pivot(T, r, j)
        dense = _dense_pivot(dense, r, j)
        assert np.array_equal(T, dense)
        pivots += 1
    assert pivots > 50
