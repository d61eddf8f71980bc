"""The numeric kernels against direct computations."""

import numpy as np

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


def _random_flat_table(n):
    axes = [np.sort(rng.uniform(0, 1, size=rng.integers(2, 5))) for _ in range(n)]
    for a in axes:
        a[0], a[-1] = 0.0, 1.0
    sizes = [a.size for a in axes]
    values = rng.normal(size=int(np.prod(sizes)))
    axes_flat = np.concatenate(axes)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    strides = np.ones(n, dtype=np.int64)
    for j in range(n - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    return axes_flat, offsets, strides, values


def test_interp_numpy_linear_function_exact():
    # a table sampled from an affine function is reproduced exactly
    axes_flat, offsets, strides, _ = _random_flat_table(2)
    ax0 = axes_flat[offsets[0] : offsets[1]]
    ax1 = axes_flat[offsets[1] : offsets[2]]
    g0, g1 = np.meshgrid(ax0, ax1, indexing="ij")
    values = (2.0 * g0 - 3.0 * g1 + 0.5).reshape(-1)
    pts = rng.uniform(0, 1, size=(40, 2))
    got = _kernels.interp_many(axes_flat, offsets, strides, values, pts)
    np.testing.assert_allclose(got, 2 * pts[:, 0] - 3 * pts[:, 1] + 0.5, atol=1e-12)
