"""The tableau pivot kernel against direct elimination."""

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

