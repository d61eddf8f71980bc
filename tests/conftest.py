import os

# One BLAS/OpenMP thread, set before anything imports numpy: on a small VM an
# unpinned OpenBLAS can make a single small np.linalg.solve many times slower,
# and the simplex refactorizes with one: every 150 pivots, and at a warm start
# that finds no kept tableau.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
