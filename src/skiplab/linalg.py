"""Dense linear-algebra substrate.

Everything downstream differentiates matrix-valued maps through vectorized
coordinates, so the one convention that matters lives here: ``vec`` stacks
columns.  Under that convention vec(A X B) = (B^T kron A) vec(X), which is the
form every Kronecker factor in the attention Jacobian takes.  ``vec`` maps a
(..., r, c) stack of matrices to a (..., r*c) stack of vectors, matrix by
matrix, and ``unvec`` maps it back.

All matrices are dense float64 ndarrays; condition numbers come from full
SVDs (desk-scale sizes), never from iterative estimators.  A block-diagonal
matrix may be given by its blocks alone, one small SVD each.  A wide matrix
(fewer rows than columns) is decomposed through its transpose, which has the
same singular values and runs faster in LAPACK's values-only path.
"""

from __future__ import annotations

import numpy as np

# Element cap on one dense array: a kron output, a stacked Jacobian, a
# generated dataset.  It counts that array's elements only, not the copy and
# workspace LAPACK takes to decompose it, so an SVD near the cap needs about
# twice the memory it names (8 bytes an element).
MAX_ELEMENTS = 1 << 25

# Relative threshold below which sigma_min counts as numerically zero.
RANK_TOL = 1e-12


class BudgetError(MemoryError):
    """Requested dense matrix exceeds the configured element budget."""


class SvdConvergenceError(RuntimeError):
    """The SVD iteration failed; results would be garbage, so none are returned."""


def check_budget(rows: int, cols: int) -> None:
    """Raise :class:`BudgetError` before a rows x cols dense build past the cap.
    Only that one array counts (see :data:`MAX_ELEMENTS`)."""
    if rows * cols > MAX_ELEMENTS:
        raise BudgetError(
            f"dense {rows}x{cols} result holds {rows * cols} elements, "
            f"budget is {MAX_ELEMENTS}"
        )


def check_square(key: str, value: float, terms: float) -> None:
    """Raise ValueError naming ``key`` before anything is drawn when a
    command's sum of ``terms`` squares of size ``value``**2 would come within
    2**20 of overflow.  The margin covers the draws' own spread: one squared
    entry would have to lie about 1,000 standard deviations out to use it."""
    if np.isinf(value * value * terms * 2.0**20):
        raise ValueError(f"{key} squared overflows in a sum of {terms:g} squares, got {value!r}")


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization: stack the columns of ``m`` into one vector,
    matrix by matrix over any leading axes, (..., r, c) -> (..., r*c)."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise ValueError(f"vec expects a matrix or a stack of them, got shape {m.shape}")
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1).copy()


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild the rows x cols matrix column by column,
    (..., rows*cols) -> (..., rows, cols)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (rows * cols,):
        raise ValueError(f"cannot reshape shape {v.shape} into (..., {rows}, {cols})")
    return v.reshape(*v.shape[:-1], cols, rows).swapaxes(-1, -2).copy()


def commutation_permutation(n: int, d: int) -> np.ndarray:
    """Index permutation of the commutation matrix: K @ v == v[perm].

    Entry j + i*d of vec(X^T) is X[i, j], which sits at i + j*n in vec(X).
    """
    if n < 1 or d < 1:
        raise ValueError("commutation_permutation needs n, d >= 1")
    return (np.arange(n)[:, None] + n * np.arange(d)).ravel()


def commutation_matrix(n: int, d: int) -> np.ndarray:
    """Permutation K with K @ vec(X) = vec(X^T) for every n x d matrix X.

    Dense form of :func:`commutation_permutation`, kept as a test oracle.
    """
    perm = commutation_permutation(n, d)
    check_budget(n * d, n * d)
    return np.eye(n * d)[perm]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with an element-budget guard."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_budget(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return np.kron(a, b)


def kron_eye_apply(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(M kron I_n) @ a for r x c M and (c*n) x k a, as one matmul: row j*n + t
    of a pairs with column j of M, and the product's row b*n + t is (b, t)."""
    r, c = m.shape
    n = a.shape[0] // c
    return (m @ a.reshape(c, -1)).reshape(r * n, -1)


def singular_values(m: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Singular values only (non-increasing).  With ``blocks`` = k, the rows of
    ``m`` are the k equal-height blocks of a block-diagonal matrix, one SVD each.
    Wide blocks are decomposed through their transposes: sigma(M) = sigma(M^T)."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("singular_values input contains non-finite entries")
    stack = m.reshape(blocks, -1, m.shape[1])
    if stack.shape[1] < stack.shape[2]:
        stack = stack.swapaxes(1, 2)
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        try:
            import scipy.linalg
            s = np.array([scipy.linalg.svd(b, compute_uv=False, lapack_driver="gesvd")
                          for b in stack])
        except Exception as exc:
            raise SvdConvergenceError(f"SVD did not converge for shape {m.shape}") from exc
    return np.sort(s, axis=None)[::-1]


def condition_from_singular_values(s: np.ndarray) -> float:
    """sigma_max / sigma_min of non-increasing singular values, or inf (the
    INFINITE verdict) when sigma_min <= RANK_TOL * sigma_max, i.e. the matrix
    is numerically rank deficient."""
    smax, smin = float(s[0]), float(s[-1])
    if smax == 0.0 or smin <= RANK_TOL * smax:
        return float("inf")
    return smax / smin


def condition_number(m: np.ndarray) -> float:
    """Spectral condition number from a full SVD (see
    :func:`condition_from_singular_values`); a (k, r, c) stack stands for the
    block-diagonal matrix of its k blocks."""
    m = np.asarray(m, dtype=float)
    return condition_from_singular_values(
        singular_values(m.reshape(-1, m.shape[-1]), len(m) if m.ndim == 3 else 1))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(m)[0])
