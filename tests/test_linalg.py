import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from skiplab.init import mlp_orthogonal
from skiplab.linalg import (BudgetError, SvdConvergenceError, commutation_matrix,
                            commutation_permutation, condition_number, kron,
                            kron_eye_apply, singular_values, unvec, vec)


def test_vec_is_column_major():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])


def test_vec_degenerate_1x1():
    assert np.array_equal(vec(np.array([[7.0]])), [7.0])


def test_vec_unvec_roundtrip_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5))
    assert np.array_equal(unvec(vec(m), 3, 5), m)


def test_vec_unvec_roundtrip_stack():
    """A (3, r, c) stack vectorizes matrix by matrix and comes back exactly."""
    stack = np.random.default_rng(1).standard_normal((3, 4, 5))
    v = vec(stack)
    assert v.shape == (3, 20)
    for m, row in zip(stack, v):
        assert np.array_equal(row, vec(m))
    assert np.array_equal(unvec(v, 4, 5), stack)


def test_vec_rejects_vector():
    with pytest.raises(ValueError):
        vec(np.zeros(4))


def test_unvec_size_mismatch():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 3)


def test_commutation_1x1():
    assert np.array_equal(commutation_matrix(1, 1), [[1.0]])


def test_commutation_2x2_swaps_middle():
    k = commutation_matrix(2, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(k, expected)


@pytest.mark.parametrize("n,d", [(2, 3), (4, 1), (3, 5), (6, 6)])
def test_commutation_transposes_vec(n, d):
    rng = np.random.default_rng(n * 10 + d)
    x = rng.standard_normal((n, d))
    assert np.allclose(commutation_matrix(n, d) @ vec(x), vec(x.T))
    assert np.array_equal(vec(x)[commutation_permutation(n, d)], vec(x.T))


@pytest.mark.parametrize("n,d", [(2, 3), (4, 5)])
def test_commutation_inverse_pair(n, d):
    k1 = commutation_matrix(n, d)
    k2 = commutation_matrix(d, n)
    assert np.array_equal(k1 @ k2, np.eye(n * d))
    assert np.array_equal(k1.T, k2)


def test_commutation_budget():
    """A 10^4 x 10^4 permutation exceeds the element budget and raises before
    anything that size is allocated."""
    with pytest.raises(BudgetError):
        commutation_matrix(100, 100)


def test_kron_identity_block_diagonal():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = kron(np.eye(2), b)
    assert np.array_equal(k[:2, :2], b)
    assert np.array_equal(k[2:, 2:], b)
    assert np.array_equal(k[:2, 2:], np.zeros((2, 2)))


def test_kron_scalars():
    assert np.array_equal(kron(np.array([[2.0]]), np.array([[3.0]])), [[6.0]])


def test_kron_mixed_product_property():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
    c, d = rng.standard_normal((4, 3)), rng.standard_normal((5, 2))
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def test_kron_singular_values_are_pairwise_products():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    got = np.sort(singular_values(kron(a, b)))
    expected = np.sort(np.outer(singular_values(a), singular_values(b)).ravel())
    assert np.max(np.abs(got - expected)) < 1e-10


def test_kron_budget():
    """A 10^4 x 10^4 product exceeds the element budget and raises before
    anything that size is allocated."""
    with pytest.raises(BudgetError):
        kron(np.ones((100, 100)), np.ones((100, 100)))


def test_svd_orthogonal_has_unit_values():
    q = mlp_orthogonal(16, 16, seed=3)
    assert np.max(np.abs(singular_values(q) - 1.0)) < 1e-12


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        singular_values(np.array([[1.0, np.nan]]))


def test_svd_values_sorted_on_mixed_shapes():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        s = singular_values(rng.standard_normal((rows, cols)))
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)


def test_condition_number_diagonal():
    assert condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_condition_number_rank_one_is_infinite():
    assert condition_number(np.ones((4, 4))) == math.inf


def test_condition_number_uniform_matrix_infinite():
    n = 10
    assert condition_number(np.full((n, n), 1.0 / n)) == math.inf


def test_condition_number_scale_invariant():
    rng = np.random.default_rng(6)
    for seed in range(10):
        m = np.random.default_rng(seed).standard_normal((6, 6))
        k1 = condition_number(m)
        k2 = condition_number(rng.uniform(0.1, 10.0) * m)
        assert abs(k1 - k2) / k1 < 1e-10


def test_condition_number_kron_multiplies():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((4, 4))
        ka, kb = condition_number(a), condition_number(b)
        kab = condition_number(kron(a, b))
        assert abs(kab - ka * kb) / (ka * kb) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), rows=st.integers(1, 5), cols=st.integers(1, 5),
       zero_rows=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_property_condition_number_of_stack_is_block_diagonal(k, rows, cols,
                                                              zero_rows, seed):
    """A (k, r, c) stack has the singular values and condition number of its
    dense block-diagonal matrix; blocks of different scale set sigma_max and sigma_min apart, and
    zeroed rows make the last block rank deficient."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((k, rows, cols))
    blocks *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, 1))
    blocks[-1, :zero_rows] = 0.0
    dense = scipy.linalg.block_diag(*blocks)
    s = singular_values(blocks.reshape(k * rows, cols), blocks=k)
    assert np.allclose(s, singular_values(dense), rtol=1e-12, atol=1e-14 * s[0])
    got = condition_number(blocks)
    want = condition_number(dense)
    assert isinstance(got, float)
    if math.isinf(want) or math.isinf(got):
        assert math.isinf(got) and math.isinf(want)
    else:
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("r,c,n,k", [(3, 2, 4, 5), (1, 4, 2, 3), (2, 6, 1, 2)])
def test_kron_eye_apply_matches_dense_kron(r, c, n, k):
    rng = np.random.default_rng(r * 100 + c * 10 + n)
    m = rng.standard_normal((r, c))
    a = rng.standard_normal((c * n, k))
    assert np.allclose(kron_eye_apply(m, a), kron(m, np.eye(n)) @ a,
                       rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 4), rows=st.integers(1, 6), extra=st.integers(1, 8),
       seed=st.integers(0, 2**16))
def test_property_wide_singular_values_match_untransposed_svd(k, rows, extra, seed):
    """Wide blocks, alone or stacked, are decomposed through their transposes;
    the values match LAPACK's SVD of the blocks as given."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((k, rows, rows + extra))
    blocks *= 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1, 1))
    want = np.sort(np.linalg.svd(blocks, compute_uv=False), axis=None)[::-1]
    got = singular_values(blocks.reshape(k * rows, -1), blocks=k)
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
    one = singular_values(blocks[0])
    assert np.max(np.abs(one - np.linalg.svd(blocks[0], compute_uv=False))) <= 1e-12 * one[0]
