"""The LAPACK LU helpers behind every Upsilon and Schur-complement solve."""

import math

import numpy as np
import pytest
from scipy.linalg import lu_solve

import qhflux
from qhflux.partition import SingularMatrixError, log_det, lu


def cofactor_det(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_identity_det():
    assert log_det(lu(np.eye(3))).to_complex() == pytest.approx(1.0)


def test_permutation_det():
    f = lu(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert log_det(f).to_complex() == pytest.approx(-1.0)


def test_det_matches_cofactor_expansion():
    rng = np.random.default_rng(42)
    a = random_complex(rng, 3)
    det = log_det(lu(a)).to_complex()
    ref = cofactor_det(a)
    assert abs(det - ref) <= 1e-12 * abs(ref)


def test_solve_residual():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    x = lu_solve(lu(a), b)
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_singular_error_carries_pivot_index():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]])
    with pytest.raises(SingularMatrixError) as err:
        lu(a)
    assert err.value.pivot_index == 1
    assert qhflux.SingularMatrixError is SingularMatrixError


def test_det_of_product_is_product_of_dets():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_complex(rng, 4)
        b = random_complex(rng, 4)
        da, db = log_det(lu(a)), log_det(lu(b))
        dab = log_det(lu(a @ b))
        assert dab.log_mag == pytest.approx(da.log_mag + db.log_mag, rel=1e-10)
        dphi = (dab.phase - da.phase - db.phase) % (2 * math.pi)
        assert min(dphi, 2 * math.pi - dphi) < 1e-10
