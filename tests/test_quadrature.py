import math

import numpy as np
import pytest

from qhflux.quadrature import cartesian_grid, integrate_radial, polar_grid


def integrate(grid, f):
    return complex(np.sum(grid.weights * f(grid.nodes)))


def test_cartesian_weights_sum_to_area():
    g = cartesian_grid(3.0, order=40)
    assert np.sum(g.weights) == pytest.approx(36.0, rel=1e-10)


def test_gaussian_integral():
    g = cartesian_grid(6.0, order=80)
    val = integrate(g, lambda z: np.exp(-np.abs(z) ** 2))
    assert abs(val - math.pi) < 1e-8 * math.pi


def test_gaussian_second_moment():
    g = cartesian_grid(6.0, order=80)
    val = integrate(g, lambda z: np.abs(z) ** 2 * np.exp(-np.abs(z) ** 2))
    assert abs(val - math.pi) < 1e-8 * math.pi


def test_polar_inverse_radius():
    g = polar_grid(0j, 1.0)
    val = integrate(g, lambda z: 1.0 / np.abs(z))
    assert abs(val - 2 * math.pi) < 1e-6 * 2 * math.pi


def test_polar_weights_cover_disk_area():
    g = polar_grid(0.5 + 0.5j, 2.0)
    assert np.sum(g.weights) == pytest.approx(math.pi * 4.0, rel=1e-8)


def test_polar_gaussian_about_center():
    c = 0.7 - 0.2j
    g = polar_grid(c, 8.0, panel_width=0.5)
    val = integrate(g, lambda z: np.exp(-np.abs(z - c) ** 2))
    assert abs(val - math.pi) < 1e-9 * math.pi


def test_polar_matches_1d_radial_rule_for_radial_integrand():
    c = 0.3 + 0.1j
    g = polar_grid(c, 5.0, panel_width=0.4)
    f2d = integrate(g, lambda z: np.exp(-np.abs(z - c) ** 2))
    f1d = integrate_radial(g, lambda r: math.exp(-r ** 2))
    assert abs(f2d - f1d) <= 1e-13 * abs(f1d)


def test_finite_diff_gradient_of_log_upsilon():
    # central-difference gradient of log Upsilon in real coordinates vs the
    # analytic holomorphic-derivative assembly, N = 8
    from qhflux.partition import HoleConfig, upsilon, upsilon_derivative_stack

    other = -0.25 + 0.3j

    def logups(y):
        return math.log(upsilon(HoleConfig(w=(y, other), N=8)))

    point, h = 0.2 + 0.1j, 1e-5
    grad = np.array([(logups(point + e) - logups(point - e)) / (2 * h) for e in (h, 1j * h)])
    cfg = HoleConfig(w=(point, other), N=8)
    ups, d1, _, _ = upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :], 0)
    dlog = complex(d1[0]) / float(ups[0])
    analytic = 2.0 * np.array([dlog.real, -dlog.imag])
    assert np.linalg.norm(grad - analytic) <= 1e-6 * np.linalg.norm(analytic)
