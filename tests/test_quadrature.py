import math

import mpmath
import numpy as np
import pytest

from helpers import integrate_radial, polar_grid
from qhflux.quadrature import QuadratureGrid, cartesian_grid, gauss_legendre


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
    from qhflux.partition import HoleConfig, log_upsilon_derivative_stack, upsilon

    other = -0.25 + 0.3j

    def logups(y):
        return math.log(upsilon(HoleConfig(w=(y, other), N=8)))

    point, h = 0.2 + 0.1j, 1e-5
    grad = np.array([(logups(point + e) - logups(point - e)) / (2 * h) for e in (h, 1j * h)])
    cfg = HoleConfig(w=(point, other), N=8)
    dlog = complex(log_upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :])[1][0, 0])
    analytic = 2.0 * np.array([dlog.real, -dlog.imag])
    assert np.linalg.norm(grad - analytic) <= 1e-6 * np.linalg.norm(analytic)


def _mp_legendre_rule(n, x0):
    """Roots of P_n polished from x0 by Newton's method at 40 digits, and
    their weights 2 / ((1 - x^2) P_n'(x)^2)."""
    xs, ws = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, x0):
            for _ in range(4):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("order", [10, 12, 16, 24, 32, 48, 64, 80, 96, 120])
def test_gauss_legendre_matches_mpmath(order):
    x, w = gauss_legendre(order)
    half = x.size // 2    # the rule is symmetric about 0
    xr, wr = _mp_legendre_rule(order, x[half:])
    assert np.all(np.abs(x[half:] - xr) <= 4e-16)
    assert np.all(np.abs(w[half:] - wr) <= 2e-11 * wr)
    assert np.array_equal(x[:half], -x[::-1][:half]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_is_cached_and_read_only():
    x, w = gauss_legendre(48)
    assert gauss_legendre(48)[0] is x
    with pytest.raises(ValueError):
        w[0] = 1.0


@pytest.mark.parametrize("kwargs, name", [
    ({"panel_width": -1.0}, "panel_width"), ({"panel_width": 0.0}, "panel_width"),
    ({"panel_width": math.inf}, "panel_width"), ({"panel_width": math.nan}, "panel_width"),
    ({"n_theta": -4}, "n_theta"), ({"n_theta": 0}, "n_theta"), ({"n_theta": 2.5}, "n_theta"),
    ({"nodes_per_panel": 0}, "nodes_per_panel"), ({"nodes_per_panel": -3}, "nodes_per_panel"),
])
def test_polar_grid_refuses_an_empty_or_malformed_rule(kwargs, name):
    # panel_width -1 or inf used to give a grid of 0 nodes, on which the
    # integral route reports V from its closed-form terms alone
    with pytest.raises(ValueError, match=name):
        polar_grid(0.3, 2.0, **kwargs)


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf, math.nan])
def test_polar_grid_refuses_a_bad_radius(r_max):
    with pytest.raises(ValueError, match="r_max"):
        polar_grid(0j, r_max)


def test_an_empty_grid_is_refused():
    with pytest.raises(ValueError, match="at least one node"):
        QuadratureGrid(nodes=np.zeros(0, dtype=complex), weights=np.zeros(0))


def test_a_panel_wider_than_the_radius_is_one_panel():
    g = polar_grid(0j, 2.0, n_theta=4, nodes_per_panel=5, panel_width=10.0)
    assert g.nodes.size == 20 and np.sum(g.weights) == pytest.approx(4.0 * math.pi, rel=1e-12)
