import numpy as np
import pytest

from lieflow import rng
from lieflow.oracles import BoxTooSmallError, GridSpec, grid_posterior
from reference import (
    EssTooLowError,
    Gaussian,
    finite_difference_gradient,
    grid_cube,
    grid_dims,
    grid_expect,
    log_density,
    log_density_batch,
    mc_moments,
    quadrature_moments,
)


def std_normal_log(points):
    x = points[:, 0]
    return -0.5 * (x ** 2 + np.log(2 * np.pi))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        grid_cube(-1.0, 1.0, 8, 2)           # too few points
    with pytest.raises(ValueError):
        grid_cube(-1.0, 1.0, 16, 7)          # too many nodes
    with pytest.raises(ValueError):
        GridSpec([0.0], [0.0], [16])         # empty box


def test_grid_node_budget_is_checked_before_allocation():
    # 64**5 nodes would need 8 GiB of node coordinates alone
    with pytest.raises(ValueError, match="1073741824 nodes"):
        grid_cube(-1.0, 1.0, 64, 5)
    assert grid_dims(grid_cube(-1.0, 1.0, 48, 4)) == 4


def test_standard_normal_moments():
    grid = grid_cube(-8.0, 8.0, 256, 1)
    log_norm, mean, second, _ = quadrature_moments(std_normal_log, grid)
    assert abs(np.exp(log_norm) - 1.0) < 1e-6
    assert abs(mean[0]) < 1e-6
    assert abs(second[0, 0] - 1.0) < 1e-6


def test_two_dim_gaussian_moments():
    mu = np.array([0.4, -0.7])
    cov = np.array([[1.2, 0.3], [0.3, 0.8]])
    dist = Gaussian(mu, cov)
    grid = grid_cube(-9.0, 9.0, 128, 2)
    _, mean, second, _ = quadrature_moments(lambda p: log_density_batch(dist, p), grid)
    assert np.allclose(mean, mu, atol=1e-6)
    assert np.allclose(second, cov + np.outer(mu, mu), atol=1e-6)


def test_boundary_mass_is_detected():
    grid = grid_cube(-2.0, 2.0, 64, 1)
    with pytest.raises(BoxTooSmallError):
        quadrature_moments(std_normal_log, grid)


def test_quadrature_expectation_general_function():
    grid = grid_cube(-8.0, 8.0, 192, 1)
    post = grid_posterior(std_normal_log, grid)
    fourth = grid_expect(post, post.nodes[:, 0] ** 4)
    assert abs(fourth - 3.0) < 1e-5


def test_quadrature_error_decays_quadratically():
    # heavy-tailed smooth density where trapezoid error is visible
    def log_t(points):
        return -3.0 * np.log1p(points[:, 0] ** 2)

    def second_moment(points_per_dim):
        grid = grid_cube(-40.0, 40.0, points_per_dim, 1)
        _, _, second, _ = quadrature_moments(log_t, grid)
        return second[0, 0]

    truth = second_moment(4096)
    err_coarse = abs(second_moment(64) - truth)
    err_fine = abs(second_moment(128) - truth)
    assert err_fine <= err_coarse / 4.0 + 1e-14


def test_mc_target_equals_proposal():
    prop = Gaussian(np.zeros(2), np.eye(2))
    res = mc_moments(lambda d: log_density_batch(prop, d), prop, 20_000, seed=1)
    assert res.ess == pytest.approx(20_000)
    assert np.allclose(res.mean, 0.0, atol=3.0 / np.sqrt(20_000) * 1.5)


def test_mc_narrow_target_wide_proposal():
    target = Gaussian(np.array([0.5]), np.array([[0.25]]))
    prop = Gaussian(np.zeros(1), np.array([[4.0]]))
    n = 200_000
    res = mc_moments(lambda d: log_density_batch(target, d), prop, n, seed=2)
    se = np.sqrt(0.25 / res.ess)
    assert abs(res.mean[0] - 0.5) < 3 * se
    var = res.second_moment[0, 0] - res.mean[0] ** 2
    assert abs(var - 0.25) < 3 * np.sqrt(2 * 0.25 ** 2 / res.ess)


def test_mc_skewed_mixture_agrees_with_quadrature():
    def log_mix(points):
        x = points[:, 0] if points.ndim == 2 else points
        a = np.exp(-0.5 * (x + 1.0) ** 2)
        b = 0.25 * np.exp(-0.5 * ((x - 2.0) / 0.5) ** 2)
        return np.log(a + b)

    grid = grid_cube(-10.0, 10.0, 512, 1)
    _, qmean, qsecond, _ = quadrature_moments(log_mix, grid)
    prop = Gaussian(np.zeros(1), np.array([[9.0]]))
    res = mc_moments(log_mix, prop, 400_000, seed=3)
    qvar = qsecond[0, 0] - qmean[0] ** 2
    assert abs(res.mean[0] - qmean[0]) < 3 * np.sqrt(qvar / res.ess)


def test_mc_ess_guard():
    target = Gaussian(np.array([60.0]), np.array([[1e-4]]))
    prop = Gaussian(np.zeros(1), np.array([[1.0]]))
    with pytest.raises(EssTooLowError):
        mc_moments(lambda d: log_density_batch(target, d), prop, 5_000, seed=4)


def test_mc_is_unbiased_across_seeds():
    # repeated-seed means must bracket the quadrature truth within three
    # pooled standard errors
    target = Gaussian(np.array([0.7]), np.array([[0.36]]))
    prop = Gaussian(np.zeros(1), np.array([[4.0]]))
    grid = grid_cube(-10.0, 10.0, 512, 1)
    _, qmean, _, _ = quadrature_moments(
        lambda p: log_density_batch(target, p), grid)
    runs = np.array([
        mc_moments(lambda d: log_density_batch(target, d), prop, 4_000,
                   seed=100 + k).mean[0]
        for k in range(50)])
    pooled_se = runs.std(ddof=1) / np.sqrt(runs.size)
    assert abs(runs.mean() - qmean[0]) < 3 * pooled_se


def test_fd_quadratic():
    x = rng.normals(5, (), 6)
    grad = finite_difference_gradient(lambda v: 0.5 * float(v @ v), x, h=1e-5)
    assert np.allclose(grad, x, atol=1e-8)


def test_fd_linear_is_exact():
    w = rng.normals(6, (), 4)
    grad = finite_difference_gradient(lambda v: float(w @ v), np.zeros(4), h=1e-3)
    assert np.allclose(grad, w, atol=1e-12)


def test_fd_gaussian_log_density_gradient():
    dist = Gaussian(np.array([0.3, -0.2]), np.array([[1.0, 0.4], [0.4, 2.0]]))
    x0 = np.array([0.9, 0.1])
    from lieflow.gaussian import spd_cholesky, spd_solve

    grad = finite_difference_gradient(lambda v: log_density(dist, v), x0, h=1e-5)
    analytic = -spd_solve(spd_cholesky(dist.cov), x0 - dist.mean)
    assert np.allclose(grad, analytic, rtol=1e-6, atol=1e-9)
