import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflow import rng
from lieflow.gaussian import (
    NumericError,
    spd_cholesky,
    spd_solve,
    stacked_cholesky,
    triangular_solve,
)
from lieflow.oracles import GridSpec
from reference import (
    Gaussian,
    LinearGaussianMap,
    condition_partitioned,
    joint,
    log_density,
    log_density_batch,
    marginal,
    posterior,
    quadrature_moments,
)


def stack_last(a, axes, contiguous):
    """``a`` with its ``axes`` leading stack axes moved last: a transposed
    view, or a C-ordered copy of it if ``contiguous``."""
    moved = np.moveaxis(a, range(axes), range(-axes, 0))
    return np.ascontiguousarray(moved) if contiguous else moved


def random_spd(seed, path, n, scale=1.0):
    m = rng.normal_matrix(seed, path, (n, n))
    return scale * (m @ m.T + n * np.eye(n))


def random_instance(seed, n, m):
    prior = Gaussian(rng.normals(seed, (0,), n), random_spd(seed, (1,), n))
    lin = LinearGaussianMap(
        rng.normal_matrix(seed, (2,), (m, n)),
        rng.normals(seed, (3,), m),
        random_spd(seed, (4,), m),
    )
    return prior, lin


def quadrature_check(dist, grid_halfwidth=None, points=96):
    """Compare a Gaussian's mean/cov against grid moments of its density."""
    if grid_halfwidth is None:
        grid_halfwidth = 8.0 * np.sqrt(np.diag(dist.cov).max())
    lo = dist.mean - grid_halfwidth
    hi = dist.mean + grid_halfwidth
    grid = GridSpec(lo, hi, np.full(dist.dim, points))
    _, mean, second, _ = quadrature_moments(lambda p: log_density_batch(dist, p), grid)
    cov = second - np.outer(mean, mean)
    return mean, cov


class TestValidation:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(NumericError):
            Gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite_cov(self):
        with pytest.raises(NumericError):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Gaussian([0.0, 0.0], np.eye(3))

    def test_condition_limit(self):
        with pytest.raises(NumericError):
            spd_cholesky(np.diag([1.0, 1e-14]))

    def test_values_are_frozen(self):
        g = Gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            g.cov[0, 0] = 2.0


class TestMarginal:
    def test_unit_sum(self):
        out = marginal(Gaussian([0.0], [[1.0]]),
                       LinearGaussianMap([[1.0]], [0.0], [[1.0]]))
        assert np.allclose(out.mean, 0.0)
        assert np.allclose(out.cov, [[2.0]])

    def test_degenerate_map(self):
        prior = Gaussian([1.0, -2.0], np.diag([2.0, 3.0]))
        lin = LinearGaussianMap(np.zeros((2, 2)), [5.0, 6.0], np.diag([0.5, 0.25]))
        out = marginal(prior, lin)
        assert np.allclose(out.mean, [5.0, 6.0])
        assert np.allclose(out.cov, np.diag([0.5, 0.25]))

    def test_pushforward_monte_carlo(self):
        # frozen analytic values, cross-checked by simulating the pushforward
        prior = Gaussian([1.0, 0.0], np.eye(2))
        lin = LinearGaussianMap([[2.0, 0.0], [0.0, 3.0]], [0.0, 0.0], np.eye(2))
        out = marginal(prior, lin)
        assert np.allclose(out.mean, [2.0, 0.0])
        assert np.allclose(out.cov, np.diag([5.0, 10.0]))
        n = 1_000_000
        x = rng.normal_matrix(0, (0,), (n, 2)) + prior.mean
        noise = rng.normal_matrix(0, (1,), (n, 2))
        y = x @ lin.weight.T + noise
        se_mean = np.sqrt(np.diag(out.cov) / n)
        assert np.all(np.abs(y.mean(axis=0) - out.mean) < 3 * se_mean)
        sample_cov = np.cov(y.T)
        se_var = np.sqrt(2.0 / (n - 1)) * np.diag(out.cov)
        assert np.all(np.abs(np.diag(sample_cov) - np.diag(out.cov)) < 3 * se_var)


class TestPosterior:
    def test_equal_precision_average(self):
        out = posterior(Gaussian([0.0], [[1.0]]),
                        LinearGaussianMap([[1.0]], [0.0], [[1.0]]), [2.0])
        assert np.allclose(out.mean, [1.0])
        assert np.allclose(out.cov, [[0.5]])

    def test_zero_information_map(self):
        prior = Gaussian([0.3, -0.4], np.diag([1.5, 0.5]))
        lin = LinearGaussianMap(np.zeros((2, 2)), [0.0, 0.0], np.eye(2))
        out = posterior(prior, lin, [10.0, -10.0])
        assert np.allclose(out.mean, prior.mean, atol=1e-12)
        assert np.allclose(out.cov, prior.cov, atol=1e-12)

    def test_matches_quadrature_bayes(self):
        prior, lin = random_instance(21, 3, 3)
        y = rng.normals(21, (5,), 3)
        out = posterior(prior, lin, y)

        def log_joint(points):
            return (log_density_batch(prior, points)
                    + log_density_batch(Gaussian(y - lin.offset, lin.noise_cov),
                                        points @ lin.weight.T))

        half = 8.0 * np.sqrt(np.diag(out.cov).max())
        grid = GridSpec(out.mean - half, out.mean + half, np.full(3, 96))
        _, mean, second, _ = quadrature_moments(log_joint, grid)
        assert np.allclose(mean, out.mean, atol=1e-6)
        assert np.allclose(second - np.outer(mean, mean), out.cov, atol=1e-6)


class TestJoint:
    def test_unit_case(self):
        out = joint(Gaussian([0.0], [[1.0]]),
                    LinearGaussianMap([[1.0]], [0.0], [[1.0]]))
        assert np.allclose(out.cov, [[1.0, 1.0], [1.0, 2.0]])

    def test_independent_blocks(self):
        prior = Gaussian([1.0], [[2.0]])
        lin = LinearGaussianMap([[0.0]], [3.0], [[0.5]])
        out = joint(prior, lin)
        assert np.allclose(out.cov, np.diag([2.0, 0.5]))

    def test_sample_covariance(self):
        prior, lin = random_instance(33, 2, 2)
        out = joint(prior, lin)
        n = 1_000_000
        chol = spd_cholesky(prior.cov)
        x = rng.normal_matrix(1, (0,), (n, 2)) @ chol.T + prior.mean
        nchol = spd_cholesky(lin.noise_cov)
        y = x @ lin.weight.T + lin.offset + rng.normal_matrix(1, (1,), (n, 2)) @ nchol.T
        stacked = np.hstack([x, y])
        sample_cov = np.cov(stacked.T)
        se = 3 * np.sqrt(2.0 / n) * np.abs(out.cov).max()
        assert np.all(np.abs(sample_cov - out.cov) < se + 3e-3)
        assert np.all(np.abs(stacked.mean(axis=0) - out.mean)
                      < 3 * np.sqrt(np.diag(out.cov) / n))


class TestConditionPartitioned:
    def test_block_diagonal_reduces_to_marginal(self):
        g = Gaussian([1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
        out = condition_partitioned(g, [2], [9.0])
        assert np.allclose(out.mean, [1.0, 2.0])
        assert np.allclose(out.cov, np.diag([1.0, 2.0]))

    def test_consistency_with_posterior(self):
        prior, lin = random_instance(44, 2, 2)
        y = rng.normals(44, (5,), 2)
        via_joint = condition_partitioned(joint(prior, lin), [2, 3], y)
        direct = posterior(prior, lin, y)
        assert np.allclose(via_joint.mean, direct.mean, atol=1e-9)
        assert np.allclose(via_joint.cov, direct.cov, atol=1e-9)

    def test_matches_quadrature(self):
        cov = random_spd(55, (0,), 4)
        mu = rng.normals(55, (1,), 4)
        g = Gaussian(mu, cov)
        observed = [1, 3]
        values = mu[observed] + 0.3
        out = condition_partitioned(g, observed, values)

        def log_slice(points):
            full = np.empty((points.shape[0], 4))
            full[:, [0, 2]] = points
            full[:, observed] = values
            return log_density_batch(g, full)

        half = 8.0 * np.sqrt(np.diag(out.cov).max())
        grid = GridSpec(out.mean - half, out.mean + half, np.full(2, 128))
        _, mean, second, _ = quadrature_moments(log_slice, grid)
        assert np.allclose(mean, out.mean, atol=1e-6)
        assert np.allclose(second - np.outer(mean, mean), out.cov, atol=1e-6)

    def test_rejects_bad_index_sets(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            condition_partitioned(g, [], [])
        with pytest.raises(ValueError):
            condition_partitioned(g, [0, 1], [0.0, 0.0])


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        g = Gaussian([0.0], [[1.0]])
        assert log_density(g, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_two_dim_at_zero(self):
        g = Gaussian([0.0, 0.0], np.eye(2))
        assert log_density(g, [0.0, 0.0]) == pytest.approx(-np.log(2 * np.pi))

    def test_matches_naive_formula(self):
        cov = random_spd(66, (0,), 3)
        mu = rng.normals(66, (1,), 3)
        g = Gaussian(mu, cov)
        x = rng.normals(66, (2,), 3)
        diff = x - mu
        naive = -0.5 * (3 * np.log(2 * np.pi) + np.log(np.linalg.det(cov))
                        + diff @ np.linalg.inv(cov) @ diff)
        assert log_density(g, x) == pytest.approx(naive, abs=1e-10)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_condition_of_joint_equals_posterior(self, seed):
        n = 1 + seed % 3
        m = 1 + (seed // 2) % 3
        prior, lin = random_instance(100 + seed, n, m)
        y = rng.normals(100 + seed, (9,), m)
        via_joint = condition_partitioned(joint(prior, lin), np.arange(n, n + m), y)
        direct = posterior(prior, lin, y)
        assert np.allclose(via_joint.mean, direct.mean, atol=1e-9)
        assert np.allclose(via_joint.cov, direct.cov, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_normalization(self, dim):
        cov = random_spd(200 + dim, (0,), dim)
        mu = rng.normals(200 + dim, (1,), dim)
        g = Gaussian(mu, cov)
        half = 7.0 * np.sqrt(np.diag(cov).max())
        grid = GridSpec(mu - half, mu + half, np.full(dim, 96))
        log_norm, _, _, _ = quadrature_moments(lambda p: log_density_batch(g, p), grid)
        assert abs(np.exp(log_norm) - 1.0) < 1e-4

    def test_marginalizing_joint_matches_marginal(self):
        prior, lin = random_instance(77, 3, 2)
        full = joint(prior, lin)
        got = marginal(prior, lin)
        assert np.allclose(full.mean[3:], got.mean, atol=1e-9)
        assert np.allclose(full.cov[3:, 3:], got.cov, atol=1e-9)

    def test_outputs_pass_spd_check(self):
        prior, lin = random_instance(88, 3, 2)
        for g in (marginal(prior, lin), joint(prior, lin),
                  posterior(prior, lin, np.zeros(2))):
            spd_cholesky(g.cov)  # raises on failure


class TestSubstitution:
    """The numpy substitutions against scipy's LAPACK solvers."""

    @staticmethod
    def close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 16),
           cols=st.none() | st.integers(1, 5),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_matches_scipy(self, seed, d, cols, scale):
        chol = spd_cholesky(random_spd(seed, (0,), d, scale))
        shape = (d,) if cols is None else (d, cols)
        b = rng.normals(seed, (1,), d * (cols or 1)).reshape(shape)
        self.close(triangular_solve(chol, b),
                   scipy.linalg.solve_triangular(chol, b, lower=True))
        self.close(triangular_solve(chol, b, transpose=True),
                   scipy.linalg.solve_triangular(chol, b, lower=True,
                                                 trans="T"))
        self.close(spd_solve(chol, b), scipy.linalg.cho_solve((chol, True), b))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           stack=st.sampled_from([(), (1,), (2,), (5,), (2, 3)]),
           d=st.integers(1, 8), cols=st.none() | st.integers(1, 4),
           transpose=st.booleans(), contiguous=st.booleans())
    def test_stacked_items_equal_lone_calls(self, seed, stack, d, cols,
                                            transpose, contiguous):
        # a stack of factors, the stack axes last, forward or back, one
        # vector or a matrix per factor, C-ordered or a transposed view:
        # each item has the bits of its lone call, which matches LAPACK,
        # and the right-hand side is left as it was
        count = int(np.prod(stack))
        chol = stack_last(np.stack([spd_cholesky(random_spd(seed, (k,), d))
                                    for k in range(count)]).reshape(*stack, d, d),
                          len(stack), contiguous)
        tail = (d,) if cols is None else (d, cols)
        b = stack_last(rng.normals(seed, (count,), count * d * (cols or 1)).reshape(
            *stack, *tail), len(stack), contiguous)
        kept = b.copy()
        x = triangular_solve(chol, b, transpose)
        assert np.array_equal(b, kept) and x.shape == b.shape
        for idx in np.ndindex(*stack):
            lone = triangular_solve(chol[(..., *idx)], b[(..., *idx)], transpose)
            assert np.array_equal(x[(..., *idx)], lone)
            self.close(lone, scipy.linalg.solve_triangular(
                chol[(..., *idx)], b[(..., *idx)], lower=True,
                trans="T" if transpose else "N"))

    def test_columns_are_independent(self):
        chol = spd_cholesky(random_spd(5, (0,), 6))
        b = rng.normal_matrix(5, (1,), (6, 9))
        whole = spd_solve(chol, b)
        for k in range(9):
            assert np.array_equal(whole[:, k], spd_solve(chol, b[:, k]))

    def test_leaves_right_hand_side_unchanged(self):
        chol = spd_cholesky(random_spd(6, (0,), 4))
        b = rng.normal_matrix(6, (1,), (4, 3))
        kept = b.copy()
        spd_solve(chol, b)
        assert np.array_equal(b, kept)

    def test_batch_log_density_matches_pointwise(self):
        g = Gaussian(rng.normals(7, (0,), 3), random_spd(7, (1,), 3))
        pts = rng.normal_matrix(7, (2,), (5, 3))
        batch = log_density_batch(g, pts)
        assert np.allclose(batch, [log_density(g, p) for p in pts],
                           rtol=1e-14, atol=0)


class TestStackedCholesky:
    """The stacked factorization and substitution, the stack axis last,
    against one LAPACK call per matrix, and each item against a lone call."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
           j=st.integers(1, 5), scale=st.sampled_from([1e-6, 1.0, 1e6]),
           contiguous=st.booleans())
    def test_matches_per_matrix_lapack(self, seed, n, j, scale, contiguous):
        stack = stack_last(np.stack([random_spd(seed, (k,), j, scale)
                                     for k in range(n)]), 1, contiguous)
        chol = stacked_cholesky(stack)
        rhs = stack_last(rng.normal_matrix(seed, (n,), (n, j, 3)), 1, contiguous)
        sol = triangular_solve(chol, rhs)
        vec = triangular_solve(chol, rhs[:, 0])
        for k in range(n):
            ref = np.linalg.cholesky(stack[..., k])
            assert np.abs(chol[..., k] - ref).max() <= 1e-12 * np.abs(ref).max()
            ref_sol = scipy.linalg.solve_triangular(ref, rhs[..., k], lower=True)
            assert np.abs(sol[..., k] - ref_sol).max() \
                <= 1e-10 * np.abs(ref_sol).max()
            assert np.array_equal(vec[..., k], sol[:, 0, k])
            assert np.array_equal(chol[..., k],
                                  stacked_cholesky(stack[..., k:k + 1])[..., 0])
            assert np.array_equal(sol[..., k], triangular_solve(
                chol[..., k:k + 1], rhs[..., k:k + 1])[..., 0])

    def test_non_positive_pivot_is_numeric_error(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])], axis=-1)
        with pytest.raises(NumericError, match="1 of 2"):
            stacked_cholesky(stack)
        with pytest.raises(NumericError):
            stacked_cholesky(np.full((1, 1, 1), np.nan))

    def test_leaves_inputs_unchanged(self):
        stack = np.stack([random_spd(8, (k,), 3) for k in range(4)], axis=-1)
        rhs = rng.normal_matrix(8, (9,), (4, 3)).T
        kept = stack.copy(), rhs.copy()
        triangular_solve(stacked_cholesky(stack), rhs)
        assert np.array_equal(stack, kept[0]) and np.array_equal(rhs, kept[1])
