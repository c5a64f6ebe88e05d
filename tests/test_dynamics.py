import concurrent.futures
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieflow import dynamics, rng
from lieflow.dynamics import (
    DynamicsModel,
    EmConfig,
    PairDataset,
    TransitionStats,
    _change_gram_basis,
    _e_step_block,
    _gram_precision,
    _pair_gram,
    _white_gram,
    e_step_all,
    expected_log_density,
    fit,
    init_model,
    m_step_G,
    m_step_Omega,
    marginal_log_likelihood,
    transition_stats,
    update_Lambda,
    update_step,
)
from lieflow.gaussian import (
    NumericError,
    cholesky_inverse,
    spd_cholesky,
    triangular_solve,
)
from lieflow.liealg import GeneratorBasis, assemble_A, block_flatten
from lieflow.oracles import GridSpec
from lieflow.synth import SequenceSpec, generate_latent_pairs, subspace_angle
from reference import (
    Gaussian,
    LinearGaussianMap,
    block_white_gram,
    e_step_lambda,
    log_density,
    log_density_batch,
    pair_precision,
    posterior,
    quadrature_moments,
)


def scalar_model(g=1.0, omega=1.0, lam=1.0):
    return DynamicsModel(GeneratorBasis(np.array([[[g]]])),
                         np.array([[omega]]), np.array([[lam]]))


def random_model(seed, d, j):
    gens = rng.normal_matrix(seed, (0,), (j, d, d))
    m = rng.normal_matrix(seed, (1,), (d, d))
    omega = 0.5 * (m @ m.T) + 0.3 * np.eye(d)
    l = rng.normal_matrix(seed, (2,), (j, j))
    lam = 0.4 * (l @ l.T) + 0.5 * np.eye(j)
    return DynamicsModel(GeneratorBasis(gens), omega, lam)


class TestEStepLambda:
    def test_scalar_equal_precision(self):
        post = e_step_lambda(scalar_model(), [1.0], [2.0])
        assert post.cov[0, 0] == pytest.approx(0.5)
        assert post.mean[0] == pytest.approx(0.5)

    def test_zero_delta_gives_prior_mean(self):
        model = random_model(1, 3, 2)
        z = rng.normals(1, (9,), 3)
        post = e_step_lambda(model, z, z)
        assert np.allclose(post.mean, 0.0, atol=1e-12)

    def test_matches_quadrature_oracle(self):
        model = random_model(2, 3, 2)
        z_i = rng.normals(2, (9,), 3)
        z_next = z_i + 0.3 * rng.normals(2, (10,), 3)
        post = e_step_lambda(model, z_i, z_next)

        a = assemble_A(model.basis, z_i)
        prior = Gaussian(np.zeros(2), model.coeff_prior_cov)
        resid = Gaussian(z_next - z_i, model.trans_cov)

        def log_target(lams):
            return (log_density_batch(prior, lams)
                    + log_density_batch(resid, lams @ a.T))

        half = 8.0 * np.sqrt(np.diag(post.cov).max())
        grid = GridSpec(post.mean - half, post.mean + half, np.full(2, 128))
        _, mean, second, _ = quadrature_moments(log_target, grid)
        assert np.allclose(mean, post.mean, atol=1e-6)
        assert np.allclose(second - np.outer(mean, mean), post.cov, atol=1e-6)

    def test_agrees_with_gaussian_core_posterior(self):
        model = random_model(3, 2, 2)
        z_i = rng.normals(3, (9,), 2)
        z_next = z_i + rng.normals(3, (10,), 2)
        post = e_step_lambda(model, z_i, z_next)
        a = assemble_A(model.basis, z_i)
        ref = posterior(Gaussian(np.zeros(2), model.coeff_prior_cov),
                        LinearGaussianMap(a, np.zeros(2), model.trans_cov),
                        z_next - z_i)
        assert np.array_equal(post.mean, ref.mean)
        assert np.array_equal(post.cov, ref.cov)

    def test_batch_matches_loop(self):
        model = random_model(4, 3, 2)
        data, _ = generate_latent_pairs(SequenceSpec(
            group_kind="latent_random", latent_dim=3, generator_count=2,
            pair_count=17, seed=5, noise_std=0.01))
        mean, cov = e_step_all(model, data)
        for k, (zi, zn) in enumerate(zip(data.z_i, data.z_next)):
            single = e_step_lambda(model, zi, zn)
            assert np.allclose(single.mean, mean[:, k], atol=1e-12)
            assert np.allclose(single.cov, cov[..., k], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
           j=st.integers(1, 3), n=st.integers(1, 12), threads=st.integers(1, 3),
           step=st.sampled_from([1e-3, 0.3, 3.0]))
    def test_batched_equals_per_pair_oracle(self, seed, d, j, n, threads, step):
        model = random_model(seed, d, j)
        z_i = rng.normal_matrix(seed, (3,), (n, d))
        z_n = z_i + step * rng.normal_matrix(seed, (4,), (n, d))
        data = PairDataset(z_i, z_n)
        mean, cov = e_step_all(model, data, gram=_pair_gram(model, data, threads))
        assert mean.shape == (j, n) and cov.shape == (j, j, n)
        for k in range(n):
            single = e_step_lambda(model, z_i[k], z_n[k])
            spread = np.abs(single.cov).max()
            assert np.abs(cov[..., k] - single.cov).max() <= 1e-9 * spread
            assert np.abs(mean[:, k] - single.mean).max() <= 1e-9 * (
                np.abs(single.mean).max() + spread ** 0.5)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
           j=st.integers(1, 3), n=st.integers(1, 40), threads=st.integers(2, 3))
    def test_threads_are_bit_identical(self, seed, d, j, n, threads):
        # n not divisible by the thread count splits into unequal blocks
        model = random_model(seed, d, j)
        z_i = rng.normal_matrix(seed, (3,), (n, d))
        data = PairDataset(z_i, z_i + 0.3 * rng.normal_matrix(seed, (4,), (n, d)))
        serial = e_step_all(model, data)
        threaded = e_step_all(model, data, gram=_pair_gram(model, data, threads))
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])

    def test_threaded_matches_serial(self):
        model = random_model(4, 2, 1)
        data, _ = generate_latent_pairs(SequenceSpec(pair_count=37, seed=6))
        serial = e_step_all(model, data)
        threaded = e_step_all(model, data, gram=_pair_gram(model, data, 4))
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])


class TestMStepG:
    def test_scalar_reduction(self):
        data = PairDataset([[2.0]], [[6.0]])  # z=2, delta=4
        basis = m_step_G(transition_stats(data, np.array([[1.0]]),
                                          np.array([[[0.0]]])))
        assert basis.generators[0, 0, 0] == pytest.approx(2.0)

    def test_zero_mean_coefficients_zero_numerator(self):
        data, _ = generate_latent_pairs(SequenceSpec(pair_count=9, seed=7))
        basis = m_step_G(transition_stats(data, np.zeros((1, 9)),
                                          np.ones((1, 1, 9))))
        assert np.allclose(basis.generators, 0.0, atol=1e-12)

    def test_recovers_generators_from_exact_posteriors(self):
        spec = SequenceSpec(group_kind="latent_random", latent_dim=3,
                            generator_count=2, lambda_scale=0.05,
                            noise_std=0.0, pair_count=50, seed=8,
                            first_order=True)
        data, truth = generate_latent_pairs(spec)
        basis = m_step_G(transition_stats(data, truth.lambdas.T,
                                          np.zeros((2, 2, 50))))
        err = np.linalg.norm(basis.generators - truth.basis.generators)
        assert err < 1e-8

    def test_singular_gram_is_numeric_error(self):
        z = np.zeros((4, 2))
        data = PairDataset(z, z + 1.0)
        with pytest.raises(NumericError, match="condition number"):
            m_step_G(transition_stats(data, np.ones((1, 4)),
                                      np.zeros((1, 1, 4))))


class TestMStepOmega:
    def test_exact_fit_gives_zero(self):
        spec = SequenceSpec(group_kind="latent_random", latent_dim=3,
                            generator_count=2, lambda_scale=0.05,
                            noise_std=0.0, pair_count=40, seed=9,
                            first_order=True)
        data, truth = generate_latent_pairs(spec)
        omega = m_step_Omega(transition_stats(data, truth.lambdas.T,
                                              np.zeros((2, 2, 40))),
                             truth.basis)
        assert np.abs(omega).max() < 1e-15

    def test_prior_posteriors_zero_delta(self):
        data, _ = generate_latent_pairs(SequenceSpec(
            group_kind="latent_random", latent_dim=2, generator_count=2,
            lambda_scale=1e-9, noise_std=0.0, pair_count=11, seed=10))
        data = PairDataset(data.z_i, data.z_i)  # force delta = 0
        basis = GeneratorBasis(rng.normal_matrix(10, (3,), (2, 2, 2)))
        omega = m_step_Omega(transition_stats(
            data, np.zeros((2, 11)),
            np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 11))),
            basis)
        expected = np.zeros((2, 2))
        for z in data.z_i:
            a = assemble_A(basis, z)
            expected += a @ a.T / data.count
        assert np.allclose(omega, expected, atol=1e-12)

    def test_recovers_known_noise(self):
        omega_true = 0.02 ** 2
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=np.sqrt(omega_true), pair_count=5000,
                            seed=11, first_order=True)
        data, truth = generate_latent_pairs(spec)
        model = DynamicsModel(truth.basis, omega_true * np.eye(2),
                              spec.lambda_scale ** 2 * np.eye(1))
        omega = m_step_Omega(transition_stats(data, *e_step_all(model, data)),
                             truth.basis)
        rel = np.linalg.norm(omega - omega_true * np.eye(2)) / omega_true
        assert rel < 0.10


class TestUpdateLambda:
    @staticmethod
    def mle(mean, cov):
        ones = np.ones((mean.shape[1], 1))
        stats = transition_stats(PairDataset(ones, ones), mean, cov)
        return update_Lambda(stats)

    def test_standard_normal_posteriors(self):
        est = self.mle(np.zeros((2, 5)),
                       np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 5)))
        assert np.allclose(est, np.eye(2))

    def test_single_delta_posterior(self):
        q = np.array([0.3, -1.2])
        est = self.mle(q[:, None], np.zeros((2, 2, 1)))
        assert np.allclose(est, np.outer(q, q))

    def test_recovers_prior_scale(self):
        lam_true = np.diag([0.04, 0.01])
        draws = rng.normal_matrix(12, (0,), (5000, 2)) @ spd_cholesky(lam_true).T
        est = self.mle(draws.T, np.zeros((2, 2, 5000)))
        assert np.linalg.norm(est - lam_true) / np.linalg.norm(lam_true) < 0.10


class TestExpectedCompleteDataLL:
    def test_perfect_fit_constant(self):
        model = scalar_model()
        data = PairDataset([[1.0]], [[1.0]])
        val = expected_log_density(
            model, transition_stats(data, np.zeros((1, 1)), np.zeros((1, 1, 1))),
            data.count)
        assert val == pytest.approx(-np.log(2 * np.pi))  # -(d+J)/2 ln 2pi, d=J=1

    def test_duplication_doubles(self):
        model = random_model(13, 2, 1)
        data, _ = generate_latent_pairs(SequenceSpec(pair_count=6, seed=13))
        mean, cov = e_step_all(model, data)
        single = expected_log_density(model, transition_stats(data, mean, cov),
                                      data.count)
        doubled_data = PairDataset(np.vstack([data.z_i, data.z_i]),
                                   np.vstack([data.z_next, data.z_next]))
        doubled = expected_log_density(
            model, transition_stats(doubled_data, np.hstack([mean, mean]),
                                    np.concatenate([cov, cov], axis=-1)),
            doubled_data.count)
        assert doubled == pytest.approx(2 * single, rel=1e-12)

    def test_matches_monte_carlo(self):
        model = random_model(14, 2, 2)
        z_i = rng.normals(14, (9,), 2)
        z_next = z_i + 0.3 * rng.normals(14, (10,), 2)
        data = PairDataset([z_i], [z_next])
        mean, cov = e_step_all(model, data)
        closed = expected_log_density(model, transition_stats(data, mean, cov),
                                      data.count)

        n = 100_000
        eps = rng.normal_matrix(14, (11,), (n, 2))
        lam_draws = mean[:, 0] + eps @ spd_cholesky(cov[..., 0]).T
        a = assemble_A(model.basis, z_i)
        trans = log_density_batch(Gaussian(z_next - z_i, model.trans_cov),
                                  lam_draws @ a.T)
        prior = log_density_batch(Gaussian(np.zeros(2), model.coeff_prior_cov),
                                  lam_draws)
        samples = trans + prior
        se = samples.std() / np.sqrt(n)
        assert abs(closed - samples.mean()) < 3 * se


class TestFit:
    def test_zero_delta_dataset(self):
        z = rng.normal_matrix(15, (0,), (30, 2))
        data = PairDataset(z, z)
        model, trace = fit(data, EmConfig(j_init=1, max_iters=50, seed=0))
        assert np.linalg.norm(model.basis.generators) < 1e-12
        deltas = np.diff(trace)
        assert np.all(deltas >= -1e-8 * np.abs(np.array(trace[:-1])))

    def test_rotation_recovery(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=1e-3, pair_count=300, seed=7)
        data, truth = generate_latent_pairs(spec)
        model, trace = fit(data, EmConfig(j_init=1, max_iters=200, seed=1))
        assert subspace_angle(model.basis, truth.basis) < 1e-2

    def test_rotation_recovery_redundant_basis_needs_lambda(self):
        # with J = d the coefficients can interpolate any pair, so the span
        # is only identified once the coefficient prior is estimated too
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=1e-3, pair_count=500, seed=7)
        data, truth = generate_latent_pairs(spec)
        model, _ = fit(data, EmConfig(j_init=2, max_iters=300, seed=1,
                                      estimate_lambda=True))
        assert subspace_angle(model.basis, truth.basis) < 1e-2

    def test_monotone_without_orthogonalization(self):
        spec = SequenceSpec(group_kind="latent_random", latent_dim=2,
                            generator_count=2, lambda_scale=0.08,
                            noise_std=0.01, pair_count=100, seed=16)
        data, _ = generate_latent_pairs(spec)
        _, trace = fit(data, EmConfig(j_init=2, max_iters=120, tol=0.0,
                                      orthogonalize=False, seed=2))
        trace = np.array(trace)
        rel = np.diff(trace) / np.abs(trace[:-1])
        assert rel.min() >= -1e-8

    def test_scaling_equivariance_scalar_case(self):
        # one EM sweep from equivariantly scaled states: scaling the data
        # by c scales the Omega update by c^2 and leaves G unchanged
        spec = SequenceSpec(group_kind="contrast", latent_dim=1,
                            lambda_scale=0.05, noise_std=0.0, pair_count=80,
                            seed=17)
        data, _ = generate_latent_pairs(spec)
        c = 3.0
        scaled = PairDataset(c * data.z_i, c * data.z_next)
        model = scalar_model(g=0.7, omega=0.02, lam=0.05 ** 2)
        model_c = scalar_model(g=0.7, omega=c ** 2 * 0.02, lam=0.05 ** 2)
        stats = transition_stats(data, *e_step_all(model, data))
        stats_c = transition_stats(scaled, *e_step_all(model_c, scaled))
        g = m_step_G(stats)
        g_c = m_step_G(stats_c)
        assert np.allclose(g.generators, g_c.generators, rtol=1e-10)
        omega = m_step_Omega(stats, g)
        omega_c = m_step_Omega(stats_c, g_c)
        assert omega_c[0, 0] == pytest.approx(c ** 2 * omega[0, 0], rel=1e-10)

    def test_orthogonalization_prunes_redundant_generators(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=1e-4, pair_count=200, seed=18)
        data, _ = generate_latent_pairs(spec)
        model, _ = fit(data, EmConfig(j_init=3, max_iters=100, seed=4))
        assert model.basis.count <= 3


def test_marginal_ll_matches_direct_formula():
    model = random_model(19, 2, 1)
    data, _ = generate_latent_pairs(SequenceSpec(pair_count=7, seed=19))
    total = 0.0
    for zi, zn in zip(data.z_i, data.z_next):
        a = assemble_A(model.basis, zi)
        cov = model.trans_cov + a @ model.coeff_prior_cov @ a.T
        total += log_density(Gaussian(np.zeros(2), cov), zn - zi)
    assert marginal_log_likelihood(model, data) == pytest.approx(total, rel=1e-12)


_SIZES = dict(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
              j=st.integers(1, 3), n=st.integers(1, 12),
              step=st.sampled_from([1e-3, 0.3, 3.0]))


@settings(max_examples=100, deadline=None)
@given(**_SIZES, omega_scale=st.integers(0, 6).map(lambda e: 10.0 ** -e))
@example(seed=1211, d=1, j=2, n=4, step=0.001, omega_scale=1e-6)
@example(seed=254, d=2, j=2, n=2, step=3.0, omega_scale=1e-6)
def test_marginal_ll_equals_dense_per_pair_oracle(seed, d, j, n, step,
                                                  omega_scale):
    # the dense d x d form sum_i log N(delta | 0, Omega + A Lambda A^T),
    # evaluated in 50-digit arithmetic: in doubles, adding the rank-J
    # term to an Omega of scale 1e-6 already costs ~1e-9 of the total
    import mpmath
    base = random_model(seed, d, j)
    model = DynamicsModel(base.basis, omega_scale * base.trans_cov,
                          base.coeff_prior_cov)
    z_i = rng.normal_matrix(seed, (3,), (n, d))
    data = PairDataset(z_i, z_i + step * rng.normal_matrix(seed, (4,), (n, d)))
    with mpmath.workdps(50):
        omega = mpmath.matrix(model.trans_cov.tolist())
        lam = mpmath.matrix(model.coeff_prior_cov.tolist())
        total = mpmath.mpf(0)
        for zi, zn in zip(data.z_i, data.z_next):
            a = mpmath.matrix(assemble_A(model.basis, zi).tolist())
            cov = omega + a * lam * a.T
            dz = mpmath.matrix((zn - zi).tolist())
            quad = (dz.T * mpmath.lu_solve(cov, dz))[0]
            total -= (d * mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.det(cov))
                      + quad) / 2
        total = float(total)
    assert abs(marginal_log_likelihood(model, data) - total) <= 1e-9 * abs(total)


@settings(max_examples=100, deadline=None)
@given(**_SIZES)
def test_transition_stats_equal_per_pair_kronecker_sums(seed, d, j, n, step):
    z_i = rng.normal_matrix(seed, (3,), (n, d))
    data = PairDataset(z_i, z_i + step * rng.normal_matrix(seed, (4,), (n, d)))
    mean = rng.normal_matrix(seed, (5,), (n, j))
    root = rng.normal_matrix(seed, (6,), (n, j, j))
    cov = root @ root.swapaxes(1, 2)
    stats = transition_stats(data, mean.T, cov.transpose(1, 2, 0))
    # each field against the signed and the absolute sum of its per-pair terms
    terms = {"dz_dz": [], "dz_zlam": [], "zz_lamlam": [], "lamlam": []}
    for z, dz, m, c in zip(data.z_i, data.delta, mean, cov):
        second = c + np.outer(m, m)
        terms["dz_dz"].append(np.outer(dz, dz))
        terms["dz_zlam"].append(np.outer(dz, np.kron(z, m)))
        terms["zz_lamlam"].append(np.kron(np.outer(z, z), second))
        terms["lamlam"].append(second)
    assert stats.count == n
    for name, parts in terms.items():
        got, want = getattr(stats, name), np.sum(parts, axis=0)
        assert got.shape == want.shape
        scale = np.sum(np.abs(parts), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * scale), name


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
       j=st.integers(1, 3), n=st.integers(1, 12),
       step=st.sampled_from([1e-3, 0.3, 3.0]), log_cond=st.floats(0.0, 8.0))
def test_pair_precision_matches_the_substitution_oracle(seed, d, j, n, step,
                                                        log_cond):
    # Omega with eigenvalues spread over 10^log_cond: both routes whiten
    # through L_Omega, whose condition number is 10^(log_cond / 2), so
    # each entry may differ by that many rounding errors of the
    # Cauchy-Schwarz bound on its magnitude (measured: under 4 of them)
    base = random_model(seed, d, j)
    q, _ = np.linalg.qr(rng.normal_matrix(seed, (5,), (d, d)))
    omega = (q * 10.0 ** (-log_cond * np.linspace(0.0, 1.0, d))) @ q.T
    model = DynamicsModel(base.basis, omega, base.coeff_prior_cov)
    z_i = rng.normal_matrix(seed, (3,), (n, d))
    delta = step * rng.normal_matrix(seed, (4,), (n, d))
    prec, info, white_sq = _gram_precision(model, _white_gram(model, z_i.T, delta.T))
    assert prec.shape == (j, j, n) and info.shape == (j, n)
    prec, info = prec.transpose(2, 0, 1), info.T
    want_prec, want_info, want_sq = pair_precision(model, z_i, delta)
    rtol = 64 * np.finfo(float).eps * 10.0 ** (log_cond / 2)
    gram_diag = np.diagonal(want_prec - model.coeff_prior_prec, axis1=1, axis2=2)
    prec_scale = (np.sqrt(gram_diag[:, :, None] * gram_diag[:, None, :])
                  + np.abs(model.coeff_prior_prec))
    assert prec.shape == (n, j, j) and info.shape == (n, j) \
        and white_sq.shape == (n,)
    assert np.all(np.abs(prec - want_prec) <= rtol * prec_scale)
    assert np.all(np.abs(info - want_info)
                  <= rtol * np.sqrt(gram_diag * want_sq[:, None]))
    assert np.all(np.abs(white_sq - want_sq) <= rtol * want_sq)


@pytest.mark.parametrize("column_major", [False, True])
@pytest.mark.parametrize("d, j", [(1, 3), (3, 2), (6, 2)])
def test_e_step_block_equals_its_one_pair_calls(d, j, column_major):
    # pair-last columns in either memory order give each pair the bits of
    # its lone call, and every output stack is row-major like a lone
    # call's, with the pair axis last
    order = "F" if column_major else "C"
    for seed in range(8):
        model = random_model(seed, d, j)
        z_cols = np.asarray(rng.normal_matrix(seed, (3,), (d, 5)), order=order)
        delta_cols = np.asarray(0.3 * rng.normal_matrix(seed, (4,), (d, 5)),
                                order=order)

        def outputs(z, delta):
            return (*_gram_precision(model, _white_gram(model, z, delta)),
                    *_e_step_block(model, z, delta))

        block = outputs(z_cols, delta_cols)
        singles = [outputs(z_cols[:, k:k + 1], delta_cols[:, k:k + 1])
                   for k in range(5)]
        cov = block[-1]  # exactly symmetric
        assert np.array_equal(cov, cov.swapaxes(0, 1))
        for got, *parts in zip(block, *singles):
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.concatenate(parts, axis=-1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8),
       j=st.integers(1, 4), n=st.integers(1, 40),
       step=st.sampled_from([1e-3, 0.3, 3.0]), column_major=st.booleans())
def test_white_gram_equals_the_block_form(seed, d, j, n, step, column_major):
    # one latent coordinate at a time, the upper triangle mirrored: the
    # same products summed in the same order as the full block of
    # whitened columns, so the same bits, in the output or in a view
    order = "F" if column_major else "C"
    model = random_model(seed, d, j)
    z_cols = np.asarray(rng.normal_matrix(seed, (3,), (d, n)), order=order)
    delta_cols = np.asarray(step * rng.normal_matrix(seed, (4,), (d, n)),
                            order=order)
    gram = _white_gram(model, z_cols, delta_cols)
    assert gram.shape == (j + 1, j + 1, n) and gram.flags.c_contiguous
    assert np.array_equal(gram, gram.swapaxes(0, 1))
    assert np.array_equal(gram, block_white_gram(model, z_cols, delta_cols))
    wide = np.full((j + 1, j + 1, n + 3), np.nan)
    _white_gram(model, z_cols, delta_cols, out=wide[..., 1:n + 1])
    assert np.array_equal(wide[..., 1:n + 1], gram)
    assert np.isnan(wide[..., [0, n + 1, n + 2]]).all()


@pytest.mark.parametrize("d, j", [(6, 2), (8, 3)])
def test_white_gram_memory_does_not_grow_with_the_column_block(d, j):
    # the kernel holds the whitened delta (d rows of N pairs), the Gram
    # ((J+1)^2 rows), one row of whitened columns and one scratch (J+1
    # rows each): no (J+1, d, N) block (the block form peaked at 54 and
    # 104 rows at these sizes)
    n = 20_000
    model = random_model(0, d, j)
    z_cols = rng.normal_matrix(0, (3,), (d, n))
    delta_cols = 0.3 * rng.normal_matrix(0, (4,), (d, n))
    model._white_generators  # cached before measuring
    tracemalloc.start()
    try:
        _white_gram(model, z_cols, delta_cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (d + (j + 1) ** 2 + 3 * (j + 1)) * 8 * n


@pytest.mark.parametrize("cpus, threads, workers", [
    (2, 5000, 2), (None, 4, 1), (8, 3, 3), (1, 20, 1)])
def test_map_blocks_starts_at_most_one_thread_per_cpu(monkeypatch, cpus,
                                                     threads, workers):
    # a stand-in pool records its size and runs the blocks in order on
    # this thread, so no thread is started however many are asked for;
    # the split into ``threads`` blocks, and with it the bits, stays
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: cpus)
    count = 2 * threads + 1
    blocks = dynamics.map_blocks(lambda a, b: (a, b), count, threads)
    assert started == [workers] and len(blocks) == threads
    assert blocks[0][0] == 0 and blocks[-1][1] == count
    assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
    model = random_model(5, 3, 2)
    z_i = rng.normal_matrix(5, (3,), (count, 3))
    data = PairDataset(z_i, z_i + 0.3 * rng.normal_matrix(5, (4,), (count, 3)))
    assert np.array_equal(_pair_gram(model, data, threads), _pair_gram(model, data))


def _stats_fitting(basis: GeneratorBasis, omega: np.ndarray,
                   lamlam: np.ndarray, count: int) -> TransitionStats:
    # summed statistics whose M-step returns ``basis`` (an identity
    # Kronecker Gram) and, up to rounding, ``omega``
    flat = block_flatten(basis)
    return TransitionStats(count, flat @ flat.T + count * omega, flat.copy(),
                           np.eye(flat.shape[1]), lamlam)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       j=st.integers(1, 3), n=st.integers(1, 12),
       step=st.sampled_from([1e-3, 0.3, 3.0]),
       case=st.sampled_from(["generic", "dropped", "orthonormal"]),
       orthogonalize=st.booleans(), estimate_lambda=st.booleans())
@example(seed=3, d=2, j=3, n=5, step=0.3, case="dropped",
         orthogonalize=True, estimate_lambda=True)
@example(seed=4, d=2, j=2, n=5, step=0.3, case="orthonormal",
         orthogonalize=True, estimate_lambda=False)
def test_carried_gram_equals_the_gram_at_the_orthogonalized_model(
        seed, d, j, n, step, case, orthogonalize, estimate_lambda):
    # the next E-step reads the fitted model's Gram carried through the
    # coefficient map of update_step: its precisions and information
    # must be those of the orthogonalized model, within a relative 1e-12
    # of the Cauchy-Schwarz scale of each entry (measured: under 5e-14)
    base = random_model(seed, d, j)
    gens = base.basis.generators.copy()
    if case == "dropped" and j > 1:
        gens[-1] = -0.7 * gens[0]  # a collinear generator: one is dropped
    elif case == "orthonormal" and j <= d * d:
        q, _ = np.linalg.qr(rng.normal_matrix(seed, (7,), (d * d, d * d)))
        rows = q[:j].copy()
        lead = rows[-1][np.abs(rows[-1]) > 1e-12 * np.abs(rows[-1]).max()][0]
        rows[-1] *= -np.sign(lead)  # its sign convention flips it back
        gens = rows.reshape(j, d, d)
    stats = _stats_fitting(GeneratorBasis(gens), base.trans_cov,
                           n * base.coeff_prior_cov, n)
    fitted, nxt, coeff_map = update_step(base, stats, estimate_lambda,
                                         orthogonalize)
    assert coeff_map.shape == (nxt.coeff_count, fitted.coeff_count)
    if not orthogonalize:
        assert nxt is fitted and np.array_equal(coeff_map, np.eye(j))
    elif case == "dropped" and j > 1:
        assert nxt.coeff_count < j
    elif case == "orthonormal" and j <= d * d:
        assert np.array_equal(np.abs(coeff_map), np.eye(j))
        assert coeff_map[-1, -1] == -1.0
    z_i = rng.normal_matrix(seed, (3,), (n, d))
    delta = step * rng.normal_matrix(seed, (4,), (n, d))
    carried = _change_gram_basis(_white_gram(fitted, z_i.T, delta.T), coeff_map)
    assert np.array_equal(carried, carried.swapaxes(0, 1))
    prec, info, white_sq = _gram_precision(nxt, carried)
    want_prec, want_info, want_sq = _gram_precision(
        nxt, _white_gram(nxt, z_i.T, delta.T))
    gram_diag = np.diagonal(want_prec - nxt.coeff_prior_prec[:, :, None])
    prec_scale = (np.sqrt(gram_diag[..., :, None] * gram_diag[..., None, :])
                  + np.abs(nxt.coeff_prior_prec)).transpose(1, 2, 0)
    assert np.all(np.abs(prec - want_prec) <= 1e-12 * prec_scale)
    assert np.all(np.abs(info - want_info)
                  <= 1e-12 * np.sqrt(gram_diag.T * want_sq))
    assert np.array_equal(white_sq, _white_gram(fitted, z_i.T, delta.T)[-1, -1])
    if not orthogonalize:
        assert np.array_equal(prec, want_prec) and np.array_equal(info, want_info)


@pytest.mark.parametrize("threads", [1, 3])
def test_fit_forms_one_pair_gram_per_iteration(monkeypatch, threads):
    # every Gram whitens the pairs' delta columns with one substitution by
    # L_Omega: a fit of max_iters iterations (d > J) whitens each pair
    # max_iters + 1 times, once per iteration and once for the initial
    # model, not once for the E-step and again for the marginal likelihood
    spec = SequenceSpec(group_kind="latent_random", latent_dim=3,
                        generator_count=2, lambda_scale=0.08, noise_std=0.01,
                        pair_count=13, seed=21)
    data, _ = generate_latent_pairs(spec)
    whitened = []
    solve = dynamics.triangular_solve

    def spy(chol, b, *args, **kwargs):
        if chol.ndim == 2 and np.shares_memory(b, data._delta_cols):
            whitened.append(b.shape[-1])
        return solve(chol, b, *args, **kwargs)

    monkeypatch.setattr(dynamics, "triangular_solve", spy)
    _, trace = fit(data, EmConfig(j_init=2, max_iters=5, tol=0.0, seed=3,
                                  threads=threads))
    assert len(trace) == 5
    assert sum(whitened) == (5 + 1) * data.count


def test_whitened_generators_are_formed_once_without_the_precision():
    model = random_model(7, 3, 2)
    z_i = rng.normal_matrix(7, (3,), (4, 3))
    e_step_all(model, PairDataset(z_i, z_i + 0.3))
    white = model._white_generators
    assert white is model._white_generators and "trans_prec" not in vars(model)
    assert np.array_equal(white, [triangular_solve(model.trans_chol, g)
                                  for g in model.basis.generators])


def test_pair_delta_is_computed_once():
    data = PairDataset([[1.0, 2.0]], [[4.0, 0.0]])
    assert data.delta is data.delta
    assert np.array_equal(data.delta, [[3.0, -2.0]])


def test_init_model_is_seeded():
    a = init_model(3, 2, 42)
    b = init_model(3, 2, 42)
    assert np.array_equal(a.basis.generators, b.basis.generators)
    assert not np.array_equal(a.basis.generators,
                              init_model(3, 2, 43).basis.generators)


def test_precisions_are_formed_on_first_read():
    # the dynamics estimator never reads Omega^-1, so no fitted model forms it
    data, _ = generate_latent_pairs(SequenceSpec(pair_count=20, seed=3))
    model, _ = fit(data, EmConfig(j_init=1, max_iters=3, seed=0))
    assert "trans_prec" not in vars(model)
    prec = model.trans_prec
    assert prec is model.trans_prec
    assert prec.tobytes() == cholesky_inverse(model.trans_chol).tobytes()
    assert model.coeff_prior_prec.tobytes() == \
        cholesky_inverse(model.coeff_prior_chol).tobytes()


# SHA-256 of a tiny fit's generators, Omega, Lambda and trace, recorded
# when each E-step began to read the previous iteration's pair Gram
# carried through the orthogonalization's coefficient map; any drift of
# the E-step, M-step or orthogonalization bits changes it.  Three
# threads split the 13 pairs into blocks of 4, 4 and 5.
@pytest.mark.parametrize("threads", [1, 3])
def test_tiny_fit_matches_pinned_digest(threads):
    spec = SequenceSpec(group_kind="latent_random", latent_dim=3,
                        generator_count=2, lambda_scale=0.08, noise_std=0.01,
                        pair_count=13, seed=21)
    data, _ = generate_latent_pairs(spec)
    model, trace = fit(data, EmConfig(j_init=2, max_iters=4, tol=0.0,
                                      seed=2 ** 64 - 3, estimate_lambda=True,
                                      threads=threads))
    h = hashlib.sha256()
    for a in [model.basis.generators, model.trans_cov, model.coeff_prior_cov,
              np.array(trace)]:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == \
        "552e8955725a6f2ad2fa4184fc7f9cc7a673a7635797d54725546db00514cab3"


def test_pair_dataset_reads_a_vector_as_one_pair():
    # frames must be (N, D) arrays, but a single vector stays one pair
    data = PairDataset(np.ones(3), np.zeros(3))
    assert (data.count, data.latent_dim) == (1, 3)
