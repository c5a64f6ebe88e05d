import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_ppca_em, tiny_joint_instance
from lieflow import ppca, rng
from lieflow.dynamics import (
    DynamicsModel,
    PairDataset,
    TransitionStats,
    _e_step_block,
    e_step_all,
    transition_stats,
)
from lieflow.gaussian import NumericError
from lieflow.liealg import GeneratorBasis, assemble_A
from lieflow.oracles import GridSpec
from lieflow.ppca import (
    LatentMoments,
    PpcaConfig,
    PpcaModel,
    _fixed_point_blocks,
    _frozen_coefficient_blocks,
    _moments_from_blocks,
    _monte_carlo_e_step,
    _quadrature_e_step,
    _residual_power,
    expected_complete_data_ll,
    fit,
    init_loading,
    m_step_W,
    m_step_dynamics,
    m_step_mu,
    m_step_sigma,
    mean_field_elbo,
    posterior_z_given_x,
)
from lieflow.synth import (
    ImagePairDataset,
    SequenceSpec,
    generate_image_pairs,
    generate_latent_pairs,
    subspace_angle,
)
from reference import (
    Gaussian,
    LinearGaussianMap,
    e_step_joint,
    gather_fixed_point_blocks,
    log_density,
    log_density_batch,
    pair_first_fixed_point_blocks,
    posterior,
    posterior_znext,
    quadrature_moments,
    solve_fixed_point_blocks,
)


def simple_model(w, sigma2=1.0, omega=None, lam=None, mu=None, gens=None):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    big_d, d = w.shape
    omega = np.eye(d) if omega is None else np.atleast_2d(omega)
    gens = np.eye(d)[None] if gens is None else gens
    j = gens.shape[0]
    lam = np.eye(j) if lam is None else np.atleast_2d(lam)
    mu = np.zeros(big_d) if mu is None else np.asarray(mu, dtype=float)
    return PpcaModel(w, mu, sigma2,
                     DynamicsModel(GeneratorBasis(gens), omega, lam))


class TestPosteriorZGivenX:
    def test_scalar_equal_precision(self):
        model = simple_model([[1.0]], sigma2=1.0)
        mean, cov = posterior_z_given_x(model, [2.0])
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(0.5)

    def test_zero_loading_returns_prior(self):
        model = simple_model(np.zeros((3, 2)), sigma2=0.7)
        mean, cov = posterior_z_given_x(model, [1.0, -2.0, 0.5])
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.eye(2))

    def test_matches_quadrature_bayes(self):
        w = rng.normal_matrix(1, (0,), (4, 2))
        mu = rng.normals(1, (1,), 4)
        model = simple_model(w, sigma2=0.3 ** 2, mu=mu)
        x = rng.normals(1, (2,), 4)
        post_mean, post_cov = posterior_z_given_x(model, x)

        like = Gaussian(x - mu, model.noise_var * np.eye(4))

        def log_target(zs):
            prior = -0.5 * np.sum(zs * zs, axis=1) - np.log(2 * np.pi)
            return prior + log_density_batch(like, zs @ w.T)

        half = 8.0 * np.sqrt(np.diag(post_cov).max())
        grid = GridSpec(post_mean - half, post_mean + half, np.full(2, 128))
        _, mean, second, _ = quadrature_moments(log_target, grid)
        assert np.allclose(mean, post_mean, atol=1e-6)
        assert np.allclose(second - np.outer(mean, mean), post_cov, atol=1e-6)

    def test_identical_to_gaussian_core_posterior(self):
        w = rng.normal_matrix(2, (0,), (5, 2))
        mu = rng.normals(2, (1,), 5)
        model = simple_model(w, sigma2=0.2, mu=mu)
        x = rng.normals(2, (2,), 5)
        mean, cov = posterior_z_given_x(model, x)
        ref = posterior(Gaussian(np.zeros(2), np.eye(2)),
                        LinearGaussianMap(w, mu, 0.2 * np.eye(5)), x)
        assert np.allclose(mean, ref.mean, atol=1e-12)
        assert np.allclose(cov, ref.cov, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 5), big_d=st.integers(1, 6), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), log_sig2=st.floats(-2.0, 1.0))
def test_batched_posterior_equals_per_frame_oracle(n, big_d, d, seed,
                                                   log_sig2):
    d = min(d, big_d)
    w = rng.normal_matrix(seed, (0,), (big_d, d))
    mu = rng.normals(seed, (1,), big_d)
    sig2 = 10.0 ** log_sig2
    model = simple_model(w, sigma2=sig2, mu=mu)
    x = mu + rng.normal_matrix(seed, (2,), (n, big_d))
    means, cov = posterior_z_given_x(model, x)
    assert means.shape == (n, d) and cov.shape == (d, d)
    prior = Gaussian(np.zeros(d), np.eye(d))
    lin = LinearGaussianMap(w, mu, sig2 * np.eye(big_d))
    for mean, frame in zip(means, x):
        ref = posterior(prior, lin, frame)
        assert np.abs(mean - ref.mean).max() \
            <= 1e-12 * max(1.0, np.abs(ref.mean).max())
        assert np.abs(cov - ref.cov).max() <= 1e-12 * max(1.0, np.abs(ref.cov).max())


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), big_d=st.integers(1, 6), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 31 - 1), log_sig2=st.floats(-2.0, 1.0),
       column_major=st.booleans())
def test_stacked_posterior_equals_its_one_frame_calls_bit_for_bit(
        n, big_d, d, seed, log_sig2, column_major):
    # each mean is one product per frame, so a frame's bits do not depend
    # on the frames it is passed with; fitted loadings are column-major
    d = min(d, big_d)
    w = rng.normal_matrix(seed, (0,), (big_d, d))
    if column_major:
        w = np.asfortranarray(w)
    model = simple_model(w, sigma2=10.0 ** log_sig2,
                         mu=rng.normals(seed, (1,), big_d))
    x = model.data_mean + rng.normal_matrix(seed, (2,), (2, n, big_d))
    means, cov = posterior_z_given_x(model, x)
    for k in range(2):
        for i in range(n):
            mean_one, cov_one = posterior_z_given_x(model, x[k, i])
            assert np.array_equal(means[k, i], mean_one)
            assert np.array_equal(cov, cov_one)


class TestPosteriorZNext:
    def test_zero_loading_gives_pure_transition(self):
        gens = rng.normal_matrix(3, (0,), (2, 2, 2))
        omega = np.diag([0.3, 0.5])
        model = simple_model(np.zeros((3, 2)), sigma2=0.4, omega=omega,
                             gens=gens, lam=np.eye(2))
        z_i = rng.normals(3, (1,), 2)
        lam = rng.normals(3, (2,), 2)
        post = posterior_znext(model, np.zeros(3), z_i, lam)
        drift = z_i + assemble_A(model.dynamics.basis, z_i) @ lam
        assert np.allclose(post.mean, drift, atol=1e-9)
        assert np.allclose(post.cov, omega, atol=1e-9)

    def test_flat_transition_limit_recovers_observation_posterior(self):
        # huge Omega and tiny noise: conditional collapses onto the
        # observation posterior of the next frame
        w = rng.normal_matrix(4, (0,), (4, 2))
        model = simple_model(w, sigma2=1e-8, omega=1e6 * np.eye(2))
        x_n = rng.normals(4, (1,), 4)
        post = posterior_znext(model, x_n, np.zeros(2), np.zeros(1))
        ref_mean, ref_cov = posterior_z_given_x(model, x_n)
        assert np.allclose(post.mean, ref_mean, atol=1e-5)
        assert np.allclose(post.cov, ref_cov, atol=1e-5)

    def test_matches_quadrature(self):
        w = rng.normal_matrix(5, (0,), (3, 2))
        gens = rng.normal_matrix(5, (1,), (1, 2, 2))
        model = simple_model(w, sigma2=0.25, omega=0.4 * np.eye(2), gens=gens)
        z_i = rng.normals(5, (2,), 2)
        lam = np.array([0.3])
        x_n = rng.normals(5, (3,), 3)
        post = posterior_znext(model, x_n, z_i, lam)

        drift = z_i + assemble_A(model.dynamics.basis, z_i) @ lam
        trans = Gaussian(drift, model.dynamics.trans_cov)
        like = Gaussian(x_n, model.noise_var * np.eye(3))

        def log_target(zs):
            return (log_density_batch(trans, zs)
                    + log_density_batch(like, zs @ w.T))

        half = 8.0 * np.sqrt(np.diag(post.cov).max())
        grid = GridSpec(post.mean - half, post.mean + half, np.full(2, 128))
        _, mean, second, _ = quadrature_moments(log_target, grid)
        assert np.allclose(mean, post.mean, atol=1e-6)
        assert np.allclose(second - np.outer(mean, mean), post.cov, atol=1e-6)


class TestEStepJoint:
    def test_exact_observation_identity_transition(self):
        x = np.array([0.8, -0.4])
        model = simple_model(np.eye(2), sigma2=1e-8, omega=1e-6 * np.eye(2),
                             lam=1e-6 * np.eye(1),
                             gens=np.array([[[0.0, -1.0], [1.0, 0.0]]]))
        moments = e_step_joint(model, x, x, method="fixed_point")
        assert np.allclose(moments.ez[0, 0], x, atol=1e-4)
        assert np.allclose(moments.ez[1, 0], x, atol=1e-4)
        assert np.abs(moments.elam).max() < 1e-4

    def test_collapsed_coefficient_prior_freezes_lambda(self):
        model, x_i, x_n = tiny_joint_instance(6)
        collapsed = PpcaModel(
            model.loading, model.data_mean, model.noise_var,
            DynamicsModel(model.dynamics.basis, model.dynamics.trans_cov,
                          np.array([[1e-14]])))
        moments = e_step_joint(collapsed, x_i, x_n, method="fixed_point")
        assert abs(moments.elam[0, 0]) < 1e-6
        assert abs(moments.elamlam[0, 0, 0]) < 1e-12
        # z-blocks reduce to the coefficient-free chained posteriors
        frozen = _moments_from_blocks(*_frozen_coefficient_blocks(
            collapsed, np.stack([x_i, x_n])[:, None]))
        assert np.allclose(moments.ez, frozen.ez, atol=1e-6)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_fixed_point_and_mc_match_quadrature(self, seed):
        model, x_i, x_n = tiny_joint_instance(seed)
        settings = dict(mc_samples=200_000, grid_points=72, seed=seed)
        quad = e_step_joint(model, x_i, x_n, method="quadrature", **settings)
        fp = e_step_joint(model, x_i, x_n, method="fixed_point", **settings)
        mc = e_step_joint(model, x_i, x_n, method="monte_carlo", **settings)
        for field in ("ez", "elam"):
            q, f, m = (getattr(quad, field), getattr(fp, field),
                       getattr(mc, field))
            assert np.abs(f - q).max() < 1e-3
            assert np.abs(m - q).max() < 5e-3  # ~3 SE at this sample count
        assert np.abs(fp.ezz[0] - quad.ezz[0]).max() < 1e-3
        assert np.abs(mc.ezz[0] - quad.ezz[0]).max() < 5e-3

    def test_moment_bundles_are_psd(self):
        model, x_i, x_n = tiny_joint_instance(13)
        for method in ("fixed_point", "quadrature"):
            m = e_step_joint(model, x_i, x_n, method=method)
            assert np.linalg.eigvalsh(m.cov_z[0]).min() > -1e-10
            assert np.linalg.eigvalsh(m.cov_lam).min() > -1e-10

    def test_rejects_unknown_method(self):
        model, x_i, x_n = tiny_joint_instance(14)
        with pytest.raises(ValueError):
            e_step_joint(model, x_i, x_n, method="variational")


@pytest.mark.parametrize("seed", range(30, 35))
def test_quadrature_evidence_is_exact_for_a_zero_generator_basis(seed):
    # with every generator zero the pair is linear-Gaussian:
    # p(x_next | x_i) = N(W m + mu, W (S + Omega) W^T + sigma^2 I) with
    # (m, S) the frame posterior of x_i
    model, x_i, x_n = tiny_joint_instance(seed)
    dyn = model.dynamics
    model = PpcaModel(model.loading, model.data_mean, model.noise_var,
                      DynamicsModel(GeneratorBasis(np.zeros((1, 1, 1))),
                                    dyn.trans_cov, dyn.coeff_prior_cov))
    _, log_norm = _quadrature_e_step(model, np.stack([x_i, x_n])[:, None], PpcaConfig(
        estep="quadrature", grid_points=72))
    m, s = posterior_z_given_x(model, x_i)
    w = model.loading
    cov = w @ (s + dyn.trans_cov) @ w.T + model.noise_var * np.eye(3)
    resid = x_n - w @ m - model.data_mean
    exact = -0.5 * (resid @ np.linalg.solve(cov, resid)
                    + np.linalg.slogdet(cov)[1] + 3 * np.log(2.0 * np.pi))
    assert abs(log_norm - exact) <= 1e-12 * abs(exact)


class TestCanonicalForm:
    def test_exponential_family_coefficients_at_scalar_dims(self):
        # the joint posterior is exp(eta . T) for the sufficient statistics
        # (z_n^2, z_n, z_i z_n, lam z_i z_n, z_i^2, lam z_i^2, lam^2 z_i^2,
        #  z_i, lam^2); rebuilding the density from those coefficients must
        # reproduce the e-step quadrature moments
        model, x_i, x_n = tiny_joint_instance(15)
        xc_n = x_n - model.data_mean
        w = float(model.loading[:, 0] @ model.loading[:, 0]) ** 0.5
        wx = float(model.loading[:, 0] @ xc_n)
        post_mean, post_cov = posterior_z_given_x(model, x_i)
        u, s = float(post_mean[0]), float(post_cov[0, 0])
        g = float(model.dynamics.basis.generators[0, 0, 0])
        omega = float(model.dynamics.trans_cov[0, 0])
        lam_var = float(model.dynamics.coeff_prior_cov[0, 0])
        sig2 = model.noise_var

        eta = {
            "zn2": -0.5 / omega - 0.5 * w ** 2 / sig2,
            "zn": wx / sig2,
            "zizn": 1.0 / omega,
            "lzizn": g / omega,
            "zi2": -0.5 / s - 0.5 / omega,
            "lzi2": -g / omega,
            "l2zi2": -0.5 * g ** 2 / omega,
            "zi": u / s,
            "l2": -0.5 / lam_var,
        }

        def log_canonical(nodes):
            zi, lam, zn = nodes[:, 0], nodes[:, 1], nodes[:, 2]
            return (eta["zn2"] * zn ** 2 + eta["zn"] * zn
                    + eta["zizn"] * zi * zn + eta["lzizn"] * lam * zi * zn
                    + eta["zi2"] * zi ** 2 + eta["lzi2"] * lam * zi ** 2
                    + eta["l2zi2"] * lam ** 2 * zi ** 2
                    + eta["zi"] * zi + eta["l2"] * lam ** 2)

        def log_model(nodes):
            zi, lam, zn = nodes[:, 0], nodes[:, 1], nodes[:, 2]
            trans = zn - zi - g * zi * lam
            recon = xc_n[None, :] - np.outer(zn, model.loading[:, 0])
            return (-0.5 * (zi - u) ** 2 / s - 0.5 * lam ** 2 / lam_var
                    - 0.5 * trans ** 2 / omega
                    - 0.5 * np.sum(recon ** 2, axis=1) / sig2)

        # the canonical form must match the factorized density up to the
        # log-partition constant, hence give identical normalized moments
        probe = rng.normal_matrix(0, (0,), (256, 3))
        gap = log_model(probe) - log_canonical(probe)
        assert gap.max() - gap.min() < 1e-9

        quad = e_step_joint(model, x_i, x_n, method="quadrature",
                            grid_points=72)
        center = np.array([quad.ez[0, 0, 0], quad.elam[0, 0],
                           quad.ez[1, 0, 0]])
        stds = np.sqrt(np.array([quad.cov_z[0, 0, 0, 0], quad.cov_lam[0, 0, 0],
                                 quad.cov_z[1, 0, 0, 0]]))
        grid = GridSpec(center - 9 * stds, center + 9 * stds, np.full(3, 96))
        _, mean, second, _ = quadrature_moments(log_canonical, grid)
        assert abs(mean[0] - quad.ez[0, 0, 0]) < 1e-6
        assert abs(mean[1] - quad.elam[0, 0]) < 1e-6
        assert abs(mean[2] - quad.ez[1, 0, 0]) < 1e-6
        assert abs(second[0, 0] - quad.ezz[0, 0, 0, 0]) < 1e-6
        assert abs(second[1, 1] - quad.elamlam[0, 0, 0]) < 1e-6


class TestMSteps:
    def test_mu_single_pair(self):
        a = np.array([[1.0, 2.0]])
        data = ImagePairDataset(a, a, 1, 2)
        assert np.allclose(m_step_mu(data), a[0])

    def test_mu_symmetric_pair(self):
        a = np.array([[1.0, -3.0]])
        data = ImagePairDataset(a, -a, 1, 2)
        assert np.allclose(m_step_mu(data), 0.0)

    def test_mu_matches_brute_force(self):
        x_i = rng.normal_matrix(16, (0,), (7, 3))
        x_n = rng.normal_matrix(16, (1,), (7, 3))
        data = ImagePairDataset(x_i, x_n, 1, 3)
        brute = (x_i.sum(axis=0) + x_n.sum(axis=0)) / 14.0
        assert np.allclose(m_step_mu(data), brute, atol=1e-12)

    @staticmethod
    def delta_moments(z_i, z_n, lam=None, j=1, lam_cov=None):
        """Moments of point-mass latents, and of point-mass coefficients
        unless ``lam_cov`` is given, assembled like the mean-field
        bundle; one row per pair."""
        n, d = z_i.shape
        lam = np.zeros((n, j)) if lam is None else np.asarray(lam, dtype=float)
        lam_cov = np.zeros((n, lam.shape[1], lam.shape[1])) \
            if lam_cov is None else lam_cov
        point = np.zeros((n, d, d))
        return _moments_from_blocks(z_i, point, z_n, point, lam, lam_cov)

    def test_w_identity_limit(self):
        frames = rng.normal_matrix(17, (0,), (6, 2))
        data = ImagePairDataset(frames, frames, 1, 2)
        moments = self.delta_moments(frames, frames)
        w = m_step_W(data.frames - np.zeros(2), moments)
        assert np.allclose(w, np.eye(2), atol=1e-10)

    def test_w_zero_cross_moments(self):
        frames = rng.normal_matrix(18, (0,), (5, 3))
        data = ImagePairDataset(frames, frames, 1, 3)
        eye = np.broadcast_to(np.eye(2), (2, 5, 2, 2))
        moments = replace(self.delta_moments(np.zeros((5, 2)), np.zeros((5, 2))),
                          ezz=eye)
        w = m_step_W(data.frames - np.zeros(3), moments)
        assert np.allclose(w, 0.0, atol=1e-12)

    def test_w_recovers_principal_subspace_with_exact_latents(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.0, pair_count=50, seed=19,
                            height=3, width=3)
        data, truth = generate_image_pairs(spec, embedding="linear")
        moments = self.delta_moments(truth.z_i, truth.z_next)
        w = m_step_W(data.frames - np.zeros(9), moments)
        gap = np.linalg.svd(w - truth.loading, compute_uv=False).max()
        assert gap < 1e-10

    def test_sigma_perfect_reconstruction_clamps(self):
        frames = rng.normal_matrix(20, (0,), (4, 3))
        data = ImagePairDataset(frames, frames, 1, 3)
        w = np.eye(3)
        moments = self.delta_moments(frames, frames)
        assert sigma_update(data, moments, w, np.zeros(3)) == pytest.approx(1e-12)

    def test_sigma_zero_loading_gives_frame_variance(self):
        x_i = rng.normal_matrix(21, (0,), (40, 3))
        x_n = rng.normal_matrix(21, (1,), (40, 3))
        data = ImagePairDataset(x_i, x_n, 1, 3)
        mu = m_step_mu(data)
        eye = np.broadcast_to(np.eye(2), (2, 40, 2, 2))
        moments = replace(self.delta_moments(np.zeros((40, 2)), np.zeros((40, 2))),
                          ezz=eye)
        got = sigma_update(data, moments, np.zeros((3, 2)), mu)
        stacked = np.vstack([x_i, x_n]) - mu
        assert got == pytest.approx(np.mean(stacked ** 2), rel=1e-12)

    def test_dynamics_reduces_to_fixed_representation_updates(self):
        spec = SequenceSpec(group_kind="latent_random", latent_dim=2,
                            generator_count=2, lambda_scale=0.05,
                            noise_std=0.01, pair_count=30, seed=22)
        data, _ = generate_latent_pairs(spec)
        from lieflow.dynamics import init_model
        model = init_model(2, 2, 22)
        mean, cov = e_step_all(model, data)
        moments = self.delta_moments(data.z_i, data.z_next, mean.T,
                                     lam_cov=cov.transpose(2, 0, 1))
        basis, omega = m_step_dynamics(moments.transition)
        ref_basis, ref_omega = m_step_dynamics(transition_stats(data, mean, cov))
        assert np.allclose(basis.generators, ref_basis.generators, atol=1e-9)
        assert np.allclose(omega, ref_omega, atol=1e-9)

    def test_dynamics_zero_coefficient_moments_give_zero_generator(self):
        z_i = np.stack([rng.normals(23, (k,), 2) for k in range(6)])
        z_n = np.stack([rng.normals(23, (k, 1), 2) for k in range(6)])
        # zero-mean coefficients of unit variance
        moments = self.delta_moments(z_i, z_n, lam_cov=np.ones((6, 1, 1)))
        assert np.all(moments.transition.dz_zlam == 0.0)
        basis, _ = m_step_dynamics(moments.transition)
        assert np.allclose(basis.generators, 0.0, atol=1e-12)


def sigma_update(data, moments, w, mu):
    """:func:`m_step_sigma` of ``data``'s frames centred at ``mu``."""
    xc = data.frames - mu
    return m_step_sigma(_residual_power(xc, moments, w), xc.size)


def elbo_of(model, data, moments):
    """:func:`mean_field_elbo` of ``data``'s frames under ``model``."""
    xc = data.frames - model.data_mean
    return mean_field_elbo(model, moments, _residual_power(xc, moments, model.loading))


def random_spd(seed, path, n, k):
    """``n`` random symmetric positive definite ``k x k`` matrices."""
    b = rng.normal_matrix(seed, path, (n, k, k))
    return np.einsum("nab,ncb->nac", b, b) + 0.1 * np.eye(k)


def random_objective_instance(seed, n, big_d, d, j):
    """A random model with SPD noise and prior covariances, and ``n``
    image pairs around its mean."""
    d = min(d, big_d)
    model = simple_model(rng.normal_matrix(seed, (0,), (big_d, d)),
                         sigma2=0.5 + rng.uniforms(seed, (1,), 1)[0],
                         omega=random_spd(seed, (2,), 1, d)[0],
                         lam=random_spd(seed, (3,), 1, j)[0],
                         mu=rng.normals(seed, (4,), big_d),
                         gens=rng.normal_matrix(seed, (5,), (j, d, d)))
    x_i, x_n = model.data_mean + rng.normal_matrix(seed, (6,), (2, n, big_d))
    return model, x_i, x_n


_OBJECTIVE_SIZES = dict(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 3),
                        big_d=st.integers(1, 4), d=st.integers(1, 2),
                        j=st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(**_OBJECTIVE_SIZES)
def test_point_mass_objective_is_the_complete_data_log_density(seed, n, big_d,
                                                               d, j):
    model, x_i, x_n = random_objective_instance(seed, n, big_d, d, j)
    d, j = model.latent_dim, model.dynamics.coeff_count
    z_i, z_n = rng.normal_matrix(seed, (7,), (2, n, d))
    lam = rng.normal_matrix(seed, (8,), (n, j))
    moments = _moments_from_blocks(z_i, np.zeros((n, d, d)), z_n,
                                   np.zeros((n, d, d)), lam, np.zeros((n, j, j)))
    dyn, w, mu = model.dynamics, model.loading, model.data_mean
    noise = model.noise_var * np.eye(model.data_dim)
    ref = sum(log_density(Gaussian(w @ zi + mu, noise), xi)
              + log_density(Gaussian(w @ zn + mu, noise), xn)
              + log_density(Gaussian(np.zeros(d), np.eye(d)), zi)
              + log_density(Gaussian(zi + assemble_A(dyn.basis, zi) @ lm,
                                     dyn.trans_cov), zn)
              + log_density(Gaussian(np.zeros(j), dyn.coeff_prior_cov), lm)
              for xi, xn, zi, zn, lm in zip(x_i, x_n, z_i, z_n, lam))
    got = expected_complete_data_ll(
        model, moments, _residual_power(np.stack([x_i, x_n]) - mu, moments, w))
    assert abs(got - ref) <= 1e-10 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(**_OBJECTIVE_SIZES)
def test_sigma_update_maximizes_the_elbo(seed, n, big_d, d, j):
    model, x_i, x_n = random_objective_instance(seed, n, big_d, d, j)
    d, j = model.latent_dim, model.dynamics.coeff_count
    moments = _moments_from_blocks(
        rng.normal_matrix(seed, (7,), (n, d)), random_spd(seed, (8,), n, d),
        rng.normal_matrix(seed, (9,), (n, d)), random_spd(seed, (10,), n, d),
        rng.normal_matrix(seed, (11,), (n, j)), random_spd(seed, (12,), n, j))
    data = ImagePairDataset(x_i, x_n, 1, model.data_dim)
    best = sigma_update(data, moments, model.loading, model.data_mean)
    elbo = [elbo_of(replace(model, noise_var=best * f), data, moments)
            for f in (1.0, 1.0 - 1e-3, 1.0 + 1e-3)]
    assert elbo[0] >= max(elbo[1:])


def test_mean_field_elbo_reuses_the_bundle_eigenvalues(monkeypatch):
    # a bundle eigen-decomposes its covariance stacks once, for its PSD
    # check, and the entropies of the bound read those eigenvalues
    model, x_i, x_n = random_objective_instance(3, 4, 3, 2, 2)
    blocks = (rng.normal_matrix(3, (7,), (4, 2)), random_spd(3, (8,), 4, 2),
              rng.normal_matrix(3, (9,), (4, 2)), random_spd(3, (10,), 4, 2),
              rng.normal_matrix(3, (11,), (4, 2)), random_spd(3, (12,), 4, 2))
    data = ImagePairDataset(x_i, x_n, 1, model.data_dim)
    want = elbo_of(model, data, _moments_from_blocks(*blocks))
    moments = _moments_from_blocks(*blocks)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigen-decomposed again")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert elbo_of(model, data, moments) == want


@settings(max_examples=40, deadline=None)
@given(**_OBJECTIVE_SIZES, frozen=st.booleans())
def test_mean_field_elbo_is_the_sum_over_its_one_pair_bundles(
        seed, n, big_d, d, j, frozen):
    # the coefficient priors and entropies are counted for all pairs of a
    # live bundle and for none of a frozen one (q = k = 0)
    model, x_i, x_n = random_objective_instance(seed, n, big_d, d, j)
    d, j = model.latent_dim, model.dynamics.coeff_count
    q, k = ((np.zeros((n, j)), np.zeros((n, j, j))) if frozen else
            (rng.normal_matrix(seed, (11,), (n, j)), random_spd(seed, (12,), n, j)))
    blocks = (rng.normal_matrix(seed, (7,), (n, d)), random_spd(seed, (8,), n, d),
              rng.normal_matrix(seed, (9,), (n, d)), random_spd(seed, (10,), n, d),
              q, k)
    whole = elbo_of(model, ImagePairDataset(x_i, x_n, 1, model.data_dim),
                    _moments_from_blocks(*blocks))
    parts = sum(elbo_of(
        model, ImagePairDataset(x_i[p:p + 1], x_n[p:p + 1], 1, model.data_dim),
        _moments_from_blocks(*(b[p:p + 1] for b in blocks))) for p in range(n))
    assert abs(whole - parts) <= 1e-12 * abs(whole)


def _quadrature_fitted_instance():
    """Six tiny pairs and the model of a 3-iteration quadrature fit to them."""
    x_i, x_n = (np.stack([tiny_joint_instance(520 + k)[frame] for k in range(6)])
                for frame in (1, 2))
    data = ImagePairDataset(x_i, x_n, 1, 3)
    model, _ = fit(data, PpcaConfig(latent_dim=1, j_init=1, estep="quadrature",
                                    estimate_lambda=True, grid_points=48,
                                    max_iters=3, seed=1))
    return model, data


def test_monte_carlo_evidence_matches_quadrature(monkeypatch):
    # log mean(w) per pair estimates log p(x_next | x_i); its delta-method
    # standard error is sd(w) / (mean(w) sqrt(s))
    model, data = _quadrature_fitted_instance()
    _, quad = _quadrature_e_step(model, data.frames, PpcaConfig(grid_points=48))
    log_w, next_frame = [], ppca._next_frame

    def spy(*args):
        out = next_frame(*args)
        log_w.append(out[0])
        return out

    monkeypatch.setattr(ppca, "_next_frame", spy)
    samples = 100_000
    _, mc = _monte_carlo_e_step(model, data.frames,
                                PpcaConfig(mc_samples=samples, seed=1),
                                [(i,) for i in range(data.count)])
    weights = [np.exp(lw - lw.max()) for lw in log_w]
    se = np.sqrt(sum(w.var() / (samples * w.mean() ** 2) for w in weights))
    assert len(weights) == data.count
    assert abs(mc - quad) <= 4.0 * se


def test_fixed_point_elbo_lies_below_the_quadrature_evidence():
    model, data = _quadrature_fitted_instance()
    _, quad = _quadrature_e_step(model, data.frames, PpcaConfig(grid_points=48))
    evidence = ppca._first_frame_evidence(model, data.x_i - model.data_mean) + quad
    moments = _moments_from_blocks(*_fixed_point_blocks(model, data.frames))
    assert elbo_of(model, data, moments) < evidence


_SWEEP_SIZES = dict(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 12),
                    extra_dims=st.integers(0, 3), d=st.integers(1, 3),
                    j=st.integers(1, 3), scale=st.sampled_from([1e-3, 0.3, 3.0]))


def scaled_sweep_instance(seed, n, extra_dims, d, j, scale):
    """:func:`random_objective_instance` with ``extra_dims`` more data than
    latent dimensions and the coefficient standard deviations scaled by
    ``scale``: weak coupling of the three blocks at 1e-3, strong at 3."""
    model, x_i, x_n = random_objective_instance(seed, n, d + extra_dims, d, j)
    dyn = model.dynamics
    return replace(model, dynamics=DynamicsModel(
        dyn.basis, dyn.trans_cov, scale ** 2 * dyn.coeff_prior_cov)), x_i, x_n


@settings(max_examples=60, deadline=None)
@given(**_SWEEP_SIZES)
def test_fixed_point_sweep_matches_the_direct_solve_oracle(seed, n, extra_dims,
                                                           d, j, scale):
    model, x_i, x_n = scaled_sweep_instance(seed, n, extra_dims, d, j, scale)
    try:
        want = solve_fixed_point_blocks(model, x_i, x_n)
    except NumericError:
        # strong coupling can keep the sweep from converging; both forms
        # must then fail alike
        with pytest.raises(NumericError):
            _fixed_point_blocks(model, np.stack([x_i, x_n]))
        return
    got = _fixed_point_blocks(model, np.stack([x_i, x_n]))
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-9 * np.abs(w).max()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 6),
       extra_dims=st.integers(0, 3), d=st.integers(1, 3), j=st.integers(1, 2),
       scale=st.sampled_from([1e-3, 0.3, 3.0]))
def test_fixed_point_sweep_matches_its_pair_first_form(seed, n, extra_dims, d,
                                                       j, scale):
    # the pair-last sweep sums over d in another order than the stacked
    # products of the pair-first one, so the six blocks agree to rounding
    model, x_i, x_n = scaled_sweep_instance(seed, n, extra_dims, d, j, scale)
    x = np.stack([x_i, x_n])
    try:
        want = pair_first_fixed_point_blocks(model, x)
    except NumericError:
        with pytest.raises(NumericError):
            _fixed_point_blocks(model, x)
        return
    got = _fixed_point_blocks(model, x)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _blocks_or_none(model, x_i, x_n):
    try:
        return _fixed_point_blocks(model, np.stack([x_i, x_n]))
    except NumericError:
        return None


def assert_block_equals_its_one_pair_sweeps(model, x_i, x_n):
    """Every operation of the sweep is elementwise over the pairs, so a
    pair's bits do not depend on the block it is swept in.  Returns
    whether the block converged."""
    block = _blocks_or_none(model, x_i, x_n)
    singles = [_blocks_or_none(model, x_i[k:k + 1], x_n[k:k + 1])
               for k in range(len(x_i))]
    if block is None:
        assert any(single is None for single in singles)
        return False
    assert all(single is not None for single in singles)
    for got, *parts in zip(block, *singles):
        assert np.array_equal(got, np.concatenate(parts))
    return True


@settings(max_examples=40, deadline=None)
@given(**_SWEEP_SIZES)
def test_fixed_point_sweep_of_a_block_equals_its_one_pair_sweeps(
        seed, n, extra_dims, d, j, scale):
    assert_block_equals_its_one_pair_sweeps(
        *scaled_sweep_instance(seed, n, extra_dims, d, j, scale))


def test_fixed_point_sweep_block_independence_on_a_fixed_grid():
    # pairs of one-dimensional latents with three generators: the grid
    # where column-major stacks from the coefficient posterior gave a
    # pair other bits inside a block than alone
    converged = [assert_block_equals_its_one_pair_sweeps(
        *scaled_sweep_instance(seed, 2, 0, 1, 3, scale))
        for seed in range(8) for scale in (0.3, 3.0)]
    assert sum(converged) >= 15


def test_fixed_point_sweep_takes_q_lambda_from_the_dynamics_e_step(monkeypatch):
    # the sweep's coefficient posterior is the dynamics E-step's, not a
    # second copy of its closed form: every pair's returned q and k are
    # one pair (last-axis slice) of what the E-step's calls returned
    calls = []

    def spy(dynamics_model, z_i, delta):
        out = _e_step_block(dynamics_model, z_i, delta)
        calls.append(out)
        return out

    monkeypatch.setattr(ppca, "_e_step_block", spy)
    model, x_i, x_n = scaled_sweep_instance(5, 6, 1, 2, 2, 0.3)
    *_, q, k = _fixed_point_blocks(model, np.stack([x_i, x_n]))
    assert len(calls) > 1 and calls[0][0].shape[-1] == len(q)
    rows = [(mean, cov) for means, covs in calls
            for mean, cov in zip(means.T, covs.transpose(2, 0, 1))]
    for mean, cov in zip(q, k):
        assert any(np.array_equal(mean, m) and np.array_equal(cov, c)
                   for m, c in rows)


def sweep_widths(model, x):
    """The pair count of every ``_e_step_block`` call, one call per sweep,
    of a fixed-point E-step of ``x``."""
    widths = []

    def spy(dynamics_model, z_i, delta):
        widths.append(z_i.shape[-1])
        return _e_step_block(dynamics_model, z_i, delta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ppca, "_e_step_block", spy)
        _fixed_point_blocks(model, x)
    return widths


def assert_retiring_sweep_equals_the_gather_form(model, x):
    """The retiring sweep gives every pair the bits of the sweep that
    re-gathers the live set every sweep, or fails alike, at the same
    largest residual."""
    try:
        want = gather_fixed_point_blocks(model, x)
    except NumericError as exc:
        residual = str(exc).rsplit("residual ", 1)[1].rstrip(")")
        with pytest.raises(NumericError, match=re.escape(f"residual {residual})")):
            _fixed_point_blocks(model, x)
        return
    got = _fixed_point_blocks(model, x)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(**dict(_SWEEP_SIZES, n=st.integers(1, 40)))
def test_retiring_sweep_keeps_the_bits_of_the_gather_form(seed, n, extra_dims,
                                                          d, j, scale):
    model, x_i, x_n = scaled_sweep_instance(seed, n, extra_dims, d, j, scale)
    assert_retiring_sweep_equals_the_gather_form(model, np.stack([x_i, x_n]))


def test_retiring_sweep_keeps_the_bits_where_pairs_retire_at_four_sweeps():
    # 12 pairs, d = 3, J = 2: every pair lives through 9 sweeps, then 4,
    # 5, 2 and 1 pairs retire at sweeps 9, 10, 11 and 12
    model, x_i, x_n = scaled_sweep_instance(0, 12, 2, 3, 2, 0.3)
    x = np.stack([x_i, x_n])
    assert sweep_widths(model, x) == [12] * 9 + [8, 3, 1]
    assert_retiring_sweep_equals_the_gather_form(model, x)


@pytest.mark.parametrize("sweeps", [2, 10])
def test_non_converged_sweep_reports_the_live_pairs(monkeypatch, sweeps):
    # 12 pairs are live after 2 sweeps and 3 after 10 (see the test above)
    model, x_i, x_n = scaled_sweep_instance(0, 12, 2, 3, 2, 0.3)
    x = np.stack([x_i, x_n])
    widths = sweep_widths(model, x)
    monkeypatch.setattr(ppca, "FIXED_POINT_ITERS", sweeps)
    with pytest.raises(NumericError) as caught:
        _fixed_point_blocks(model, x)
    message = str(caught.value)
    assert message.startswith(f"fixed-point E-step did not converge within "
                              f"{sweeps} iterations ({widths[sweeps]} of 12 "
                              f"pairs still live, largest residual ")
    assert float(message.rsplit(" ", 1)[1].rstrip(")")) >= ppca.FIXED_POINT_TOL


def test_fit_forms_one_residual_power_per_iteration(monkeypatch):
    # sigma^2 and the mean-field bound of an iteration share one power
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=10, seed=4,
                        height=2, width=2)
    data, _ = generate_image_pairs(spec, embedding="linear")
    calls, power = [], ppca._residual_power

    def counted(*args):
        calls.append(args)
        return power(*args)

    monkeypatch.setattr(ppca, "_residual_power", counted)
    _, trace = fit(data, PpcaConfig(latent_dim=2, j_init=1, max_iters=3,
                                    tol=0.0, seed=0))
    assert len(trace) == len(calls) == 3


class TestFit:
    def test_identity_transition_dataset(self):
        # x_next identical to x_i: the raw generator update collapses (the
        # fitted basis is its orthogonalization, of unit norm) and the
        # loading still recovers the principal subspace
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.005, pair_count=120, seed=24,
                            height=3, width=3)
        base, truth = generate_image_pairs(spec, embedding="linear")
        data = ImagePairDataset(base.x_i, base.x_i, 3, 3)
        model, trace = fit(data, PpcaConfig(latent_dim=2, j_init=1,
                                            max_iters=60, seed=0))
        moments = _moments_from_blocks(*_fixed_point_blocks(model, data.frames))
        basis, _ = m_step_dynamics(moments.transition)
        assert np.linalg.norm(basis.generators) < 1e-3
        w_angle = subspace_angle_loading(model.loading, truth.loading)
        assert w_angle < 1e-2

    def test_frozen_coefficients_noise_free_floor(self):
        # noise-free pairs collapse sigma^2 to the clamp floor; stop at a
        # tolerance above the floor-level round-off wobble
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=1e-9,
                            noise_std=0.0, pair_count=60, seed=25,
                            height=3, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        model, trace = fit(data, PpcaConfig(
            latent_dim=2, freeze_coefficients=True,
            max_iters=40, tol=1e-5, seed=0))
        assert model.noise_var == pytest.approx(1e-12)
        trace = np.array(trace)
        rel = np.diff(trace) / np.abs(trace[:-1])
        assert rel.min() >= -1e-6

    def test_fixed_point_trace_settles_and_model_fits(self):
        # the mean-field bound carries no per-step guarantee (it can even
        # tighten downward as the fitted transition noise shrinks), so
        # assert that it levels off and that the fit itself is good
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.02, pair_count=80, seed=30,
                            height=3, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        model, trace = fit(data, PpcaConfig(latent_dim=2, j_init=1,
                                            max_iters=60, tol=0.0, seed=0))
        trace = np.array(trace)
        tail = np.diff(trace)[-10:] / np.abs(trace[-11:-1])
        assert np.abs(tail).max() < 1e-4
        means, _ = posterior_z_given_x(model, data.x_i)
        rec = means @ model.loading.T + model.data_mean
        assert np.mean((rec - data.x_i) ** 2) < 2 * 0.02 ** 2

    def test_quadrature_estep_trace_monotone(self):
        model0, x_i, x_n = tiny_joint_instance(26)
        x_is = np.stack([tiny_joint_instance(26 + k)[1] for k in range(6)])
        x_ns = np.stack([tiny_joint_instance(26 + k)[2] for k in range(6)])
        data = ImagePairDataset(x_is, x_ns, 1, 3)
        _, trace = fit(data, PpcaConfig(
            latent_dim=1, j_init=1, estep="quadrature", max_iters=25,
            tol=0.0, seed=1, grid_points=48))
        trace = np.array(trace)
        rel = np.diff(trace) / np.abs(trace[:-1])
        assert rel.min() >= -1e-8

    def test_two_dim_quadrature_estep_trace_monotone(self):
        # the grid spans (z_i, lambda) only: 32**3 nodes at d=2, J=1
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.1,
                            noise_std=0.05, pair_count=3, seed=3,
                            height=4, width=4)
        data, _ = generate_image_pairs(spec, embedding="linear")
        _, trace = fit(data, PpcaConfig(
            latent_dim=2, j_init=1, estep="quadrature", max_iters=4,
            tol=0.0, seed=1, estimate_lambda=True, grid_points=32))
        trace = np.array(trace)
        assert trace.size == 4
        rel = np.diff(trace) / np.abs(trace[:-1])
        assert rel.min() >= -1e-8

    def test_degenerate_dynamics_reduction_matches_plain_ppca(self):
        # frozen coefficients and a flat transition decouple the frames
        # into per-frame observation posteriors, so the joint fit's
        # W / sigma^2 trajectory reduces to plain PPCA EM on the pooled
        # frames (exact up to O(sigma^2) per iteration)
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=1e-9,
                            noise_std=1e-4, pair_count=80, seed=27,
                            height=3, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        iters = 7
        model, _ = fit(data, PpcaConfig(
            latent_dim=2, freeze_coefficients=True,
            init_omega_scale=1e8, max_iters=iters, tol=0.0, seed=0))
        mu = m_step_mu(data)
        w0, s0 = init_loading(data, 2, mu)
        frames = np.vstack([data.x_i, data.x_next]) - mu
        w_ref, s_ref = reference_ppca_em(frames, w0, s0, iters)
        assert np.abs(model.loading - w_ref).max() < 1e-6
        assert abs(model.noise_var - s_ref) < 1e-6 * s_ref

    def test_thread_count_does_not_change_the_fit(self):
        # each pair runs the fixed-point sweeps it would run alone, so the
        # split into thread blocks cannot move the result
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.02, pair_count=120, seed=5,
                            height=3, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        loadings = [fit(data, PpcaConfig(latent_dim=2, j_init=1, max_iters=10,
                                         seed=0, estimate_lambda=True,
                                         threads=threads))[0].loading
                    for threads in (1, 2, 3)]
        assert all(np.array_equal(loadings[0], w) for w in loadings[1:])

    def test_image_rotation_recovery(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.01, pair_count=1000, seed=28,
                            height=4, width=4)
        data, truth = generate_image_pairs(spec, embedding="linear")
        model, _ = fit(data, PpcaConfig(latent_dim=2, j_init=1,
                                        max_iters=150, seed=2,
                                        estimate_lambda=True))
        angle = recovered_pixel_generator_angle(model, truth)
        assert angle < 5e-2


def subspace_angle_loading(w_est, w_true):
    """Largest principal angle between loading column spans."""
    qa, _ = np.linalg.qr(w_est)
    qb, _ = np.linalg.qr(w_true)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), 0.0, 1.0)))


def recovered_pixel_generator_angle(model, truth):
    """Compare generators after mapping the fitted latent basis into the
    ground-truth latent coordinates through the loadings."""
    # map fitted latent generators G to the truth's latent coordinates:
    # z_true = (W_true^T W_est) z_est when both loadings span the same plane
    t = truth.loading.T @ model.loading
    t_inv = np.linalg.inv(t)
    mapped = np.stack([t @ g @ t_inv for g in model.dynamics.basis.generators])
    return subspace_angle(GeneratorBasis(mapped), truth.basis)


def test_monte_carlo_e_step_factors_r_once_not_per_pair(monkeypatch):
    # R = sigma^2 I + W Omega W^T belongs to the model, not to each pair
    model, x_i, x_n = tiny_joint_instance(11)
    shapes, factor = [], ppca.spd_cholesky

    def counted_factor(m):
        shapes.append(np.shape(m))
        return factor(m)

    monkeypatch.setattr(ppca, "spd_cholesky", counted_factor)
    _monte_carlo_e_step(model, np.stack([[x_i] * 3, [x_n] * 3]),
                        PpcaConfig(mc_samples=2000, seed=3),
                        [(k,) for k in range(3)])
    assert shapes.count((model.data_dim, model.data_dim)) == 1


@pytest.mark.parametrize("block", ["z_i", "z_next", "lambda"])
def test_latent_moments_psd_validation(block):
    # one valid pair, then one whose named block is negative definite
    good, neg = np.ones((2, 1, 1)), np.array([[[1.0]], [[-1.0]]])
    bad = dict(
        ez=np.zeros((2, 2, 1)),
        ezz=np.stack([neg if block == "z_i" else good,
                      neg if block == "z_next" else good]),
        elam=np.zeros((2, 1)), elamlam=neg if block == "lambda" else good,
        transition=TransitionStats(2, np.ones((1, 1)), np.zeros((1, 1)),
                                   np.ones((1, 1)), np.ones((1, 1))))
    with pytest.raises(NumericError, match=f"^{block} moment block"):
        LatentMoments(**bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["loading", "data_mean", "noise_var"])
def test_model_rejects_non_finite_parameters(field, bad):
    values = dict(loading=np.ones((3, 1)), data_mean=np.zeros(3), noise_var=1.0)
    broken = np.array(values[field], dtype=float)
    broken.flat[-1] = bad
    values[field] = broken
    dyn = DynamicsModel(GeneratorBasis(np.ones((1, 1, 1))), np.eye(1), np.eye(1))
    with pytest.raises(NumericError, match="finite"):
        PpcaModel(**values, dynamics=dyn)


@pytest.mark.parametrize("estep", ["quadrature", "monte_carlo"])
def test_frozen_coefficients_need_the_fixed_point_estep(estep):
    # only the fixed-point E-step can pin the coefficients at zero
    x_i, x_n = (np.stack([tiny_joint_instance(40 + k)[frame]
                          for k in range(3)]) for frame in (1, 2))
    data = ImagePairDataset(x_i, x_n, 1, 3)
    with pytest.raises(ValueError, match="freeze_coefficients"):
        fit(data, PpcaConfig(latent_dim=1, estep=estep,
                             freeze_coefficients=True, max_iters=1))


# SHA-256 of a tiny fixed-point fit's parameters, dynamics and trace,
# recorded when the sweep put the pair axis last and the Kronecker pair
# sums became one product over the pairs; any drift of the sweep's bits
# changes it.  Three
# threads split the 13 pairs into blocks of 4, 4 and 5.
@pytest.mark.parametrize("threads", [1, 3])
def test_tiny_fit_matches_pinned_digest(threads):
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=13, seed=21,
                        height=2, width=3)
    data, _ = generate_image_pairs(spec, embedding="linear")
    model, trace = fit(data, PpcaConfig(
        latent_dim=3, j_init=2, max_iters=4, tol=0.0, seed=2 ** 64 - 3,
        estimate_lambda=True, threads=threads))
    dyn = model.dynamics
    h = hashlib.sha256()
    for a in [model.loading, model.data_mean, np.array([model.noise_var]),
              dyn.basis.generators, dyn.trans_cov, dyn.coeff_prior_cov,
              np.array(trace)]:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == \
        "8d0dda0a88f241922c2ddb3c6a7c2769185663d74d96f39cea7d68cdea653df5"


# SHA-256 of a 300-pair fixed-point fit, recorded while every sweep still
# re-gathered the live pairs; pairs retire at two or three distinct sweeps
# of each of its E-steps.  Three threads split the pairs into blocks of
# 100.
@pytest.mark.parametrize("threads", [1, 3])
def test_retiring_fit_matches_pinned_digest(threads):
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=300, seed=31,
                        height=3, width=3)
    data, _ = generate_image_pairs(spec, embedding="linear")
    model, trace = fit(data, PpcaConfig(
        latent_dim=2, j_init=1, max_iters=4, tol=0.0, seed=0,
        estimate_lambda=True, threads=threads))
    dyn = model.dynamics
    h = hashlib.sha256()
    for a in [model.loading, model.data_mean, np.array([model.noise_var]),
              dyn.basis.generators, dyn.trans_cov, dyn.coeff_prior_cov,
              np.array(trace)]:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert len(trace) == 4 and h.hexdigest() == \
        "ec1e992c48f16e00748fcda6a6a6ef10bb63ba68abc6cd638f9512a6ebba7d76"


def test_init_loading_is_deterministic_and_scaled():
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=100, seed=29,
                        height=3, width=3)
    data, _ = generate_image_pairs(spec, embedding="linear")
    mu = m_step_mu(data)
    w1, s1 = init_loading(data, 2, mu)
    w2, s2 = init_loading(data, 2, mu)
    assert np.array_equal(w1, w2) and s1 == s2
    assert s1 > 0
