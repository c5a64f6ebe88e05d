"""Acceptance gate: every shipped criterion, at its stated tolerance.

One test per criterion; each prints a ``[PASS] criterion N`` line once
its assertions hold (run with ``pytest -s`` to see the lines stream).
"""
import time

import numpy as np
import pytest

from conftest import tiny_joint_instance
from lieflow import rng
from lieflow.cli import main as cli_main
from lieflow.dynamics import (
    DynamicsModel,
    EmConfig,
    PairDataset,
    fit as fit_dynamics,
)
from lieflow.gaussian import spd_cholesky
from lieflow.liealg import GeneratorBasis, assemble_A
from lieflow.npca import (
    NpcaConfig,
    NpcaModel,
    _objective_with_grads,
    decode,
    encode,
    init_networks,
    named_parameters,
    plugin_coefficients,
    reparam_sample,
)
from lieflow.oracles import GridSpec, grid_posterior
from lieflow.ppca import (
    PpcaConfig,
    fit as fit_ppca,
    posterior_z_given_x,
)
from lieflow.synth import (
    SequenceSpec,
    generate_image_pairs,
    generate_latent_pairs,
    subspace_angle,
)
from lieflow.tensorfile import read_tensors, write_tensors
from reference import (
    Gaussian,
    LinearGaussianMap,
    condition_partitioned,
    e_step_joint,
    e_step_lambda,
    flat_parameters,
    grid_cube,
    grid_expect,
    joint,
    log_density_batch,
    marginal,
    posterior,
    quadrature_moments,
    unflatten,
)


def report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}", flush=True)


def random_spd(seed, path, n):
    m = rng.normal_matrix(seed, path, (n, n))
    return m @ m.T + n * np.eye(n)


def gaussian_grid(dist: Gaussian, points=48, sigmas=8.0) -> GridSpec:
    half = sigmas * np.sqrt(np.diag(dist.cov))
    return GridSpec(dist.mean - half, dist.mean + half,
                    np.full(dist.dim, points))


def grid_mean_cov(log_density, grid):
    _, mean, second, _ = quadrature_moments(log_density, grid)
    return mean, second - np.outer(mean, mean)


def rotated_grid_mean_cov(center, ref_cov, log_density, points=48,
                          sigmas=8.0):
    """Grid moments with the box aligned to the reference eigenvectors,
    so strongly correlated densities stay resolved.  The rotation is
    volume-preserving, so the normalized moments are unaffected; the
    boundary-mass check still guards coverage."""
    eigvals, eigvecs = np.linalg.eigh(ref_cov)
    half = sigmas * np.sqrt(np.maximum(eigvals, 1e-300))
    grid = GridSpec(-half, half, np.full(half.size, points))
    post = grid_posterior(lambda u: log_density(center + u @ eigvecs.T), grid)
    nodes = center + post.nodes @ eigvecs.T
    mean = grid_expect(post, nodes)
    second = (nodes * post.probs[:, None]).T @ nodes
    return mean, second - np.outer(mean, mean)


def test_criterion_1_gaussian_algebra_vs_quadrature():
    start = time.monotonic()
    for k in range(50):
        n = 1 + k % 2
        m = 1 + (k // 2) % 2
        prior = Gaussian(rng.normals(300 + k, (0,), n),
                         random_spd(300 + k, (1,), n))
        lin = LinearGaussianMap(rng.normal_matrix(300 + k, (2,), (m, n)),
                                rng.normals(300 + k, (3,), m),
                                random_spd(300 + k, (4,), m))
        y = marginal(prior, lin).mean + 0.3 * rng.normals(300 + k, (5,), m)

        # joint + marginal from one (n+m)-dim grid
        joint_dist = joint(prior, lin)
        jmean, jcov = rotated_grid_mean_cov(
            joint_dist.mean, joint_dist.cov,
            lambda p: log_density_batch(joint_dist, p))
        assert np.abs(jmean - joint_dist.mean).max() < 1e-6
        assert np.abs(jcov - joint_dist.cov).max() < 1e-6
        marg = marginal(prior, lin)
        assert np.abs(jmean[n:] - marg.mean).max() < 1e-6
        assert np.abs(jcov[n:, n:] - marg.cov).max() < 1e-6

        # posterior against grid Bayes over the prior variable
        post = posterior(prior, lin, y)
        like = Gaussian(y - lin.offset, lin.noise_cov)
        pmean, pcov = rotated_grid_mean_cov(
            post.mean, post.cov,
            lambda p: (log_density_batch(prior, p)
                       + log_density_batch(like, p @ lin.weight.T)))
        assert np.abs(pmean - post.mean).max() < 1e-6
        assert np.abs(pcov - post.cov).max() < 1e-6

        # conditional of the joint on the observed block
        cond = condition_partitioned(joint_dist, np.arange(n, n + m), y)

        def log_slice(points):
            full = np.empty((points.shape[0], n + m))
            full[:, :n] = points
            full[:, n:] = y
            return log_density_batch(joint_dist, full)

        cmean, ccov = rotated_grid_mean_cov(cond.mean, cond.cov, log_slice)
        assert np.abs(cmean - cond.mean).max() < 1e-6
        assert np.abs(ccov - cond.cov).max() < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"gaussian algebra matches quadrature to 1e-6 on 50 instances "
              f"({elapsed:.1f}s < 60s)")


def test_criterion_2_lambda_posterior_exactness():
    start = time.monotonic()
    for k in range(20):
        d = 1 + k % 3
        j = 1 + k % 2
        gens = rng.normal_matrix(400 + k, (0,), (j, d, d))
        omega = 0.5 * random_spd(400 + k, (1,), d) / d
        lam_cov = 0.3 * random_spd(400 + k, (2,), j) / j
        model = DynamicsModel(GeneratorBasis(gens), omega, lam_cov)
        z_i = rng.normals(400 + k, (3,), d)
        z_n = z_i + 0.3 * rng.normals(400 + k, (4,), d)
        post = e_step_lambda(model, z_i, z_n)

        a = assemble_A(model.basis, z_i)
        prior = Gaussian(np.zeros(j), lam_cov)
        resid = Gaussian(z_n - z_i, omega)
        mean, cov = grid_mean_cov(
            lambda lams: (log_density_batch(prior, lams)
                          + log_density_batch(resid, lams @ a.T)),
            gaussian_grid(Gaussian(post.mean, post.cov), points=96))
        assert np.abs(mean - post.mean).max() < 1e-6
        assert np.abs(cov - post.cov).max() < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, f"coefficient posterior matches quadrature to 1e-6 on 20 "
              f"instances ({elapsed:.1f}s < 120s)")


def test_criterion_3_em_monotonicity():
    specs = [
        SequenceSpec(group_kind="rotation2d", latent_dim=2, lambda_scale=0.05,
                     noise_std=1e-2, pair_count=200, seed=101),
        SequenceSpec(group_kind="latent_random", latent_dim=3,
                     generator_count=2, lambda_scale=0.05, noise_std=1e-2,
                     pair_count=200, seed=102),
        SequenceSpec(group_kind="contrast", latent_dim=2, lambda_scale=0.05,
                     noise_std=1e-2, pair_count=200, seed=103),
    ]
    worst = np.inf
    for spec in specs:
        data, _ = generate_latent_pairs(spec)
        _, trace = fit_dynamics(data, EmConfig(
            j_init=spec.generator_count, max_iters=200, tol=0.0,
            orthogonalize=False, seed=spec.seed))
        trace = np.array(trace)
        assert len(trace) == 200
        rel = np.diff(trace) / np.abs(trace[:-1])
        worst = min(worst, rel.min())
        assert rel.min() >= -1e-8
    report(3, f"objective trace non-decreasing over 200 iterations on 3 "
              f"datasets (min relative step {worst:+.2e})")


def test_criterion_4_generator_recovery():
    start = time.monotonic()
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=1e-3, pair_count=500, seed=7)
    data, truth = generate_latent_pairs(spec)
    model, trace = fit_dynamics(data, EmConfig(j_init=1, max_iters=500,
                                               seed=1))
    elapsed = time.monotonic() - start
    angle = subspace_angle(model.basis, truth.basis)
    assert len(trace) <= 500
    assert angle < 1e-2
    assert elapsed < 30.0
    report(4, f"rotation generator recovered to {angle:.2e} rad "
              f"({elapsed:.1f}s < 30s)")


def test_criterion_5_ppca_reduction():
    noise = 0.05
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=1e-12,
                        noise_std=noise, pair_count=2000, seed=50,
                        height=4, width=4)
    data, _ = generate_image_pairs(spec, embedding="linear")
    model, _ = fit_ppca(data, PpcaConfig(
        latent_dim=2, freeze_coefficients=True,
        init_omega_scale=1e-6, max_iters=100, seed=0))

    stacked = np.vstack([data.x_i, data.x_next])
    stacked = stacked - stacked.mean(axis=0)
    _, _, vt = np.linalg.svd(stacked, full_matrices=False)
    top = vt[:2].T
    qa, _ = np.linalg.qr(model.loading)
    sv = np.linalg.svd(qa.T @ top, compute_uv=False)
    angle = float(np.arccos(np.clip(sv.min(), 0.0, 1.0)))
    assert angle < 1e-2
    rel_sigma = abs(model.noise_var - noise ** 2) / noise ** 2
    assert rel_sigma < 0.10
    report(5, f"frozen-coefficient fit recovers the principal subspace "
              f"({angle:.2e} rad) and noise within {100 * rel_sigma:.1f}%")


def _snis_reference(model, x_i, x_n, samples, seed, stream):
    """Re-draw the module's importance sampler and return per-sample
    values needed for standard errors (same streams, same weights)."""
    from lieflow.ppca import _TAG_MC_LAM, _TAG_MC_Z
    from scipy.linalg import solve_triangular

    d, j = model.latent_dim, model.dynamics.coeff_count
    w = model.loading
    sig2 = model.noise_var
    prior_mean, prior_cov = posterior_z_given_x(model, x_i)
    zi = prior_mean + rng.normal_matrix(
        seed, (_TAG_MC_Z, *stream), (samples, d)) @ spd_cholesky(prior_cov).T
    lam = rng.normal_matrix(seed, (_TAG_MC_LAM, *stream), (samples, j)) \
        @ spd_cholesky(model.dynamics.coeff_prior_cov).T
    gens = model.dynamics.basis.generators
    drift = zi + np.einsum("jab,mb,mj->ma", gens, zi, lam)
    resid_cov = sig2 * np.eye(model.data_dim) \
        + w @ model.dynamics.trans_cov @ w.T
    chol = spd_cholesky(resid_cov)
    resid = (x_n - model.data_mean)[None, :] - drift @ w.T
    white = solve_triangular(chol, resid.T, lower=True)
    log_w = -0.5 * np.sum(white * white, axis=0)
    probs = np.exp(log_w - log_w.max())
    probs /= probs.sum()
    return zi, lam, probs


def _snis_se(probs, values, estimate):
    """Standard error of a self-normalized estimate, elementwise."""
    centered = values - estimate
    return np.sqrt(np.einsum("m,m...->...", probs ** 2, centered ** 2))


def test_criterion_6_joint_estep_cross_validation():
    samples = 1_000_000
    for k in range(10):
        model, x_i, x_n = tiny_joint_instance(600 + k)
        settings = dict(mc_samples=samples, grid_points=72, seed=600 + k)
        quad = e_step_joint(model, x_i, x_n, method="quadrature", **settings)
        fp = e_step_joint(model, x_i, x_n, method="fixed_point", **settings)
        mc = e_step_joint(model, x_i, x_n, method="monte_carlo", **settings)

        for field in ("ez", "elam", "ezz", "elamlam"):
            gap = np.abs(getattr(fp, field) - getattr(quad, field)).max()
            assert gap < 1e-3, (field, gap)
        # the transition statistics of the one pair
        for field in ("dz_dz", "dz_zlam", "zz_lamlam"):
            gap = np.abs(getattr(fp.transition, field)
                         - getattr(quad.transition, field)).max()
            assert gap < 1e-3, (field, gap)

        zi, lam, probs = _snis_reference(model, x_i, x_n, samples,
                                         600 + k, ())
        checks = {
            "ez": zi[:, 0], "elam": lam[:, 0],
            "ezz": zi[:, 0] ** 2, "elamlam": lam[:, 0] ** 2,
        }
        for field, values in checks.items():
            est = float(np.atleast_1d(getattr(mc, field)).ravel()[0])
            truth = float(np.atleast_1d(getattr(quad, field)).ravel()[0])
            se = float(_snis_se(probs, values, est)) + 1e-7
            assert abs(est - truth) < 3 * se, (field, est, truth, se)
    report(6, "fixed-point within 1e-3 and monte-carlo within 3 SE of "
              "quadrature on 10 instances")


def test_criterion_7_exact_em_monotonicity():
    x_is = np.stack([tiny_joint_instance(520 + k)[1] for k in range(6)])
    x_ns = np.stack([tiny_joint_instance(520 + k)[2] for k in range(6)])
    data = PairDataset(x_is, x_ns)
    # with the coefficient prior carried through the basis change, the
    # orthogonalization step is an exact reparameterization and exact EM
    # keeps the evidence non-decreasing
    _, trace = fit_ppca(data, PpcaConfig(
        latent_dim=1, j_init=1, estep="quadrature", max_iters=25, tol=0.0,
        seed=1, estimate_lambda=True, grid_points=48))
    trace = np.array(trace)
    rel = np.diff(trace) / np.abs(trace[:-1])
    assert rel.min() >= -1e-8
    report(7, f"quadrature-E-step trace non-decreasing "
              f"(min relative step {rel.min():+.2e})")


def test_criterion_8_joint_recovery():
    start = time.monotonic()
    noise = 0.01
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=noise, pair_count=1000, seed=28,
                        height=4, width=4)
    data, truth = generate_image_pairs(spec, embedding="linear")
    model, _ = fit_ppca(data, PpcaConfig(latent_dim=2, j_init=1,
                                         max_iters=300, seed=2,
                                         estimate_lambda=True))
    t = truth.loading.T @ model.loading
    t_inv = np.linalg.inv(t)
    mapped = np.stack([t @ g @ t_inv for g in model.dynamics.basis.generators])
    angle = subspace_angle(GeneratorBasis(mapped), truth.basis)
    means, _ = posterior_z_given_x(model, data.x_i)
    recon = means @ model.loading.T + model.data_mean
    mse = float(np.mean((recon - data.x_i) ** 2))
    elapsed = time.monotonic() - start
    assert angle < 5e-2
    assert mse < 2 * noise ** 2
    assert elapsed < 300.0
    report(8, f"joint fit: span angle {angle:.2e} rad, reconstruction mse "
              f"{mse:.2e} < {2 * noise ** 2:.0e} ({elapsed:.1f}s < 300s)")


def test_criterion_9_variational_gradients():
    h = 1e-4
    for seed in range(5):
        data_dim = 8 + 2 * (seed % 3)   # up to 12
        model_cfg = NpcaConfig(latent_dim=2, hidden_sizes=(8,), seed=seed,
                               obs_noise_var=0.05, j_init=1)
        encoder, decoder = init_networks(data_dim, model_cfg)
        from lieflow.dynamics import init_model
        model = NpcaModel(encoder, decoder, 0.05, init_model(2, 1, seed))
        x_i = rng.normals(900 + seed, (0,), data_dim)
        x_n = rng.normals(900 + seed, (1,), data_dim)
        noise_i = rng.normals(900 + seed, (2,), 2)
        noise_n = rng.normals(900 + seed, (3,), 2)
        mean_i, var_i = encode(model, x_i)
        mean_n, var_n = encode(model, x_n)
        lam = plugin_coefficients(
            model, reparam_sample(mean_i, var_i, noise_i)[None],
            reparam_sample(mean_n, var_n, noise_n)[None])

        def objective(theta):
            return _objective_with_grads(unflatten(model, theta),
                                         np.stack([x_i, x_n])[:, None],
                                         np.stack([noise_i, noise_n])[:, None],
                                         lam)

        theta = flat_parameters(model)
        _, grad = objective(theta)
        grad = np.concatenate([g.ravel() for g in grad])
        fd = np.zeros_like(theta)
        for k in range(theta.size):
            bump = theta.copy()
            bump[k] += h
            hi, _ = objective(bump)
            bump[k] -= 2 * h
            lo, _ = objective(bump)
            fd[k] = (hi - lo) / (2 * h)
        end = 0
        for name, arr in named_parameters(model):
            part = slice(end, end + arr.size)
            end += arr.size
            denom = max(np.abs(fd[part]).max(), np.abs(grad[part]).max(), 1e-8)
            rel = np.abs(grad[part] - fd[part]).max() / denom
            assert rel < 1e-5, (seed, name, rel)
    report(9, "all encoder/decoder gradients match central differences "
              "(relative error < 1e-5, 5 seeds)")


def _npca_bound_instance(seed, trained=False):
    """d=1, D=2 model plus a pair; optionally a few training epochs so the
    bound is exercised away from the random initialization."""
    big_d, d = 2, 1
    cfg = NpcaConfig(latent_dim=d, hidden_sizes=(2,), seed=seed,
                     obs_noise_var=0.1 ** 2, j_init=1, epochs=30,
                     batch_size=8, step_size=1e-3)
    encoder, decoder = init_networks(big_d, cfg)
    dyn = DynamicsModel(GeneratorBasis(np.array([[[1.0]]])),
                        np.array([[0.05 ** 2]]), np.array([[0.1 ** 2]]))
    model = NpcaModel(encoder, decoder, cfg.obs_noise_var, dyn)
    x_i = rng.normals(seed, (7,), big_d)
    x_n = x_i + 0.1 * rng.normals(seed, (8,), big_d)
    if trained:
        from lieflow.npca import fit as fit_npca

        spec_x = np.stack([x_i + 0.05 * rng.normals(seed, (9, k), big_d)
                           for k in range(16)])
        spec_y = np.stack([x_n + 0.05 * rng.normals(seed, (10, k), big_d)
                           for k in range(16)])
        data = PairDataset(spec_x, spec_y)
        trained_model, _ = fit_npca(data, cfg)
        model = NpcaModel(trained_model.encoder, trained_model.decoder,
                          cfg.obs_noise_var, dyn)
    return model, x_i, x_n


def _npca_log_marginal(model, x_i, x_n):
    """Exact pair evidence by 3-dim quadrature over (z_i, lambda, z_n)."""
    omega = float(model.dynamics.trans_cov[0, 0])
    lam_var = float(model.dynamics.coeff_prior_cov[0, 0])
    sig2 = model.obs_noise_var
    big_d = model.data_dim

    def log_joint(nodes):
        zi = nodes[:, 0:1]
        lam = nodes[:, 1]
        zn = nodes[:, 2:3]
        out_i = decode(model, zi)
        out_n = decode(model, zn)
        prior = -0.5 * (zi[:, 0] ** 2 + np.log(2 * np.pi))
        lam_p = -0.5 * (lam ** 2 / lam_var + np.log(2 * np.pi * lam_var))
        drift = zi[:, 0] * (1.0 + lam)
        trans = -0.5 * ((zn[:, 0] - drift) ** 2 / omega
                        + np.log(2 * np.pi * omega))
        ri = x_i - out_i
        rn = x_n - out_n
        recon = (-0.5 * (np.sum(ri ** 2, 1) + np.sum(rn ** 2, 1)) / sig2
                 - big_d * np.log(2 * np.pi * sig2))
        return prior + lam_p + trans + recon

    post = grid_posterior(log_joint, grid_cube(-9.0, 9.0, 128, 3))
    return post.log_norm


def _npca_elbo_quadrature(model, x_i, x_n):
    """The objective's expectation evaluated exactly over the encoder
    Gaussians, with the coefficients marginalized in closed form."""
    omega = float(model.dynamics.trans_cov[0, 0])
    lam_var = float(model.dynamics.coeff_prior_cov[0, 0])
    sig2 = model.obs_noise_var
    big_d = model.data_dim
    (mu_i,), (v_i,) = encode(model, x_i)
    (mu_n,), (v_n,) = encode(model, x_n)

    z = np.linspace(-12.0, 12.0, 2048)
    h = z[1] - z[0]

    def q(zs, m, v):
        return np.exp(-0.5 * (zs - m) ** 2 / v) / np.sqrt(2 * np.pi * v)

    w_i, w_n = q(z, mu_i, v_i), q(z, mu_n, v_n)
    out = decode(model, z[:, None])
    rec_i = -0.5 * (np.sum((x_i - out) ** 2, 1) / sig2
                    + big_d * np.log(2 * np.pi * sig2))
    rec_n = -0.5 * (np.sum((x_n - out) ** 2, 1) / sig2
                    + big_d * np.log(2 * np.pi * sig2))
    e_recon = h * float(w_i @ rec_i) + h * float(w_n @ rec_n)

    zi_grid, zn_grid = np.meshgrid(z, z, indexing="ij")
    var_t = omega + zi_grid ** 2 * lam_var
    log_t = -0.5 * ((zn_grid - zi_grid) ** 2 / var_t
                    + np.log(2 * np.pi * var_t))
    e_trans = h * h * float(w_i @ log_t @ w_n)

    kl = lambda m, v: 0.5 * (v + m ** 2 - 1.0 - np.log(v))
    return e_recon + e_trans - kl(mu_i, v_i) - kl(mu_n, v_n)


def test_criterion_10_elbo_is_a_lower_bound():
    worst_gap = np.inf
    for seed in range(10):
        model, x_i, x_n = _npca_bound_instance(seed, trained=(seed < 3))
        elbo = _npca_elbo_quadrature(model, x_i, x_n)
        log_p = _npca_log_marginal(model, x_i, x_n)
        assert elbo <= log_p + 1e-6, (seed, elbo, log_p)
        worst_gap = min(worst_gap, log_p - elbo)
    report(10, f"ELBO below the quadrature evidence on 10 models "
               f"(tightest gap {worst_gap:+.3e})")


def test_criterion_11_extrapolation_doubles_quarter_turn(tmp_path):
    data = tmp_path / "pair.lf"
    z0 = np.array([1.0, 0.0])
    z1 = np.array([0.0, 1.0])     # exact quarter turn of z0
    write_tensors(data, {"z_i": z0[None], "z_next": z1[None]})
    ck = tmp_path / "rotation.lf"
    write_tensors(ck, {
        "G": np.array([[[0.0, -1.0], [1.0, 0.0]]]) / np.sqrt(2.0),
        "Omega": 1e-9 * np.eye(2), "Lambda": 4.0 * np.eye(1),
        "estimator": np.float64(0)})
    out = tmp_path / "traj.lf"
    code = cli_main(["roll", "--checkpoint", str(ck), "--data", str(data),
                     "--mode", "extrapolate", "--t-max", "2", "--steps", "5",
                     "--out", str(out)])
    assert code == 0
    traj = read_tensors(out)
    half_turn = np.array([-1.0, 0.0])   # closed-form rotation by pi
    err = np.abs(traj["z_traj"][-1] - half_turn).max()
    assert err < 1e-3
    report(11, f"quarter-turn pair extrapolates to the half turn "
               f"(latent error {err:.2e})")


def test_criterion_12_determinism_and_format(tmp_path):
    # datasets
    flags = ["generate", "--kind", "rotation2d", "--n", "80", "--seed", "9",
             "--noise-std", "1e-3"]
    a, b = tmp_path / "a.lf", tmp_path / "b.lf"
    assert cli_main(flags + ["--out", str(a)]) == 0
    assert cli_main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # checkpoints and traces at --threads 1
    fit_flags = ["fit", "--estimator", "dynamics", "--data", str(a),
                 "--max-iters", "60", "--threads", "1"]
    ck1, ck2 = tmp_path / "ck1.lf", tmp_path / "ck2.lf"
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert cli_main(fit_flags + ["--out", str(ck1), "--trace-out", str(t1)]) == 0
    assert cli_main(fit_flags + ["--out", str(ck2), "--trace-out", str(t2)]) == 0
    assert ck1.read_bytes() == ck2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()

    # tensor files round-trip bit-exactly
    arrays = {"m": rng.normal_matrix(1, (0,), (6, 5)),
              "s": np.float64(-0.25)}
    path = tmp_path / "roundtrip.lf"
    write_tensors(path, arrays)
    back = read_tensors(path)
    for name in arrays:
        assert np.asarray(arrays[name]).tobytes() == back[name].tobytes()
        assert np.asarray(arrays[name]).shape == back[name].shape
    report(12, "seeded runs are byte-identical and tensor files round-trip "
               "bit-exactly")
