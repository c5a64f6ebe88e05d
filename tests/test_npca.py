import functools
import hashlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflow import dynamics, gaussian, npca, ppca, rng
from lieflow.cli import _checkpoint_npca, _dynamics_arrays, _npca_arrays
from lieflow.dynamics import DynamicsModel, init_model, m_step_dynamics
from lieflow.gaussian import NumericError
from lieflow.liealg import GeneratorBasis
from lieflow.npca import (
    Mlp,
    NpcaConfig,
    NpcaModel,
    _apply_gradients,
    _objective_with_grads,
    decode,
    encode,
    encoded_moments,
    fit,
    init_networks,
    linear_warm_start,
    named_parameters,
    plugin_coefficients,
    reparam_sample,
)
from lieflow.synth import ImagePairDataset, SequenceSpec, generate_image_pairs, subspace_angle
from lieflow.tensorfile import read_tensors, write_tensors
from reference import flat_parameters, grid_cube, unflatten


def small_model(seed=0, data_dim=4, latent_dim=2, hidden=(5,), j=1,
                obs_noise=0.04):
    cfg = NpcaConfig(latent_dim=latent_dim, hidden_sizes=hidden, seed=seed,
                     obs_noise_var=obs_noise, j_init=j)
    encoder, decoder = init_networks(data_dim, cfg)
    dyn = init_model(latent_dim, j, seed)
    return NpcaModel(encoder, decoder, obs_noise, dyn)


class TestNetworks:
    def test_zero_weight_encoder_is_standard_normal(self):
        model = small_model(1)
        enc = model.encoder
        zeroed = Mlp([np.zeros_like(w) for w in enc.weights],
                     [np.zeros_like(b) for b in enc.biases])
        model = NpcaModel(zeroed, model.decoder, model.obs_noise_var,
                          model.dynamics)
        mean, var = encode(model, np.ones(4))
        assert np.allclose(mean, 0.0)
        assert np.allclose(var, 1.0)

    def test_deterministic_limit(self):
        mean = np.array([0.3, -0.2])
        var = np.zeros(2)
        noise = rng.normals(2, (), 2)
        assert np.allclose(reparam_sample(mean, var, noise), mean)

    def test_zero_weight_decoder_returns_bias(self):
        model = small_model(3)
        dec = Mlp([np.zeros_like(w) for w in model.decoder.weights],
                  [np.zeros_like(b) for b in model.decoder.biases])
        dec.biases[-1] = np.arange(4.0)
        model = NpcaModel(model.encoder, dec, model.obs_noise_var,
                          model.dynamics)
        assert np.allclose(decode(model, np.ones(2)), np.arange(4.0))

    def test_linear_decoder_reproduces_affine_map(self):
        w = rng.normal_matrix(4, (0,), (4, 2))
        b = rng.normals(4, (1,), 4)
        dec = Mlp([w], [b])
        model = small_model(4)
        model = NpcaModel(model.encoder, dec, model.obs_noise_var,
                          model.dynamics)
        z = rng.normals(4, (2,), 2)
        assert np.allclose(decode(model, z), w @ z + b, atol=1e-12)

    def test_forward_matches_hand_rolled(self):
        model = small_model(5)
        x = rng.normals(5, (9,), 4)
        p = dict(named_parameters(model))
        h = x
        for k in range(len(model.encoder.weights) - 1):
            h = np.tanh(p[f"enc_trunk_w{k}"] @ h + p[f"enc_trunk_b{k}"])
        mean_ref = p["enc_mean_w"] @ h + p["enc_mean_b"]
        var_ref = np.exp(p["enc_logvar_w"] @ h + p["enc_logvar_b"])
        mean, var = encode(model, x)
        assert np.allclose(mean, mean_ref, atol=1e-12)
        assert np.allclose(var, var_ref, atol=1e-12)

        z = rng.normals(5, (10,), 2)
        g = z
        for k, (w, b) in enumerate(zip(model.decoder.weights,
                                       model.decoder.biases)):
            g = w @ g + b
            if k < len(model.decoder.weights) - 1:
                g = np.tanh(g)
        assert np.allclose(decode(model, z), g, atol=1e-12)

    def test_reparam_sample_moments(self):
        mean = np.array([0.5, -1.0])
        var = np.array([0.25, 4.0])
        n = 1_000_000
        noise = rng.normal_matrix(6, (0,), (n, 2))
        draws = reparam_sample(mean, var, noise)
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se_mean)
        se_var = np.sqrt(2.0 / (n - 1)) * var
        assert np.all(np.abs(draws.var(axis=0) - var) < 3 * se_var)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40),
       sizes=st.lists(st.integers(1, 8), min_size=2, max_size=4),
       seed=st.integers(0, 2 ** 16))
def test_mlp_frame_stack_matches_lone_frames_bit_for_bit(n, sizes, seed):
    # sizes: the input width, 0-2 hidden widths and the output width
    net = Mlp([rng.normal_matrix(seed, (k,), (b, a))
               for k, (a, b) in enumerate(zip(sizes[:-1], sizes[1:]))],
              [rng.normals(seed, (10 + k,), b) for k, b in enumerate(sizes[1:])])
    x = rng.normal_matrix(seed, (20,), (2, n, sizes[0]))
    grad_out = rng.normal_matrix(seed, (21,), (2, n, sizes[-1]))
    out, cache = net.forward(x)
    grad_w, grad_b, grad_x = net.backward(cache, grad_out)
    lone = []
    for f in range(2):
        out_f, cache_f = net.forward(x[f])
        assert out[f].tobytes() == out_f.tobytes()
        w_f, b_f, x_f = net.backward([c[None] for c in cache_f],
                                     grad_out[f][None])
        assert grad_x[f].tobytes() == x_f[0].tobytes()
        lone.append(w_f + b_f)
    for got, first, second in zip(grad_w + grad_b, *lone, strict=True):
        assert got.tobytes() == (first + second).tobytes()


@settings(max_examples=40, deadline=None)
@given(data_dim=st.integers(1, 6), latent_dim=st.integers(1, 3),
       hidden=st.lists(st.integers(1, 5), max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_parameter_layout_round_trips_bit_exactly(data_dim, latent_dim, hidden,
                                                  seed):
    cfg = NpcaConfig(latent_dim=latent_dim, hidden_sizes=tuple(hidden),
                     seed=seed)
    template = NpcaModel(*init_networks(data_dim, cfg), 0.01,
                         init_model(latent_dim, 1, seed))
    theta = rng.normals(seed, (99,), flat_parameters(template).size)
    model = unflatten(template, theta)
    assert flat_parameters(model).tobytes() == theta.tobytes()

    # the arrays fit writes to a checkpoint, read back as eval and roll do
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.lf")
        write_tensors(path, {**_dynamics_arrays(model.dynamics),
                             **_npca_arrays(model)})
        back = _checkpoint_npca(read_tensors(path))
    assert back.obs_noise_var == model.obs_noise_var
    for (name, a), (name_back, b) in zip(named_parameters(model),
                                         named_parameters(back), strict=True):
        assert (name_back, b.shape) == (name, a.shape)
        assert b.tobytes() == a.tobytes()


@settings(max_examples=40, deadline=None)
@given(data_dim=st.integers(1, 6), latent_dim=st.integers(1, 3),
       hidden=st.lists(st.integers(1, 5), max_size=3),
       seed=st.integers(0, 2 ** 16),
       lr=st.floats(1e-6, 1.0), scale=st.floats(1e-3, 1.0))
def test_in_place_step_equals_the_flat_vector_step(data_dim, latent_dim,
                                                   hidden, seed, lr, scale):
    cfg = NpcaConfig(latent_dim=latent_dim, hidden_sizes=tuple(hidden),
                     seed=seed)
    template = NpcaModel(*init_networks(data_dim, cfg), 0.01,
                         init_model(latent_dim, 1, seed))
    size = flat_parameters(template).size
    model = unflatten(template, rng.normals(seed, (99,), size))
    flat_grad = rng.normals(seed, (98,), size)
    grads, start = [], 0
    for _, a in named_parameters(model):
        grads.append(flat_grad[start:start + a.size].reshape(a.shape))
        start += a.size
    expected = flat_parameters(model) + lr * (scale * flat_grad)
    head = model.encoder.weights[-1]
    _apply_gradients(model, grads, lr, scale)
    assert np.array_equal(flat_parameters(model), expected)
    # the mean and log-variance rows were written through to the stacked
    # output layer the encoder runs
    p = dict(named_parameters(model))
    assert model.encoder.weights[-1] is head
    assert np.array_equal(head, np.vstack((p["enc_mean_w"],
                                           p["enc_logvar_w"])))


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_all_parameter_gradients_match_finite_differences(self, seed):
        data_dim = 4 + seed % 3
        hidden = (4 + seed % 2,)
        model = small_model(seed, data_dim=data_dim, hidden=hidden, j=1)
        x_i = rng.normals(seed, (50,), data_dim)
        x_n = rng.normals(seed, (51,), data_dim)
        noise_i = rng.normals(seed, (52,), 2)
        noise_n = rng.normals(seed, (53,), 2)
        # plug-in coefficients frozen at the base point
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
        h = 1e-4
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
            assert np.abs(grad[part] - fd[part]).max() / denom < 1e-5, name

    def test_kl_term_zero_for_standard_normal_encoding(self):
        model = small_model(7, data_dim=3, hidden=())
        zeroed = Mlp([np.zeros((4, 3))], [np.zeros(4)])
        model = NpcaModel(zeroed, model.decoder, model.obs_noise_var,
                          model.dynamics)
        x = rng.normals(7, (0,), 3)
        # with q = N(0, I) and zero noise the objective equals the plain
        # complete-data terms: kl contribution must vanish
        val_q, _ = _objective_with_grads(model, np.stack([x, x])[:, None],
                                         np.zeros((2, 1, 2)))
        out, _ = model.encoder.forward(x[None])
        m, lv = out[:, :2], out[:, 2:]
        assert np.allclose(m, 0.0) and np.allclose(lv, 0.0)
        kl = 0.5 * np.sum(np.exp(lv) + m ** 2 - 1.0 - lv)
        assert kl == pytest.approx(0.0, abs=1e-15)

    def test_analytic_kl_matches_quadrature(self):
        mean = np.array([0.4, -0.6])
        logvar = np.array([0.3, -0.8])
        var = np.exp(logvar)
        analytic = 0.5 * np.sum(var + mean ** 2 - 1.0 - logvar)

        total = 0.0
        for k in range(2):
            grid = grid_cube(-10.0, 10.0, 512, 1)

            def integrand(points, k=k):
                z = points[:, 0]
                logq = -0.5 * ((z - mean[k]) ** 2 / var[k]
                               + np.log(2 * np.pi * var[k]))
                logp = -0.5 * (z ** 2 + np.log(2 * np.pi))
                return logq, logp

            nodes, weights, _ = grid.nodes_weights()
            logq, logp = integrand(nodes)
            total += float(np.sum(weights * np.exp(logq) * (logq - logp)))
        assert abs(total - analytic) < 1e-6


class TestObjectiveStructure:
    def test_decoupled_linear_limit(self):
        # frozen coefficients and a flat transition split the objective
        # into two independent single-frame terms
        model = small_model(8, data_dim=3, hidden=(), j=1)
        dyn = DynamicsModel(GeneratorBasis(np.zeros((1, 2, 2))),
                            1e8 * np.eye(2), np.eye(1))
        model = NpcaModel(model.encoder, model.decoder, model.obs_noise_var,
                          dyn)
        x_a = rng.normals(8, (0,), 3)
        x_b = rng.normals(8, (1,), 3)
        e_i = rng.normals(8, (2,), 2)
        e_n = rng.normals(8, (3,), 2)
        lam = np.zeros((1, 1))

        val_ab, _ = _objective_with_grads(model, np.stack([x_a, x_b])[:, None],
                                          np.stack([e_i, e_n])[:, None], lam)

        def single_frame(x, eps):
            out, _ = model.encoder.forward(x[None])
            m, lv = out[:, :2], out[:, 2:]
            z = m + np.exp(0.5 * lv) * eps
            out, _ = model.decoder.forward(z)
            recon = -0.5 * (3 * np.log(2 * np.pi * model.obs_noise_var)
                            + np.sum((x - out[0]) ** 2) / model.obs_noise_var)
            kl = 0.5 * np.sum(np.exp(lv) + m ** 2 - 1.0 - lv)
            return recon - kl, z[0]

        va, z_a = single_frame(x_a, e_i)
        vb, z_b = single_frame(x_b, e_n)
        # remaining coupling is the flat transition density at these latents
        trans = -0.5 * (2 * np.log(2 * np.pi * 1e8)
                        + np.sum((z_b - z_a) ** 2) / 1e8)
        lam_term = -0.5 * np.log(2 * np.pi)
        assert val_ab == pytest.approx(va + vb + trans + lam_term,
                                                 rel=1e-12)

    def test_non_finite_objective_reports_term(self):
        model = small_model(9, data_dim=3, hidden=())
        bad_dec = Mlp([np.full((3, 2), 1e200)], [np.zeros(3)])
        model = NpcaModel(model.encoder, bad_dec, model.obs_noise_var,
                          model.dynamics)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                _objective_with_grads(model, np.ones((2, 1, 3)),
                                      np.ones((2, 1, 2)))


class TestDynamicsUpdates:
    def test_deterministic_encoder_reduces_to_fixed_representation(self):
        from lieflow.dynamics import PairDataset, e_step_all, transition_stats

        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.0, pair_count=40, seed=10)
        from lieflow.synth import generate_latent_pairs
        latent, _ = generate_latent_pairs(spec)
        # identity encoder with collapsed variance
        enc = Mlp([np.vstack((np.eye(2), np.zeros((2, 2))))],
                  [np.concatenate((np.zeros(2), np.full(2, -80.0)))])
        dec = Mlp([np.eye(2)], [np.zeros(2)])
        dyn = init_model(2, 1, 10)
        model = NpcaModel(enc, dec, 0.01, dyn)
        data = ImagePairDataset(latent.z_i, latent.z_next, 1, 2)
        basis, omega = m_step_dynamics(
            encoded_moments(model, data).transition)
        pairs = PairDataset(latent.z_i, latent.z_next)
        ref_basis, ref_omega = m_step_dynamics(
            transition_stats(pairs, *e_step_all(dyn, pairs)))
        assert np.allclose(basis.generators, ref_basis.generators, atol=1e-8)
        assert np.allclose(omega, ref_omega, atol=1e-8)

    def test_zero_coefficient_moments_give_zero_generator(self):
        model = small_model(11, data_dim=3, j=1)
        dyn = DynamicsModel(GeneratorBasis(np.zeros((1, 2, 2))),
                            np.eye(2), np.eye(1))
        model = NpcaModel(model.encoder, model.decoder, model.obs_noise_var,
                          dyn)
        x = rng.normal_matrix(11, (0,), (12, 3))
        data = ImagePairDataset(x, x + 0.01, 1, 3)
        basis, _ = m_step_dynamics(
            encoded_moments(model, data).transition)
        assert np.allclose(basis.generators, 0.0, atol=1e-12)


class TestFit:
    def test_deterministic_trace(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.05, pair_count=24, seed=12,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(6,), epochs=5,
                         batch_size=8, step_size=5e-3, seed=3)
        model_a, trace_a = fit(data, cfg)
        model_b, trace_b = fit(data, cfg)
        assert trace_a == trace_b
        for (_, pa), (_, pb) in zip(named_parameters(model_a),
                                    named_parameters(model_b)):
            assert np.array_equal(pa, pb)

    def test_linear_reconstruction_converges(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=1e-9,
                            noise_std=0.02, pair_count=60, seed=13,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(), epochs=3000,
                         batch_size=60, step_size=5e-5, seed=4,
                         obs_noise_var=0.02 ** 2)
        model, trace = fit(data, cfg)
        mean, _ = encode(model, data.x_i)
        rec = decode(model, mean)
        mse = np.mean((rec - data.x_i) ** 2)
        assert mse < 2 * 0.02 ** 2
        assert trace[-1] > trace[0]

    def test_dynamics_precisions_are_solved_only_where_a_model_is_built(
            self, monkeypatch):
        # Omega^-1 and Lambda^-1 come with each DynamicsModel, formed when
        # it is built or, once, on first read: no minibatch step,
        # coefficient posterior or update solves for them again
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.05, pair_count=20, seed=12,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        calls, building = {True: 0, False: 0}, [False]
        solve = gaussian.spd_solve

        def counted_solve(chol, b):
            calls[building[0]] += 1
            return solve(chol, b)

        def flagged(method):
            def run(model):
                building[0] = True
                try:
                    return method(model)
                finally:
                    building[0] = False
            return run

        for module in (gaussian, dynamics, ppca, npca):
            if hasattr(module, "spd_solve"):
                monkeypatch.setattr(module, "spd_solve", counted_solve)
        monkeypatch.setattr(DynamicsModel, "__post_init__",
                            flagged(DynamicsModel.__post_init__))
        for name in ("trans_prec", "coeff_prior_prec"):
            prop = functools.cached_property(
                flagged(vars(DynamicsModel)[name].func))
            prop.__set_name__(DynamicsModel, name)
            monkeypatch.setattr(DynamicsModel, name, prop)
        fit(data, NpcaConfig(latent_dim=2, hidden_sizes=(4,), j_init=2,
                             epochs=3, batch_size=4, seed=1))
        assert calls[False] == 0
        assert calls[True] > 0

    def test_warm_start_arrays_are_left_unchanged(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.05, pair_count=20, seed=19,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        init = linear_warm_start(data, 2, 1e-2)
        before = [a.copy() for net in init for a in (*net.weights, *net.biases)]
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(), epochs=2,
                         batch_size=8, step_size=1e-3, seed=7)
        fit(data, cfg, init=init)
        after = [a for net in init for a in (*net.weights, *net.biases)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after,
                                                        strict=True))

    def test_non_finite_gradient_raises(self, monkeypatch):
        # a finite objective, so only the parameter check can fire; the
        # gradient reaches no encoder tensor, so encoding stays finite too
        def finite_objective_infinite_decoder_bias(model, *args, **kwargs):
            grads = [np.zeros_like(a) for _, a in named_parameters(model)]
            grads[-1][:] = np.inf
            return 0.0, grads

        monkeypatch.setattr(npca, "_objective_with_grads",
                            finite_objective_infinite_decoder_bias)
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.05, pair_count=12, seed=20,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(4,), epochs=1,
                         batch_size=6, seed=8)
        with pytest.raises(NumericError, match="parameters"):
            fit(data, cfg)

    def test_epoch_trend_non_decreasing_on_average(self):
        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.05, pair_count=40, seed=14,
                            height=2, width=3)
        data, _ = generate_image_pairs(spec, embedding="linear")
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(6,), epochs=60,
                         batch_size=10, step_size=1e-3, seed=5,
                         obs_noise_var=1e-2)
        _, trace = fit(data, cfg)
        trace = np.array(trace)
        smooth = np.convolve(trace, np.ones(10) / 10, mode="valid")
        assert smooth[-1] >= smooth[0]
        assert trace[-1] >= trace[0]

    def test_generator_recovery_with_linear_warm_start(self):
        from lieflow.npca import linear_warm_start

        spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                            noise_std=0.01, pair_count=300, seed=15,
                            height=4, width=4)
        data, truth = generate_image_pairs(spec, embedding="linear")
        cfg = NpcaConfig(latent_dim=2, hidden_sizes=(), epochs=50,
                         batch_size=50, step_size=1e-4, seed=6,
                         obs_noise_var=1e-3, estimate_lambda=True)
        model, _ = fit(data, cfg, init=linear_warm_start(data, 2, 1e-3))
        # map fitted generators to pixel space through the linear decoder
        dec_w = model.decoder.weights[0]
        pinv = np.linalg.pinv(dec_w)
        mapped = np.stack([truth.loading.T @ dec_w @ g @ pinv @ truth.loading
                           for g in model.dynamics.basis.generators])
        angle = subspace_angle(GeneratorBasis(mapped), truth.basis)
        assert angle < 1e-1


def test_plugin_coefficients_match_dynamics_posterior():
    from reference import e_step_lambda

    model = small_model(16, data_dim=3)
    z_i = rng.normals(16, (0,), 2)
    z_n = rng.normals(16, (1,), 2)
    lam = plugin_coefficients(model, z_i[None], z_n[None])
    ref = e_step_lambda(model.dynamics, z_i, z_n)
    assert np.allclose(lam[0], ref.mean, atol=1e-12)


def test_fit_rejects_an_unknown_coefficient_mode():
    # coefficients are always posterior means; another mode is an error,
    # not a setting the fit ignores
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=16, seed=18,
                        height=2, width=3)
    data, _ = generate_image_pairs(spec, embedding="linear")
    cfg = NpcaConfig(latent_dim=2, hidden_sizes=(4,), epochs=3,
                     batch_size=8, step_size=1e-3, seed=9,
                     coeff_mode="sample")
    with pytest.raises(ValueError, match="unknown coefficient mode 'sample'"):
        fit(data, cfg)


# SHA-256 of a tiny fit's parameters, dynamics and trace, recorded when
# the Kronecker pair sums of the moment bundle became one product over
# the pairs; any drift of the npca streams or the E-step changes it.  A
# seed near 2**64, 3 latent dimensions and 3 generators give odd
# Box-Muller lengths and a ragged last minibatch.  The test ids leave the digests
# out, so a re-recorded digest keeps its test's name.
@pytest.mark.parametrize("coeff_mode, digest", [
    ("map_plugin", "890f8e14699beca4757e4246c078caba085a38ffe347474cb4bb11af4cbf88e4"),
], ids=["map_plugin"])
def test_tiny_fit_matches_pinned_digest(coeff_mode, digest):
    spec = SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.05, pair_count=13, seed=21,
                        height=2, width=3)
    data, _ = generate_image_pairs(spec, embedding="linear")
    cfg = NpcaConfig(latent_dim=3, hidden_sizes=(4,), j_init=3, epochs=3,
                     batch_size=5, step_size=1e-3, seed=2 ** 64 - 3,
                     coeff_mode=coeff_mode)
    model, trace = fit(data, cfg)
    dyn = model.dynamics
    h = hashlib.sha256()
    for a in [*(a for _, a in named_parameters(model)), dyn.basis.generators,
              dyn.trans_cov, dyn.coeff_prior_cov, np.array(trace)]:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == digest
