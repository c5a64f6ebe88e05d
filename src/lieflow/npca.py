"""Variational EM with a nonlinear encoder/decoder.

A Gaussian recognition network produces ``q(z | x)``; latents are drawn
through the reparameterization ``z = mean + std * noise``; the decoder is
a tanh MLP with linear output.  The per-pair objective combines both
frames' reconstruction log-likelihoods, the transition log-density at
plugged-in coefficients, the coefficient prior and the analytic KL of
both encodings against the standard-normal prior.  Network parameters
follow the gradient of that objective; the generators and transition
noise keep their closed-form updates from the expectation bundles of the
encoded Gaussians; the generator basis is orthogonalized each epoch.

Differentiation is hand-rolled reverse-mode over this fixed graph
(affine layers, tanh, Gaussian log-densities, KL, reparameterization),
checked against central finite differences.  The plugged-in coefficients
are treated as constants by the backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .dynamics import DynamicsModel, _e_step_block, init_model, update_step
from .gaussian import NumericError, spd_cholesky, spd_solve
from .ppca import (
    LatentMoments,
    _Blocks,
    _moments_from_blocks,
    init_loading,
    m_step_mu,
)
from .synth import ImagePairDataset

LOG_2PI = float(np.log(2.0 * np.pi))

_TAG_WEIGHTS, _TAG_NOISE, _TAG_SHUFFLE, _TAG_LAMNOISE = 0xE0, 0xE1, 0xE2, 0xE3


@dataclass
class Mlp:
    """Affine stack with tanh on hidden layers and a linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError("bias length must match weight rows")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError("network parameters must be finite")
        for prev, nxt in zip(self.weights[:-1], self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError("consecutive layer dimensions must chain")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray):
        """Batched forward pass; returns the output and the per-layer
        post-activation cache needed by the backward pass."""
        h = np.atleast_2d(x)
        cache = [h]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if k < last:
                h = np.tanh(h)
            cache.append(h)
        return h, cache

    def backward(self, cache, grad_out: np.ndarray):
        """Accumulate parameter gradients and return the input gradient."""
        grad_w = [np.zeros_like(w) for w in self.weights]
        grad_b = [np.zeros_like(b) for b in self.biases]
        g = np.atleast_2d(grad_out)
        last = len(self.weights) - 1
        for k in range(last, -1, -1):
            if k < last:
                g = g * (1.0 - cache[k + 1] ** 2)
            grad_w[k] = g.T @ cache[k]
            grad_b[k] = g.sum(axis=0)
            g = g @ self.weights[k]
        return grad_w, grad_b, g


@dataclass
class Encoder:
    """Shared tanh trunk with affine mean and log-variance heads."""

    trunk: Mlp
    mean_weight: np.ndarray
    mean_bias: np.ndarray
    logvar_weight: np.ndarray
    logvar_bias: np.ndarray

    def forward(self, x: np.ndarray):
        h, cache = self._trunk_forward(x)
        mean = h @ self.mean_weight.T + self.mean_bias
        logvar = h @ self.logvar_weight.T + self.logvar_bias
        return mean, logvar, (h, cache)

    def _trunk_forward(self, x: np.ndarray):
        h = np.atleast_2d(x)
        cache = [h]
        for w, b in zip(self.trunk.weights, self.trunk.biases):
            h = np.tanh(h @ w.T + b)
            cache.append(h)
        return h, cache

    def backward(self, cache, grad_mean: np.ndarray, grad_logvar: np.ndarray):
        h, trunk_cache = cache
        grads = {
            "mean_weight": grad_mean.T @ h,
            "mean_bias": grad_mean.sum(axis=0),
            "logvar_weight": grad_logvar.T @ h,
            "logvar_bias": grad_logvar.sum(axis=0),
        }
        g = grad_mean @ self.mean_weight + grad_logvar @ self.logvar_weight
        grad_w = [np.zeros_like(w) for w in self.trunk.weights]
        grad_b = [np.zeros_like(b) for b in self.trunk.biases]
        for k in range(len(self.trunk.weights) - 1, -1, -1):
            g = g * (1.0 - trunk_cache[k + 1] ** 2)
            grad_w[k] = g.T @ trunk_cache[k]
            grad_b[k] = g.sum(axis=0)
            g = g @ self.trunk.weights[k]
        grads["trunk_weights"] = grad_w
        grads["trunk_biases"] = grad_b
        return grads

    @property
    def latent_dim(self) -> int:
        return self.mean_weight.shape[0]


@dataclass(frozen=True)
class NpcaModel:
    encoder: Encoder
    decoder: Mlp
    obs_noise_var: float
    dynamics: DynamicsModel

    def __post_init__(self):
        if self.obs_noise_var <= 0:
            raise ValueError("observation noise variance must be positive")
        if self.encoder.latent_dim != self.dynamics.latent_dim:
            raise ValueError("encoder latent dimension must match the dynamics")
        if self.decoder.in_dim != self.encoder.latent_dim:
            raise ValueError("decoder input must match the latent dimension")

    @property
    def latent_dim(self) -> int:
        return self.encoder.latent_dim

    @property
    def data_dim(self) -> int:
        return self.decoder.out_dim


@dataclass
class GradientBundle:
    """Objective value plus gradients mirroring the trainable parameters."""

    objective: float
    encoder: dict
    decoder_weights: list[np.ndarray]
    decoder_biases: list[np.ndarray]


def named_parameters(model: NpcaModel):
    """(name, array) pairs for every trainable tensor, in a fixed order."""
    enc = model.encoder
    for k, (w, b) in enumerate(zip(enc.trunk.weights, enc.trunk.biases)):
        yield f"enc_trunk_w{k}", w
        yield f"enc_trunk_b{k}", b
    yield "enc_mean_w", enc.mean_weight
    yield "enc_mean_b", enc.mean_bias
    yield "enc_logvar_w", enc.logvar_weight
    yield "enc_logvar_b", enc.logvar_bias
    for k, (w, b) in enumerate(zip(model.decoder.weights, model.decoder.biases)):
        yield f"dec_w{k}", w
        yield f"dec_b{k}", b


def named_gradients(bundle: GradientBundle):
    enc = bundle.encoder
    for k, (w, b) in enumerate(zip(enc["trunk_weights"], enc["trunk_biases"])):
        yield f"enc_trunk_w{k}", w
        yield f"enc_trunk_b{k}", b
    yield "enc_mean_w", enc["mean_weight"]
    yield "enc_mean_b", enc["mean_bias"]
    yield "enc_logvar_w", enc["logvar_weight"]
    yield "enc_logvar_b", enc["logvar_bias"]
    for k, (w, b) in enumerate(zip(bundle.decoder_weights, bundle.decoder_biases)):
        yield f"dec_w{k}", w
        yield f"dec_b{k}", b


def encode(model: NpcaModel, x: np.ndarray):
    """Diagonal Gaussian ``q(z | x)`` as a (mean, variance) pair."""
    mean, logvar, _ = model.encoder.forward(np.atleast_2d(x))
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(logvar))):
        raise NumericError("encoder produced non-finite output")
    if np.asarray(x).ndim == 1:
        return mean[0], np.exp(logvar[0])
    return mean, np.exp(logvar)


def decode(model: NpcaModel, z: np.ndarray) -> np.ndarray:
    """Decoder mean of ``p(x | z)``."""
    out, _ = model.decoder.forward(np.atleast_2d(z))
    if not np.all(np.isfinite(out)):
        raise NumericError("decoder produced non-finite output")
    return out[0] if np.asarray(z).ndim == 1 else out


def reparam_sample(mean: np.ndarray, var: np.ndarray,
                   noise: np.ndarray) -> np.ndarray:
    """``mean + sqrt(var) * noise`` with externally supplied noise."""
    return mean + np.sqrt(var) * noise


def _objective_with_grads(model: NpcaModel, x_i, x_n, noise_i, noise_n, lam):
    """Objective and parameter gradients for a batch of pairs at fixed
    coefficients ``lam`` (one row per pair)."""
    x_i = np.atleast_2d(x_i)
    x_n = np.atleast_2d(x_n)
    noise_i = np.atleast_2d(noise_i)
    noise_n = np.atleast_2d(noise_n)
    lam = np.atleast_2d(lam)
    n = x_i.shape[0]
    d = model.latent_dim
    sig2 = model.obs_noise_var
    big_d = model.data_dim
    dyn = model.dynamics

    m_i, lv_i, cache_i = model.encoder.forward(x_i)
    m_n, lv_n, cache_n = model.encoder.forward(x_n)
    std_i, std_n = np.exp(0.5 * lv_i), np.exp(0.5 * lv_n)
    z_i = m_i + std_i * noise_i
    z_n = m_n + std_n * noise_n

    out_i, dcache_i = model.decoder.forward(z_i)
    out_n, dcache_n = model.decoder.forward(z_n)
    res_i = x_i - out_i
    res_n = x_n - out_n
    recon = (-0.5 * n * 2 * big_d * np.log(2.0 * np.pi * sig2)
             - 0.5 * (np.sum(res_i ** 2) + np.sum(res_n ** 2)) / sig2)

    # transition: z_n ~ N(B z_i, Omega) with B = I + sum_j lam_j G_j
    omega_chol = spd_cholesky(dyn.trans_cov)
    omega_prec = spd_solve(omega_chol, np.eye(d))
    b_mat = np.eye(d) + np.einsum("nj,jab->nab", lam, dyn.basis.generators)
    t_res = z_n - np.einsum("nab,nb->na", b_mat, z_i)
    t_res_prec = t_res @ omega_prec
    log_det_omega = 2.0 * float(np.sum(np.log(np.diag(omega_chol))))
    trans = -0.5 * (n * (d * LOG_2PI + log_det_omega)
                    + float(np.sum(t_res_prec * t_res)))

    lam_chol = spd_cholesky(dyn.coeff_prior_cov)
    lam_white = np.linalg.solve(lam_chol, lam.T)
    lam_term = -0.5 * (n * (dyn.coeff_count * LOG_2PI
                            + 2.0 * float(np.sum(np.log(np.diag(lam_chol)))))
                       + float(np.sum(lam_white ** 2)))

    kl = 0.5 * float(np.sum(np.exp(lv_i) + m_i ** 2 - 1.0 - lv_i)
                     + np.sum(np.exp(lv_n) + m_n ** 2 - 1.0 - lv_n))
    objective = recon + trans + lam_term - kl
    if not np.isfinite(objective):
        offender = [name for name, val in
                    (("reconstruction", recon), ("transition", trans),
                     ("coefficient prior", lam_term), ("kl", kl))
                    if not np.isfinite(val)]
        raise NumericError(f"non-finite objective term(s): {', '.join(offender)}")

    # reverse pass
    grad_out_i = res_i / sig2
    grad_out_n = res_n / sig2
    dec_w_i, dec_b_i, grad_zi_dec = model.decoder.backward(dcache_i, grad_out_i)
    dec_w_n, dec_b_n, grad_zn_dec = model.decoder.backward(dcache_n, grad_out_n)
    dec_w = [a + b for a, b in zip(dec_w_i, dec_w_n)]
    dec_b = [a + b for a, b in zip(dec_b_i, dec_b_n)]

    grad_zn = grad_zn_dec - t_res_prec
    grad_zi = grad_zi_dec + np.einsum("nab,na->nb", b_mat, t_res_prec)

    grad_mi = grad_zi - m_i
    grad_mn = grad_zn - m_n
    grad_lvi = 0.5 * grad_zi * std_i * noise_i - 0.5 * (np.exp(lv_i) - 1.0)
    grad_lvn = 0.5 * grad_zn * std_n * noise_n - 0.5 * (np.exp(lv_n) - 1.0)

    enc_i = model.encoder.backward(cache_i, grad_mi, grad_lvi)
    enc_n = model.encoder.backward(cache_n, grad_mn, grad_lvn)
    enc = {}
    for key in ("mean_weight", "mean_bias", "logvar_weight", "logvar_bias"):
        enc[key] = enc_i[key] + enc_n[key]
    enc["trunk_weights"] = [a + b for a, b in zip(enc_i["trunk_weights"],
                                                  enc_n["trunk_weights"])]
    enc["trunk_biases"] = [a + b for a, b in zip(enc_i["trunk_biases"],
                                                 enc_n["trunk_biases"])]
    bundle = GradientBundle(float(objective), enc, dec_w, dec_b)
    return bundle, z_i, z_n


def plugin_coefficients(model: NpcaModel, z_i: np.ndarray, z_n: np.ndarray,
                        mode: str = "map_plugin",
                        noise: np.ndarray | None = None) -> np.ndarray:
    """Coefficients for sampled latents: posterior mean, or a posterior
    sample driven by external noise."""
    if mode not in ("map_plugin", "sample"):
        raise ValueError(f"unknown coefficient mode {mode!r}")
    z_i = np.atleast_2d(z_i)
    z_n = np.atleast_2d(z_n)
    mean, cov = _e_step_block(model.dynamics, z_i, z_n - z_i)
    if mode == "sample":
        if noise is None:
            raise ValueError("sample mode requires external noise")
        chol = np.linalg.cholesky(cov)
        mean = mean + np.einsum("njk,nk->nj", chol, np.atleast_2d(noise))
    return mean


def elbo_objective(model: NpcaModel, x_i: np.ndarray, x_next: np.ndarray,
                   noise_i: np.ndarray, noise_next: np.ndarray,
                   coeff_mode: str = "map_plugin",
                   coeff_noise: np.ndarray | None = None
                   ) -> tuple[float, GradientBundle]:
    """Per-pair objective and gradients.

    The latents are reparameterized from the supplied noise; the
    coefficients come from their conditional posterior at those latents
    (mean, or a sample in ``sample`` mode) and are held fixed by the
    backward pass.
    """
    x_i = np.atleast_2d(np.asarray(x_i, dtype=float))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=float))
    noise_i = np.atleast_2d(noise_i)
    noise_next = np.atleast_2d(noise_next)
    m_i, lv_i, _ = model.encoder.forward(x_i)
    m_n, lv_n, _ = model.encoder.forward(x_next)
    z_i = m_i + np.exp(0.5 * lv_i) * noise_i
    z_n = m_n + np.exp(0.5 * lv_n) * noise_next
    lam = plugin_coefficients(model, z_i, z_n, coeff_mode, coeff_noise)
    bundle, _, _ = _objective_with_grads(model, x_i, x_next, noise_i,
                                         noise_next, lam)
    return bundle.objective, bundle


def encoded_moments(model: NpcaModel, dataset: ImagePairDataset
                    ) -> LatentMoments:
    """Expectation bundle from the encoder Gaussians with the coefficient
    posterior taken at the encoded means (mean-field assembly)."""
    mean_i, var_i = encode(model, dataset.x_i)
    mean_n, var_n = encode(model, dataset.x_next)
    q, k = _e_step_block(model.dynamics, mean_i, mean_n - mean_i)
    eye = np.eye(model.latent_dim)
    return _moments_from_blocks(_Blocks(mean_i, var_i[:, :, None] * eye,
                                        mean_n, var_n[:, :, None] * eye, q, k))


@dataclass
class NpcaConfig:
    latent_dim: int = 2
    hidden_sizes: tuple[int, ...] = (16,)
    j_init: int = 1
    step_size: float = 1e-3
    momentum: float = 0.0
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    coeff_mode: str = "map_plugin"
    obs_noise_var: float = 0.01
    orth_threshold: float = 0.99
    estimate_lambda: bool = False
    update_dynamics: bool = True
    orthogonalize: bool = True
    jitter_scale: float = 1e-9
    shuffle: bool = True


def _glorot(seed, path, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    u = rng.uniforms(seed, path, rows * cols).reshape(rows, cols)
    return limit * (2.0 * u - 1.0)


def init_networks(data_dim: int, config: NpcaConfig) -> tuple[Encoder, Mlp]:
    """Seeded uniform initialization, +-sqrt(6 / (fan_in + fan_out))."""
    seed = config.seed
    sizes = [data_dim, *config.hidden_sizes]
    trunk_w, trunk_b = [], []
    for k, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        trunk_w.append(_glorot(seed, (_TAG_WEIGHTS, 2 * k), b, a))
        trunk_b.append(np.zeros(b))
    top = sizes[-1]
    d = config.latent_dim
    encoder = Encoder(
        Mlp(trunk_w, trunk_b),
        _glorot(seed, (_TAG_WEIGHTS, 100), d, top), np.zeros(d),
        _glorot(seed, (_TAG_WEIGHTS, 101), d, top), np.zeros(d),
    )
    dec_sizes = [d, *reversed(config.hidden_sizes), data_dim]
    dec_w, dec_b = [], []
    for k, (a, b) in enumerate(zip(dec_sizes[:-1], dec_sizes[1:])):
        dec_w.append(_glorot(seed, (_TAG_WEIGHTS, 200 + 2 * k), b, a))
        dec_b.append(np.zeros(b))
    return encoder, Mlp(dec_w, dec_b)


def linear_warm_start(dataset: ImagePairDataset, latent_dim: int,
                      obs_noise_var: float) -> tuple[Encoder, Mlp]:
    """Hidden-layer-free networks initialized from the principal-subspace
    solution of the pooled frames: the encoder emits the linear-Gaussian
    latent posterior and the decoder its reconstruction map."""
    mu = m_step_mu(dataset)
    w, _ = init_loading(dataset, latent_dim, mu)
    m = w.T @ w + obs_noise_var * np.eye(latent_dim)
    proj = spd_solve(spd_cholesky(m), w.T)
    post_var = obs_noise_var * spd_solve(spd_cholesky(m), np.eye(latent_dim))
    encoder = Encoder(Mlp([], []), proj, -proj @ mu,
                      np.zeros((latent_dim, dataset.image_dim)),
                      np.log(np.maximum(np.diag(post_var), 1e-12)))
    decoder = Mlp([w], [mu])
    return encoder, decoder


def _apply_gradients(model: NpcaModel, bundle: GradientBundle, lr: float,
                     scale: float, velocity: dict | None, momentum: float):
    """Gradient-ascent step (optionally with momentum) on new parameter
    arrays; returns the updated model and velocity store.  ``scale``
    normalizes the summed batch gradients to means."""
    updates = {name: scale * g for name, g in named_gradients(bundle)}
    if momentum > 0.0:
        velocity = velocity or {name: np.zeros_like(g)
                                for name, g in updates.items()}
        for name, g in updates.items():
            velocity[name] = momentum * velocity[name] + g
        updates = velocity
    params = {name: arr + lr * updates[name]
              for name, arr in named_parameters(model)}
    n_trunk = len(model.encoder.trunk.weights)
    encoder = Encoder(
        Mlp([params[f"enc_trunk_w{k}"] for k in range(n_trunk)],
            [params[f"enc_trunk_b{k}"] for k in range(n_trunk)]),
        params["enc_mean_w"], params["enc_mean_b"],
        params["enc_logvar_w"], params["enc_logvar_b"])
    n_dec = len(model.decoder.weights)
    decoder = Mlp([params[f"dec_w{k}"] for k in range(n_dec)],
                  [params[f"dec_b{k}"] for k in range(n_dec)])
    new_model = NpcaModel(encoder, decoder, model.obs_noise_var,
                          model.dynamics)
    return new_model, velocity


def fit(dataset: ImagePairDataset, config: NpcaConfig,
        init: tuple[Encoder, Mlp] | None = None
        ) -> tuple[NpcaModel, list[float]]:
    """Alternate minibatch gradient ascent on the networks with the
    shared closed-form dynamics update
    (:func:`lieflow.dynamics.update_step`) on the encoded moments.

    Noise (and the optional shuffle) is drawn from counter-based streams
    keyed by (seed, epoch, pair index), so the trace is bit-reproducible
    and independent of any parallel schedule.  ``init`` overrides the
    seeded network initialization (e.g. :func:`linear_warm_start`).
    """
    d = config.latent_dim
    encoder, decoder = init if init is not None \
        else init_networks(dataset.image_dim, config)
    dyn = init_model(d, config.j_init, config.seed)
    model = NpcaModel(encoder, decoder, config.obs_noise_var, dyn)
    velocity = None
    trace: list[float] = []
    n = dataset.count
    for epoch in range(config.epochs):
        order = (rng.permutation(config.seed, (_TAG_SHUFFLE, epoch), n)
                 if config.shuffle else np.arange(n))
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            noise = np.stack([
                rng.normals(config.seed, (_TAG_NOISE, epoch, int(k)), 2 * d)
                for k in idx])
            x_i = dataset.x_i[idx]
            x_n = dataset.x_next[idx]
            m_i, lv_i, _ = model.encoder.forward(x_i)
            m_n, lv_n, _ = model.encoder.forward(x_n)
            if not (np.all(np.isfinite(m_i)) and np.all(np.isfinite(lv_i))
                    and np.all(np.isfinite(m_n)) and np.all(np.isfinite(lv_n))):
                raise NumericError(
                    f"training diverged at epoch {epoch}: encoder produced "
                    f"non-finite output (reduce the step size)")
            z_i = m_i + np.exp(np.minimum(0.5 * lv_i, 350.0)) * noise[:, :d]
            z_n = m_n + np.exp(np.minimum(0.5 * lv_n, 350.0)) * noise[:, d:]
            coeff_noise = None
            if config.coeff_mode == "sample":
                coeff_noise = np.stack([
                    rng.normals(config.seed, (_TAG_LAMNOISE, epoch, int(k)),
                                model.dynamics.coeff_count) for k in idx])
            lam = plugin_coefficients(model, z_i, z_n, config.coeff_mode,
                                      coeff_noise)
            bundle, _, _ = _objective_with_grads(
                model, x_i, x_n, noise[:, :d], noise[:, d:], lam)
            total += bundle.objective
            model, velocity = _apply_gradients(
                model, bundle, config.step_size, 1.0 / idx.size,
                velocity, config.momentum)
        trace.append(total / n)
        if not np.isfinite(trace[-1]):
            raise NumericError(f"objective diverged at epoch {epoch}")
        if config.update_dynamics:
            _, dyn = update_step(model.dynamics,
                                 encoded_moments(model, dataset).transition_stats(),
                                 config)
            model = NpcaModel(model.encoder, model.decoder,
                              model.obs_noise_var, dyn)
    return model, trace
