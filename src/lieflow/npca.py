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

Both networks are :class:`Mlp` instances: the encoder's linear output
holds the latent mean followed by the log-variance.  A minibatch's two
frames travel as one stack ``(2, N, ...)``, first frame first, so each
network pass runs once per minibatch.  The trainable
tensors have one layout (:func:`named_parameters`), shared by
checkpoints and the gradients; a minibatch step updates those tensors
in place.

Differentiation is hand-rolled reverse-mode over this fixed graph
(affine layers, tanh, Gaussian log-densities, KL, reparameterization),
checked against central finite differences.  The plugged-in coefficients
are treated as constants by the backward pass.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import liealg, rng
from .dynamics import (
    DynamicsModel,
    PairDataset,
    _e_step_block,
    init_model,
    update_step,
)
from .gaussian import LOG_2PI, NumericError, triangular_solve
from .liealg import GeneratorBasis
from .ppca import (
    LatentMoments,
    PpcaModel,
    _frame_sum,
    _moments_from_blocks,
    init_loading,
    m_step_mu,
    posterior_z_given_x,
)

_TAG_WEIGHTS, _TAG_NOISE, _TAG_SHUFFLE = 0xE0, 0xE1, 0xE2


@dataclass
class Mlp:
    """Affine stack with tanh on hidden layers and a linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("an Mlp needs at least one layer and one bias per weight")
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
        """Forward pass of inputs ``(..., in_dim)``, one product per frame of a
        frame stack; returns the output and the cache the backward pass reads."""
        h, cache = x, [x]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T + b
            if k < last:
                h = np.tanh(h)
            cache.append(h)
        return h, cache

    def backward(self, cache, grad_out: np.ndarray):
        """Parameter gradients, summed over the pairs and then the frames, and
        the input gradient, for frame-stack output gradients ``(2, N, out)``."""
        last = len(self.weights) - 1
        grad_w, grad_b = [None] * (last + 1), [None] * (last + 1)
        g = grad_out
        for k in range(last, -1, -1):
            if k < last:
                g = g * (1.0 - cache[k + 1] ** 2)
            grad_w[k] = (g.swapaxes(1, 2) @ cache[k]).sum(axis=0)
            grad_b[k] = g.sum(axis=1).sum(axis=0)
            g = g @ self.weights[k]
        return grad_w, grad_b, g


@dataclass(frozen=True)
class NpcaModel:
    """Encoder ``x -> (mean, log-variance)`` of ``q(z | x)``, decoder
    ``z -> x`` mean, observation noise and the shared dynamics."""

    encoder: Mlp
    decoder: Mlp
    obs_noise_var: float
    dynamics: DynamicsModel

    def __post_init__(self):
        if not np.isfinite(self.obs_noise_var):
            raise NumericError("observation noise variance must be finite")
        if self.obs_noise_var <= 0.0:
            raise ValueError("observation noise variance must be positive")
        if self.encoder.out_dim != 2 * self.dynamics.latent_dim:
            raise ValueError("encoder output must hold the latent mean and "
                             "log-variance of the dynamics' latent dimension")
        if self.decoder.in_dim != self.dynamics.latent_dim:
            raise ValueError("decoder input must match the latent dimension")
        if self.encoder.in_dim != self.decoder.out_dim:
            raise ValueError("encoder input must match the decoder output")

    @property
    def latent_dim(self) -> int:
        return self.dynamics.latent_dim

    @property
    def data_dim(self) -> int:
        return self.decoder.out_dim


def _parameter_names(trunk_count: int, dec_count: int) -> list[str]:
    """Names of the trainable tensors in layout order, for an encoder with
    ``trunk_count`` tanh layers below its output layer and a decoder with
    ``dec_count`` layers."""
    return [*(f"enc_trunk_{p}{k}" for k in range(trunk_count) for p in "wb"),
            "enc_mean_w", "enc_mean_b", "enc_logvar_w", "enc_logvar_b",
            *(f"dec_{p}{k}" for k in range(dec_count) for p in "wb")]


def _in_layout(enc_w, enc_b, dec_w, dec_b, d: int) -> list[np.ndarray]:
    """Per-layer encoder and decoder tensors (parameters or gradients) in
    layout order; the encoder's output layer splits into its mean rows
    and its log-variance rows."""
    head_w, head_b = enc_w[-1], enc_b[-1]
    return [*(a for pair in zip(enc_w[:-1], enc_b[:-1]) for a in pair),
            head_w[:d], head_b[:d], head_w[d:], head_b[d:],
            *(a for pair in zip(dec_w, dec_b) for a in pair)]


def named_parameters(model: NpcaModel):
    """(name, array) pairs for every trainable tensor, in layout order.

    This is the one parameter layout: checkpoints store these arrays
    under these names, and the gradients come in this order.  ``enc_mean_*``
    and ``enc_logvar_*`` are row views of the encoder's output layer, so
    a step written into them updates that layer."""
    enc, dec = model.encoder, model.decoder
    names = _parameter_names(len(enc.weights) - 1, len(dec.weights))
    return zip(names, _in_layout(enc.weights, enc.biases, dec.weights,
                                 dec.biases, model.latent_dim))


def assemble(named, trunk_count: int, dec_count: int, obs_noise_var: float,
             dynamics: DynamicsModel) -> NpcaModel:
    """Inverse of :func:`named_parameters`: the model whose trainable
    tensors are ``named[name]`` for every name of the layout."""
    t = 2 * trunk_count
    arrays = [named[name] for name in _parameter_names(trunk_count, dec_count)]
    mean_w, mean_b, logvar_w, logvar_b = arrays[t:t + 4]
    encoder = Mlp([*arrays[0:t:2], np.vstack((mean_w, logvar_w))],
                  [*arrays[1:t:2], np.concatenate((mean_b, logvar_b))])
    decoder = Mlp(arrays[t + 4::2], arrays[t + 5::2])
    return NpcaModel(encoder, decoder, obs_noise_var, dynamics)


def _encoder_forward(model: NpcaModel, x: np.ndarray):
    """Encoder mean, log-variance and forward cache, any leading axes."""
    out, cache = model.encoder.forward(x)
    if not np.all(np.isfinite(out)):
        raise NumericError("encoder produced non-finite output")
    d = model.latent_dim
    return out[..., :d], out[..., d:], cache


def encode(model: NpcaModel, x: np.ndarray):
    """Diagonal Gaussian ``q(z | x)`` as a (mean, variance) pair, any
    leading axes."""
    if np.shape(x)[-1:] != (model.data_dim,):
        raise ValueError("observation dimension does not match the model")
    mean, logvar, _ = _encoder_forward(model, np.asarray(x))
    return mean, np.exp(logvar)


def decode(model: NpcaModel, z: np.ndarray) -> np.ndarray:
    """Decoder mean of ``p(x | z)``, any leading axes."""
    out, _ = model.decoder.forward(np.asarray(z))
    if not np.all(np.isfinite(out)):
        raise NumericError("decoder produced non-finite output")
    return out


def reparam_sample(mean: np.ndarray, var: np.ndarray,
                   noise: np.ndarray) -> np.ndarray:
    """``mean + sqrt(var) * noise`` with externally supplied noise."""
    return mean + np.sqrt(var) * noise


def _objective_with_grads(model: NpcaModel, x, noise, lam=None):
    """Objective and its gradient, one array per trainable tensor in the
    order of :func:`named_parameters`, for a stack of pairs: frame and
    noise stacks ``(2, N, D)`` and ``(2, N, d)`` and, if given, ``lam``
    ``(N, J)``.  Each network pass runs once over the frame stack; the
    latents are reparameterized from the supplied noise.  The
    coefficients are ``lam`` (one row per pair) when given, else the
    means of their posterior at the sampled latents
    (:func:`plugin_coefficients`); the backward pass holds them fixed
    either way.  This is the step :func:`fit` takes per minibatch.
    """
    n, d = x.shape[1], model.latent_dim
    sig2, dyn = model.obs_noise_var, model.dynamics

    m, lv, cache = _encoder_forward(model, x)
    # clamped so that a diverging log-variance cannot overflow
    var = np.exp(np.minimum(lv, 700.0))
    z = reparam_sample(m, var, noise)
    if lam is None:
        lam = plugin_coefficients(model, z[0], z[1])

    out, dcache = model.decoder.forward(z)
    res = x - out
    recon = -0.5 * (x.size * np.log(2.0 * np.pi * sig2) + _frame_sum(res ** 2) / sig2)

    # transition: z_n ~ N(B z_i, Omega) with B = I + sum_j lam_j G_j
    b_mat = np.eye(d) + liealg.combine(dyn.basis, lam)
    t_res = z[1] - np.einsum("nab,nb->na", b_mat, z[0])
    t_res_prec = t_res @ dyn.trans_prec
    trans = -0.5 * (n * (d * LOG_2PI + dyn.trans_logdet)
                    + float(np.sum(t_res_prec * t_res)))

    lam_white = triangular_solve(dyn.coeff_prior_chol, lam.T)
    lam_term = -0.5 * (n * (dyn.coeff_count * LOG_2PI + dyn.coeff_prior_logdet)
                       + float(np.sum(lam_white ** 2)))

    kl = 0.5 * float(_frame_sum(var + m ** 2 - 1.0 - lv))
    objective = recon + trans + lam_term - kl
    if not np.isfinite(objective):
        offender = [name for name, val in
                    (("reconstruction", recon), ("transition", trans),
                     ("coefficient prior", lam_term), ("kl", kl))
                    if not np.isfinite(val)]
        raise NumericError(f"non-finite objective term(s): {', '.join(offender)}")

    # reverse pass
    dec_w, dec_b, grad_z = model.decoder.backward(dcache, res / sig2)
    grad_z[0] += np.einsum("nab,na->nb", b_mat, t_res_prec)
    grad_z[1] -= t_res_prec
    # gradient at the encoder output: mean columns, then log-variance
    grad_out = np.concatenate((grad_z - m, 0.5 * grad_z * np.sqrt(var) * noise
                               - 0.5 * (var - 1.0)), axis=-1)
    enc_w, enc_b, _ = model.encoder.backward(cache, grad_out)
    return float(objective), _in_layout(enc_w, enc_b, dec_w, dec_b, d)


def plugin_coefficients(model: NpcaModel, z_i: np.ndarray,
                        z_n: np.ndarray) -> np.ndarray:
    """Coefficients ``(N, J)`` for stacks of sampled latents ``(N, d)``:
    the means of the coefficient posterior of the dynamics E-step
    (:func:`lieflow.dynamics._e_step_block`)."""
    return _e_step_block(model.dynamics, z_i.T, (z_n - z_i).T)[0].T


def encoded_moments(model: NpcaModel, dataset: PairDataset
                    ) -> LatentMoments:
    """Expectation bundle from the encoder Gaussians with the coefficient
    posterior taken at the encoded means (mean-field assembly)."""
    (mean_i, mean_n), var = encode(model, dataset.frames)
    q, k = _e_step_block(model.dynamics, mean_i.T, (mean_n - mean_i).T)
    cov_i, cov_n = var[..., None] * np.eye(model.latent_dim)
    return _moments_from_blocks(mean_i, cov_i, mean_n, cov_n, q.T,
                                k.transpose(2, 0, 1))


@dataclass
class NpcaConfig:
    """Settings of :func:`fit`.  ``coeff_mode`` accepts only
    ``"map_plugin"`` (posterior-mean coefficients); it stays because the
    benchmark passes it, and :func:`fit` rejects any other value."""

    latent_dim: int = 2
    hidden_sizes: tuple[int, ...] = (16,)
    j_init: int = 1
    step_size: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    seed: int = 0
    coeff_mode: str = "map_plugin"
    obs_noise_var: float = 0.01
    estimate_lambda: bool = False


def _glorot(seed, path, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    u = rng.uniforms(seed, path, rows * cols).reshape(rows, cols)
    return limit * (2.0 * u - 1.0)


def init_networks(data_dim: int, config: NpcaConfig) -> tuple[Mlp, Mlp]:
    """Seeded uniform initialization, +-sqrt(6 / (fan_in + fan_out)).

    The encoder's output layer stacks two draws, one for the mean rows
    and one for the log-variance rows, each with the limit of a
    ``latent_dim``-row layer."""
    seed = config.seed
    sizes = [data_dim, *config.hidden_sizes]
    enc_w, enc_b = [], []
    for k, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        enc_w.append(_glorot(seed, (_TAG_WEIGHTS, 2 * k), b, a))
        enc_b.append(np.zeros(b))
    top = sizes[-1]
    d = config.latent_dim
    enc_w.append(np.vstack((_glorot(seed, (_TAG_WEIGHTS, 100), d, top),
                            _glorot(seed, (_TAG_WEIGHTS, 101), d, top))))
    enc_b.append(np.zeros(2 * d))
    dec_sizes = [d, *reversed(config.hidden_sizes), data_dim]
    dec_w, dec_b = [], []
    for k, (a, b) in enumerate(zip(dec_sizes[:-1], dec_sizes[1:])):
        dec_w.append(_glorot(seed, (_TAG_WEIGHTS, 200 + 2 * k), b, a))
        dec_b.append(np.zeros(b))
    return Mlp(enc_w, enc_b), Mlp(dec_w, dec_b)


def linear_warm_start(dataset: PairDataset, latent_dim: int,
                      obs_noise_var: float) -> tuple[Mlp, Mlp]:
    """Hidden-layer-free networks initialized from the principal-subspace
    solution of the pooled frames: the encoder emits the linear-Gaussian
    latent posterior and the decoder its reconstruction map."""
    mu = m_step_mu(dataset)
    w, _ = init_loading(dataset.frames - mu, latent_dim)
    # the posterior mean is linear in the frame: its weights are the means
    # of the unit frames under a zero-mean model (the dynamics do not enter)
    d = latent_dim
    static = DynamicsModel(GeneratorBasis(np.zeros((1, d, d))), np.eye(d), np.eye(1))
    proj_t, post_cov = posterior_z_given_x(
        PpcaModel(w, np.zeros_like(mu), obs_noise_var, static),
        np.eye(dataset.dim))
    proj = proj_t.T
    encoder = Mlp(
        [np.vstack((proj, np.zeros((d, dataset.dim))))],
        [np.concatenate((-proj @ mu,
                         np.log(np.maximum(np.diag(post_cov), 1e-12))))])
    decoder = Mlp([w], [mu])
    return encoder, decoder


def _apply_gradients(model: NpcaModel, grads: list[np.ndarray], lr: float,
                     scale: float) -> None:
    """In-place gradient-ascent step; ``grads`` follow :func:`named_parameters`
    and ``scale`` normalizes the summed batch gradient to a mean."""
    for (_, p), g in zip(named_parameters(model), grads):
        p += lr * (scale * g)


def fit(dataset: PairDataset, config: NpcaConfig,
        init: tuple[Mlp, Mlp] | None = None
        ) -> tuple[NpcaModel, list[float]]:
    """Alternate minibatch gradient ascent on the networks with the
    shared closed-form dynamics update
    (:func:`lieflow.dynamics.update_step`) on the encoded moments.

    The shuffle and the noise are drawn from counter-based streams
    keyed by (seed, epoch, pair index), so the trace is bit-reproducible
    and independent of any parallel schedule; each epoch draws the noise
    of all pairs as one stack of streams.  ``init`` overrides the
    seeded (encoder, decoder) initialization (e.g.
    :func:`linear_warm_start`); fit trains copies and leaves it as is.
    """
    if config.coeff_mode != "map_plugin":
        raise ValueError(f"unknown coefficient mode {config.coeff_mode!r}")
    d = config.latent_dim
    encoder, decoder = (
        Mlp([np.array(w, dtype=float, order="C") for w in net.weights],
            [np.array(b, dtype=float, order="C") for b in net.biases])
        for net in (init if init is not None
                    else init_networks(dataset.dim, config)))
    dyn = init_model(d, config.j_init, config.seed)
    model = NpcaModel(encoder, decoder, config.obs_noise_var, dyn)
    trace: list[float] = []
    n = dataset.count
    paths = np.zeros((n, 3), dtype=np.uint64)
    paths[:, 0], paths[:, 2] = _TAG_NOISE, np.arange(n)
    # a diverging fit overflows before its checks (finiteness, Gram, PSD)
    # raise NumericError; numpy prints no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(config.seed, (_TAG_SHUFFLE, epoch), n)
            # row k of the draw is the stream (tag, epoch, k) of pair k; a
            # noise row holds the first frame's d values, then the second's
            paths[:, 1] = epoch
            noise = (rng.normals(config.seed, paths, 2 * d)
                     .reshape(n, 2, d).swapaxes(0, 1))
            total = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                objective, grads = _objective_with_grads(
                    model, dataset.frames[:, idx], noise[:, idx])
                total += objective
                _apply_gradients(model, grads, config.step_size, 1.0 / idx.size)
            trace.append(total / n)
            if not np.isfinite(trace[-1]):
                raise NumericError(f"objective diverged at epoch {epoch}")
            if not all(np.all(np.isfinite(p)) for _, p in named_parameters(model)):
                raise NumericError(f"network parameters diverged at epoch {epoch}")
            _, dyn, _ = update_step(model.dynamics,
                                    encoded_moments(model, dataset).transition,
                                    config.estimate_lambda, orthogonalize=True)
            model = replace(model, dynamics=dyn)
    return model, trace
