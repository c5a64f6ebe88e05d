"""Joint EM over image pairs with a probabilistic-PCA observation model.

The generative model per pair: ``z_i ~ N(0, I)``, ``x_i = W z_i + mu +
noise``, coefficients ``lambda ~ N(0, Lambda)``, transition
``z_next = z_i + A(z_i) lambda + noise`` and ``x_next = W z_next + mu +
noise``, with isotropic observation noise of variance ``sigma^2``.

The joint posterior over ``(z_i, lambda, z_next)`` is non-Gaussian (the
transition couples ``z_i`` and ``lambda`` bilinearly), so the E-step
offers three backends: tensor-grid quadrature over ``(z_i, lambda)``
(exact to grid resolution, small dimensions only), a mean-field fixed
point cycling the three closed-form conditionals (production default;
its q(lambda) is the coefficient posterior of the dynamics E-step)
and self-normalized importance sampling (cross-check), chosen by
``PpcaConfig.estep`` and tuned by the same config's ``grid_points``,
``mc_samples`` and ``seed``.  Given ``(z_i, lambda)`` the pair is
linear-Gaussian, so quadrature and sampling both integrate ``z_next``
out in closed form with one helper (:func:`_next_frame`).
All three start from the frames' closed-form latent posteriors
``N(S W^T (x - mu) / sigma^2, S)`` (:func:`posterior_z_given_x`, one
product per frame).  What every frame or node shares is formed once per
model: ``S``, its precision, the covariance ``Gamma`` of ``z_next`` and
the factor of the covariance ``R`` of ``x_next`` are lazily cached
:class:`PpcaModel` properties, and ``Omega^-1``, ``Lambda^-1`` and their
log-determinants come with the :class:`lieflow.dynamics.DynamicsModel`.
Both frames share the observation model, so frames (the dataset's
``frames``, and the ``x`` of each E-step backend), their posteriors and
their moments travel as one stack ``(2, N, ...)``, ``x_i`` first.
All M-steps are closed form in the expectation bundle and the frames,
centred once per fit; sigma^2 and the bound share one residual power.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import liealg, rng
from .dynamics import (
    DynamicsModel,
    TransitionStats,
    _e_step_block,
    converged,
    expected_log_density,
    init_model,
    m_step_dynamics,  # noqa: F401  (re-exported, see the M-steps below)
    map_blocks,
    update_step,
)
from .gaussian import (
    LOG_2PI,
    NumericError,
    _ordered_sum,
    cholesky_inverse,
    cholesky_log_density,
    spd_cholesky,
    spd_solve,
    stacked_posterior,
    symmetrize,
)
from .synth import ImagePairDataset

SIGMA_FLOOR = 1e-12
E_STEP_METHODS = ("quadrature", "fixed_point", "monte_carlo")
# fixed-point E-step: sweep limit, and the largest change of a pair's
# block moments below which that pair stops
FIXED_POINT_ITERS = 500
FIXED_POINT_TOL = 1e-10
# quadrature box: half-width in marginal stds of the linearized posterior
# over (z_i, lambda), after inflating those stds by GRID_INFLATION
GRID_SIGMAS = 8.0
GRID_INFLATION = 1.5

_TAG_MC_Z, _TAG_MC_LAM = 0x5A, 0x5B


@dataclass(frozen=True)
class PpcaModel:
    """Linear observation model bundled with the transition dynamics."""

    loading: np.ndarray
    data_mean: np.ndarray
    noise_var: float
    dynamics: DynamicsModel

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.loading, dtype=float))
        mu = np.atleast_1d(np.asarray(self.data_mean, dtype=float))
        if w.shape[0] != mu.shape[0]:
            raise ValueError("loading rows and data mean length must agree")
        if w.shape[1] > w.shape[0]:
            raise ValueError("latent dimension cannot exceed the data dimension")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu))
                and np.isfinite(self.noise_var)):
            raise NumericError("loading, data mean and noise variance must be finite")
        if self.noise_var <= 0:
            raise ValueError("noise variance must be positive")
        if self.dynamics.latent_dim != w.shape[1]:
            raise ValueError("dynamics latent dimension must match the loading")
        object.__setattr__(self, "loading", w)
        object.__setattr__(self, "data_mean", mu)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def data_dim(self) -> int:
        return self.loading.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.loading.shape[1]

    @cached_property
    def latent_prec(self) -> np.ndarray:
        """``S^-1 = I + W^T W / sigma^2``, every frame's latent precision."""
        w = self.loading
        return np.eye(self.latent_dim) + (w.T @ w) / self.noise_var

    @cached_property
    def latent_cov(self) -> np.ndarray:
        """``S``, every frame's latent posterior covariance."""
        return cholesky_inverse(spd_cholesky(self.latent_prec))

    @cached_property
    def next_frame_cov(self) -> np.ndarray:
        """``Gamma = (Omega^-1 + W^T W / sigma^2)^-1``, the covariance of
        ``z_next`` given ``(z_i, lambda, x_next)`` at every ``(z_i, lambda)``."""
        w = self.loading
        return cholesky_inverse(spd_cholesky(
            self.dynamics.trans_prec + (w.T @ w) / self.noise_var))

    @cached_property
    def resid_chol(self) -> np.ndarray:
        """Lower Cholesky factor of ``R = sigma^2 I + W Omega W^T``, the
        covariance of ``x_next`` given ``(z_i, lambda)``."""
        w = self.loading
        return spd_cholesky(self.noise_var * np.eye(self.data_dim)
                            + w @ self.dynamics.trans_cov @ w.T)


def _outer_cov(mean: np.ndarray, second: np.ndarray) -> np.ndarray:
    return symmetrize(second - np.einsum("...a,...b->...ab", mean, mean))


def _frame_sum(a: np.ndarray) -> float:
    """Sum of a frame stack ``(2, N, ...)``, first frame's sum first."""
    return np.sum(a, axis=tuple(range(1, a.ndim))).sum()


@dataclass(frozen=True)
class LatentMoments:
    """Expectations under the joint posterior of (z_i, lambda, z_next): each
    block's moments, one row per pair, with both frames' in one stack
    (``ez`` ``(2, N, d)``, ``ezz`` ``(2, N, d, d)``), and the pair sums that
    the dynamics M-step and the objective read (``transition``)."""

    ez: np.ndarray
    ezz: np.ndarray
    elam: np.ndarray
    elamlam: np.ndarray
    transition: TransitionStats

    def __post_init__(self):
        eig_z, eig_lam = self._eigs
        for eigs, ezz, label in (*zip(eig_z, self.ezz, ("z_i", "z_next")),
                                 (eig_lam, self.elamlam, "lambda")):
            floor = -1e-8 * np.maximum(1.0, np.abs(ezz).max(axis=(1, 2)))
            if np.any(eigs[:, 0] < floor):
                raise NumericError(f"{label} moment block is not positive semidefinite")

    @property
    def count(self) -> int:
        return self.ez.shape[1]

    @cached_property
    def cov_z(self) -> np.ndarray:
        return _outer_cov(self.ez, self.ezz)

    @cached_property
    def cov_lam(self) -> np.ndarray:
        return _outer_cov(self.elam, self.elamlam)

    @cached_property
    def _eigs(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of ``cov_z`` and ``cov_lam``, read by the PSD check
        and by the entropies of :func:`mean_field_elbo`."""
        return np.linalg.eigvalsh(self.cov_z), np.linalg.eigvalsh(self.cov_lam)


@dataclass
class PpcaConfig:
    """Settings of :func:`fit`.  ``estep`` picks the E-step backend
    (:data:`E_STEP_METHODS`): the quadrature E-step puts ``grid_points``
    nodes on each axis of its grid, and the Monte Carlo E-step draws
    ``mc_samples`` samples per pair from the random streams of ``seed``.
    ``freeze_coefficients`` pins the coefficients at zero and keeps the
    initial dynamics; it needs the fixed-point E-step.  Otherwise every
    iteration orthogonalizes the generator basis."""

    latent_dim: int = 2
    j_init: int = 1
    estep: str = "fixed_point"
    max_iters: int = 200
    tol: float = 1e-8
    seed: int = 0
    estimate_lambda: bool = False
    freeze_coefficients: bool = False
    init_omega_scale: float = 1.0
    grid_points: int = 64
    mc_samples: int = 100_000
    threads: int = 1


def _frame_posteriors(model: PpcaModel, x: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The frame-dependent part of the latent posteriors ``N(S b, S)`` of
    every frame in ``x`` (any leading axes): each frame's information
    ``b = W^T (x - mu) / sigma^2`` and mean ``S b``, each one product per
    frame, so a frame's bits do not depend on the frames it comes with."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (model.data_dim,):
        raise ValueError("observation dimension does not match the model")
    info = ((x - model.data_mean)[..., None, :] @ model.loading) / model.noise_var
    return info[..., 0, :], (info @ model.latent_cov)[..., 0, :]


def posterior_z_given_x(model: PpcaModel, x: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Latent posterior ``N(S W^T (x - mu) / sigma^2, S)`` of every frame
    in ``x`` (any leading axes): the means, which keep the frames' leading
    axes, and the one covariance ``S`` (``model.latent_cov``) all frames
    share.  A frame's mean is the same bits in any stack of frames."""
    _, means = _frame_posteriors(model, x)
    return means, model.latent_cov


# ---------------------------------------------------------------------------
# E-step backends


def _pair_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_n a_n (x) b_n`` over the leading pair axis of two stacks, as
    one product over that axis: shape ``a.shape[1:] + b.shape[1:]``."""
    n = a.shape[0]
    return (a.reshape(n, -1).T @ b.reshape(n, -1)).reshape(a.shape[1:] + b.shape[1:])


def _moments_from_blocks(m_zi, cov_zi, m_zn, cov_zn, q, k) -> LatentMoments:
    """Expectation bundle under the factorized posterior ``q(z_i)
    q(lambda) q(z_next)`` from each pair's block means and covariances,
    in the order ``(m_zi, cov_zi, m_zn, cov_zn, q, k)``.

    The transition statistics are sums over the whole stack of pairs; the
    two Kronecker ones are each one matrix product over the pair axis
    (:func:`_pair_sum`), as in :func:`lieflow.dynamics.transition_stats`.
    The stack is the same however the pairs were blocked for the sweep,
    so neither are the sums.
    """
    (n, d), j = m_zi.shape, q.shape[1]
    ez = np.stack([m_zi, m_zn])
    ezz = np.einsum("fna,fnb->fnab", ez, ez)
    ezz[0] += cov_zi
    ezz[1] += cov_zn
    elamlam = k + np.einsum("nj,nk->njk", q, q)
    dz_dz = (ezz[1] + ezz[0]
             - np.einsum("na,nb->nab", m_zn, m_zi)
             - np.einsum("na,nb->nab", m_zi, m_zn))
    # E[dz (z kron lam)^T] = E[lam_j] (E[z_n] E[z_i]^T - E[z_i z_i^T])
    core = (np.einsum("nr,na->nra", m_zn, m_zi) - ezz[0])
    zz_lamlam = _pair_sum(ezz[0], elamlam).transpose(0, 2, 1, 3)
    transition = TransitionStats(n, dz_dz.sum(axis=0),
                                 _pair_sum(core, q).reshape(d, d * j),
                                 zz_lamlam.reshape(d * j, d * j),
                                 elamlam.sum(axis=0))
    return LatentMoments(ez, ezz, q, elamlam, transition)


def _weighted_moments(p: np.ndarray, zi: np.ndarray, lam: np.ndarray,
                      zn: np.ndarray, zn_cov: np.ndarray) -> dict[str, np.ndarray]:
    """Moments of one pair from weighted nodes or samples ``(zi, lam)``,
    with that pair's terms of the transition statistics; ``z_next`` is
    integrated out at each node in closed form, to mean ``zn`` and the
    covariance ``zn_cov`` shared by all nodes."""
    d, j = zi.shape[1], lam.shape[1]
    dz = zn - zi
    zl = np.einsum("ma,mj->maj", zi, lam).reshape(-1, d * j)

    def outer(a, b):
        return np.einsum("m,ma,mb->ab", p, a, b)

    return dict(ez=(p @ zi, p @ zn), ezz=(outer(zi, zi), zn_cov + outer(zn, zn)),
                elam=p @ lam, elamlam=outer(lam, lam),
                dz_dz=zn_cov + outer(dz, dz), dz_zlam=outer(dz, zl),
                zz_lamlam=outer(zl, zl))


def _stack_moments(parts: list[dict[str, np.ndarray]]) -> LatentMoments:
    """One bundle from per-pair moments, the frame axis of ``ez`` and ``ezz``
    first; the transition terms are summed over the pairs."""
    stacked = {name: np.stack([p[name] for p in parts], axis=int(name[:2] == "ez"))
               for name in parts[0]}
    sums = {name: stacked.pop(name).sum(axis=0)
            for name in ("dz_dz", "dz_zlam", "zz_lamlam")}
    return LatentMoments(**stacked, transition=TransitionStats(
        len(parts), **sums, lamlam=stacked["elamlam"].sum(axis=0)))


def _frozen_coefficient_blocks(model: PpcaModel, x: np.ndarray
                               ) -> tuple[np.ndarray, ...]:
    """Mean-field fixed point with the coefficients pinned at zero.

    The (z_i, z_next) problem is then jointly Gaussian, so the
    coordinate-update fixed point is available in closed form: the means
    solve the joint precision system and the factor covariances invert
    its diagonal blocks.  (The cycled updates converge to exactly this
    point, but arbitrarily slowly as the transition noise shrinks.)
    """
    w = model.loading
    d, j, n = model.latent_dim, model.dynamics.coeff_count, x.shape[1]
    (info_i, info_n), _ = _frame_posteriors(model, x)
    omega_prec = model.dynamics.trans_prec
    prec = np.zeros((2 * d, 2 * d))
    prec[:d, :d] = model.latent_prec + omega_prec
    prec[:d, d:] = prec[d:, :d] = -omega_prec
    prec[d:, d:] = omega_prec + (w.T @ w) / model.noise_var
    means = spd_solve(spd_cholesky(prec), np.hstack([info_i, info_n]).T).T
    cov_zi = cholesky_inverse(spd_cholesky(prec[:d, :d]))
    return (means[:, :d], np.broadcast_to(cov_zi, (n, d, d)),
            means[:, d:], np.broadcast_to(model.next_frame_cov, (n, d, d)),
            np.zeros((n, j)), np.zeros((n, j, j)))


def _fixed_point_blocks(model: PpcaModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cycle the three closed-form conditionals at the current block means
    until self-consistent, starting from the frames' latent posteriors.
    Returns each pair's block moments in the order of
    :func:`_moments_from_blocks`: ``(m_zi, cov_zi, m_zn, cov_zn, q, k)``.

    The sweep keeps the pair axis last: its state is one array with a
    column per live pair.  A pair retires when its largest change falls
    below ``FIXED_POINT_TOL`` (a NaN stays live): its final column is
    written out once and the working set is compacted, so a sweep in
    which no pair retires moves no data.  Each sweep takes q(lambda) from
    the dynamics E-step at the current means
    (:func:`lieflow.dynamics._e_step_block`, the coefficient posterior all
    three estimators share), forms ``B = I + sum_j q_j G_j``, the drift,
    q(z_next), ``B^T Omega^-1``, ``B^T Omega^-1 B`` and q(z_i)'s
    information as fixed-order elementwise sums over d, and factors
    every live pair's q(z_i) precision once
    (:func:`lieflow.gaussian.stacked_posterior`).  No product runs over
    the pairs, and each pair stops on its own residual, so a pair's
    result does not depend on which other pairs share the block (nor,
    therefore, on the thread count).
    """
    d, j = model.latent_dim, model.dynamics.coeff_count
    n = x.shape[1]
    gens = model.dynamics.basis.generators

    # both frames' latent posteriors: information W^T (x - mu) / sigma^2
    # and means (their shared precision and covariance are the model's)
    (info_u, wt_xn), (u_i, u_n) = _frame_posteriors(model, x)
    info_u, wt_xn = info_u.T, wt_xn.T
    omega_prec, gamma = model.dynamics.trans_prec, model.next_frame_cov

    # one column per live pair: rows m_zi, m_zn, q, cov_zi, k
    state = np.vstack([u_i.T, u_n.T, np.zeros((j, n)),
                       np.broadcast_to(model.latent_cov.reshape(-1, 1), (d * d, n)),
                       np.broadcast_to(model.dynamics.coeff_prior_cov.reshape(-1, 1),
                                       (j * j, n))])
    out = np.empty_like(state)
    live = np.arange(n)
    for _ in range(FIXED_POINT_ITERS):
        m_zi, m_zn = state[:d], state[d:2 * d]
        q, k = _e_step_block(model.dynamics, m_zi, m_zn - m_zi)
        # B = I + sum_j q_j G_j, drift B m_zi, then q(z_next)'s mean
        b = _ordered_sum(gens[m, :, :, None] * q[m] for m in range(j))
        for a in range(d):
            b[a, a] += 1.0
        drift = _ordered_sum(b[:, c] * m_zi[c] for c in range(d))
        info_zn = wt_xn + _ordered_sum(omega_prec[a, :, None] * drift[a]
                                       for a in range(d))
        new_zn = _ordered_sum(gamma[c, :, None] * info_zn[c] for c in range(d))
        # q(z_i): precision S^-1 + B^T Omega^-1 B, information
        # W^T (x_i - mu) / sigma^2 + B^T Omega^-1 m_zn
        bt_oi = _ordered_sum(b[r, :, None] * omega_prec[r, :, None]
                             for r in range(d))
        prec = _ordered_sum(bt_oi[:, r, None] * b[r] for r in range(d))
        prec += model.latent_prec[:, :, None]
        new_zi, cov_zi = stacked_posterior(
            prec, info_u + _ordered_sum(bt_oi[:, c] * new_zn[c] for c in range(d)))
        new = np.vstack([new_zi, new_zn, q, cov_zi.reshape(d * d, -1),
                         k.reshape(j * j, -1)])
        state -= new
        residual = np.abs(state, out=state).max(axis=0)
        # a NaN stays live; its next factorization raises NumericError
        done, state = residual < FIXED_POINT_TOL, new
        if done.any():
            gone, kept = np.flatnonzero(done), np.flatnonzero(~done)
            out[:, live[gone]] = new.take(gone, axis=1)
            live, state, wt_xn, info_u = (a.take(kept, axis=-1)
                                          for a in (live, new, wt_xn, info_u))
        if live.size == 0:
            m_zi, m_zn, q, cov_zi, k = np.split(out, np.cumsum([d, d, j, d * d]))
            return (m_zi.T, cov_zi.reshape(d, d, n).transpose(2, 0, 1), m_zn.T,
                    np.broadcast_to(gamma, (n, d, d)), q.T,
                    k.reshape(j, j, n).transpose(2, 0, 1))
    raise NumericError(
        f"fixed-point E-step did not converge within {FIXED_POINT_ITERS} "
        f"iterations ({live.size} of {n} pairs still live, largest residual "
        f"{residual.max():.3e})")


def _next_frame(model: PpcaModel, zi: np.ndarray, lam: np.ndarray,
                xc_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``z_next`` integrated out at nodes ``(zi, lam)`` given the centred
    next frame ``xc_n``: with ``drift = z_i + A(z_i) lambda``, each node's
    ``log N(xc_n | W drift, R)``, ``R = sigma^2 I + W Omega W^T``, and
    ``E[z_next | node, x_next] = (W^T xc_n / sigma^2 + Omega^-1 drift)
    Gamma`` (``R`` and ``Gamma`` are the model's ``resid_chol`` factor
    and ``next_frame_cov``)."""
    w = model.loading
    drift = liealg.apply_first_order(model.dynamics.basis, lam, zi)
    return (cholesky_log_density(model.resid_chol, xc_n - drift @ w.T),
            (xc_n @ w / model.noise_var + drift @ model.dynamics.trans_prec)
            @ model.next_frame_cov)


def _quadrature_e_step(model: PpcaModel, x: np.ndarray, config: PpcaConfig
                       ) -> tuple[LatentMoments, float]:
    """Grid-exact moments of every pair, plus the sum over the pairs of
    ``log p(x_next | x_i)`` (the normalizers of the integrands).  Each
    pair's grid spans ``(z_i, lambda)``, ``d + J`` axes: the integrand is
    the ``z_i`` prior times the coefficient prior times the next frame's
    likelihood with ``z_next`` integrated out (:func:`_next_frame`)."""
    from .oracles import BoxTooSmallError, GridSpec, grid_posterior

    d, j = model.latent_dim, model.dynamics.coeff_count
    basis = model.dynamics.basis

    # center each box on the (cheap) mean-field solution; size it from the
    # marginal stds of the Gaussian over (z_i, lambda) with the transition
    # linearized at that solution (the factor stds alone understate
    # marginal spread when the transition couples the blocks tightly)
    mf_zi, _, _, _, mf_q, _ = _fixed_point_blocks(model, x)
    prior_means, prior_cov = posterior_z_given_x(model, x[0])
    zi_chol = spd_cholesky(prior_cov)
    lam_chol = model.dynamics.coeff_prior_chol
    prior = np.zeros((d + j, d + j))
    prior[:d, :d] = model.latent_prec
    prior[d:, d:] = model.dynamics.coeff_prior_prec
    # the precision W^T R^-1 W of the drift, by the matrix inversion lemma
    omega_prec, gamma = model.dynamics.trans_prec, model.next_frame_cov
    drift_prec = omega_prec - omega_prec @ gamma @ omega_prec

    parts, log_norm = [], 0.0
    for prior_mean, xc_n, m_zi, q in zip(
            prior_means, x[1] - model.data_mean, mf_zi, mf_q):
        jac = np.hstack([np.eye(d) + liealg.combine(basis, q),
                         liealg.assemble_A(basis, m_zi)])
        stds = GRID_INFLATION * np.sqrt(np.diag(cholesky_inverse(
            spd_cholesky(prior + jac.T @ drift_prec @ jac))))
        center = np.concatenate([m_zi, q])
        found = {}   # E[z_next | node, x_next] on the last grid evaluated

        def log_target(nodes):
            zi, lam = nodes[:, :d], nodes[:, d:]
            log_lik, found["m_zn"] = _next_frame(model, zi, lam, xc_n)
            return (cholesky_log_density(zi_chol, zi - prior_mean)
                    + cholesky_log_density(lam_chol, lam) + log_lik)

        # the boundary-mass diagnostic governs the box: widen and retry
        # when the linearized sizing underestimates the posterior spread
        for attempt in range(3):
            half = GRID_SIGMAS * stds * 2.0 ** attempt
            grid = GridSpec(center - half, center + half,
                            np.full(d + j, config.grid_points))
            try:
                post = grid_posterior(log_target, grid)
                break
            except BoxTooSmallError:
                if attempt == 2:
                    raise
        parts.append(_weighted_moments(post.probs, post.nodes[:, :d],
                                       post.nodes[:, d:], found["m_zn"], gamma))
        log_norm += post.log_norm
    return _stack_moments(parts), log_norm


def _monte_carlo_e_step(model: PpcaModel, x: np.ndarray, config: PpcaConfig,
                        streams) -> tuple[LatentMoments, float]:
    """Self-normalized sampling from ``q(z_i | x_i) p(lambda)``, weighted
    by the next frame's likelihood with ``z_next`` integrated out in
    closed form per draw (:func:`_next_frame`); pair ``k`` draws from the
    random streams of ``config.seed`` keyed by ``streams[k]``.  Returns
    the moments and the sum over the pairs of ``log mean(w)``, the
    importance-sampling estimate of ``log p(x_next | x_i)`` from the
    same weights."""
    d, j = model.latent_dim, model.dynamics.coeff_count
    s, seed = config.mc_samples, config.seed

    prior_means, prior_cov = posterior_z_given_x(model, x[0])
    zi_chol = spd_cholesky(prior_cov)
    lam_chol = model.dynamics.coeff_prior_chol
    parts, log_evidence = [], 0.0
    for prior_mean, xc_n, stream in zip(prior_means, x[1] - model.data_mean,
                                        streams):
        zi = prior_mean + rng.normal_matrix(
            seed, (_TAG_MC_Z, *stream), (s, d)) @ zi_chol.T
        lam = rng.normal_matrix(seed, (_TAG_MC_LAM, *stream), (s, j)) \
            @ lam_chol.T
        log_w, m_zn = _next_frame(model, zi, lam, xc_n)
        probs = np.exp(log_w - log_w.max())
        log_evidence += log_w.max() + np.log(probs.sum() / s)
        probs /= probs.sum()
        ess = float(1.0 / np.sum(probs ** 2))
        if ess < 0.01 * s:
            raise NumericError(f"monte-carlo E-step degenerate "
                               f"(effective sample size {ess:.1f} of {s})")
        parts.append(_weighted_moments(probs, zi, lam, m_zn, model.next_frame_cov))
    return _stack_moments(parts), float(log_evidence)


# ---------------------------------------------------------------------------
# M-steps


def m_step_mu(dataset: ImagePairDataset) -> np.ndarray:
    """Average of all 2N frames."""
    return 0.5 * (dataset.x_i.mean(axis=0) + dataset.x_next.mean(axis=0))


def m_step_W(xc: np.ndarray, moments: LatentMoments) -> np.ndarray:
    """Loading update from both frames' cross moments with the centred
    frame stack ``xc`` ``(2, N, D)``, via a linear solve."""
    if moments.count != xc.shape[1]:
        raise ValueError("need exactly one moment bundle per pair")
    num = (xc.swapaxes(1, 2) @ moments.ez).sum(axis=0)
    gram = moments.ezz.sum(axis=0).sum(axis=0)
    try:
        return np.linalg.solve(symmetrize(gram), num.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"singular latent Gram matrix in loading update "
            f"(condition number {np.linalg.cond(gram):.3e})") from exc


def _residual_power(xc: np.ndarray, moments: LatentMoments,
                    w: np.ndarray) -> float:
    """Expected reconstruction power ``sum E||x - mu - W z||^2`` over the
    centred frame stack ``xc`` ``(2, N, D)``; one stack temporary at a time."""
    power = _frame_sum(xc * xc)
    proj = moments.ez @ w.T
    proj *= xc
    return float(power - 2.0 * _frame_sum(proj)
                 + float(np.einsum("ab,nab->", w.T @ w, moments.ezz.sum(axis=0))))


def m_step_sigma(power: float, observations: int) -> float:
    """Isotropic noise update: the expected residual power of both frames
    of every pair (:func:`_residual_power`), averaged over the ``2N D``
    scalar ``observations`` and clamped at ``1e-12``."""
    return max(power / observations, SIGMA_FLOOR)


# The dynamics M-step is the shared ``m_step_dynamics`` of
# :mod:`lieflow.dynamics` applied to ``LatentMoments.transition``:
# the fixed-representation normal equations with expectations over
# (z, lambda) substituted.


# ---------------------------------------------------------------------------
# Objective


def _first_frame_evidence(model: PpcaModel, xc_i: np.ndarray) -> float:
    """``sum_i log N(x_i | mu, W W^T + sigma^2 I)``."""
    cov = model.loading @ model.loading.T \
        + model.noise_var * np.eye(model.data_dim)
    return float(np.sum(cholesky_log_density(spd_cholesky(cov), xc_i)))


def _entropy(eigs: np.ndarray) -> np.ndarray:
    """Gaussian entropies of a stack of covariances from their eigenvalues."""
    return 0.5 * (eigs.shape[-1] * (1.0 + LOG_2PI)
                  + np.log(np.maximum(eigs, 1e-300)).sum(axis=-1))


def expected_complete_data_ll(model: PpcaModel, moments: LatentMoments,
                              power: float) -> float:
    """Expected complete-data log-likelihood (two-frame factorization) of
    a centred frame stack ``(2, N, D)`` under the expectation bundle,
    summed over the pairs, given the stack's expected residual ``power``
    under the model's loading (:func:`_residual_power`).  The transition
    and coefficient-prior terms are
    :func:`lieflow.dynamics.expected_log_density` of the summed
    statistics, with the prior counted for all ``N`` pairs, or for none
    in a frozen bundle (all coefficient moments zero; every other backend
    gives each pair a positive-definite coefficient block)."""
    n, sig2 = moments.count, model.noise_var
    recon = -0.5 * (2 * n * model.data_dim * np.log(2.0 * np.pi * sig2)
                    + power / sig2)
    prior_zi = -0.5 * (n * model.latent_dim * LOG_2PI
                       + np.trace(moments.ezz[0], axis1=1, axis2=2).sum())
    return float(recon + prior_zi
                 + expected_log_density(
                     model.dynamics, moments.transition,
                     n if np.any(moments.elamlam) else 0))


def mean_field_elbo(model: PpcaModel, moments: LatentMoments,
                    power: float) -> float:
    """Evidence lower bound of the factorized posterior: expected
    complete-data log-likelihood (:func:`expected_complete_data_ll` of the
    residual power ``power``) plus the Gaussian block entropies.

    A frozen bundle (all coefficient moments zero) contributes neither
    the coefficient priors nor their entropies.
    """
    eig_z, eig_lam = moments._eigs
    frame_i, frame_n = _entropy(eig_z)
    lam = _entropy(eig_lam) if np.any(moments.elamlam) else 0.0
    entropies = frame_i + frame_n + lam
    return expected_complete_data_ll(model, moments, power) + float(entropies.sum())


# ---------------------------------------------------------------------------
# Fit


def init_loading(dataset: ImagePairDataset, latent_dim: int,
                 mu: np.ndarray) -> tuple[np.ndarray, float]:
    """Deterministic start: dominant right singular vectors of the pooled
    centered frames, scaled by the singular values; noise variance from
    the mean residual variance."""
    if not 1 <= latent_dim <= dataset.image_dim:
        raise ValueError(f"latent dimension {latent_dim} must lie in "
                         f"[1, {dataset.image_dim}] (the data dimension)")
    stacked = dataset.frames.reshape(-1, dataset.image_dim) - mu
    n2 = stacked.shape[0]
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    v = liealg._fix_signs(vt[:latent_dim]).T
    w = v * (svals[:latent_dim] / np.sqrt(n2))
    tail = svals[latent_dim:] ** 2
    dof = max(dataset.image_dim - latent_dim, 1)
    sigma2 = float(tail.sum() / (n2 * dof)) if tail.size else SIGMA_FLOOR
    return w, max(sigma2, SIGMA_FLOOR)


def _e_step_dataset(model: PpcaModel, dataset: ImagePairDataset,
                    config: PpcaConfig) -> tuple[LatentMoments, float | None]:
    """All-pair moments of the backend ``config.estep`` plus, for the
    quadrature and Monte Carlo backends, their estimate of the conditional
    evidence ``sum_i log p(x_next | x_i)``."""
    x = dataset.frames
    if config.estep == "quadrature":
        return _quadrature_e_step(model, x, config)
    if config.estep == "monte_carlo":
        return _monte_carlo_e_step(model, x, config,
                                   [(i,) for i in range(dataset.count)])
    blocks = (_frozen_coefficient_blocks if config.freeze_coefficients
              else _fixed_point_blocks)
    parts = map_blocks(lambda a, b: blocks(model, x[:, a:b]),
                       dataset.count, config.threads)
    return _moments_from_blocks(*(np.concatenate(arrays)
                                  for arrays in zip(*parts))), None


def fit(dataset: ImagePairDataset, config: PpcaConfig
        ) -> tuple[PpcaModel, list[float]]:
    """Joint EM: the expectation bundle, then closed-form updates of W and
    sigma^2 and the shared dynamics update
    (:func:`lieflow.dynamics.update_step`).

    The traced objective is the model evidence of both frames, the first
    frame's in closed form: for the quadrature and Monte Carlo E-steps
    the next frame's evidence is their estimate (the quadrature
    normalizers, or the log mean importance weights), recorded at the
    parameters the E-step used; for the fixed-point E-step the objective
    is the mean-field lower bound, recorded after each M-step before
    orthogonalization.
    """
    if config.estep not in E_STEP_METHODS:
        raise ValueError(f"unknown E-step method {config.estep!r}")
    if config.freeze_coefficients and config.estep != "fixed_point":
        raise ValueError(f"freeze_coefficients needs the fixed_point E-step, "
                         f"not {config.estep!r}")
    d = config.latent_dim
    mu = m_step_mu(dataset)
    w, sigma2 = init_loading(dataset, d, mu)
    dyn = init_model(d, config.j_init, config.seed)
    dyn = DynamicsModel(dyn.basis, config.init_omega_scale * np.eye(d),
                        dyn.coeff_prior_cov)
    model = PpcaModel(w, mu, sigma2, dyn)
    xc = dataset.frames - mu   # mu is fixed for the whole fit
    trace: list[float] = []
    for _ in range(config.max_iters):
        moments, evidence = _e_step_dataset(model, dataset, config)
        if evidence is not None:
            trace.append(_first_frame_evidence(model, xc[0]) + evidence)
        w = m_step_W(xc, moments)
        # one residual power for sigma^2 and the mean-field bound
        power = _residual_power(xc, moments, w)
        sigma2 = m_step_sigma(power, xc.size)
        dyn = next_dyn = model.dynamics
        if not config.freeze_coefficients:
            dyn, next_dyn, _ = update_step(dyn, moments.transition,
                                           config.estimate_lambda, True)
        if evidence is None:
            trace.append(mean_field_elbo(PpcaModel(w, mu, sigma2, dyn),
                                         moments, power))
        model = PpcaModel(w, mu, sigma2, next_dyn)
        if converged(trace, config.tol):
            break
    return model, trace
