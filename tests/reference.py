"""Reference implementations the tests compare the library against.

The estimators compute every Gaussian posterior they need in batched
form (``dynamics._e_step_block``, ``ppca.posterior_z_given_x``) and
run none of the code here.  This module keeps the slower, independent
versions that check them:

- a second linear-Gaussian algebra: :class:`Gaussian` and
  :class:`LinearGaussianMap` objects with their marginal, posterior,
  joint and partitioned conditional, and log densities;
- the stacked coefficient precisions of ``dynamics._gram_precision``
  by substitution and a matrix product (:func:`pair_precision`);
- the whitened pair Gram of ``dynamics._white_gram`` in its earlier
  block form, every whitened column at once (:func:`block_white_gram`);
- the ppca fixed-point sweep in its pair-first form, with stacked
  matrix products (:func:`pair_first_fixed_point_blocks`), and in its
  gather form, which re-gathers the live pairs every sweep
  (:func:`gather_fixed_point_blocks`);
- the moment bundle's PSD check and the bound's entropies in their
  eigenvalue form (:func:`eigen_psd_check`, :func:`eigen_entropy`);
- the one-pair forms of the E-steps: the coefficient posterior of one
  latent pair (:func:`e_step_lambda`), the next-frame conditional of
  probabilistic PCA (:func:`posterior_znext`) and the joint expectation
  bundle of one image pair under any backend (:func:`e_step_joint`);
- brute-force numerical ground truth: grid moments
  (:func:`quadrature_moments`, with the grid helpers :func:`grid_cube`,
  :func:`grid_dims` and :func:`grid_expect`), self-normalized importance sampling
  (:func:`mc_moments`) and central finite differences
  (:func:`finite_difference_gradient`);
- the flat parameter vector of an npca model (:func:`flat_parameters`,
  :func:`unflatten`), the layout the finite-difference checks perturb.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lieflow import dynamics, gaussian, liealg, rng
from lieflow.dynamics import DynamicsModel
from lieflow.gaussian import (
    LOG_2PI,
    NumericError,
    _ordered_sum,
    cholesky_inverse,
    cholesky_log_density,
    spd_cholesky,
    spd_solve,
    symmetrize,
    triangular_solve,
)
from lieflow.npca import NpcaModel, assemble, named_parameters
from lieflow.oracles import GridPosterior, GridSpec, grid_posterior
from lieflow.ppca import (
    E_STEP_METHODS,
    FIXED_POINT_ITERS,
    FIXED_POINT_TOL,
    LatentMoments,
    PpcaConfig,
    PpcaModel,
    _fixed_point_blocks,
    _frame_posteriors,
    _moments_from_blocks,
    _monte_carlo_e_step,
    _quadrature_e_step,
    posterior_z_given_x,
)

SYM_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Linear-Gaussian algebra


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Gaussian:
    """A multivariate normal with mean vector and SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.mean))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("mean must be a vector and cov a square matrix")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions disagree")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > SYM_RTOL * scale:
            raise NumericError("covariance is not symmetric")
        spd_cholesky(cov)  # validates positive definiteness / conditioning
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _readonly(symmetrize(cov)))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class LinearGaussianMap:
    """``y = A x + b + noise`` with Gaussian noise of covariance ``noise_cov``."""

    weight: np.ndarray
    offset: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        weight = _readonly(np.atleast_2d(self.weight))
        offset = _readonly(np.atleast_1d(self.offset))
        noise = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if weight.shape[0] != offset.shape[0] or noise.shape != (offset.shape[0],) * 2:
            raise ValueError("weight rows, offset length and noise dimension must agree")
        scale = max(1.0, float(np.abs(noise).max()))
        if np.abs(noise - noise.T).max() > SYM_RTOL * scale:
            raise NumericError("noise covariance is not symmetric")
        spd_cholesky(noise)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "noise_cov", _readonly(symmetrize(noise)))

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def _check_compatible(prior: Gaussian, lin_map: LinearGaussianMap):
    if lin_map.in_dim != prior.dim:
        raise ValueError(f"map expects dimension {lin_map.in_dim}, prior has {prior.dim}")


def marginal(prior: Gaussian, lin_map: LinearGaussianMap) -> Gaussian:
    """Distribution of ``y = A x + b + noise`` for ``x`` from the prior."""
    _check_compatible(prior, lin_map)
    a = lin_map.weight
    mean = a @ prior.mean + lin_map.offset
    cov = lin_map.noise_cov + a @ prior.cov @ a.T
    return Gaussian(mean, symmetrize(cov))


def posterior(prior: Gaussian, lin_map: LinearGaussianMap,
              observation: np.ndarray) -> Gaussian:
    """Posterior of ``x`` given an observation of ``y = A x + b + noise``.

    Assembles the posterior precision ``prior_prec + A^T noise_prec A``
    and solves through its Cholesky factor.
    """
    _check_compatible(prior, lin_map)
    y = np.atleast_1d(np.asarray(observation, dtype=float))
    if y.shape != (lin_map.out_dim,):
        raise ValueError("observation length does not match map output dimension")
    a = lin_map.weight
    prior_chol = spd_cholesky(prior.cov)
    noise_chol = spd_cholesky(lin_map.noise_cov)
    prior_prec = spd_solve(prior_chol, np.eye(prior.dim))
    noise_prec_a = spd_solve(noise_chol, a)
    precision = prior_prec + a.T @ noise_prec_a
    info = a.T @ spd_solve(noise_chol, y - lin_map.offset) + prior_prec @ prior.mean
    try:
        prec_chol = spd_cholesky(precision)
    except NumericError as exc:
        raise NumericError(f"singular precision assembly: {exc}") from exc
    cov = symmetrize(spd_solve(prec_chol, np.eye(prior.dim)))
    mean = spd_solve(prec_chol, info)
    return Gaussian(mean, cov)


def joint(prior: Gaussian, lin_map: LinearGaussianMap) -> Gaussian:
    """Joint Gaussian over the stacked vector ``(x, y)``."""
    _check_compatible(prior, lin_map)
    a = lin_map.weight
    n, m = prior.dim, lin_map.out_dim
    cross = prior.cov @ a.T
    cov = np.empty((n + m, n + m))
    cov[:n, :n] = prior.cov
    cov[:n, n:] = cross
    cov[n:, :n] = cross.T
    cov[n:, n:] = lin_map.noise_cov + a @ cross
    mean = np.concatenate([prior.mean, a @ prior.mean + lin_map.offset])
    return Gaussian(mean, symmetrize(cov))


def condition_partitioned(joint_dist: Gaussian, observed_indices,
                          observed_values: np.ndarray) -> Gaussian:
    """Condition a joint Gaussian on an observed index subset.

    Uses the precision-partition form: with precision blocks
    ``P_aa, P_ab`` over kept/observed indices, the conditional is
    ``N(mu_a - P_aa^{-1} P_ab (x_b - mu_b), P_aa^{-1})``.
    """
    idx = np.atleast_1d(np.asarray(observed_indices, dtype=int))
    values = np.atleast_1d(np.asarray(observed_values, dtype=float))
    n = joint_dist.dim
    if idx.size == 0 or idx.size >= n:
        raise ValueError("observed index set must be a nonempty proper subset")
    if np.unique(idx).size != idx.size or idx.min() < 0 or idx.max() >= n:
        raise ValueError("observed indices must be unique and in range")
    if values.shape != idx.shape:
        raise ValueError("observed values length must match index count")
    keep = np.setdiff1d(np.arange(n), idx)
    chol = spd_cholesky(joint_dist.cov)
    precision = spd_solve(chol, np.eye(n))
    p_aa = precision[np.ix_(keep, keep)]
    p_ab = precision[np.ix_(keep, idx)]
    aa_chol = spd_cholesky(p_aa)
    shift = spd_solve(aa_chol, p_ab @ (values - joint_dist.mean[idx]))
    cov = symmetrize(spd_solve(aa_chol, np.eye(keep.size)))
    return Gaussian(joint_dist.mean[keep] - shift, cov)


def log_density(dist: Gaussian, point: np.ndarray) -> float:
    """Exact Gaussian log density at ``point`` via the Cholesky factor."""
    x = np.atleast_1d(np.asarray(point, dtype=float))
    if x.shape != (dist.dim,):
        raise ValueError("point dimension does not match distribution")
    return float(cholesky_log_density(spd_cholesky(dist.cov),
                                      (x - dist.mean)[None])[0])


def log_density_batch(dist: Gaussian, points: np.ndarray) -> np.ndarray:
    """Log density at each row of ``points`` (shape ``(m, dim)``)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return cholesky_log_density(spd_cholesky(dist.cov), pts - dist.mean)


# ---------------------------------------------------------------------------
# One-pair E-steps


def e_step_lambda(model: DynamicsModel, z_i: np.ndarray,
                  z_next: np.ndarray) -> Gaussian:
    """Exact coefficient posterior ``N(q, K)`` for one pair.

    This is the linear-Gaussian posterior with prior ``N(0, Lambda)``
    and observation ``delta_z = A lambda + noise``, delegated to the
    Gaussian algebra above.  The library uses the batched
    :func:`lieflow.dynamics.e_step_all` (a batch of one for a single
    pair); this is its test oracle.
    """
    zi = np.asarray(z_i, dtype=float)
    a = liealg.assemble_A(model.basis, zi)
    prior = Gaussian(np.zeros(model.coeff_count), model.coeff_prior_cov)
    lin = LinearGaussianMap(a, np.zeros(model.latent_dim), model.trans_cov)
    return posterior(prior, lin, np.asarray(z_next, dtype=float) - zi)


def pair_precision(model: DynamicsModel, z_i: np.ndarray, delta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked ``(P, b, delta^T Omega^{-1} delta)`` of
    :func:`lieflow.dynamics._gram_precision` by its earlier route: the
    columns of ``[A, delta]`` whitened by one substitution with
    ``L_Omega`` and their Gram matrices formed by a stacked ``@``."""
    j = model.coeff_count
    cols = np.concatenate([liealg.assemble_A(model.basis, z_i),
                           delta[:, :, None]], axis=2)
    n, d, _ = cols.shape
    white = triangular_solve(model.trans_chol,
                             cols.transpose(1, 0, 2).reshape(d, n * (j + 1)))
    white = white.reshape(d, n, j + 1).transpose(1, 0, 2)
    gram = white.swapaxes(1, 2) @ white
    return model.coeff_prior_prec + gram[:, :j, :j], gram[:, :j, j], gram[:, j, j]


def block_white_gram(model: DynamicsModel, z_cols: np.ndarray,
                     delta_cols: np.ndarray) -> np.ndarray:
    """:func:`lieflow.dynamics._white_gram` in its earlier block form: the
    whole ``(J+1, d, N)`` block of whitened columns of ``[A, delta]``,
    then the Gram as one fixed-order sum over the latent axis of their
    full ``(J+1, J+1, N)`` outer products.  The library's
    coordinate-at-a-time kernel must return these bits."""
    j, d, n = model.coeff_count, model.latent_dim, z_cols.shape[1]
    white_gens = model._white_generators
    cols = np.empty((j + 1, d, n))  # whitened [A, delta], pairs last
    cols[j] = triangular_solve(model.trans_chol, delta_cols)
    cols[:j] = _ordered_sum(white_gens[:, :, b, None] * z_cols[b] for b in range(d))
    return _ordered_sum(cols[:, None, a] * cols[None, :, a] for a in range(d))


def posterior_znext(model: PpcaModel, x_next: np.ndarray, z_i: np.ndarray,
                    lam: np.ndarray) -> Gaussian:
    """Conditional of the transformed latent given the next frame and
    ``(z_i, lambda)``: precision ``Omega^{-1} + sigma^{-2} W^T W``."""
    x_next = np.atleast_1d(np.asarray(x_next, dtype=float))
    z_i = np.atleast_1d(np.asarray(z_i, dtype=float))
    w = model.loading
    omega_prec = cholesky_inverse(model.dynamics.trans_chol)
    gamma_prec = omega_prec + (w.T @ w) / model.noise_var
    chol = spd_cholesky(gamma_prec)
    drift = z_i + liealg.assemble_A(model.dynamics.basis, z_i) @ np.atleast_1d(lam)
    info = w.T @ (x_next - model.data_mean) / model.noise_var + omega_prec @ drift
    mean = spd_solve(chol, info)
    cov = spd_solve(chol, np.eye(model.latent_dim))
    return Gaussian(mean, symmetrize(cov))


def solve_fixed_point_blocks(model: PpcaModel, x_i: np.ndarray,
                             x_n: np.ndarray) -> tuple[np.ndarray, ...]:
    """The mean-field fixed point of :func:`lieflow.ppca._fixed_point_blocks`
    computed the direct way: each sweep solves the stacked q(lambda) and
    q(z_i) precisions with ``np.linalg.solve`` (q(z_i) twice, for the
    covariance and the mean) and forms the other products as einsums."""
    w = model.loading
    d, j = model.latent_dim, model.dynamics.coeff_count
    n = x_i.shape[0]
    basis = model.dynamics.basis
    sig2 = model.noise_var

    (u_i, u_n), ppca_cov = posterior_z_given_x(model, np.stack([x_i, x_n]))
    ppca_prec = cholesky_inverse(spd_cholesky(ppca_cov))
    omega_prec = cholesky_inverse(model.dynamics.trans_chol)
    lam_prec = cholesky_inverse(model.dynamics.coeff_prior_chol)
    gamma_prec = omega_prec + (w.T @ w) / sig2
    gamma = symmetrize(spd_solve(spd_cholesky(gamma_prec), np.eye(d)))
    wt_xn = (x_n - model.data_mean) @ w / sig2
    info_u = u_i @ ppca_prec

    all_zi, all_zn, all_q = u_i.copy(), u_n.copy(), np.zeros((n, j))
    all_cov_zi = np.broadcast_to(ppca_cov, (n, d, d)).copy()
    all_k = np.broadcast_to(model.dynamics.coeff_prior_cov, (n, j, j)).copy()
    eye_j, eye_d = np.eye(j), np.eye(d)
    live = np.arange(n)
    for _ in range(FIXED_POINT_ITERS):
        m_zi, m_zn = all_zi[live], all_zn[live]
        a = liealg.assemble_A(basis, m_zi)
        at_oi = np.einsum("naj,ab->njb", a, omega_prec)
        prec = lam_prec + np.einsum("njb,nbk->njk", at_oi, a)
        k = symmetrize(np.linalg.solve(prec, np.broadcast_to(eye_j, prec.shape)))
        q = np.einsum("njk,nk->nj", k, np.einsum("njb,nb->nj", at_oi, m_zn - m_zi))
        drift = m_zi + np.einsum("naj,nj->na", a, q)
        new_zn = np.einsum("nb,bc->nc", wt_xn[live]
                           + np.einsum("na,ab->nb", drift, omega_prec), gamma)
        b = eye_d + liealg.combine(basis, q)
        bt_oi = np.einsum("nca,cd->nad", b, omega_prec)
        prec_zi = ppca_prec + np.einsum("nad,ndb->nab", bt_oi, b)
        info_zi = info_u[live] + np.einsum("nad,nd->na", bt_oi, new_zn)
        cov_zi = symmetrize(np.linalg.solve(prec_zi,
                                            np.broadcast_to(eye_d, prec_zi.shape)))
        new_zi = np.linalg.solve(prec_zi, info_zi[..., None])[..., 0]
        residual = np.max([np.abs(new - old).reshape(live.size, -1).max(axis=1)
                           for new, old in ((new_zi, m_zi), (new_zn, m_zn),
                                            (q, all_q[live]),
                                            (cov_zi, all_cov_zi[live]),
                                            (k, all_k[live]))], axis=0)
        all_zi[live], all_zn[live], all_q[live] = new_zi, new_zn, q
        all_cov_zi[live], all_k[live] = cov_zi, k
        live = live[~(residual < FIXED_POINT_TOL)]
        if live.size == 0:
            return (all_zi, all_cov_zi, all_zn, np.broadcast_to(gamma, (n, d, d)),
                    all_q, all_k)
    raise NumericError(
        f"fixed-point E-step did not converge within {FIXED_POINT_ITERS} "
        f"iterations (residual {residual.max():.3e})")


def _e_step_block(model: DynamicsModel, z_i: np.ndarray,
                  delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lieflow.dynamics._e_step_block` with the pair axis first:
    pairs ``(N, d)``, means ``(N, J)`` and covariances ``(N, J, J)``."""
    mean, cov = dynamics._e_step_block(model, z_i.T, delta.T)
    return mean.T, cov.transpose(2, 0, 1)


def stacked_posterior(prec: np.ndarray, info: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lieflow.gaussian.stacked_posterior` with the stack axis
    first: precisions ``(N, J, J)`` and information ``(N, J)``."""
    mean, cov = gaussian.stacked_posterior(prec.transpose(1, 2, 0), info.T)
    return mean.T, cov.transpose(2, 0, 1)


def pair_first_fixed_point_blocks(model: PpcaModel, xc: np.ndarray
                                  ) -> tuple[np.ndarray, ...]:
    """The sweep of :func:`lieflow.ppca._fixed_point_blocks` in its
    earlier pair-first form: one row per pair, ``B`` from
    :func:`lieflow.liealg.combine`, and ``B^T Omega^-1`` and
    ``B^T Omega^-1 B`` as stacked ``@`` products, one BLAS call per pair.
    Its coefficient and q(z_i) posteriors are the library's, read pair
    first, so each pair gets the bits the pair-first sweep gave it.
    """
    d, j = model.latent_dim, model.dynamics.coeff_count
    n = xc.shape[1]
    basis = model.dynamics.basis

    # both frames' latent posteriors: information W^T (x - mu) / sigma^2
    # and means (their shared precision and covariance are the model's)
    (info_u, wt_xn), (u_i, u_n) = _frame_posteriors(model, xc)
    omega_prec, gamma = model.dynamics.trans_prec, model.next_frame_cov

    # one row per pair: m_zi, m_zn, q, cov_zi, k
    state = np.hstack([u_i, u_n, np.zeros((n, j)),
                       np.tile(model.latent_cov.ravel(), (n, 1)),
                       np.tile(model.dynamics.coeff_prior_cov.ravel(), (n, 1))])
    live = np.arange(n)
    for _ in range(FIXED_POINT_ITERS):
        old = state[live]
        m_zi, m_zn = old[:, :d], old[:, d:2 * d]
        q, k = _e_step_block(model.dynamics, m_zi, m_zn - m_zi)
        b = np.eye(d) + liealg.combine(basis, q)
        drift = np.einsum("nab,nb->na", b, m_zi)
        new_zn = np.einsum("nb,bc->nc", wt_xn[live]
                           + np.einsum("na,ab->nb", drift, omega_prec), gamma)
        bt_oi = b.swapaxes(1, 2) @ omega_prec
        new_zi, cov_zi = stacked_posterior(
            model.latent_prec + bt_oi @ b,
            info_u[live] + np.einsum("nad,nd->na", bt_oi, new_zn))
        new = np.hstack([new_zi, new_zn, q, cov_zi.reshape(live.size, -1),
                         k.reshape(live.size, -1)])
        residual = np.abs(new - old).max(axis=1)
        state[live] = new
        # a NaN stays live; its next factorization raises NumericError
        live = live[~(residual < FIXED_POINT_TOL)]
        if live.size == 0:
            m_zi, m_zn, q, cov_zi, k = np.split(
                state, np.cumsum([d, d, j, d * d]), axis=1)
            return (m_zi, cov_zi.reshape(n, d, d), m_zn,
                    np.broadcast_to(gamma, (n, d, d)), q, k.reshape(n, j, j))
    raise NumericError(
        f"fixed-point E-step did not converge within {FIXED_POINT_ITERS} "
        f"iterations (residual {residual.max():.3e})")


def gather_fixed_point_blocks(model: PpcaModel, xc: np.ndarray
                              ) -> tuple[np.ndarray, ...]:
    """The sweep of :func:`lieflow.ppca._fixed_point_blocks` in its
    earlier gather form: every sweep gathers the live pairs' columns of the
    state and of the two information rows into new arrays and scatters
    the new columns back into the full state.  The same algebra on the
    same columns, so each pair gets the same bits as in the retiring
    sweep.
    """
    d, j = model.latent_dim, model.dynamics.coeff_count
    n = xc.shape[1]
    gens = model.dynamics.basis.generators

    # both frames' latent posteriors: information W^T (x - mu) / sigma^2
    # and means (their shared precision and covariance are the model's)
    (info_u, wt_xn), (u_i, u_n) = _frame_posteriors(model, xc)
    info_u, wt_xn = info_u.T, wt_xn.T
    omega_prec, gamma = model.dynamics.trans_prec, model.next_frame_cov

    # one column per pair: rows m_zi, m_zn, q, cov_zi, k
    state = np.vstack([u_i.T, u_n.T, np.zeros((j, n)),
                       np.broadcast_to(model.latent_cov.reshape(-1, 1), (d * d, n)),
                       np.broadcast_to(model.dynamics.coeff_prior_cov.reshape(-1, 1),
                                       (j * j, n))])
    live = np.arange(n)
    for _ in range(FIXED_POINT_ITERS):
        old = state[:, live]
        m_zi, m_zn = old[:d], old[d:2 * d]
        q, k = dynamics._e_step_block(model.dynamics, m_zi, m_zn - m_zi)
        # B = I + sum_j q_j G_j, drift B m_zi, then q(z_next)'s mean
        b = _ordered_sum(gens[m, :, :, None] * q[m] for m in range(j))
        for a in range(d):
            b[a, a] += 1.0
        drift = _ordered_sum(b[:, c] * m_zi[c] for c in range(d))
        info_zn = wt_xn[:, live] + _ordered_sum(omega_prec[a, :, None] * drift[a]
                                                for a in range(d))
        new_zn = _ordered_sum(gamma[c, :, None] * info_zn[c] for c in range(d))
        # q(z_i): precision S^-1 + B^T Omega^-1 B, information
        # W^T (x_i - mu) / sigma^2 + B^T Omega^-1 m_zn
        bt_oi = _ordered_sum(b[r, :, None] * omega_prec[r, :, None]
                             for r in range(d))
        prec = _ordered_sum(bt_oi[:, r, None] * b[r] for r in range(d))
        prec += model.latent_prec[:, :, None]
        new_zi, cov_zi = gaussian.stacked_posterior(
            prec, info_u[:, live] + _ordered_sum(bt_oi[:, c] * new_zn[c]
                                                 for c in range(d)))
        new = np.vstack([new_zi, new_zn, q, cov_zi.reshape(d * d, -1),
                         k.reshape(j * j, -1)])
        residual = np.abs(new - old).max(axis=0)
        state[:, live] = new
        # a NaN stays live; its next factorization raises NumericError
        live = live[~(residual < FIXED_POINT_TOL)]
        if live.size == 0:
            m_zi, m_zn, q, cov_zi, k = np.split(state, np.cumsum([d, d, j, d * d]))
            return (m_zi.T, cov_zi.reshape(d, d, n).transpose(2, 0, 1), m_zn.T,
                    np.broadcast_to(gamma, (n, d, d)), q.T,
                    k.reshape(j, j, n).transpose(2, 0, 1))
    raise NumericError(
        f"fixed-point E-step did not converge within {FIXED_POINT_ITERS} "
        f"iterations (residual {residual.max():.3e})")


def e_step_joint(model: PpcaModel, x_i: np.ndarray, x_next: np.ndarray,
                 method: str = "fixed_point", **settings) -> LatentMoments:
    """Expectation bundle (a batch of one) for one image pair under the
    joint posterior; ``settings`` are the E-step fields of
    :class:`lieflow.ppca.PpcaConfig` (``grid_points``, ``mc_samples``,
    ``seed``)."""
    if method not in E_STEP_METHODS:
        raise ValueError(f"unknown E-step method {method!r}")
    config = PpcaConfig(estep=method, **settings)
    xc = np.asarray([x_i, x_next], dtype=float)[:, None] - model.data_mean
    if method == "quadrature":
        return _quadrature_e_step(model, xc, config)[0]
    if method == "monte_carlo":
        return _monte_carlo_e_step(model, xc, config, [()])[0]
    return _moments_from_blocks(*_fixed_point_blocks(model, xc))


def eigen_psd_check(cov_z: np.ndarray, ezz: np.ndarray, cov_lam: np.ndarray,
                    elamlam: np.ndarray) -> None:
    """The PSD check of :class:`lieflow.ppca.LatentMoments` in its earlier
    eigenvalue form: each block's smallest eigenvalue must be at least
    ``-1e-8 max(1, max |second moment|)``.  A block with a NaN passes."""
    eig_z, eig_lam = np.linalg.eigvalsh(cov_z), np.linalg.eigvalsh(cov_lam)
    for eigs, ezz, label in (*zip(eig_z, ezz, ("z_i", "z_next")),
                             (eig_lam, elamlam, "lambda")):
        floor = -1e-8 * np.maximum(1.0, np.abs(ezz).max(axis=(1, 2)))
        if np.any(eigs[:, 0] < floor):
            raise NumericError(f"{label} moment block is not positive semidefinite")


def eigen_entropy(eigs: np.ndarray) -> np.ndarray:
    """Gaussian entropies of a stack of covariances from their eigenvalues
    (the earlier form of ``lieflow.ppca._entropy``)."""
    return 0.5 * (eigs.shape[-1] * (1.0 + LOG_2PI)
                  + np.log(np.maximum(eigs, 1e-300)).sum(axis=-1))


# ---------------------------------------------------------------------------
# Brute-force numerical ground truth


class EssTooLowError(NumericError):
    """Importance sampling collapsed onto too few effective samples."""


def grid_cube(lo: float, hi: float, points: int, dims: int) -> GridSpec:
    """The grid of ``points`` nodes per dimension on the cube
    ``[lo, hi]^dims``."""
    return GridSpec(np.full(dims, lo), np.full(dims, hi), np.full(dims, points))


def grid_dims(grid: GridSpec) -> int:
    """The number of dimensions of a grid."""
    return grid.lo.size


def grid_expect(post: GridPosterior, values: np.ndarray) -> np.ndarray:
    """E[f] under a grid posterior for per-node values of shape ``(m, ...)``."""
    return np.tensordot(post.probs, values, axes=(0, 0))


def quadrature_moments(log_density, grid: GridSpec):
    """Normalizer, mean and second-moment matrix of a density on a grid.

    Returns ``(log_norm, mean, second_moment, boundary_ratio)`` where
    ``second_moment = E[x x^T]``.
    """
    post = grid_posterior(log_density, grid)
    mean = grid_expect(post, post.nodes)
    second = np.einsum("m,ma,mb->ab", post.probs, post.nodes, post.nodes)
    return post.log_norm, mean, second, post.boundary_ratio


@dataclass(frozen=True)
class McMoments:
    mean: np.ndarray
    second_moment: np.ndarray
    ess: float
    log_norm: float


def mc_moments(log_unnormalized, proposal: Gaussian, samples: int,
               seed: int, ess_floor: float = 0.01) -> McMoments:
    """Self-normalized importance-sampling moments with an ESS diagnostic.

    Draws from ``proposal`` using the library's counter-based streams,
    weights by ``exp(log_unnormalized - log_proposal)`` and raises
    :class:`EssTooLowError` if the effective sample size drops below
    ``ess_floor * samples``.
    """
    dim = proposal.dim
    eps = rng.normals(seed, (0x4D43,), samples * dim).reshape(samples, dim)
    chol = spd_cholesky(proposal.cov)
    draws = proposal.mean + eps @ chol.T
    log_q = cholesky_log_density(chol, draws - proposal.mean)
    log_w = np.asarray(log_unnormalized(draws), dtype=float) - log_q
    shift = log_w.max()
    w = np.exp(log_w - shift)
    total = w.sum()
    probs = w / total
    ess = float(1.0 / np.sum(probs ** 2))
    if ess < ess_floor * samples:
        raise EssTooLowError(f"effective sample size {ess:.1f} of {samples}")
    mean = probs @ draws
    second = np.einsum("m,ma,mb->ab", probs, draws, draws)
    return McMoments(mean, second, ess, float(shift + np.log(total / samples)))


def finite_difference_gradient(f, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(point, dtype=float)
    grad = np.zeros_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step.flat[k] = h
        hi = f(x + step)
        lo = f(x - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError("function is non-finite at a finite-difference stencil point")
        grad.flat[k] = (hi - lo) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Flat npca parameters


def flat_parameters(model: NpcaModel) -> np.ndarray:
    """Every trainable tensor raveled into one vector, in layout order."""
    return np.concatenate([a.ravel() for _, a in named_parameters(model)])


def unflatten(model: NpcaModel, theta: np.ndarray) -> NpcaModel:
    """``model`` with its trainable tensors read from the flat vector
    ``theta`` (layout of :func:`flat_parameters`, copied)."""
    theta = np.array(theta, dtype=float)
    named, start = {}, 0
    for name, a in named_parameters(model):
        named[name] = theta[start:start + a.size].reshape(a.shape)
        start += a.size
    return assemble(named, len(model.encoder.weights) - 1,
                    len(model.decoder.weights), model.obs_noise_var,
                    model.dynamics)
