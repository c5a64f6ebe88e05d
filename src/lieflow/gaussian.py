"""Closed-form algebra for linear-Gaussian models.

Marginal, posterior and joint distributions for a Gaussian prior pushed
through a linear-Gaussian map, plus conditionals of partitioned joint
Gaussians.  All covariances are full symmetric matrices and every
density or posterior is computed through a symmetric positive-definite
factorization; an explicit matrix inverse is never formed outside of a
Cholesky solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND_LIMIT = 1e12
SYM_RTOL = 1e-12
LOG_2PI = float(np.log(2.0 * np.pi))


class NumericError(ValueError):
    """A matrix failed an SPD, conditioning or finiteness requirement."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def default_jitter(cov: np.ndarray, scale: float = 1e-9) -> float:
    """Opt-in diagonal jitter, ``scale * trace / n``."""
    n = cov.shape[0]
    return scale * float(np.trace(cov)) / n


def spd_cholesky(m: np.ndarray, jitter: float = 0.0,
                 cond_limit: float = COND_LIMIT):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The matrix is symmetrized and ``jitter`` is added to the diagonal
    before factorization.  Raises :class:`NumericError` if the matrix is
    not positive definite or its condition number exceeds ``cond_limit``.
    """
    a = symmetrize(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    if jitter:
        a = a + jitter * np.eye(a.shape[0])
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0.0:
        raise NumericError(f"matrix not positive definite (min eigenvalue {eigs[0]:.3e})")
    cond = eigs[-1] / eigs[0]
    if cond > cond_limit:
        raise NumericError(f"matrix condition number {cond:.3e} exceeds limit {cond_limit:.1e}")
    return np.linalg.cholesky(a)


def triangular_solve(chol: np.ndarray, b: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
    """Solve ``L x = b`` by forward substitution, or ``L^T x = b`` by back
    substitution, for a lower triangular ``L`` and a right-hand side of
    shape ``(d,)`` or ``(d, m)``.

    Each step divides one row by its pivot and subtracts it, scaled by
    the pivot's column of ``L``, from the rows still to be solved.  These
    are elementwise operations, so every column of ``x`` depends on its
    own column of ``b`` alone, bit for bit.
    """
    x = np.array(b, dtype=float)
    rows = x if x.ndim == 2 else x[:, None]
    d = chol.shape[0]
    for i in (range(d - 1, -1, -1) if transpose else range(d)):
        rows[i] /= chol[i, i]
        if transpose:
            rows[:i] -= chol[i, :i, None] * rows[i]
        else:
            rows[i + 1:] -= chol[i + 1:, i, None] * rows[i]
    return x


def spd_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor of ``A``."""
    return triangular_solve(chol, triangular_solve(chol, b), transpose=True)


def stacked_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack ``(N, J, J)`` of symmetric
    positive-definite matrices, one column at a time for the whole stack.

    Each step scales a pivot's column by its root and subtracts that
    column's outer product from the trailing block.  These are
    elementwise operations, so every factor depends on its own matrix
    alone, bit for bit.  Raises :class:`NumericError` if a pivot is not
    positive.
    """
    work = np.array(m, dtype=float)
    for k in range(work.shape[-1]):
        pivot = work[:, k, k]
        if not (pivot > 0.0).all():
            raise NumericError(
                f"{int(np.sum(~(pivot > 0.0)))} of {pivot.shape[0]} stacked "
                f"matrices not positive definite")
        work[:, k, k] = np.sqrt(pivot)
        work[:, k, k + 1:] = 0.0
        col = work[:, k + 1:, k]
        col /= work[:, k, k, None]
        work[:, k + 1:, k + 1:] -= col[:, :, None] * col[:, None, :]
    return work


def stacked_forward_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L_n x_n = b_n`` by forward substitution for a stack of
    lower triangular ``L`` ``(N, J, J)`` and right-hand sides ``(N, J)`` or
    ``(N, J, m)``, elementwise over the stack like :func:`triangular_solve`."""
    x = np.array(b, dtype=float)
    rows = x if x.ndim == 3 else x[..., None]
    for i in range(chol.shape[-1]):
        rows[:, i] /= chol[:, i, i, None]
        rows[:, i + 1:] -= chol[:, i + 1:, i, None] * rows[:, i, None]
    return x


def cholesky_log_density(chol: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Log density of ``N(0, L L^T)`` at each row of ``diffs`` (shape
    ``(m, k)``), given the lower Cholesky factor ``L``."""
    white = triangular_solve(chol, diffs.T)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (chol.shape[0] * LOG_2PI + log_det
                   + np.sum(white * white, axis=0))


def cholesky_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix given its lower Cholesky factor."""
    return symmetrize(spd_solve(chol, np.eye(chol.shape[0])))


def spd_inverse(m: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """Inverse of an SPD matrix via its Cholesky factorization."""
    return cholesky_inverse(spd_cholesky(m, jitter=jitter))


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
