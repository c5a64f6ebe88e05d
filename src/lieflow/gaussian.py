"""Symmetric positive-definite factorizations and solvers.

Cholesky factors with SPD and conditioning checks, one triangular
substitution with its SPD solve, stacked factorizations, and the
Gaussian log density from a Cholesky factor.  The substitution and the
stacked factorization take plain arrays with the matrix axes first and
the stack axes last, ``(d, d, ...)``, so each step is an elementwise
operation over contiguous rows of pairs, and give every item the bits
of a lone call.  The
estimators assemble every linear-Gaussian posterior they need from
these in batched form; an explicit matrix inverse is never formed
outside of a Cholesky solve.  The dynamics E-step and the ppca
fixed-point sweep take their stacked posteriors from one factor per
precision (:func:`stacked_posterior`), whose covariances and means are
fixed-order elementwise sums over J with no matrix product over the
stack, returned C-ordered.  The per-distribution algebra
that checks them (marginal, posterior, joint, partitioned conditional)
is a test reference in ``tests/reference.py``.
"""
from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12
LOG_2PI = float(np.log(2.0 * np.pi))


class NumericError(ValueError):
    """A matrix failed an SPD, conditioning or finiteness requirement."""


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def default_jitter(cov: np.ndarray) -> float:
    """Diagonal jitter relative to the mean variance, ``1e-9 * trace / n``."""
    n = cov.shape[0]
    return 1e-9 * float(np.trace(cov)) / n


def spd_cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The matrix is symmetrized before factorization.  Raises
    :class:`NumericError` if the matrix is not positive definite or its
    condition number exceeds :data:`COND_LIMIT`.
    """
    a = symmetrize(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    eigs = np.linalg.eigvalsh(a)
    if eigs[0] <= 0.0:
        raise NumericError(f"matrix not positive definite (min eigenvalue {eigs[0]:.3e})")
    cond = eigs[-1] / eigs[0]
    if cond > COND_LIMIT:
        raise NumericError(f"matrix condition number {cond:.3e} exceeds limit {COND_LIMIT:.1e}")
    return np.linalg.cholesky(a)


def triangular_solve(chol: np.ndarray, b: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
    """Solve ``L x = b`` by forward substitution, or ``L^T x = b`` by back
    substitution, for lower triangular factors ``L`` ``(d, d, ...)``, the
    matrix axes first and any stack axes last.

    ``b`` holds one vector per factor, ``(d, ...)``, when it has one axis
    fewer than ``chol``; otherwise it is ``(d, m, ...)``.  A single
    factor ``(d, d)`` with a ``(d, m)`` right-hand side is the same code.
    Each step divides one row by its pivot and subtracts it, scaled by the
    pivot's column of ``L``, from the rows still to be solved.  These are
    elementwise operations over contiguous rows, so every column of ``x``
    depends on its own factor and column of ``b`` alone, bit for bit.
    """
    x = np.array(b, dtype=float)
    rows = x[:, None] if x.ndim < chol.ndim else x
    for i in (range(chol.shape[0] - 1, -1, -1) if transpose
              else range(chol.shape[0])):
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
    """Lower Cholesky factors of a stack ``(J, J, ...)`` of symmetric
    positive-definite matrices, the stack axes last, one column at a time
    for the whole stack.

    Each step scales a pivot's column by its root and subtracts that
    column's outer product from the trailing block.  These are
    elementwise operations over contiguous rows, so every factor depends
    on its own matrix alone, bit for bit.  Raises :class:`NumericError`
    if a pivot is not positive.
    """
    work = np.array(m, dtype=float)
    for k in range(work.shape[0]):
        pivot = work[k, k]
        if not (pivot > 0.0).all():
            raise NumericError(
                f"{int(np.sum(~(pivot > 0.0)))} of {pivot.size} stacked "
                f"matrices not positive definite")
        work[k, k] = np.sqrt(pivot)
        work[k, k + 1:] = 0.0
        col = work[k + 1:, k]
        col /= work[k, k]
        work[k + 1:, k + 1:] -= col[:, None] * col[None, :]
    return work


def _ordered_sum(terms) -> np.ndarray:
    """Elementwise sum of the fresh arrays ``terms``, added into the first
    in the order given: a fixed-order sum, so an item's bits do not
    depend on the other items of a stack."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def stacked_posterior(prec: np.ndarray, info: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Means ``P^{-1} b`` ``(J, ...)`` and covariances ``P^{-1}``
    ``(J, J, ...)`` of a stack of Gaussians with precisions ``P``
    ``(J, J, ...)`` and information ``b`` ``(J, ...)``, the stack axes last.

    Each ``P = L L^T`` is factored once.  The covariance ``L^{-T} L^{-1}``
    and the mean, the covariance times ``b``, are elementwise sums over J
    in a fixed order, with no matrix product over the stack: every item
    has the bits of a lone call, and both outputs are C-ordered (the
    covariances exactly symmetric)."""
    j = prec.shape[0]
    eye = np.eye(j).reshape((j, j) + (1,) * (prec.ndim - 2))
    inv_chol = triangular_solve(stacked_cholesky(prec),
                                np.broadcast_to(eye, prec.shape))
    cov = _ordered_sum(inv_chol[k, :, None] * inv_chol[k, None, :] for k in range(j))
    return _ordered_sum(cov[:, k] * info[k] for k in range(j)), cov


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
