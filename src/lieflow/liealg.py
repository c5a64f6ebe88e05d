"""Generator-basis arithmetic.

A generator basis is an ordered set of J real d x d matrices.  This
module provides the matrix exponential, exact and first-order group
actions on latent vectors, assembly of the per-pair coefficient matrix
A (column m equals ``G^m z``), the flat d x (dJ) block form used by the
Kronecker normal equations, and the PCA step that replaces a basis by a
minimal Frobenius-orthonormal one after each EM iteration (with the
linear map from the old generators to the new).  The action
functions take any leading batch axes ``...`` (broadcast between
coefficients and vectors) in either memory order and give each item the
bits of a lone call.  :func:`apply_exact` is the library's one exact
group action (generation, raster frames and ``roll`` trajectories) and
the only caller of :func:`matrix_exp`, so the block size, the overflow
checks and the per-item bits of the exponential live here alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import NumericError

DEFAULT_EXP_TOL = 1e-12
_MAX_SERIES_TERMS = 40
# each squaring doubles the series' rounding error: past 27 a rotation
# drifts off the unit circle by over 1e-6 (README, on `roll`)
_MAX_SQUARINGS = 27
# bytes of one (B, d, d) stack in apply_exact's blocks, so that a block's
# few such stacks stay in a 2 MiB L2 cache: on a 2-CPU x86-64 host, d = 6
# generation at N = 10 000 was fastest at 256 KiB of the sizes from
# 32 KiB (+48%) to 4 MiB (+44%)
_EXP_BLOCK_BYTES = 256 * 1024
# share of the generators' variance that orthogonalize keeps
_VARIANCE_SHARE = 0.99


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered set of square generator matrices, stored as ``(J, d, d)``."""

    generators: np.ndarray

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=float)
        if gens.ndim == 2:
            gens = gens[None]
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
            raise ValueError("generators must be a (J, d, d) array of square matrices")
        if gens.shape[0] < 1:
            raise ValueError("at least one generator is required")
        if gens.shape[1] < 1:
            raise ValueError("generators must act on a dimension of at least 1")
        if not np.all(np.isfinite(gens)):
            raise NumericError("generators contain non-finite entries")
        gens = gens.copy()
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)

    @property
    def count(self) -> int:
        return self.generators.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.generators.shape[1]


def _check_coeffs(basis: GeneratorBasis, coeffs: np.ndarray) -> np.ndarray:
    lam = np.ascontiguousarray(coeffs, dtype=float)
    if lam.shape[-1:] != (basis.count,):
        raise ValueError(f"expected {basis.count} coefficients, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise NumericError("coefficients contain non-finite entries")
    return lam


def _check_vectors(basis: GeneratorBasis, z: np.ndarray) -> np.ndarray:
    vec = np.ascontiguousarray(z, dtype=float)
    if vec.shape[-1:] != (basis.latent_dim,):
        raise ValueError("vector dimension does not match the basis")
    return vec


def combine(basis: GeneratorBasis, coeffs: np.ndarray) -> np.ndarray:
    """The ``(..., d, d)`` matrices ``sum_j lambda_j G^j``."""
    lam = _check_coeffs(basis, coeffs)
    return np.einsum("...j,jab->...ab", lam, basis.generators)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Per-matrix Frobenius norms, each one dot product like ``np.linalg.norm``."""
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of each matrix in a ``(..., n, n)`` stack.

    Scaling and squaring: each matrix is scaled by ``2^-s`` until its
    Frobenius norm is at most 0.5, expanded in a truncated power series
    (terms are added until the next term falls below
    ``DEFAULT_EXP_TOL / 4``; 13 terms), then squared ``s`` times, with
    ``s`` and the term count chosen per matrix.  Raises
    :class:`NumericError` when a norm or the result overflows, or when a
    matrix needs more than ``_MAX_SQUARINGS`` squarings (a Frobenius norm
    above ``2^26``), which would leave too few correct digits.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix_exp requires a square matrix")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix_exp input has non-finite entries")
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    with np.errstate(over="ignore"):
        norms = _frobenius(a)
    if not np.all(norms <= 2.0 ** 1022):  # else the scaling overflows
        raise NumericError("matrix_exp input norm overflows")
    squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    most = squarings.max(initial=0)
    if most > _MAX_SQUARINGS:
        raise NumericError(
            f"matrix_exp input norm {norms.max():.3e} needs {most} squarings, "
            f"more than the {_MAX_SQUARINGS} that keep the result accurate")
    if squarings.any():  # no scaled copy when no matrix needs one
        a = a / (2.0 ** squarings)[:, None, None]
    # the series reuses two term buffers; a matrix whose terms have
    # fallen below the tolerance stops adding (the masked add), which
    # a plain add matches bit for bit while every matrix is live
    term = np.broadcast_to(np.eye(n), a.shape).copy()
    acc, spare = term.copy(), np.empty_like(term)
    live, live_count = np.ones(len(a), dtype=bool), len(a)
    for k in range(1, _MAX_SERIES_TERMS + 1):
        term, spare = np.matmul(term, a, out=spare), term
        term /= k
        if live_count == len(a):
            acc += term
        else:
            np.add(acc, term, out=acc, where=live[:, None, None])
        live &= _frobenius(term) > 0.25 * DEFAULT_EXP_TOL
        live_count = np.count_nonzero(live)
        if not live_count:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(most):
            more = squarings > done
            acc[more] = acc[more] @ acc[more]
    if not np.all(np.isfinite(acc)):
        raise NumericError("matrix_exp result overflows")
    return acc.reshape(shape)


def apply_first_order(basis: GeneratorBasis, coeffs: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """``z + sum_j lambda_j G^j z`` (small-transformation approximation)."""
    lam = _check_coeffs(basis, coeffs)
    vec = _check_vectors(basis, z)
    return vec + np.einsum("...j,jab,...b->...a", lam, basis.generators, vec)


def apply_exact(basis: GeneratorBasis, coeffs: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """``exp(sum_j lambda_j G^j) z`` for ``(..., J)`` lambda and ``(..., d)`` z.

    The items are exponentiated in blocks of ``_EXP_BLOCK_BYTES`` of
    ``d x d`` matrices, so the ``(..., d, d)`` stack of the whole batch
    is never formed; each item keeps the bits of a lone call.  The
    batch axes are broadcast first, so a coefficient row shared by many
    vectors is exponentiated once per vector.
    """
    vec = _check_vectors(basis, z)
    lam = _check_coeffs(basis, coeffs)
    d = basis.latent_dim
    lead = np.broadcast_shapes(lam.shape[:-1], vec.shape[:-1])
    lam = np.broadcast_to(lam, lead + lam.shape[-1:]).reshape(-1, basis.count)
    vec = np.broadcast_to(vec, lead + (d,)).reshape(-1, d, 1)
    out = np.empty(vec.shape)
    step = max(1, _EXP_BLOCK_BYTES // (8 * d * d))
    for start in range(0, len(out), step):
        block = slice(start, start + step)
        np.matmul(matrix_exp(combine(basis, lam[block])), vec[block],
                  out=out[block])
    return out.reshape(lead + (d,))


def assemble_A(basis: GeneratorBasis, z: np.ndarray) -> np.ndarray:
    """The ``(..., d, J)`` matrices whose column m is ``G^m z``, so
    ``A lam`` is the combined action ``sum_j lam_j G^j z``."""
    vec = _check_vectors(basis, z)
    return np.einsum("jab,...b->...aj", basis.generators, vec)


def block_flatten(basis: GeneratorBasis) -> np.ndarray:
    """Flatten to the d x (dJ) block matrix F with ``F (z kron lam) =
    sum_j lam_j G^j z`` (column ``a*J + j`` holds column a of ``G^j``)."""
    d, j = basis.latent_dim, basis.count
    return basis.generators.transpose(1, 2, 0).reshape(d, d * j)


def block_unflatten(m: np.ndarray, d: int, count: int) -> GeneratorBasis:
    """Inverse of :func:`block_flatten`."""
    flat = np.asarray(m, dtype=float)
    if flat.shape != (d, d * count):
        raise ValueError(f"expected shape {(d, d * count)}, got {flat.shape}")
    return GeneratorBasis(flat.reshape(d, d, count).transpose(2, 0, 1))


def _lead_signs(rows: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: +1 or -1 per row, the sign of the
    first entry whose magnitude exceeds 1e-12 of the row peak (+1 for a
    zero row)."""
    signs = np.ones(len(rows))
    for i, row in enumerate(rows):
        peak = np.abs(row).max()
        if peak > 0.0 and row[np.abs(row) > 1e-12 * peak][0] < 0:
            signs[i] = -1.0
    return signs


def orthogonalize(basis: GeneratorBasis) -> tuple[GeneratorBasis, np.ndarray]:
    """Minimal Frobenius-orthonormal basis spanning the dominant variance,
    and its coefficient map: the ``(k, J)`` matrix ``T`` with
    ``G'_k = sum_j T_kj G_j`` in exact arithmetic.

    Each generator is vectorized to a d^2 vector; an (uncentered) PCA of
    the J vectors retains the smallest number of principal components
    whose variance share reaches ``_VARIANCE_SHARE``.  Components are
    ordered by decreasing singular value with a fixed sign convention.
    The output span is contained in the input span.

    With the SVD ``flat = U S V^T`` of the vectorized generators, the
    k-th principal component is ``V_k = U_k^T flat / s_k``, so row k of
    ``T`` is ``sign_k U_k^T / s_k`` from the same SVD; in the
    already-orthonormal branch ``T`` is the signed identity.  A kept
    component carries at least ``(1 - _VARIANCE_SHARE) / J`` of the
    variance, so ``1 / s_k`` stays bounded: ``T`` needs no
    pseudo-inverse.
    """
    d, j = basis.latent_dim, basis.count
    flat = basis.generators.reshape(j, d * d)
    if not np.any(flat):
        raise NumericError("cannot orthogonalize an all-zero basis")
    u, svals, vt = np.linalg.svd(flat, full_matrices=False)
    energy = np.cumsum(svals ** 2)
    total = energy[-1]
    # kept <= j: the share of the total lies below energy[-1] = total
    kept = int(np.searchsorted(energy, _VARIANCE_SHARE * total * (1.0 - 1e-12)) + 1)
    if kept == j and np.allclose(flat @ flat.T, np.eye(j), atol=1e-12):
        # already orthonormal and nothing to drop: the PCA basis is
        # underdetermined (all singular values equal), keep the input
        components, coeff_map = flat, np.eye(j)
    else:
        components, coeff_map = vt[:kept], u[:, :kept].T / svals[:kept, None]
    signs = _lead_signs(components)[:, None]
    return (GeneratorBasis((components * signs).reshape(-1, d, d)),
            coeff_map * signs)
