"""EM for transition dynamics over given latent representations.

:class:`PairDataset` is the data type of all three estimators: N pairs
of consecutive frames, latent vectors here and flat images in
:mod:`lieflow.ppca` and :mod:`lieflow.npca`, stored once as a stack
``(2, N, D)``.  Each data pair ``(z_i, z_next)`` is modelled as
``z_next = z_i + sum_j lambda_j G^j z_i + noise`` with Gaussian
coefficients ``lambda ~ N(0, Lambda)`` and transition noise
``N(0, Omega)``.  The E-step is the exact Gaussian posterior of the
coefficients per pair, returned as plain stacked arrays with the pair
axis last: means ``(J, N)`` and covariances ``(J, J, N)``.  The M-step
solves the Kronecker normal equations for the flattened generator block
and refreshes the noise covariance.  The E-step and the marginal
likelihood read one J x J posterior precision per pair, taken from the
whitened pair Gram of ``[A, delta]`` (:func:`_white_gram`) and
factorized for all pairs at once: the Gram costs O(N d^2 J) with no
per-pair d x d factorization and no per-pair BLAS call, and it is
formed one latent coordinate at a time, in O(N (J+1)^2) memory with no
``(J+1, d, N)`` block of whitened columns.  :func:`fit`
forms that Gram once per iteration, at the fitted model; the marginal
likelihood reads it, and the next E-step reads it carried through the
orthogonalization's change of basis (:func:`_change_gram_basis`).
:class:`DynamicsModel` factors Omega and Lambda when it is built,
inverts them on first read, and whitens its generators
``L_Omega^{-1} G_j`` once on first read; each Gram entry is then a
fixed-order elementwise sum over the latent axis, so a pair's bits do
not depend on the pairs that share its block.  The E-steps, objectives
and gradients of the three estimators read those factors,
log-determinants and inverses instead of deriving them again.
Each iteration may be followed by a PCA orthogonalization of the
generator basis.

The M-step reads only sums over pairs (:class:`TransitionStats`).  The
image-model estimators form the same sums from expectations over their
latents and share the M-step, the rest of the update
(:func:`update_step`) and the stopping rule (:func:`converged`).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import liealg
from . import rng
from .gaussian import (
    LOG_2PI,
    NumericError,
    _ordered_sum,
    cholesky_inverse,
    default_jitter,
    spd_cholesky,
    spd_solve,
    stacked_cholesky,
    stacked_posterior,
    symmetrize,
    triangular_solve,
)
from .liealg import GeneratorBasis

GRAM_COND_LIMIT = 1e14


@dataclass(frozen=True)
class DynamicsModel:
    """Transition parameters: generator basis, noise covariance Omega and
    coefficient prior covariance Lambda."""

    basis: GeneratorBasis
    trans_cov: np.ndarray
    coeff_prior_cov: np.ndarray
    # lower Cholesky factors of the two covariances (which validates both)
    # and their log-determinants, formed once; the inverses on first read
    trans_chol: np.ndarray = field(init=False, repr=False, compare=False)
    coeff_prior_chol: np.ndarray = field(init=False, repr=False, compare=False)
    trans_logdet: float = field(init=False, repr=False, compare=False)
    coeff_prior_logdet: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omega = np.atleast_2d(np.asarray(self.trans_cov, dtype=float))
        lam_cov = np.atleast_2d(np.asarray(self.coeff_prior_cov, dtype=float))
        d, j = self.basis.latent_dim, self.basis.count
        if omega.shape != (d, d):
            raise ValueError("transition covariance dimension must match the basis")
        if lam_cov.shape != (j, j):
            raise ValueError("coefficient prior dimension must match the generator count")
        for name, cov in (("trans", omega), ("coeff_prior", lam_cov)):
            chol = spd_cholesky(cov)
            object.__setattr__(self, f"{name}_chol", chol)
            object.__setattr__(self, f"{name}_logdet",
                               2.0 * float(np.sum(np.log(np.diag(chol)))))
            object.__setattr__(self, f"{name}_cov", symmetrize(cov))

    @cached_property
    def trans_prec(self) -> np.ndarray:
        return cholesky_inverse(self.trans_chol)

    @cached_property
    def coeff_prior_prec(self) -> np.ndarray:
        return cholesky_inverse(self.coeff_prior_chol)

    @cached_property
    def _white_generators(self) -> np.ndarray:
        # L_Omega^{-1} G_j (J, d, d), one substitution for the flattened
        # block [G_j]: _white_gram whitens A = [G_j z] from these
        # instead of solving with L_Omega once per pair
        d, j = self.latent_dim, self.coeff_count
        white = triangular_solve(self.trans_chol, liealg.block_flatten(self.basis))
        return white.reshape(d, d, j).transpose(2, 0, 1)

    @property
    def latent_dim(self) -> int:
        return self.basis.latent_dim

    @property
    def coeff_count(self) -> int:
        return self.basis.count


@dataclass(frozen=True)
class PairDataset:
    """N aligned pairs of consecutive frames, each frame a latent vector
    or a flat image of D values, stored as one stack ``frames``
    ``(2, N, D)`` of which ``x_i`` and ``x_next`` are the views
    ``frames[0]`` and ``frames[1]``.  Both frames must be finite
    matching ``(N, D)`` arrays with ``N >= 1`` and ``D >= 1``; a 1-D
    array is one pair."""

    x_i: np.ndarray
    x_next: np.ndarray
    frames: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.x_i, dtype=float))
        b = np.atleast_2d(np.asarray(self.x_next, dtype=float))
        if a.shape != b.shape or a.ndim != 2 or 0 in a.shape:
            raise ValueError(f"x_i and x_next must be matching (N, D) arrays "
                             f"with N >= 1 and D >= 1, not of shapes "
                             f"{np.shape(self.x_i)} and {np.shape(self.x_next)}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise NumericError("x_i and x_next must be finite")
        frames = np.stack([a, b])
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "x_i", frames[0])
        object.__setattr__(self, "x_next", frames[1])

    @property
    def count(self) -> int:
        return self.frames.shape[1]

    @property
    def dim(self) -> int:
        return self.frames.shape[2]

    # the data terms of the E-step and of transition_stats, formed once:
    # delta, x_i^T and delta^T with the pair axis last (C-ordered, so each
    # coordinate is one contiguous row), sum_i delta_i delta_i^T and each
    # pair's x_i x_i^T as one column
    @cached_property
    def delta(self) -> np.ndarray:
        return self.x_next - self.x_i

    @cached_property
    def _z_cols(self) -> np.ndarray:
        return np.ascontiguousarray(self.x_i.T)

    @cached_property
    def _delta_cols(self) -> np.ndarray:
        return np.ascontiguousarray(self.delta.T)

    @cached_property
    def _delta_gram(self) -> np.ndarray:
        return self.delta.T @ self.delta

    @cached_property
    def _zz_cols(self) -> np.ndarray:
        z = self._z_cols
        return (z[:, None] * z[None, :]).reshape(-1, self.count)


@dataclass(frozen=True)
class TransitionStats:
    """Sums over pairs of the expectations the dynamics M-step reads, with
    ``dz = z_next - z_i``: ``E[dz dz^T]``, ``E[dz (z kron lam)^T]``,
    ``E[z z^T kron lam lam^T]`` and ``E[lam lam^T]``."""

    count: int
    dz_dz: np.ndarray
    dz_zlam: np.ndarray
    zz_lamlam: np.ndarray
    lamlam: np.ndarray


@dataclass
class EmConfig:
    j_init: int = 1
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    estimate_lambda: bool = False
    orthogonalize: bool = True
    threads: int = 1


def _white_gram(model: DynamicsModel, z_cols: np.ndarray,
                delta_cols: np.ndarray, *, out: np.ndarray | None = None
                ) -> np.ndarray:
    """The whitened pair Gram ``H`` ``(J+1, J+1, N)`` for pairs ``z_i``
    and ``delta`` given pair-last, ``(d, N)``: the inner products of the
    whitened columns of ``[A, delta]``, written into ``out`` if given
    (which may be a view into a larger Gram) and C-ordered otherwise.

    With the model's whitened generators ``L_Omega^{-1} G_j``, those
    columns are ``L_Omega^{-1} G_j z_i`` and ``L_Omega^{-1} delta`` (one
    substitution).  The Gram is formed one latent coordinate ``a`` at a
    time: the ``(J+1, N)`` row of whitened columns at ``a``, its
    generator part summed over ``b`` in order, then its products added
    into the upper triangle.  The lower triangle is mirrored once at the
    end, so ``H`` is exactly symmetric.  Both sums run over the latent
    axis in a fixed order, with no matrix product over the pair stack, so
    every pair's values depend on that pair alone, bit for bit.  The
    working set is ``d + (J+1)^2 + 2(J+1)`` rows of N: no
    ``(J+1, d, N)`` block of columns is formed.
    """
    j, d, n = model.coeff_count, model.latent_dim, z_cols.shape[1]
    white_gens = model._white_generators[..., None]
    white_delta = triangular_solve(model.trans_chol, delta_cols)
    gram = np.empty((j + 1, j + 1, n)) if out is None else out
    row = np.empty((j + 1, n))  # whitened [A, delta] at coordinate a
    work = np.empty((j + 1, n))
    # row r's products with rows r.., their scratch and their Gram entries
    upper = [(row[r], row[r:], work[r:], gram[r, r:]) for r in range(j + 1)]
    for a in range(d):
        np.multiply(white_gens[:, a, 0], z_cols[0], out=row[:j])
        for b in range(1, d):
            np.multiply(white_gens[:, a, b], z_cols[b], out=work[:j])
            row[:j] += work[:j]
        row[j] = white_delta[a]
        for left, right, prod, entries in upper:
            if a:
                np.multiply(left, right, out=prod)
                entries += prod
            else:
                np.multiply(left, right, out=entries)
    for r in range(j):
        gram[r + 1:, r] = gram[r, r + 1:]
    return gram


def _gram_precision(model: DynamicsModel, gram: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The posterior precisions ``P = Lambda^{-1} + A^T Omega^{-1} A``
    ``(J, J, N)``, the information vectors ``b = A^T Omega^{-1} delta``
    ``(J, N)`` and the squared whitened residuals
    ``delta^T Omega^{-1} delta`` ``(N,)`` of a whitened pair Gram, all
    C-ordered with the pair axis last."""
    j = model.coeff_count
    return (model.coeff_prior_prec[:, :, None] + gram[:j, :j],
            gram[:j, j].copy(), gram[j, j])


def _e_step_block(model: DynamicsModel, z_cols: np.ndarray,
                  delta_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient posteriors of a block of pairs ``z_i`` and ``delta``
    given pair-last, ``(d, N)``: stacked means ``P^{-1} b`` ``(J, N)`` and
    covariances ``P^{-1}`` ``(J, J, N)``, the pair axis last.  The one
    closed form of q(lambda): the ppca fixed-point sweep and npca's
    plug-in coefficients call it too."""
    prec, info, _ = _gram_precision(model, _white_gram(model, z_cols, delta_cols))
    return stacked_posterior(prec, info)


def map_blocks(fn, count: int, threads: int) -> list:
    """``fn(start, stop)`` over ``threads`` contiguous blocks of ``count``
    pairs (a single block unless every block gets at least two pairs),
    results in block order.  The blocks run on at most ``os.cpu_count()``
    OS threads, however many blocks there are, so the split, and with it
    the bits, follows ``threads`` alone."""
    if threads <= 1 or count < 2 * threads:
        return [fn(0, count)]
    # imported here: it pulls in logging and queue, which every CLI
    # process would otherwise load though only threads > 1 uses them
    from concurrent.futures import ThreadPoolExecutor
    bounds = np.linspace(0, count, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, bounds[:-1], bounds[1:]))


def _pair_gram(model: DynamicsModel, dataset: PairDataset,
               threads: int = 1) -> np.ndarray:
    """The whitened pair Gram ``(J+1, J+1, N)`` of every pair
    (:func:`_white_gram`), formed in ``threads`` contiguous blocks of
    pairs (:func:`map_blocks`), each written into its columns of one
    output: its bits do not depend on ``threads``."""
    gram = np.empty((model.coeff_count + 1,) * 2 + (dataset.count,))
    map_blocks(lambda a, b: _white_gram(
        model, dataset._z_cols[:, a:b], dataset._delta_cols[:, a:b],
        out=gram[..., a:b]), dataset.count, threads)
    return gram


def _change_gram_basis(gram: np.ndarray, coeff_map: np.ndarray) -> np.ndarray:
    """Carry a whitened pair Gram ``H`` ``(J+1, J+1, N)`` to the generators
    ``G' = T G`` of a coefficient map ``T`` ``(k, J)``: with
    ``E = diag(T, 1)``, ``E H E^T`` ``(k+1, k+1, N)``.

    Omega is the same for both bases, so the whitened columns of ``A'``
    are ``T`` times those of ``A`` and ``delta``'s are unchanged: this is
    the Gram at the new generators without touching the pairs.  Both
    products are fixed-order elementwise sums over J, with no matrix
    product over the pair stack, and each entry is formed once for both
    of its symmetric places; the identity map returns ``H``'s bits.
    """
    k, j = coeff_map.shape
    left = _ordered_sum(coeff_map[:, m, None, None] * gram[m] for m in range(j))
    out = np.empty((k + 1, k + 1, gram.shape[-1]))
    out[k, k] = gram[j, j]
    for a in range(k):
        out[a, k] = out[k, a] = left[a, j]
        for c in range(a + 1):
            out[a, c] = out[c, a] = _ordered_sum(
                left[a, m] * coeff_map[c, m] for m in range(j))
    return out


def _check_latent_dim(model: DynamicsModel, dataset: PairDataset) -> None:
    if dataset.dim != model.latent_dim:
        raise ValueError("dataset and model latent dimensions disagree")


def e_step_all(model: DynamicsModel, dataset: PairDataset, *,
               gram: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient posteriors for every pair: means ``(J, N)`` and
    covariances ``(J, J, N)``, the pair axis last.

    ``gram`` is the model's whitened pair Gram when the caller has it
    already; otherwise it is formed here (:func:`_pair_gram`).
    """
    _check_latent_dim(model, dataset)
    if gram is None:
        gram = _pair_gram(model, dataset)
    prec, info, _ = _gram_precision(model, gram)
    return stacked_posterior(prec, info)


def transition_stats(dataset: PairDataset, mean: np.ndarray,
                     cov: np.ndarray) -> TransitionStats:
    """Summed statistics of exact latents under coefficient posteriors with
    means ``(J, N)`` and covariances ``(J, J, N)``, the pair axis last, each
    Kronecker sum formed as one matrix product over the pair axis without
    per-pair Kronecker blocks."""
    n, d, j = dataset.count, dataset.dim, mean.shape[0]
    if mean.shape[-1] != n:
        raise ValueError("need exactly one posterior per pair")
    second = cov + mean[:, None] * mean[None, :]  # E[lambda lambda^T]
    z_lam = (dataset._z_cols[:, None] * mean[None, :]).reshape(d * j, n)
    zz_lamlam = (dataset._zz_cols @ second.reshape(j * j, n).T).reshape(d, d, j, j)
    return TransitionStats(
        count=n,
        dz_dz=dataset._delta_gram,
        dz_zlam=dataset._delta_cols @ z_lam.T,
        zz_lamlam=zz_lamlam.transpose(0, 2, 1, 3).reshape(d * j, d * j),
        lamlam=second.sum(axis=-1))


def m_step_G(stats: TransitionStats) -> GeneratorBasis:
    """Maximum-likelihood generator update: the Kronecker normal equations
    ``F sum E[z z^T kron lam lam^T] = sum E[dz (z kron lam)^T]`` for the
    block-flattened generators ``F``, solved as a linear system (never an
    explicit inverse) after one conditioning check of the Gram matrix."""
    gram = symmetrize(stats.zz_lamlam)
    eigs = np.linalg.eigvalsh(gram)
    cond = eigs[-1] / eigs[0] if eigs[0] > 0 else np.inf
    if cond > GRAM_COND_LIMIT:
        raise NumericError(
            f"singular {gram.shape[0]}x{gram.shape[0]} Kronecker Gram matrix "
            f"in generator update (condition number {cond:.3e})")
    flat = np.linalg.solve(gram, stats.dz_zlam.T).T
    d = stats.dz_dz.shape[0]
    return liealg.block_unflatten(flat, d, gram.shape[0] // d)


def _residual_outer(stats: TransitionStats, basis: GeneratorBasis) -> np.ndarray:
    """``sum_i E[r r^T]`` for the transition residual ``r = dz - F (z kron lam)``."""
    flat = liealg.block_flatten(basis)
    cross = flat @ stats.dz_zlam.T
    return stats.dz_dz - cross - cross.T + flat @ stats.zz_lamlam @ flat.T


def m_step_Omega(stats: TransitionStats, basis: GeneratorBasis) -> np.ndarray:
    """Transition-noise update for the given (freshly updated) generators:
    the expected residual outer product averaged over the pairs."""
    return symmetrize(_residual_outer(stats, basis) / stats.count)


def m_step_dynamics(stats: TransitionStats) -> tuple[GeneratorBasis, np.ndarray]:
    """The dynamics M-step of all three estimators: generators, then the
    transition noise under them."""
    basis = m_step_G(stats)
    return basis, m_step_Omega(stats, basis)


def update_Lambda(stats: TransitionStats) -> np.ndarray:
    """Zero-mean Gaussian MLE of the coefficient prior covariance."""
    return symmetrize(stats.lamlam / stats.count)


def expected_log_density(model: DynamicsModel, stats: TransitionStats,
                         prior_count: int) -> float:
    """Closed form from the summed statistics: the expected transition
    log-density ``E[log N(z_next | z_i + A lambda, Omega)]`` summed over
    the pairs, plus the expected coefficient prior
    ``E[log N(lambda | 0, Lambda)]`` of ``prior_count`` of them (pairs
    whose coefficients are pinned at zero carry no prior term)."""
    trans = (stats.count * (model.latent_dim * LOG_2PI + model.trans_logdet)
             + np.trace(spd_solve(model.trans_chol,
                                  _residual_outer(stats, model.basis))))
    prior = (prior_count * (model.coeff_count * LOG_2PI + model.coeff_prior_logdet)
             + np.trace(spd_solve(model.coeff_prior_chol, stats.lamlam)))
    return float(-0.5 * (trans + prior))


def marginal_log_likelihood(model: DynamicsModel, dataset: PairDataset, *,
                            gram: np.ndarray | None = None) -> float:
    """Exact log-likelihood ``sum_i log N(delta_z | 0, Omega + A Lambda A^T)``
    with the coefficients integrated out; the quantity EM ascends.

    With more latent dimensions than generators it is formed from the
    J x J posterior precisions ``P`` of the E-step, read from the model's
    whitened pair Gram ``gram`` (:func:`_pair_gram`, formed here if not
    given): by the determinant lemma ``log|Omega + A Lambda A^T| =
    log|Omega| + log|Lambda| + log|P|``, and by Woodbury the quadratic
    form is ``|L_Omega^{-1} delta|^2 - |L_P^{-1} b|^2``.  With at most as
    many (``d <= J``) each pair's d x d covariance is factored instead,
    and ``gram`` is not read.  ``A`` then spans the whole latent space,
    so under a small Omega the two Woodbury terms are both of order
    ``|delta|^2 / Omega`` and their difference loses the digits that
    ratio makes large; and with ``d < J``, ``P`` is a rank-d term plus
    ``Lambda^{-1}``, and its log-determinant loses them too.
    """
    _check_latent_dim(model, dataset)
    d, z = dataset.dim, dataset._z_cols
    if d <= model.coeff_count:
        # A Lambda A^T = C C^T with the columns C_k = sum_m (L_Lambda)_mk G_m z
        # of A L_Lambda, so each covariance comes out exactly symmetric
        gens = liealg.combine(model.basis, model.coeff_prior_chol.T)
        cols = _ordered_sum(gens[:, :, b, None] * z[b] for b in range(d))
        chol = stacked_cholesky(model.trans_cov[:, :, None] + _ordered_sum(
            cols[k, :, None] * cols[k, None, :] for k in range(model.coeff_count)))
        white = triangular_solve(chol, dataset._delta_cols)
        log_det = 2.0 * np.sum(np.log(np.diagonal(chol)))
        quad = np.sum(white * white)
    else:
        prec, info, white_sq = _gram_precision(
            model, _pair_gram(model, dataset) if gram is None else gram)
        prec_chol = stacked_cholesky(prec)
        white_info = triangular_solve(prec_chol, info)
        # both sums run pair-major, as over (N, J) arrays: the pinned fit
        # digests fix the objective's bits to this order
        log_det = (dataset.count * (model.trans_logdet + model.coeff_prior_logdet)
                   + 2.0 * np.sum(np.log(np.diagonal(prec_chol)).ravel()))
        quad = np.sum(white_sq) - np.sum((white_info * white_info).T.ravel())
    return float(-0.5 * (dataset.count * dataset.dim * LOG_2PI
                         + log_det + quad))


def _project_lambda(old_basis: GeneratorBasis, new_basis: GeneratorBasis,
                    lam_cov: np.ndarray) -> np.ndarray:
    """Carry the coefficient prior through a change of generator basis."""
    change = (new_basis.generators.reshape(new_basis.count, -1)
              @ old_basis.generators.reshape(old_basis.count, -1).T)
    projected = symmetrize(change @ lam_cov @ change.T)
    jitter = max(default_jitter(projected), 1e-12)
    return projected + jitter * np.eye(new_basis.count)


def update_step(model: DynamicsModel, stats: TransitionStats,
                estimate_lambda: bool, orthogonalize: bool
                ) -> tuple[DynamicsModel, DynamicsModel, np.ndarray]:
    """The dynamics update each estimator runs after its E-step.

    Generators and transition noise from the summed statistics, Omega
    jitter, the coefficient-prior MLE plus jitter if ``estimate_lambda``,
    then, if ``orthogonalize`` (ppca and npca always pass true), the
    fixed-share orthogonalization of :func:`lieflow.liealg.orthogonalize`
    with the prior carried through the change of basis.  Returns the fitted
    model, at which the estimators record their objective, the
    orthogonalized model the next iteration starts from, and the
    coefficient map ``T`` ``(k, J)`` from the fitted generators to the
    next ones, ``G' = T G`` (the identity when nothing changes).
    """
    basis, omega = m_step_dynamics(stats)
    omega = omega + max(default_jitter(omega), 1e-300) * np.eye(omega.shape[0])
    lam_cov = model.coeff_prior_cov
    if estimate_lambda:
        lam_cov = update_Lambda(stats)
        lam_cov = lam_cov + default_jitter(lam_cov) * np.eye(lam_cov.shape[0])
    fitted = DynamicsModel(basis, omega, lam_cov)
    if not (orthogonalize and np.any(basis.generators)):
        return fitted, fitted, np.eye(basis.count)
    new_basis, coeff_map = liealg.orthogonalize(basis)
    lam_after = (_project_lambda(basis, new_basis, fitted.coeff_prior_cov)
                 if estimate_lambda else np.eye(new_basis.count))
    return fitted, DynamicsModel(new_basis, fitted.trans_cov, lam_after), coeff_map


def converged(trace: list[float], tol: float) -> bool:
    """The EM stopping rule: the last iteration changed the objective by
    less than ``tol`` relative to the one before."""
    return len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol * abs(trace[-2])


def init_model(latent_dim: int, j_init: int, seed: int) -> DynamicsModel:
    """Seeded starting point: generator entries iid N(0, 1/d), identity
    noise and coefficient prior.

    The entries are the stream of path ``(0xD1,)``, drawn as a one-row
    stack of paths: the same bits, enciphered in plain numpy, so a fit
    does not import ``numpy.random`` (10-14 ms of a process's start on a
    2-CPU x86-64 host) for its ``J d^2`` numbers."""
    gens = rng.normal_matrix(seed, np.array([[0xD1]]),
                             (j_init, latent_dim, latent_dim),
                             scale=1.0 / np.sqrt(latent_dim))
    return DynamicsModel(GeneratorBasis(gens), np.eye(latent_dim), np.eye(j_init))


def fit(dataset: PairDataset, config: EmConfig) -> tuple[DynamicsModel, list[float]]:
    """EM loop: coefficient posteriors, then :func:`update_step`.

    The returned trace holds the marginal log-likelihood of the model
    right after each M-step, before orthogonalization (orthogonalization
    may decrease it).  Each iteration forms the whitened pair Gram
    (:func:`_pair_gram`) once, at the fitted model: the marginal
    likelihood reads it, and the next E-step reads it carried to the
    orthogonalized generators (:func:`_change_gram_basis`), which differ
    from the fitted ones by the linear map ``T`` that
    :func:`update_step` returns and share their Omega.  Only the initial
    model's Gram is formed on its own, so a fit of ``max_iters``
    iterations forms ``max_iters + 1`` Grams.  Stops when
    :func:`converged` fires or after ``config.max_iters`` iterations;
    non-convergence is reported through the trace, not an error.
    """
    model = init_model(dataset.dim, config.j_init, config.seed)
    gram = _pair_gram(model, dataset, config.threads)
    trace: list[float] = []
    for _ in range(config.max_iters):
        mean, cov = e_step_all(model, dataset, gram=gram)
        fitted, model, coeff_map = update_step(
            model, transition_stats(dataset, mean, cov),
            config.estimate_lambda, config.orthogonalize)
        gram = _pair_gram(fitted, dataset, config.threads)
        trace.append(marginal_log_likelihood(fitted, dataset, gram=gram))
        if converged(trace, config.tol):
            break
        gram = _change_gram_basis(gram, coeff_map)
    return model, trace
