"""Ground-truth data factory.

Latent-pair and image-pair datasets generated from known generators,
plus the span-angle recovery metric.  All randomness flows through the
counter-based streams in :mod:`lieflow.rng`, so a ``(spec, seed)`` pair
always produces bit-identical data, independent of evaluation order.

Generators are normalized to unit Frobenius norm so ``lambda_scale``
means the same across kinds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .dynamics import PairDataset, aligned_pairs
from .gaussian import NumericError
from .liealg import GeneratorBasis, apply_exact, apply_first_order

KINDS = ("rotation2d", "cyclic_shift", "contrast", "latent_random")

# stream tags so the draws for different purposes never collide
_TAG_Z, _TAG_LAM, _TAG_NOISE, _TAG_PIXNOISE, _TAG_W, _TAG_GEN, _TAG_PATTERN = range(7)


@dataclass(frozen=True)
class SequenceSpec:
    """What to synthesize.

    ``lambda_scale`` is the standard deviation of the coefficient draws;
    values at or below 0.1 keep consecutive frames close in the
    transformation space (the regime the estimators assume).
    """

    group_kind: str = "rotation2d"
    latent_dim: int = 2
    height: int = 1
    width: int = 4
    generator_count: int = 1
    lambda_scale: float = 0.05
    noise_std: float = 0.0
    pair_count: int = 100
    seed: int = 0
    first_order: bool = False

    def __post_init__(self):
        if self.group_kind not in KINDS:
            raise ValueError(f"unknown kind {self.group_kind!r}; choose from {KINDS}")
        # written so that NaN fails too
        if not 0.0 <= self.lambda_scale < np.inf:
            raise ValueError("lambda_scale must be finite and nonnegative")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and nonnegative")
        if self.pair_count < 1:
            raise ValueError("pair_count must be at least 1")
        if min(self.latent_dim, self.generator_count, self.height, self.width) < 1:
            raise ValueError("latent_dim, generator_count, height and width "
                             "must be at least 1")

    @property
    def image_dim(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class ImagePairDataset:
    """N aligned image pairs as flat (N, D) arrays plus raster metadata,
    stored as one stack ``frames`` ``(2, N, D)`` of which ``x_i`` and
    ``x_next`` are the views ``frames[0]`` and ``frames[1]``."""

    x_i: np.ndarray
    x_next: np.ndarray
    height: int
    width: int
    frames: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xi, xn = aligned_pairs(self.x_i, self.x_next, "x_i and x_next")
        if self.height * self.width != xi.shape[1]:
            raise ValueError(f"height {self.height} x width {self.width} does "
                             f"not match the frame size {xi.shape[1]}")
        frames = np.stack([xi, xn])
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "x_i", frames[0])
        object.__setattr__(self, "x_next", frames[1])

    @property
    def count(self) -> int:
        return self.x_i.shape[0]

    @property
    def image_dim(self) -> int:
        return self.x_i.shape[1]


@dataclass(frozen=True)
class SynthTruth:
    """Everything needed to score a fit against the generating process."""

    basis: GeneratorBasis
    lambdas: np.ndarray
    z_i: np.ndarray
    z_next: np.ndarray
    loading: np.ndarray | None = None


def _cyclic_shift_generator(n: int) -> np.ndarray:
    """Circulant derivative generator: exp(t G) translates a signal
    cyclically by t samples.  Exact for every signal when n is odd; for
    even n the Nyquist mode is left stationary (a one-step cyclic
    permutation has determinant -1 for even n and therefore cannot be a
    matrix exponential).  Below 3 samples the Nyquist mode is the only
    moving one, so n must be at least 3."""
    if n < 3:
        raise ValueError(f"cyclic_shift needs a size of at least 3, got {n}")
    k = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., -1 in DFT order
    if n % 2 == 0:
        k = k.copy()
        k[n // 2] = 0.0
    symbols = -2j * np.pi * k / n
    dft = np.fft.fft(np.eye(n), axis=0)
    gen = np.fft.ifft(symbols[:, None] * dft, axis=0)
    return np.real(gen)


def _unit_frobenius(gens: np.ndarray) -> np.ndarray:
    # every kind builds nonzero generators (cyclic_shift needs n >= 3)
    norms = np.sqrt(np.einsum("jab,jab->j", gens, gens))
    return gens / norms[:, None, None]


def true_generator(spec: SequenceSpec) -> GeneratorBasis:
    """Ground-truth basis for the requested kind, unit Frobenius norm."""
    d = spec.latent_dim
    if spec.group_kind == "rotation2d":
        if d != 2:
            raise ValueError("rotation2d requires latent_dim == 2")
        gens = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    elif spec.group_kind == "cyclic_shift":
        gens = _cyclic_shift_generator(d)[None]
    elif spec.group_kind == "contrast":
        gens = np.eye(d)[None]
    else:  # latent_random
        j = spec.generator_count
        raw = rng.normal_matrix(spec.seed, (_TAG_GEN,), (j, d, d))
        skew = 0.5 * (raw - raw.transpose(0, 2, 1))
        diag = np.zeros_like(raw)
        idx = np.arange(d)
        diag[:, idx, idx] = rng.normal_matrix(spec.seed, (_TAG_GEN, 1), (j, d))
        gens = skew + diag
    return GeneratorBasis(_unit_frobenius(gens))


def generate_latent_pairs(spec: SequenceSpec) -> tuple[PairDataset, SynthTruth]:
    """Latent pairs from the generative transition model.

    ``z_i`` standard normal, ``lambda ~ N(0, lambda_scale^2 I)``,
    ``z_next`` through the exact exponential action (or the first-order
    action when ``spec.first_order``), plus isotropic noise.
    """
    basis = true_generator(spec)
    d, j, n = spec.latent_dim, basis.count, spec.pair_count
    z_i = rng.normal_matrix(spec.seed, (_TAG_Z,), (n, d))
    lambdas = spec.lambda_scale * rng.normal_matrix(spec.seed, (_TAG_LAM,), (n, j))
    step = apply_first_order if spec.first_order else apply_exact
    z_next = step(basis, lambdas, z_i)
    if spec.noise_std > 0:
        z_next = z_next + spec.noise_std * rng.normal_matrix(
            spec.seed, (_TAG_NOISE,), (n, d))
    truth = SynthTruth(basis, lambdas, z_i, z_next)
    return PairDataset(z_i, z_next), truth


def _lowpass_pattern(spec: SequenceSpec) -> np.ndarray:
    """Seeded smooth periodic signal with no content above n/4, so the
    spectral shift action is exact regardless of signal length parity."""
    n = spec.image_dim
    k_max = max(1, n // 4)
    coeffs = rng.normals(spec.seed, (_TAG_PATTERN,), 2 * k_max)
    t = np.arange(n)
    signal = np.zeros(n)
    for k in range(1, k_max + 1):
        signal += (coeffs[2 * (k - 1)] * np.cos(2 * np.pi * k * t / n)
                   + coeffs[2 * k - 1] * np.sin(2 * np.pi * k * t / n))
    return signal / max(np.abs(signal).max(), 1e-12)


def generate_image_pairs(spec: SequenceSpec, embedding: str = "linear"
                         ) -> tuple[ImagePairDataset, SynthTruth]:
    """Image pairs: latent pairs pushed through an embedding plus noise.

    ``linear`` draws a seeded orthonormal D x d loading and maps
    ``x = W z``; ``raster`` renders cyclic_shift as an actually
    translated signal in pixel space (latent dimension = pixel count,
    at least 3): each first frame is a low-pass pattern shifted by a
    uniform offset of ``[0, D)`` samples and each next frame moves it by
    ``lambda``, both through :func:`liealg.apply_exact`.
    """
    if embedding not in ("linear", "raster"):
        raise ValueError("embedding must be 'linear' or 'raster'")
    n = spec.pair_count
    if embedding == "linear":
        latent, truth = generate_latent_pairs(spec)
        d = spec.latent_dim
        big_d = spec.image_dim
        if big_d < d:
            raise ValueError("image dimension must be at least the latent dimension")
        loading = rng.orthonormal_columns(spec.seed, (_TAG_W,), big_d, d)
        x_i = latent.z_i @ loading.T
        x_next = latent.z_next @ loading.T
        truth = SynthTruth(truth.basis, truth.lambdas, truth.z_i,
                           truth.z_next, loading)
    else:
        if spec.group_kind != "cyclic_shift":
            raise ValueError("raster embedding renders cyclic_shift sequences")
        big_d = spec.image_dim
        shift = _cyclic_shift_generator(big_d)
        basis = GeneratorBasis(_unit_frobenius(shift[None]))
        pattern = _lowpass_pattern(spec)
        offsets = big_d * rng.uniforms(spec.seed, (_TAG_Z,), n)
        lambdas = spec.lambda_scale * rng.normal_matrix(spec.seed, (_TAG_LAM,), (n, 1))
        x_i = apply_exact(basis, offsets[:, None] * np.linalg.norm(shift), pattern)
        x_next = apply_exact(basis, lambdas, x_i)
        truth = SynthTruth(basis, lambdas, x_i, x_next, None)
    if spec.noise_std > 0:
        x_i = x_i + spec.noise_std * rng.normal_matrix(
            spec.seed, (_TAG_PIXNOISE, 0), x_i.shape)
        x_next = x_next + spec.noise_std * rng.normal_matrix(
            spec.seed, (_TAG_PIXNOISE, 1), x_next.shape)
    dataset = ImagePairDataset(x_i, x_next, spec.height, spec.width)
    return dataset, truth


def subspace_angle(est: GeneratorBasis, truth: GeneratorBasis) -> float:
    """Largest principal angle (radians) between vectorized generator spans."""
    if est.latent_dim != truth.latent_dim:
        raise ValueError("bases act on different latent dimensions")
    angles = principal_angles(est, truth)
    return float(angles[-1])


def principal_angles(est: GeneratorBasis, truth: GeneratorBasis) -> np.ndarray:
    """All principal angles, ascending, from the cross-Gram SVD.

    Small angles are recovered through the sine-based residual SVD,
    which stays accurate where arccos of a near-unit singular value
    loses half the working precision.
    """
    def orthonormal_span(basis):
        flat = basis.generators.reshape(basis.count, -1)
        if not np.any(flat):
            raise NumericError("cannot measure the span of a zero basis")
        u, s, _ = np.linalg.svd(flat.T, full_matrices=False)
        keep = s > 1e-12 * s[0]
        return u[:, keep]

    ua = orthonormal_span(est)
    ub = orthonormal_span(truth)
    cross = ua.T @ ub
    k = min(ua.shape[1], ub.shape[1])
    # descending cosines and ascending sines both order angles ascending
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)[:k]
    sines = np.sort(np.clip(np.linalg.svd(ub - ua @ cross, compute_uv=False),
                            0.0, 1.0))[:k]
    return np.where(cosines ** 2 > 0.5, np.arcsin(sines), np.arccos(cosines))
