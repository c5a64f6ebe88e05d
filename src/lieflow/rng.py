"""Deterministic counter-based random streams.

Every random draw in the library comes from a stream identified by a
64-bit seed plus a short integer path (e.g. ``(pair_index, epoch)``), so
datasets and fits are reproducible and parallel schedules cannot change
results.  The construction is fully documented so another implementation
can reproduce the streams bit-for-bit:

* bit source: Philox4x64-10 keyed by ``seed``, with the 256-bit counter
  initialised to ``[0, path[0], path[1], path[2]]`` (missing path words
  are zero).  Word 0 is left free for in-stream advancement.
* uniforms: ``u = (raw >> 11) * 2**-53`` giving doubles in ``[0, 1)``.
* normals: Box-Muller on uniform pairs,
  ``r = sqrt(-2 ln(1 - u1)); z1 = r cos(2 pi u2); z2 = r sin(2 pi u2)``,
  where ``u1`` uses the first half of a ``2 ceil(n/2)`` uniform block and
  ``u2`` the second half.
"""
from __future__ import annotations

import math

import numpy as np

_U53 = 2.0 ** -53


def _bit_generator(seed: int, path: tuple[int, ...] = ()) -> np.random.Philox:
    if len(path) > 3:
        raise ValueError("stream path is limited to 3 words")
    counter = np.zeros(4, dtype=np.uint64)
    try:
        for i, word in enumerate(path):
            counter[i + 1] = np.uint64(word)
        return np.random.Philox(key=np.uint64(seed), counter=counter)
    except OverflowError as exc:
        raise ValueError("seeds and path words must lie in [0, 2**64)") from exc


def uniforms(seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """``n`` doubles in [0, 1) from the stream ``(seed, path)``."""
    raw = _bit_generator(seed, path).random_raw(n)
    return (raw >> np.uint64(11)).astype(np.float64) * _U53


def normals(seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """``n`` standard-normal doubles from the stream ``(seed, path)``."""
    if n == 0:
        return np.zeros(0)
    half = (n + 1) // 2
    u = uniforms(seed, path, 2 * half)
    r = np.sqrt(-2.0 * np.log1p(-u[:half]))
    theta = 2.0 * math.pi * u[half:]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:n]


def normal_matrix(seed: int, path: tuple[int, ...], shape: tuple[int, ...],
                  scale: float = 1.0) -> np.ndarray:
    size = int(np.prod(shape))
    return scale * normals(seed, path, size).reshape(shape)


def orthonormal_columns(seed: int, path: tuple[int, ...], rows: int,
                        cols: int) -> np.ndarray:
    """Seeded orthonormal ``rows x cols`` matrix with a fixed sign convention."""
    if cols > rows:
        raise ValueError("cannot draw more orthonormal columns than rows")
    g = normal_matrix(seed, path, (rows, cols))
    q, r = np.linalg.qr(g)
    # make the factorization unique: positive diagonal of R
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return q


def permutation(seed: int, path: tuple[int, ...], n: int) -> np.ndarray:
    """Deterministic permutation of ``range(n)`` (argsort of one uniform block)."""
    return np.argsort(uniforms(seed, path, n), kind="stable")
