"""Deterministic counter-based random streams.

Every random draw in the library comes from a stream identified by a
64-bit seed plus a short integer path (e.g. ``(pair_index, epoch)``), so
datasets and fits are reproducible and parallel schedules cannot change
results.  The construction is fully documented so another implementation
can reproduce the streams bit-for-bit:

* bit source: Philox4x64-10 (Salmon et al., SC 2011) keyed by
  ``[seed, 0]``.  Block ``b`` (words ``4b .. 4b+3``) of the stream with
  path ``(a, c, e)`` is the cipher of the 256-bit counter
  ``[b + 1, a, c, e]`` (missing path words are zero).  The ``+ 1`` is
  numpy's: ``np.random.Philox`` increments word 0 before it generates
  its first block.
* uniforms: ``u = (raw >> 11) * 2**-53`` giving doubles in ``[0, 1)``.
* normals: Box-Muller on uniform pairs,
  ``r = sqrt(-2 ln(1 - u1)); z1 = r cos(2 pi u2); z2 = r sin(2 pi u2)``,
  where ``u1`` uses the first half of a ``2 ceil(n/2)`` uniform block and
  ``u2`` the second half.

:func:`uniforms` and :func:`normals` take one path (a tuple of at most
3 words) or a stack of ``P`` paths (an integer array of shape
``(P, w)``, ``w <= 3``) and then return one row per path, equal bit for
bit to the lone-path stream.  A lone path is drawn by
``np.random.Philox``; a stack is enciphered in plain numpy over the
whole ``(P, blocks)`` counter array (:func:`_philox_blocks`).  One
numpy pass costs the same for every stream in the stack, so it wins
when there are many short streams (one per pair and epoch in
``npca.fit``); per word it is about 7x slower than the compiled bit
generator (1.7 ms against 0.25 ms for 32k words of one stream on a
2-CPU x86-64 host), so long single streams (dataset noise, Monte Carlo
samples) stay on ``np.random.Philox``.  A short single stream is drawn
as a one-row stack instead: numpy loads ``numpy.random`` (with
``secrets``, ``hmac`` and OpenSSL) on first use only, and that import
costs more than enciphering a few words in numpy.  The initial
generators of every fit (:func:`lieflow.dynamics.init_model`, ``J d^2``
numbers) come so, and a ``dynamics`` or ``ppca`` fit loads no
``numpy.random``.
"""
from __future__ import annotations

import math

import numpy as np

_U53 = 2.0 ** -53
_RANGE_ERROR = "seeds and path words must lie in [0, 2**64)"
_MASK64 = 2 ** 64 - 1
# Philox4x64 multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _word(value: int) -> np.uint64:
    """A seed or path word as uint64, or the range error."""
    try:
        return np.uint64(value)
    except OverflowError as exc:
        raise ValueError(_RANGE_ERROR) from exc


def _bit_generator(seed: int, path: tuple[int, ...] = ()) -> np.random.Philox:
    if len(path) > 3:
        raise ValueError("stream path is limited to 3 words")
    counter = np.zeros(4, dtype=np.uint64)
    for i, word in enumerate(path):
        counter[i + 1] = _word(word)
    return np.random.Philox(key=_word(seed), counter=counter)


def _path_stack(paths: np.ndarray) -> np.ndarray:
    """Validated ``(P, 3)`` uint64 counter words of a stack of paths."""
    if paths.ndim != 2 or paths.dtype.kind not in "iuO":
        raise ValueError("a stack of paths is a 2-D integer array")
    if paths.shape[1] > 3:
        raise ValueError("stream path is limited to 3 words")
    # a cast to uint64 would wrap negative int64 words silently
    if paths.dtype.kind == "i" and np.any(paths < 0):
        raise ValueError(_RANGE_ERROR)
    words = np.zeros((paths.shape[0], 3), dtype=np.uint64)
    try:
        words[:, :paths.shape[1]] = paths
    except OverflowError as exc:
        raise ValueError(_RANGE_ERROR) from exc
    return words


def _mulhilo(m: int, x: np.ndarray):
    """Low and high 64-bit words of ``m * x``, the high word built from
    32-bit halves so that no partial product overflows."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    ll, lh = m_lo * x_lo, m_lo * x_hi
    cross = (ll >> _S32) + (lh & _LO32) + m_hi * x_lo
    return np.uint64(m) * x, m_hi * x_hi + (lh >> _S32) + (cross >> _S32)


def _philox_blocks(seed: int, words: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 of the counters ``[b + 1, *words[p]]`` for every path
    ``p`` and block ``b < blocks``: shape ``(P, 4 * blocks)``."""
    k0, k1 = int(_word(seed)), 0
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1, c2, c3 = (words[:, i:i + 1] for i in range(3))
    for _ in range(10):
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = (hi1 ^ c1 ^ np.uint64(k0), lo1,
                          hi0 ^ c3 ^ np.uint64(k1), lo0)
        k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(
        words.shape[0], 4 * blocks)


def _raw(seed: int, path: tuple[int, ...] | np.ndarray, n: int) -> np.ndarray:
    if isinstance(path, np.ndarray):
        return _philox_blocks(seed, _path_stack(path), -(-n // 4))[:, :n]
    return _bit_generator(seed, path).random_raw(n)


def uniforms(seed: int, path: tuple[int, ...] | np.ndarray, n: int) -> np.ndarray:
    """``n`` doubles in [0, 1) from the stream ``(seed, path)``; for a
    stack of paths, one row of ``n`` per path."""
    raw = _raw(seed, path, n)
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= _U53
    return u


def normals(seed: int, path: tuple[int, ...] | np.ndarray, n: int) -> np.ndarray:
    """``n`` standard-normal doubles from the stream ``(seed, path)``; for
    a stack of paths, one row of ``n`` per path."""
    half = (n + 1) // 2
    u = uniforms(seed, path, 2 * half)
    r, theta = u[..., :half], u[..., half:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * math.pi
    z = np.empty_like(u)
    np.cos(theta, out=z[..., :half])
    np.sin(theta, out=z[..., half:])
    z[..., :half] *= r
    z[..., half:] *= r
    return z[..., :n]


def normal_matrix(seed: int, path: tuple[int, ...] | np.ndarray,
                  shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """``scale`` times the first ``prod(shape)`` normals of one stream, as
    an array of ``shape``; ``path`` is a lone path or a one-row stack."""
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
