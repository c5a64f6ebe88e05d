"""Tensor-grid trapezoid quadrature for the quadrature E-step.

The quadrature E-step of :mod:`lieflow.ppca` (``estep="quadrature"``,
``--estep quadrature`` on the command line) normalizes each pair's
posterior over ``(z_i, lambda)`` on a box with :func:`grid_posterior`
and takes its moments from the normalized node weights.  Grids are size-limited (at
most ``MAX_GRID_NODES`` nodes) and a box whose faces carry
non-negligible density raises :class:`BoxTooSmallError`.  The
brute-force references the tests check the closed-form code against
(grid moments, importance sampling, finite differences) live in
``tests/reference.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import NumericError

# above the 48**4 nodes of the largest grid the tests build; one float64
# value per node takes 64 MiB
MAX_GRID_NODES = 2 ** 23
MIN_POINTS = 16
BOUNDARY_LIMIT = 1e-8


class BoxTooSmallError(NumericError):
    """Integration box carries non-negligible boundary mass."""


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product grid: per-dimension bounds and point counts."""

    lo: np.ndarray
    hi: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        pts = np.atleast_1d(np.asarray(self.points, dtype=int))
        if not (lo.shape == hi.shape == pts.shape):
            raise ValueError("lo, hi and points must have matching lengths")
        nodes = math.prod(int(p) for p in pts)
        if nodes > MAX_GRID_NODES:
            raise ValueError(
                f"a {lo.size}-dim grid of {nodes} nodes exceeds the budget of "
                f"{MAX_GRID_NODES}; use the fixed-point or Monte Carlo E-step "
                f"(--estep fixed-point or mc)")
        if np.any(pts < MIN_POINTS):
            raise ValueError(f"at least {MIN_POINTS} points per dimension required")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent in every dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "points", pts)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(l, h, p) for l, h, p in zip(self.lo, self.hi, self.points)]

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened nodes ``(m, dims)``, trapezoid weights ``(m,)`` and a
        boolean mask marking nodes on the box boundary."""
        axes = self.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes = np.stack([g.ravel() for g in mesh], axis=-1)
        weights = np.ones(1)
        boundary = np.zeros(1, dtype=bool)
        for ax in axes:
            w = np.full(ax.size, ax[1] - ax[0])
            w[0] *= 0.5
            w[-1] *= 0.5
            edge = np.zeros(ax.size, dtype=bool)
            edge[0] = edge[-1] = True
            weights = np.multiply.outer(weights, w).ravel()
            boundary = np.logical_or.outer(boundary, edge).ravel()
        return nodes, weights, boundary


@dataclass(frozen=True)
class GridPosterior:
    """Normalized density values on a grid, ready for taking expectations."""

    nodes: np.ndarray
    probs: np.ndarray          # trapezoid-weighted, sums to 1
    log_norm: float            # log of the integral of the unnormalized density
    boundary_ratio: float


def grid_posterior(log_density, grid: GridSpec) -> GridPosterior:
    """Normalize ``exp(log_density)`` on the grid.

    ``log_density`` must accept an ``(m, dims)`` array of points and
    return ``(m,)`` log values.  Raises :class:`BoxTooSmallError` when
    the density on the box faces exceeds ``1e-8`` of the peak.
    """
    nodes, weights, boundary = grid.nodes_weights()
    logf = np.asarray(log_density(nodes), dtype=float)
    if logf.shape != (nodes.shape[0],):
        raise ValueError("log_density must return one value per node")
    peak = logf.max()
    if not np.isfinite(peak):
        raise NumericError("log density is non-finite on the grid")
    boundary_ratio = float(np.exp(logf[boundary].max() - peak)) if boundary.any() else 0.0
    if boundary_ratio > BOUNDARY_LIMIT:
        raise BoxTooSmallError(
            f"boundary density is {boundary_ratio:.3e} of the peak; enlarge the box")
    f = weights * np.exp(logf - peak)
    total = f.sum()
    return GridPosterior(nodes, f / total, float(peak + np.log(total)), boundary_ratio)
