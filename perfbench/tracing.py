"""In-memory span tracer that wraps lieflow functions from the outside.

Nothing under ``src/`` knows about tracing.  :class:`Tracer.patched`
replaces each listed function, in every loaded ``lieflow`` module that
binds it, by a wrapper that records one span ``(name, start, end,
parent)``; the originals are restored on exit.  Spans stay in a list and
are reduced once, at the end, to per-name call counts, self time (span
duration minus the time covered by its direct child spans) and the
extra counts some wrappers keep (bytes moved, iterations, objects).
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _trace_length(args, kwargs, result):
    return len(result[1])


# (span name, defining module, attribute, extra counter, counter function)
# Functions imported by name into other modules (spd_cholesky,
# matrix_exp, m_step_dynamics, read/write_tensors) are patched wherever
# they are bound, so every call site is seen.
TARGETS = [
    ("gaussian.spd_cholesky", "lieflow.gaussian", "spd_cholesky", None, None),
    ("liealg.matrix_exp", "lieflow.liealg", "matrix_exp", None, None),
    ("liealg.orthogonalize", "lieflow.liealg", "orthogonalize", None, None),
    ("synth.generate_latent_pairs", "lieflow.synth", "generate_latent_pairs", None, None),
    ("synth.generate_image_pairs", "lieflow.synth", "generate_image_pairs", None, None),
    ("rng.normals", "lieflow.rng", "normals", None, None),
    ("rng.permutation", "lieflow.rng", "permutation", None, None),
    ("dynamics.fit", "lieflow.dynamics", "fit", "iters", _trace_length),
    ("dynamics.e_step_all", "lieflow.dynamics", "e_step_all", None, None),
    ("dynamics.e_step_block", "lieflow.dynamics", "_e_step_block", None, None),
    ("dynamics.m_step_G", "lieflow.dynamics", "m_step_G", None, None),
    ("dynamics.m_step_Omega", "lieflow.dynamics", "m_step_Omega", None, None),
    ("dynamics.marginal_log_likelihood", "lieflow.dynamics",
     "marginal_log_likelihood", None, None),
    ("ppca.fit", "lieflow.ppca", "fit", "iters", _trace_length),
    ("ppca.e_step_dataset", "lieflow.ppca", "_e_step_dataset", None, None),
    ("ppca.fixed_point_blocks", "lieflow.ppca", "_fixed_point_blocks", None, None),
    ("ppca.moments_from_blocks", "lieflow.ppca", "_moments_from_blocks", None, None),
    ("ppca.m_step_W", "lieflow.ppca", "m_step_W", None, None),
    ("ppca.m_step_sigma", "lieflow.ppca", "m_step_sigma", None, None),
    ("ppca.m_step_dynamics", "lieflow.ppca", "m_step_dynamics", None, None),
    ("ppca.mean_field_elbo", "lieflow.ppca", "mean_field_elbo", None, None),
    ("ppca.expected_complete_data_ll", "lieflow.ppca",
     "expected_complete_data_ll", None, None),
    ("ppca.posterior_z_given_x", "lieflow.ppca", "posterior_z_given_x", None, None),
    ("npca.fit", "lieflow.npca", "fit", None, None),
    ("npca.objective_with_grads", "lieflow.npca", "_objective_with_grads", None, None),
    ("npca.plugin_coefficients", "lieflow.npca", "plugin_coefficients", None, None),
    ("npca.apply_gradients", "lieflow.npca", "_apply_gradients", None, None),
    ("npca.encoded_moments", "lieflow.npca", "encoded_moments", None, None),
    ("tensorfile.write_tensors", "lieflow.tensorfile", "write_tensors",
     "bytes", _file_bytes),
    ("tensorfile.read_tensors", "lieflow.tensorfile", "read_tensors",
     "bytes", _file_bytes),
    ("cli.generate", "lieflow.cli", "cmd_generate", None, None),
    ("cli.fit", "lieflow.cli", "cmd_fit", None, None),
    ("cli.eval", "lieflow.cli", "cmd_eval", None, None),
    ("cli.roll", "lieflow.cli", "cmd_roll", None, None),
]

# LatentMoments validates itself in __post_init__; patched on the class,
# one span per constructed object.
CLASS_TARGETS = [
    ("ppca.latent_moments", "lieflow.ppca", "LatentMoments", "__post_init__"),
]


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.extra: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def span(self, name: str):
        """Context manager recording one span around benchmark code."""
        return self._Span(self, name)

    class _Span:
        def __init__(self, tracer, name):
            self.tracer, self.name = tracer, name

        def __enter__(self):
            tr = self.tracer
            self.parent = tr._stack[-1]
            self.index = len(tr.spans)
            tr.spans.append((self.name, 0.0, 0.0, self.parent))
            tr._stack.append(self.index)
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            end = time.perf_counter()
            tr = self.tracer
            tr._stack.pop()
            tr.spans[self.index] = (self.name, self.start, end, self.parent)
            return False

    def _wrap(self, name, fn, extra_key, extra_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if extra_key is not None:
                self.extra[f"{name}.{extra_key}"] += extra_fn(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        import lieflow.cli  # noqa: F401  (load every module that binds a target)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "lieflow" or n.startswith("lieflow.")]
        undo = []
        try:
            for name, mod_name, attr, extra_key, extra_fn in TARGETS:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, original, extra_key, extra_fn)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            for name, mod_name, cls_name, attr in CLASS_TARGETS:
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, None, None))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[k]
        return dict(out)

    def coverage(self, root: str) -> float:
        """Share of the ``root`` span covered by the spans two levels
        below it: the root is the benchmark's timed call, the level
        below it the entry points (a ``fit`` or a CLI subcommand), and
        the level below those the listed layers."""
        roots = {k for k, s in enumerate(self.spans) if s[0] == root}
        entries = {k for k, s in enumerate(self.spans) if s[3] in roots}
        covered = sum(end - start for _, start, end, parent in self.spans
                      if parent in entries)
        total = sum(self.spans[k][2] - self.spans[k][1] for k in roots)
        return covered / total if total > 0 else 0.0
