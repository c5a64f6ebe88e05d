"""The four benchmark workloads, their sizes and their output checks.

Every workload is a function ``rep(seed, size, span)`` that makes its
inputs from ``seed``, runs one timed call through the public lieflow API
(or CLI), scores the result and returns an :class:`Outcome`.  ``span``
is a context-manager factory: the benchmark passes a no-op one for
untraced runs and ``Tracer.span`` for traced runs, where it marks the
timed call as the root span ``run``.

All fits run single-threaded (``threads=1``, the CLI default), because
ppca results depend on the thread count.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from lieflow import GeneratorBasis, NpcaConfig, PpcaConfig, SequenceSpec
from lieflow.dynamics import EmConfig
from lieflow import cli, dynamics, npca, ppca, synth
# bound here, so the artifact checks read files through the original
# function even while the tracer has patched lieflow.tensorfile
from lieflow.tensorfile import TensorFormatError, read_tensors

# Sizes.  "full" is what the benchmark measures; "tiny" only exercises
# the harness (self-test) and applies no recovery thresholds.  Fit
# iterations are capped below the count at which the stopping rule
# fires (above 20 for latent_em and 18-20 for image_em, on every seed
# tried), so every seed does the same work and fit_s does not follow
# the seed.  The caps are still high enough for every seed tried (0-79
# for latent_em, 0-40 for image_em, and a few large ones) to pass its
# recovery threshold; some latent
# seeds sit on a plateau for the first 15-20 iterations, fewer at larger
# N.  Image generation takes ~0.1 s, so it is timed ``gen_repeats``
# times per repetition and the median kept.
SIZES = {
    "full": {
        "latent_em": {"n": 10_000, "max_iters": 20, "angle_max": 1e-2,
                      "gen_repeats": 1},
        "image_em": {"n": 2000, "max_iters": 10, "angle_max": 5e-2,
                     "gen_repeats": 7},
        "vem_train": {"n": 2000, "epochs": 4, "gen_repeats": 3},
        "cli_roundtrip": {"n": 500, "max_iters": 2, "steps": 200},
        "setup_samples": 5,
    },
    "tiny": {
        "latent_em": {"n": 300, "max_iters": 3, "angle_max": None,
                      "gen_repeats": 1},
        "image_em": {"n": 100, "max_iters": 2, "angle_max": None,
                     "gen_repeats": 2},
        "vem_train": {"n": 100, "epochs": 2, "gen_repeats": 2},
        "cli_roundtrip": {"n": 50, "max_iters": 2, "steps": 20},
        "setup_samples": 1,
    },
}

# Fit initialization seeds stay fixed; only the data follows --seed.
FIT_SEED = 2


@dataclass
class Outcome:
    """One repetition of a workload."""

    times: dict[str, float]       # generate_s, fit_s, roundtrip_s
    timed_s: float                # wall time of the timed call
    cpu_s: float                  # CPU time of the timed call
    iters: int                    # EM iterations or epochs run
    objective: float              # last trace value
    angle: float                  # recovery angle, radians
    digest: str                   # SHA-256 of the fitted parameters
    trace: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    slowdown: float = 1.0         # machine slowdown measured around it


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _dynamics_arrays(model) -> list:
    return [model.basis.generators, model.trans_cov, model.coeff_prior_cov]


def _mapped_angle(generators, t: np.ndarray, truth_basis) -> float:
    """Span angle after carrying fitted generators into the true latent
    coordinates by ``T G T^-1`` (acceptance criterion 8)."""
    t_inv = np.linalg.inv(t)
    mapped = np.stack([t @ g @ t_inv for g in generators])
    return synth.subspace_angle(GeneratorBasis(mapped), truth_basis)


def _image_spec(n: int, seed: int) -> SequenceSpec:
    return SequenceSpec(group_kind="rotation2d", lambda_scale=0.05,
                        noise_std=0.01, pair_count=n, seed=seed,
                        height=4, width=4)


def _generate(make, repeats: int):
    """Call ``make`` ``repeats`` times; return the last result, the
    median call time and the start time of the last call."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times), start


def _check_trace(out: Outcome) -> None:
    if not out.trace or not all(math.isfinite(v) for v in out.trace):
        out.problems.append("objective trace is empty or non-finite")


def _library_rep(span, make_data, repeats, fit, score, params) -> Outcome:
    """Generate (timed ``repeats`` times), fit under the root span
    ``run``, then score; ``params`` lists the arrays to checksum."""
    (data, truth), gen_s, t0 = _generate(make_data, repeats)
    c0, t1 = _cpu(), time.perf_counter()
    with span("run"):
        model, trace = fit(data)
    c1, t2 = _cpu(), time.perf_counter()
    angle = score(model, data, truth)
    t3 = time.perf_counter()
    out = Outcome({"generate_s": gen_s, "fit_s": t2 - t1,
                   "roundtrip_s": t3 - t0}, t2 - t1, c1 - c0, len(trace),
                  trace[-1], angle, _digest(params(model)), trace)
    _check_trace(out)
    return out


def latent_em(seed: int, size: dict, span) -> Outcome:
    p = size["latent_em"]
    spec = SequenceSpec(group_kind="latent_random", latent_dim=6,
                        generator_count=2, lambda_scale=0.05, noise_std=1e-3,
                        pair_count=p["n"], seed=seed)
    return _library_rep(
        span, lambda: synth.generate_latent_pairs(spec), p["gen_repeats"],
        lambda data: dynamics.fit(data, EmConfig(
            j_init=2, max_iters=p["max_iters"], seed=FIT_SEED, threads=1)),
        lambda model, data, truth: synth.subspace_angle(model.basis,
                                                        truth.basis),
        _dynamics_arrays)


def image_em(seed: int, size: dict, span) -> Outcome:
    p = size["image_em"]
    spec = _image_spec(p["n"], seed)
    return _library_rep(
        span, lambda: synth.generate_image_pairs(spec, embedding="linear"),
        p["gen_repeats"],
        lambda data: ppca.fit(data, PpcaConfig(
            latent_dim=2, j_init=1, estep="fixed_point",
            max_iters=p["max_iters"], seed=FIT_SEED, estimate_lambda=True,
            threads=1)),
        lambda model, data, truth: _mapped_angle(
            model.dynamics.basis.generators,
            truth.loading.T @ model.loading, truth.basis),
        lambda model: _dynamics_arrays(model.dynamics) + [
            model.loading, model.data_mean, model.noise_var])


def _vem_angle(model, data, truth) -> float:
    # a linear read-out of the encoder means onto the true latents plays
    # the role of the loading in the criterion-8 mapping
    means, _ = npca.encode(model, data.x_i)
    readout, *_ = np.linalg.lstsq(means, truth.z_i, rcond=None)
    return _mapped_angle(model.dynamics.basis.generators, readout.T,
                         truth.basis)


def vem_train(seed: int, size: dict, span) -> Outcome:
    p = size["vem_train"]
    spec = _image_spec(p["n"], seed)
    # step 1e-3 is the CLI default; NpcaConfig's own default (1e-2)
    # diverges on this data within a few epochs.
    out = _library_rep(
        span, lambda: synth.generate_image_pairs(spec, embedding="linear"),
        p["gen_repeats"],
        lambda data: npca.fit(data, NpcaConfig(
            latent_dim=2, hidden_sizes=(16,), j_init=1, step_size=1e-3,
            batch_size=32, epochs=p["epochs"], seed=FIT_SEED,
            coeff_mode="map_plugin")),
        _vem_angle,
        lambda model: _dynamics_arrays(model.dynamics) + [
            a for _, a in npca.named_parameters(model)] + [model.obs_noise_var])
    if len(out.trace) >= 2 and not out.trace[-1] > out.trace[0]:
        out.problems.append("training objective did not rise over the epochs")
    return out


class CliRoundtrip:
    """``generate -> fit -> eval -> roll`` through ``lieflow.cli``.

    Untraced, each subcommand is its own ``python -m lieflow.cli``
    process, as a user runs them.  Traced (``in_process``), the same
    argument lists go to ``lieflow.cli.main`` in this process, so the
    wrappers see the tensorfile and ppca calls; the untraced run that
    the traced one is compared with is then in-process too.
    """

    COMMANDS = ("generate", "fit", "eval", "roll")

    def __init__(self, workdir: str, src: str, in_process: bool):
        self.workdir, self.src, self.in_process = workdir, src, in_process

    def argv(self, seed: int, p: dict) -> list[list[str]]:
        w = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        return [
            ["generate", "--mode", "image", "--kind", "rotation2d",
             "--height", "4", "--width", "4", "--n", str(p["n"]),
             "--lambda-scale", "0.05", "--noise-std", "0.01",
             "--seed", str(seed), "--out", w("data.lf")],
            ["fit", "--estimator", "ppca", "--data", w("data.lf"), "--d", "2",
             "--j", "1", "--max-iters", str(p["max_iters"]),
             "--seed", str(FIT_SEED), "--threads", "1", "--estimate-lambda",
             "--out", w("model.lf"), "--trace-out", w("trace.csv")],
            ["eval", "--checkpoint", w("model.lf"), "--data", w("data.lf"),
             "--out", w("metrics.csv")],
            ["roll", "--checkpoint", w("model.lf"), "--data", w("data.lf"),
             "--mode", "extrapolate", "--t-max", "2",
             "--steps", str(p["steps"]), "--out", w("traj.lf")],
        ]

    def _run(self, args: list[str]) -> tuple[int, str]:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(args)
            return code, buf.getvalue()
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.run([sys.executable, "-m", "lieflow.cli", *args],
                              env=env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=150)
        return proc.returncode, proc.stdout + proc.stderr

    def __call__(self, seed: int, size: dict, span) -> Outcome:
        p = size["cli_roundtrip"]
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        walls, problems = {}, []
        c0, t0 = _cpu(), time.perf_counter()
        with span("run"):
            for name, args in zip(self.COMMANDS, self.argv(seed, p)):
                start = time.perf_counter()
                code, text = self._run(args)
                walls[name] = time.perf_counter() - start
                if code != 0:
                    problems.append(f"{name} exited {code}: {text.strip()[-300:]}")
                    break
        c1, t1 = _cpu(), time.perf_counter()
        out = Outcome({"generate_s": walls.get("generate", 0.0),
                       "fit_s": walls.get("fit", 0.0), "roundtrip_s": t1 - t0},
                      t1 - t0, c1 - c0, 0, math.nan, math.nan, "", [], problems)
        out.times.update({f"cli.{k}_s": v for k, v in walls.items()})
        if not problems:
            self._check_artifacts(out, p)
        return out

    def _check_artifacts(self, out: Outcome, p: dict) -> None:
        w = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        try:
            data = read_tensors(w("data.lf"))
            ck = read_tensors(w("model.lf"))
            traj = read_tensors(w("traj.lf"))
        except (TensorFormatError, OSError) as exc:
            out.problems.append(f"artifact does not parse: {exc}")
            return
        with open(w("model.lf"), "rb") as fh:
            out.digest = hashlib.sha256(fh.read()).hexdigest()
        with open(w("metrics.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        metrics = {r[0]: float(r[1]) for r in rows[1:] if len(r) == 2}
        if rows[:1] != [["metric", "value"]] or not all(
                math.isfinite(v) for v in metrics.values()) or not {
                "subspace_angle_rad", "reconstruction_mse",
                "final_objective"} <= metrics.keys():
            out.problems.append(f"metrics.csv is malformed: {rows}")
        with open(w("trace.csv"), newline="") as fh:
            trace_rows = list(csv.reader(fh))[1:]
        out.trace = [float(r[1]) for r in trace_rows]
        out.iters = len(out.trace)
        out.objective = float(ck["final_objective"])
        _check_trace(out)
        if traj["t"].shape != (p["steps"],) or traj["x_traj"].shape != (
                p["steps"], data["x_i"].shape[1]) or not np.all(
                np.isfinite(traj["x_traj"])):
            out.problems.append("trajectory has the wrong shape or non-finite values")
        out.angle = _mapped_angle(ck["G"], data["true_W"].T @ ck["W"],
                                  GeneratorBasis(data["true_G"]))


LIBRARY = {"latent_em": latent_em, "image_em": image_em,
           "vem_train": vem_train}
NAMES = ("latent_em", "image_em", "vem_train", "cli_roundtrip")


def check(out: Outcome, workload: str, size: dict,
          reference: dict | None, rtol: float) -> None:
    """Add quality and reference failures to ``out.problems``.

    Quality thresholds apply at every seed; ``reference`` (iteration
    count and final objective) only at the seed it was recorded for.
    """
    limit = size[workload].get("angle_max")
    if limit is not None and not out.angle < limit:
        out.problems.append(
            f"recovery angle {out.angle:.3e} rad is not below {limit:g}")
    if reference is None:
        return
    if out.iters != reference["iters"]:
        out.problems.append(
            f"{out.iters} iterations, reference {reference['iters']}")
    ref = reference["objective"]
    if not abs(out.objective - ref) <= rtol * abs(ref):
        out.problems.append(
            f"final objective {out.objective!r} differs from reference "
            f"{ref!r} by more than rtol {rtol:g}")
