"""Command-line surface: generate / fit / eval / roll.

One binary with four subcommands.  ``_OPTIONS`` is the one place each
option is declared: flag, config key, type, default, choices or range.
Flags override an optional JSON ``--config`` file, which overrides the
defaults; every value is checked the same way whatever its source.
Exit codes: 0 success, 2 usage error, 3 I/O or format error, 4 numeric
abort.  All numeric CSV output uses 17 significant digits so files are
reproducible bit-for-bit under a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn_mod
from . import liealg, npca, ppca, synth
from .dynamics import DynamicsModel, EmConfig, PairDataset
from .gaussian import NumericError
from .liealg import GeneratorBasis
from .synth import ImagePairDataset, SequenceSpec
from .tensorfile import TensorFormatError, read_tensors, write_tensors

EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC = 0, 2, 3, 4

_ESTIMATOR_CODES = {"dynamics": 0.0, "ppca": 1.0, "npca": 2.0}
_ESTEP_FLAGS = {"quadrature": "quadrature", "fixed-point": "fixed_point",
                "mc": "monte_carlo"}
# roll's Gauss-Newton coefficient fit: step limit and residual-norm tolerance
_ROLL_ITERS, _ROLL_TOL = 60, 1e-12


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    # 17 significant digits round-trip a float64 exactly
    return f"{float(x):.16e}"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# generate


def cmd_generate(opts) -> int:
    spec = SequenceSpec(
        group_kind=opts["kind"], latent_dim=opts["d"],
        height=opts["height"], width=opts["width"],
        generator_count=opts["j"], lambda_scale=opts["lambda_scale"],
        noise_std=opts["noise_std"], pair_count=opts["n"],
        seed=opts["seed"], first_order=opts["first_order"])
    if opts["mode"] == "latent":
        data, truth = synth.generate_latent_pairs(spec)
        arrays = {"z_i": data.z_i, "z_next": data.z_next}
        dims = data.latent_dim
    else:
        data, truth = synth.generate_image_pairs(spec, opts["embedding"])
        arrays = {"x_i": data.x_i, "x_next": data.x_next,
                  "height": np.float64(data.height),
                  "width": np.float64(data.width)}
        if truth.loading is not None:
            arrays["true_W"] = truth.loading
        arrays.update(true_z_i=truth.z_i, true_z_next=truth.z_next)
        dims = data.image_dim
    arrays.update(true_G=truth.basis.generators, true_lambdas=truth.lambdas)
    write_tensors(opts["out"], arrays)
    print(f"n={spec.pair_count}", f"dim={dims}", f"seed={spec.seed}",
          f"kind={spec.group_kind}", f"out={opts['out']}", sep="\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _load_latent_dataset(arrays) -> PairDataset:
    if "z_i" not in arrays or "z_next" not in arrays:
        raise UsageError("dataset does not contain latent pairs (z_i, z_next)")
    return PairDataset(arrays["z_i"], arrays["z_next"])


def _load_image_dataset(arrays) -> ImagePairDataset:
    if "x_i" not in arrays or "x_next" not in arrays:
        raise UsageError("dataset does not contain image pairs (x_i, x_next)")
    width = np.atleast_2d(arrays["x_i"]).shape[1]   # by default one pixel row
    height, width = (_scalar(arrays, name, 1) if name in arrays else default
                     for name, default in (("height", 1), ("width", width)))
    return ImagePairDataset(arrays["x_i"], arrays["x_next"], height, width)


def _dynamics_arrays(model: DynamicsModel) -> dict[str, np.ndarray]:
    return {"G": model.basis.generators, "Omega": model.trans_cov,
            "Lambda": model.coeff_prior_cov}


def _npca_arrays(model: npca.NpcaModel) -> dict[str, np.ndarray]:
    arrays = {"enc_trunk_count": np.float64(len(model.encoder.weights) - 1),
              "dec_count": np.float64(len(model.decoder.weights))}
    arrays.update(npca.named_parameters(model))
    arrays["sigma2"] = np.float64(model.obs_noise_var)
    return arrays


def cmd_fit(opts) -> int:
    arrays = read_tensors(opts["data"])
    estimator = opts["estimator"]
    em = dict(j_init=opts["j"], max_iters=opts["max_iters"], tol=opts["tol"],
              seed=opts["seed"], estimate_lambda=opts["estimate_lambda"],
              threads=opts["threads"] or os.cpu_count() or 1)
    if estimator == "dynamics":
        data = _load_latent_dataset(arrays)
        if opts["d"] and opts["d"] != data.latent_dim:
            raise UsageError(
                f"config latent dim {opts['d']} != dataset dim {data.latent_dim}")
        config = EmConfig(**em)
        model, trace = dyn_mod.fit(data, config)
        checkpoint = _dynamics_arrays(model)
    elif estimator == "ppca":
        data = _load_image_dataset(arrays)
        config = ppca.PpcaConfig(latent_dim=opts["d"] or 2,
                                 estep=_ESTEP_FLAGS[opts["estep"]], **em)
        model, trace = ppca.fit(data, config)
        checkpoint = _dynamics_arrays(model.dynamics)
        checkpoint.update({"W": model.loading, "mu": model.data_mean,
                           "sigma2": np.float64(model.noise_var)})
    else:
        data = _load_image_dataset(arrays)
        config = npca.NpcaConfig(
            latent_dim=opts["d"] or 2,
            hidden_sizes=tuple(opts["hidden"]), j_init=opts["j"],
            step_size=opts["step_size"], batch_size=opts["batch_size"],
            epochs=opts["max_iters"], seed=opts["seed"],
            obs_noise_var=opts["obs_noise_var"],
            estimate_lambda=opts["estimate_lambda"])
        init = None
        if opts["warm_start"]:
            if opts["hidden"]:
                raise UsageError("--warm-start requires --hidden with no sizes")
            init = npca.linear_warm_start(data, config.latent_dim,
                                          config.obs_noise_var)
        model, trace = npca.fit(data, config, init=init)
        checkpoint = _dynamics_arrays(model.dynamics)
        checkpoint.update(_npca_arrays(model))

    # npca trains for a fixed number of epochs: no stopping rule to fire
    converged = estimator != "npca" and dyn_mod.converged(trace, config.tol)
    checkpoint["estimator"] = np.float64(_ESTIMATOR_CODES[estimator])
    checkpoint["final_objective"] = np.float64(trace[-1])
    checkpoint["converged"] = np.float64(converged)
    write_tensors(opts["out"], checkpoint)
    trace_path = opts["trace_out"] or os.path.join(
        os.path.dirname(os.path.abspath(opts["out"])), "trace.csv")
    _write_csv(trace_path, "iter,objective",
               [(k, float(v)) for k, v in enumerate(trace)])
    print(f"converged={str(converged).lower()} iters={len(trace)} "
          f"objective={_fmt(trace[-1])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _checkpoint_dynamics(ck) -> DynamicsModel:
    return DynamicsModel(GeneratorBasis(ck["G"]), ck["Omega"], ck["Lambda"])


def _scalar(arrays, name: str, least=None, most=np.inf) -> float | int:
    """The finite scalar ``arrays[name]`` of a file; given ``least``, a
    whole number in ``[least, most]``, returned as an int."""
    shape = np.shape(arrays[name])
    if shape != ():
        raise UsageError(f"array {name!r} must be a scalar, not of shape {shape}")
    value = float(arrays[name])
    if not np.isfinite(value):
        raise NumericError(f"array {name!r} must be finite")
    if least is not None and not (least <= value <= most and value == int(value)):
        raise UsageError(f"array {name!r} must be a whole number "
                         f"in [{least}, {most}], got {value!r}")
    return value if least is None else int(value)


def _checkpoint_npca(ck) -> npca.NpcaModel:
    # each layer holds arrays of the file, which bounds the counts
    trunk = _scalar(ck, "enc_trunk_count", 0, len(ck))
    dec = _scalar(ck, "dec_count", 1, len(ck) - trunk)
    return npca.assemble(ck, trunk, dec, _scalar(ck, "sigma2"),
                         _checkpoint_dynamics(ck))


def _image_maps(ck, estimator: str):
    """The frame -> latent-mean map (ppca posterior or npca encoder means)
    and the latent -> frame map of an image checkpoint, over stacks."""
    if estimator == "ppca":
        m = ppca.PpcaModel(ck["W"], ck["mu"], _scalar(ck, "sigma2"),
                           _checkpoint_dynamics(ck))
        return (lambda x: ppca.posterior_z_given_x(m, x)[0],
                lambda z: z @ m.loading.T + m.data_mean)
    m = _checkpoint_npca(ck)
    return lambda x: npca.encode(m, x)[0], lambda z: npca.decode(m, z)


class _Checkpoint(dict):
    """Arrays of a ``--checkpoint`` file; a missing one is a usage error."""

    def __missing__(self, name):
        raise UsageError(f"checkpoint has no array {name!r}")


def _read_checkpoint(path) -> tuple[_Checkpoint, str]:
    """The checkpoint's arrays and the estimator that wrote them."""
    ck = _Checkpoint(read_tensors(path))
    code = _scalar(ck, "estimator") if "estimator" in ck else 0.0
    for estimator, value in _ESTIMATOR_CODES.items():
        if value == code:
            return ck, estimator
    raise UsageError(f"checkpoint has unknown estimator code {code}")


def cmd_eval(opts) -> int:
    ck, estimator = _read_checkpoint(opts["checkpoint"])
    arrays = read_tensors(opts["data"])
    dynamics = _checkpoint_dynamics(ck)
    # scored first: data the checkpoint cannot score ends it before a warning
    if estimator == "dynamics":
        data = _load_latent_dataset(arrays)
        ll = dyn_mod.marginal_log_likelihood(dynamics, data) / data.count
        rows = [("predictive_log_density", float(ll))]
    else:
        data = _load_image_dataset(arrays)
        encode, decode = _image_maps(ck, estimator)
        recon = decode(encode(data.x_i))
        mse = float(np.mean((recon - data.x_i) ** 2))
        rows = [("reconstruction_mse", mse)]
    if "true_G" not in arrays:
        print("warning: no ground-truth sidecar; recovery metrics omitted",
              file=sys.stderr)
    elif not np.any(dynamics.basis.generators):
        print("warning: checkpoint basis is zero; span angle undefined",
              file=sys.stderr)
    else:
        angle = synth.subspace_angle(dynamics.basis,
                                     GeneratorBasis(arrays["true_G"]))
        rows.insert(0, ("subspace_angle_rad", float(angle)))
    if "final_objective" in ck:
        rows.append(("final_objective", _scalar(ck, "final_objective")))
    _write_csv(opts["out"], "metric,value", rows)
    for name, value in rows:
        print(f"{name}={_fmt(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# roll


def _infer_roll_coefficients(dynamics: DynamicsModel, z0: np.ndarray,
                             z1: np.ndarray) -> np.ndarray:
    """Coefficients of the seed transformation under the exact exponential
    map, refined by damped Gauss-Newton from the first-order posterior
    mean (which understates large transformations)."""
    mean, _ = dyn_mod.e_step_all(dynamics, PairDataset(z0[None], z1[None]))
    lam = mean[:, 0]
    h, eye = 1e-6, np.eye(lam.size)
    # backtracking: the first halved step that lowers the residual is taken
    scales = 0.5 ** np.arange(20)
    for _ in range(_ROLL_ITERS):
        current = liealg.apply_exact(dynamics.basis, lam, z0)
        residual = z1 - current
        best = np.linalg.norm(residual)
        if best < _ROLL_TOL:
            break
        jac = (liealg.apply_exact(dynamics.basis, lam + h * eye, z0)
               - current).T / h
        gram = jac.T @ jac + 1e-12 * eye
        step = np.linalg.solve(gram, jac.T @ residual)
        trials = lam + scales[:, None] * step
        errs = np.linalg.norm(
            z1 - liealg.apply_exact(dynamics.basis, trials, z0), axis=1)
        better = np.flatnonzero(errs < best)
        if better.size == 0:
            break
        lam = trials[better[0]]
    return lam


def cmd_roll(opts) -> int:
    """Interpolate or extrapolate one pair: the seed latent moved by
    ``exp(t sum_j lambda_j G_j)`` for ``--steps`` values of ``t`` in
    ``[0, --t-max]``, through :func:`liealg.apply_exact` with the
    coefficients ``t * lambda`` (decoded to frames for image models)."""
    ck, estimator = _read_checkpoint(opts["checkpoint"])
    arrays = read_tensors(opts["data"])
    dynamics = _checkpoint_dynamics(ck)
    k = opts["pair_index"]

    latent = estimator == "dynamics"
    data = (_load_latent_dataset if latent else _load_image_dataset)(arrays)
    if not 0 <= k < data.count:
        raise UsageError(f"pair index {k} out of range")
    if latent:
        z0, z1 = data.z_i[k], data.z_next[k]
    else:
        encode, decode = _image_maps(ck, estimator)
        z0, z1 = encode(data.frames[:, k])

    lam_hat = _infer_roll_coefficients(dynamics, z0, z1)
    t_max = opts["t_max"] if opts["t_max"] is not None else \
        (1.0 if opts["mode"] == "interpolate" else 2.0)
    ts = np.linspace(0.0, t_max, opts["steps"])
    with np.errstate(over="ignore"):  # apply_exact rejects an overflowed t * lam
        coeffs = ts[:, None] * lam_hat
    traj = liealg.apply_exact(dynamics.basis, coeffs, z0)
    out_arrays = {"t": ts, "z_traj": traj, "lambda_hat": lam_hat}
    if not latent:
        out_arrays["x_traj"] = decode(traj)
    write_tensors(opts["out"], out_arrays)
    csv_path = opts["csv_out"] or opts["out"] + ".csv"
    _write_csv(csv_path, "step,t,z_norm",
               [(i, float(t), float(np.linalg.norm(z)))
                for i, (t, z) in enumerate(zip(ts, traj))])
    print(f"steps={opts['steps']} t_max={_fmt(t_max)} out={opts['out']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


@dataclass(frozen=True)
class _Option:
    """One option: flag ``--name`` and config key ``name`` of commands."""

    commands: str       # space-separated subcommands
    name: str
    type: type          # int, float (finite), str, bool (a flag) or list
    default: object = None      # None: unset, unless required
    choices: tuple = ()
    low: float | None = None    # smallest allowed value (of each element)
    above: bool = False         # low itself is excluded
    high: int | None = None     # largest allowed value
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


_OPTIONS = (
    _Option("generate", "kind", str, "rotation2d", synth.KINDS),
    _Option("generate", "mode", str, "latent", ("latent", "image")),
    _Option("generate", "embedding", str, "linear", ("linear", "raster")),
    _Option("generate", "n", int, 100, low=1),
    _Option("generate", "d", int, 2, low=1),
    _Option("generate", "j", int, 1, low=1),
    _Option("generate", "height", int, 1, low=1),
    _Option("generate", "width", int, 4, low=1),
    _Option("generate", "lambda_scale", float, 0.05, low=0.0),
    _Option("generate", "noise_std", float, 0.0, low=0.0),
    _Option("generate", "seed", int, 0, low=0, high=2 ** 64 - 1),
    _Option("generate", "first_order", bool, False),
    _Option("generate", "out", str, "dataset.lf"),
    _Option("fit", "estimator", str, "dynamics", tuple(_ESTIMATOR_CODES)),
    _Option("eval roll", "checkpoint", str, required=True),
    _Option("fit eval roll", "data", str, required=True),
    _Option("fit", "d", int, 0, low=0),   # 0: dataset's (dynamics), else 2
    _Option("fit", "j", int, 1, low=1),
    _Option("fit", "estep", str, "fixed-point", tuple(_ESTEP_FLAGS)),
    _Option("fit", "max_iters", int, 500, low=1),
    _Option("fit", "tol", float, 1e-8, low=0.0),
    _Option("fit", "seed", int, 0, low=0, high=2 ** 64 - 1),
    _Option("fit", "threads", int, 1, low=0),   # 0 uses every CPU
    _Option("fit", "estimate_lambda", bool, False),
    _Option("fit", "hidden", list, (), low=1),
    _Option("fit", "step_size", float, 1e-3, low=0.0, above=True),
    _Option("fit", "batch_size", int, 32, low=1),
    _Option("fit", "obs_noise_var", float, 0.01, low=0.0, above=True),
    _Option("fit", "warm_start", bool, False),
    _Option("fit", "out", str, "checkpoint.lf"),
    _Option("fit", "trace_out", str),
    _Option("eval", "out", str, "metrics.csv"),
    _Option("roll", "pair_index", int, 0),
    _Option("roll", "mode", str, "interpolate", ("interpolate", "extrapolate")),
    _Option("roll", "steps", int, 11, low=1),
    _Option("roll", "t_max", float),
    _Option("roll", "out", str, "trajectory.lf"),
    _Option("roll", "csv_out", str),
)
# accepted JSON types; a bool is no number and a float no integer
_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}
_COMMANDS = {"generate": ("synthesize a dataset", cmd_generate),
             "fit": ("fit an estimator to a dataset", cmd_fit),
             "eval": ("score a checkpoint on a dataset", cmd_eval),
             "roll": ("interpolate or extrapolate a pair", cmd_roll)}


def _check(opt: _Option, value):
    """``value`` as the handlers use it, or a UsageError naming the flag."""
    if value is None:
        if opt.required or opt.default is not None:
            raise UsageError(f"{opt.flag} is required" if opt.required
                             else f"{opt.flag} must not be null")
        return None
    items = value if opt.type is list else [value]
    kind = int if opt.type is list else opt.type
    if not isinstance(items, (list, tuple)) or not all(
            isinstance(v, _JSON_TYPES[kind])
            and isinstance(v, bool) == (kind is bool) for v in items):
        expected = "list of int" if opt.type is list else opt.type.__name__
        raise UsageError(f"{opt.flag} must be {expected}, not {value!r}")
    if opt.type is float:
        # written so that NaN and integers beyond float range fail too
        if not abs(value) <= sys.float_info.max:
            raise UsageError(f"{opt.flag} must be finite")
        value = float(value)
    if opt.choices and value not in opt.choices:
        raise UsageError(f"{opt.flag} must be one of {list(opt.choices)}")
    if opt.low is not None and any(
            v < opt.low or (opt.above and v == opt.low) for v in items):
        raise UsageError(f"{opt.flag} must be "
                         f"{'above' if opt.above else 'at least'} {opt.low:g}")
    if opt.high is not None and value > opt.high:
        raise UsageError(f"{opt.flag} must be at most {opt.high}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieflow",
        description="Joint estimation of sequence representations and their "
                    "transition generators.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=help_text)
                for name, (help_text, _) in _COMMANDS.items()}
    for opt in _OPTIONS:
        if opt.type is bool:
            kwargs = {"action": "store_const", "const": True}
        else:
            kwargs = {"choices": opt.choices or None,
                      "type": int if opt.type is list else opt.type,
                      "nargs": "*" if opt.type is list else None}
        for command in opt.commands.split():
            commands[command].add_argument(opt.flag, dest=opt.name, **kwargs)
    for p in commands.values():
        p.add_argument("--config", help="JSON file with defaults for any flag")
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Precedence: explicit flags > config file > defaults; every value
    is checked, whatever its source, before any data file is read."""
    options = [opt for opt in _OPTIONS if command in opt.commands.split()]
    loaded = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(loaded) - {opt.name for opt in options}
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
    flags = {name: v for name, v in vars(args).items() if v is not None}
    merged = {opt.name: opt.default for opt in options} | loaded | flags
    return {opt.name: _check(opt, merged[opt.name]) for opt in options}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge_options(args.command, args)
        return _COMMANDS[args.command][1](opts)
    except (TensorFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # UsageError, and the library's own argument validation
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # sizes too large for this machine's memory
        print(f"usage error: out of memory for the requested sizes: {exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
