"""Command-line surface: generate / fit / eval / roll.

One binary with four subcommands.  Flags override values from an
optional JSON ``--config`` file, which overrides built-in defaults.
Exit codes: 0 success, 2 usage error, 3 I/O or format error, 4 numeric
abort.  All numeric CSV output uses 17 significant digits so files are
reproducible bit-for-bit under a fixed seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

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
    arrays: dict[str, np.ndarray] = {}
    if opts["mode"] == "latent":
        data, truth = synth.generate_latent_pairs(spec)
        arrays["z_i"] = data.z_i
        arrays["z_next"] = data.z_next
        dims = data.latent_dim
    else:
        data, truth = synth.generate_image_pairs(spec, opts["embedding"])
        arrays["x_i"] = data.x_i
        arrays["x_next"] = data.x_next
        arrays["height"] = np.float64(data.height)
        arrays["width"] = np.float64(data.width)
        if truth.loading is not None:
            arrays["true_W"] = truth.loading
        arrays["true_z_i"] = truth.z_i
        arrays["true_z_next"] = truth.z_next
        dims = data.image_dim
    arrays["true_G"] = truth.basis.generators
    arrays["true_lambdas"] = truth.lambdas
    write_tensors(opts["out"], arrays)
    print(f"n={spec.pair_count}")
    print(f"dim={dims}")
    print(f"seed={spec.seed}")
    print(f"kind={spec.group_kind}")
    print(f"out={opts['out']}")
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
    return ImagePairDataset(arrays["x_i"], arrays["x_next"],
                            int(arrays.get("height", np.float64(1))),
                            int(arrays.get("width", np.float64(1))))


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
    estep = _ESTEP_FLAGS[opts["estep"]]
    # comparisons written so that NaN fails too
    if opts["max_iters"] < 1:
        raise UsageError("--max-iters must be at least 1")
    if opts["batch_size"] < 1:
        raise UsageError("--batch-size must be at least 1")
    if not 0.0 <= opts["tol"] < np.inf:
        raise UsageError("--tol must be finite and nonnegative")
    if opts["threads"] < 0:
        raise UsageError("--threads must be nonnegative (0 uses every CPU)")
    if not 0.0 < opts["step_size"] < np.inf:
        raise UsageError("--step-size must be finite and positive")
    if not 0.0 < opts["obs_noise_var"] < np.inf:
        raise UsageError("--obs-noise-var must be finite and positive")
    if any(width < 1 for width in opts["hidden"]):
        raise UsageError("--hidden sizes must be at least 1")
    threads = opts["threads"] or os.cpu_count() or 1
    if estimator == "dynamics":
        data = _load_latent_dataset(arrays)
        if opts["d"] and opts["d"] != data.latent_dim:
            raise UsageError(
                f"config latent dim {opts['d']} != dataset dim {data.latent_dim}")
        config = EmConfig(j_init=opts["j"], max_iters=opts["max_iters"],
                          tol=opts["tol"], seed=opts["seed"],
                          estimate_lambda=opts["estimate_lambda"],
                          threads=threads)
        model, trace = dyn_mod.fit(data, config)
        checkpoint = _dynamics_arrays(model)
    elif estimator == "ppca":
        data = _load_image_dataset(arrays)
        config = ppca.PpcaConfig(
            latent_dim=opts["d"] or 2, j_init=opts["j"], estep=estep,
            max_iters=opts["max_iters"], tol=opts["tol"], seed=opts["seed"],
            estimate_lambda=opts["estimate_lambda"], threads=threads)
        model, trace = ppca.fit(data, config)
        checkpoint = _dynamics_arrays(model.dynamics)
        checkpoint.update({"W": model.loading, "mu": model.data_mean,
                           "sigma2": np.float64(model.noise_var)})
    elif estimator == "npca":
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
    else:
        raise UsageError(f"unknown estimator {estimator!r}")

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


def _checkpoint_ppca(ck) -> ppca.PpcaModel:
    return ppca.PpcaModel(ck["W"], ck["mu"], float(ck["sigma2"]),
                          _checkpoint_dynamics(ck))


def _checkpoint_npca(ck) -> npca.NpcaModel:
    return npca.assemble(ck, int(ck["enc_trunk_count"]), int(ck["dec_count"]),
                         float(ck["sigma2"]), _checkpoint_dynamics(ck))


class _Checkpoint(dict):
    """Arrays of a ``--checkpoint`` file; a missing one is a usage error."""

    def __missing__(self, name):
        raise UsageError(f"checkpoint has no array {name!r}")


def _read_checkpoint(path) -> tuple[_Checkpoint, str]:
    """The checkpoint's arrays and the estimator that wrote them."""
    ck = _Checkpoint(read_tensors(path))
    code = float(ck.get("estimator", np.float64(0)))
    for estimator, value in _ESTIMATOR_CODES.items():
        if value == code:
            return ck, estimator
    raise UsageError(f"checkpoint has unknown estimator code {code}")


def cmd_eval(opts) -> int:
    ck, estimator = _read_checkpoint(opts["checkpoint"])
    arrays = read_tensors(opts["data"])
    rows = []
    dynamics = _checkpoint_dynamics(ck)
    if "true_G" not in arrays:
        print("warning: no ground-truth sidecar; recovery metrics omitted",
              file=sys.stderr)
    elif not np.any(dynamics.basis.generators):
        print("warning: checkpoint basis is zero; span angle undefined",
              file=sys.stderr)
    else:
        angle = synth.subspace_angle(dynamics.basis,
                                     GeneratorBasis(arrays["true_G"]))
        rows.append(("subspace_angle_rad", float(angle)))
    if estimator == "dynamics":
        data = _load_latent_dataset(arrays)
        ll = dyn_mod.marginal_log_likelihood(dynamics, data) / data.count
        rows.append(("predictive_log_density", float(ll)))
    else:
        data = _load_image_dataset(arrays)
        if estimator == "ppca":
            model = _checkpoint_ppca(ck)
            latents, _ = ppca.posterior_z_given_x(model, data.x_i)
            recon = latents @ model.loading.T + model.data_mean
        else:
            model = _checkpoint_npca(ck)
            mean, _ = npca.encode(model, data.x_i)
            recon = npca.decode(model, mean)
        mse = float(np.mean((recon - data.x_i) ** 2))
        rows.append(("reconstruction_mse", mse))
    if "final_objective" in ck:
        rows.append(("final_objective", float(ck["final_objective"])))
    _write_csv(opts["out"], "metric,value", rows)
    for name, value in rows:
        print(f"{name}={_fmt(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# roll


def _infer_roll_coefficients(dynamics: DynamicsModel, z0: np.ndarray,
                             z1: np.ndarray, iters: int = 60,
                             tol: float = 1e-12) -> np.ndarray:
    """Coefficients of the seed transformation under the exact exponential
    map, refined by damped Gauss-Newton from the first-order posterior
    mean (which understates large transformations)."""
    lam = dyn_mod.e_step_all(dynamics, PairDataset(z0[None], z1[None])).mean[0]
    h, eye = 1e-6, np.eye(lam.size)
    # backtracking: the first halved step that lowers the residual is taken
    scales = 0.5 ** np.arange(20)
    for _ in range(iters):
        current = liealg.apply_exact(dynamics.basis, lam, z0)
        residual = z1 - current
        best = np.linalg.norm(residual)
        if best < tol:
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
    if opts["steps"] < 1:
        raise UsageError("--steps must be at least 1")
    if opts["t_max"] is not None and not np.isfinite(opts["t_max"]):
        raise UsageError("--t-max must be finite")
    ck, estimator = _read_checkpoint(opts["checkpoint"])
    arrays = read_tensors(opts["data"])
    dynamics = _checkpoint_dynamics(ck)
    k = opts["pair_index"]

    latent = estimator == "dynamics"
    data = (_load_latent_dataset if latent else _load_image_dataset)(arrays)
    if not 0 <= k < data.count:
        raise UsageError(f"pair index {k} out of range")
    decoder = None
    if latent:
        z0, z1 = data.z_i[k], data.z_next[k]
    elif estimator == "ppca":
        model = _checkpoint_ppca(ck)
        (z0, z1), _ = ppca.posterior_z_given_x(
            model, np.stack([data.x_i[k], data.x_next[k]]))
        decoder = lambda z: model.loading @ z + model.data_mean
    else:
        model = _checkpoint_npca(ck)
        z0, z1 = (npca.encode(model, x[k])[0] for x in (data.x_i, data.x_next))
        decoder = lambda z: npca.decode(model, z)

    lam_hat = _infer_roll_coefficients(dynamics, z0, z1)
    t_max = opts["t_max"] if opts["t_max"] is not None else \
        (1.0 if opts["mode"] == "interpolate" else 2.0)
    ts = np.linspace(0.0, t_max, opts["steps"])
    gen = liealg.combine(dynamics.basis, lam_hat)
    traj = liealg.matrix_exp(ts[:, None, None] * gen) @ z0
    out_arrays = {"t": ts, "z_traj": traj, "lambda_hat": lam_hat}
    if decoder is not None:
        out_arrays["x_traj"] = np.stack([decoder(z) for z in traj])
    write_tensors(opts["out"], out_arrays)
    csv_path = opts["csv_out"] or opts["out"] + ".csv"
    _write_csv(csv_path, "step,t,z_norm",
               [(i, float(t), float(np.linalg.norm(z)))
                for i, (t, z) in enumerate(zip(ts, traj))])
    print(f"steps={opts['steps']} t_max={_fmt(t_max)} out={opts['out']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling

_DEFAULTS = {
    "generate": {"kind": "rotation2d", "mode": "latent", "embedding": "linear",
                 "n": 100, "d": 2, "j": 1, "height": 1, "width": 4,
                 "lambda_scale": 0.05, "noise_std": 0.0, "seed": 0,
                 "first_order": False, "out": "dataset.lf"},
    "fit": {"estimator": "dynamics", "d": 0, "j": 1, "estep": "fixed-point",
            "max_iters": 500, "tol": 1e-8, "seed": 0, "threads": 1,
            "estimate_lambda": False, "hidden": [], "step_size": 1e-3,
            "batch_size": 32, "obs_noise_var": 0.01, "warm_start": False,
            "out": "checkpoint.lf", "trace_out": None, "data": None},
    "eval": {"checkpoint": None, "data": None, "out": "metrics.csv"},
    "roll": {"checkpoint": None, "data": None, "pair_index": 0,
             "mode": "interpolate", "steps": 11, "t_max": None,
             "out": "trajectory.lf", "csv_out": None},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieflow",
        description="Joint estimation of sequence representations and their "
                    "transition generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset")
    gen.add_argument("--kind", choices=synth.KINDS)
    gen.add_argument("--mode", choices=["latent", "image"])
    gen.add_argument("--embedding", choices=["linear", "raster"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--j", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--width", type=int)
    gen.add_argument("--lambda-scale", dest="lambda_scale", type=float)
    gen.add_argument("--noise-std", dest="noise_std", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--first-order", dest="first_order",
                     action="store_const", const=True)
    gen.add_argument("--out")

    fit_p = sub.add_parser("fit", help="fit an estimator to a dataset")
    fit_p.add_argument("--estimator", choices=["dynamics", "ppca", "npca"])
    fit_p.add_argument("--data")
    fit_p.add_argument("--d", type=int)
    fit_p.add_argument("--j", type=int)
    fit_p.add_argument("--estep", choices=list(_ESTEP_FLAGS))
    fit_p.add_argument("--max-iters", dest="max_iters", type=int)
    fit_p.add_argument("--tol", type=float)
    fit_p.add_argument("--seed", type=int)
    fit_p.add_argument("--threads", type=int)
    fit_p.add_argument("--estimate-lambda", dest="estimate_lambda",
                       action="store_const", const=True)
    fit_p.add_argument("--hidden", type=int, nargs="*")
    fit_p.add_argument("--step-size", dest="step_size", type=float)
    fit_p.add_argument("--batch-size", dest="batch_size", type=int)
    fit_p.add_argument("--obs-noise-var", dest="obs_noise_var", type=float)
    fit_p.add_argument("--warm-start", dest="warm_start",
                       action="store_const", const=True)
    fit_p.add_argument("--out")
    fit_p.add_argument("--trace-out", dest="trace_out")

    eval_p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    eval_p.add_argument("--checkpoint")
    eval_p.add_argument("--data")
    eval_p.add_argument("--out")

    roll_p = sub.add_parser("roll", help="interpolate or extrapolate a pair")
    roll_p.add_argument("--checkpoint")
    roll_p.add_argument("--data")
    roll_p.add_argument("--pair-index", dest="pair_index", type=int)
    roll_p.add_argument("--mode", choices=["interpolate", "extrapolate"])
    roll_p.add_argument("--steps", type=int)
    roll_p.add_argument("--t-max", dest="t_max", type=float)
    roll_p.add_argument("--out")
    roll_p.add_argument("--csv-out", dest="csv_out")

    for p in (gen, fit_p, eval_p, roll_p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    """Precedence: explicit flags > config file > defaults."""
    opts = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(opts)
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
        opts.update(loaded)
    for key in opts:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
    missing = [k for k, v in opts.items() if v is None and
               k in ("data", "checkpoint")]
    if missing:
        raise UsageError(f"missing required option(s): {missing}")
    return opts


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": cmd_generate, "fit": cmd_fit,
                "eval": cmd_eval, "roll": cmd_roll}
    try:
        opts = _merge_options(args.command, args)
        return handlers[args.command](opts)
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


if __name__ == "__main__":
    sys.exit(main())
