"""lieflow benchmark: one workload per call, checked, with a JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload latent_em --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, two seeds

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics (medians over the repetitions).  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics.  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every repetition passed its output check.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# Single-threaded BLAS, fixed before numpy loads: the workloads are
# small-matrix Python loops, and a 2-CPU machine is noisy enough without
# BLAS threads competing with the interpreter.  An explicit setting in
# the environment wins and is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DEFAULT_SEED = 1
RTOL = 1e-9  # final-objective tolerance: about 2**22 float64 ulps

END_TO_END = [("setup_s", "s"), ("generate_s", "s"), ("fit_s", "s"),
              ("roundtrip_s", "s"), ("peak_rss_mib", "MiB")]

# Span-derived per-layer metrics: "<span>.<calls|self_s|bytes|iters|objects>".
PER_LAYER_SPANS = [
    "gaussian.spd_cholesky.calls", "gaussian.spd_cholesky.self_s",
    "liealg.matrix_exp.calls", "liealg.matrix_exp.self_s",
    "liealg.orthogonalize.calls", "liealg.orthogonalize.self_s",
    "synth.generate_latent_pairs.self_s", "synth.generate_image_pairs.self_s",
    "rng.normals.calls", "rng.normals.self_s", "rng.permutation.calls",
    "dynamics.fit.iters", "dynamics.e_step_all.self_s",
    "dynamics.m_step_G.self_s", "dynamics.m_step_Omega.self_s",
    "dynamics.marginal_log_likelihood.self_s",
    "dynamics.e_step_block.calls", "dynamics.e_step_block.self_s",
    "ppca.fit.iters", "ppca.e_step_dataset.self_s",
    "ppca.fixed_point_blocks.self_s", "ppca.moments_from_blocks.self_s",
    "ppca.m_step_W.self_s", "ppca.m_step_sigma.self_s",
    "ppca.mean_field_elbo.self_s",
    "ppca.expected_complete_data_ll.calls",
    "ppca.expected_complete_data_ll.self_s",
    "ppca.latent_moments.objects", "ppca.latent_moments.self_s",
    "ppca.m_step_dynamics.self_s",
    "ppca.posterior_z_given_x.calls", "ppca.posterior_z_given_x.self_s",
    "npca.objective_with_grads.self_s", "npca.plugin_coefficients.self_s",
    "npca.apply_gradients.self_s", "npca.encoded_moments.self_s",
    "tensorfile.write_tensors.calls", "tensorfile.write_tensors.bytes",
    "tensorfile.write_tensors.self_s",
    "tensorfile.read_tensors.calls", "tensorfile.read_tensors.bytes",
    "tensorfile.read_tensors.self_s",
]
_SPAN_UNITS = {"calls": "count", "self_s": "s", "bytes": "B",
               "iters": "count", "objects": "count"}
PER_LAYER = [(n, _SPAN_UNITS[n.rsplit(".", 1)[1]]) for n in PER_LAYER_SPANS] + [
    ("npca.minibatches", "count"),
    ("cli.import_s", "s"), ("cli.generate_s", "s"), ("cli.fit_s", "s"),
    ("cli.eval_s", "s"), ("cli.roll_s", "s"),
    ("run.cpu_s", "s"), ("run.wait_s", "s"),
    ("run.slowdown", "ratio"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
    ("check.recovery_angle_rad", "rad"),
]


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_import(samples: int, slowdown) -> list[tuple[float, float]]:
    """Fresh-interpreter import times of the package and its CLI, each
    with the machine slowdown measured around it.

    One unmeasured import first, so compiled bytecode is cached and
    every sample sees the same state.
    """
    code = ("import time; t = time.perf_counter(); import lieflow, lieflow.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = []
    before = slowdown()
    for k in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail_setup(f"importing lieflow failed:\n{proc.stderr}")
        if k:
            after = slowdown()
            out.append((float(proc.stdout.strip().splitlines()[-1]),
                        0.5 * (before + after)))
            before = after
    return out


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str:
    """HEAD commit read from ``.git`` files; no git process is started."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads": 1,
        "commit": _git_commit(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _workload(name: str, workdir: str, in_process: bool):
    import workloads

    if name == "cli_roundtrip":
        return workloads.CliRoundtrip(workdir, SRC, in_process)
    return workloads.LIBRARY[name]


def _safe_rep(fn, seed, size, span):
    """One repetition; an exception becomes a recorded failure."""
    from workloads import Outcome

    try:
        return fn(seed, size, span)
    except Exception:  # noqa: BLE001 - the benchmark reports every failure
        tb = traceback.format_exc()
        return Outcome({}, math.nan, math.nan, 0, math.nan, math.nan, "", [],
                       [f"raised:\n{tb}"])


def _same_result(a, b) -> bool:
    return (a.digest == b.digest and a.iters == b.iters
            and a.trace == b.trace)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 size_name: str, reference: dict) -> dict:
    """Run one workload for ``seconds`` and return its result record."""
    import workloads
    from calibration import process_slowdown, slowdown
    from tracing import Tracer

    size = workloads.SIZES[size_name]
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    fn = _workload(name, workdir, in_process=traced)
    ref = None
    if seed == reference.get("seed"):
        ref = reference.get(size_name, {}).get(name)

    load_before = _loadavg()
    imports = measure_import(size["setup_samples"], slowdown)
    calibrate = process_slowdown if name == "cli_roundtrip" else slowdown
    outcomes, traced_outcomes, summaries, coverages, overheads = [], [], [], [], []
    extras = {}
    start = time.perf_counter()
    before = calibrate()
    try:
        while not outcomes or time.perf_counter() - start < seconds:
            out = _safe_rep(fn, seed, size, contextlib.nullcontext)
            after = calibrate()
            out.slowdown, before = 0.5 * (before + after), after
            if not out.problems:
                workloads.check(out, name, size, ref, RTOL)
            if outcomes and not out.problems and outcomes[0].digest \
                    and not _same_result(out, outcomes[0]):
                out.problems.append("repetition differs from the first one")
            outcomes.append(out)
            if not traced:
                continue
            tracer = Tracer()
            with tracer.patched():
                tout = _safe_rep(fn, seed, size, tracer.span)
            if not tout.problems and not _same_result(tout, out):
                tout.problems.append("traced result differs from the untraced one")
            traced_outcomes.append(tout)
            summaries.append(tracer.summary())
            extras = dict(tracer.extra)
            coverages.append(tracer.coverage("run"))
            overheads.append(tout.timed_s - out.timed_s)
            before = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = _loadavg()

    every = outcomes + traced_outcomes
    good = [o for o in outcomes if not o.problems]
    record = {
        "workload": name, "seed": seed, "size": size_name,
        "reference_checked": ref is not None,
        "attempted": len(every),
        "failed": sum(1 for o in every if o.problems),
        "problems": [p for o in every for p in o.problems],
        "repetitions": len(outcomes),
        "digest": outcomes[0].digest,
        "reference_digest": (ref or {}).get("digest"),
        "iters": outcomes[0].iters,
        "final_objective": outcomes[0].objective,
        "recovery_angle_rad": _median([o.angle for o in good]),
        "loadavg_before": load_before, "loadavg_after": load_after,
    }
    if traced:
        values = _layer_metrics(
            summaries, extras, good, imports, coverages, overheads)
    else:
        if name == "cli_roundtrip":
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": _median([t / f for t, f in imports]),
                  "peak_rss_mib": rss_kib / 1024.0}
        for key in ("generate_s", "fit_s", "roundtrip_s"):
            values[key] = _median([o.times[key] / o.slowdown for o in good])
            record[f"raw_{key}"] = _median([o.times[key] for o in good])
        record["raw_setup_s"] = _median([t for t, _ in imports])
    record["metrics"] = {k: {"value": values[k], "unit": unit}
                         for k, unit in (PER_LAYER if traced else END_TO_END)}
    return record


def _layer_metrics(summaries, extras, good, imports, coverages, overheads):
    values = {}
    for metric in PER_LAYER_SPANS:
        span, kind = metric.rsplit(".", 1)
        if kind in ("bytes", "iters"):
            values[metric] = extras.get(metric, 0)
        elif kind == "self_s":
            values[metric] = _median([s.get(span, {}).get("self_s", 0.0)
                                      for s in summaries])
        else:  # calls / objects: exact counts, equal in every traced run
            values[metric] = summaries[-1].get(span, {}).get("calls", 0)
    values["npca.minibatches"] = summaries[-1].get(
        "npca.apply_gradients", {}).get("calls", 0)
    values["cli.import_s"] = _median([t for t, _ in imports])
    for cmd in ("generate", "fit", "eval", "roll"):
        values[f"cli.{cmd}_s"] = _median(
            [o.times.get(f"cli.{cmd}_s", 0.0) for o in good])
    values["run.cpu_s"] = _median([o.cpu_s for o in good])
    values["run.wait_s"] = _median([o.timed_s - o.cpu_s for o in good])
    values["trace.overhead_s"] = _median(overheads)
    values["trace.coverage"] = _median(coverages)
    values["check.recovery_angle_rad"] = _median([o.angle for o in good])
    values["run.slowdown"] = _median([o.slowdown for o in good])
    return values


def print_record(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} size={record['size']} "
          f"repetitions={record['repetitions']}")
    for key, m in record["metrics"].items():
        print(f"  {key:42s} {m['value']:.6g} {m['unit']}")
    for key in ("raw_setup_s", "raw_generate_s", "raw_fit_s", "raw_roundtrip_s"):
        if key in record:
            print(f"  {key:42s} {record[key]:.6g} s (uncalibrated)")
    print(f"  {'recovery_angle_rad':42s} {record['recovery_angle_rad']:.6g} rad")
    print(f"  {'failed_ratio':42s} {record['failed']}/{record['attempted']}")
    print(f"  iters={record['iters']} final_objective={record['final_objective']!r}")
    ref_digest = record["reference_digest"]
    same = "" if ref_digest is None else (
        " (matches reference)" if ref_digest == record["digest"]
        else " (differs from reference; not a failure)")
    print(f"  sha256={record['digest']}{same}")
    print(f"  reference_checked={record['reference_checked']} "
          f"loadavg {record['loadavg_before']} -> {record['loadavg_after']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def write_reference(size_name: str, path: str) -> None:
    """Record iterations, final objective and digest at DEFAULT_SEED."""
    import workloads

    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.update({"seed": DEFAULT_SEED, "rtol": RTOL})
    entries = data.setdefault(size_name, {})
    size = workloads.SIZES[size_name]
    for name in workloads.NAMES:
        workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
        fn = _workload(name, workdir, in_process=False)
        try:
            out = fn(DEFAULT_SEED, size, contextlib.nullcontext)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if out.problems:
            _fail_setup(f"{name} failed while recording: {out.problems}")
        entries[name] = {"iters": out.iters, "objective": out.objective,
                         "digest": out.digest}
        print(f"{name}: {entries[name]}")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="latent_em, image_em, vem_train, cli_roundtrip or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", default=REFERENCE,
                        help="stored reference results (JSON)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the reference at seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lieflow", "__init__.py")):
        _fail_setup(f"lieflow sources not found under {SRC}")
    if args.seed < 0:
        _fail_setup("--seed must be nonnegative")
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        write_reference(args.size, args.reference)
        return 0
    import workloads

    with open(args.reference) as fh:
        reference = json.load(fh)
    print("env " + json.dumps(environment()), flush=True)
    if args.workload == "all":
        # default seed against the stored reference, then a second seed
        # against the quality thresholds only
        runs = [(name, seed) for name in workloads.NAMES
                for seed in (args.seed, args.seed + 1)]
    elif args.workload in workloads.NAMES:
        runs = [(args.workload, args.seed)]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    records = []
    for name, seed in runs:
        record = run_workload(name, seed, args.seconds, bool(args.trace),
                              args.size, reference)
        print_record(record)
        sys.stdout.flush()
        records.append(record)
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   if r["seed"] == args.seed for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
