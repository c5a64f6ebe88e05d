"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that:

* untraced and traced runs pass and emit every declared metric, with its
  declared unit and a finite value;
* a deliberately perturbed reference fails the output check at the
  reference seed, and is not applied at another seed.

It also checks that, in a directory holding only BENCHMARK.json and
perfbench/, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench", f"selftest-{os.getpid()}")


def run_bench(args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, declared, label, failures):
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        failures.append(f"{label}: metrics {sorted(set(metrics) ^ set(declared))} "
                        f"are missing or undeclared")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            failures.append(f"{label}: {name} has unit {m.get('unit')!r}, "
                            f"declared {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} has no finite value ({value!r})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    seed = str(reference["seed"])
    tiny = ["--size", "tiny", "--seconds", "0.5"]
    failures = []
    os.makedirs(WORK)
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            base = ["--workload", workload, *tiny]
            for trace in (0, 1):
                label = f"{workload} --trace {trace}"
                code, result, text = run_bench(
                    [*base, "--seed", seed, "--trace", str(trace)])
                if code != 0 or not result or result["correct"] is not True \
                        or result["attempted"] < 1:
                    failures.append(f"{label}: run failed (exit {code})\n{text}")
                    continue
                check_metrics(result, declared[trace], label, failures)

            perturbed = json.loads(json.dumps(reference))
            perturbed["tiny"][workload]["objective"] *= 1.0 + 1e-6
            path = os.path.join(WORK, "perturbed.json")
            with open(path, "w") as fh:
                json.dump(perturbed, fh)
            code, result, text = run_bench(
                [*base, "--seed", seed, "--reference", path])
            if code == 0 or not result or result["correct"] is not False:
                failures.append(f"{workload}: perturbed reference passed "
                                f"(exit {code})\n{text}")
            code, result, text = run_bench(
                [*base, "--seed", str(int(seed) + 1), "--reference", path])
            if code != 0 or not result or result["correct"] is not True:
                failures.append(f"{workload}: reference applied at a second "
                                f"seed (exit {code})\n{text}")

        bare = os.path.join(WORK, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, text = run_bench(["--workload", "latent_em", *tiny], bare)
        if code == 0 or result is not None:
            failures.append(f"without src/ the benchmark exited {code}\n{text}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
