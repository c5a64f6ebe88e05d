"""The benchmark (perfbench/) reaches into lieflow by module and attribute
name and checks stored reference results; a refactor that renames a
traced function or drifts from the reference must fail here, not in the
benchmark run.  The library ships only what the estimators, the CLI and
the benchmark run: code that only tests call belongs in
tests/reference.py."""
import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
LIBRARY = ROOT / "src" / "lieflow"
README = ROOT / "README.md"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = [f"{mod}.{attr}" for _, mod, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    for _, mod, cls_name, attr in tracing.CLASS_TARGETS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing, f"traced names that no longer exist: {missing}"


@pytest.mark.parametrize("workload", ["latent_em", "image_em", "vem_train",
                                      "cli_roundtrip"])
def test_tiny_benchmark_passes_its_checks(workload):
    # checks the seed-1 tiny reference (iterations, and the objective at
    # rtol 1e-9): latent_em through the stacked group action of
    # synth.generate_latent_pairs and dynamics.fit, image_em through
    # ppca.fit, vem_train through npca.fit, npca.named_parameters and
    # npca.encode, cli_roundtrip through generate, fit (ppca), eval and
    # roll as CLI processes
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--size", "tiny", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def _tiny_fit(estimator):
    """A tiny fit of one estimator, its data drawn beforehand."""
    from lieflow import NpcaConfig, PpcaConfig, SequenceSpec
    from lieflow import dynamics, npca, ppca, synth

    if estimator == "dynamics":
        data, _ = synth.generate_latent_pairs(SequenceSpec(
            group_kind="latent_random", latent_dim=3, generator_count=2,
            pair_count=20, noise_std=0.01, seed=1))
        return lambda: dynamics.fit(data, dynamics.EmConfig(j_init=2, max_iters=2))
    data, _ = synth.generate_image_pairs(SequenceSpec(
        height=2, width=2, pair_count=20, noise_std=0.01, seed=1),
        embedding="linear")
    if estimator == "ppca":
        return lambda: ppca.fit(data, PpcaConfig(
            latent_dim=2, estep="fixed_point", max_iters=2))
    return lambda: npca.fit(data, NpcaConfig(
        latent_dim=2, hidden_sizes=(3,), step_size=1e-3, batch_size=8,
        epochs=1))


# the traced layers each estimator's fit runs through
FIT_LAYERS = {
    "dynamics": ["dynamics.fit", "dynamics.e_step_all", "dynamics.m_step_G",
                 "dynamics.m_step_Omega", "dynamics.marginal_log_likelihood"],
    "ppca": ["ppca.fit", "ppca.e_step_dataset", "ppca.fixed_point_blocks",
             "dynamics.e_step_block", "ppca.moments_from_blocks",
             "ppca.latent_moments", "ppca.m_step_W", "ppca.m_step_sigma",
             "ppca.m_step_dynamics", "dynamics.m_step_G",
             "dynamics.m_step_Omega", "ppca.mean_field_elbo",
             "ppca.expected_complete_data_ll"],
    "npca": ["npca.fit", "npca.objective_with_grads",
             "npca.plugin_coefficients", "dynamics.e_step_block",
             "npca.apply_gradients", "npca.encoded_moments",
             "ppca.moments_from_blocks", "ppca.m_step_dynamics",
             "dynamics.m_step_G", "dynamics.m_step_Omega", "rng.permutation"],
}


@pytest.mark.parametrize("estimator", sorted(FIT_LAYERS))
def test_every_traced_layer_a_fit_runs_through_is_reached(estimator):
    # a layer the library reaches under another name than the traced one
    # reads zero calls in every benchmark trace
    fit = _tiny_fit(estimator)
    with _load_tracing().Tracer().patched() as tracer:
        fit()
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    layers = FIT_LAYERS[estimator] + ["liealg.orthogonalize",
                                      "gaussian.spd_cholesky", "rng.normals"]
    unreached = [name for name in layers if not calls.get(name)]
    assert not unreached, f"traced layers {estimator}.fit never reached: {unreached}"


def _loaded_names(tree):
    """Every name a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _public_definitions(module, tree):
    """``(qualified name, name)`` of each public top-level function and
    class, and of each public method and property in a class body."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member.name


def test_every_public_library_name_has_a_caller_outside_the_tests():
    # re-exports in __init__.py do not count; the benchmark refers to
    # traced functions by strings, so its files are searched as text
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*map(_loaded_names, trees.values()))
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = [qualified for module, tree in trees.items()
              for qualified, name in _public_definitions(module, tree)
              if name not in used and not re.search(rf"\b{name}\b", bench)]
    assert not unused, f"library names only the tests call: {unused}"


def test_only_the_image_dataset_stacks_the_two_frames():
    # ImagePairDataset stores both frames as one (2, N, D) stack and the
    # estimators read it, so no other library code stacks x_i and x_next
    stackers = {"stack", "vstack", "concatenate"}
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "synth.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in stackers \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "np" \
                    and {"x_i", "x_next"} & _loaded_names(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"frame stacks built outside ImagePairDataset: {found}"


def test_every_config_field_is_read_by_the_library():
    # a field no library code reads as ``config.<field>`` is a setting a
    # fit silently ignores
    from lieflow.dynamics import EmConfig
    from lieflow.npca import NpcaConfig
    from lieflow.ppca import PpcaConfig

    read = {node.attr for path in sorted(LIBRARY.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "config"}
    unread = [f"{cls.__name__}.{field.name}"
              for cls in (EmConfig, PpcaConfig, NpcaConfig)
              for field in dataclasses.fields(cls) if field.name not in read]
    assert not unread, f"config fields the library never reads: {unread}"


def test_every_config_field_is_set_outside_the_unit_tests():
    # a field that only unit tests set is an option with one value in use:
    # it becomes a constant.  Set means a keyword of a call to the field's
    # config class, or of a dict(...) call, in the CLI, the benchmark or
    # the acceptance criteria
    from lieflow.dynamics import EmConfig
    from lieflow.npca import NpcaConfig
    from lieflow.ppca import PpcaConfig

    classes = (EmConfig, PpcaConfig, NpcaConfig)
    paths = [LIBRARY / "cli.py", *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    set_by = {name: set() for name in ["dict"] + [cls.__name__ for cls in classes]}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in set_by:
                set_by[name].update(kw.arg for kw in node.keywords if kw.arg)
    unset = [f"{cls.__name__}.{field.name}" for cls in classes
             for field in dataclasses.fields(cls)
             if field.name not in set_by[cls.__name__] | set_by["dict"]]
    assert not unset, f"config fields only the unit tests set: {unset}"


@pytest.mark.parametrize("module, function", [
    ("dynamics", "_e_step_block"), ("dynamics", "_gram_precision"),
    ("dynamics", "_white_gram"),
    ("dynamics", "_change_gram_basis"), ("gaussian", "stacked_posterior"),
    ("ppca", "_fixed_point_blocks"), ("gaussian", "triangular_solve"),
    ("gaussian", "stacked_cholesky")])
def test_stacked_posteriors_take_no_matrix_product_over_the_stack(module,
                                                                  function):
    # BLAS may round a product over a stack of pairs differently with the
    # stack's size, and numpy runs a stacked @ as one call per pair; these
    # functions form their products as elementwise sums instead
    tree = ast.parse((LIBRARY / f"{module}.py").read_text())
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    products = {"matmul", "einsum", "dot", "tensordot"}
    found = [node.lineno for node in ast.walk(body)
             if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
             or (isinstance(node, ast.Attribute) and node.attr in products
                 and isinstance(node.value, ast.Name) and node.value.id == "np")]
    assert not found, f"{module}.{function} multiplies matrices at lines {found}"


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures pulls in logging and queue (~6 ms of every CLI
    # process); only a fit with threads > 1 imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(LIBRARY.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lieflow.cli; "
         "print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_library_imports_only_numpy_and_the_standard_library():
    # the library needs numpy only; function-level imports count too
    allowed = {"numpy", *sys.stdlib_module_names}
    foreign = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside numpy and the standard library: {foreign}"


def test_every_module_name_in_the_readme_resolves():
    # a backticked `module.name` or `lieflow.module.name` in the prose
    # (fenced code and *.py paths aside) names an attribute of
    # lieflow.<module>, so a renamed or deleted name cannot linger there
    modules = {path.stem for path in LIBRARY.glob("*.py")} - {"__init__"}
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    checked, stale = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.match(r"(?:lieflow\.)?(\w+)((?:\.\w+)+)", span)
        if span.endswith(".py") or not match or match[1] not in modules:
            continue
        target = importlib.import_module(f"lieflow.{match[1]}")
        for attr in match[2][1:].split("."):
            target = getattr(target, attr, None)
        checked += 1
        if target is None:
            stale.append(match[0])
    assert checked >= 10 and not stale, f"README names that do not resolve: {stale}"


def _calls_to(name, tree):
    """Line numbers of the calls to ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_only_liealg_calls_matrix_exp():
    # liealg.apply_exact is the one exact group action: it exponentiates
    # in cache-sized blocks and checks the coefficients first, which a
    # module exponentiating its own stack would bypass
    callers = [f"{path.name}:{line}" for path in sorted(LIBRARY.glob("*.py"))
               if path.name != "liealg.py"
               for line in _calls_to("matrix_exp", ast.parse(path.read_text()))]
    assert not callers, f"matrix_exp called outside liealg: {callers}"


def test_raster_frames_and_roll_exponentiate_one_block_at_a_time(tmp_path,
                                                                   monkeypatch):
    from lieflow import cli, liealg, rng, synth
    from lieflow.tensorfile import write_tensors

    exponentiated = []    # (d, matrices) of each call
    original = liealg.matrix_exp

    def spy(m):
        exponentiated.append((m.shape[-1], m.size // m.shape[-1] ** 2))
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lieflow" and hasattr(module, "matrix_exp"):
            monkeypatch.setattr(module, "matrix_exp", spy)
    spec = synth.SequenceSpec(group_kind="cyclic_shift", height=4, width=4,
                              pair_count=2000, seed=5)
    data, truth = synth.generate_image_pairs(spec, embedding="raster")
    ck, pair = tmp_path / "rot.lf", tmp_path / "pair.lf"
    write_tensors(ck, {"G": np.array([[[0.0, -1.0], [1.0, 0.0]]]),
                       "Omega": 1e-9 * np.eye(2), "Lambda": np.eye(1),
                       "estimator": np.float64(0)})
    write_tensors(pair, {"z_i": np.array([[1.0, 0.0]]),
                         "z_next": np.array([[0.0, 1.0]])})
    assert cli.main(["roll", "--checkpoint", str(ck), "--data", str(pair),
                     "--steps", "20000", "--out", str(tmp_path / "t.lf")]) == 0

    assert {d for d, _ in exponentiated} == {16, 2}
    too_many = [(d, count) for d, count in exponentiated
                if count > liealg._EXP_BLOCK_BYTES // (8 * d * d)]
    assert not too_many, f"(d, matrices) beyond one block: {too_many[:3]}"
    # the frames are the bits of exponentiating the whole stack at once
    offsets = 16 * rng.uniforms(spec.seed, (synth._TAG_Z,), spec.pair_count)
    shift = np.linalg.norm(synth._cyclic_shift_generator(16))
    stacked = original(liealg.combine(truth.basis, offsets[:, None] * shift))
    assert np.array_equal(data.x_i, stacked @ synth._lowpass_pattern(spec))
