"""Joint estimation of low-dimensional sequence representations and the
Lie-algebra generators of their transition dynamics.

Three estimators of increasing generality: EM over given latent pairs
(:mod:`lieflow.dynamics`), joint EM with a probabilistic-PCA observation
model (:mod:`lieflow.ppca`) and variational EM with nonlinear
encoder/decoder networks (:mod:`lieflow.npca`), all three fitted to one
pair type, :class:`lieflow.dynamics.PairDataset`.  Supporting layers:
SPD factorizations and solvers (:mod:`lieflow.gaussian`), generator-basis
arithmetic (:mod:`lieflow.liealg`), synthetic ground-truth data
(:mod:`lieflow.synth`), the grid quadrature of the ppca quadrature
E-step (:mod:`lieflow.oracles`) and file/CLI plumbing
(:mod:`lieflow.tensorfile`, :mod:`lieflow.cli`).  The reference
implementations the tests check these against live in
``tests/reference.py``, outside the package.

``import lieflow`` loads none of these modules.  A public name or a
submodule attribute (``lieflow.PpcaConfig``, ``lieflow.ppca``) imports
its module on first access (PEP 562), as :data:`_SOURCES` lists it, so a
CLI process loads only the estimator its subcommand runs.
"""

import sys

__version__ = "0.1.0"

# every submodule, with the public names it defines
_SOURCES = {
    "cli": (),
    "dynamics": ("DynamicsModel", "EmConfig", "PairDataset"),
    "gaussian": ("NumericError",),
    "liealg": ("GeneratorBasis",),
    "npca": ("Mlp", "NpcaConfig", "NpcaModel"),
    "oracles": (),
    "ppca": ("LatentMoments", "PpcaConfig", "PpcaModel"),
    "rng": (),
    "synth": ("SequenceSpec", "SynthTruth"),
    "tensorfile": (),
}
_HOMES = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    home = name if name in _SOURCES else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is timed by
    # ``python -X importtime``
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value   # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES) | set(_HOMES))
