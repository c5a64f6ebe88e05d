"""Joint estimation of low-dimensional sequence representations and the
Lie-algebra generators of their transition dynamics.

Three estimators of increasing generality: EM over given latent pairs
(:mod:`lieflow.dynamics`), joint EM with a probabilistic-PCA observation
model (:mod:`lieflow.ppca`) and variational EM with nonlinear
encoder/decoder networks (:mod:`lieflow.npca`).  Supporting layers:
SPD factorizations and solvers (:mod:`lieflow.gaussian`), generator-basis
arithmetic (:mod:`lieflow.liealg`), synthetic ground-truth data
(:mod:`lieflow.synth`), the grid quadrature of the ppca quadrature
E-step (:mod:`lieflow.oracles`) and file/CLI plumbing
(:mod:`lieflow.tensorfile`, :mod:`lieflow.cli`).  The reference
implementations the tests check these against live in
``tests/reference.py``, outside the package.
"""

from .dynamics import DynamicsModel, EmConfig, PairDataset
from .gaussian import NumericError
from .liealg import GeneratorBasis
from .ppca import LatentMoments, PpcaConfig, PpcaModel
from .npca import Mlp, NpcaConfig, NpcaModel
from .synth import ImagePairDataset, SequenceSpec, SynthTruth

__version__ = "0.1.0"

__all__ = [
    "DynamicsModel",
    "EmConfig",
    "GeneratorBasis",
    "ImagePairDataset",
    "LatentMoments",
    "Mlp",
    "NpcaConfig",
    "NpcaModel",
    "NumericError",
    "PairDataset",
    "PpcaConfig",
    "PpcaModel",
    "SequenceSpec",
    "SynthTruth",
    "__version__",
]
