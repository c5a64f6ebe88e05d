"""Joint estimation of low-dimensional sequence representations and the
Lie-algebra generators of their transition dynamics.

Three estimators of increasing generality: EM over given latent pairs
(:mod:`lieflow.dynamics`), joint EM with a probabilistic-PCA observation
model (:mod:`lieflow.ppca`) and variational EM with nonlinear
encoder/decoder networks (:mod:`lieflow.npca`).  Supporting layers:
closed-form Gaussian algebra (:mod:`lieflow.gaussian`), generator-basis
arithmetic (:mod:`lieflow.liealg`), synthetic ground-truth data
(:mod:`lieflow.synth`), brute-force numerical oracles for tests
(:mod:`lieflow.oracles`) and file/CLI plumbing
(:mod:`lieflow.tensorfile`, :mod:`lieflow.cli`).
"""

from .dynamics import CoeffPosterior, DynamicsModel, EmConfig, PairDataset
from .gaussian import Gaussian, LinearGaussianMap, NumericError
from .liealg import GeneratorBasis
from .ppca import LatentMoments, PpcaConfig, PpcaModel
from .npca import Mlp, NpcaConfig, NpcaModel
from .synth import ImagePairDataset, SequenceSpec, SynthTruth

__version__ = "0.1.0"

__all__ = [
    "CoeffPosterior",
    "DynamicsModel",
    "EmConfig",
    "Gaussian",
    "GeneratorBasis",
    "ImagePairDataset",
    "LatentMoments",
    "LinearGaussianMap",
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
