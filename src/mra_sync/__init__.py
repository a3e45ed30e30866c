"""Multi-reference alignment over relative rotations for grid-structured signals.

A numpy/scipy library for denoising lattices of matrix-valued blocks that
share a correlated Gaussian prior but were each rotated by an unknown
orthogonal transform: synthetic data generation, pairwise/triplet/iterative
estimators, closed-form MMSE references, cycle-consistency verification, and
a seeded experiment runner.
"""

from .model import *
from .procrustes import *
from .graph import *
from .sync import *
from .oracle import *
from .experiment import *
from . import experiment, graph, model, oracle, procrustes, sync

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = (
    model.__all__ + procrustes.__all__ + graph.__all__
    + sync.__all__ + oracle.__all__ + experiment.__all__
)
