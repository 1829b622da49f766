"""Exact-factorization geometry of two-component quantum systems.

The package splits a two-component wavefunction into marginal and
conditional factors, evaluates the induced geometric quantities (Berry
connection, quantum metric, rank-3 tensors), and verifies the identity for
the rate of change of the geometric part of the kinetic energy on an
exactly solvable one-dimensional model, together with the multi-dimensional
tensor identities on synthetic families.
"""

from .ef import EFDecomposition, KineticPartition, TwoComponentWavefunction, decompose, energies
from .errors import ConfigError, ResolutionWarning, VerificationFailure
from .grid import Grid1D
from .model import BlochState, HamiltonianFields, ModelParams

__version__ = "0.1.0"

__all__ = [
    "BlochState",
    "ConfigError",
    "EFDecomposition",
    "Grid1D",
    "HamiltonianFields",
    "KineticPartition",
    "ModelParams",
    "ResolutionWarning",
    "TwoComponentWavefunction",
    "VerificationFailure",
    "decompose",
    "energies",
    "__version__",
]
