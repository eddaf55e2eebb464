"""Collisional three-qubit thermal transistor simulator.

A small working-substance (two or three qubits with sigma_z sigma_z
couplings) undergoes repeated collisions with streams of fresh thermal
ancillas; local heat currents, amplification factors, critical temperatures,
and trace-distance memory measures are computed from the exact joint
dynamics.
"""

import os
import sys

# Every product here is at most 216 wide, mostly a 27 x 27 parity-sector
# block, where OpenBLAS helper threads only spin a second core.  OpenBLAS
# reads OPENBLAS_NUM_THREADS once, when numpy loads, so it is set to 1
# before the first import below that loads numpy, and only if numpy is not
# loaded yet; an exported value wins.  Like any environment variable it
# stays set for the rest of the process and its child processes.
_numpy_loaded_first = "numpy" in sys.modules
_found = os.environ.get("OPENBLAS_NUM_THREADS")
if not _numpy_loaded_first:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# recorded in every manifest
BLAS_THREADS = {
    "found": {"OPENBLAS_NUM_THREADS": _found},
    "numpy_loaded_first": _numpy_loaded_first,
}

__version__ = "1.0.0"

from .engine import Trajectory, evolve
from .metrics import (
    AmplificationResult,
    SweepResult,
    amplification,
    current_at,
    find_critical_TM,
    five_point_derivative,
    sweep,
)
from .model import CouplingConfig, EnvSpec, ModelConfig
from .nonmarkov import BlochState, BLPResult, SearchConfig, blp_measure

__all__ = [
    "__version__",
    "ModelConfig",
    "CouplingConfig",
    "EnvSpec",
    "Trajectory",
    "evolve",
    "AmplificationResult",
    "SweepResult",
    "amplification",
    "current_at",
    "find_critical_TM",
    "five_point_derivative",
    "sweep",
    "BlochState",
    "BLPResult",
    "SearchConfig",
    "blp_measure",
]
