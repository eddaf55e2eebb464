"""Collisional three-qubit thermal transistor simulator.

A small working-substance (two or three qubits with sigma_z sigma_z
couplings) undergoes repeated collisions with streams of fresh thermal
ancillas; local heat currents, amplification factors, critical temperatures,
and trace-distance memory measures are computed from the exact joint
dynamics.
"""

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
