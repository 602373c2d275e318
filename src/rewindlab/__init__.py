"""Haar-averaged fidelity of the qudit rewinding protocol.

Six routes to the same number, named as the CLI's ``--method`` names them:

* ``closed``: closed-form expressions (:mod:`rewindlab.closedform`),
* ``wall``: weighted single-domain-wall path sums over the mapped lattice
  model (:mod:`rewindlab.statmech`),
* ``sum``: full spin-configuration sums over the same lattice
  (:mod:`rewindlab.statmech`),
* ``transfer``: 2x2 transfer-matrix products for convolutional circuits,
  with or without noise (:mod:`rewindlab.statmech`),
* ``twirl``: the exact second-moment contraction (:mod:`rewindlab.oracle`),
* ``mc``: Monte-Carlo sampling of Haar gates (:mod:`rewindlab.oracle`).

Each route cross-checks the others; the exact second-moment twirl oracle is
the arbiter wherever it fits in memory.
"""

from rewindlab.circuits import CircuitShape, GateLayout, RecycleTarget, build_circuit, apply_rewinding
from rewindlab.result import FidelityResult

__all__ = [
    "CircuitShape",
    "GateLayout",
    "RecycleTarget",
    "build_circuit",
    "apply_rewinding",
    "FidelityResult",
]

__version__ = "0.1.0"
