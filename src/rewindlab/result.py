"""Common result container."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FidelityResult:
    """A fidelity value with its provenance.

    ``value`` is an exact :class:`~fractions.Fraction` for the noiseless
    analytic/combinatorial routes and a float for noisy or sampled routes.
    ``stderr`` is set only by Monte-Carlo estimates.
    """

    value: Fraction | float
    method: str
    stderr: float | None = None
