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

    def __str__(self) -> str:
        if isinstance(self.value, Fraction):
            decimal = f"{float(self.value):.15g}"
            return f"{self.method}: {self.value} = {decimal}"
        if self.stderr is not None:
            return f"{self.method}: {self.value:.15g} +/- {self.stderr:.3g}"
        return f"{self.method}: {self.value:.15g}"
