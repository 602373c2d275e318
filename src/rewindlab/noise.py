"""Kraus channels and the scalar statistics entering the noisy formulas.

A channel of arity w acts on w qudits (dimension q^w).  The statistics:

* ``alpha``: sum_k |Tr E_k|^2 / q^(2w), the entanglement fidelity;
* ``beta``:  sum_{k,k'} |Tr E_k E_k'|^2 / q^(2w);
* ``recycled_one``/``recycled_s``: overlaps of the adjoint-channel-dressed
  projector with the two fold states, Tr Phi*(|0><0|) and
  <0|Phi*(|0><0|)|0>.  They dress the recycled-qudit boundary of the
  transfer matrix because one channel application separates the last
  rewinding gate from the measurement.

All statistics equal 1 for the identity channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from rewindlab.errors import InvalidParameterError, NotTracePreservingError

COMPLETENESS_TOL = 1e-10
# Largest entry of Phi*(|0><0|) - |0><0| for which the adjoint channel
# counts as fixing |0><0|; the recycled boundary is then exactly (1, 1).
BOUNDARY_FIXED_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """A list of q^w x q^w Kraus operators."""

    operators: tuple[np.ndarray, ...]
    arity: int = 1

    def __post_init__(self):
        if type(self.arity) is not int or self.arity not in (1, 2):  # a bool is no arity
            raise InvalidParameterError(f"arity {self.arity!r} is not 1 or 2 (the qudits a channel acts on)")
        ops = tuple(np.asarray(e, dtype=complex) for e in self.operators)
        object.__setattr__(self, "operators", ops)
        dims = {e.shape for e in ops}
        if len(dims) != 1 or ops[0].shape[0] != ops[0].shape[1]:
            raise InvalidParameterError("Kraus operators must be square and uniformly sized")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def qudit_dim(self) -> int:
        q = round(self.dim ** (1.0 / self.arity))
        if q**self.arity != self.dim:
            raise InvalidParameterError(f"dimension {self.dim} is not a power matching arity {self.arity}")
        return q

    def completeness_residual(self) -> float:
        acc = sum(e.conj().T @ e for e in self.operators)
        return float(np.linalg.norm(acc - np.eye(self.dim)))

    def to_json(self) -> str:
        return json.dumps(
            {
                "arity": self.arity,
                "operators": [[[ [z.real, z.imag] for z in row] for row in op] for op in self.operators],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "KrausChannel":
        doc = json.loads(text)
        ops = [
            np.array([[complex(re, im) for re, im in row] for row in op])
            for op in doc["operators"]
        ]
        return cls(tuple(ops), arity=doc.get("arity", 1))


def validate_channel(channel: KrausChannel) -> None:
    """Check the completeness relation sum_k E_k^dag E_k = I to ``COMPLETENESS_TOL``."""
    residual = channel.completeness_residual()
    if residual > COMPLETENESS_TOL:
        raise NotTracePreservingError(residual)


@dataclass(frozen=True)
class ChannelStats:
    alpha: float
    beta: float
    recycled_one: float = 1.0
    recycled_s: float = 1.0

    @property
    def recycled_boundary(self) -> tuple[float, float]:
        return (self.recycled_one, self.recycled_s)


def channel_stats(channel: KrausChannel) -> ChannelStats:
    """Derive (alpha, beta) plus boundary overlaps."""
    validate_channel(channel)
    q = channel.qudit_dim()
    w = channel.arity
    norm = float(q ** (2 * w))
    ops = np.stack(channel.operators)

    # Traces of all operators and of all pair products at once.  The moduli
    # stay scalar (numpy's vectorised complex abs can differ in the last
    # bit), summed in the order of the loops over k and k' they replace.
    traces = np.trace(ops, axis1=1, axis2=2).tolist()
    pair_traces = np.trace(np.matmul(ops[:, None], ops[None, :]), axis1=2, axis2=3).ravel().tolist()
    alpha = sum(abs(t) ** 2 for t in traces) / norm
    beta = sum(abs(t) ** 2 for t in pair_traces) / norm

    r_one, r_s = 1.0, 1.0
    if w == 1:
        p0 = np.zeros((q, q), dtype=complex)
        p0[0, 0] = 1.0
        dressed = sum(e.conj().T @ p0 @ e for e in ops)
        if np.max(np.abs(dressed - p0)) > BOUNDARY_FIXED_TOL:
            r_s = float(np.real(dressed[0, 0]))
            # Tr Phi*(|0><0|) = <0| sum E E^dag |0>, exactly 1 for a unital
            # channel; the Kraus sum would round it (0.9999999999999999)
            unital = np.linalg.norm(sum(e @ e.conj().T for e in ops) - np.eye(q)) <= COMPLETENESS_TOL
            r_one = 1.0 if unital else float(np.real(np.trace(dressed)))

    # Cauchy-Schwarz bounds alpha and beta by 1 for a trace-preserving
    # channel; a unitary one can round past it (beta = 1 + 4e-16 for a
    # global phase at q = 3), which TrivalentRule would refuse.
    return ChannelStats(
        alpha=min(float(alpha), 1.0),
        beta=min(float(beta), 1.0),
        recycled_one=r_one,
        recycled_s=r_s,
    )


# -- standard constructors -------------------------------------------------


def _check_prob(p: float, name: str = "p") -> None:
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {p}")


def identity_channel(q: int = 2) -> KrausChannel:
    return KrausChannel((np.eye(q),), arity=1)


def depolarizing(q: int, p: float) -> KrausChannel:
    """Phi(rho) = (1-p) rho + p Tr(rho) I/q.

    For q = 2 this is the Pauli Kraus set {sqrt(1-3p/4) I, sqrt(p/4) X/Y/Z};
    for general q the Heisenberg-Weyl set with uniform weight p/q^2 off the
    identity.
    """
    _check_prob(p)
    ops = []
    omega = np.exp(2j * np.pi / q)
    x = np.roll(np.eye(q), 1, axis=0)
    z = np.diag(omega ** np.arange(q))
    for a in range(q):
        for b in range(q):
            weight = 1 - p + p / (q * q) if a == b == 0 else p / (q * q)
            ops.append(np.sqrt(weight) * (np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)))
    return KrausChannel(tuple(ops), arity=1)


def dephasing(q: int, p: float) -> KrausChannel:
    """Kraus set {sqrt(1-p) I, sqrt(p/(q-1)) Z^j}; for q = 2 this is
    {sqrt(1-p) I, sqrt(p) Z}, giving alpha = 1 - p."""
    _check_prob(p)
    omega = np.exp(2j * np.pi / q)
    z = np.diag(omega ** np.arange(q))
    ops = [np.sqrt(1 - p) * np.eye(q)]
    for j in range(1, q):
        ops.append(np.sqrt(p / (q - 1)) * np.linalg.matrix_power(z, j))
    return KrausChannel(tuple(ops), arity=1)


def amplitude_damping(q: int, gamma: float) -> KrausChannel:
    if q != 2:
        raise InvalidParameterError("amplitude damping is implemented for qubits only")
    _check_prob(gamma, "gamma")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel((k0, k1), arity=1)


def random_channel(q: int, rank: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel from a Haar isometry with the given Kraus rank."""
    z = rng.standard_normal((q * rank, q)) + 1j * rng.standard_normal((q * rank, q))
    v, _ = np.linalg.qr(z)
    ops = tuple(v[k * q : (k + 1) * q, :] for k in range(rank))
    return KrausChannel(ops, arity=1)
