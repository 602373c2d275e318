"""Kraus channels and the scalar statistics entering the noisy formulas.

A channel of arity w acts on w qudits (dimension q^w).  The statistics:

* ``alpha``: sum_k |Tr E_k|^2 / q^(2w), the entanglement fidelity;
* ``beta``:  sum_{k,k'} |Tr E_k E_k'|^2 / q^(2w);
* ``beta_u``/``beta_d``: four-fold contractions of the doubled channel
  against the permutation fold states, one per gate leg (native for
  arity 2; arity-1 channels are lifted to the product channel E x E);
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


def validate_channel(channel: KrausChannel, tol: float = COMPLETENESS_TOL) -> None:
    """Check the completeness relation sum_k E_k^dag E_k = I."""
    residual = channel.completeness_residual()
    if residual > tol:
        raise NotTracePreservingError(residual)


@dataclass(frozen=True)
class ChannelStats:
    alpha: float
    beta: float
    beta_u: float
    beta_d: float
    recycled_one: float = 1.0
    recycled_s: float = 1.0

    @property
    def recycled_boundary(self) -> tuple[float, float]:
        return (self.recycled_one, self.recycled_s)


def _fold_contraction(ops: list[np.ndarray], q: int, out_u: str, out_d: str) -> complex:
    """sum_{k,k'} <out_u|_u <out_d|_d  E_k^dag x E_k^T x E_k' x E_k'^*  |s>_u |s>_d.

    Each operator is reshaped to legs (u_out, d_out, u_in, d_in); the
    pairing strings name which copies each boundary state glues:
    identity-type pairs (1,2)(3,4), swap-type pairs (1,4)(2,3).  The
    summand factorises over k and k', so the operators are stacked and
    the whole double sum is one contraction over a shared Kraus index
    (k for copies 1 and 2, l for copies 3 and 4).
    """
    t = np.stack(ops).reshape(-1, q, q, q, q)

    def pair(kind: str, a: str, b: str):
        # per-copy index letters of one leg group
        return (a, a, b, b) if kind == "one" else (a, b, b, a)

    uo, do, ui, di = pair(out_u, "a", "b"), pair(out_d, "c", "d"), pair("s", "e", "f"), pair("s", "g", "h")
    subs = ",".join(f"{kraus}{uo[i]}{do[i]}{ui[i]}{di[i]}" for i, kraus in enumerate("kkll")) + "->"
    # copies: E^dag and E^T as (out, in) tensors, then E and E^*
    adj = t.conj().transpose(0, 3, 4, 1, 2)
    return complex(np.einsum(subs, adj, t.transpose(0, 3, 4, 1, 2), t, t.conj(), optimize=True))


def channel_stats(channel: KrausChannel) -> ChannelStats:
    """Derive (alpha, beta, beta_u, beta_d) plus boundary overlaps."""
    validate_channel(channel)
    q = channel.qudit_dim()
    w = channel.arity
    norm = float(q ** (2 * w))
    ops = list(channel.operators)

    alpha = sum(abs(np.trace(e)) ** 2 for e in ops) / norm
    beta = sum(abs(np.trace(ek @ ekp)) ** 2 for ek in ops for ekp in ops) / norm

    if w == 2:
        two_site = ops
    else:
        two_site = [np.kron(ea, eb) for ea in ops for eb in ops]
    bu = _fold_contraction(two_site, q, "one", "s") / q**3
    bd = _fold_contraction(two_site, q, "s", "one") / q**3

    r_one, r_s = 1.0, 1.0
    if w == 1:
        p0 = np.zeros((q, q), dtype=complex)
        p0[0, 0] = 1.0
        dressed = sum(e.conj().T @ p0 @ e for e in ops)
        if np.max(np.abs(dressed - p0)) > BOUNDARY_FIXED_TOL:
            r_one = float(np.real(np.trace(dressed)))
            r_s = float(np.real(dressed[0, 0]))

    def as_real(z, name):
        if abs(np.imag(z)) > 1e-12:
            raise ArithmeticError(f"{name} should be real, got {z}")
        return float(np.real(z))

    return ChannelStats(
        alpha=float(alpha),
        beta=float(beta),
        beta_u=as_real(bu, "beta_u"),
        beta_d=as_real(bd, "beta_d"),
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
