"""Ground-truth fidelity by direct quantum simulation.

Two routes:

* :func:`exact_twirl_fidelity` replaces every Haar gate by its exact
  first/second unitary moment and contracts the resulting network
  deterministically.  A gate that is later rewound appears four times in
  <psi|P|psi> (U, U^dag, U*, U^T), so its average is the second moment; a
  gate applied only once appears twice and averages to the first moment.
* :func:`mc_average_fidelity` samples explicit Haar unitaries and runs the
  protocol, giving an estimate with a standard error.  Noiseless samples
  are batched state vectors; with a channel, samples are batched density
  matrices folded into q^(2n) vectors with each qudit's (ket, bra) pair
  adjacent, and a slot is one batched matmul by S (U x U*) on the
  (pre, q^4, post) view, S the channel on the slot's two qudits.

The twirl works on a four-copy vector with per-qudit copy blocks
(c1, c2, c3, c4) = (rho-ket, rho-bra, proj-ket, proj-bra).  The rho block
starts as |0><0|, the projector block as vec(|0><0|) on recycled qudits and
vec(I) elsewhere; the final contraction pairs c1-c4 and c2-c3 on every
qudit.  Each rewound gate contributes

    sum_{sigma,tau} Wg(sigma tau^-1, d) |sigma>><<tau|      (d = q^2)

applied jointly to all four copies of its two qudits, which is the Haar
average of U x U* x U x U*.  Non-rewound gates contribute the first moment
(1/d)|Phi>><<Phi| on the (c1, c2) copies alone.

Gates act on adjacent qudits (a, a+1), so the folded vector is kept flat
and each gate is applied on its (pre, q^8, post) view, pre = q^(4(a-1)).
A second moment has rank 2: one matmul projects the q^8 block onto the two
pairing states and one writes the Weingarten-mixed pair back.  A first
moment sums the (c1, c2) diagonals and writes one outer product.  Channels
act inside the same block, so they are folded into these small per-gate
maps once and cost no pass over the vector.  Each gate thus reads the
vector once and writes one new one: the peak is about two folded vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from rewindlab.circuits import GateLayout, RecycleTarget
from rewindlab.errors import InvalidParameterError, TargetNotIdleError, TooLargeError
from rewindlab.parallel import map_chunks
from rewindlab.result import FidelityResult

if TYPE_CHECKING:
    from rewindlab.noise import KrausChannel

# Memory cap for the folded vector: q^(4n) elements (q=2 up to n=6,
# q=3 up to n=4 by default).
DEFAULT_MAX_ELEMENTS = 1 << 26

# Largest state dimension q^n of noisy (density-matrix) Monte Carlo.
MAX_DENSITY_DIM = 1 << 10

# Elements per sub-batch of noisy Monte-Carlo samples (folded density
# vectors or per-sample slot matrices, whichever is larger).
_DENSITY_BATCH_ELEMENTS = 1 << 20


def weingarten_pair(d: int) -> tuple[float, float]:
    """Second-moment Weingarten weights (identity, transposition) at dimension d.

    The transposition weight is negative, -1/(d(d^2-1)); only with that sign
    is the averaged twirl unital.
    """
    return 1.0 / (d * d - 1.0), -1.0 / (d * (d * d - 1.0))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary: complex Ginibre, QR, R-phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qm, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return qm * (diag / np.abs(diag))


def _haar_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    qm, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return qm * (diag / np.abs(diag))[:, None, :]


@dataclass(frozen=True)
class SeededRng:
    """Master seed with deterministic per-chunk substreams.

    Samples are processed in fixed-size chunks; chunk c draws from the
    generator seeded by SeedSequence(master, spawn_key=(c,)), so estimates
    are bit-identical for a given seed regardless of scheduling.
    """

    master: int
    chunk: int = 4096

    def chunk_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master, spawn_key=(index,)))


def check_channel_dim(channel: "KrausChannel", q: int) -> None:
    """Refuse a channel whose qudit dimension is not the circuit's q."""
    if channel.qudit_dim() != q:
        raise InvalidParameterError(f"channel acts on qudits of dimension {channel.qudit_dim()}, circuit has q={q}")


# -- exact twirl ---------------------------------------------------------


def _pair_vectors(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-qudit four-copy pairing tensors for the two permutations."""
    eye = np.eye(q)
    one = np.einsum("ij,kl->ijkl", eye, eye)  # pairs (c1,c2)(c3,c4)
    s = np.einsum("il,jk->ijkl", eye, eye)  # pairs (c1,c4)(c2,c3)
    return one, s


def _pair_superops(channel: "KrausChannel | None", q: int):
    """(rho-side, proj-side) maps of the channel on one gate's qudit pair.

    rho side: rho -> sum_k E rho E^dag; proj side is the adjoint channel
    O -> sum_k E^dag O E.  Each is a (d, d, d, d) tensor, d = q^2, with legs
    (a_out, b_out, a_in, b_in), each leg the (ket, bra) copy pair of one
    qudit; an arity-1 channel acts on both qudits.  No channel gives the
    identity.  Tensors are real whenever possible (e.g. Pauli channels) so
    the float64 path can be kept.
    """
    d = q * q
    if channel is None:
        eye = np.eye(d * d).reshape(d, d, d, d)
        return eye, eye
    dim = channel.dim
    sup = np.zeros((dim, dim, dim, dim), dtype=complex)
    adj = np.zeros((dim, dim, dim, dim), dtype=complex)
    for e in channel.operators:
        sup += np.einsum("ik,jl->ijkl", e, e.conj())
        ed = e.conj().T
        adj += np.einsum("ik,jl->ijkl", ed, ed.conj())

    def pair(t):
        t = t.real if np.abs(t.imag).max() < 1e-14 else t
        if channel.arity == 2:
            # legs (ket_ab, bra_ab) out and in -> ((ket_a, bra_a), (ket_b, bra_b))
            return t.reshape((q,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d, d, d, d)
        m = t.reshape(d, d)
        return np.einsum("AC,BD->ABCD", m, m)

    return pair(sup), pair(adj)


def _dress(vectors: np.ndarray, sup: np.ndarray, side: int) -> np.ndarray:
    """Apply a pair map to the rho-side (side 0: c1, c2) or proj-side
    (side 2: c3, c4) copies of stacked q^8 pair-block vectors."""
    d = sup.shape[0]
    spec = "ABCD,kCxDy->kAxBy" if side == 0 else "ABCD,kxCyD->kxAyB"
    return np.einsum(spec, sup, vectors.reshape(-1, d, d, d, d)).reshape(vectors.shape)


def _gate_maps(q: int, rho_sup: np.ndarray, adj_sup: np.ndarray):
    """Per-gate maps with the slot channels folded in.

    A rewound gate is K_rho P^T W P K_adj on its q^8 pair block: P (2 x q^8)
    projects onto the pairing states one x one and s x s, W mixes them with
    the Weingarten weights.  Returned as ``down`` = P K_adj and ``up`` =
    K_rho P^T W.  A gate applied once is (1/d) K_rho |Phi Phi>><<Phi Phi| on
    the (c1, c2) copies; ``first`` = K_rho|Phi Phi>> / d as a (d, d) matrix.
    """
    d = q * q
    one, s = _pair_vectors(q)
    proj = np.stack([np.multiply.outer(one, one).ravel(), np.multiply.outer(s, s).ravel()])
    wg_e, wg_t = weingarten_pair(d)
    mix = proj.T @ np.array([[wg_e, wg_t], [wg_t, wg_e]])
    down = _dress(proj, adj_sup.transpose(2, 3, 0, 1), 2)
    up = _dress(mix.T, rho_sup, 0).T
    phi = np.eye(q).ravel()
    return down, up, np.einsum("ABCD,C,D->AB", rho_sup, phi, phi) / d


def _apply(mat: np.ndarray, v: np.ndarray, pre: int) -> np.ndarray:
    """``mat`` on the middle axis of the (pre, mat columns, rest) view of flat ``v``."""
    return np.matmul(mat, v.reshape(pre, mat.shape[1], -1)).reshape(-1)


def _apply_first_moment(v: np.ndarray, first: np.ndarray, q: int, pre: int) -> np.ndarray:
    """Sum the (c1, c2) diagonals of a qudit pair, write ``first`` in their place."""
    d = q * q
    diag = (slice(None), slice(None, None, q + 1), slice(None), slice(None, None, q + 1))
    rest = v.reshape(pre, d, d, d, -1)[diag].sum(axis=(1, 3))
    return (first[None, :, None, :, None] * rest[:, None, :, None, :]).reshape(-1)


def _initial_vector(n: int, q: int, targeted: frozenset[int], dtype) -> np.ndarray:
    v = np.ones((), dtype=dtype)
    zero2 = np.zeros((q, q), dtype=dtype)
    zero2[0, 0] = 1.0
    phi = np.eye(q, dtype=dtype)
    for i in range(1, n + 1):
        proj = zero2 if i in targeted else phi
        block = np.multiply.outer(zero2, proj)
        v = np.multiply.outer(v, block)
    return v.reshape(-1)


def _final_contraction(v: np.ndarray, n: int, q: int):
    s_cap = _pair_vectors(q)[1].reshape(-1)
    for _ in range(n):
        v = s_cap @ v.reshape(q**4, -1)
    return v.item()


def exact_twirl_fidelity(
    layout: GateLayout,
    target: RecycleTarget,
    channel: "KrausChannel | None" = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FidelityResult:
    """Haar-averaged fidelity by exact moment contraction (no sampling)."""
    n, q = layout.n, layout.q
    if q ** (4 * n) > max_elements:
        raise TooLargeError(f"folded vector q^(4n) = {q}^{4 * n} exceeds cap {max_elements}")
    targeted = target.qudits(n)
    if not targeted <= layout.idle:
        raise TargetNotIdleError(f"target {sorted(targeted)} not idle")
    if channel is not None:
        check_channel_dim(channel, q)

    rho_sup, adj_sup = _pair_superops(channel, q)
    down, up, first = _gate_maps(q, rho_sup, adj_sup)
    v = _initial_vector(n, q, targeted, np.result_type(down, up, first))
    rewound = layout.rewound_ids
    for slot in layout.forward_slots:
        # Gates act on (a, a+1), adjacent by construction.  For a rewound
        # gate the partner slot's channel acts below the node on the
        # projector-side copies (adjoint channel), the forward slot's
        # channel above it on the rho-side copies.
        pre = q ** (4 * (slot.qudits[0] - 1))
        if slot.gate_id in rewound:
            v = _apply(up, _apply(down, v, pre), pre)
        else:
            v = _apply_first_moment(v, first, q, pre)

    value = complex(_final_contraction(v, n, q))
    if abs(value.imag) > 1e-10:
        raise ArithmeticError(f"twirl contraction returned complex value {value}")
    return FidelityResult(value=float(value.real), method="twirl")


# -- Monte Carlo ---------------------------------------------------------


def _run_pure_batch(layout: GateLayout, targeted: frozenset[int], rng: np.random.Generator, count: int) -> np.ndarray:
    """Fidelities of ``count`` independent Haar draws (noiseless protocol)."""
    n, q = layout.n, layout.q
    d = q * q
    gate_ids = sorted({s.gate_id for s in layout.slots})
    gates = {gid: _haar_batch(d, count, rng) for gid in gate_ids}

    psi = np.zeros((count, q**n), dtype=complex)
    psi[:, 0] = 1.0
    for slot in layout.slots:
        a = slot.qudits[0]  # acts on (a, a+1), adjacent by construction
        g = gates[slot.gate_id]
        if slot.dagger:
            g = g.conj().transpose(0, 2, 1)
        pre, post = q ** (a - 1), q ** (n - a - 1)
        psi = psi.reshape(count, pre, d, post)
        psi = np.einsum("bij,bpjq->bpiq", g, psi).reshape(count, q**n)

    norms = np.abs(np.einsum("bi,bi->b", psi.conj(), psi))
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ArithmeticError("statevector norm drifted beyond 1e-9")

    shaped = psi.reshape((count,) + (q,) * n)
    idx: list[object] = [slice(None)] * (n + 1)
    for t in targeted:
        idx[t] = 0
    proj = shaped[tuple(idx)].reshape(count, -1)
    return np.einsum("bi,bi->b", proj.conj(), proj).real


def _folded_superop(mats: np.ndarray, q: int) -> np.ndarray:
    """rho -> E rho E^dag for each two-qudit E in ``mats`` (..., q^2, q^2), as
    a (..., q^4, q^4) matrix on folded (ket_a, bra_a, ket_b, bra_b) blocks."""
    lead = mats.shape[:-2]
    ket = mats.reshape(lead + (q, 1) * 4)
    bra = mats.conj().reshape(lead + (1, q) * 4)
    return (ket * bra).reshape(lead + (q**4, q**4))


def _run_density_batch(
    layout: GateLayout,
    targeted: frozenset[int],
    channel: "KrausChannel",
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Noisy protocol: batched folded density vectors, one matmul per slot."""
    n, q = layout.n, layout.q
    d = q * q
    gate_ids = sorted({s.gate_id for s in layout.slots})
    gates = {gid: _haar_batch(d, count, rng) for gid in gate_ids}

    ops = channel.operators
    if channel.arity == 1:
        ops = [np.kron(ea, eb) for ea in ops for eb in ops]
    sup = _folded_superop(np.stack(ops), q).sum(axis=0)

    # the ket = bra entries, with every targeted qudit in |0>
    eye = np.eye(q)
    mask = np.ones(())
    for i in range(1, n + 1):
        mask = np.multiply.outer(mask, np.outer(eye[0], eye[0]) if i in targeted else eye)
    mask = mask.reshape(-1)

    out = np.empty(count)
    step = max(1, _DENSITY_BATCH_ELEMENTS // max(d**n, d**4))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        v = np.zeros((hi - lo, d**n), dtype=complex)
        v[:, 0] = 1.0
        for slot in layout.slots:
            g = gates[slot.gate_id][lo:hi]
            if slot.dagger:
                g = g.conj().transpose(0, 2, 1)
            pre = d ** (slot.qudits[0] - 1)
            mat = np.matmul(sup, _folded_superop(g, q))
            v = np.matmul(mat[:, None], v.reshape(hi - lo, pre, d * d, -1)).reshape(hi - lo, -1)
        out[lo:hi] = (v @ mask).real
    return out


def mc_average_fidelity(
    layout: GateLayout,
    target: RecycleTarget,
    channel: "KrausChannel | None" = None,
    samples: int = 10_000,
    rng: SeededRng | int = 0,
) -> FidelityResult:
    """Monte-Carlo estimate of the averaged fidelity.

    Noiseless runs use batched pure-state simulation; with a channel the
    samples evolve as batched folded density vectors, one matmul per slot,
    with the state dimension q^n capped at ``MAX_DENSITY_DIM``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(rng, int):
        rng = SeededRng(rng)
    targeted = target.qudits(layout.n)
    if channel is not None:
        check_channel_dim(channel, layout.q)
        if layout.q ** layout.n > MAX_DENSITY_DIM:
            raise TooLargeError("density-matrix simulation exceeds dimension cap")

    plan = []
    pos = 0
    while pos < samples:
        count = min(rng.chunk, samples - pos)
        plan.append((len(plan), count))
        pos += count

    def run_chunk(job):
        index, count = job
        gen = rng.chunk_rng(index)
        if channel is None:
            return _run_pure_batch(layout, targeted, gen, count)
        return _run_density_batch(layout, targeted, channel, gen, count)

    values = np.concatenate(map_chunks(run_chunk, plan))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else float("nan")
    return FidelityResult(value=mean, method="mc", stderr=stderr)
