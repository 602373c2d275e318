"""Ground-truth fidelity by direct quantum simulation.

Two routes:

* :func:`exact_twirl_fidelity` replaces every Haar gate by its exact
  first/second unitary moment and contracts the resulting network
  deterministically.  A gate that is later rewound appears four times in
  <psi|P|psi> (U, U^dag, U*, U^T), so its average is the second moment; a
  gate applied only once appears twice and averages to the first moment.
* :func:`mc_average_fidelity` samples explicit Haar unitaries and runs the
  protocol, giving an estimate with a standard error.  A batch of Haar
  gates is a complex Ginibre draw orthonormalised for the whole batch at
  once by classical Gram-Schmidt with one re-orthogonalisation.  One
  sampler serves both cases: a qudit holds D = q amplitudes of a state
  vector, or with a channel D = q^2 of a folded density matrix.  It joins
  the batched tensor as a new last axis at its first gate, and the sampler
  tracks which qudit sits on each axis.  Each slot is one batched matmul by
  U or by S (U x U*), S the channel on the slot's two qudits: on the
  (count, pre, D^2, post) view, copying nothing, when its qudits are
  adjacent at the front or back of that axis order, else after one copy
  that moves them to the front, as one gemm per sample.  One cap,
  D^n <= 2^20, bounds both.

The twirl works on a four-copy vector with per-qudit copy blocks
(c1, c2, c3, c4) = (rho-ket, rho-bra, proj-ket, proj-bra).  The rho block
starts as |0><0|, the projector block as vec(|0><0|) on recycled qudits and
vec(I) elsewhere; the final contraction pairs c1-c4 and c2-c3 on every
qudit.  Both are products over qudits, so a qudit joins the vector at its
first gate, its initial block multiplied in as an outer product, and is
capped off right after its last gate.  Gates on disjoint qudits commute,
so the twirl contracts them in a narrow order (:func:`_narrow_order`):
each qudit keeps its own gates in layout order, and the order keeps few
qudits live at once.  The vector holds only the live qudits of that
order, in index order: q^(4w) elements for the peak live width w, which
is 2 for a convolutional sweep and m + 1 for m hybrid sweeps at every n.
Each rewound gate contributes

    sum_{sigma,tau} Wg(sigma tau^-1, d) |sigma>><<tau|      (d = q^2)

applied jointly to all four copies of its two qudits, which is the Haar
average of U x U* x U x U*.  Non-rewound gates contribute the first moment
(1/d)|Phi>><<Phi| on the (c1, c2) copies alone.

A gate (a, b) must act on qudits adjacent among the live ones: b follows
a in the live index order, and no qudit between them is live.  So the
folded vector is kept flat and each gate is applied on its
(pre, q^8, post) view, pre = q^(4p) for p the live qudits before a; a
gate whose qudits are not so adjacent is refused.
A second moment has rank 2: one matmul projects the q^8 block onto the two
pairing states and one writes the Weingarten-mixed pair back.  A first
moment sums the (c1, c2) diagonals and writes one outer product.  Channels
act inside the same block, so they are folded into these small per-gate
maps once and cost no pass over the vector.  Each gate thus reads the
vector once and writes one new one: the peak is about two folded vectors
of the peak width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from rewindlab.circuits import GateLayout, GateSlot, RecycleTarget
from rewindlab.errors import InvalidParameterError, InvalidShapeError, TooLargeError
from rewindlab.parallel import map_chunks
from rewindlab.result import FidelityResult

if TYPE_CHECKING:
    from rewindlab.noise import KrausChannel

# Memory cap for the folded vector: q^(4w) elements for the peak live
# width w of the narrow order (w <= 6 at q=2, w <= 4 at q=3).  At any n,
# conv sweeps have w = 2 and hybrid w = m + 1 (at most n); deep local
# brickwork keeps w = n - 1 or n (n=8: w = 4 at m=2, 8 at m=8).
MAX_TWIRL_ELEMENTS = 1 << 26

# Largest Monte-Carlo sample vector: D^n elements, D = q for a state
# vector and q^2 for a folded density matrix (so q^n <= 2^10 with noise).
MAX_MC_ELEMENTS = 1 << 20

# Elements per sub-batch of Monte-Carlo samples (sample vectors or slot
# matrices, whichever is larger).
_MC_BATCH_ELEMENTS = 1 << 20

# Monte-Carlo samples per seeded chunk (see :class:`SeededRng`).
MC_CHUNK = 4096


def weingarten_pair(d: int) -> tuple[float, float]:
    """Second-moment Weingarten weights (identity, transposition) at dimension d.

    The transposition weight is negative, -1/(d(d^2-1)); only with that sign
    is the averaged twirl unital.
    """
    return 1.0 / (d * d - 1.0), -1.0 / (d * (d * d - 1.0))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary (see :func:`_haar_batch`)."""
    return _haar_batch(dim, 1, rng)[0]


def _haar_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries as a (count, dim, dim) view.

    Complex Ginibre matrices are orthonormalised column by column for the
    whole batch at once, stored columns-first and batch-last, by classical
    Gram-Schmidt with one re-orthogonalisation ("twice is enough").  That
    gives the Q of the QR factorisation whose R has a positive diagonal,
    which is Haar distributed, so no phase fix follows.
    """
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    cols = np.ascontiguousarray(z.transpose(2, 1, 0))  # cols[j, i, b] = z[b, i, j]
    for j in range(dim):
        v, done = cols[j], cols[:j]
        for _ in range(2 if j else 0):
            v -= np.einsum("kib,kb->ib", done, np.einsum("kib,ib->kb", done.conj(), v))
        v /= np.sqrt(np.einsum("ib,ib->b", v.real, v.real) + np.einsum("ib,ib->b", v.imag, v.imag))
    return cols.transpose(2, 1, 0)


@dataclass(frozen=True)
class SeededRng:
    """Master seed with deterministic per-chunk substreams.

    Samples are processed in chunks of ``MC_CHUNK``; chunk c draws from the
    generator seeded by SeedSequence(master, spawn_key=(c,)), so estimates
    are bit-identical for a given seed regardless of scheduling.
    """

    master: int

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
    for e in channel.operators:
        sup += np.einsum("ik,jl->ijkl", e, e.conj())
    # the adjoint channel's tensor is the conjugate with in and out legs swapped
    adj = np.ascontiguousarray(sup.transpose(2, 3, 0, 1).conj())

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


def _narrow_order(slots: tuple[GateSlot, ...]) -> list[GateSlot]:
    """A reordering of ``slots`` that keeps few qudits live at once.

    Gates on disjoint qudits commute, so any order in which every qudit
    sees its own gates in layout order is the same circuit.  This one is
    greedy: among the ready gates, those whose earlier gates on both their
    qudits are taken, it takes the gate that adds the fewest live qudits
    net of those it closes, the lower layout index on a tie.  Whether a
    gate opens or closes a qudit does not depend on the order, so each
    gate's net change is fixed up front, and each step scans only the
    ready set.
    """
    net = [0] * len(slots)
    blocked = [0] * len(slots)  # the gate's earlier gates on its qudits not yet taken
    after: list[list[int]] = [[] for _ in slots]  # the next gate on each of its qudits
    last: dict[int, int] = {}
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            if a in last:
                after[last[a]].append(k)
                blocked[k] += 1
            else:
                net[k] += 1
            last[a] = k
    for k in last.values():
        net[k] -= 1
    ready = {(net[k], k) for k, count in enumerate(blocked) if not count}
    order = []
    while ready:
        pick = min(ready)
        ready.remove(pick)
        k = pick[1]
        order.append(slots[k])
        for j in after[k]:
            blocked[j] -= 1
            if not blocked[j]:
                ready.add((net[j], j))
    return order


def exact_twirl_fidelity(
    layout: GateLayout,
    target: RecycleTarget,
    channel: "KrausChannel | None" = None,
) -> FidelityResult:
    """Haar-averaged fidelity by exact moment contraction (no sampling).

    Gates are contracted in the narrow order of :func:`_narrow_order`.  The
    folded vector holds only the live qudits, those between their first
    and last gate; ``MAX_TWIRL_ELEMENTS`` caps it at its widest, q^(4w).
    A gate whose two qudits are not adjacent, in index order, among the
    live qudits raises :class:`InvalidShapeError`.
    """
    n, q = layout.n, layout.q
    slots = _narrow_order(layout.forward_slots)
    first_gate: dict[int, int] = {}
    last_gate: dict[int, int] = {}
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            first_gate.setdefault(a, k)
            last_gate[a] = k
    live_change = [0] * (len(slots) + 1)
    for a, k in first_gate.items():
        live_change[k] += 1
        live_change[last_gate[a] + 1] -= 1
    width = max(accumulate(live_change))
    if q ** (4 * width) > MAX_TWIRL_ELEMENTS:
        raise TooLargeError(
            f"folded vector over {width} live qudits, q^(4w) = {q}^{4 * width}, exceeds cap {MAX_TWIRL_ELEMENTS}"
        )
    targeted = target.qudits(n)
    if channel is not None:
        check_channel_dim(channel, q)

    rho_sup, adj_sup = _pair_superops(channel, q)
    down, up, first = _gate_maps(q, rho_sup, adj_sup)
    zero2 = np.zeros((q, q))
    zero2[0, 0] = 1.0
    s_cap = _pair_vectors(q)[1].ravel()
    v = np.ones(1, dtype=np.result_type(down, up, first))
    live: list[int] = []
    rewound = layout.rewound_ids
    # A qudit no gate touches would contribute <<s|block>> = 1 for either
    # block, so only touched qudits enter the vector.
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            if first_gate[a] == k:
                pos = bisect_left(live, a)
                live.insert(pos, a)
                block = np.multiply.outer(zero2, zero2 if a in targeted else np.eye(q)).reshape(-1, 1)
                v = (v.reshape(q ** (4 * pos), 1, -1) * block).reshape(-1)
        # For a rewound gate the partner slot's channel acts below the node
        # on the projector-side copies (adjoint channel), the forward slot's
        # channel above it on the rho-side copies.
        pos = live.index(slot.qudits[0])
        if live.index(slot.qudits[1]) != pos + 1:
            raise InvalidShapeError(f"gate on qudits {slot.qudits} is not adjacent among the live qudits {live}")
        pre = q ** (4 * pos)
        if slot.gate_id in rewound:
            v = _apply(up, _apply(down, v, pre), pre)
        else:
            v = _apply_first_moment(v, first, q, pre)
        for a in slot.qudits:
            if last_gate[a] == k:
                pos = live.index(a)
                del live[pos]
                v = (s_cap @ v.reshape(q ** (4 * pos), q**4, -1)).reshape(-1)

    value = complex(v.item())
    if abs(value.imag) > 1e-10:
        raise ArithmeticError(f"twirl contraction returned complex value {value}")
    return FidelityResult(value=float(value.real), method="twirl")


# -- Monte Carlo ---------------------------------------------------------


def _folded_superop(mats: np.ndarray, q: int) -> np.ndarray:
    """rho -> E rho E^dag for each two-qudit E in ``mats`` (..., q^2, q^2), as
    a (..., q^4, q^4) matrix on folded (ket_a, bra_a, ket_b, bra_b) blocks."""
    lead = mats.shape[:-2]
    ket = mats.reshape(lead + (q, 1) * 4)
    bra = mats.conj().reshape(lead + (1, q) * 4)
    return (ket * bra).reshape(lead + (q**4, q**4))


def _run_batch(
    layout: GateLayout,
    targeted: frozenset[int],
    rng: np.random.Generator,
    count: int,
    channel: "KrausChannel | None" = None,
) -> np.ndarray:
    """Fidelities of ``count`` independent Haar draws of the protocol.

    Each qudit holds D amplitudes: D = q for a state vector, D = q^2 for a
    density matrix folded with the qudit's (ket, bra) pair adjacent, whose
    |0><0| is entry 0 as |0> is.  The samples form a (count, D, ..., D)
    tensor; a qudit joins it in entry 0 at its first gate as a new last
    axis, and ``order`` lists the qudit on each axis.  Each slot is one
    batched matmul by U, or with a channel by S (U x U*), S the channel on
    the slot's two qudits.  If the two qudits are adjacent in ``order`` and
    at its front or back, it acts on the (count, pre, D^2, post) view with
    pre or post 1 and copies nothing.  Otherwise one copy moves both to the
    front, and each sample is one gemm on the (count, D^2, rest) view.  The
    readout indexes the axes in ``order``.  Samples run in sub-batches of at
    most ``_MC_BATCH_ELEMENTS`` vector or slot-matrix elements each.
    """
    n, q = layout.n, layout.q
    gates = {gid: _haar_batch(q * q, count, rng) for gid in sorted({s.gate_id for s in layout.slots})}
    dim = q if channel is None else q * q
    if channel is not None:
        ops = channel.operators
        if channel.arity == 1:
            ops = [np.kron(ea, eb) for ea in ops for eb in ops]
        sup = _folded_superop(np.stack(ops), q).sum(axis=0)

    out = np.empty(count)
    step = max(1, _MC_BATCH_ELEMENTS // max(dim**n, dim**4))
    for lo in range(0, count, step):
        size = min(step, count - lo)
        v = np.ones(size, dtype=complex)
        order: list[int] = []  # the qudit on each axis of v after the sample axis

        def join(v: np.ndarray, a: int) -> np.ndarray:
            order.append(a)
            grown = np.zeros(v.shape + (dim,), dtype=complex)
            grown[..., 0] = v
            return grown

        for slot in layout.slots:
            for a in slot.qudits:
                if a not in order:
                    v = join(v, a)
            mat = gates[slot.gate_id][lo : lo + size]
            if slot.dagger:
                mat = mat.conj().transpose(0, 2, 1)
            if channel is not None:
                mat = np.matmul(sup, _folded_superop(mat, q))
            i, j = (order.index(a) for a in slot.qudits)
            if j == i + 1 and (i == 0 or j == len(order) - 1):
                v = np.matmul(mat[:, None], v.reshape(size, dim**i, dim * dim, -1))
                continue
            # The one copy: both qudits to the front.  v is rebound before the
            # matmul, so the old buffer is freed and two sample vectors are live.
            v = np.moveaxis(v.reshape((size,) + (dim,) * len(order)), (1 + i, 1 + j), (1, 2))
            v = v.reshape(size, dim * dim, -1)
            order = [*slot.qudits, *(a for a in order if a not in slot.qudits)]
            v = np.matmul(mat, v)
        for a in range(1, n + 1):
            if a not in order:
                v = join(v, a)
        v = v.reshape(size, dim**n)

        if channel is not None:
            # the ket = bra entries, with every targeted qudit in |0><0|
            mask = reduce(np.kron, [np.eye(q * q)[0] if a in targeted else np.eye(q).ravel() for a in order])
            out[lo : lo + size] = (v @ mask).real
            continue
        norms = np.abs(np.einsum("bi,bi->b", v.conj(), v))
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ArithmeticError("statevector norm drifted beyond 1e-9")
        kept = (slice(None),) + tuple(0 if a in targeted else slice(None) for a in order)
        proj = v.reshape((size,) + (q,) * n)[kept].reshape(size, -1)
        out[lo : lo + size] = np.einsum("bi,bi->b", proj.conj(), proj).real
    return out


def mc_average_fidelity(
    layout: GateLayout,
    target: RecycleTarget,
    channel: "KrausChannel | None" = None,
    samples: int = 10_000,
    rng: SeededRng | int = 0,
) -> FidelityResult:
    """Monte-Carlo estimate of the averaged fidelity.

    Noiseless samples are state vectors, noisy ones folded density
    matrices (see :func:`_run_batch`); either is refused before any
    allocation past ``MAX_MC_ELEMENTS`` elements, q^n or q^(2n).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(rng, int):
        rng = SeededRng(rng)
    targeted = target.qudits(layout.n)
    if channel is not None:
        check_channel_dim(channel, layout.q)
    elements = layout.q ** (layout.n if channel is None else 2 * layout.n)
    if elements > MAX_MC_ELEMENTS:
        raise TooLargeError(f"sample vector of {elements} elements exceeds cap {MAX_MC_ELEMENTS}")

    plan = []
    pos = 0
    while pos < samples:
        count = min(MC_CHUNK, samples - pos)
        plan.append((len(plan), count))
        pos += count

    def run_chunk(job):
        index, count = job
        return _run_batch(layout, targeted, rng.chunk_rng(index), count, channel)

    values = np.concatenate(map_chunks(run_chunk, plan))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else float("nan")
    return FidelityResult(value=mean, method="mc", stderr=stderr)
