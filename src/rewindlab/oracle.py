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
order, in index order.  Each rewound gate contributes

    sum_{sigma,tau} Wg(sigma tau^-1, d) |sigma>><<tau|      (d = q^2)

applied jointly to all four copies of its two qudits, which is the Haar
average of U x U* x U x U*.  Non-rewound gates contribute the first moment
(1/d)|Phi>><<Phi| on the (c1, c2) copies alone, and their channels act
there too.  So a qudit that no rewound gate touches (qudit n in every
family) only ever sees (c1, c2): it carries those, q^2 entries, and its
(c3, c4) block stays as it started, |0><0| or I, until its cap contracts
it with the S pairing.  Every other live qudit carries q^4 entries.  The
vector's size is the product of the live blocks: q^(4w) for w live
qudits, divided by q^2 for each that carries (c1, c2) alone.  The peak
live width w is 2 for a convolutional sweep and m + 1 for m hybrid sweeps
at every n.

A gate (a, b) must act on qudits adjacent among the live ones: b follows
a in the live index order, and no qudit between them is live.  So the
folded vector is kept flat and each gate is applied on a view of it,
pre the product of the block sizes of the live qudits before a; a gate
whose qudits are not so adjacent is refused.  A rewound gate touches two
q^4 blocks: on the (pre, q^8, post) view, a second moment has rank 2, one
matmul projects the q^8 block onto the two pairing states and one writes
the Weingarten-mixed pair back.  A first moment sums the (c1, c2)
diagonals on the (pre, q^2, r_a, q^2, rest) view, r_a = q^2 or 1 as a
carries (c3, c4) or not, and writes one outer product.  Channels act
inside the same blocks, so they are folded into these small per-gate maps
once and cost no pass over the vector.  Each gate thus reads the vector
once and writes one new one: the peak is about two folded vectors of the
peak size.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from rewindlab.circuits import GateLayout, GateSlot, RecycleTarget
from rewindlab.errors import InvalidParameterError, InvalidShapeError, TooLargeError
from rewindlab.parallel import map_chunks
from rewindlab.result import FidelityResult

if TYPE_CHECKING:
    from rewindlab.noise import KrausChannel

# Memory cap for the folded vector: the largest product of live block
# sizes in the narrow order, q^4 per live qudit and q^2 for one that no
# rewound gate touches.  At any n, conv sweeps peak at q^8 and hybrid at
# q^(4(m + 1)) (w = m + 1 qudits, at most n).  Deep local brickwork keeps
# w = n - 1 or n, qudit n among them: local n=8 peaks at 2^26 for m = 6
# (six q^4 blocks and qudit 8) and 2^30 for m = 8.
MAX_TWIRL_ELEMENTS = 1 << 26

# Largest Monte-Carlo sample vector: D^n elements, D = q for a state
# vector and q^2 for a folded density matrix (so q^n <= 2^10 with noise).
MAX_MC_ELEMENTS = 1 << 20

# Elements per sub-batch of Monte-Carlo samples (sample vectors or slot
# matrices, whichever is larger).
_MC_BATCH_ELEMENTS = 1 << 20

# Monte-Carlo samples per seeded chunk: chunk c draws from the generator
# seeded by SeedSequence(seed, spawn_key=(c,)) (see mc_average_fidelity).
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


def check_channel_dim(channel: "KrausChannel", q: int) -> None:
    """Refuse a channel whose qudit dimension is not the circuit's q."""
    if channel.qudit_dim() != q:
        raise InvalidParameterError(f"channel acts on qudits of dimension {channel.qudit_dim()}, circuit has q={q}")


# -- exact twirl ---------------------------------------------------------


def _pair_vectors(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-qudit four-copy pairing states of the two permutations, as (d, d)
    blocks, d = q^2: rows the (c1, c2) copies, columns the (c3, c4) copies."""
    eye = np.eye(q)
    one = np.einsum("ij,kl->ijkl", eye, eye)  # pairs (c1,c2)(c3,c4)
    s = np.einsum("il,jk->ijkl", eye, eye)  # pairs (c1,c4)(c2,c3)
    return one.reshape(q * q, q * q), s.reshape(q * q, q * q)


def _copy_maps(channel: "KrausChannel", q: int) -> tuple[np.ndarray, np.ndarray]:
    """(rho-side, proj-side) maps of the channel on (ket, bra) copy pairs.

    rho side: rho -> sum_k E rho E^dag; proj side is the adjoint channel
    O -> sum_k E^dag O E.  An arity-1 channel gives one (d, d) matrix,
    d = q^2, that acts on each qudit's copy pair alone; an arity-2 channel
    a (d, d, d, d) pair tensor with legs (a_out, b_out, a_in, b_in).  Maps
    are real whenever possible (e.g. Pauli channels) so the float64 path
    can be kept.
    """
    d = q * q
    ops = np.stack(channel.operators)
    sup = np.einsum("kac,kbd->abcd", ops, ops.conj())  # ((ket, bra) out, (ket, bra) in)
    sup = sup.real if np.abs(sup.imag).max() < 1e-14 else sup
    # the adjoint channel's tensor is the conjugate with in and out legs swapped
    adj = sup.transpose(2, 3, 0, 1).conj()
    if channel.arity == 1:
        return sup.reshape(d, d), adj.reshape(d, d)
    # legs (ket_ab, bra_ab) out and in -> ((ket_a, bra_a), (ket_b, bra_b))
    return tuple(t.reshape((q,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d, d, d, d) for t in (sup, adj))


def _gate_maps(q: int, channel: "KrausChannel | None"):
    """Per-gate maps with the slot channels folded in.

    A rewound gate is K_rho P^T W P K_adj on its q^8 pair block: P (2 x q^8)
    projects onto the pairing states one x one and s x s, W mixes them with
    the Weingarten weights.  Returned as ``down`` = P K_adj and ``up`` =
    K_rho P^T W.  A gate applied once is (1/d) K_rho |Phi Phi>><<Phi Phi| on
    the (c1, c2) copies; ``first`` = K_rho|Phi Phi>> / d as a (d, d) matrix.
    Without a channel K is the identity; an arity-1 channel dresses each
    qudit's block by its own (d, d) map, an arity-2 one the pair block.
    """
    d = q * q
    one, s = _pair_vectors(q)
    phi = np.eye(q).ravel()
    if channel is None:
        rows = cols = [np.multiply.outer(t, t) for t in (one, s)]
        first = np.multiply.outer(phi, phi)
    elif channel.arity == 1:
        rho, adj = _copy_maps(channel, q)
        rows = [np.multiply.outer(t @ adj, t @ adj) for t in (one, s)]
        cols = [np.multiply.outer(rho @ t, rho @ t) for t in (one, s)]
        first = np.multiply.outer(rho @ phi, rho @ phi)
    else:
        # pair blocks have legs (a_rho, a_proj, b_rho, b_proj)
        rho, adj = _copy_maps(channel, q)
        pairs = [np.multiply.outer(t, t) for t in (one, s)]
        rows = [np.tensordot(p, adj, axes=([1, 3], [0, 1])).transpose(0, 2, 1, 3) for p in pairs]
        cols = [np.tensordot(rho, p, axes=([2, 3], [0, 2])).transpose(0, 2, 1, 3) for p in pairs]
        first = rho.reshape(d * d, d * d) @ np.multiply.outer(phi, phi).ravel()
    wg_e, wg_t = weingarten_pair(d)
    down = np.stack([r.ravel() for r in rows])
    up = np.stack([c.ravel() for c in cols], axis=1) @ np.array([[wg_e, wg_t], [wg_t, wg_e]])
    return down, up, first.reshape(d, d) / d


def _join(v: np.ndarray, pre: int, q: int, full: bool, targeted: bool) -> np.ndarray:
    """``v`` with a joining qudit's initial block between its first ``pre``
    entries' axis and the rest.

    The block is |0><0| on (c1, c2), times |0><0| (targeted) or I on
    (c3, c4) if the qudit carries them.  Its entries are 0 or 1, so the new
    vector is zeros with ``v`` copied to the q or fewer unit entries.
    """
    units = range(0, q * q, q + 1) if full and not targeted else [0]
    out = np.zeros((pre, q**4 if full else q * q, v.size // pre), dtype=v.dtype)
    for i in units:
        out[:, i] = v.reshape(pre, -1)
    return out.reshape(-1)


def _apply(mat: np.ndarray, v: np.ndarray, pre: int) -> np.ndarray:
    """``mat`` on the middle axis of the (pre, mat columns, rest) view of flat ``v``."""
    return np.matmul(mat, v.reshape(pre, mat.shape[1], -1)).reshape(-1)


def _apply_first_moment(v: np.ndarray, first: np.ndarray, q: int, pre: int, r_a: int) -> np.ndarray:
    """Sum the (c1, c2) diagonals of a qudit pair, write ``first`` in their place.

    ``v`` is viewed as (pre, q^2, r_a, q^2, rest): the first qudit's (c1, c2),
    its (c3, c4) if it carries them (r_a = q^2, else 1), then the second
    qudit's (c1, c2).  The outer product of ``first`` with the traced
    (pre, r_a, rest) block is one batched matmul of rank-1 products, over
    (pre, q^2) when rest is 1 (the second qudit is qudit n in every family),
    else over (pre, q^2, r_a); unlike a broadcast product, it allocates
    nothing beyond its output.
    """
    d = q * q
    x = v.reshape(pre, d, r_a, d, -1)
    diag = range(0, d, q + 1)
    traced = sum(x[:, i, :, j] for i in diag for j in diag)
    if traced.shape[2] == 1:
        out = np.matmul(traced.reshape(pre, 1, r_a, 1), first.reshape(1, d, 1, d))
    else:
        out = np.matmul(first.reshape(1, d, 1, d, 1), traced[:, None, :, None, :])
    return out.reshape(-1)


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
    and last gate, each as a block of q^4 elements, or q^2 for a qudit no
    rewound gate touches; ``MAX_TWIRL_ELEMENTS`` caps the product of the
    live blocks at its largest.  A gate whose two qudits are not adjacent,
    in index order, among the live qudits raises :class:`InvalidShapeError`.
    """
    n, q = layout.n, layout.q
    slots = _narrow_order(layout.forward_slots)
    rewound = layout.rewound_ids
    first_gate = [-1] * (n + 1)
    last_gate = [-1] * (n + 1)
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            if first_gate[a] < 0:
                first_gate[a] = k
            last_gate[a] = k
    # A qudit that a rewound gate touches carries all four copies, q^4
    # entries.  On any other only first moments and their channels act, on
    # (c1, c2) alone, so it carries those two, q^2 entries, and its (c3, c4)
    # block stays as it started.
    size = [q * q] * (n + 1)
    for slot in slots:
        if slot.gate_id in rewound:
            for a in slot.qudits:
                size[a] = q**4
    elements, width, peak = 1, 0, (1, 0)
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            if first_gate[a] == k:
                elements, width = elements * size[a], width + 1
        peak = max(peak, (elements, width))
        for a in slot.qudits:
            if last_gate[a] == k:
                elements, width = elements // size[a], width - 1
    if peak[0] > MAX_TWIRL_ELEMENTS:
        raise TooLargeError(
            f"folded vector over {peak[1]} live qudits, {peak[0]} elements, exceeds cap {MAX_TWIRL_ELEMENTS}"
        )
    targeted = target.qudits(n)
    if channel is not None:
        check_channel_dim(channel, q)

    down, up, first = _gate_maps(q, channel)
    s_cap = _pair_vectors(q)[1].ravel()
    v = np.ones(1, dtype=np.result_type(down, up, first))
    live: list[int] = []

    def before(pos: int) -> int:
        return prod(size[a] for a in live[:pos])

    # A qudit no gate touches would contribute <<s|block>> = 1 for either
    # block, so only touched qudits enter the vector.
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            if first_gate[a] == k:
                pos = bisect_left(live, a)
                v = _join(v, before(pos), q, size[a] == q**4, a in targeted)
                live.insert(pos, a)
        # For a rewound gate the partner slot's channel acts below the node
        # on the projector-side copies (adjoint channel), the forward slot's
        # channel above it on the rho-side copies.
        pos = live.index(slot.qudits[0])
        if live.index(slot.qudits[1]) != pos + 1:
            raise InvalidShapeError(f"gate on qudits {slot.qudits} is not adjacent among the live qudits {live}")
        pre = before(pos)
        if slot.gate_id in rewound:
            v = _apply(up, _apply(down, v, pre), pre)
        else:
            v = _apply_first_moment(v, first, q, pre, size[slot.qudits[0]] // (q * q))
        for a in slot.qudits:
            if last_gate[a] == k:
                pos = live.index(a)
                # the S pairing: in full, or against the (c3, c4) block
                # |0><0| or I the qudit started with
                cap = s_cap if size[a] == q**4 else np.eye(q * q)[0] if a in targeted else np.eye(q).ravel()
                v = (cap @ v.reshape(before(pos), size[a], -1)).reshape(-1)
                del live[pos]

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
    readout indexes the axes in ``order``.  A qudit that no gate touches
    never joins: it stays in |0>, or |0><0|, and contributes 1.  Samples
    run in sub-batches of at most ``_MC_BATCH_ELEMENTS`` vector or
    slot-matrix elements each.
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
        v = v.reshape(size, -1)

        if channel is not None:
            # the ket = bra entries, with every targeted qudit in |0><0|
            mask = reduce(np.kron, [np.eye(q * q)[0] if a in targeted else np.eye(q).ravel() for a in order])
            out[lo : lo + size] = (v @ mask).real
            continue
        norms = np.abs(np.einsum("bi,bi->b", v.conj(), v))
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ArithmeticError("statevector norm drifted beyond 1e-9")
        kept = (slice(None),) + tuple(0 if a in targeted else slice(None) for a in order)
        proj = v.reshape((size,) + (q,) * len(order))[kept].reshape(size, -1)
        out[lo : lo + size] = np.einsum("bi,bi->b", proj.conj(), proj).real
    return out


def mc_average_fidelity(
    layout: GateLayout,
    target: RecycleTarget,
    channel: "KrausChannel | None" = None,
    samples: int = 10_000,
    rng: int = 0,
) -> FidelityResult:
    """Monte-Carlo estimate of the averaged fidelity.

    ``rng`` is the master seed.  Samples run in chunks of ``MC_CHUNK``, and
    chunk c draws from ``default_rng(SeedSequence(rng, spawn_key=(c,)))``,
    so the estimate is bit-identical for a given seed however the chunks
    are scheduled.  Noiseless samples are state vectors, noisy ones folded
    density matrices (see :func:`_run_batch`); either is refused before any
    allocation past ``MAX_MC_ELEMENTS`` elements, q^n or q^(2n).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
        chunk_rng = np.random.default_rng(np.random.SeedSequence(rng, spawn_key=(index,)))
        return _run_batch(layout, targeted, chunk_rng, count, channel)

    values = np.concatenate(map_chunks(run_chunk, plan))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / np.sqrt(samples)) if samples > 1 else float("nan")
    return FidelityResult(value=mean, method="mc", stderr=stderr)
