"""Spin-lattice mapping of the averaged protocol and its evaluators.

After Haar-averaging, every rewound gate carries a permutation spin from
S2 = {ONE, S}: the module constants ``ONE = 0`` (identity) and ``S = 1``
(swap), plain ints in every leg, table key and frontier key.  Non-rewound
gates, the circuit input and the final contraction act as fixed
boundaries.  The averaged fidelity becomes a partition sum over spin
configurations with one trivalent weight table per node,
:meth:`TrivalentRule.table`.  Each upward leg carries its own
dressing p: beta on a free (gate-to-gate) leg, alpha on a fixed one (to
the fidelity cap or a non-rewound gate), and 1 on every leg without
noise.  A leg fixed at ONE never reads its p.  With d4 = q^4 - 1, leg
spins (e1, e2) and own spin tau:

    (e1, e2)       tau = ONE                tau = S
    (ONE, ONE)     1                        0
    (ONE, S)       q (q^2 - p2) / d4        q (p2 q^2 - 1) / d4
    (S, ONE)       q (q^2 - p1) / d4        q (p1 q^2 - 1) / d4
    (S, S)         q^2 (1 - p1 p2) / d4     (p1 p2 q^4 - 1) / d4

times the node's input-wire factors.  Without noise an entry is 1 when
all three spins agree, q/(1+q^2) when the two leg spins differ, and 0
when they agree and the own spin does not.

:func:`lattice_from_circuit` builds the lattice directly from a gate
layout by walking each qudit's wire upward, and three evaluators read
the one table:

* :func:`partition_sum_exhaustive` -- the sum over all assignments,
  contracted node by node from the top over a frontier of pending spins,
* :func:`single_wall_fidelity` -- sum over the single-domain-wall
  configurations only (every nonzero-weight noiseless configuration),
  found by its own pruned search,
* :func:`transfer_fidelity` -- 2x2 product for the convolutional chain,
  whose nodes are the table's (new, S, old) entries with their input
  wires in them; valid with or without noise.

Boundary bookkeeping (exact, derived from the folded four-copy picture):
the lattice holds only its graph, and every weight is the rule's.  A
node's upward leg ends at a free node or at a fixed spin: S for the
fidelity cap, ONE for a non-rewound gate.  A node's input wire from
below is "kept" or "recycled"; the table weighs it (q, 1) at
(ONE, S) when kept and by the recycled boundary, (1, 1) without noise,
when recycled.  With noise that boundary is dressed by the adjoint
channel acting right before the measurement.  A non-rewound gate leaves
its wires kept, and each node leg or recycled wire ending in it
multiplies the lattice's ``global_const`` by 1/q.  Kept and recycled
wires contract to 1 against the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from rewindlab.circuits import GateLayout, RecycleTarget
from rewindlab.errors import (
    InvalidParameterError,
    InvalidShapeError,
    TooLargeError,
    UnsupportedFamilyError,
    UnsupportedRegimeError,
)
from rewindlab.result import FidelityResult

ONE, S = 0, 1

# Largest frontier partition_sum_exhaustive builds; see its docstring.
FRONTIER_STATE_CAP = 1 << 16

# Most configurations enumerate_support lists before it refuses.
SUPPORT_CAP = 1 << 16


@dataclass(frozen=True)
class TrivalentRule:
    """Node-weight table of the averaged (second-moment) gates.

    ``alpha`` dresses fixed legs, ``beta`` free (gate-to-gate) legs, and
    ``recycled_boundary`` is the overlap of the projected-qudit input
    with (ONE, S) once the adjoint channel dresses it.  All default to 1,
    which gives the noiseless table exactly.
    """

    q: int
    alpha: float | Fraction = 1
    beta: float | Fraction = 1
    recycled_boundary: tuple = (1, 1)

    def __post_init__(self):
        # both are overlaps of a trace-preserving channel; NaN fails the test too
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) <= 1:
                raise InvalidParameterError(f"{name} = {getattr(self, name)} is outside [0, 1]")

    @property
    def noisy(self) -> bool:
        return not (self.alpha == 1 and self.beta == 1 and tuple(self.recycled_boundary) == (1, 1))

    def table(self, node: LatticeNode) -> dict:
        """Weights of ``node`` keyed by (own spin, leg-1 spin, leg-2 spin).

        A free leg carries ``beta`` and a fixed leg ``alpha``; a leg fixed
        at ONE never reads its dressing.  Input wires multiply the entries
        at (ONE, S) by (q, 1) when kept and by ``recycled_boundary`` when
        recycled.  The entries are exact when every parameter is exact.
        """
        q = self.q
        d4 = q**4 - 1
        leg1, leg2 = node.legs
        p1 = self.alpha if leg1.ref is None else self.beta
        p2 = self.alpha if leg2.ref is None else self.beta
        at_one = at_s = 1
        for kind in node.bottoms:
            one, s = self.recycled_boundary if kind == "recycled" else (q, 1)
            at_one, at_s = at_one * one, at_s * s
        out = {}
        for e1 in (0, 1) if leg1.eff is None else (leg1.eff,):
            for e2 in (0, 1) if leg2.eff is None else (leg2.eff,):
                if e1 and e2:
                    p = p1 * p2
                    w_one, w_s = _ratio(q * q * (1 - p), d4), _ratio(p * q**4 - 1, d4)
                elif e1 or e2:
                    p = p1 if e1 else p2  # the dressing of the leg that carries S
                    w_one, w_s = _ratio(q * (q * q - p), d4), _ratio(q * (p * q * q - 1), d4)
                else:
                    w_one, w_s = 1, 0
                out[0, e1, e2] = w_one * at_one
                out[1, e1, e2] = w_s * at_s
        return out


def _ratio(num, den):
    return num / den if isinstance(num, float) else Fraction(num, den)


# -- lattice construction --------------------------------------------------


@dataclass
class LatticeLeg:
    """Upward wire of a free node.

    ``ref`` points at the absorbing free node (spin resolved per
    configuration); otherwise ``eff`` is the fixed absorber spin: S for
    the fidelity cap, ONE for a non-rewound gate.
    """

    ref: int | None
    eff: int | None


@dataclass
class LatticeNode:
    index: int
    qudits: tuple[int, int]
    coords: tuple[int, int]  # (repeat index of this gate position, left qudit)
    legs: list[LatticeLeg] = field(default_factory=list)
    bottoms: list[str] = field(default_factory=list)  # input wires: "kept" | "recycled"


@dataclass
class DiagramLattice:
    """Free spin nodes plus the constant factor of one protocol instance."""

    q: int
    n: int
    nodes: list[LatticeNode]
    global_const: Fraction
    # recycled wires whose first gate is not rewound: the lattice has no
    # node to carry their dressed boundary
    undressed: int

    @property
    def free_node_count(self) -> int:
        return len(self.nodes)


def lattice_from_circuit(layout: GateLayout, target: RecycleTarget) -> DiagramLattice:
    """Map a rewound layout to its spin lattice by walking qudit wires."""
    if not layout.has_rewinding:
        raise UnsupportedFamilyError("layout has no rewound gates; apply_rewinding first")
    n, q = layout.n, layout.q
    targeted = target.qudits(n)
    rewound = layout.rewound_ids

    nodes: list[LatticeNode] = []
    # a wire carries the index of the node it left, or its input kind
    carried: dict[int, int | str] = {w: ("recycled" if w in targeted else "kept") for w in range(1, n + 1)}
    global_const = Fraction(1)
    undressed = 0
    seen_pairs: dict[tuple[int, int], int] = {}

    for slot in layout.forward_slots:
        pair = slot.qudits
        repeat = seen_pairs.get(pair, 0)
        seen_pairs[pair] = repeat + 1
        if slot.gate_id in rewound:
            node = LatticeNode(index=len(nodes), qudits=pair, coords=(repeat, pair[0]))
            for w in pair:
                st = carried[w]
                if isinstance(st, int):
                    nodes[st].legs.append(LatticeLeg(ref=node.index, eff=None))
                else:
                    node.bottoms.append(st)
                carried[w] = node.index
            nodes.append(node)
        else:
            # a non-rewound gate fixes ONE on its wires and leaves them kept;
            # each node leg and each recycled wire ending in it costs 1/q
            for w in pair:
                st = carried[w]
                if isinstance(st, int):
                    nodes[st].legs.append(LatticeLeg(ref=None, eff=ONE))
                elif st == "recycled":
                    undressed += 1
                if st != "kept":
                    global_const /= q
                carried[w] = "kept"

    # kept and recycled wires contract to 1 against the S cap
    for w in range(1, n + 1):
        if isinstance(carried[w], int):
            nodes[carried[w]].legs.append(LatticeLeg(ref=None, eff=S))

    for nd in nodes:
        if len(nd.legs) != 2:
            raise UnsupportedFamilyError(
                f"node {nd.index} on {nd.qudits} has {len(nd.legs)} upward legs; cannot map this layout"
            )

    return DiagramLattice(q=q, n=n, nodes=nodes, global_const=global_const, undressed=undressed)


# -- evaluators ------------------------------------------------------------


def partition_sum_exhaustive(lattice: DiagramLattice, rule: TrivalentRule | None = None) -> FidelityResult:
    """Averaged fidelity as the full configuration sum, by variable elimination.

    Nodes are summed top-down (descending index, the order of
    :func:`enumerate_support`), so a node's upward legs are resolved when
    it is reached.  The frontier maps the spins of summed nodes that a
    lower node still reads to the total weight above them.  Each node
    multiplies in its table entry, skips zero entries, drops every spin it
    is the lowest reader of, and keeps its own spin only if a lower node
    reads it.  Noiseless sums are exact Fractions, noisy ones float64.

    A frontier of more than ``FRONTIER_STATE_CAP`` = 2^16 states raises
    :class:`TooLargeError`.  After node j is summed, the frontier holds
    spins of the g - j summed nodes that the j lower nodes (two legs each)
    still read: at most min(g - j, 2j) <= 2g/3 spins.  The cap therefore
    refuses no lattice of up to 24 nodes, the most a 2^g enumeration
    takes, even with noise, which lifts the trivalent zeros that prune
    the frontier; noiseless frontiers stay near n states.  A dressed recycled boundary on a lattice with
    undressed recycled wires raises :class:`UnsupportedRegimeError`: the
    sum would leave that boundary out and return a wrong number.  A rule
    for another q raises :class:`InvalidParameterError`.
    """
    if rule is not None and rule.q != lattice.q:
        raise InvalidParameterError(f"rule is for q={rule.q} but the lattice has q={lattice.q}")
    if rule is None or not rule.noisy:
        rule = TrivalentRule(lattice.q)  # exact, even if the given rule holds float ones
    if lattice.undressed and tuple(rule.recycled_boundary) != (1, 1):
        raise UnsupportedRegimeError(
            f"{lattice.undressed} recycled wire(s) first meet a non-rewound gate; "
            "their dressed boundary is not modelled"
        )
    cast = float if rule.noisy else Fraction
    lowest_reader: dict[int, int] = {}
    for node in reversed(lattice.nodes):
        for leg in node.legs:
            if leg.ref is not None:
                lowest_reader[leg.ref] = node.index

    # frontier keys are bitmasks over node indices
    frontier = {0: cast(1)}
    for node in reversed(lattice.nodes):
        j = node.index
        table = rule.table(node)
        own = 1 << j if j in lowest_reader else 0
        done = {leg.ref for leg in node.legs if leg.ref is not None and lowest_reader[leg.ref] == j}
        keep = ~sum(1 << ref for ref in done)
        # nonzero (own-spin bit, weight) pairs per resolved (leg-1, leg-2) spins
        entries = {(e1, e2): [] for _, e1, e2 in table}
        for (tau, e1, e2), f in table.items():
            if f != 0:
                entries[e1, e2].append((own * tau, cast(f)))
        leg1, leg2 = node.legs
        summed: dict = {}
        for key, w in frontier.items():
            e1 = leg1.eff if leg1.ref is None else key >> leg1.ref & 1
            e2 = leg2.eff if leg2.ref is None else key >> leg2.ref & 1
            rest = key & keep
            for bit, f in entries[e1, e2]:
                summed[rest | bit] = summed.get(rest | bit, 0) + w * f
        if len(summed) > FRONTIER_STATE_CAP:
            raise TooLargeError(f"frontier of {len(summed)} states at node {j} exceeds cap {FRONTIER_STATE_CAP}")
        frontier = summed
    total = sum(frontier.values(), cast(0))
    return FidelityResult(value=total * cast(lattice.global_const), method="sum")


def enumerate_support(lattice: DiagramLattice):
    """All spin assignments with nonzero weight, found by pruned search.

    Nodes are assigned from the last (topmost) down so each node's upward
    legs are already resolved when its local factor is checked; a zero
    factor prunes the whole branch.  Every surviving configuration is a
    single-domain-wall state.  A support of more than ``SUPPORT_CAP``
    configurations raises :class:`TooLargeError` as the list would pass it.
    """
    rule = TrivalentRule(lattice.q)
    tables = [rule.table(node) for node in lattice.nodes]
    order = list(range(len(lattice.nodes) - 1, -1, -1))
    spins = [0] * len(lattice.nodes)
    found: list[tuple[tuple[int, ...], Fraction]] = []

    def factor(i: int) -> Fraction:
        leg1, leg2 = lattice.nodes[i].legs
        e1 = leg1.eff if leg1.ref is None else spins[leg1.ref]
        e2 = leg2.eff if leg2.ref is None else spins[leg2.ref]
        return tables[i][(spins[i], e1, e2)]

    def dfs(pos: int, weight: Fraction):
        if pos == len(order):
            if len(found) == SUPPORT_CAP:
                raise TooLargeError(f"single-wall support of more than {SUPPORT_CAP} configurations exceeds the cap")
            found.append((tuple(spins), weight))
            return
        i = order[pos]
        for val in (0, 1):
            spins[i] = val
            f = factor(i)
            if f != 0:
                dfs(pos + 1, weight * f)
        spins[i] = 0

    dfs(0, Fraction(1))
    return found


def single_wall_fidelity(lattice: DiagramLattice) -> FidelityResult:
    """Sum of all weighted single-domain-wall configurations.

    Valid only for the noiseless model, where the nonzero-weight
    configurations are exactly the single-wall ones; equals the exhaustive
    partition sum there.  With noise multiple walls carry weight once the
    trivalent zeros are lifted, so there is no noisy variant.
    """
    total = Fraction(0)
    for _, w in enumerate_support(lattice):
        total += w
    return FidelityResult(value=total * lattice.global_const, method="wall")


# -- transfer matrices -----------------------------------------------------


_CHAIN_LEGS = (LatticeLeg(ref=None, eff=S), LatticeLeg(ref=0, eff=None))


def _chain_node(rule: TrivalentRule, bottoms: tuple[str, ...]) -> list[list]:
    """Chain node ``[new][old]`` of the convolutional transfer product.

    One gate of the chain: leg 1 goes to the fidelity cap (fixed at S,
    alpha), leg 2 to the next chain node (free, beta), and ``bottoms``
    are its input wires.  These are the rule's table entries
    (new, S, old).  With one kept input wire the node has the eigenvalue
    1, with left eigenvector (q, 1), and the subleading eigenvalue
    alpha q^2 (beta q^2 - 1)/(q^4 - 1), which is q^2/(q^2+1) without
    noise.
    """
    table = rule.table(LatticeNode(index=0, qudits=(1, 2), coords=(0, 1), legs=_CHAIN_LEGS, bottoms=bottoms))
    return [[table[0, 1, 0], table[0, 1, 1]], [table[1, 1, 0], table[1, 1, 1]]]


def transfer_fidelity(
    q: int,
    n: int,
    target: RecycleTarget,
    alpha: float | Fraction = 1,
    beta: float | Fraction = 1,
    recycled_boundary: tuple = (1, 1),
) -> FidelityResult:
    """Convolutional-chain fidelity as a product of 2x2 node matrices.

    Node j of the chain (gate (j, j+1), j = 1..n-2) maps the spin of node
    j+1 to its own through :func:`_chain_node`, with its input wires in
    it: qudits 1 and 2 for node 1, qudit j+1 for node j > 1.  The top
    node's chain leg enters the non-rewound gate (n-1, n), so it starts
    at ONE and costs 1/q.  ``recycled_boundary`` dresses the
    projected-qudit boundary when the adjoint channel acts right before
    the measurement; (1, 1) is the noiseless value.  The value is exact
    when every parameter is.
    """
    if n < 3:
        raise InvalidShapeError("chain needs n >= 3")
    rule = TrivalentRule(q, alpha, beta, tuple(recycled_boundary))
    targeted = target.qudits(n)
    kind = ["recycled" if w in targeted else "kept" for w in range(n)]
    # input wires per node, from the top node down to node 1
    chain = [(kind[w],) for w in range(n - 1, 2, -1)] + [(kind[1], kind[2])]
    nodes = {bottoms: _chain_node(rule, bottoms) for bottoms in set(chain)}
    one, s = 1, 0
    for (a, b), (c, d) in map(nodes.get, chain):
        one, s = a * one + b * s, c * one + d * s
    return FidelityResult(value=(one + s) / q, method="transfer")
