"""Spin-lattice mapping of the averaged protocol and its evaluators.

After Haar-averaging, every rewound gate carries a permutation spin from
S2 = {ONE, S}; non-rewound gates, the circuit input and the final
contraction act as fixed boundaries.  The averaged fidelity becomes a
partition sum over spin configurations with one trivalent weight table
per node, :meth:`TrivalentRule.table`.  Each upward leg carries its own
dressing p: alpha on a leg to the fidelity cap, beta on a gate-to-gate
leg, 1 on a leg into a non-rewound gate (and on every leg without
noise).  With d4 = q^4 - 1, leg spins (e1, e2) and own spin tau:

    (e1, e2)       tau = ONE                tau = S
    (ONE, ONE)     1                        0
    (ONE, S)       q (q^2 - p2) / d4        q (p2 q^2 - 1) / d4
    (S, ONE)       q (q^2 - p1) / d4        q (p1 q^2 - 1) / d4
    (S, S)         q^2 (1 - p1 p2) / d4     (p1 p2 q^4 - 1) / d4

times the legs' constants and the node's boundary factors.  Without
noise an entry is 1 when all three spins agree, q/(1+q^2) when the two
leg spins differ, and 0 when they agree and the own spin does not.

:func:`lattice_from_circuit` builds the lattice directly from a gate
layout by walking each qudit's wire upward, and three evaluators read
the one table:

* :func:`partition_sum_exhaustive` -- the sum over all assignments,
  contracted node by node from the top over a frontier of pending spins,
* :func:`single_wall_fidelity` -- sum over the single-domain-wall
  configurations only (every nonzero-weight noiseless configuration),
  found by its own pruned search,
* :func:`transfer_fidelity` -- 2x2 product for the convolutional chain,
  whose node is the table's (S, old) -> new entries; valid with or
  without noise.

Boundary bookkeeping (exact, derived from the folded four-copy picture):
a wire into a non-rewound gate collapses to the fixed spin ONE and scales
the emitter leg by 1/q^2; the fidelity cap behaves as a fixed S spin; the
circuit input contributes per-node factors (q, 1) for kept qudits and
(1, 1) for recycled ones.  With noise the recycled-qudit input factors
are dressed by the adjoint channel acting right before the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from rewindlab.circuits import GateLayout, RecycleTarget
from rewindlab.errors import InvalidParameterError, TooLargeError, UnsupportedFamilyError, UnsupportedRegimeError
from rewindlab.result import FidelityResult

# Largest frontier partition_sum_exhaustive builds; see its docstring.
FRONTIER_STATE_CAP = 1 << 16


class S2Spin(IntEnum):
    ONE = 0
    S = 1


@dataclass(frozen=True)
class TrivalentRule:
    """Node-weight table of the averaged (second-moment) gates.

    ``alpha`` dresses legs to the fidelity cap, ``beta`` gate-to-gate
    legs, and ``recycled_boundary`` is the overlap of the projected-qudit
    input with (ONE, S) once the adjoint channel dresses it.  All default
    to 1, which gives the noiseless table exactly.
    """

    q: int
    alpha: float | Fraction = 1
    beta: float | Fraction = 1
    recycled_boundary: tuple = (1, 1)

    @property
    def noisy(self) -> bool:
        return not (self.alpha == 1 and self.beta == 1 and tuple(self.recycled_boundary) == (1, 1))

    def table(self, node: LatticeNode) -> dict:
        """Weights of ``node`` keyed by (own spin, leg-1 spin, leg-2 spin).

        A leg with a fixed absorber takes only that absorber's spin.  The
        entries are exact Fractions when every parameter is exact.
        """
        q = self.q
        d4 = q**4 - 1
        leg1, leg2 = node.legs
        dressing = {"none": 1, "alpha": self.alpha, "beta": self.beta}
        p1, p2 = dressing[leg1.dress], dressing[leg2.dress]
        at_one = at_s = leg1.const * leg2.const
        for kind in node.bottoms:
            one, s = self.recycled_boundary if kind == "recycled" else _BOTTOM_FACTORS[kind](q)
            at_one, at_s = at_one * one, at_s * s
        out = {}
        for e1 in (0, 1) if leg1.eff is None else (int(leg1.eff),):
            for e2 in (0, 1) if leg2.eff is None else (int(leg2.eff),):
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
    configuration); otherwise ``eff`` is the fixed absorber spin.  The
    ``dress`` tag marks which noise dressing the wire carries.
    """

    ref: int | None
    eff: S2Spin | None
    const: Fraction
    dress: str  # "none" | "alpha" | "beta"


@dataclass
class LatticeNode:
    index: int
    qudits: tuple[int, int]
    coords: tuple[int, int]  # (repeat index of this gate position, left qudit)
    legs: list[LatticeLeg] = field(default_factory=list)
    bottoms: list[str] = field(default_factory=list)  # "kept" | "recycled" | "fixed_one" | "fixed_one_t"


@dataclass
class DiagramLattice:
    """Free spin nodes plus boundary data for one protocol instance."""

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


_BOTTOM_FACTORS = {
    # kind -> (value at ONE, value at S); recycled wires are dressed separately
    "kept": lambda q: (Fraction(q), Fraction(1)),
    "fixed_one": lambda q: (Fraction(q * q), Fraction(q)),
    "fixed_one_t": lambda q: (Fraction(q), Fraction(1)),
}


def lattice_from_circuit(layout: GateLayout, target: RecycleTarget) -> DiagramLattice:
    """Map a rewound layout to its spin lattice by walking qudit wires."""
    if not layout.has_rewinding:
        raise UnsupportedFamilyError("layout has no rewound gates; apply_rewinding first")
    n, q = layout.n, layout.q
    targeted = target.qudits(n)
    rewound = layout.rewound_ids

    nodes: list[LatticeNode] = []
    carried: dict[int, object] = {
        w: ("recycled" if w in targeted else "bottom") for w in range(1, n + 1)
    }
    global_const = Fraction(1)
    undressed = 0
    seen_pairs: dict[tuple[int, int], int] = {}

    inv_q = Fraction(1, q)
    inv_q2 = Fraction(1, q * q)

    for slot in layout.forward_slots:
        pair = slot.qudits
        repeat = seen_pairs.get(pair, 0)
        seen_pairs[pair] = repeat + 1
        if slot.gate_id in rewound:
            node = LatticeNode(index=len(nodes), qudits=pair, coords=(repeat, pair[0]))
            for w in pair:
                st = carried[w]
                if isinstance(st, int):
                    nodes[st].legs.append(LatticeLeg(ref=node.index, eff=None, const=Fraction(1), dress="beta"))
                elif st == "bottom":
                    node.bottoms.append("kept")
                elif st == "recycled":
                    node.bottoms.append("recycled")
                else:
                    node.bottoms.append(st)  # fixed_one / fixed_one_t
                carried[w] = node.index
            nodes.append(node)
        else:
            for w in pair:
                st = carried[w]
                if isinstance(st, int):
                    nodes[st].legs.append(LatticeLeg(ref=None, eff=S2Spin.ONE, const=inv_q2, dress="none"))
                    carried[w] = "fixed_one"
                elif st == "bottom":
                    global_const *= inv_q
                    carried[w] = "fixed_one"
                elif st == "recycled":
                    global_const *= inv_q
                    carried[w] = "fixed_one_t"
                    undressed += 1
                elif st == "fixed_one":
                    carried[w] = "fixed_one"  # (1/q) * <Phi|Phi> = 1
                else:
                    carried[w] = "fixed_one_t"

    for w in range(1, n + 1):
        st = carried[w]
        if isinstance(st, int):
            nodes[st].legs.append(LatticeLeg(ref=None, eff=S2Spin.S, const=Fraction(1), dress="alpha"))
        elif st == "fixed_one":
            global_const *= q
        # bottom / recycled / fixed_one_t contract to 1 against the S cap

    for nd in nodes:
        if len(nd.legs) != 2:
            raise UnsupportedFamilyError(
                f"node {nd.index} on {nd.qudits} has {len(nd.legs)} upward legs; cannot map this layout"
            )

    return DiagramLattice(q=q, n=n, nodes=nodes, global_const=global_const, undressed=undressed)


# -- evaluators ------------------------------------------------------------


def _resolve_leg(leg: LatticeLeg, spins) -> S2Spin:
    return leg.eff if leg.ref is None else S2Spin(spins[leg.ref])


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
            e1 = int(leg1.eff) if leg1.ref is None else key >> leg1.ref & 1
            e2 = int(leg2.eff) if leg2.ref is None else key >> leg2.ref & 1
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
    single-domain-wall state.
    """
    rule = TrivalentRule(lattice.q)
    tables = [rule.table(node) for node in lattice.nodes]
    order = list(range(len(lattice.nodes) - 1, -1, -1))
    spins = [0] * len(lattice.nodes)
    found: list[tuple[tuple[int, ...], Fraction]] = []

    def factor(i: int) -> Fraction:
        node = lattice.nodes[i]
        e1 = _resolve_leg(node.legs[0], spins)
        e2 = _resolve_leg(node.legs[1], spins)
        return tables[i][(spins[i], int(e1), int(e2))]

    def dfs(pos: int, weight: Fraction):
        if pos == len(order):
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


# One gate of the convolutional chain: leg 1 is the alpha-dressed leg to
# the cap, leg 2 the beta-dressed leg to the next chain node (any ref
# marks a leg free).  Its input wires are applied by transfer_fidelity.
_CHAIN_NODE = LatticeNode(
    index=0,
    qudits=(1, 2),
    coords=(0, 1),
    legs=[LatticeLeg(ref=None, eff=S2Spin.S, const=1, dress="alpha"), LatticeLeg(ref=0, eff=None, const=1, dress="beta")],
)


def _chain_node(rule: TrivalentRule) -> list[list]:
    """Chain node ``[new][old]`` of the convolutional transfer product.

    These are the rule's table entries (S, old) -> new of
    ``_CHAIN_NODE``.  With a kept input wire, diag(q, 1) times this node
    has the eigenvalue 1, with left eigenvector (q, 1), and the
    subleading eigenvalue alpha q^2 (beta q^2 - 1)/(q^4 - 1), which is
    q^2/(q^2+1) without noise.
    """
    table = rule.table(_CHAIN_NODE)
    return [[table[new, 1, old] for old in (0, 1)] for new in (0, 1)]


def _mat_vec(m, v):
    return [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]


def transfer_fidelity(
    q: int,
    n: int,
    target: RecycleTarget,
    alpha: float | Fraction = 1,
    beta: float | Fraction = 1,
    recycled_factors: tuple = (1, 1),
) -> FidelityResult:
    """Convolutional-chain fidelity as a product of 2x2 node matrices.

    Node j of the chain (gate (j, j+1), j = 1..n-2) maps the spin of node
    j+1 to its own through :func:`_chain_node`; its input wires then
    multiply in their boundary factors.  ``recycled_factors`` dresses the
    projected-qudit boundary when the adjoint channel acts right before
    the measurement; (1, 1) is the noiseless value.
    """
    if n < 3:
        raise ValueError("chain needs n >= 3")
    rule = TrivalentRule(q, alpha, beta, tuple(recycled_factors))
    node = _chain_node(rule)
    r_one, r_s = rule.recycled_boundary
    exact = isinstance(node[0][0], Fraction) and all(isinstance(x, (int, Fraction)) for x in (r_one, r_s))
    targeted = target.qudits(n)

    # Bottom wires per node: node 1 absorbs qudits {1, 2}, node j absorbs
    # qudit j+1.  Kept wires give diag(q, 1), recycled ones diag(r1, rs).
    v = [Fraction(1) if exact else 1.0, Fraction(0) if exact else 0.0]
    for j in range(n - 2, 0, -1):
        wires = (1, 2) if j == 1 else (j + 1,)
        b_one, b_s = 1, 1
        for w in wires:
            if w in targeted:
                b_one, b_s = b_one * r_one, b_s * r_s
            else:
                b_one = b_one * q
        v = _mat_vec(node, v)
        v = [b_one * v[0], b_s * v[1]]
    value = (v[0] + v[1]) / Fraction(q) if exact else float(v[0] + v[1]) / q
    return FidelityResult(value=value, method="transfer")
