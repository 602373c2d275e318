"""Spin-lattice mapping of the averaged protocol and its evaluators.

After Haar-averaging, every rewound gate carries a permutation spin from
S2 = {ONE, S}; non-rewound gates, the circuit input and the final
contraction act as fixed boundaries.  The averaged fidelity becomes a
partition sum over spin configurations with trivalent node weights

    solid:   1                      all three spins equal
             q/(1+q^2)              the two upper spins differ
             0                      upper spins equal, own spin different

plus per-node boundary overlap factors.  This module builds that lattice
directly from a gate layout by walking each qudit's wire upward
(:func:`lattice_from_circuit`) and evaluates it three ways:

* :func:`partition_sum_exhaustive` -- the sum over all assignments,
  contracted node by node from the top over a frontier of pending spins,
* :func:`single_wall_fidelity` -- sum over the single-domain-wall
  configurations only (every nonzero-weight noiseless configuration),
* :func:`transfer_fidelity` -- 2x2 transfer-matrix product for the
  convolutional chain, valid with or without noise.

Boundary bookkeeping (exact, derived from the folded four-copy picture):
a wire into a non-rewound gate collapses to the fixed spin ONE and scales
the emitter leg by 1/q^2; the fidelity cap behaves as a fixed S spin; the
circuit input contributes per-node factors (q, 1) for kept qudits and
(1, 1) for recycled ones.  With noise, gate-to-gate legs acquire the
two-channel dressing (beta), legs to the cap the single-channel dressing
(alpha), and the recycled-qudit input factors are dressed by the adjoint
channel acting right before the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

from rewindlab.circuits import GateLayout, RecycleTarget
from rewindlab.errors import NoisyRuleError, TooLargeError, UnsupportedFamilyError, UnsupportedRegimeError
from rewindlab.result import FidelityResult

# Largest frontier partition_sum_exhaustive builds; see its docstring.
FRONTIER_STATE_CAP = 1 << 16


class S2Spin(IntEnum):
    ONE = 0
    S = 1


@dataclass(frozen=True)
class TrivalentRule:
    """Weight table of one averaged (second-moment) gate.

    Noise enters through ``alpha``/``beta`` (single-qudit channel model)
    or ``beta, beta_u, beta_d`` (general two-qudit channel); all default
    to 1, which reproduces the noiseless table exactly.
    """

    q: int
    alpha: float | Fraction = 1
    beta: float | Fraction = 1
    beta_u: float | Fraction | None = None
    beta_d: float | Fraction | None = None
    # Overlap of the projected-qudit input with (ONE, S) when the adjoint
    # channel dresses it; (1, 1) without noise.
    recycled_boundary: tuple = (1, 1)

    @property
    def noisy(self) -> bool:
        return not (
            self.alpha == 1
            and self.beta == 1
            and (self.beta_u in (None, 1))
            and (self.beta_d in (None, 1))
            and tuple(self.recycled_boundary) == (1, 1)
        )

    def weight(self, spins: tuple[S2Spin, S2Spin, S2Spin]):
        """Table lookup for spins (tau1, tau2, tau3).

        tau1/tau2 are the two upper legs and tau3 the node's own spin.
        """
        t1, t2, t3 = spins
        q = self.q
        general = self.beta_u is not None or self.beta_d is not None
        if general:
            # two-qudit-channel table: (ONE,S,*) rows carry beta_u,
            # (S,ONE,*) rows beta_d, (S,S,*) rows beta
            p12 = self.beta_u if self.beta_u is not None else 1
            p21 = self.beta_d if self.beta_d is not None else 1
            pss = self.beta
        else:
            # single-qudit-channel table: (ONE,S,*) rows carry beta,
            # (S,ONE,*) rows alpha, (S,S,*) rows alpha*beta
            p12 = self.beta
            p21 = self.alpha
            pss = self.alpha * self.beta
        d4 = q**4 - 1
        table = {
            (0, 0, 0): Fraction(1),
            (0, 0, 1): Fraction(0),
            (0, 1, 0): _ratio(q * (q * q - p12), d4),
            (0, 1, 1): _ratio(q * (p12 * q * q - 1), d4),
            (1, 0, 0): _ratio(q * (q * q - p21), d4),
            (1, 0, 1): _ratio(q * (p21 * q * q - 1), d4),
            (1, 1, 0): _ratio(q * q * (1 - pss), d4),
            (1, 1, 1): _ratio(pss * q**4 - 1, d4),
        }
        return table[(int(t1), int(t2), int(t3))]


def _ratio(num, den):
    if isinstance(num, Fraction) or isinstance(num, int):
        return Fraction(num, den)
    return num / den


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
    start_nodes: list[int]  # wall entry candidates (boundary-adjacent nodes)
    end_marker: tuple[int, int]  # fixed-S corner all walls terminate at
    forbidden: list[tuple[int, int]]  # fixed-ONE positions (first-moment gates)
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
    forbidden: list[tuple[int, int]] = []
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
            forbidden.append((repeat, pair[0]))
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

    max_row = max((nd.coords[0] for nd in nodes), default=0)
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

    start_nodes = [nd.index for nd in nodes if any(b in ("kept", "recycled") for b in nd.bottoms)]
    return DiagramLattice(
        q=q,
        n=n,
        nodes=nodes,
        global_const=global_const,
        start_nodes=start_nodes,
        end_marker=(max_row + 1, 1),
        forbidden=forbidden,
        undressed=undressed,
    )


# -- configuration weights -------------------------------------------------


def _wg_pair_fraction(q: int) -> tuple[Fraction, Fraction]:
    d = q * q
    return Fraction(1, d * d - 1), Fraction(-1, d * (d * d - 1))


def _overlap(q: int, eff: S2Spin, sigma: S2Spin, dress: str, alpha, beta):
    """Single-qudit overlap <eff|sigma> with optional channel dressing."""
    if eff != sigma:
        return Fraction(q)
    if eff == S2Spin.ONE:
        return Fraction(q * q)
    if dress == "alpha":
        return alpha * q * q
    if dress == "beta":
        return beta * q * q
    return Fraction(q * q)


def _node_weight_table(node: LatticeNode, q: int, alpha, beta, recycled_factors):
    """Weights for the 8 combinations (own spin, leg-1 spin, leg-2 spin).

    Legs with a fixed absorber ignore the corresponding index.  Result is
    a dict keyed by (tau, e1, e2) of exact Fractions (noiseless) or floats.
    """
    wg_same, wg_diff = _wg_pair_fraction(q)
    leg1, leg2 = node.legs
    out = {}
    for tau in (S2Spin.ONE, S2Spin.S):
        bfac = 1
        for kind in node.bottoms:
            if kind == "recycled":
                pair = recycled_factors
            else:
                pair = _BOTTOM_FACTORS[kind](q)
            bfac *= pair[int(tau)]
        for e1 in (S2Spin.ONE, S2Spin.S):
            if leg1.eff is not None and e1 != leg1.eff:
                continue
            for e2 in (S2Spin.ONE, S2Spin.S):
                if leg2.eff is not None and e2 != leg2.eff:
                    continue
                total = 0
                for sigma in (S2Spin.ONE, S2Spin.S):
                    wg = wg_same if sigma == tau else wg_diff
                    total += (
                        wg
                        * _overlap(q, e1, sigma, leg1.dress, alpha, beta)
                        * _overlap(q, e2, sigma, leg2.dress, alpha, beta)
                    )
                out[(int(tau), int(e1), int(e2))] = total * leg1.const * leg2.const * bfac
    return out


def _resolve_leg(leg: LatticeLeg, spins) -> S2Spin:
    return leg.eff if leg.ref is None else S2Spin(spins[leg.ref])


def _rule_params(rule: TrivalentRule | None):
    if rule is None:
        return 1, 1, (Fraction(1), Fraction(1))
    return rule.alpha, rule.beta, tuple(rule.recycled_boundary)


def config_weight(lattice: DiagramLattice, spins, rule: TrivalentRule | None = None):
    """Weight of one full spin assignment (mainly for tests and wall sums)."""
    alpha, beta, recycled = _rule_params(rule)
    total = lattice.global_const
    for node in lattice.nodes:
        table = _node_weight_table(node, lattice.q, alpha, beta, recycled)
        e1 = _resolve_leg(node.legs[0], spins)
        e2 = _resolve_leg(node.legs[1], spins)
        total *= table[(int(spins[node.index]), int(e1), int(e2))]
        if total == 0:
            return total
    return total


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
    sum would leave that boundary out and return a wrong number.
    """
    noisy = rule is not None and rule.noisy
    alpha, beta, recycled = _rule_params(rule if noisy else None)
    if lattice.undressed and recycled != (1, 1):
        raise UnsupportedRegimeError(
            f"{lattice.undressed} recycled wire(s) first meet a non-rewound gate; "
            "their dressed boundary is not modelled"
        )
    cast = float if noisy else Fraction
    lowest_reader: dict[int, int] = {}
    for node in reversed(lattice.nodes):
        for leg in node.legs:
            if leg.ref is not None:
                lowest_reader[leg.ref] = node.index

    # frontier keys are bitmasks over node indices
    frontier = {0: cast(1)}
    for node in reversed(lattice.nodes):
        j = node.index
        table = _node_weight_table(node, lattice.q, alpha, beta, recycled)
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
    q = lattice.q
    tables = [
        _node_weight_table(node, q, 1, 1, (Fraction(1), Fraction(1)))
        for node in lattice.nodes
    ]
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


def single_wall_fidelity(lattice: DiagramLattice, rule: TrivalentRule | None = None) -> FidelityResult:
    """Sum of all weighted single-domain-wall configurations.

    Valid only for the noiseless model, where the nonzero-weight
    configurations are exactly the single-wall ones; equals the exhaustive
    partition sum there.  A noisy rule is rejected: multiple walls carry
    weight once the trivalent zeros are lifted.
    """
    if rule is not None and rule.noisy:
        raise NoisyRuleError("single-wall reduction holds only for the noiseless rule")
    total = Fraction(0)
    for _, w in enumerate_support(lattice):
        total += w
    return FidelityResult(value=total * lattice.global_const, method="wall")


# -- transfer matrices -----------------------------------------------------


@dataclass
class TransferMatrix:
    """2x2 transfer matrix of the noisy convolutional chain, basis (ONE, S).

    ``matrix[new, old]`` advances one chain node toward the recycled end;
    ``modified`` is the same node with a recycled-qudit boundary (the kept
    factor q stripped from the ONE row).  ``eigen()`` caches the (P, D)
    decomposition; the leading eigenvalue is always 1, the subleading one
    alpha q^2 (beta q^2 - 1)/(q^4 - 1), which is q^2/(q^2+1) without noise.
    """

    q: int
    alpha: float | Fraction = 1
    beta: float | Fraction = 1

    def __post_init__(self):
        q, a, b = self.q, self.alpha, self.beta
        d4 = q**4 - 1
        n_table = [
            [_ratio(q * (q * q - a), d4), _ratio(q * q * (1 - a * b), d4)],
            [_ratio(q * (a * q * q - 1), d4), _ratio(a * b * q**4 - 1, d4)],
        ]
        self.modified = n_table
        self.matrix = [[n_table[0][0] * q, n_table[0][1] * q], n_table[1]]
        self._eigen = None

    @property
    def eigenvalues(self) -> tuple[float | Fraction, float | Fraction]:
        q, a, b = self.q, self.alpha, self.beta
        lam2 = _ratio(a * q * q * (b * q * q - 1), q**4 - 1)
        return (1 if isinstance(lam2, Fraction) else 1.0), lam2

    @property
    def subleading(self):
        return self.eigenvalues[1]

    def eigen(self):
        """(P, D) with T = P D P^-1; columns of P are the eigenvectors.

        Valid whenever alpha q^2 != 1 (the right 1-eigenvector has a
        (1-ab)q^3/(aq^2-1) component).
        """
        if self._eigen is None:
            q, a, b = self.q, self.alpha, self.beta
            if a * q * q == 1:
                raise ZeroDivisionError("eigenvector form needs alpha q^2 != 1")
            one = Fraction(1) if isinstance(self.matrix[0][0], Fraction) else 1.0
            d = [[one, 0 * one], [0 * one, self.subleading]]
            p = [[_ratio((1 - a * b) * q**3, a * q * q - 1), _ratio(-1, q)], [one, one]]
            self._eigen = (p, d)
        return self._eigen


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

    Node j of the chain (gate (j, j+1), j = 1..n-2) contributes the
    transfer matrix, with the recycled-boundary modification at nodes
    whose input qudit is projected.  ``recycled_factors`` dresses the
    projected-qudit boundary when the adjoint channel acts right before
    the measurement; (1, 1) is the noiseless value.
    """
    if n < 3:
        raise ValueError("chain needs n >= 3")
    targeted = target.qudits(n)
    tm = TransferMatrix(q, alpha, beta)
    exact = isinstance(tm.matrix[0][0], Fraction) and all(
        isinstance(x, (int, Fraction)) for x in recycled_factors
    )
    r_one, r_s = recycled_factors

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
        v = _mat_vec(tm.modified, v)
        v = [b_one * v[0], b_s * v[1]]
    value = (v[0] + v[1]) / Fraction(q) if exact else float(v[0] + v[1]) / q
    return FidelityResult(value=value, method="transfer")
