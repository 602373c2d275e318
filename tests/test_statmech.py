from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rewindlab import statmech
from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.closedform import hybrid_fidelity, local_fidelity, noisy_lambda2
from rewindlab.errors import (
    InvalidParameterError,
    TargetNotIdleError,
    TooLargeError,
    UnsupportedFamilyError,
    UnsupportedRegimeError,
)
from rewindlab.noise import amplitude_damping, channel_stats, dephasing, depolarizing, random_channel
from rewindlab.oracle import exact_twirl_fidelity
from rewindlab.statmech import (
    LatticeLeg,
    LatticeNode,
    S2Spin,
    TrivalentRule,
    enumerate_support,
    lattice_from_circuit,
    partition_sum_exhaustive,
    single_wall_fidelity,
    transfer_fidelity,
)

ONE, S = S2Spin.ONE, S2Spin.S


def make_lattice(family, n, m, q, target):
    layout = protocol_layout(CircuitShape(family, n, m, q), target)
    return lattice_from_circuit(layout, target)


# -- rule tables -------------------------------------------------------------


def _free_node(dress1="beta", dress2="beta"):
    """A node whose two upward legs both read free spins."""
    legs = [LatticeLeg(ref=0, eff=None, const=Fraction(1), dress=d) for d in (dress1, dress2)]
    return LatticeNode(index=1, qudits=(1, 2), coords=(0, 1), legs=legs)


def test_solid_rule_noiseless():
    table = TrivalentRule(2).table(_free_node())
    assert table[ONE, ONE, ONE] == 1
    assert table[S, S, S] == 1
    assert table[S, ONE, ONE] == 0
    assert table[ONE, S, S] == 0
    for tau in (ONE, S):
        assert table[tau, ONE, S] == Fraction(2, 5)
        assert table[tau, S, ONE] == Fraction(2, 5)


def test_noisy_rules_reduce_to_noiseless():
    for dress in [("alpha", "beta"), ("beta", "alpha"), ("none", "alpha"), ("beta", "beta")]:
        clean = TrivalentRule(2).table(_free_node(*dress))
        for rule in (
            TrivalentRule(2, alpha=1, beta=1),
            TrivalentRule(2, alpha=Fraction(1), beta=Fraction(1), recycled_boundary=(Fraction(1), Fraction(1))),
        ):
            assert not rule.noisy
            assert rule.table(_free_node(*dress)) == clean


def test_noisy_rule_values():
    # each leg carries its own dressing: alpha on leg 1, beta on leg 2 first
    q = 2
    rule = TrivalentRule(q, alpha=0.9, beta=0.8)
    d4 = q**4 - 1
    table = rule.table(_free_node("alpha", "beta"))
    assert table[S, S, S] == pytest.approx((0.72 * 16 - 1) / d4)
    assert table[ONE, S, ONE] == pytest.approx(q * (4 - 0.9) / d4)
    assert table[S, ONE, S] == pytest.approx(q * (0.8 * 4 - 1) / d4)
    swapped = rule.table(_free_node("beta", "alpha"))
    assert swapped[ONE, ONE, S] == pytest.approx(q * (4 - 0.9) / d4)
    assert swapped[S, S, ONE] == pytest.approx(q * (0.8 * 4 - 1) / d4)
    both_beta = rule.table(_free_node("beta", "beta"))
    assert both_beta[ONE, S, S] == pytest.approx(4 * (1 - 0.64) / d4)
    # a leg into a non-rewound gate stays bare
    assert rule.table(_free_node("none", "beta"))[ONE, S, ONE] == pytest.approx(q * (4 - 1) / d4)


# -- lattice construction ----------------------------------------------------


def test_conv_lattice_is_chain():
    lat = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.single(1))
    assert lat.free_node_count == 3  # n - 2 interior columns
    # chain adjacency: node j feeds node j+1
    refs = [[leg.ref for leg in node.legs if leg.ref is not None] for node in lat.nodes]
    assert refs == [[1], [2], []]


def test_prefix_target_changes_boundary_factors():
    base = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.single(1))
    pref = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.prefix(2))
    assert base.nodes[0].bottoms == ["recycled", "kept"]
    assert pref.nodes[0].bottoms == ["recycled", "recycled"]
    pair = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.pair(3, 2))
    assert pair.nodes[0].bottoms == ["kept", "recycled"]
    assert pair.nodes[1].bottoms == ["recycled"]


def test_forward_only_layout_rejected():
    from rewindlab.circuits import build_circuit

    layout = build_circuit(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2))
    with pytest.raises(UnsupportedFamilyError):
        lattice_from_circuit(layout, RecycleTarget.single(1))


# -- evaluators --------------------------------------------------------------

ANCHORS = [
    (Family.CONVOLUTIONAL, 3, 1, 2, RecycleTarget.single(1), Fraction(3, 5)),
    (Family.CONVOLUTIONAL, 4, 1, 2, RecycleTarget.single(1), Fraction(17, 25)),
    (Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.pair(3, 2), Fraction(69, 125)),
    (Family.HYBRID, 3, 2, 2, RecycleTarget.single(1), Fraction(13, 25)),
    (Family.HYBRID, 6, 2, 2, RecycleTarget.single(1), Fraction(163984, 250000)),
    (Family.LOCAL, 6, 4, 2, RecycleTarget.single(1), Fraction(1)),
    (Family.LOCAL, 4, 6, 2, RecycleTarget.single(1), Fraction(353, 625)),
]


@pytest.mark.parametrize("family,n,m,q,target,expected", ANCHORS)
def test_partition_sum_anchors(family, n, m, q, target, expected):
    lat = make_lattice(family, n, m, q, target)
    assert partition_sum_exhaustive(lat).value == expected
    assert single_wall_fidelity(lat).value == expected


def test_all_one_configuration_weight():
    # with every node pinned to ONE the product collapses to the geometric
    # all-ONE weight (1/q) (q^2/(q^2+1))^(n-2)
    q, n = 2, 5
    lat = make_lattice(Family.CONVOLUTIONAL, n, 1, q, RecycleTarget.single(1))
    rule = TrivalentRule(q)
    w = lat.global_const
    for node in lat.nodes:
        e1, e2 = (ONE if leg.ref is not None else leg.eff for leg in node.legs)
        w *= rule.table(node)[ONE, e1, e2]
    assert w == Fraction(1, q) * Fraction(q * q, q * q + 1) ** (n - 2)


def test_frontier_cap(monkeypatch):
    # hybrid n=6 m=3 peaks at 4 frontier states without noise, 8 with
    lat = make_lattice(Family.HYBRID, 6, 3, 2, RecycleTarget.single(1))
    monkeypatch.setattr(statmech, "FRONTIER_STATE_CAP", 4)
    assert partition_sum_exhaustive(lat).value == Fraction(226401, 390625)
    with pytest.raises(TooLargeError):
        partition_sum_exhaustive(lat, TrivalentRule(2, alpha=0.9, beta=0.9))
    monkeypatch.setattr(statmech, "FRONTIER_STATE_CAP", 3)
    with pytest.raises(TooLargeError):
        partition_sum_exhaustive(lat)


def test_support_is_upper_right_closed():
    """Nonzero-weight configurations form staircase regions: per sweep a
    contiguous prefix of columns, with prefixes changing by at most one
    between neighbouring sweeps once the wall has entered."""
    for family, n, m in [
        (Family.CONVOLUTIONAL, 6, 1),
        (Family.HYBRID, 5, 3),
        (Family.LOCAL, 4, 6),
    ]:
        lat = make_lattice(family, n, m, 2, RecycleTarget.single(1))
        rows = max(nd.coords[0] for nd in lat.nodes) + 1
        for spins, _ in enumerate_support(lat):
            cells = {lat.nodes[i].coords for i, s in enumerate(spins) if s}
            prefix = [0] * rows
            for r, c in cells:
                prefix[r] = max(prefix[r], c)
            assert cells == {(r, c) for r in range(rows) for c in range(1, prefix[r] + 1)}


def test_single_wall_equals_exhaustive_batch():
    cases = [
        (Family.CONVOLUTIONAL, 7, 1),
        (Family.HYBRID, 4, 4),
        (Family.HYBRID, 6, 3),
        (Family.LOCAL, 6, 6),
        (Family.LOCAL, 8, 4),
    ]
    for family, n, m in cases:
        for q in (2, 3):
            lat = make_lattice(family, n, m, q, RecycleTarget.single(1))
            assert lat.free_node_count <= 24
            assert single_wall_fidelity(lat).value == partition_sum_exhaustive(lat).value


# -- transfer matrices -------------------------------------------------------


def _bulk_matrix(rule):
    """Chain node with a kept input wire: diag(q, 1) times the node."""
    node = statmech._chain_node(rule)
    return [[rule.q * x for x in node[0]], node[1]]


def test_transfer_chain_noiseless_eigenvalues():
    for q in (2, 3, 5):
        t = _bulk_matrix(TrivalentRule(q))
        trace, det = t[0][0] + t[1][1], t[0][0] * t[1][1] - t[0][1] * t[1][0]
        # characteristic polynomial x^2 - trace x + det vanishes at 1, so
        # the other eigenvalue is det
        assert 1 - trace + det == 0
        lam2 = noisy_lambda2(q, Fraction(1), Fraction(1))
        assert det == lam2 == Fraction(q * q, q * q + 1)
        # left eigenvector (q, 1) at eigenvalue 1
        assert q * t[0][0] + t[1][0] == q and q * t[0][1] + t[1][1] == 1


def test_transfer_chain_noisy_eigenvalues():
    for q, a, b in [(2, 0.97, 0.9412), (3, 0.9, 0.95), (2, 0.9, 0.8)]:
        t = _bulk_matrix(TrivalentRule(q, alpha=a, beta=b))
        trace, det = t[0][0] + t[1][1], t[0][0] * t[1][1] - t[0][1] * t[1][0]
        assert 1 - trace + det == pytest.approx(0, abs=1e-14)
        assert det == pytest.approx(noisy_lambda2(q, a, b), abs=1e-14)
        assert q * t[0][0] + t[1][0] == pytest.approx(q, abs=1e-14)
        assert q * t[0][1] + t[1][1] == pytest.approx(1, abs=1e-14)


def test_transfer_matches_paper_entries():
    q, a, b = 2, 0.9, 0.8
    rule = TrivalentRule(q, alpha=a, beta=b)
    t = _bulk_matrix(rule)
    d4 = q**4 - 1
    assert t[0][0] == pytest.approx(q * q * (q * q - a) / d4)
    assert t[0][1] == pytest.approx((1 - a * b) * q**3 / d4)
    assert t[1][0] == pytest.approx(q * (a * q * q - 1) / d4)
    assert t[1][1] == pytest.approx((a * b * q**4 - 1) / d4)
    assert statmech._chain_node(rule)[0][0] == pytest.approx(q * (q * q - a) / d4)
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    assert det == pytest.approx(a * q * q * (b * q * q - 1) / d4)


def test_transfer_fidelity_noiseless_targets():
    assert transfer_fidelity(2, 5, RecycleTarget.single(3)).value == Fraction(17, 25)
    assert transfer_fidelity(2, 5, RecycleTarget.prefix(2)).value == Fraction(77, 125)
    assert transfer_fidelity(2, 5, RecycleTarget.pair(4, 1)).value == transfer_fidelity(
        2, 5, RecycleTarget.pair(4, 2)
    ).value
    assert transfer_fidelity(2, 5, RecycleTarget.single(1)).value == transfer_fidelity(
        2, 5, RecycleTarget.single(2)
    ).value


def test_transfer_matches_closed_forms_to_n9():
    from rewindlab.closedform import conv_fidelity

    for q in (2, 3):
        for n in range(3, 10):
            targets = [RecycleTarget.single(i) for i in range(1, n)]
            targets += [RecycleTarget.prefix(k) for k in (1, 2)]
            if n >= 4:
                targets.append(RecycleTarget.pair(n - 1, 1))
            for t in targets:
                assert transfer_fidelity(q, n, t).value == conv_fidelity(q, n, t).value, (q, n, t)


def test_noisy_transfer_matches_twirl():
    channel = depolarizing(2, 0.04)
    stats = channel_stats(channel)
    for target in (RecycleTarget.single(1), RecycleTarget.single(3), RecycleTarget.pair(4, 3)):
        layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), target)
        tw = exact_twirl_fidelity(layout, target, channel=channel).value
        tr = transfer_fidelity(2, 5, target, stats.alpha, stats.beta, stats.recycled_boundary).value
        assert tr == pytest.approx(tw, abs=1e-12)


def test_rule_for_another_q_refused():
    lattice = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.single(1))
    for rule in (TrivalentRule(3), TrivalentRule(3, alpha=0.9, beta=0.9)):
        with pytest.raises(InvalidParameterError):
            partition_sum_exhaustive(lattice, rule)


def _rule(channel):
    stats = channel_stats(channel)
    return TrivalentRule(
        channel.qudit_dim(), alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary
    )


def test_noisy_exhaustive_matches_twirl_all_families():
    channel = depolarizing(2, 0.04)
    rule = _rule(channel)
    target = RecycleTarget.single(1)
    for family, n, m in [(Family.CONVOLUTIONAL, 5, 1), (Family.HYBRID, 4, 2), (Family.LOCAL, 4, 4)]:
        layout = protocol_layout(CircuitShape(family, n, m, 2), target)
        lat = lattice_from_circuit(layout, target)
        tw = exact_twirl_fidelity(layout, target, channel=channel).value
        assert partition_sum_exhaustive(lat, rule).value == pytest.approx(tw, abs=1e-12)


@pytest.mark.parametrize(
    "channel",
    [amplitude_damping(2, 0.05), random_channel(2, 2, np.random.default_rng(2301))],
    ids=["ad2", "rand2"],
)
def test_noisy_sum_refuses_undressed_recycled_wire(channel):
    # local n=4 m=4: qudit 3 first meets a non-rewound gate, so the lattice
    # has no node for its dressed boundary; qudit 1 keeps its node
    rule = _rule(channel)
    shape = CircuitShape(Family.LOCAL, 4, 4, 2)
    lost = make_lattice(Family.LOCAL, 4, 4, 2, RecycleTarget.single(3))
    assert lost.undressed == 1
    with pytest.raises(UnsupportedRegimeError):
        partition_sum_exhaustive(lost, rule)
    target = RecycleTarget.single(1)
    layout = protocol_layout(shape, target)
    kept = lattice_from_circuit(layout, target)
    assert kept.undressed == 0
    tw = exact_twirl_fidelity(layout, target, channel=channel).value
    assert partition_sum_exhaustive(kept, rule).value == pytest.approx(tw, abs=1e-12)


def test_noisy_sum_dephasing_undressed_recycled_wire_matches_twirl():
    # dephasing fixes |0><0|, so the undressed wire carries no dressing to lose
    channel = dephasing(2, 0.05)
    target = RecycleTarget.single(3)
    layout = protocol_layout(CircuitShape(Family.LOCAL, 4, 4, 2), target)
    lattice = lattice_from_circuit(layout, target)
    assert lattice.undressed == 1
    tw = exact_twirl_fidelity(layout, target, channel=channel).value
    assert partition_sum_exhaustive(lattice, _rule(channel)).value == pytest.approx(tw, abs=1e-12)


# -- frontier contraction against the 2^g enumeration --------------------------


def _factor_exponents(value: Fraction, q: int) -> tuple[int, int] | None:
    """Write value as q^a (1+q^2)^b; None when impossible."""
    num, den = value.numerator, value.denominator
    exps = []
    for base in (q, 1 + q * q):
        e = 0
        while num % base == 0:
            num //= base
            e += 1
        while den % base == 0:
            den //= base
            e -= 1
        exps.append(e)
    return tuple(exps) if num == den == 1 else None


def _reference_node_table(node, q, alpha=1, beta=1, recycled=(1, 1)):
    """Node weights from the second-moment Weingarten sum, test-only.

    Entry (tau, e1, e2) is sum_sigma Wg(sigma, tau) <e1|sigma> <e2|sigma>
    times the legs' constants and the bottom factors at tau.  With
    d = q^2, Wg is 1/(d^2-1) for sigma = tau and -1/(d(d^2-1)) otherwise;
    a leg overlap is q for differing spins, q^2 for equal ones, and q^2
    times the leg's dressing when both are S.
    """
    d = q * q
    wg_same, wg_diff = Fraction(1, d * d - 1), Fraction(-1, d * (d * d - 1))
    dressing = {"none": 1, "alpha": alpha, "beta": beta}
    bottom = {"kept": (q, 1), "fixed_one": (q * q, q), "fixed_one_t": (q, 1), "recycled": recycled}
    leg1, leg2 = node.legs

    def overlap(leg, e, sigma):
        if e != sigma:
            return q
        return q * q * (dressing[leg.dress] if sigma == S else 1)

    out = {}
    for tau in (ONE, S):
        bfac = 1
        for kind in node.bottoms:
            bfac *= bottom[kind][tau]
        for e1 in (ONE, S) if leg1.eff is None else (leg1.eff,):
            for e2 in (ONE, S) if leg2.eff is None else (leg2.eff,):
                total = sum(
                    (wg_same if sigma == tau else wg_diff) * overlap(leg1, e1, sigma) * overlap(leg2, e2, sigma)
                    for sigma in (ONE, S)
                )
                out[int(tau), int(e1), int(e2)] = total * leg1.const * leg2.const * bfac
    return out


def _reference_partition_sum(lattice, rule=None, chunk=1 << 20):
    """Sum over all 2^g spin assignments (the former evaluator), test-only.

    Configuration i sets node k's spin to bit k of i.  Noiseless weights
    are all q^a (1+q^2)^b, so the sweep counts exponent pairs and the sum
    is exact; noisy weights are float64 products.
    """
    q, g = lattice.q, lattice.free_node_count
    noisy = rule is not None and rule.noisy
    params = (rule.alpha, rule.beta, tuple(rule.recycled_boundary)) if noisy else ()
    tables = []  # (node, leg-1 bit, leg-2 bit, cases indexed own | e1 << 1 | e2 << 2)
    for node in lattice.nodes:
        table = _reference_node_table(node, q, *params)
        leg1, leg2 = node.legs
        cases = [
            table[own, int(leg1.eff) if leg1.ref is None else b1, int(leg2.eff) if leg2.ref is None else b2]
            for b2 in (0, 1)
            for b1 in (0, 1)
            for own in (0, 1)
        ]
        r1 = node.index if leg1.ref is None else leg1.ref
        r2 = node.index if leg2.ref is None else leg2.ref
        tables.append((node.index, r1, r2, cases))
    if noisy:
        float_cases = [np.array([float(c) for c in cases]) for *_, cases in tables]
    else:
        factored = [[None if c == 0 else _factor_exponents(Fraction(c), q) for c in cases] for *_, cases in tables]
        assert all(f is not None for fs, (*_, cases) in zip(factored, tables) for f, c in zip(fs, cases) if c != 0)
        zero = [np.array([f is None for f in fs]) for fs in factored]
        exp_a = [np.array([0 if f is None else f[0] for f in fs]) for fs in factored]
        exp_b = [np.array([0 if f is None else f[1] for f in fs]) for fs in factored]
    value, counts = 0.0, {}
    for lo in range(0, 1 << g, chunk):
        idx = np.arange(lo, min(lo + chunk, 1 << g), dtype=np.int64)
        cases_at = [
            ((idx >> i) & 1) | (((idx >> r1) & 1) << 1) | (((idx >> r2) & 1) << 2) for i, r1, r2, _ in tables
        ]
        if noisy:
            w = np.full(idx.shape, float(lattice.global_const))
            for fc, case in zip(float_cases, cases_at):
                w *= fc[case]
            value += float(np.sum(w))
            continue
        alive = np.ones(idx.shape, dtype=bool)
        a = np.zeros(idx.shape, dtype=np.int64)
        b = np.zeros(idx.shape, dtype=np.int64)
        for z, ea, eb, case in zip(zero, exp_a, exp_b, cases_at):
            alive &= ~z[case]
            a += ea[case]
            b += eb[case]
        pairs, number = np.unique(np.stack([a[alive], b[alive]], axis=1), axis=0, return_counts=True)
        for (pa, pb), c in zip(pairs.tolist(), number.tolist()):
            counts[pa, pb] = counts.get((pa, pb), 0) + c
    if noisy:
        return value
    total = sum(c * Fraction(q) ** pa * Fraction(1 + q * q) ** pb for (pa, pb), c in counts.items())
    return total * lattice.global_const


def _all_targets(n):
    singles = [RecycleTarget.single(i) for i in range(1, n)]
    prefixes = [RecycleTarget.prefix(k) for k in range(1, n)]
    pairs = [RecycleTarget.pair(i, j) for i in range(2, n) for j in range(1, i)]
    return singles + prefixes + pairs


def _covered_shapes():
    """(family, n, m, q, target) of every noiseless lattice the test suite and
    the benchmark grids sum, deduplicated; all have at most 20 nodes."""
    one = RecycleTarget.single(1)
    shapes = set()
    for q in (2, 3):
        for n in range(3, 8):
            shapes.update((Family.CONVOLUTIONAL, n, 1, q, t) for t in _all_targets(n))
        for n in range(8, 17):
            shapes.update((Family.CONVOLUTIONAL, n, 1, q, t) for t in (one, RecycleTarget.single(2)))
        for n in range(3, 8):
            for m in range(1, 5):
                if (n - 2) * m <= 20:
                    shapes.add((Family.HYBRID, n, m, q, one))
        shapes.update((Family.HYBRID, 3, m, q, one) for m in (5, 6))
        for n, m in [(4, 2), (4, 4), (4, 6), (4, 8), (4, 10), (6, 4), (6, 6), (6, 8), (8, 4), (8, 6)]:
            shapes.add((Family.LOCAL, n, m, q, one))
    shapes.update((Family.CONVOLUTIONAL, n, 1, 2, one) for n in range(17, 21))
    shapes.update((Family.LOCAL, 4, m, 2, RecycleTarget.single(t)) for m in (2, 4, 6) for t in (2, 3))
    shapes.update([(Family.HYBRID, 6, 5, 2, one), (Family.HYBRID, 4, 10, 3, one)])
    return sorted(shapes, key=lambda s: (s[0].value, s[1], s[2], s[3], str(s[4])))


def test_rule_table_equals_reference_on_covered_lattices():
    lattices = {(family, n, m, target) for family, n, m, _, target in _covered_shapes()}
    for family, n, m, target in sorted(lattices, key=str):
        for q in (2, 3, 5):
            lattice = make_lattice(family, n, m, q, target)
            clean = TrivalentRule(q)
            noisy = TrivalentRule(q, alpha=0.93, beta=0.81, recycled_boundary=(0.97, 0.88))
            for node in lattice.nodes:
                assert clean.table(node) == _reference_node_table(node, q), (family, n, m, q, target, node.index)
                got = noisy.table(node)
                want = _reference_node_table(node, q, 0.93, 0.81, (0.97, 0.88))
                assert got.keys() == want.keys()
                for key, value in want.items():
                    assert got[key] == pytest.approx(value, abs=1e-14), (family, n, m, q, target, node.index, key)


def test_frontier_equals_reference_on_covered_lattices():
    for family, n, m, q, target in _covered_shapes():
        lattice = make_lattice(family, n, m, q, target)
        assert lattice.free_node_count <= 20
        value = partition_sum_exhaustive(lattice).value
        assert isinstance(value, Fraction)
        assert value == _reference_partition_sum(lattice), (family, n, m, q, target)


NOISY_CHANNELS = {
    "dep2": depolarizing(2, 0.05),
    "ad2": amplitude_damping(2, 0.05),
    "rand2": random_channel(2, 2, np.random.default_rng(2301)),
}


@pytest.mark.parametrize("name", sorted(NOISY_CHANNELS))
def test_noisy_frontier_matches_reference(name):
    rule = _rule(NOISY_CHANNELS[name])
    shapes = [(Family.CONVOLUTIONAL, n, 1, t) for n in (4, 5, 9) for t in (1, 2, 3)]
    shapes += [(Family.HYBRID, n, m, 1) for n, m in [(4, 1), (4, 2), (5, 2), (6, 3), (4, 4)]]
    shapes += [(Family.LOCAL, 4, m, t) for m in (2, 4, 6) for t in (1, 2)] + [(Family.LOCAL, 6, 6, 1)]
    for family, n, m, t in shapes:
        lattice = make_lattice(family, n, m, 2, RecycleTarget.single(t))
        value = partition_sum_exhaustive(lattice, rule).value
        assert isinstance(value, float)
        assert value == pytest.approx(_reference_partition_sum(lattice, rule), abs=1e-12), (family, n, m, t)


SMALL_SHAPES = st.one_of(
    st.tuples(st.just(Family.CONVOLUTIONAL), st.integers(3, 18), st.just(1)),
    st.integers(3, 10).flatmap(
        lambda n: st.tuples(st.just(Family.HYBRID), st.just(n), st.integers(1, max(1, 16 // (n - 2))))
    ),
    st.tuples(st.just(Family.LOCAL), st.sampled_from([4, 6, 8]), st.sampled_from([2, 4, 6, 8])),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SMALL_SHAPES, st.sampled_from([2, 3]), st.integers(1, 17), st.floats(0.8, 1.0), st.floats(0.8, 1.0))
def test_frontier_equals_reference_property(shape, q, i, alpha, beta):
    family, n, m = shape
    target = RecycleTarget.single(1 + (i - 1) % (n - 1))
    try:
        lattice = make_lattice(family, n, m, q, target)
    except TargetNotIdleError:
        assume(False)
    assume(lattice.free_node_count <= 16)
    value = partition_sum_exhaustive(lattice).value
    assert isinstance(value, Fraction) and value == _reference_partition_sum(lattice)
    rule = TrivalentRule(q, alpha=alpha, beta=beta)
    assert partition_sum_exhaustive(lattice, rule).value == pytest.approx(
        _reference_partition_sum(lattice, rule), abs=1e-12
    )


@pytest.mark.parametrize(
    "family,q,n,m,closed",
    [
        (Family.HYBRID, 2, 24, 12, hybrid_fidelity),
        (Family.HYBRID, 3, 24, 12, hybrid_fidelity),
        (Family.LOCAL, 2, 24, 24, local_fidelity),
        (Family.LOCAL, 2, 24, 46, local_fidelity),
    ],
)
def test_sum_equals_closed_form_at_caps(family, q, n, m, closed):
    lattice = make_lattice(family, n, m, q, RecycleTarget.single(1))
    assert lattice.free_node_count > 24
    assert partition_sum_exhaustive(lattice).value == closed(q, n, m).value
