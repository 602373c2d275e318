from fractions import Fraction

import pytest

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
import numpy as np

from rewindlab.errors import TooLargeError, UnsupportedFamilyError, UnsupportedRegimeError
from rewindlab.noise import amplitude_damping, channel_stats, depolarizing, random_channel
from rewindlab.oracle import exact_twirl_fidelity
from rewindlab.statmech import (
    DiagramLattice,
    S2Spin,
    TransferMatrix,
    TrivalentRule,
    WallWeights,
    config_weight,
    enumerate_support,
    lattice_from_circuit,
    partition_sum_exhaustive,
    single_wall_fidelity,
    transfer_fidelity,
    trivalent_weight,
)

ONE, S = S2Spin.ONE, S2Spin.S


def make_lattice(family, n, m, q, target):
    layout = protocol_layout(CircuitShape(family, n, m, q), target)
    return lattice_from_circuit(layout, target)


# -- rule tables -------------------------------------------------------------


def test_solid_rule_noiseless():
    rule = TrivalentRule(2)
    assert trivalent_weight(rule, (ONE, ONE, ONE)) == 1
    assert trivalent_weight(rule, (S, S, S)) == 1
    assert trivalent_weight(rule, (ONE, ONE, S)) == 0
    assert trivalent_weight(rule, (S, S, ONE)) == 0
    for t3 in (ONE, S):
        assert trivalent_weight(rule, (ONE, S, t3)) == Fraction(2, 5)
        assert trivalent_weight(rule, (S, ONE, t3)) == Fraction(2, 5)


def test_dotted_rule():
    rule = TrivalentRule(3, kind="dotted")
    assert trivalent_weight(rule, (ONE, ONE, ONE)) == 1
    assert trivalent_weight(rule, (ONE, S, ONE)) == Fraction(1, 3)
    assert trivalent_weight(rule, (S, S, ONE)) == Fraction(1, 9)
    assert trivalent_weight(rule, (ONE, ONE, S)) == 0


def test_noisy_rules_reduce_to_noiseless():
    clean = TrivalentRule(2)
    for rule in (
        TrivalentRule(2, alpha=1, beta=1),
        TrivalentRule(2, beta=1, beta_u=1, beta_d=1),
    ):
        for t1 in (ONE, S):
            for t2 in (ONE, S):
                for t3 in (ONE, S):
                    assert trivalent_weight(rule, (t1, t2, t3)) == trivalent_weight(clean, (t1, t2, t3))


def test_noisy_rule_values():
    q = 2
    rule = TrivalentRule(q, alpha=0.9, beta=0.8)
    d4 = q**4 - 1
    assert trivalent_weight(rule, (S, S, S)) == pytest.approx((0.72 * 16 - 1) / d4)
    assert trivalent_weight(rule, (S, ONE, ONE)) == pytest.approx(q * (4 - 0.9) / d4)
    assert trivalent_weight(rule, (ONE, S, S)) == pytest.approx(q * (0.8 * 4 - 1) / d4)
    general = TrivalentRule(q, beta=0.7, beta_u=0.9, beta_d=0.8)
    assert trivalent_weight(general, (ONE, S, ONE)) == pytest.approx(q * (4 - 0.9) / d4)
    assert trivalent_weight(general, (S, ONE, S)) == pytest.approx(q * (0.8 * 4 - 1) / d4)
    assert trivalent_weight(general, (S, S, ONE)) == pytest.approx(4 * (1 - 0.7) / d4)


def test_wall_weights_combination():
    # one endpoint, one boundary unit, and three bulk units combine to
    # (1/(1+q^2))^3, the worked single-wall example
    for q in (2, 3, 5):
        w = WallWeights(q)
        assert w.endpoint * w.boundary * w.bulk**3 == Fraction(1, (1 + q * q) ** 3)
        assert 0 < w.bulk < 1 and 0 < w.boundary < 1 and 0 < w.endpoint < 1


# -- lattice construction ----------------------------------------------------


def test_conv_lattice_is_chain():
    lat = make_lattice(Family.CONVOLUTIONAL, 5, 1, 2, RecycleTarget.single(1))
    assert lat.free_node_count == 3  # n - 2 interior columns
    assert len(lat.forbidden) == 1  # the single non-rewound gate
    assert len(lat.start_nodes) == 3
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
    w = config_weight(lat, [0] * lat.free_node_count)
    assert w == Fraction(1, q) * Fraction(q * q, q * q + 1) ** (n - 2)


def test_node_cap():
    lat = make_lattice(Family.HYBRID, 6, 3, 2, RecycleTarget.single(1))
    with pytest.raises(TooLargeError):
        partition_sum_exhaustive(lat, node_cap=4)


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


def test_transfer_matrix_noiseless_eigenvalue():
    for q in (2, 3, 5):
        tm = TransferMatrix(q)
        assert tm.subleading == Fraction(q * q, q * q + 1)
        # left eigenvector (q, 1) at eigenvalue 1
        col0 = q * tm.matrix[0][0] + tm.matrix[1][0]
        col1 = q * tm.matrix[0][1] + tm.matrix[1][1]
        assert col0 == q and col1 == 1


def test_transfer_matrix_eigendecomposition():
    for q, a, b in [(2, 1, 1), (2, 0.97, 0.9412), (3, 0.9, 0.95)]:
        tm = TransferMatrix(q, a, b)
        p, d = tm.eigen()
        assert tm.eigen() is tm.eigen()  # cached
        # T P = P D column by column
        for col in range(2):
            tp = [
                tm.matrix[0][0] * p[0][col] + tm.matrix[0][1] * p[1][col],
                tm.matrix[1][0] * p[0][col] + tm.matrix[1][1] * p[1][col],
            ]
            pd = [p[0][col] * d[col][col], p[1][col] * d[col][col]]
            assert float(tp[0]) == pytest.approx(float(pd[0]), abs=1e-14)
            assert float(tp[1]) == pytest.approx(float(pd[1]), abs=1e-14)


def test_single_wall_rejects_noisy_rule():
    from rewindlab.errors import NoisyRuleError

    lat = make_lattice(Family.CONVOLUTIONAL, 4, 1, 2, RecycleTarget.single(1))
    with pytest.raises(NoisyRuleError):
        single_wall_fidelity(lat, rule=TrivalentRule(2, alpha=0.9, beta=0.9))


def test_transfer_matches_paper_entries():
    q, a, b = 2, 0.9, 0.8
    tm = TransferMatrix(q, a, b)
    d4 = q**4 - 1
    assert tm.matrix[0][0] == pytest.approx(q * q * (q * q - a) / d4)
    assert tm.matrix[0][1] == pytest.approx((1 - a * b) * q**3 / d4)
    assert tm.matrix[1][0] == pytest.approx(q * (a * q * q - 1) / d4)
    assert tm.matrix[1][1] == pytest.approx((a * b * q**4 - 1) / d4)
    assert tm.modified[0][0] == pytest.approx(q * (q * q - a) / d4)
    assert tm.subleading == pytest.approx(a * q * q * (b * q * q - 1) / d4)


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


def test_exhaustive_thread_cap_bit_identical(monkeypatch):
    lat = make_lattice(Family.HYBRID, 6, 3, 2, RecycleTarget.single(1))
    monkeypatch.setenv("REWINDLAB_THREADS", "1")
    sequential = partition_sum_exhaustive(lat).value
    monkeypatch.setenv("REWINDLAB_THREADS", "4")
    threaded = partition_sum_exhaustive(lat).value
    assert sequential == threaded


def test_noisy_exhaustive_matches_twirl_all_families():
    channel = depolarizing(2, 0.04)
    stats = channel_stats(channel)
    rule = TrivalentRule(2, alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary)
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
    stats = channel_stats(channel)
    rule = TrivalentRule(2, alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary)
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
