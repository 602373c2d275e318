import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewindlab.circuits import (
    CircuitShape,
    Family,
    GateLayout,
    GateSlot,
    RecycleTarget,
    apply_rewinding,
    protocol_layout,
)
from rewindlab.errors import InvalidParameterError, InvalidShapeError, TooLargeError
from rewindlab.noise import KrausChannel, amplitude_damping, depolarizing, identity_channel, random_channel
from rewindlab import oracle
from rewindlab.oracle import (
    exact_twirl_fidelity,
    haar_unitary,
    mc_average_fidelity,
    weingarten_pair,
)


def test_haar_unitarity():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 4, 9):
        u = haar_unitary(dim, rng)
        assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) < 1e-12
    assert abs(abs(haar_unitary(1, rng)[0, 0]) - 1.0) < 1e-12


def _reference_haar_batch(dim, count, rng):
    """The batched QR draw the Gram-Schmidt one replaced: the same Ginibre
    matrices, LAPACK QR, then each column's phase fixed by R's diagonal."""
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    qm, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return qm * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_haar_batch_matches_qr_reference(dim):
    got = oracle._haar_batch(dim, 500, np.random.default_rng(41))
    want = _reference_haar_batch(dim, 500, np.random.default_rng(41))
    assert got.shape == (500, dim, dim)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(haar_unitary(dim, np.random.default_rng(42)), _reference_haar_batch(dim, 1, np.random.default_rng(42))[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [4, 9])
def test_haar_batch_unitarity(dim):
    u = oracle._haar_batch(dim, 20_000, np.random.default_rng(43))
    gram = np.einsum("bij,bkj->bik", u, u.conj())
    # one Gram-Schmidt pass without the re-orthogonalisation leaves 5e-14 to
    # 2e-13 on these draws; with it the worst entry stays near 7e-16
    assert np.abs(gram - np.eye(dim)).max() < 1e-14


def test_haar_first_moment():
    # E|U_11|^2 = 1/d for Haar; 1e5 draws at d = 4
    draws = 100_000
    u = oracle._haar_batch(4, draws, np.random.default_rng(123))
    vals = np.abs(u[:, 0, 0]) ** 2
    mean, sigma = vals.mean(), vals.std(ddof=1) / np.sqrt(draws)
    assert abs(mean - 0.25) < 4 * sigma


def test_weingarten_unital():
    d = 4
    wg_e, wg_t = weingarten_pair(d)
    assert wg_e == pytest.approx(1 / 15)
    assert wg_t == pytest.approx(-1 / 60)
    # the twirl of the identity channel must be the identity: both
    # combinations of weights with the pairing overlaps collapse correctly
    assert d * wg_e + d * d * wg_t == pytest.approx(0.0)
    assert d * d * wg_e + d * wg_t == pytest.approx(1.0)


CONV_ANCHORS = [
    (3, 2, RecycleTarget.single(1), Fraction(3, 5)),
    (4, 2, RecycleTarget.single(1), Fraction(17, 25)),
    (5, 2, RecycleTarget.pair(3, 2), Fraction(69, 125)),
    (5, 2, RecycleTarget.prefix(2), Fraction(77, 125)),
    (3, 3, RecycleTarget.single(1), Fraction(2, 5)),
]


@pytest.mark.parametrize("n,q,target,expected", CONV_ANCHORS)
def test_twirl_convolutional_anchors(n, q, target, expected):
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, q), target)
    value = exact_twirl_fidelity(layout, target).value
    assert value == pytest.approx(float(expected), abs=1e-10)


def test_twirl_local_perfect_restoration():
    target = RecycleTarget.single(1)
    for n, m in [(4, 2), (6, 2), (6, 4)]:
        layout = protocol_layout(CircuitShape(Family.LOCAL, n, m, 2), target)
        assert exact_twirl_fidelity(layout, target).value == pytest.approx(1.0, abs=1e-10)


def test_twirl_hybrid_tower():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, 3, 2, 2), target)
    assert exact_twirl_fidelity(layout, target).value == pytest.approx(0.52, abs=1e-10)


def test_twirl_dimension_cap():
    # six sweeps keep seven of eight qudits live even in the narrow order: 2^(4*7) > 2^26
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, 8, 6, 2), target)
    with pytest.raises(TooLargeError, match="7 live qudits"):
        exact_twirl_fidelity(layout, target)


@pytest.mark.parametrize("q", [2, 3])
def test_twirl_conv_n40_matches_closed_form(q):
    from rewindlab.closedform import conv_fidelity

    n = 40
    targets = [RecycleTarget.single(i) for i in (1, 2, 20, n - 1)]
    targets += [RecycleTarget.prefix(2), RecycleTarget.prefix(5), RecycleTarget.pair(21, 20), RecycleTarget.pair(n - 1, 2)]
    for target in targets:
        layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, q), target)
        got = exact_twirl_fidelity(layout, target).value
        assert got == pytest.approx(float(conv_fidelity(q, n, target).value), abs=1e-12), str(target)


def test_noisy_mc_dimension_cap():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 11, 1, 2), target)
    with pytest.raises(TooLargeError):
        mc_average_fidelity(layout, target, channel=depolarizing(2, 0.04), samples=1)


def test_pure_mc_dimension_cap(monkeypatch):
    """q^n = 2^21 state amplitudes pass the one vector cap: refused before
    anything is drawn or allocated."""
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 21, 1, 2), target)
    monkeypatch.setattr(oracle, "_run_batch", None)  # a call would fail with TypeError
    with pytest.raises(TooLargeError, match="exceeds cap"):
        mc_average_fidelity(layout, target, samples=1)


def test_twirl_determinism():
    target = RecycleTarget.single(2)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2), target)
    a = exact_twirl_fidelity(layout, target).value
    b = exact_twirl_fidelity(layout, target).value
    assert a == b


def test_mc_matches_exact():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    res = mc_average_fidelity(layout, target, samples=40_000, rng=7)
    assert res.stderr < 0.01
    assert abs(res.value - 0.6) < 4 * res.stderr


def test_mc_seed_reproducible():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    a = mc_average_fidelity(layout, target, samples=5000, rng=42)
    b = mc_average_fidelity(layout, target, samples=5000, rng=42)
    c = mc_average_fidelity(layout, target, samples=5000, rng=43)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value
    single = mc_average_fidelity(layout, target, samples=1, rng=1)
    assert 0.0 <= single.value <= 1.0


def test_mc_identity_channel_equals_noiseless_estimate():
    """The identity channel routes through density-matrix evolution but the
    per-sample fidelities coincide with pure-state simulation."""
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    pure = mc_average_fidelity(layout, target, samples=400, rng=9)
    dens = mc_average_fidelity(layout, target, channel=identity_channel(2), samples=400, rng=9)
    assert dens.value == pytest.approx(pure.value, abs=1e-12)


def test_noisy_twirl_vs_noisy_mc():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    channel = depolarizing(2, 0.04)
    exact = exact_twirl_fidelity(layout, target, channel=channel).value
    est = mc_average_fidelity(layout, target, channel=channel, samples=3000, rng=3)
    assert abs(est.value - exact) < 4 * est.stderr


def test_twirl_product_channel_equals_per_qudit_channel():
    """An arity-2 channel built as E x E from a single-qudit set acts
    identically to applying that set on each qudit."""
    from rewindlab.noise import KrausChannel

    single = depolarizing(2, 0.04)
    product = KrausChannel(
        tuple(np.kron(a, b) for a in single.operators for b in single.operators), arity=2
    )
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2), target)
    f1 = exact_twirl_fidelity(layout, target, channel=single).value
    f2 = exact_twirl_fidelity(layout, target, channel=product).value
    assert f2 == pytest.approx(f1, abs=1e-13)


# -- reference contraction -------------------------------------------------
#
# The generic contraction the reshaped twirl replaced: the folded vector as
# a (q,)*4n tensor, tensordot over a gate's copy axes, 8-leg outer products
# and moveaxis back over the whole tensor for every gate and channel.


def _ref_axes(qudit, copies):
    return [4 * (qudit - 1) + c for c in copies]


def _ref_pair_vectors(q, dtype):
    eye = np.eye(q, dtype=dtype)
    return np.einsum("ij,kl->ijkl", eye, eye), np.einsum("il,jk->ijkl", eye, eye)


def _ref_second_moment(v, q, a, b, wg):
    one, s = _ref_pair_vectors(q, v.dtype)
    ax_a, ax_b = _ref_axes(a, (0, 1, 2, 3)), _ref_axes(b, (0, 1, 2, 3))

    def contract(tau_a, tau_b):
        tmp = np.tensordot(v, tau_a, axes=(ax_a, [0, 1, 2, 3]))
        return np.tensordot(tmp, tau_b, axes=([x - 4 for x in ax_b], [0, 1, 2, 3]))

    r_one, r_s = contract(one, one), contract(s, s)
    wg_e, wg_t = wg
    out = np.zeros_like(v)
    for tau_q, rest in ((one, wg_e * r_one + wg_t * r_s), (s, wg_t * r_one + wg_e * r_s)):
        block = np.multiply.outer(np.multiply.outer(tau_q, tau_q), rest)
        out += np.moveaxis(block, range(8), ax_a + ax_b)
    return out


def _ref_first_moment(v, q, a, b):
    phi = np.eye(q, dtype=v.dtype)
    ax_a, ax_b = _ref_axes(a, (0, 1)), _ref_axes(b, (0, 1))
    tmp = np.tensordot(v, phi, axes=(ax_a, [0, 1]))
    rest = np.tensordot(tmp, phi, axes=([x - 2 for x in ax_b], [0, 1]))
    block = np.multiply.outer(np.multiply.outer(phi, phi), rest) / q**2
    return np.moveaxis(block, range(4), ax_a + ax_b)


def _ref_superop(v, sup, axes):
    k = len(axes)
    tmp = np.tensordot(v, sup, axes=(axes, list(range(k, 2 * k))))
    return np.moveaxis(tmp, range(v.ndim - k, v.ndim), axes)


def _reference_twirl(layout, target, channel=None):
    n, q = layout.n, layout.q
    targeted = target.qudits(n)
    dtype = np.complex128 if channel is not None else np.float64
    v = np.ones((), dtype=dtype)
    zero2 = np.zeros((q, q), dtype=dtype)
    zero2[0, 0] = 1.0
    for i in range(1, n + 1):
        proj = zero2 if i in targeted else np.eye(q, dtype=dtype)
        v = np.multiply.outer(v, np.multiply.outer(zero2, proj))

    if channel is not None:
        rho_sup = sum(np.einsum("ik,jl->ijkl", e, e.conj()) for e in channel.operators)
        adj_sup = sum(np.einsum("ik,jl->ijkl", e.conj().T, e.T) for e in channel.operators)
        rho_sup, adj_sup = (t.reshape((q,) * (4 * channel.arity)) for t in (rho_sup, adj_sup))

    def apply_channel(vec, sup, a, b, ket, bra):
        if channel.arity == 2:
            axes = _ref_axes(a, (ket,)) + _ref_axes(b, (ket,)) + _ref_axes(a, (bra,)) + _ref_axes(b, (bra,))
            return _ref_superop(vec, sup, axes)
        for w in (a, b):
            vec = _ref_superop(vec, sup, _ref_axes(w, (ket, bra)))
        return vec

    wg = weingarten_pair(q * q)
    for slot in layout.forward_slots:
        a, b = slot.qudits
        if slot.gate_id in layout.rewound_ids:
            if channel is not None:
                v = apply_channel(v, adj_sup, a, b, 2, 3)
            v = _ref_second_moment(v, q, a, b, wg)
        else:
            v = _ref_first_moment(v, q, a, b)
        if channel is not None:
            v = apply_channel(v, rho_sup, a, b, 0, 1)

    s_cap = _ref_pair_vectors(q, dtype)[1]
    for _ in range(n):
        v = np.tensordot(v, s_cap, axes=([0, 1, 2, 3], [0, 1, 2, 3]))
    return complex(v).real


def _channel(name):
    if name == "ad":
        return amplitude_damping(2, 0.05)
    if name == "rand":  # complex superoperator
        return random_channel(2, 2, np.random.default_rng(2301))
    if name == "pair":  # arity 2, not a product channel
        u = haar_unitary(4, np.random.default_rng(3725))
        return KrausChannel((np.sqrt(0.95) * np.eye(4), np.sqrt(0.05) * u), arity=2)
    if name == "dep3":
        return depolarizing(3, 0.05)
    return None


CROSS_SHAPES = [
    (Family.CONVOLUTIONAL, 3, 1, 2),
    (Family.CONVOLUTIONAL, 4, 1, 2),
    (Family.CONVOLUTIONAL, 5, 1, 2),
    (Family.HYBRID, 3, 2, 2),
    (Family.HYBRID, 4, 2, 2),
    (Family.HYBRID, 5, 2, 2),
    (Family.LOCAL, 4, 4, 2),
]
CROSS_CASES = [(shape, ch) for shape in CROSS_SHAPES for ch in ("none", "ad", "rand", "pair")]
CROSS_CASES += [((Family.CONVOLUTIONAL, 3, 1, 3), ch) for ch in ("none", "dep3")]


@pytest.mark.parametrize("shape,channel_name", CROSS_CASES, ids=lambda x: x if isinstance(x, str) else "{}-n{}-m{}-q{}".format(x[0].value, *x[1:]))
def test_twirl_matches_reference_contraction(shape, channel_name):
    family, n, m, q = shape
    channel = _channel(channel_name)
    for target in (RecycleTarget.single(n - 1), RecycleTarget.prefix(2), RecycleTarget.pair(n - 1, 1)):
        layout = protocol_layout(CircuitShape(family, n, m, q), target)
        got = exact_twirl_fidelity(layout, target, channel=channel).value
        assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12), str(target)


def test_twirl_places_joining_qudit_in_index_order():
    """Right-to-left sweeps: each new qudit joins below the live ones."""
    for q, n, channel_name in [(2, 4, "none"), (2, 4, "rand"), (3, 3, "none")]:
        shape = CircuitShape(Family.CONVOLUTIONAL, n, 1, q)
        slots = tuple(GateSlot((a, a + 1), gid) for gid, a in enumerate(range(n - 1, 0, -1)))
        slots += tuple(GateSlot((a, a + 1), gid + n - 1) for gid, a in enumerate(range(1, n)))
        for target in (RecycleTarget.single(1), RecycleTarget.pair(n - 1, 1)):
            layout = apply_rewinding(GateLayout(shape, slots), target)
            channel = _channel(channel_name)
            got = exact_twirl_fidelity(layout, target, channel=channel).value
            assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12), (q, n, str(target))


# -- per-(q, channel) constants -------------------------------------------------


def _cache_channels(q):
    rng = np.random.default_rng(4417)
    channels = {"none": None, "dep": depolarizing(q, 0.05), "rand": random_channel(q, 2, rng)}
    u = haar_unitary(q * q, rng)
    channels["pair"] = KrausChannel((np.sqrt(0.95) * np.eye(q * q), np.sqrt(0.05) * u), arity=2)
    if q == 2:
        channels["ad"] = amplitude_damping(2, 0.05)
    return channels


@pytest.mark.parametrize("q", [2, 3])
def test_cached_gate_maps_equal_a_fresh_computation(q):
    for name, channel in _cache_channels(q).items():
        cached = oracle._gate_maps(q, channel)
        fresh = oracle._build_gate_maps(q, channel)
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # an equal channel built anew finds the same entry
        again = None if channel is None else KrausChannel(channel.operators, arity=channel.arity)
        assert oracle._gate_maps(q, again) is cached, name
    for got, want in zip(oracle._pair_vectors(q), oracle._pair_vectors.__wrapped__(q)):
        assert np.array_equal(got, want)


def test_cached_twirl_constants_are_read_only():
    for array in (*oracle._gate_maps(2, depolarizing(2, 0.05)), *oracle._pair_vectors(2)):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_twirl_constant_caches_stay_within_their_bounds():
    bound = oracle._cached_gate_maps.cache_info().maxsize
    for k in range(bound + 4):
        oracle._gate_maps(2, depolarizing(2, k / 100))
    assert oracle._cached_gate_maps.cache_info().currsize == bound
    bound = oracle._pair_vectors.cache_info().maxsize
    for q in range(2, bound + 4):
        oracle._pair_vectors(q)
    assert oracle._pair_vectors.cache_info().currsize == bound


def test_gate_map_cache_holds_a_bounded_number_of_bytes():
    """The cache keeps maps for q <= 3 only, at most ``maxsize`` entries of
    4 q^8 complex numbers; one q = 4 entry alone would take 2 MB."""
    cache = oracle._cached_gate_maps
    bound = cache.cache_info().maxsize
    rng = np.random.default_rng(5081)
    channels = [random_channel(3, 2, rng) for _ in range(bound + 4)]
    cache.cache_clear()
    tracemalloc.start()
    try:
        for channel in channels:
            oracle._gate_maps(3, channel)
        for channel in (None, depolarizing(4, 0.05)):
            assert oracle._gate_maps(4, channel) is not oracle._gate_maps(4, channel)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cache.cache_info().currsize == bound
    assert all(np.iscomplexobj(a) for a in oracle._gate_maps(3, channels[-1]))
    assert held <= bound * 4 * 3**8 * 16 * 1.1


# -- narrow gate order -------------------------------------------------------


def _width(slots):
    """Peak number of qudits between their first and last gate in ``slots``."""
    first, last = {}, {}
    for k, slot in enumerate(slots):
        for a in slot.qudits:
            first.setdefault(a, k)
            last[a] = k
    return max(sum(first[a] <= k <= last[a] for a in first) for k in range(len(slots)))


def _adjacent_layouts():
    """Hand-built layouts of adjacent pairs: right-to-left then left-to-right
    sweeps, a repeated pair, and pairs far apart."""
    for n, forward in [
        (5, [(a, a + 1) for a in range(4, 0, -1)] + [(a, a + 1) for a in range(1, 5)]),
        (4, [(1, 2), (1, 2), (3, 4), (2, 3), (2, 3), (1, 2)]),
        (6, [(4, 5), (1, 2), (5, 6), (2, 3), (1, 2), (3, 4)]),
    ]:
        shape = CircuitShape(Family.CONVOLUTIONAL, n, 1, 2)
        yield GateLayout(shape, tuple(GateSlot(pair, gid) for gid, pair in enumerate(forward)))


def _family_layouts():
    for family, n, m in [(Family.CONVOLUTIONAL, 9, 1), (Family.HYBRID, 7, 3), (Family.HYBRID, 4, 6), (Family.LOCAL, 8, 6)]:
        yield protocol_layout(CircuitShape(family, n, m, 2), RecycleTarget.single(1))


def test_narrow_order_is_topological():
    """Every gate once, and every qudit sees its gates in layout order."""
    for layout in [*_family_layouts(), *_adjacent_layouts()]:
        slots = layout.forward_slots
        order = oracle._narrow_order(slots)
        assert sorted(order, key=slots.index) == list(slots)
        for a in range(1, layout.n + 1):
            assert [s for s in order if a in s.qudits] == [s for s in slots if a in s.qudits], (layout.shape, a)


@pytest.mark.parametrize(
    "family,n,m,time_width,narrow_width",
    [
        (Family.CONVOLUTIONAL, 40, 1, 2, 2),
        (Family.HYBRID, 5, 2, 5, 3),
        (Family.HYBRID, 60, 5, 60, 6),
        (Family.HYBRID, 8, 6, 8, 7),
        (Family.LOCAL, 8, 2, 7, 4),
        (Family.LOCAL, 8, 8, 8, 8),
    ],
)
def test_narrow_order_widths(family, n, m, time_width, narrow_width):
    """Hybrid keeps m + 1 qudits live; brickwork narrows only when shallow."""
    slots = protocol_layout(CircuitShape(family, n, m, 2), RecycleTarget.single(1)).forward_slots
    assert (_width(slots), _width(oracle._narrow_order(slots))) == (time_width, narrow_width)


def test_narrow_order_is_time_order_on_local_n4():
    for m in (2, 4, 6, 8):
        slots = protocol_layout(CircuitShape(Family.LOCAL, 4, m, 2), RecycleTarget.single(1)).forward_slots
        assert tuple(oracle._narrow_order(slots)) == slots


@pytest.mark.parametrize("channel_name", ["none", "rand"])
def test_narrow_twirl_matches_time_order_reference_on_hand_built_layouts(channel_name):
    """The reference contracts in layout order; the twirl in the narrow one."""
    channel = _channel(channel_name)
    for layout in _adjacent_layouts():
        if layout.n > 5:  # the reference holds all 4n copy axes at once
            continue
        target = RecycleTarget.pair(layout.n - 1, 1)
        layout = apply_rewinding(layout, target)
        got = exact_twirl_fidelity(layout, target, channel=channel).value
        assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12), layout.slots


def _hand_layout(pairs):
    shape = CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2)
    return apply_rewinding(GateLayout(shape, tuple(GateSlot(p, gid) for gid, p in enumerate(pairs))), RecycleTarget.single(1))


def test_twirl_refuses_gate_not_adjacent_among_live_qudits():
    """(1, 3) meets qudit 2 live between its qudits.  The generic reference
    contraction gives 77/125, the value of the lattice sums; applying the
    gate on the live neighbours (1, 2) gave 0.68."""
    target = RecycleTarget.single(1)
    layout = _hand_layout([(1, 2), (1, 3), (2, 3), (3, 4)])
    assert _reference_twirl(layout, target) == pytest.approx(77 / 125, abs=1e-12)
    with pytest.raises(InvalidShapeError, match=r"\(1, 3\)"):
        exact_twirl_fidelity(layout, target)


def test_twirl_answers_pair_adjacent_among_live_qudits():
    """(1, 3) before qudit 2 joins: 1 and 3 are neighbours among the live qudits."""
    target = RecycleTarget.single(1)
    layout = _hand_layout([(1, 3), (2, 3), (3, 4)])
    got = exact_twirl_fidelity(layout, target).value
    assert got == pytest.approx(17 / 25, abs=1e-12)
    assert got == pytest.approx(_reference_twirl(layout, target), abs=1e-12)


# -- qudits that carry their rho copies only ------------------------------------


def _rho_only_layout(target):
    """Gates (1, 2) and (3, 4) on four qudits: only (1, 2) is rewound, so
    qudits 3 and 4 carry their rho copies alone and share one first moment."""
    shape = CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2)
    return apply_rewinding(GateLayout(shape, (GateSlot((1, 2), 0), GateSlot((3, 4), 1))), target)


@pytest.mark.parametrize("channel_name", ["none", "ad", "rand", "pair"])
@pytest.mark.parametrize(
    "target,noiseless",
    [(RecycleTarget.single(3), 0.5), (RecycleTarget.pair(3, 1), 0.5), (RecycleTarget.single(1), 1.0)],
    ids=["single3", "pair3-1", "single1"],
)
def test_twirl_on_qudits_carrying_rho_copies_only(target, noiseless, channel_name):
    """single(3) caps a rho-only qudit at <0|.|0>: the first moment leaves
    it maximally mixed, 1/2 without noise; qudits 1 and 2 are restored."""
    layout = _rho_only_layout(target)
    assert layout.rewound_ids == {0}
    channel = _channel(channel_name)
    got = exact_twirl_fidelity(layout, target, channel=channel).value
    assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12)
    if channel is None:
        assert got == pytest.approx(noiseless, abs=1e-12)


@pytest.mark.parametrize("channel_name", ["none", "ad", "rand", "pair"])
def test_twirl_first_moment_beside_a_qudit_carrying_all_copies(channel_name):
    """A hand-built rewinding of (1, 2) and (3, 4) only: the first moment
    (2, 3) meets qudit 3 with its (c3, c4) copies, and qudit 4 after it."""
    target = RecycleTarget.pair(3, 1)
    shape = CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2)
    forward = (GateSlot((1, 2), 0), GateSlot((2, 3), 1), GateSlot((3, 4), 2))
    layout = GateLayout(shape, forward + (GateSlot((3, 4), 2, dagger=True), GateSlot((1, 2), 0, dagger=True)))
    channel = _channel(channel_name)
    got = exact_twirl_fidelity(layout, target, channel=channel).value
    assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12)


@st.composite
def _adjacent_gate_lists(draw):
    """A layout of n - 1 to 3n gates (a, a + 1) on n = 3..5 qudits, rewound
    for a random single, prefix or pair target."""
    n = draw(st.integers(3, 5))
    starts = draw(st.lists(st.integers(1, n - 1), min_size=n - 1, max_size=3 * n))
    kind = draw(st.sampled_from(["single", "prefix", "pair"]))
    if kind == "pair":
        j = draw(st.integers(1, n - 2))
        target = RecycleTarget.pair(draw(st.integers(j + 1, n - 1)), j)
    else:
        target = RecycleTarget(kind, (draw(st.integers(1, n - 1)),))
    slots = tuple(GateSlot((a, a + 1), gid) for gid, a in enumerate(starts))
    return apply_rewinding(GateLayout(CircuitShape(Family.CONVOLUTIONAL, n, 1, 2), slots), target), target


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_adjacent_gate_lists())
def test_twirl_matches_reference_on_random_adjacent_layouts(case):
    layout, target = case
    for channel_name in ("none", "ad"):
        channel = _channel(channel_name)
        got = exact_twirl_fidelity(layout, target, channel=channel).value
        assert got == pytest.approx(_reference_twirl(layout, target, channel), abs=1e-12), channel_name


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_narrow_twirl_matches_hybrid_closed_form(q, m):
    from rewindlab.closedform import hybrid_fidelity

    target = RecycleTarget.single(1)
    for n in (3, 4, 7, 12, 25, 60):
        layout = protocol_layout(CircuitShape(Family.HYBRID, n, m, q), target)
        got = exact_twirl_fidelity(layout, target).value
        assert got == pytest.approx(float(hybrid_fidelity(q, n, m).value), abs=1e-12), n


@pytest.mark.parametrize("n,m", [(12, 3), (16, 4)])
@pytest.mark.parametrize("channel_name", ["ad", "rand"])
def test_narrow_twirl_matches_noisy_hybrid_sum(n, m, channel_name):
    from rewindlab.noise import channel_stats
    from rewindlab.statmech import TrivalentRule, lattice_from_circuit, partition_sum_exhaustive

    channel = _channel(channel_name)
    stats = channel_stats(channel)
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, n, m, 2), target)
    rule = TrivalentRule(2, alpha=stats.alpha, beta=stats.beta, recycled_boundary=stats.recycled_boundary)
    want = partition_sum_exhaustive(lattice_from_circuit(layout, target), rule).value
    assert exact_twirl_fidelity(layout, target, channel=channel).value == pytest.approx(want, abs=1e-12)


# -- reference density-matrix Monte Carlo ---------------------------------
#
# The per-sample loop the batched folded evolution replaced: each sample
# evolves a q^n x q^n density matrix with every gate and Kraus operator
# embedded by np.kron into the full space.


def _reference_density_batch(layout, targeted, channel, rng, count):
    n, q = layout.n, layout.q
    d = q * q
    dim = q**n
    gate_ids = sorted({s.gate_id for s in layout.slots})
    gates = {gid: oracle._haar_batch(d, count, rng) for gid in gate_ids}

    def embed(mat, first, width):
        return np.kron(np.eye(q ** (first - 1)), np.kron(mat, np.eye(q ** (n - first - width + 1))))

    slot_kraus = []
    for slot in layout.slots:
        a = slot.qudits[0]
        if channel.arity == 2:
            slot_kraus.append([embed(e, a, 2) for e in channel.operators])
        else:
            ops = [embed(e, a, 1) for e in channel.operators]
            ops_b = [embed(e, a + 1, 1) for e in channel.operators]
            slot_kraus.append([eb @ ea for ea in ops for eb in ops_b])

    mask = np.ones((q,) * n)
    for t in targeted:
        sel = [slice(None)] * n
        sel[t - 1] = slice(1, q)
        mask[tuple(sel)] = 0.0
    pdiag = mask.reshape(dim)

    out = np.empty(count)
    for b in range(count):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        for slot_i, slot in enumerate(layout.slots):
            g = gates[slot.gate_id][b]
            if slot.dagger:
                g = g.conj().T
            gfull = embed(g, slot.qudits[0], 2)
            rho = gfull @ rho @ gfull.conj().T
            rho = sum(e @ rho @ e.conj().T for e in slot_kraus[slot_i])
        out[b] = np.real(np.sum(pdiag * np.diagonal(rho)))
    return out


DENSITY_CASES = [(shape, ch) for shape in CROSS_SHAPES for ch in ("ad", "rand", "pair")]
DENSITY_CASES += [((Family.CONVOLUTIONAL, 3, 1, 3), "dep3")]
# three layers of rewound gates move the axis order furthest at n = 5
DENSITY_CASES += [((Family.HYBRID, 5, 3, 2), ch) for ch in ("ad", "rand")]


@pytest.mark.parametrize("shape,channel_name", DENSITY_CASES, ids=lambda x: x if isinstance(x, str) else "{}-n{}-m{}-q{}".format(x[0].value, *x[1:]))
def test_density_mc_matches_reference_loop(shape, channel_name):
    family, n, m, q = shape
    channel = _channel(channel_name)
    for target in (RecycleTarget.single(n - 1), RecycleTarget.prefix(2), RecycleTarget.pair(n - 1, 1)):
        layout = protocol_layout(CircuitShape(family, n, m, q), target)
        targeted = target.qudits(n)
        got = oracle._run_batch(layout, targeted, np.random.default_rng(611), 6, channel)
        want = _reference_density_batch(layout, targeted, channel, np.random.default_rng(611), 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(target))


# -- reference pure-state Monte Carlo --------------------------------------
#
# A per-sample loop over the full q^n state: every gate embedded by np.kron,
# every qudit present from the start.


def _reference_pure_batch(layout, targeted, rng, count):
    n, q = layout.n, layout.q
    gate_ids = sorted({s.gate_id for s in layout.slots})
    gates = {gid: oracle._haar_batch(q * q, count, rng) for gid in gate_ids}
    keep = np.ones((q,) * n)
    for t in targeted:
        sel = [slice(None)] * n
        sel[t - 1] = slice(1, q)
        keep[tuple(sel)] = 0.0
    out = np.empty(count)
    for b in range(count):
        psi = np.zeros(q**n, dtype=complex)
        psi[0] = 1.0
        for slot in layout.slots:
            g = gates[slot.gate_id][b]
            if slot.dagger:
                g = g.conj().T
            a = slot.qudits[0]
            psi = np.kron(np.eye(q ** (a - 1)), np.kron(g, np.eye(q ** (n - a - 1)))) @ psi
        out[b] = np.sum(keep.reshape(-1) * np.abs(psi) ** 2)
    return out


# Wider shapes (q^n <= 256): most rewound slots move their qudits to the
# front, and the axis order drifts furthest from index order mid-pass.
PURE_CASES = CROSS_SHAPES + [(Family.CONVOLUTIONAL, 8, 1, 2), (Family.HYBRID, 7, 2, 2), (Family.LOCAL, 6, 6, 2)]


@pytest.mark.parametrize("shape", PURE_CASES, ids=lambda x: "{}-n{}-m{}-q{}".format(x[0].value, *x[1:]))
def test_pure_mc_matches_reference_loop(shape):
    family, n, m, q = shape
    for target in (RecycleTarget.single(n - 1), RecycleTarget.prefix(2), RecycleTarget.pair(n - 1, 1)):
        layout = protocol_layout(CircuitShape(family, n, m, q), target)
        targeted = target.qudits(n)
        got = oracle._run_batch(layout, targeted, np.random.default_rng(613), 6)
        want = _reference_pure_batch(layout, targeted, np.random.default_rng(613), 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(target))


def _right_to_left_layouts():
    """Right-to-left sweeps: each new qudit joins as the last axis while its
    partner sits first, so every gate after the first finds its pair in
    reverse order and moves it to the front.  A qudit no gate touches (3 in
    the last case) never joins, so the readout covers fewer axes than
    qudits, in an order that is not index order."""

    def sweeps(n):
        return [(a, a + 1) for a in range(n - 1, 0, -1)] + [(a, a + 1) for a in range(1, n)]

    for q, n, forward in [(2, 4, sweeps(4)), (3, 3, sweeps(3)), (2, 5, [(4, 5), (1, 2)])]:
        shape = CircuitShape(Family.CONVOLUTIONAL, n, 1, q)
        slots = tuple(GateSlot(pair, gid) for gid, pair in enumerate(forward))
        for target in (RecycleTarget.single(1), RecycleTarget.pair(n - 1, 1)):
            yield q, n, apply_rewinding(GateLayout(shape, slots), target), target


def test_pure_mc_right_to_left_sweeps_and_untouched_qudit():
    for q, n, layout, target in _right_to_left_layouts():
        targeted = target.qudits(n)
        got = oracle._run_batch(layout, targeted, np.random.default_rng(617), 5)
        want = _reference_pure_batch(layout, targeted, np.random.default_rng(617), 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"q={q} n={n} {target}")


def test_density_mc_right_to_left_sweeps_and_untouched_qudit():
    """The same layouts with a channel: the ket = bra mask follows the axis order."""
    for q, n, layout, target in _right_to_left_layouts():
        channel = _channel("rand" if q == 2 else "dep3")
        targeted = target.qudits(n)
        got = oracle._run_batch(layout, targeted, np.random.default_rng(619), 5, channel)
        want = _reference_density_batch(layout, targeted, channel, np.random.default_rng(619), 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"q={q} n={n} {target}")


def test_density_mc_sub_batches_leave_values_unchanged(monkeypatch):
    """Noisy and noiseless samples alike, in sub-batches of 3."""
    target = RecycleTarget.pair(3, 1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, 4, 2, 2), target)
    args = (layout, target.qudits(4))
    for channel, dim in ((_channel("rand"), 4), (None, 2)):
        whole = oracle._run_batch(*args, np.random.default_rng(17), 40, channel)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_MC_BATCH_ELEMENTS", 3 * dim**4)
            split = oracle._run_batch(*args, np.random.default_rng(17), 40, channel)
        assert np.array_equal(whole, split)


def test_mc_seeded_results_are_pinned():
    """Seeded estimates, bit for bit, of the samplers this one replaced."""
    target = RecycleTarget.pair(4, 2)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), target)
    res = mc_average_fidelity(layout, target, samples=8192, rng=31)
    assert (res.value, res.stderr) == (0.47244162473007284, 0.0018662279299514757)
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, 4, 2, 2), target)
    res = mc_average_fidelity(layout, target, channel=amplitude_damping(2, 0.1), samples=3000, rng=5)
    assert (res.value, res.stderr) == (0.5927684091472497, 0.0012790624720340267)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    res = mc_average_fidelity(layout, target, channel=depolarizing(2, 0.05), samples=5000, rng=29)
    assert (res.value, res.stderr) == (0.5906045458766196, 0.0022214912673218)


def test_noisy_mc_bit_identical_across_thread_counts(monkeypatch):
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REWINDLAB_THREADS", threads)
        res = mc_average_fidelity(layout, target, channel=depolarizing(2, 0.05), samples=5000, rng=29)
        results.append((res.value, res.stderr))
    assert results[0] == results[1]


def test_thread_count_defaults_to_usable_cpus(monkeypatch):
    import os

    from rewindlab.parallel import thread_count

    monkeypatch.delenv("REWINDLAB_THREADS", raising=False)
    assert thread_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("REWINDLAB_THREADS", "1")
    assert thread_count() == 1


def test_pure_mc_bit_identical_across_thread_counts(monkeypatch):
    target = RecycleTarget.pair(4, 2)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), target)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REWINDLAB_THREADS", threads)
        res = mc_average_fidelity(layout, target, samples=8192, rng=31)  # two chunks
        results.append((res.value, res.stderr))
    assert results[0] == results[1]


@pytest.mark.parametrize("channel_name", ["rand", "pair"])
def test_noisy_twirl_vs_density_mc_complex_and_pair_channels(channel_name):
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    channel = _channel(channel_name)
    exact = exact_twirl_fidelity(layout, target, channel=channel).value
    est = mc_average_fidelity(layout, target, channel=channel, samples=3000, rng=5)
    assert abs(est.value - exact) < 4 * est.stderr


@pytest.mark.parametrize("channel_name,itemsize", [("none", 8), ("rand", 16)])
def test_twirl_peak_memory_stays_near_two_folded_vectors(channel_name, itemsize):
    n, q = 5, 2
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, q), target)
    tracemalloc.start()
    try:
        exact_twirl_fidelity(layout, target, channel=_channel(channel_name))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * q ** (4 * n) * itemsize


@pytest.mark.parametrize("channel_name", ["none", "rand"])
def test_twirl_peak_memory_follows_live_width_not_n(channel_name):
    """A convolutional sweep keeps two qudits live at every n.

    Past n = 5 the traced peak grows only by the per-gate bookkeeping
    (about 3 kB from n = 5 to n = 40); a third live q=2 qudit would add at
    least 32 kB.  The bound is on the growth, not a ratio, so it does not
    depend on how much of the peak the per-q constants take."""
    channel = _channel(channel_name)
    target = RecycleTarget.single(1)

    def peak(n):
        layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, 2), target)
        exact_twirl_fidelity(layout, target, channel=channel)  # first-call allocations stay out
        tracemalloc.start()
        try:
            exact_twirl_fidelity(layout, target, channel=channel)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(5)
    for n in (10, 20, 40):
        assert peak(n) - base <= 4096, n


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "depolarizing"])
def test_twirl_element_count_follows_live_width_not_n(monkeypatch, q, noisy):
    """Under a cap of the q^8 elements conv n=5 peaks at, conv n=40 still
    answers: the folded vector counts two live qudits at every n."""
    from rewindlab.closedform import conv_fidelity, noisy_conv_fidelity
    from rewindlab.noise import channel_stats

    channel = depolarizing(q, 0.05) if noisy else None
    target = RecycleTarget.single(1)

    def twirl(n):
        return exact_twirl_fidelity(protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, q), target), target, channel=channel)

    monkeypatch.setattr(oracle, "MAX_TWIRL_ELEMENTS", q**8 - 1)
    with pytest.raises(TooLargeError, match=f"2 live qudits, {q**8} elements"):
        twirl(5)
    monkeypatch.setattr(oracle, "MAX_TWIRL_ELEMENTS", q**8)
    twirl(5)
    if noisy:
        stats = channel_stats(channel)
        want = noisy_conv_fidelity(q, 40, stats.alpha, stats.beta, target, stats.recycled_boundary).value
    else:
        want = float(conv_fidelity(q, 40, target).value)
    assert twirl(40).value == pytest.approx(want, abs=1e-12)


def test_twirl_cap_reads_the_element_count_of_rho_only_qudits(monkeypatch):
    """Local n=4 m=6 keeps its four qudits live, but qudit 4 carries only its
    rho copies: 2^12 x 2^2 = 2^14 elements, not 2^16."""
    from rewindlab.closedform import local_fidelity

    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.LOCAL, 4, 6, 2), target)
    monkeypatch.setattr(oracle, "MAX_TWIRL_ELEMENTS", 1 << 14)
    want = float(local_fidelity(2, 4, 6).value)
    assert exact_twirl_fidelity(layout, target).value == pytest.approx(want, abs=1e-12)
    monkeypatch.setattr(oracle, "MAX_TWIRL_ELEMENTS", (1 << 14) - 1)
    with pytest.raises(TooLargeError, match="4 live qudits, 16384 elements"):
        exact_twirl_fidelity(layout, target)


def test_twirl_peak_memory_with_rho_only_qudit():
    """A complex local n=4 m=6 twirl peaks near two 2^14-element vectors."""
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.LOCAL, 4, 6, 2), target)
    channel = _channel("rand")
    exact_twirl_fidelity(layout, target, channel=channel)  # first-call allocations stay out
    tracemalloc.start()
    try:
        exact_twirl_fidelity(layout, target, channel=channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 2**14 * np.dtype(complex).itemsize


@pytest.mark.parametrize("family,n,m,count", [(Family.CONVOLUTIONAL, 10, 1, 1024), (Family.HYBRID, 9, 2, 2048)])
def test_mc_peak_memory_stays_near_two_sample_vectors(family, n, m, count):
    """Past the Haar draws, a slot holds its input and its output: a moved
    slot frees the pre-move buffer before its matmul."""
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(family, n, m, 2), target)
    oracle._run_batch(layout, target.qudits(n), np.random.default_rng(3), 8)  # first-call allocations stay out
    tracemalloc.start()
    try:
        oracle._run_batch(layout, target.qudits(n), np.random.default_rng(3), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    itemsize = np.dtype(complex).itemsize
    draws = len({s.gate_id for s in layout.slots}) * count * 2**4 * itemsize
    size = min(count, oracle._MC_BATCH_ELEMENTS // 2**n)
    assert peak <= draws + 2.25 * size * 2**n * itemsize


def test_channel_of_wrong_qudit_dimension_refused():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    with pytest.raises(InvalidParameterError, match="dimension 3"):
        exact_twirl_fidelity(layout, target, channel=depolarizing(3, 0.05))
    with pytest.raises(InvalidParameterError, match="dimension 3"):
        mc_average_fidelity(layout, target, channel=depolarizing(3, 0.05), samples=10)
