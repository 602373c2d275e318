import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.errors import InvalidParameterError, TooLargeError
from rewindlab.noise import KrausChannel, amplitude_damping, depolarizing, identity_channel, random_channel
from rewindlab import oracle
from rewindlab.oracle import (
    SeededRng,
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


def test_haar_first_moment():
    # E|U_11|^2 = 1/d for Haar; 1e5 draws at d = 4
    rng = np.random.default_rng(123)
    draws = 100_000
    z = rng.standard_normal((draws, 4, 4)) + 1j * rng.standard_normal((draws, 4, 4))
    qm, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    u = qm * (diag / np.abs(diag))[:, None, :]
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
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 8, 1, 2), target)
    with pytest.raises(TooLargeError):
        exact_twirl_fidelity(layout, target, max_elements=1 << 26)


def test_noisy_mc_dimension_cap():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 11, 1, 2), target)
    with pytest.raises(TooLargeError):
        mc_average_fidelity(layout, target, channel=depolarizing(2, 0.04), samples=1)


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
    a = mc_average_fidelity(layout, target, samples=5000, rng=SeededRng(42))
    b = mc_average_fidelity(layout, target, samples=5000, rng=SeededRng(42))
    c = mc_average_fidelity(layout, target, samples=5000, rng=SeededRng(43))
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value
    single = mc_average_fidelity(layout, target, samples=1, rng=SeededRng(1))
    assert 0.0 <= single.value <= 1.0


def test_mc_identity_channel_equals_noiseless_estimate():
    """The identity channel routes through density-matrix evolution but the
    per-sample fidelities coincide with pure-state simulation."""
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    pure = mc_average_fidelity(layout, target, samples=400, rng=SeededRng(9))
    dens = mc_average_fidelity(layout, target, channel=identity_channel(2), samples=400, rng=SeededRng(9))
    assert dens.value == pytest.approx(pure.value, abs=1e-12)


def test_noisy_twirl_vs_noisy_mc():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    channel = depolarizing(2, 0.04)
    exact = exact_twirl_fidelity(layout, target, channel=channel).value
    est = mc_average_fidelity(layout, target, channel=channel, samples=3000, rng=SeededRng(3))
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


@pytest.mark.parametrize("shape,channel_name", DENSITY_CASES, ids=lambda x: x if isinstance(x, str) else "{}-n{}-m{}-q{}".format(x[0].value, *x[1:]))
def test_density_mc_matches_reference_loop(shape, channel_name):
    family, n, m, q = shape
    channel = _channel(channel_name)
    for target in (RecycleTarget.single(n - 1), RecycleTarget.prefix(2), RecycleTarget.pair(n - 1, 1)):
        layout = protocol_layout(CircuitShape(family, n, m, q), target)
        targeted = target.qudits(n)
        got = oracle._run_density_batch(layout, targeted, channel, np.random.default_rng(611), 6)
        want = _reference_density_batch(layout, targeted, channel, np.random.default_rng(611), 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(target))


def test_density_mc_sub_batches_leave_values_unchanged(monkeypatch):
    target = RecycleTarget.pair(3, 1)
    layout = protocol_layout(CircuitShape(Family.HYBRID, 4, 2, 2), target)
    args = (layout, target.qudits(4), _channel("rand"))
    whole = oracle._run_density_batch(*args, np.random.default_rng(17), 40)
    monkeypatch.setattr(oracle, "_DENSITY_BATCH_ELEMENTS", 3 * 4**4)
    split = oracle._run_density_batch(*args, np.random.default_rng(17), 40)
    assert np.array_equal(whole, split)


def test_noisy_mc_bit_identical_across_thread_counts(monkeypatch):
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("REWINDLAB_THREADS", threads)
        res = mc_average_fidelity(layout, target, channel=depolarizing(2, 0.05), samples=5000, rng=SeededRng(29))
        results.append((res.value, res.stderr))
    assert results[0] == results[1]


@pytest.mark.parametrize("channel_name", ["rand", "pair"])
def test_noisy_twirl_vs_density_mc_complex_and_pair_channels(channel_name):
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    channel = _channel(channel_name)
    exact = exact_twirl_fidelity(layout, target, channel=channel).value
    est = mc_average_fidelity(layout, target, channel=channel, samples=3000, rng=SeededRng(5))
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


def test_channel_of_wrong_qudit_dimension_refused():
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 3, 1, 2), target)
    with pytest.raises(InvalidParameterError, match="dimension 3"):
        exact_twirl_fidelity(layout, target, channel=depolarizing(3, 0.05))
    with pytest.raises(InvalidParameterError, match="dimension 3"):
        mc_average_fidelity(layout, target, channel=depolarizing(3, 0.05), samples=10)
