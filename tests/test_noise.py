import numpy as np
import pytest

from rewindlab.errors import InvalidParameterError, NotTracePreservingError
from rewindlab.noise import (
    ChannelStats,
    KrausChannel,
    amplitude_damping,
    channel_stats,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
    validate_channel,
)


def test_validate_identity_ok():
    validate_channel(identity_channel(2))
    validate_channel(identity_channel(3))


def test_validate_scaled_identity_fails():
    bad = KrausChannel((np.eye(2) / 2,), arity=1)
    with pytest.raises(NotTracePreservingError) as err:
        validate_channel(bad)
    assert err.value.residual > 0.5


def test_identity_stats_all_one():
    stats = channel_stats(identity_channel(2))
    assert stats == ChannelStats(1.0, 1.0, 1.0, 1.0)
    stats3 = channel_stats(identity_channel(3))
    for field in ("alpha", "beta", "recycled_one", "recycled_s"):
        assert getattr(stats3, field) == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_stats():
    stats = channel_stats(depolarizing(2, 0.04))
    assert stats.alpha == pytest.approx(0.97, abs=1e-12)
    assert stats.beta == pytest.approx(0.9412, abs=1e-12)
    assert stats.recycled_one == pytest.approx(1.0, abs=1e-12)  # unital
    assert stats.recycled_s == pytest.approx(0.98, abs=1e-12)  # 1 - p/2
    # alpha = 1 - 3p/4 for the qubit Pauli convention
    for p in (0.0, 0.1, 0.5):
        assert channel_stats(depolarizing(2, p)).alpha == pytest.approx(1 - 3 * p / 4, abs=1e-12)


def test_depolarizing_zero_is_identity():
    ch = depolarizing(2, 0.0)
    nonzero = [op for op in ch.operators if np.abs(op).max() > 1e-14]
    assert len(nonzero) == 1
    assert np.allclose(nonzero[0], np.eye(2))


def test_dephasing_alpha():
    # Kraus {sqrt(1-p) I, sqrt(p) Z}: alpha = |2 sqrt(1-p)|^2 / 4 = 1 - p
    for p in (0.0, 0.08, 0.3):
        assert channel_stats(dephasing(2, p)).alpha == pytest.approx(1 - p, abs=1e-12)
    # dephasing never moves the |0> projector
    stats = channel_stats(dephasing(2, 0.3))
    assert stats.recycled_one == pytest.approx(1.0)
    assert stats.recycled_s == pytest.approx(1.0)


def test_recycled_boundary_undressed_exactly_when_adjoint_fixes_projector():
    # rounding used to leave dephasing at (0.9999999999999999, ...), which an
    # exact (1, 1) test reads as dressed
    for channel in (dephasing(2, 0.05), dephasing(3, 0.05), identity_channel(2)):
        assert channel_stats(channel).recycled_boundary == (1.0, 1.0)
    assert channel_stats(amplitude_damping(2, 0.05)).recycled_boundary != (1.0, 1.0)
    assert channel_stats(depolarizing(2, 0.05)).recycled_boundary[1] == pytest.approx(0.975, abs=1e-12)


def test_unital_recycled_one_is_exactly_one():
    # the Kraus sum rounded depolarizing to 0.9999999999999999 (q = 2) and
    # 0.9999999999999998 (q = 3); a unital channel gives Tr Phi*(|0><0|) = 1
    for q in (2, 3):
        assert channel_stats(depolarizing(q, 0.05)).recycled_one == 1.0
    assert channel_stats(amplitude_damping(2, 0.05)).recycled_one == 1.05


def test_amplitude_damping():
    stats = channel_stats(amplitude_damping(2, 0.1))
    g = 0.1
    expected_alpha = abs(1 + np.sqrt(1 - g)) ** 2 / 4
    assert stats.alpha == pytest.approx(expected_alpha, abs=1e-12)
    assert stats.recycled_one == pytest.approx(1 + g, abs=1e-12)  # non-unital
    with pytest.raises(InvalidParameterError):
        amplitude_damping(3, 0.1)


def test_channel_constructors_check_probability():
    assert depolarizing(2, 0.1).dim == 2
    with pytest.raises(InvalidParameterError):
        depolarizing(2, 1.5)


def test_alpha_range_over_random_channels():
    rng = np.random.default_rng(7)
    for q in (2, 3):
        for rank in (2, 4):
            for _ in range(20):
                ch = random_channel(q, rank, rng)
                stats = channel_stats(ch)
                assert 0.0 <= stats.alpha <= 1.0 + 1e-12
                assert stats.beta >= -1e-12


def test_unitary_channel_statistics_stay_at_most_one():
    from rewindlab.statmech import TrivalentRule

    for q in (2, 3):
        for phi in np.linspace(0.01, 3, 40):
            stats = channel_stats(KrausChannel((np.exp(1j * phi) * np.eye(q),), arity=1))
            assert stats.alpha <= 1 and stats.beta <= 1
            TrivalentRule(q, stats.alpha, stats.beta, stats.recycled_boundary)


def test_product_lift_identities():
    # for E x E lifts, beta at arity 2 is the square of the single-qudit beta
    ch = depolarizing(2, 0.12)
    st1 = channel_stats(ch)
    prod = KrausChannel(tuple(np.kron(a, b) for a in ch.operators for b in ch.operators), arity=2)
    st2 = channel_stats(prod)
    assert st2.beta == pytest.approx(st1.beta**2, abs=1e-12)


def test_channel_json_round_trip():
    ch = amplitude_damping(2, 0.25)
    restored = KrausChannel.from_json(ch.to_json())
    assert restored.arity == 1
    assert all(np.allclose(a, b) for a, b in zip(ch.operators, restored.operators))


def test_nonuniform_kraus_rejected():
    with pytest.raises(InvalidParameterError):
        KrausChannel((np.eye(2), np.eye(3)), arity=1)


def _reference_alpha_beta(channel):
    """(alpha, beta) by the per-operator loops the batched product replaced."""
    ops = list(channel.operators)
    norm = float(channel.qudit_dim() ** (2 * channel.arity))
    alpha = sum(abs(np.trace(e)) ** 2 for e in ops) / norm
    beta = sum(abs(np.trace(ek @ ekp)) ** 2 for ek in ops for ekp in ops) / norm
    return min(float(alpha), 1.0), min(float(beta), 1.0)


def _random_pair_channel(q, rank, rng):
    d = q * q
    z = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    v, _ = np.linalg.qr(z)
    return KrausChannel(tuple(v[k * d : (k + 1) * d] for k in range(rank)), arity=2)


def test_channel_stats_equal_reference_loops():
    """The batched traces give alpha and beta equal (==) to the loops."""
    channels = [amplitude_damping(2, 0.05)]
    for q in (2, 3, 4):
        channels += [identity_channel(q), depolarizing(q, 0.05), dephasing(q, 0.05), depolarizing(q, 1.0)]
    rng = np.random.default_rng(2903)
    channels += [random_channel(int(rng.integers(2, 5)), int(rng.integers(1, 5)), rng) for _ in range(120)]
    channels += [_random_pair_channel(q, rank, rng) for q in (2, 3) for rank in (1, 2, 5)]
    for channel in channels:
        stats = channel_stats(channel)
        assert (stats.alpha, stats.beta) == _reference_alpha_beta(channel), (channel.dim, len(channel.operators))


def test_channels_compare_and_hash_by_value():
    a, b = depolarizing(2, 0.05), depolarizing(2, 0.05)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, depolarizing(2, 0.06)}) == 2
    assert a != depolarizing(2, 0.06)
    assert a != "depolarizing"
    # the same entries on one qudit pair, or as two operators, are other channels
    pair = KrausChannel((np.eye(4),), arity=2)
    assert pair != KrausChannel((np.eye(4),), arity=1)
    assert KrausChannel((np.eye(2),)) != KrausChannel((np.eye(2) / 2, np.eye(2) / 2))


def test_channel_operators_are_read_only_copies():
    given = np.eye(2)
    channel = KrausChannel((given,))
    before = hash(channel)
    given[0, 0] = 7.0  # the caller's array is not the channel's
    assert channel.operators[0][0, 0] == 1 and hash(channel) == before
    assert channel == identity_channel(2)
    with pytest.raises(ValueError):
        channel.operators[0][0, 0] = 7.0

