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
from rewindlab.oracle import haar_unitary


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
    assert stats == ChannelStats(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    stats3 = channel_stats(identity_channel(3))
    for field in ("alpha", "beta", "beta_u", "beta_d", "recycled_one", "recycled_s"):
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


def _dense_fold_contraction(ops, q, out_u):
    """Reference route for beta_u/beta_d: dense q^8 x q^8 matrices.

    Legs after the kron of the four copies are ordered
    (u1 d1 u2 d2 u3 d3 u4 d4); identity-type states pair copies (1,2)(3,4),
    swap-type states pair copies (1,4)(2,3).
    """

    def pair_vec(kind):
        v = np.zeros((q,) * 4)
        for a in range(q):
            for b in range(q):
                if kind == "one":
                    v[a, a, b, b] = 1.0
                else:
                    v[a, b, b, a] = 1.0
        return v

    def boundary(u_kind, d_kind):
        u = pair_vec(u_kind)
        d = pair_vec(d_kind)
        full = np.einsum("aceg,bdfh->abcdefgh", u, d)  # (u1 d1 u2 d2 ...)
        return full.reshape(-1)

    bra = boundary(out_u, "s")
    ket = boundary("s", "s")
    total = 0j
    for ek in ops:
        for ekp in ops:
            m = np.kron(np.kron(ek.conj().T, ek.T), np.kron(ekp, ekp.conj()))
            total += bra @ m @ ket
    return total / q**3


def test_beta_ud_two_evaluation_routes():
    for ch in (depolarizing(2, 0.12), amplitude_damping(2, 0.2)):
        st = channel_stats(ch)
        two_site = [np.kron(a, b) for a in ch.operators for b in ch.operators]
        dense_u = _dense_fold_contraction(two_site, 2, "one")
        dense_d = _dense_fold_contraction(two_site, 2, "s")
        # beta_d swaps the roles of the u/d output pairings
        assert abs(dense_u.imag) < 1e-12 and abs(dense_d.imag) < 1e-12
        assert st.beta_u == pytest.approx(dense_u.real, abs=1e-12)
        assert st.beta_d == pytest.approx(
            _dense_swap_ud(two_site, 2), abs=1e-12
        )


def _dense_swap_ud(ops, q):
    """beta_d reference: <s|_u <1|_d M |s>_u |s>_d."""

    def pair_vec(kind):
        v = np.zeros((q,) * 4)
        for a in range(q):
            for b in range(q):
                if kind == "one":
                    v[a, a, b, b] = 1.0
                else:
                    v[a, b, b, a] = 1.0
        return v

    u_bra, d_bra = pair_vec("s"), pair_vec("one")
    u_ket, d_ket = pair_vec("s"), pair_vec("s")
    bra = np.einsum("aceg,bdfh->abcdefgh", u_bra, d_bra).reshape(-1)
    ket = np.einsum("aceg,bdfh->abcdefgh", u_ket, d_ket).reshape(-1)
    total = 0j
    for ek in ops:
        for ekp in ops:
            m = np.kron(np.kron(ek.conj().T, ek.T), np.kron(ekp, ekp.conj()))
            total += bra @ m @ ket
    value = total / q**3
    assert abs(value.imag) < 1e-12
    return value.real


def _pairwise_fold_contraction(ops, q, out_u, out_d):
    """Reference for the factorised contraction: one einsum per (k, k') pair."""
    t = [e.reshape(q, q, q, q) for e in ops]

    def pair(kind, a, b):
        return (a, a, b, b) if kind == "one" else (a, b, b, a)

    uo, do, ui, di = pair(out_u, "a", "b"), pair(out_d, "c", "d"), pair("s", "e", "f"), pair("s", "g", "h")
    subs = ",".join(f"{uo[i]}{do[i]}{ui[i]}{di[i]}" for i in range(4)) + "->"
    total = 0j
    for ek in t:
        a1 = ek.conj().transpose(2, 3, 0, 1)
        a2 = ek.transpose(2, 3, 0, 1)
        for ekp in t:
            total += np.einsum(subs, a1, a2, ekp, ekp.conj())
    return total


def _stats_channels():
    pair_u = haar_unitary(4, np.random.default_rng(3725))
    rank3 = random_channel(4, 3, np.random.default_rng(4409))
    return {
        "dep2": depolarizing(2, 0.05),
        "deph2": dephasing(2, 0.05),
        "ad2": amplitude_damping(2, 0.05),
        "rand2": random_channel(2, 2, np.random.default_rng(2301)),
        "dep3": depolarizing(3, 0.05),
        "pair2": KrausChannel((np.sqrt(0.95) * np.eye(4), np.sqrt(0.05) * pair_u), arity=2),
        "rank3-arity2": KrausChannel(rank3.operators, arity=2),
    }


@pytest.mark.parametrize("name", sorted(_stats_channels()))
def test_beta_ud_match_pairwise_loop(name):
    ch = _stats_channels()[name]
    q = ch.qudit_dim()
    two_site = list(ch.operators) if ch.arity == 2 else [np.kron(a, b) for a in ch.operators for b in ch.operators]
    st = channel_stats(ch)
    for got, out_u, out_d in ((st.beta_u, "one", "s"), (st.beta_d, "s", "one")):
        want = _pairwise_fold_contraction(two_site, q, out_u, out_d) / q**3
        assert abs(want.imag) < 1e-12
        assert got == pytest.approx(want.real, abs=1e-12)


def test_product_lift_identities():
    # for E x E lifts, beta at arity 2 is the square of the single-qudit
    # beta, and beta_u/beta_d reproduce the lifted statistics exactly
    ch = depolarizing(2, 0.12)
    st1 = channel_stats(ch)
    prod = KrausChannel(tuple(np.kron(a, b) for a in ch.operators for b in ch.operators), arity=2)
    st2 = channel_stats(prod)
    assert st2.beta == pytest.approx(st1.beta**2, abs=1e-12)
    assert st2.beta_u == pytest.approx(st1.beta_u, abs=1e-12)
    assert st2.beta_d == pytest.approx(st1.beta_d, abs=1e-12)


def test_channel_json_round_trip():
    ch = amplitude_damping(2, 0.25)
    restored = KrausChannel.from_json(ch.to_json())
    assert restored.arity == 1
    assert all(np.allclose(a, b) for a, b in zip(ch.operators, restored.operators))


def test_nonuniform_kraus_rejected():
    with pytest.raises(InvalidParameterError):
        KrausChannel((np.eye(2), np.eye(3)), arity=1)
