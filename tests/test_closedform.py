from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.closedform import (
    HYBRID_M_CAP,
    HYBRID_N_CAP,
    _seg_count,
    conv_correlation,
    conv_fidelity,
    hybrid_fidelity,
    hybrid_general,
    hybrid_n3,
    hybrid_special,
    local_deep,
    local_fidelity,
    local_shallow,
    noisy_conv_correlation_limit,
    noisy_conv_fidelity,
    noisy_lambda2,
    noisy_sup_fidelity,
)
from rewindlab.errors import (
    DivergentEigenvalueError,
    InvalidParameterError,
    InvalidTargetError,
    TooLargeError,
    UnsupportedRegimeError,
)
from rewindlab.noise import amplitude_damping, channel_stats, dephasing, depolarizing, random_channel
from rewindlab.oracle import exact_twirl_fidelity
from rewindlab.statmech import lattice_from_circuit, partition_sum_exhaustive, transfer_fidelity


def lattice_value(family, n, m, q, target=None):
    target = target or RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(family, n, m, q), target)
    return partition_sum_exhaustive(lattice_from_circuit(layout, target)).value


def lam(q):
    return Fraction(q * q, q * q + 1)


# -- convolutional -----------------------------------------------------------


def test_conv_known_values():
    assert conv_fidelity(2, 3, RecycleTarget.single(1)).value == Fraction(3, 5)
    assert conv_fidelity(2, 5, RecycleTarget.pair(3, 2)).value == Fraction(69, 125)
    assert conv_fidelity(2, 5, RecycleTarget.prefix(2)).value == Fraction(77, 125)


def test_conv_matches_lattice_grid():
    for q in (2, 3):
        for n in range(3, 7):
            targets = [RecycleTarget.single(i) for i in range(1, n)]
            targets += [RecycleTarget.prefix(k) for k in range(1, n)]
            targets += [RecycleTarget.pair(i, j) for i in range(2, n) for j in range(1, i)]
            for t in targets:
                assert conv_fidelity(q, n, t).value == lattice_value(Family.CONVOLUTIONAL, n, 1, q, t), t


def test_single_limit_and_first_two_equal():
    for q in (2, 3, 5):
        assert conv_fidelity(q, 3, RecycleTarget.single(1)).value == conv_fidelity(
            q, 3, RecycleTarget.single(2)
        ).value
        # 1 - F shrinks geometrically toward zero
        gaps = [1 - conv_fidelity(q, n, RecycleTarget.single(1)).value for n in range(3, 200, 14)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert float(gaps[-1]) < 1e-2


def test_prefix_monotone_in_k():
    for q in (2, 3):
        for n in (4, 6, 8):
            values = [conv_fidelity(q, n, RecycleTarget.prefix(k)).value for k in range(1, n)]
            assert all(a >= b for a, b in zip(values, values[1:]))


def test_prefix_one_equals_single_one():
    for q in (2, 3):
        for n in (3, 5, 7):
            assert conv_fidelity(q, n, RecycleTarget.prefix(1)).value == conv_fidelity(
                q, n, RecycleTarget.single(1)
            ).value


def test_correlation_identity_and_value():
    assert conv_correlation(2, 5, 3, 2).value == Fraction(576, 12500)
    for q in (2, 3):
        for n in (4, 5, 6, 7):
            for i in range(2, n):
                for j in range(1, i):
                    pair = conv_fidelity(q, n, RecycleTarget.pair(i, j)).value
                    fi = conv_fidelity(q, n, RecycleTarget.single(i)).value
                    fj = conv_fidelity(q, n, RecycleTarget.single(j)).value
                    assert conv_correlation(q, n, i, j).value == pair - fi * fj


def test_correlation_decay_structure():
    q = 2
    # C(n) = ((q-1)/q)^2 lam^(n-j) (1 - lam^(n-i)): dividing out the bracket
    # leaves an exact geometric sequence with ratio lam
    for i, j in [(3, 2), (4, 2)]:
        vals = []
        for n in (6, 7, 8, 9):
            c = conv_correlation(q, n, i, j).value
            vals.append(c / (1 - lam(q) ** (n - i)))
        assert all(b / a == lam(q) for a, b in zip(vals, vals[1:]))
    # i = n-1 bracket value
    n, i = 6, 5
    assert 1 - lam(q) ** (n - i) == Fraction(1, q * q + 1)


def test_conv_index_errors():
    with pytest.raises(InvalidTargetError):
        conv_fidelity(2, 5, RecycleTarget.single(5))
    with pytest.raises(InvalidTargetError):
        conv_correlation(2, 5, 5, 2)


# -- hybrid ------------------------------------------------------------------


def _reference_touch_sum(q, start, dest, off, band, max_l):
    """Touch sum by enumerating every ordered touch set (the former closed form).

    One product of segment counts per subset of touch positions, each
    weighted by ((1+q^2)/q^2)^(number of touches).
    """
    s, t = band
    gamma = Fraction(q * q + 1, q * q)
    sx, sy = start
    dx, dy = dest
    total = Fraction(_seg_count(sx, sy, dx, dy, s, t))  # no touches
    if max_l < 1:
        return total
    candidates = [x for x in range(sx, dx)]
    for l in range(1, min(max_l, len(candidates)) + 1):
        for touches in combinations(candidates, l):
            w = _seg_count(sx, sy, touches[0], touches[0] + off, s, t)
            if w == 0:
                continue
            for a, b in zip(touches, touches[1:]):
                w *= _seg_count(a + 1, a + off, b, b + off, s, t)
                if w == 0:
                    break
            if w == 0:
                continue
            w *= _seg_count(touches[-1] + 1, touches[-1] + off, dx, dy, s, t)
            total += gamma**l * w
    return total


def _reference_hybrid_general(q, n, m):
    lam_q, w = lam(q), Fraction(q, q * q + 1)
    off, band, dest = n - 2, (0, n - 3), (m, m + n - 2)
    total = Fraction(1, q) * lam_q ** (n - 2)
    for e in range(1, m):
        weight = w ** (n + 2 * m - 2 - 2 * e) * Fraction(q) ** (n - 3)
        total += weight * _reference_touch_sum(q, (e, e - 1), dest, off, band, max_l=m - e)
    for k in range(0, n - 2):
        weight = Fraction(1, q ** (2 * m)) * lam_q ** (n + 2 * m - 4 - k)
        total += weight * _reference_touch_sum(q, (1, k + 1), dest, off, band, max_l=m - 1)
    return total


def _reference_local(q, n, m):
    if m >= n:
        return _reference_hybrid_general(q, n, (m - n) // 2 + 1)
    w = Fraction(q, q * q + 1)
    total = lam(q) ** (m - 2)
    for k in range(0, (m - 4) // 2 + 1):
        weight = w ** (m - 2) * Fraction(q) ** (m - 4 - 2 * k)
        count = _reference_touch_sum(q, (-k, n - m - 1 + k), (1, n - 4), n - 4, (-1, n - 5), max_l=m)
        total += weight * count
    return total


def _assert_exact(value, reference):
    assert type(value) is Fraction and value == reference


def test_touch_recursion_matches_enumeration_on_sweep_grids():
    # the hybrid and local sweeps of the formula_curves benchmark workload
    for q in (2, 3):
        for n in range(4, 25):
            for m in range(1, 8):
                _assert_exact(hybrid_general(q, n, m), _reference_hybrid_general(q, n, m))
        for n in range(4, 25, 2):
            for m in range(2, 21, 2):
                _assert_exact(local_fidelity(q, n, m).value, _reference_local(q, n, m))


def test_touch_recursion_matches_enumeration_at_caps():
    n, m = HYBRID_N_CAP, HYBRID_M_CAP
    for q in (2, 3, 5):
        reference = _reference_hybrid_general(q, n, m)
        _assert_exact(hybrid_general(q, n, m), reference)
        # the deepest local circuit the closed form reaches is this hybrid tower
        _assert_exact(local_fidelity(q, n, 2 * m + n - 2).value, reference)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(4, HYBRID_N_CAP),
    st.integers(1, HYBRID_M_CAP),
    st.integers(1, HYBRID_N_CAP // 2 - 1),
)
def test_touch_recursion_matches_enumeration_property(q, n, m, layers):
    _assert_exact(hybrid_general(q, n, m), _reference_hybrid_general(q, n, m))
    n_local = n - n % 2
    for m_local in (min(2 * layers, n_local - 2), n_local + 2 * (m - 1)):  # shallow, deep
        _assert_exact(local_fidelity(q, n_local, m_local).value, _reference_local(q, n_local, m_local))


def test_hybrid_specials_match_general():
    for q in (2, 3, 5):
        for m, nmin in ((1, 4), (2, 5), (3, 6)):
            for n in range(nmin, HYBRID_N_CAP + 1):
                assert hybrid_special(q, n, m) == hybrid_general(q, n, m), (q, n, m)


def test_hybrid_m1_equals_convolutional():
    for q in (2, 3):
        for n in range(4, HYBRID_N_CAP + 1):
            assert hybrid_general(q, n, 1) == conv_fidelity(q, n, RecycleTarget.single(1)).value


def test_hybrid_general_matches_lattice():
    for q in (2, 3):
        for n in (4, 5, 6):
            for m in (1, 2, 3, 4):
                if (n - 2) * m > 20:
                    continue
                assert hybrid_general(q, n, m) == lattice_value(Family.HYBRID, n, m, q), (q, n, m)


def test_hybrid_n3_tower():
    assert hybrid_n3(2, 2) == Fraction(13, 25)
    for q in (2, 3):
        for m in (1, 2, 3, 4, 5):
            assert hybrid_fidelity(q, 3, m).value == lattice_value(Family.HYBRID, 3, m, q)
    # m -> infinity limit is 1/q
    assert abs(float(hybrid_n3(2, 60)) - 0.5) < 1e-40


def test_hybrid_caps_and_domain():
    with pytest.raises(TooLargeError):
        hybrid_general(2, 6, 13)
    with pytest.raises(UnsupportedRegimeError):
        hybrid_general(2, 3, 2)
    with pytest.raises(InvalidTargetError):
        hybrid_fidelity(2, 2, 1)


# -- local ---------------------------------------------------------------------


def test_local_shallow_is_one():
    for q in (2, 3, 5):
        for n in (4, 6, 8, 10):
            for m in range(2, n - 1, 2):
                assert local_shallow(q, n, m) == 1, (q, n, m)
                assert local_fidelity(q, n, m).value == 1


def test_local_deep_matches_lattice():
    for q in (2, 3):
        for n, m in [(4, 4), (4, 6), (4, 8), (6, 6), (6, 8)]:
            assert local_deep(q, n, m) == lattice_value(Family.LOCAL, n, m, q), (q, n, m)


def test_local_deep_approaches_one_over_q():
    for q in (2, 3):
        vals = [local_deep(q, 4, m) for m in range(4, 28, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert abs(float(vals[-1]) - 1 / q) < 1e-4


def test_local_regime_gap_rejected():
    # even-parity geometry leaves no m strictly between n-2 and n
    with pytest.raises(InvalidTargetError):
        local_fidelity(2, 6, 5)
    with pytest.raises(InvalidTargetError):
        local_fidelity(2, 5, 4)


# -- noisy forms ----------------------------------------------------------------


def test_noisy_sup_is_one_without_noise():
    for q in (2, 3, 7):
        assert noisy_sup_fidelity(q, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_noisy_closed_vs_transfer_two_paths():
    for q in (2, 3):
        for (a, b) in [(0.97, 0.9412), (0.9, 0.95)]:
            for n in (4, 7, 11):
                for i in (1, 2, 3):
                    c = noisy_conv_fidelity(q, n, a, b, RecycleTarget.single(i)).value
                    t = float(transfer_fidelity(q, n, RecycleTarget.single(i), a, b).value)
                    assert c == pytest.approx(t, abs=1e-12)


def test_noisy_exponent_convention():
    # the noiseless limit of the closed form is the noiseless formula with
    # the same n - i exponent (not n - i + 1), exactly with exact inputs
    for q in (2, 3):
        for n in (5, 8):
            for i in (1, 2, 3):
                target = RecycleTarget.single(i)
                noisy = noisy_conv_fidelity(q, n, Fraction(1), Fraction(1), target, (1, 1)).value
                assert noisy == conv_fidelity(q, n, target).value


def test_noisy_sup_matches_transfer_asymptote():
    stats = channel_stats(depolarizing(2, 0.04))
    sup = noisy_sup_fidelity(2, stats.alpha, stats.beta)
    assert sup < 1
    far = float(transfer_fidelity(2, 300, RecycleTarget.single(1), stats.alpha, stats.beta).value)
    assert sup == pytest.approx(far, abs=1e-12)


def _noisy_channels():
    """Channels with a dressed recycled boundary (all but dephasing) and one without."""
    return {
        "dep2": depolarizing(2, 0.05),
        "deph2": dephasing(2, 0.05),
        "ad2": amplitude_damping(2, 0.05),
        "rand2": random_channel(2, 2, np.random.default_rng(2301)),
        "dep3": depolarizing(3, 0.05),
    }


def _noisy_closed(channel, n, i):
    stats = channel_stats(channel)
    q = channel.qudit_dim()
    return noisy_conv_fidelity(q, n, stats.alpha, stats.beta, RecycleTarget.single(i), stats.recycled_boundary).value


def test_noisy_closed_never_calls_transfer(monkeypatch):
    from rewindlab import statmech

    channels = _noisy_channels()
    expected = {}
    for name, channel in channels.items():
        stats = channel_stats(channel)
        params = (stats.alpha, stats.beta, stats.recycled_boundary)
        for n in (4, 7, 11):
            for i in (1, 2, 3):
                chain = transfer_fidelity(channel.qudit_dim(), n, RecycleTarget.single(i), *params).value
                expected[name, n, i] = float(chain)

    def no_chain(*args, **kwargs):
        raise AssertionError("the closed form must not need the chain product")

    monkeypatch.setattr(statmech, "transfer_fidelity", no_chain)
    for (name, n, i), chain in expected.items():
        assert _noisy_closed(channels[name], n, i) == pytest.approx(chain, abs=1e-12), (name, n, i)


def test_noisy_closed_matches_twirl_with_dressed_boundary():
    channels = _noisy_channels()
    cases = [(name, n) for name in ("dep2", "ad2", "rand2") for n in (3, 4, 5)] + [("dep3", 3)]
    for name, n in cases:
        channel = channels[name]
        q = channel.qudit_dim()
        for i in range(1, n):
            target = RecycleTarget.single(i)
            layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, q), target)
            twirl = exact_twirl_fidelity(layout, target, channel=channel).value
            assert _noisy_closed(channel, n, i) == pytest.approx(twirl, abs=1e-12), (name, n, i)


def test_noisy_closed_matches_transfer_up_to_n200():
    for name, channel in _noisy_channels().items():
        stats = channel_stats(channel)
        q = channel.qudit_dim()
        params = (stats.alpha, stats.beta, stats.recycled_boundary)
        for n in (3, 6, 13, 40, 100, 200):
            for i in sorted({1, 2, 3, n // 2, n - 1} - {n}):
                chain = float(transfer_fidelity(q, n, RecycleTarget.single(i), *params).value)
                assert _noisy_closed(channel, n, i) == pytest.approx(chain, abs=1e-12), (name, n, i)


def _printed_undressed_form(q, n, alpha, beta, i):
    """The paper's form for an undressed boundary: sup - (q-1)/q (alpha q^2 - 1)/D lam2^(n - max(i, 2))."""
    den = (1 - alpha * beta) * q**4 + alpha * q * q - 1
    lam2 = noisy_lambda2(q, alpha, beta)
    return noisy_sup_fidelity(q, alpha, beta) - (q - 1) / q * (alpha * q * q - 1) / den * lam2 ** (n - max(i, 2))


def test_undressed_closed_equals_printed_form():
    for q in (2, 3, 5):
        for alpha in (0.5, 0.8, 0.97, 1.0):
            for beta in (0.6, 0.9, 1.0):
                for n in (3, 4, 7, 15, 30):
                    for i in range(1, n):
                        value = noisy_conv_fidelity(q, n, alpha, beta, RecycleTarget.single(i)).value
                        assert value == pytest.approx(_printed_undressed_form(q, n, alpha, beta, i), abs=1e-14)


def test_noisy_closed_out_of_domain_is_parameter_error():
    for alpha, beta in [(0.0, 0.9), (-0.1, 0.9), (1.2, 0.9), (0.9, 0.0), (0.9, -0.5)]:
        with pytest.raises(InvalidParameterError):
            noisy_conv_fidelity(2, 5, alpha, beta)


def test_noisy_divergence_guard():
    with pytest.raises(DivergentEigenvalueError):
        noisy_conv_fidelity(2, 5, 1.0, 1.2)


def test_correlation_limit_preserves_ratio_and_vanishes_cleanly():
    q = 2
    assert noisy_conv_correlation_limit(q, 1.0, 3).value == pytest.approx(0.0, abs=1e-15)
    for alpha in (0.9, 0.7):
        vals = [noisy_conv_correlation_limit(q, alpha, g).value for g in (1, 2, 3, 4)]
        for a, b in zip(vals, vals[1:]):
            assert b / a == pytest.approx(alpha * q * q / (q * q + 1), abs=1e-13)


def test_correlation_limit_is_transfer_limit():
    q = 2
    for alpha in (0.5, 0.6):
        for gap in (1, 2):
            lim = noisy_conv_correlation_limit(q, alpha, gap).value
            n = 40
            i, j = n // 2 + gap, n // 2
            fij = transfer_fidelity(q, n, RecycleTarget.pair(i, j), alpha, 1.0).value
            fi = transfer_fidelity(q, n, RecycleTarget.single(i), alpha, 1.0).value
            fj = transfer_fidelity(q, n, RecycleTarget.single(j), alpha, 1.0).value
            assert fij - fi * fj == pytest.approx(lim, abs=1e-7)
