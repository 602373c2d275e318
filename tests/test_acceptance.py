"""End-to-end acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are pinned here and nowhere else: exact rational
equality between the analytic/combinatorial routes, 1e-9 against the
floating-point twirl contraction, 1e-6 for the n = 40 correlation limit,
and 4 standard errors for Monte Carlo.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rewindlab.circuits import CircuitShape, Family, RecycleTarget, protocol_layout
from rewindlab.closedform import conv_fidelity, hybrid_general, local_fidelity, noisy_conv_fidelity
from rewindlab.noise import channel_stats, depolarizing, identity_channel
from rewindlab.oracle import exact_twirl_fidelity, mc_average_fidelity
from rewindlab.pathcount import BandConstraint, count_paths_dp, count_paths_reflection, count_paths_trig
from rewindlab.statmech import (
    TrivalentRule,
    lattice_from_circuit,
    partition_sum_exhaustive,
    single_wall_fidelity,
    transfer_fidelity,
)

from printed_forms import conv_correlation, hybrid_n3, hybrid_special, noisy_conv_correlation_limit

TWIRL_TOL = 1e-9


def _conv_targets(n):
    targets = [RecycleTarget.single(1), RecycleTarget.single(n - 1), RecycleTarget.prefix(2)]
    if n >= 4:
        targets.append(RecycleTarget.pair(n - 1, 2))
    if n >= 5:
        targets.append(RecycleTarget.single((n + 1) // 2))
        targets.append(RecycleTarget.pair(3, 1))
    return targets


def test_criterion_1_route_equality_core():
    start = time.time()
    checked = twirled = 0
    for q in (2, 3):
        for n in range(3, 7):
            for target in _conv_targets(n):
                shape = CircuitShape(Family.CONVOLUTIONAL, n, 1, q)
                layout = protocol_layout(shape, target)
                lattice = lattice_from_circuit(layout, target)
                closed = conv_fidelity(q, n, target).value
                wall = single_wall_fidelity(lattice).value
                total = partition_sum_exhaustive(lattice).value
                chain = transfer_fidelity(q, n, target).value
                assert closed == wall == total == chain, (q, n, target)
                checked += 1
                twirl = exact_twirl_fidelity(layout, target).value
                assert abs(twirl - float(closed)) < TWIRL_TOL, (q, n, target)
                twirled += 1
    assert twirled == checked
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 1 runtime {elapsed:.1f}s exceeds 2 minutes"
    print(
        f"\nACCEPTANCE 1 PASS: {checked} instances rationally equal across routes, "
        f"{twirled} twirl-verified, {elapsed:.1f}s"
    )


def test_criterion_2_path_counting_theorems():
    start = time.time()
    cases = trig_cases = 0
    # reflection vs DP on a translated grid
    for ax, ay in [(-8, -8), (-8, 0), (-3, 2), (0, 0), (0, -5), (2, 2), (4, -1), (-1, -7)]:
        for dx, dy, s, t in product(range(0, 8), range(0, 8), range(-8, 3), range(-2, 9)):
            if t < s:
                continue
            band = BandConstraint(s, t)
            bx, by = ax + dx, ay + dy
            if abs(bx) > 8 or abs(by) > 8:
                continue
            if not (band.contains(ax, ay) and band.contains(bx, by)):
                continue
            assert count_paths_reflection((ax, ay), (bx, by), band) == count_paths_dp(
                (ax, ay), (bx, by), band
            )
            cases += 1
    # trig vs DP with the origin start (translation covers the rest)
    for dx, dy, s, t in product(range(0, 9), range(0, 9), range(-8, 1), range(0, 9)):
        band = BandConstraint(s, t)
        if not (band.contains(0, 0) and band.contains(dx, dy)):
            continue
        assert count_paths_trig((0, 0), (dx, dy), band) == count_paths_dp((0, 0), (dx, dy), band)
        trig_cases += 1
    elapsed = time.time() - start
    assert cases > 15000 and trig_cases > 2000
    assert elapsed < 60, f"criterion 2 runtime {elapsed:.1f}s exceeds 1 minute"
    print(
        f"\nACCEPTANCE 2 PASS: reflection==DP on {cases} cases, trig==DP on {trig_cases} cases, "
        f"{elapsed:.1f}s"
    )


def test_criterion_3_decay_rate():
    brackets = {
        1: lambda q, n: Fraction(1),
        2: lambda q, n: 1 + Fraction(n, q**2) + Fraction(2, q**4),
        3: lambda q, n: 1
        + Fraction(n + 2, q**2)
        + Fraction((1 + n) * (2 + n), 2 * q**4)
        + Fraction(2 * (2 + n), q**6)
        + Fraction(3, q**8),
    }
    checked = 0
    for q in (2, 3, 5):
        lam = Fraction(q * q, q * q + 1)
        # convolutional: exact geometric decay at every n
        for n in range(3, 24):
            r = (1 - conv_fidelity(q, n + 1, RecycleTarget.single(1)).value) / (
                1 - conv_fidelity(q, n, RecycleTarget.single(1)).value
            )
            assert r == lam
            checked += 1
        # hybrid m = 1, 2, 3: dividing out the polynomial bracket leaves
        # exactly lambda, so the log-slope equals log(lambda) identically
        for m in (1, 2, 3):
            for n in range(m + 3, m + 13):
                gap_n = 1 - hybrid_special(q, n, m)
                gap_n1 = 1 - hybrid_special(q, n + 1, m)
                ratio = (gap_n1 / gap_n) * (brackets[m](q, n) / brackets[m](q, n + 1))
                assert ratio == lam, (q, m, n)
                slope_err = abs(float(ratio) / float(lam) - 1.0)
                assert slope_err < 1e-9
                checked += 1
    print(f"\nACCEPTANCE 3 PASS: decay rate q^2/(q^2+1) exact on {checked} ratios")


def test_criterion_4_hybrid_specials():
    start = time.time()
    for q in (2, 3):
        for m, nmin in ((1, 4), (2, 5), (3, 6)):
            for n in range(nmin, 13):
                assert hybrid_special(q, n, m) == hybrid_general(q, n, m), (q, n, m)
        for m in range(1, 7):
            shape = CircuitShape(Family.HYBRID, 3, m, q)
            target = RecycleTarget.single(1)
            lattice = lattice_from_circuit(protocol_layout(shape, target), target)
            assert hybrid_n3(q, m) == partition_sum_exhaustive(lattice).value
    target = RecycleTarget.single(1)
    twirled = 0
    for n in (3, 4, 5, 6):
        for m in (1, 2, 3):
            value = hybrid_n3(2, m) if n == 3 else hybrid_general(2, n, m)
            layout = protocol_layout(CircuitShape(Family.HYBRID, n, m, 2), target)
            twirl = exact_twirl_fidelity(layout, target).value
            assert abs(twirl - float(value)) < TWIRL_TOL, (n, m)
            twirled += 1
    print(
        f"\nACCEPTANCE 4 PASS: general sum == specials (m=1,2,3 to n=12; n=3 tower), "
        f"{twirled} twirl checks, {time.time() - start:.1f}s"
    )


def test_criterion_5_local_circuits():
    start = time.time()
    target = RecycleTarget.single(1)
    # perfect restoration: closed form and twirl
    for n in (4, 6, 8):
        for m in range(2, n - 1, 2):
            assert local_fidelity(2, n, m).value == 1, (n, m)
            assert local_fidelity(3, n, m).value == 1, (n, m)
    for n in (4, 6):
        for m in range(2, n - 1, 2):
            layout = protocol_layout(CircuitShape(Family.LOCAL, n, m, 2), target)
            assert abs(exact_twirl_fidelity(layout, target).value - 1.0) < 1e-10
    # deep regime at n = 4 approaches 1/q monotonically, twirl-checked
    values = [local_fidelity(2, 4, m).value for m in range(4, 26, 2)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert 0.5 < float(values[-1]) < 0.5001
    for m in (4, 6, 8, 10):
        layout = protocol_layout(CircuitShape(Family.LOCAL, 4, m, 2), target)
        twirl = exact_twirl_fidelity(layout, target).value
        assert abs(twirl - float(local_fidelity(2, 4, m).value)) < TWIRL_TOL
    # the m -> infinity three-qudit tower limit is 1/q
    for q in (2, 3):
        assert abs(float(hybrid_n3(q, 200)) - 1 / q) < 1e-30
    print(f"\nACCEPTANCE 5 PASS: F=1 for n>=m+2 (n<=8), deep n=4 monotone to 1/q, {time.time() - start:.1f}s")


def test_criterion_6_correlations():
    for q in (2, 3):
        for n in range(4, 8):
            for i in range(2, n):
                for j in range(1, i):
                    direct = conv_correlation(q, n, i, j).value
                    composed = (
                        conv_fidelity(q, n, RecycleTarget.pair(i, j)).value
                        - conv_fidelity(q, n, RecycleTarget.single(i)).value
                        * conv_fidelity(q, n, RecycleTarget.single(j)).value
                    )
                    assert direct == composed, (q, n, i, j)
    assert conv_correlation(2, 5, 3, 2).value == Fraction(576, 12500)
    target_pair = RecycleTarget.pair(3, 2)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), target_pair)
    f_pair = exact_twirl_fidelity(layout, target_pair).value
    f3 = exact_twirl_fidelity(
        protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), RecycleTarget.single(3)),
        RecycleTarget.single(3),
    ).value
    f2 = exact_twirl_fidelity(
        protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 5, 1, 2), RecycleTarget.single(2)),
        RecycleTarget.single(2),
    ).value
    assert abs((f_pair - f3 * f2) - 576 / 12500) < TWIRL_TOL
    # the same identity on the twirl at n = 40, far from both ends
    n = 40
    twirled = {}
    for target in (RecycleTarget.pair(21, 20), RecycleTarget.single(21), RecycleTarget.single(20)):
        layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, 2), target)
        twirled[target] = exact_twirl_fidelity(layout, target).value
    corr = twirled[RecycleTarget.pair(21, 20)] - twirled[RecycleTarget.single(21)] * twirled[RecycleTarget.single(20)]
    assert abs(corr - float(conv_correlation(2, n, 21, 20).value)) < TWIRL_TOL
    # exponential decay in n - j at rate q^2/(q^2+1), bracket divided out
    for q in (2, 3):
        lam = Fraction(q * q, q * q + 1)
        for i, j in [(3, 2), (4, 1)]:
            vals = [conv_correlation(q, n, i, j).value / (1 - lam ** (n - i)) for n in range(6, 10)]
            assert all(b / a == lam for a, b in zip(vals, vals[1:]))
    print("\nACCEPTANCE 6 PASS: correlation identity exact, twirl-confirmed at n = 5 and 40, decay rate exact")


def test_criterion_7_noise():
    start = time.time()
    stats_id = channel_stats(identity_channel(2))
    assert (stats_id.alpha, stats_id.beta) == (1.0, 1.0)
    # transfer matrix vs twirl-with-channel; the recycled boundary carries
    # the adjoint dressing of the final rewinding gate's channel
    target = RecycleTarget.single(1)
    pairs = 0
    for p in (0.01, 0.04):
        channel = depolarizing(2, p)
        stats = channel_stats(channel)
        for n in (4, 5, 6):
            layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, n, 1, 2), target)
            twirl = exact_twirl_fidelity(layout, target, channel=channel).value
            chain = transfer_fidelity(2, n, target, stats.alpha, stats.beta, stats.recycled_boundary).value
            assert abs(twirl - chain) < TWIRL_TOL, (p, n)
            # the closed form with the same dressed boundary, independently
            dressed = noisy_conv_fidelity(2, n, stats.alpha, stats.beta, target, stats.recycled_boundary).value
            assert abs(twirl - dressed) < TWIRL_TOL, (p, n)
            # the exponent convention: the closed noisy form with the
            # noiseless n-i exponent matches the same chain (undressed)
            undressed = transfer_fidelity(2, n, target, stats.alpha, stats.beta).value
            closed = noisy_conv_fidelity(2, n, stats.alpha, stats.beta, target).value
            assert abs(closed - undressed) < 1e-12
            pairs += 1
    # correlation limit as the n -> infinity transfer correlation at beta = 1
    for alpha in (0.5, 0.6):
        for gap in (1, 2, 3):
            lim = noisy_conv_correlation_limit(2, alpha, gap).value
            n = 40
            i, j = n // 2 + gap, n // 2
            corr = (
                transfer_fidelity(2, n, RecycleTarget.pair(i, j), alpha, 1.0).value
                - transfer_fidelity(2, n, RecycleTarget.single(i), alpha, 1.0).value
                * transfer_fidelity(2, n, RecycleTarget.single(j), alpha, 1.0).value
            )
            assert abs(corr - lim) < 1e-6, (alpha, gap)
    print(f"\nACCEPTANCE 7 PASS: transfer==closed==twirl at p in (0.01, 0.04) over n=4..6 ({pairs} cases), "
          f"correlation limit at n=40, {time.time() - start:.1f}s")


def test_criterion_8_single_wall_sufficiency():
    cases = [
        (Family.CONVOLUTIONAL, n, 1, q, t)
        for q in (2, 3)
        for n in (3, 4, 5, 6, 7)
        for t in (RecycleTarget.single(1), RecycleTarget.prefix(2), RecycleTarget.single(n - 1))
    ]
    cases += [
        (Family.HYBRID, 4, 4, 2, RecycleTarget.single(1)),
        (Family.HYBRID, 5, 3, 2, RecycleTarget.single(1)),
        (Family.HYBRID, 6, 3, 3, RecycleTarget.single(1)),
        (Family.HYBRID, 7, 3, 2, RecycleTarget.single(1)),
        (Family.LOCAL, 6, 6, 2, RecycleTarget.single(1)),
        (Family.LOCAL, 8, 6, 2, RecycleTarget.single(1)),
        (Family.LOCAL, 4, 10, 3, RecycleTarget.single(1)),
    ]
    checked = 0
    for family, n, m, q, target in cases:
        layout = protocol_layout(CircuitShape(family, n, m, q), target)
        lattice = lattice_from_circuit(layout, target)
        assert lattice.free_node_count <= 24
        assert single_wall_fidelity(lattice).value == partition_sum_exhaustive(lattice).value
        checked += 1
    print(f"\nACCEPTANCE 8 PASS: single-wall sum == exhaustive sum on {checked} lattices (<= 24 nodes)")


def test_criterion_9_monte_carlo():
    start = time.time()
    target = RecycleTarget.single(1)
    layout = protocol_layout(CircuitShape(Family.CONVOLUTIONAL, 4, 1, 2), target)
    exact = float(conv_fidelity(2, 4, target).value)
    hits = 0
    seeds = range(20)
    for seed in seeds:
        res = mc_average_fidelity(layout, target, samples=100_000, rng=seed)
        if abs(res.value - exact) <= 4 * res.stderr:
            hits += 1
    elapsed = time.time() - start
    assert hits >= 19, f"only {hits}/20 seeds within 4 standard errors"
    assert elapsed < 300, f"criterion 9 runtime {elapsed:.1f}s exceeds 5 minutes"
    print(f"\nACCEPTANCE 9 PASS: {hits}/20 seeds within 4 sigma of {exact}, {elapsed:.1f}s")
