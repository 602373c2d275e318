import os
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import rewindlab
from rewindlab.closedform import _seg_count
from rewindlab.errors import IntegralityError, PreconditionError
from rewindlab.pathcount import (
    BandConstraint,
    count_paths_dp,
    count_paths_reflection,
    count_paths_relaxed,
    count_paths_trig,
)


def test_spec_values():
    assert count_paths_reflection((0, 0), (2, 2), BandConstraint(-10, 10)) == 6
    assert count_paths_reflection((0, 0), (2, 2), BandConstraint(-1, 1)) == 4
    assert count_paths_reflection((0, 0), (3, 3), BandConstraint(-7, 0)) == 5  # Catalan C_3
    assert count_paths_trig((0, 0), (2, 2), BandConstraint(-1, 1)) == 4
    assert count_paths_trig((0, 0), (3, 3), BandConstraint(-7, 0)) == 5
    assert count_paths_trig((1, -1), (1, -1), BandConstraint(-3, 2)) == 1  # empty path
    assert count_paths_dp((0, 0), (2, 1), BandConstraint(-100, 100)) == 3
    assert count_paths_dp((0, 0), (1, 1), BandConstraint(0, 0)) == 0
    assert count_paths_dp((0, 0), (5, 5), BandConstraint(-100, 100)) == 252


def test_wide_band_is_binomial():
    band = BandConstraint(-50, 50)
    for (a, b, c, d) in [(0, 0, 4, 3), (-2, 1, 3, 5), (1, 1, 7, 2)]:
        expected = comb(c - a + d - b, c - a)
        assert count_paths_reflection((a, b), (c, d), band) == expected
        assert count_paths_dp((a, b), (c, d), band) == expected


def test_endpoint_outside_band_raises():
    with pytest.raises(PreconditionError):
        count_paths_reflection((0, 5), (2, 6), BandConstraint(-1, 1))
    with pytest.raises(PreconditionError):
        count_paths_trig((0, 0), (0, 4), BandConstraint(-1, 1))
    with pytest.raises(PreconditionError):
        BandConstraint(2, 1)


coords = st.integers(min_value=-6, max_value=6)
span = st.integers(min_value=0, max_value=6)


@settings(max_examples=300, deadline=None)
@given(coords, coords, span, span, st.integers(-8, 8), st.integers(0, 8))
def test_backends_agree(ax, ay, dx, dy, s, width):
    t = s + width
    band = BandConstraint(s, t)
    bx, by = ax + dx, ay + dy
    if not (band.contains(ax, ay) and band.contains(bx, by)):
        return
    dp = count_paths_dp((ax, ay), (bx, by), band)
    assert count_paths_reflection((ax, ay), (bx, by), band) == dp
    assert count_paths_trig((ax, ay), (bx, by), band) == dp


@settings(max_examples=200, deadline=None)
@given(coords, coords, span, span, st.integers(-8, 2), st.integers(0, 8))
def test_band_widening_monotone(ax, ay, dx, dy, s, width):
    t = s + width
    band = BandConstraint(s, t)
    bx, by = ax + dx, ay + dy
    wider = BandConstraint(s - 1, t + 1)
    assert count_paths_dp((ax, ay), (bx, by), wider) >= count_paths_dp((ax, ay), (bx, by), band)


def _brute_relaxed(a, b, band):
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    if dx < 0 or dy < 0:
        return 0
    total = dx + dy
    paths = 0
    for rpos in combinations(range(total), dx):
        x, y = ax, ay
        good = True
        for i in range(total):
            x, y = (x + 1, y) if i in rpos else (x, y + 1)
            if i < total - 1 and not band.contains(x, y):
                good = False
                break
        paths += good
    return paths


@settings(max_examples=300, deadline=None)
@given(coords, coords, st.integers(0, 5), st.integers(0, 5), st.integers(-6, 3), st.integers(0, 6))
def test_relaxed_matches_bruteforce(ax, ay, dx, dy, s, width):
    band = BandConstraint(s, s + width)
    got = count_paths_relaxed((ax, ay), (ax + dx, ay + dy), band)
    assert got == _brute_relaxed((ax, ay), (ax + dx, ay + dy), band)


def _relaxed_grid():
    """Relaxed-count shapes around every band edge, enumerated exhaustively.

    Bands of width 0 (t == s) to 3, endpoints on every diagonal from two
    below the band to two above it, start x on both sides of zero and
    x-displacements -1..4; y-displacements follow from the diagonals and
    so run negative too.  Empty and one-step paths are among them.
    """
    for s, t in [(0, 0), (-1, -1), (-1, 0), (0, 2), (-2, 1), (-4, -2), (1, 3)]:
        for start_diag in range(s - 2, t + 3):
            for end_diag in range(s - 2, t + 3):
                for ax in (-2, 1):
                    for dx in range(-1, 5):
                        bx = ax + dx
                        yield (ax, ax + start_diag), (bx, bx + end_diag), (s, t)


def test_relaxed_matches_bruteforce_on_exhaustive_grid():
    shapes = list(_relaxed_grid())
    lengths = [bx + by - ax - ay for (ax, ay), (bx, by), _ in shapes]
    assert {0, 1} <= set(lengths) and min(lengths) < 0  # empty, one-step and negative displacements
    for a, b, (s, t) in shapes:
        expected = _brute_relaxed(a, b, BandConstraint(s, t))
        assert count_paths_relaxed(a, b, BandConstraint(s, t)) == expected, (a, b, s, t)
        assert _seg_count(*a, *b, s, t) == expected, (a, b, s, t)


def test_trig_integrality_guard():
    # sabotaged precision must trip the integrality check, not round silently
    with pytest.raises(IntegralityError):
        count_paths_trig((0, 0), (8, 8), BandConstraint(-1, 2), dps=3)


def test_importing_the_package_leaves_mpmath_unloaded():
    # only the trig backend needs mpmath; it imports it on first use
    code = "import sys, rewindlab.cli, rewindlab.closedform, rewindlab.pathcount; print('mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rewindlab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
