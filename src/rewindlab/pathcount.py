"""Exact counting of monotone lattice paths between two diagonal boundaries.

Paths take unit steps right or up from (a, b) to (c, d) and must stay
weakly between the lines y = x + s and y = x + t (boundary contact
allowed).  Points are ``(x, y)`` pairs of integers.  Three interchangeable
counts, which the ``paths`` command names:

* :func:`count_paths_reflection` -- alternating sum of binomials over
  reflected endpoints, restricted to the finitely many nonzero terms;
* :func:`count_paths_trig` -- the equivalent finite trigonometric sum,
  evaluated in extended precision and rounded to an integer;
* :func:`count_paths_dp` -- direct dynamic programming, the independent
  oracle for the other two.

:func:`count_paths_relaxed` additionally exempts the two endpoints from the
band constraint (interior vertices only), which is how the circuit-fidelity
formulas reference counts whose start or destination sits one step outside
the band.  The reflection formula is written once, in the integer kernel
:func:`_reflection`; the checked public counts and the relaxed recursion
:func:`_relaxed`, which works on plain integers, both call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from rewindlab.errors import IntegralityError, PreconditionError

TRIG_DPS = 40
TRIG_TOLERANCE = 1e-6


@dataclass(frozen=True)
class BandConstraint:
    """Diagonal band s <= y - x <= t."""

    s: int
    t: int

    def __post_init__(self):
        if self.t < self.s:
            raise PreconditionError(f"band requires t >= s, got s={self.s}, t={self.t}")

    def contains(self, x: int, y: int) -> bool:
        return self.s <= y - x <= self.t


def _check_endpoints(start, end, band: BandConstraint) -> None:
    if not band.contains(*start):
        raise PreconditionError(f"start {start} outside band {band}")
    if not band.contains(*end):
        raise PreconditionError(f"end {end} outside band {band}")


def count_paths_dp(start, end, band: BandConstraint) -> int:
    """Dynamic programming over the rectangle [ax..bx] x [ay..by].

    Returns 0 for unreachable endpoints instead of raising; cells outside
    the band are zeroed, endpoints included.
    """
    (ax, ay), (bx, by) = start, end
    if bx < ax or by < ay:
        return 0
    width, height = bx - ax + 1, by - ay + 1
    col = [0] * height
    if band.contains(ax, ay):
        col[0] = 1
    for j in range(1, height):
        col[j] = col[j - 1] if band.contains(ax, ay + j) else 0
    for i in range(1, width):
        x = ax + i
        nxt = [0] * height
        for j in range(height):
            if not band.contains(x, ay + j):
                continue
            nxt[j] = col[j] + (nxt[j - 1] if j else 0)
        col = nxt
    return col[height - 1]


def _reflection(ax: int, ay: int, bx: int, by: int, s: int, t: int) -> int:
    """Reflection-principle count from (ax, ay) to (bx, by) in s <= y - x <= t.

    Both endpoints lie in the band and bx >= ax, by >= ay.  The count is
    the sum over k of C(L, dx - k p) - C(L, c - k p) with L the path
    length, dx = bx - ax, p = t - s + 2 and c = bx - ay + t + 1; each sum
    runs over exactly the k whose binomial index lies in 0..L.
    """
    length = bx + by - ax - ay
    period = t - s + 2
    dx = bx - ax
    c = bx - ay + t + 1
    total = 0
    for k in range(-((length - dx) // period), dx // period + 1):
        total += comb(length, dx - k * period)
    for k in range(-((length - c) // period), c // period + 1):
        total -= comb(length, c - k * period)
    return total


def count_paths_reflection(start, end, band: BandConstraint) -> int:
    """Reflection-principle count with checked endpoints.

    Raises PreconditionError for an endpoint outside the band and returns 0
    for unreachable endpoints; the count itself is the one integer kernel
    :func:`_reflection`, which the relaxed counts share.
    """
    _check_endpoints(start, end, band)
    (ax, ay), (bx, by) = start, end
    if bx < ax or by < ay:
        return 0
    return _reflection(ax, ay, bx, by, band.s, band.t)


def count_paths_trig(start, end, band: BandConstraint, dps: int = TRIG_DPS) -> int:
    """Finite trigonometric sum equivalent to the reflection count.

    Evaluated with mpmath at ``dps`` digits; raises IntegralityError when
    the result is further than TRIG_TOLERANCE from an integer.  The
    degenerate one-diagonal band (t == s) admits only the empty path and is
    handled directly, as the k-sum is empty there.
    """
    _check_endpoints(start, end, band)
    (ax, ay), (bx, by) = start, end
    if bx < ax or by < ay:
        return 0
    if (ax, ay) == (bx, by):
        # Empty path.  The folded k-sum pairs modes k and p-k and so drops
        # the zero-eigenvalue middle mode of even periods, which only
        # contributes at path length zero.
        return 1
    s, t = band.s, band.t
    if t == s:
        return 0  # any step leaves the single allowed diagonal
    period = t - s + 2
    length = bx + by - ax - ay
    import mpmath  # imported here so that importing rewindlab does not load it

    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k in range(1, (t - s + 1) // 2 + 1):
            angle = mpmath.pi * k / period
            term = (
                (2 * mpmath.cos(angle)) ** length
                * mpmath.sin(angle * (ax - ay + t + 1))
                * mpmath.sin(angle * (bx - by + t + 1))
            )
            total += term
        total *= mpmath.mpf(4) / period
        nearest = int(mpmath.nint(total))
        if abs(total - nearest) > TRIG_TOLERANCE:
            raise IntegralityError(f"trig sum {total} is not within {TRIG_TOLERANCE} of an integer")
    return nearest


def _relaxed(ax: int, ay: int, bx: int, by: int, s: int, t: int) -> int:
    """Relaxed count on plain integers: interior vertices in s <= y - x <= t.

    Endpoints one diagonal outside the band are stepped back in; once both
    lie inside, the count is the integer kernel :func:`_reflection`.
    """
    if bx < ax or by < ay:
        return 0
    if bx + by - ax - ay <= 1:
        return 1  # the empty path or a single step has no interior vertex
    d = by - bx
    if d > t:
        # Last step is forced: from above the band it must be the up step,
        # from below it must be the right step; anything else would put the
        # second-to-last vertex even further outside.
        return _relaxed(ax, ay, bx, by - 1, s, t) if d == t + 1 else 0
    if d < s:
        return _relaxed(ax, ay, bx - 1, by, s, t) if d == s - 1 else 0
    d = ay - ax
    if d > t:
        return _relaxed(ax + 1, ay, bx, by, s, t) if d == t + 1 else 0
    if d < s:
        return _relaxed(ax, ay + 1, bx, by, s, t) if d == s - 1 else 0
    return _reflection(ax, ay, bx, by, s, t)


def count_paths_relaxed(start, end, band: BandConstraint) -> int:
    """Paths whose interior vertices stay in the band; endpoints are exempt.

    Equals the strict count when both endpoints lie inside the band.
    Endpoints may sit at most one diagonal outside (their first/last step
    is then forced back into the band); further out the count is zero.
    """
    (ax, ay), (bx, by) = start, end
    return _relaxed(ax, ay, bx, by, band.s, band.t)
