"""Closed-form fidelity and correlation expressions.

Noiseless convolutional formulas are exact rationals in q.  The hybrid and
deep-local families evaluate a triple sum: an overall geometric weight per
wall entry point, band-constrained path counts, and a sum over the ordered
sets of points where the wall touches the upper boundary line.  Path
counts whose start or destination lies on that line use interior-only band
constraints (endpoints exempt), which makes the touch decomposition a
partition of the wall ensemble; each touch carries a factor (1+q^2)/q^2.
The sum over touch sets is not enumerated: one backward recursion from the
exit point gives the weight of the walls leaving each touch position, and
every entry point shares it (:func:`_touch_sums`).

Conventions pinned by cross-checking against the exhaustive lattice sums
and the exact twirl:

* single(1) and single(2) recycle with identical fidelity (both qudits
  enter the first gate); pair(i, 1) likewise equals pair(i, 2).  The
  i-dependent expressions below are evaluated at max(i, 2).
* the noisy finite-n expression keeps the noiseless exponent convention
  (n - i at the recycled position), and the recycled-qudit boundary is
  dressed by the adjoint channel of the final rewinding gate.

The noisy convolutional fidelity is one expression for every recycled
boundary (r1, rs).  With d4 = q^4 - 1, k = n - max(i, 2) and
lam2 = alpha q^2 (beta q^2 - 1) / d4,

    a0 = q^2 (q^2 - alpha) / d4,   a1 = q (alpha q^2 - 1) / d4
    F_i = [r1 (a0 - lam2) + rs a1 - lam2^k (r1 (a0 - 1) + rs a1)] / (q (1 - lam2))

:func:`noisy_conv_fidelity` derives it from the chain's eigenvalues 1
and lam2.  It is written out here, not read from the lattice's node
table, so the ``closed`` and ``transfer`` routes share no code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from rewindlab.circuits import RecycleTarget
from rewindlab.errors import (
    DivergentEigenvalueError,
    InvalidParameterError,
    InvalidTargetError,
    TooLargeError,
    UnsupportedRegimeError,
)
from rewindlab.pathcount import BandConstraint, LatticePoint, count_paths_relaxed
from rewindlab.result import FidelityResult

HYBRID_M_CAP = 12
HYBRID_N_CAP = 24


def _lam(q: int) -> Fraction:
    return Fraction(q * q, q * q + 1)


# -- convolutional closed forms ---------------------------------------------


def conv_fidelity(q: int, n: int, target: RecycleTarget) -> FidelityResult:
    """Exact averaged fidelity of the single-sweep convolutional protocol."""
    if n < 3:
        raise InvalidTargetError("convolutional formulas need n >= 3")
    target.validate(n)
    lam = _lam(q)
    if target.kind == "single":
        i = max(target.indices[0], 2)
        value = 1 - Fraction(q - 1, q) * lam ** (n - i)
    elif target.kind == "prefix":
        k = target.indices[0]
        if k == 1:
            value = 1 - Fraction(q - 1, q) * lam ** (n - 2)
        else:
            inner = 1 + Fraction((q - 1) ** 2, q) * Fraction(q, q * q + 1) ** (k - 2)
            value = 1 - lam ** (n - k) * (1 - Fraction(1, q * (q * q - q + 1)) * inner)
    elif target.kind == "pair":
        i, j = target.indices
        if (i, j) == (2, 1):
            # qudits {1, 2} together are exactly the two-qudit prefix
            return FidelityResult(value=conv_fidelity(q, n, RecycleTarget.prefix(2)).value, method="closed")
        j = max(j, 2)
        value = 1 - Fraction(q - 1, q) * lam ** (n - i) * (1 + Fraction(1, q) * lam ** (i - j))
    else:
        raise InvalidTargetError(f"unsupported target {target}")
    return FidelityResult(value=value, method="closed")


def conv_correlation(q: int, n: int, i: int, j: int) -> FidelityResult:
    """Connected correlation F_ij - F_i F_j of two recycled qudits."""
    if not (n > i > j >= 1):
        raise InvalidTargetError("correlation needs n > i > j >= 1")
    lam = _lam(q)
    j = max(j, 2)
    value = Fraction(q - 1, q) ** 2 * lam ** (n - j) * (1 - lam ** (n - i))
    return FidelityResult(value=value, method="closed")


# -- hybrid circuits ---------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _seg_count(ax: int, ay: int, bx: int, by: int, s: int, t: int) -> int:
    return count_paths_relaxed(LatticePoint(ax, ay), LatticePoint(bx, by), BandConstraint(s, t))


def _touch_sums(
    q: int,
    starts: list[tuple[int, int]],
    dest: tuple[int, int],
    off: int,
    band: tuple[int, int],
) -> list[Fraction]:
    """Touch-decomposed wall counts from each of ``starts`` to ``dest``.

    A wall may touch the line y = x + off at x-positions i_1 < ... < i_l
    between its start's x and dest's x; between touches it stays strictly
    inside ``band`` (start, touches and destination exempt).  Each touch
    carries gamma = (1+q^2)/q^2, and the step off a touch is forced
    rightward.  The walls leaving a touch at x = b do not depend on the
    start, so their weight is computed once, backward from ``dest``:

        h[b] = gamma * (seg(b+1, b+off -> dest) + sum_{c>b} seg(b+1, b+off -> c, c+off) h[c])
        sum(start) = seg(start -> dest) + sum_{b >= start x} seg(start -> b, b+off) h[b]

    h[b] is kept as the integer scale * h[b], so only the final sums are
    fractions.
    """
    s, t = band
    dx, dy = dest
    lo = min((sx for sx, _ in starts), default=dx)
    qq = q * q
    scale = qq ** (dx - lo)  # h[b]'s denominator divides qq^(dx - b)
    h: dict[int, int] = {}
    for b in range(dx - 1, lo - 1, -1):
        acc = _seg_count(b + 1, b + off, dx, dy, s, t) * scale
        for c in range(b + 1, dx):
            acc += _seg_count(b + 1, b + off, c, c + off, s, t) * h[c]
        h[b] = (qq + 1) * acc // qq  # exact, as scale * h[b] is an integer
    return [
        Fraction(
            _seg_count(sx, sy, dx, dy, s, t) * scale
            + sum(_seg_count(sx, sy, b, b + off, s, t) * h[b] for b in range(sx, dx)),
            scale,
        )
        for sx, sy in starts
    ]


def hybrid_general(q: int, n: int, m: int) -> Fraction:
    """Triple-sum wall ensemble for the m-sweep circuit, recycling qudit 1.

    Each domain wall is classified by where it enters the lattice: on the
    first-gate axis at height k+1 (k = 0..n-3) or on the sweep axis at
    sweep e (e = 1..m-1).  Within a class the wall shapes are monotone
    paths to the exit corner (m, m+n-2) whose interior stays in the band
    0 <= y-x <= n-3 except for touches of the line y = x+n-2, each worth
    (1+q^2)/q^2.  All n+m-3 entry points share one backward touch
    recursion, O(m^2 + (n+m) m) segment counts in all.  Valid for n >= 4;
    n = 3 collapses the band and is covered by its own closed form in
    :func:`hybrid_fidelity`.
    """
    if n < 4:
        raise UnsupportedRegimeError("general hybrid sum needs n >= 4")
    if m > HYBRID_M_CAP or n > HYBRID_N_CAP:
        raise TooLargeError(f"hybrid sum capped at m <= {HYBRID_M_CAP}, n <= {HYBRID_N_CAP}")
    lam = _lam(q)
    w = Fraction(q, q * q + 1)
    off = n - 2
    band = (0, n - 3)

    # walls entering on the sweep axis at sweep e, then on the first-gate
    # axis at height k + 1
    starts = [(e, e - 1) for e in range(1, m)] + [(1, k + 1) for k in range(0, n - 2)]
    weights = [w ** (n + 2 * m - 2 - 2 * e) * Fraction(q) ** (n - 3) for e in range(1, m)]
    weights += [Fraction(1, q ** (2 * m)) * lam ** (n + 2 * m - 4 - k) for k in range(0, n - 2)]
    counts = _touch_sums(q, starts, (m, m + off), off, band)
    total = Fraction(1, q) * lam ** (n - 2)  # all-ONE configuration
    return total + sum(weight * count for weight, count in zip(weights, counts))


def hybrid_special(q: int, n: int, m: int) -> Fraction:
    """Compact closed forms for m = 1, 2, 3 (any n >= m + 3).

    The m = 3 bracket carries (n+2)/q^2 as its second term; the general
    machinery and the exact twirl both confirm that coefficient (a leading
    1/q^2 without the n-dependence does not reproduce either).
    """
    lam = _lam(q)
    head = Fraction(q - 1, q)
    if m == 1:
        return 1 - head * lam ** (n - 2)
    if m == 2:
        return 1 - head * lam**n * (1 + Fraction(n, q**2) + Fraction(2, q**4))
    if m == 3:
        bracket = (
            1
            + Fraction(n + 2, q**2)
            + Fraction((1 + n) * (2 + n), 2 * q**4)
            + Fraction(2 * (2 + n), q**6)
            + Fraction(3, q**8)
        )
        return 1 - head * lam ** (n + 2) * bracket
    raise UnsupportedRegimeError(f"no printed special form for m={m}")


def hybrid_n3(q: int, m: int) -> Fraction:
    """Three-qudit tower: F = 1/q + (q-1)/q (1/(1+q^2))^m."""
    return Fraction(1, q) + Fraction(q - 1, q) * Fraction(1, 1 + q * q) ** m


def hybrid_fidelity(q: int, n: int, m: int) -> FidelityResult:
    """Recycling the first qudit of the m-sweep hybrid circuit."""
    if n < 3 or m < 1:
        raise InvalidTargetError("hybrid needs n >= 3, m >= 1")
    value = hybrid_n3(q, m) if n == 3 else hybrid_general(q, n, m)
    return FidelityResult(value=value, method="closed")


# -- local circuits ----------------------------------------------------------


def local_shallow(q: int, n: int, m: int) -> Fraction:
    """Brickwork wall ensemble for depth m <= n-2; telescopes to exactly 1.

    Every wall is pinned to the active corner: it enters on the first layer
    at distance 2k+3 below the last qudit (k = 0..(m-4)/2, weight
    (q/(1+q^2))^(m-2) q^(m-4-2k)) or ascends straight (weight lambda^(m-2)),
    and exits through the fixed point (1, n-4) after m-2 free layers.  The
    entry points share one backward touch recursion, O(m^2) segment counts.
    """
    lam = _lam(q)
    w = Fraction(q, q * q + 1)
    ks = range(0, (m - 4) // 2 + 1)
    counts = _touch_sums(q, [(-k, n - m - 1 + k) for k in ks], (1, n - 4), n - 4, (-1, n - 5))
    total = lam ** (m - 2)
    return total + sum(w ** (m - 2) * Fraction(q) ** (m - 4 - 2 * k) * count for k, count in zip(ks, counts))


def local_deep(q: int, n: int, m: int) -> Fraction:
    """Deep-brickwork fidelity (m >= n), recycling the first qudit.

    The wall ensemble of the depth-m brickwork coincides exactly with that
    of the (m-n)/2 + 1 sweep tower on the same n qudits: outside the
    active light cone the extra brickwork layers rewind perfectly, and the
    surviving walls match sweep for sweep.  Evaluated through the same
    triple path/touch sum as :func:`hybrid_general`.
    """
    return hybrid_general(q, n, (m - n) // 2 + 1)


def local_fidelity(q: int, n: int, m: int) -> FidelityResult:
    """Recycling the first qudit of the n-qudit, depth-m brickwork."""
    if n % 2 or m % 2 or n < 4 or m < 2:
        raise InvalidTargetError("local circuits need even n >= 4 and even m >= 2")
    if m <= n - 2:
        value = local_shallow(q, n, m)
    elif m >= n:
        value = local_deep(q, n, m)
    else:
        raise UnsupportedRegimeError(f"no closed form between m = n-2 and m = n (got n={n}, m={m})")
    return FidelityResult(value=value, method="closed")


# -- noisy convolutional forms ------------------------------------------------


def noisy_lambda2(q: int, alpha: float, beta: float) -> float:
    return alpha * q * q * (beta * q * q - 1) / (q**4 - 1)


def noisy_sup_fidelity(q: int, alpha: float, beta: float) -> float:
    """n -> infinity limit of the first-qudit fidelity, undressed boundary."""
    num = (1 - alpha * beta) * q**3 + alpha * q * q - 1
    den = (1 - alpha * beta) * q**4 + alpha * q * q - 1
    return num / den


def noisy_conv_fidelity(
    q: int,
    n: int,
    alpha: float,
    beta: float,
    target: RecycleTarget | None = None,
    recycled_boundary: tuple[float, float] = (1.0, 1.0),
) -> FidelityResult:
    """Noisy convolutional fidelity for recycling qudit i, in closed form.

    With d4 = q^4 - 1, k = n - max(i, 2), lam2 the subleading eigenvalue
    (:func:`noisy_lambda2`) and (r1, rs) the recycled boundary,

        a0 = q^2 (q^2 - alpha) / d4,   a1 = q (alpha q^2 - 1) / d4
        F_i = [r1 (a0 - lam2) + rs a1 - lam2^k (r1 (a0 - 1) + rs a1)] / (q (1 - lam2))

    Derivation: a chain node maps the next node's spin to its own; with a
    kept input wire it is A = diag(q, 1) N, whose column at ONE is
    (a0, a1).  A has the eigenvalue 1 with left eigenvector (q, 1), so the
    nodes below the recycled wire contract to that vector and
    F_i = (r1, rs) A^k e_ONE / q.  For a 2x2 matrix with eigenvalues 1 and
    lam2, A^k = [(A - lam2) - lam2^k (A - 1)] / (1 - lam2).  The exponent
    keeps the noiseless n - i convention (recycling qudit 1 and 2
    coincide); the twirl oracle rules out the variant with one extra power
    of lam2.  With an undressed boundary, r1 = rs = 1, this reduces to
    :func:`noisy_sup_fidelity` - (q-1)/q (alpha q^2 - 1)/D lam2^k with
    D = (1 - alpha beta) q^4 + alpha q^2 - 1.
    """
    if target is None:
        target = RecycleTarget.single(1)
    if target.kind != "single":
        raise InvalidTargetError("closed noisy form covers single-qudit targets")
    target.validate(n)
    if not 0 < alpha <= 1 or beta <= 0:
        raise InvalidParameterError("need 0 < alpha <= 1 and beta > 0")
    lam2 = noisy_lambda2(q, alpha, beta)
    if abs(lam2) >= 1:
        raise DivergentEigenvalueError(f"subleading eigenvalue {lam2} has modulus >= 1")
    d4 = q**4 - 1
    a0 = q * q * (q * q - alpha) / d4
    a1 = q * (alpha * q * q - 1) / d4
    r1, rs = recycled_boundary
    k = n - max(target.indices[0], 2)
    value = (r1 * (a0 - lam2) + rs * a1 - lam2**k * (r1 * (a0 - 1) + rs * a1)) / (q * (1 - lam2))
    return FidelityResult(value=value, method="closed")


def noisy_conv_correlation_limit(q: int, alpha: float, gap: int) -> FidelityResult:
    """n -> infinity connected correlation at beta = 1, distance i - j = gap.

        (1-alpha) q^2 (alpha q^2 - 1) / ((q+1)^2 ((1-alpha) q^2 + 1)^2)
            * (alpha q^2 / (q^2 + 1))^gap

    The (q+1)^2 factor is fixed by the transfer-matrix limit itself (a
    (q^2+1) there misses the true prefactor by (q+1)^2/(q^2+1) at every
    alpha); the geometric decay rate alpha q^2/(q^2+1) is unaffected.
    """
    if gap < 1:
        raise InvalidTargetError("gap must be >= 1")
    pref = (1 - alpha) * q * q * (alpha * q * q - 1) / ((q + 1) ** 2 * ((1 - alpha) * q * q + 1) ** 2)
    value = pref * (alpha * q * q / (q * q + 1)) ** gap
    return FidelityResult(value=value, method="closed")
