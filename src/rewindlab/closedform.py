"""Closed-form fidelity expressions.

Noiseless convolutional formulas are exact rationals in q.  The hybrid and
deep-local families evaluate a triple sum: an overall geometric weight per
wall entry point, band-constrained path counts, and a sum over the ordered
sets of points where the wall touches the upper boundary line.  Path
counts whose start or destination lies on that line use interior-only band
constraints (endpoints exempt), which makes the touch decomposition a
partition of the wall ensemble; each touch carries a factor (1+q^2)/q^2.
The sum over touch sets is not enumerated: one backward recursion from the
exit point gives the weight of the walls leaving each touch position, and
every entry point shares it (:func:`_touch_sums`).  The sums are kept as
integer numerators over one shared scale, and every entry weight is a
nonnegative power of q over a power of q^2+1, so the whole triple sum
runs in integers over one common denominator and one Fraction is reduced
per call (:func:`_weighted_sum`).  The values are the same rationals as
summing Fractions term by term.

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
from rewindlab.errors import InvalidParameterError, InvalidShapeError, InvalidTargetError
from rewindlab.pathcount import _relaxed
from rewindlab.result import FidelityResult


def _lam(q: int) -> Fraction:
    return Fraction(q * q, q * q + 1)


# -- convolutional closed forms ---------------------------------------------


def conv_fidelity(q: int, n: int, target: RecycleTarget) -> FidelityResult:
    """Exact averaged fidelity of the single-sweep convolutional protocol."""
    if n < 3:
        raise InvalidShapeError("convolutional formulas need n >= 3")
    target.validate(n)
    lam = _lam(q)
    if target.kind == "single":
        i = max(target.indices[0], 2)
        value = 1 - Fraction(q - 1, q) * lam ** (n - i)
    elif target.kind == "prefix":
        k = target.indices[0]
        inner = 1 + Fraction((q - 1) ** 2, q) * Fraction(q, q * q + 1) ** (k - 2)
        value = 1 - lam ** (n - k) * (1 - Fraction(1, q * (q * q - q + 1)) * inner)
    else:  # pair; target.validate refuses every other kind
        i, j = target.indices
        j = max(j, 2)
        value = 1 - Fraction(q - 1, q) * lam ** (n - i) * (1 + Fraction(1, q) * lam ** (i - j))
    return FidelityResult(value=value, method="closed")


# -- hybrid circuits ---------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _seg_count(ax: int, ay: int, bx: int, by: int, s: int, t: int) -> int:
    """Relaxed path count (:func:`rewindlab.pathcount.count_paths_relaxed`) on plain integers."""
    return _relaxed(ax, ay, bx, by, s, t)


def _touch_sums(
    q: int,
    starts: list[tuple[int, int]],
    dest: tuple[int, int],
    off: int,
    band: tuple[int, int],
) -> tuple[list[int], int]:
    """Touch-decomposed wall counts from each of ``starts`` to ``dest``.

    A wall may touch the line y = x + off at x-positions i_1 < ... < i_l
    between its start's x and dest's x; between touches it stays strictly
    inside ``band`` (start, touches and destination exempt).  Each touch
    carries gamma = (1+q^2)/q^2, and the step off a touch is forced
    rightward.  The walls leaving a touch at x = b do not depend on the
    start, so their weight is computed once, backward from ``dest``:

        h[b] = gamma * (seg(b+1, b+off -> dest) + sum_{c>b} seg(b+1, b+off -> c, c+off) h[c])
        sum(start) = seg(start -> dest) + sum_{b >= start x} seg(start -> b, b+off) h[b]

    Returns the integer numerators of the sums and the one ``scale`` they
    share: sum(start) = numerator / scale, with scale = q^(2 (dest x - lowest
    start x)).  h[b] is kept as the integer scale * h[b], so no fraction is
    built here.
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
    numerators = [
        _seg_count(sx, sy, dx, dy, s, t) * scale
        + sum(_seg_count(sx, sy, b, b + off, s, t) * h[b] for b in range(sx, dx))
        for sx, sy in starts
    ]
    return numerators, scale


def _weighted_sum(q: int, terms: list[tuple[int, int, int]], scale: int) -> Fraction:
    """sum of q^a / (q^2+1)^E * numerator / scale over ``terms`` (a, E, numerator).

    Every a is >= 0, so each term is brought over the one denominator
    (q^2+1)^top * scale, top = max E; the sum runs in integers and a
    single Fraction is reduced at the end.
    """
    top = max(e for _, e, _ in terms)
    qq1 = q * q + 1
    total = sum(q**a * qq1 ** (top - e) * numerator for a, e, numerator in terms)
    return Fraction(total, qq1**top * scale)


def hybrid_general(q: int, n: int, m: int) -> Fraction:
    """Triple-sum wall ensemble for the m-sweep circuit, recycling qudit 1.

    Each domain wall is classified by where it enters the lattice: on the
    first-gate axis at height k+1 (k = 0..n-3) or on the sweep axis at
    sweep e (e = 1..m-1).  Within a class the wall shapes are monotone
    paths to the exit corner (m, m+n-2) whose interior stays in the band
    0 <= y-x <= n-3 except for touches of the line y = x+n-2, each worth
    (1+q^2)/q^2.  All n+m-3 entry points share one backward touch
    recursion, O(m^2 + (n+m) m) segment counts in all, so no size is
    refused.  Valid for every n >= 3; at n = 3 the band is the line y = x
    and the sum equals the printed tower 1/q + (q-1)/q (1/(1+q^2))^m exactly.

    With w = q/(q^2+1) and lam = q^2/(q^2+1), an entry on the sweep axis
    weighs w^E q^(n-3) with E = n+2m-2-2e, one on the first-gate axis
    lam^E / q^(2m) with E = n+2m-4-k, and the all-ONE configuration
    lam^(n-2) / q; each is q^a / (q^2+1)^E, summed by :func:`_weighted_sum`.
    """
    off = n - 2
    # walls entering on the sweep axis at sweep e, then on the first-gate
    # axis at height k + 1
    starts = [(e, e - 1) for e in range(1, m)] + [(1, k + 1) for k in range(0, n - 2)]
    numerators, scale = _touch_sums(q, starts, (m, m + off), off, (0, n - 3))
    terms = [(2 * n - 5, n - 2, scale)]  # all-ONE configuration
    for e, numerator in zip(range(1, m), numerators):
        power = n + 2 * m - 2 - 2 * e
        terms.append((power + n - 3, power, numerator))
    for k, numerator in zip(range(0, n - 2), numerators[m - 1 :]):
        power = n + 2 * m - 4 - k
        terms.append((2 * power - 2 * m, power, numerator))
    return _weighted_sum(q, terms, scale)


def hybrid_fidelity(q: int, n: int, m: int) -> FidelityResult:
    """Recycling the first qudit of the m-sweep hybrid circuit."""
    if n < 3 or m < 1:
        raise InvalidShapeError("hybrid needs n >= 3, m >= 1")
    return FidelityResult(value=hybrid_general(q, n, m), method="closed")


# -- local circuits ----------------------------------------------------------


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
        raise InvalidShapeError("local circuits need even n >= 4 and even m >= 2")
    # At m <= n - 2 qudit 1 lies outside the active light cone (the gates
    # that reach qudit n), so the rewinding undoes every gate in its past
    # and it returns to |0> exactly.  Even parity leaves no m strictly
    # between n - 2 and n.
    value = Fraction(1) if m <= n - 2 else local_deep(q, n, m)
    return FidelityResult(value=value, method="closed")


# -- noisy convolutional forms ------------------------------------------------


def noisy_lambda2(q: int, alpha: float, beta: float) -> float:
    return alpha * q * q * (beta * q * q - 1) / (q**4 - 1)


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
    F_inf - (q-1)/q (alpha q^2 - 1)/D lam2^k, where
    D = (1 - alpha beta) q^4 + alpha q^2 - 1 and the n -> infinity limit
    is F_inf = ((1 - alpha beta) q^3 + alpha q^2 - 1) / D.
    """
    if n < 3:
        raise InvalidShapeError("convolutional formulas need n >= 3")
    if target is None:
        target = RecycleTarget.single(1)
    if target.kind != "single":
        raise InvalidTargetError("closed noisy form covers single-qudit targets")
    target.validate(n)
    # the bounds of statmech.TrivalentRule; NaN fails them too.  Within them
    # |lam2| <= q^2/(q^2+1) < 1, so the powers of lam2 decay.
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 <= value <= 1:
            raise InvalidParameterError(f"{name} = {value} is outside [0, 1]")
    lam2 = noisy_lambda2(q, alpha, beta)
    d4 = q**4 - 1
    a0 = q * q * (q * q - alpha) / d4
    a1 = q * (alpha * q * q - 1) / d4
    r1, rs = recycled_boundary
    k = n - max(target.indices[0], 2)
    value = (r1 * (a0 - lam2) + rs * a1 - lam2**k * (r1 * (a0 - 1) + rs * a1)) / (q * (1 - lam2))
    return FidelityResult(value=value, method="closed")