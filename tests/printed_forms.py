"""The paper's printed closed forms, kept as test data.

The library computes each of these numbers by its own routes; the
acceptance criteria and ``test_closedform.py`` compare the printed forms
with those routes.  No module in ``src/`` imports this one.
"""

from __future__ import annotations

from fractions import Fraction

from rewindlab.errors import InvalidTargetError, UnsupportedRegimeError
from rewindlab.result import FidelityResult


def _lam(q: int) -> Fraction:
    return Fraction(q * q, q * q + 1)


def conv_correlation(q: int, n: int, i: int, j: int) -> FidelityResult:
    """Connected correlation F_ij - F_i F_j of two recycled qudits."""
    if not (n > i > j >= 1):
        raise InvalidTargetError("correlation needs n > i > j >= 1")
    lam = _lam(q)
    j = max(j, 2)
    value = Fraction(q - 1, q) ** 2 * lam ** (n - j) * (1 - lam ** (n - i))
    return FidelityResult(value=value, method="closed")


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
    """Three-qudit tower in its printed form, F = 1/q + (q-1)/q (1/(1+q^2))^m.

    :func:`rewindlab.closedform.hybrid_general` at n = 3 equals it exactly.
    """
    return Fraction(1, q) + Fraction(q - 1, q) * Fraction(1, 1 + q * q) ** m


def noisy_sup_fidelity(q: int, alpha: float, beta: float) -> float:
    """n -> infinity limit of the first-qudit fidelity, undressed boundary."""
    num = (1 - alpha * beta) * q**3 + alpha * q * q - 1
    den = (1 - alpha * beta) * q**4 + alpha * q * q - 1
    return num / den


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

