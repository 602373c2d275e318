"""Reference values and pass/fail rules for the rewindlab benchmark.

Every rule here is computed apart from the program: exact formulas
evaluated in ``Fraction`` arithmetic, family feasibility rules, and
properties the method must have.  Nothing compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

TWIRL_TOL = 1e-9  # analytic routes against the float twirl
FLOAT_TOL = 1e-12  # two float routes evaluating the same formula
MC_SIGMAS = 4.0

# Family caps of the closed forms; a sweep point past them is an error,
# not an infeasible point, so sweep grids stay inside them.
HYBRID_N_CAP = 24
HYBRID_M_CAP = 12


@dataclass(frozen=True)
class Case:
    """One circuit instance and the routes run on it.

    ``reference`` is an exact value the benchmark computed itself, when a
    printed formula covers the case.  ``ledger`` names the known fault the
    case exercises; on a ledger case a typed refusal is not a failure.
    ``mc`` lists Monte-Carlo runs as (samples, seed); they sample the
    case's own channel.
    """

    case_id: str
    family: str
    q: int
    n: int
    m: int
    target: str
    routes: tuple[str, ...]
    channel: str | None = None
    reference: Fraction | None = None
    ledger: str | None = None
    mc: tuple[tuple[int, int], ...] = ()


def lam(q: int) -> Fraction:
    return Fraction(q * q, q * q + 1)


def conv_single(q: int, n: int, i: int) -> Fraction:
    """Recycling qudit i of the convolutional circuit."""
    return 1 - Fraction(q - 1, q) * lam(q) ** (n - max(i, 2))


def hybrid_printed(q: int, n: int, m: int) -> Fraction | None:
    """The printed m = 1, 2, 3 brackets (n >= m + 3) and the n = 3 tower."""
    head = Fraction(q - 1, q)
    if n == 3:
        return Fraction(1, q) + head * Fraction(1, 1 + q * q) ** m
    if n < m + 3:
        return None
    if m == 1:
        return 1 - head * lam(q) ** (n - 2)
    if m == 2:
        return 1 - head * lam(q) ** n * (1 + Fraction(n, q**2) + Fraction(2, q**4))
    if m == 3:
        bracket = (
            1
            + Fraction(n + 2, q**2)
            + Fraction((1 + n) * (2 + n), 2 * q**4)
            + Fraction(2 * (2 + n), q**6)
            + Fraction(3, q**8)
        )
        return 1 - head * lam(q) ** (n + 2) * bracket
    return None


def reference_for(family: str, q: int, n: int, m: int, target: str) -> Fraction | None:
    """Exact noiseless value where a printed formula or a property fixes it."""
    if family == "conv" and target.isdigit():
        return conv_single(q, n, int(target))
    if family == "hybrid" and target == "1":
        return hybrid_printed(q, n, m)
    if family == "local" and target == "1" and m <= n - 2:
        return Fraction(1)  # recycled qudit outside the light cone
    return None


def fifteen(value) -> str:
    """The program's printed form of a value."""
    return f"{float(value):.15g}"


def _consensus(values: list[Fraction]) -> Fraction | None:
    """The exact value at least two routes agree on, if any."""
    if not values:
        return None
    value, count = Counter(values).most_common(1)[0]
    return value if count >= 2 or len(values) == 1 else None


def _is_probability(value) -> bool:
    v = float(value)
    return math.isfinite(v) and -TWIRL_TOL <= v <= 1 + TWIRL_TOL


def judge_case(case: Case, outcomes: dict, refusal: type) -> dict[str, bool]:
    """Pass/fail per route.  ``outcomes`` maps a route to its value or exception.

    Noiseless analytic routes must return exact Fractions that agree with
    the reference (or, without one, with each other); every route must
    agree with the twirl within TWIRL_TOL.  A refusal (an exception of
    type ``refusal``) passes only on a ledger case.
    """
    values = {r: v for r, v in outcomes.items() if not isinstance(v, BaseException)}
    noiseless = case.channel is None
    exact = case.reference
    if exact is None and noiseless:
        exact = _consensus([v for r, v in values.items() if r != "twirl" and isinstance(v, Fraction)])
    twirl = values.get("twirl")
    if twirl is not None and not _is_probability(twirl):
        twirl = None

    verdict = {}
    for route, value in outcomes.items():
        if isinstance(value, BaseException):
            verdict[route] = case.ledger is not None and isinstance(value, refusal)
            continue
        ok = _is_probability(value)
        if noiseless and route != "twirl":
            ok = ok and isinstance(value, Fraction) and (exact is None or value == exact)
        elif exact is not None:
            ok = ok and abs(float(value) - float(exact)) <= TWIRL_TOL
        if route != "twirl" and twirl is not None:
            ok = ok and abs(float(value) - float(twirl)) <= TWIRL_TOL
        verdict[route] = ok
    return verdict


def mc_reference(case: Case, outcomes: dict) -> float | None:
    """What a Monte-Carlo mean is checked against: the exact value, else the twirl."""
    if case.reference is not None:
        return float(case.reference)
    twirl = outcomes.get("twirl")
    if twirl is None or isinstance(twirl, BaseException):
        return None
    return float(twirl)


def judge_mc(mean: float, stderr: float, reference: float | None) -> bool:
    if reference is None or not (math.isfinite(stderr) and stderr > 0):
        return False
    return abs(mean - reference) <= MC_SIGMAS * stderr


# -- sweeps --------------------------------------------------------------


def feasible(family: str, q: int, n: int, m: int, target: int = 1) -> bool:
    """Family rules for one sweep grid point (see README, "Feasibility")."""
    if family == "conv":
        return n >= 3 and m == 1 and 1 <= target <= n - 1
    if family == "hybrid":
        return 3 <= n <= HYBRID_N_CAP and 1 <= m <= HYBRID_M_CAP and target == 1
    if family == "local":
        if n < 4 or n % 2 or m < 2 or m % 2 or target != 1:
            return False
        return m <= n - 2 or (n <= HYBRID_N_CAP and (m - n) // 2 + 1 <= HYBRID_M_CAP)
    raise ValueError(f"unknown family {family!r}")


def expected_points(family: str, qs, ns, ms, target: int, methods) -> list[tuple[int, int, int, str]]:
    return [
        (q, n, m, method)
        for q in qs
        for n in ns
        for m in ms
        if feasible(family, q, n, m, target)
        for method in methods
    ]


def row_key(row: dict) -> tuple[int, int, int, str]:
    return int(row["q"]), int(row["n"]), int(row["m"]), row["method"]


def csv_json_agree(csv_rows: list[dict], json_rows: list[dict]) -> bool:
    """The JSON output mirrors the CSV field for field."""
    if len(csv_rows) != len(json_rows):
        return False
    for c, j in zip(csv_rows, json_rows):
        if set(c) != set(j) or any(str(j[k]) != c[k] for k in c):
            return False
    return True


def rows_match_grid(rows: list[dict], expected: list[tuple]) -> bool:
    """Exactly one row per feasible grid point and method."""
    keys = [row_key(r) for r in rows]
    return len(keys) == len(set(keys)) and sorted(keys) == sorted(expected)


def _strictly(values: list[float], rising: bool) -> bool:
    pairs = zip(values, values[1:])
    return all((b > a) if rising else (b < a) for a, b in pairs)


def _series(table: dict, along: int) -> dict:
    """Group {(q, n, m): value} into series ordered along one axis of the key."""
    out: dict = {}
    for key in sorted(table):
        group = tuple(k for i, k in enumerate(key) if i != along)
        out.setdefault(group, []).append((key[along], table[key]))
    return out


def check_sweep_values(family: str, rows: list[dict], target: int, noisy: bool) -> list[str]:
    """Family properties of sweep rows; returns a list of violations."""
    problems = []
    by_method: dict[str, dict] = {}
    for r in rows:
        by_method.setdefault(r["method"], {})[(int(r["q"]), int(r["n"]), int(r["m"]))] = r["value"]
    closed = by_method.get("closed", {})
    for method, table in by_method.items():
        for key, text in table.items():
            if method == "closed":
                continue
            if noisy:
                if abs(float(text) - float(closed[key])) > FLOAT_TOL:
                    problems.append(f"{method} {key} = {text} differs from closed {closed[key]}")
            elif text != closed[key]:
                problems.append(f"{method} {key} = {text} differs from closed {closed[key]}")

    values = {k: float(v) for k, v in closed.items()}
    for (q, n, m), text in closed.items():
        v = values[(q, n, m)]
        if family == "local" and m <= n - 2:
            if text != "1":
                problems.append(f"local {(q, n, m)} = {text}, expected exactly 1")
            continue
        if family == "conv" and not 1 / q < v <= 1:  # 15 digits round F to 1 at large n
            problems.append(f"conv {(q, n, m)} = {text} outside (1/q, 1]")
        if family != "conv" and not 1 / q < v < 1:
            problems.append(f"{family} {(q, n, m)} = {text} outside (1/q, 1)")
        if noisy:
            continue
        exact = conv_single(q, n, target) if family == "conv" else None
        if family == "hybrid":
            exact = hybrid_printed(q, n, m)
        if exact is not None and text != fifteen(exact):
            problems.append(f"{family} {(q, n, m)} = {text}, formula gives {fifteen(exact)}")

    if family == "hybrid":
        for group, series in _series(values, 1).items():  # along n at fixed (q, m)
            if not _strictly([v for _, v in series], rising=True):
                problems.append(f"hybrid q,m={group} does not rise strictly with n")
        for group, series in _series(values, 2).items():  # along m at fixed (q, n)
            if not _strictly([v for _, v in series], rising=False):
                problems.append(f"hybrid q,n={group} does not fall strictly with m")
    if family == "local":
        deep = {k: v for k, v in values.items() if k[2] >= k[1]}
        for group, series in _series(deep, 2).items():
            if not _strictly([v for _, v in series], rising=False):
                problems.append(f"local q,n={group} does not fall strictly with m for m >= n")
    if family == "conv" and noisy:
        for group, series in _series(values, 1).items():
            vals = [v for _, v in series]
            if any(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"noisy conv q,m={group} falls with n")
    return problems
