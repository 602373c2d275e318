"""Self-tests of the benchmark's pass/fail rules.

    python3 -m pytest perfbench/test_checks.py     (or: python3 perfbench/test_checks.py)
"""

import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from rewindlab.errors import RewindlabError, UnsupportedRegimeError  # noqa: E402

EPS = Fraction(1, 10**6)


def noiseless_outcomes(case):
    exact = case.reference
    return {"closed": exact, "wall": exact, "sum": exact, "transfer": exact, "twirl": float(exact)}


class RouteChecks(unittest.TestCase):
    def setUp(self):
        self.case = workloads.case("conv", 2, 5, 1, "2", workloads.ANALYTIC + ("transfer", "twirl"))
        self.noisy = workloads.case("conv", 2, 4, 1, "1", workloads.NOISY_CONV, "dep2")
        self.ledger = workloads.case("conv", 2, 4, 1, "1", workloads.NOISY_CONV, "pair2", ledger=workloads.LEDGER_PAIR)

    def test_reference_outcomes_pass(self):
        verdict = checks.judge_case(self.case, noiseless_outcomes(self.case), RewindlabError)
        self.assertTrue(all(verdict.values()), verdict)

    def test_perturbed_exact_route_fails(self):
        for route in ("closed", "wall", "sum", "transfer"):
            outcomes = noiseless_outcomes(self.case)
            outcomes[route] += EPS
            verdict = checks.judge_case(self.case, outcomes, RewindlabError)
            self.assertFalse(verdict[route], route)
            self.assertTrue(all(ok for r, ok in verdict.items() if r != route), verdict)

    def test_perturbed_twirl_fails(self):
        outcomes = noiseless_outcomes(self.case)
        outcomes["twirl"] += 1e-6
        self.assertFalse(checks.judge_case(self.case, outcomes, RewindlabError)["twirl"])

    def test_perturbed_noisy_route_fails(self):
        outcomes = {"closed": 0.65, "transfer": 0.65, "sum": 0.65 + 1e-6, "twirl": 0.65}
        verdict = checks.judge_case(self.noisy, outcomes, RewindlabError)
        self.assertEqual(verdict, {"closed": True, "transfer": True, "sum": False, "twirl": True})

    def test_refusal_on_ledger_case_is_not_failed(self):
        outcomes = {"closed": UnsupportedRegimeError("arity 2"), "transfer": 0.65, "sum": 0.65, "twirl": 0.65}
        self.assertTrue(checks.judge_case(self.ledger, outcomes, RewindlabError)["closed"])

    def test_wrong_value_on_ledger_case_is_failed(self):
        outcomes = {"closed": 0.656, "transfer": 0.65, "sum": 0.65, "twirl": 0.65}
        self.assertFalse(checks.judge_case(self.ledger, outcomes, RewindlabError)["closed"])

    def test_untyped_error_on_ledger_case_is_failed(self):
        outcomes = {"closed": ValueError("boom"), "transfer": 0.65, "sum": 0.65, "twirl": 0.65}
        self.assertFalse(checks.judge_case(self.ledger, outcomes, RewindlabError)["closed"])

    def test_refusal_on_other_case_is_failed(self):
        for c in (self.case, self.noisy):
            outcomes = noiseless_outcomes(self.case) if c is self.case else {r: 0.65 for r in c.routes}
            outcomes["sum"] = UnsupportedRegimeError("refused")
            self.assertFalse(checks.judge_case(c, outcomes, RewindlabError)["sum"], c.case_id)

    def test_monte_carlo_band(self):
        self.assertTrue(checks.judge_mc(0.70, 0.01, 0.739))
        self.assertFalse(checks.judge_mc(0.70, 0.01, 0.741))
        self.assertFalse(checks.judge_mc(0.70, 0.0, 0.70))


class SweepChecks(unittest.TestCase):
    def rows(self, family, qs, ns, ms):
        out = []
        for q, n, m, method in checks.expected_points(family, qs, ns, ms, 1, ("closed",)):
            exact = checks.hybrid_printed(q, n, m) if family == "hybrid" else checks.conv_single(q, n, 1)
            if exact is None:
                continue
            out.append({"family": family, "q": str(q), "n": str(n), "m": str(m), "target": "1",
                        "method": method, "value": checks.fifteen(exact), "stderr": "", "seed": "0"})
        return out

    def test_formula_rows_pass(self):
        rows = self.rows("hybrid", [2, 3], range(3, 10), [1, 2, 3])
        self.assertEqual(checks.check_sweep_values("hybrid", rows, 1, noisy=False), [])

    def test_perturbed_row_fails(self):
        rows = self.rows("conv", [2], range(3, 12), [1])
        rows[4]["value"] = checks.fifteen(float(rows[4]["value"]) + 1e-6)
        self.assertTrue(checks.check_sweep_values("conv", rows, 1, noisy=False))

    def test_feasible_grid(self):
        self.assertEqual(len(checks.expected_points("local", [2], range(3, 9), range(1, 9), 1, ("closed",))), 12)
        rows = self.rows("conv", [2], range(3, 6), [1])
        expected = checks.expected_points("conv", [2], range(3, 6), [1], 1, ("closed",))
        self.assertTrue(checks.rows_match_grid(rows, expected))
        self.assertFalse(checks.rows_match_grid(rows + rows[:1], expected))

    def test_csv_json_mirror(self):
        rows = self.rows("conv", [2], range(3, 6), [1])
        mirror = [dict(r, q=int(r["q"]), n=int(r["n"]), m=int(r["m"]), seed=int(r["seed"])) for r in rows]
        self.assertTrue(checks.csv_json_agree(rows, mirror))
        mirror[1]["value"] = "0.5"
        self.assertFalse(checks.csv_json_agree(rows, mirror))


if __name__ == "__main__":
    unittest.main()
