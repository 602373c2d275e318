import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from rewindlab.cli import main
from rewindlab.noise import KrausChannel, amplitude_damping, depolarizing
from rewindlab.oracle import haar_unitary


@pytest.fixture
def runner():
    return CliRunner()


def test_fidelity_two_methods_agree(runner):
    result = runner.invoke(main, ["fidelity", "--family", "conv", "--q", "2", "--n", "3", "--target", "1", "--method", "closed,twirl"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 2
    assert all("0.6" in line for line in lines)


def test_fidelity_local_perfect(runner):
    result = runner.invoke(main, ["fidelity", "--family", "local", "--q", "2", "--n", "6", "--m", "4", "--target", "1", "--method", "closed"])
    assert result.exit_code == 0
    assert "closed: 1" in result.output


def test_missing_n_is_usage_error(runner):
    result = runner.invoke(main, ["fidelity", "--family", "conv", "--q", "2", "--target", "1"])
    assert result.exit_code != 0


def test_invalid_target_is_usage_error(runner):
    result = runner.invoke(main, ["fidelity", "--family", "conv", "--q", "2", "--n", "3", "--target", "7"])
    assert result.exit_code == 1


def test_paths_all_methods(runner):
    result = runner.invoke(main, ["paths", "--from", "0,0", "--to", "2,2", "--s", "-1", "--t", "1", "--method", "all"])
    assert result.exit_code == 0
    counts = [line.split(": ")[1] for line in result.output.strip().splitlines()]
    assert counts == ["4", "4", "4"]


def test_noise_stats_depolarizing(runner, tmp_path):
    path = tmp_path / "depol.json"
    path.write_text(depolarizing(2, 0.04).to_json())
    result = runner.invoke(main, ["noise-stats", "--channel", str(path)])
    assert result.exit_code == 0
    assert "alpha = 0.97" in result.output
    assert "beta = 0.9412" in result.output


def test_compare_ok_and_exit_code(runner):
    result = runner.invoke(main, ["compare", "--family", "conv", "--q", "2", "--n", "5", "--target", "1"])
    assert result.exit_code == 0
    assert "max pairwise deviation" in result.output


def test_compare_tolerance_failure_exit_3(runner, tmp_path):
    path = tmp_path / "depol.json"
    path.write_text(depolarizing(2, 0.04).to_json())
    strict = runner.invoke(
        main,
        ["compare", "--family", "conv", "--q", "2", "--n", "5", "--target", "1", "--channel", str(path), "--tolerance", "1e-18"],
    )
    assert strict.exit_code == 3, strict.output


def test_sweep_csv_schema_and_determinism(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--family", "hybrid", "--q", "2", "--n", "4:8", "--m", "2", "--target", "1", "--method", "closed", "--seed", "11", "--output"]
    assert runner.invoke(main, args + [str(out1)]).exit_code == 0
    assert runner.invoke(main, args + [str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["family", "q", "n", "m", "target", "method", "value", "stderr", "seed"]
    assert [r["n"] for r in rows] == ["4", "5", "6", "7", "8"]
    values = [float(r["value"]) for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))  # fidelity grows with n


def test_sweep_json_mirrors_csv(runner, tmp_path):
    out_csv, out_json = tmp_path / "x.csv", tmp_path / "x.json"
    base = ["sweep", "--family", "conv", "--q", "2", "--n", "3:5", "--target", "1", "--method", "closed"]
    assert runner.invoke(main, base + ["--output", str(out_csv)]).exit_code == 0
    assert runner.invoke(main, base + ["--output", str(out_json), "--format", "json"]).exit_code == 0
    with open(out_csv) as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(out_json.read_text())
    assert len(csv_rows) == len(json_rows)
    for a, b in zip(csv_rows, json_rows):
        assert a["value"] == b["value"]
        assert set(a.keys()) == set(str(k) for k in b.keys())


def test_sweep_empty_method_list_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["sweep", "--family", "conv", "--q", "2", "--n", "3:5", "--method", " ", "--output", str(tmp_path / "y.csv")])
    assert result.exit_code == 1


def test_sweep_skips_infeasible_grid_points(runner, tmp_path):
    out = tmp_path / "deep.csv"
    result = runner.invoke(
        main,
        ["sweep", "--family", "local", "--q", "2", "--n", "4", "--m", "4:12", "--target", "1", "--method", "closed", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["m"] for r in rows] == ["4", "6", "8", "10", "12"]
    values = [float(r["value"]) for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))  # deep decay toward 1/q


def test_fidelity_noisy_closed_with_channel_file(runner, tmp_path):
    path = tmp_path / "depol.json"
    path.write_text(depolarizing(2, 0.04).to_json())
    result = runner.invoke(main, ["fidelity", "--family", "conv", "--q", "2", "--n", "4", "--target", "1", "--method", "closed,transfer,twirl", "--channel", str(path)])
    assert result.exit_code == 0, result.output
    values = [float(line.rsplit(":", 1)[1].split()[0]) for line in result.output.strip().splitlines()]
    assert max(values) - min(values) < 1e-9


def test_channel_of_wrong_qudit_dimension_exits_2(runner, tmp_path):
    path = tmp_path / "depol3.json"
    path.write_text(depolarizing(3, 0.05).to_json())
    for method in ("twirl", "mc", "closed", "transfer", "sum"):
        args = ["fidelity", "--q", "2", "--n", "4", "--channel", str(path), "--method", method, "--samples", "10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"error: {method}: channel acts on qudits of dimension 3" in result.output
        assert isinstance(result.exception, SystemExit), result.exception
    result = runner.invoke(main, ["compare", "--q", "2", "--n", "4", "--channel", str(path)])
    assert result.exit_code == 2, result.output
    assert "fewer than two feasible methods" in result.output


def test_arity2_channel_refused_by_analytic_routes(runner, tmp_path):
    # these routes ignore beta_u/beta_d; they used to agree on a wrong value
    u = haar_unitary(4, np.random.default_rng(3725))
    path = tmp_path / "pair.json"
    path.write_text(KrausChannel((np.sqrt(0.95) * np.eye(4), np.sqrt(0.05) * u), arity=2).to_json())
    for method in ("closed", "transfer", "sum"):
        result = runner.invoke(main, ["fidelity", "--q", "2", "--n", "4", "--channel", str(path), "--method", method])
        assert result.exit_code == 2, result.output
        assert f"error: {method}: arity-2 channels" in result.output
    result = runner.invoke(main, ["compare", "--q", "2", "--n", "4", "--channel", str(path)])
    assert result.exit_code == 2, result.output
    assert "fewer than two feasible methods" in result.output
    out = tmp_path / "pair.csv"
    args = ["sweep", "--n", "3:5", "--channel", str(path), "--method", "twirl,closed", "--output", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "error: closed: arity-2 channels" in result.output
    assert not out.exists()


def test_noisy_sum_undressed_recycled_wire_exits_2(runner, tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(amplitude_damping(2, 0.05).to_json())
    args = ["fidelity", "--family", "local", "--n", "4", "--m", "4", "--channel", str(path), "--method", "sum"]
    result = runner.invoke(main, args + ["--target", "3"])
    assert result.exit_code == 2, result.output
    assert "error: sum: " in result.output
    assert runner.invoke(main, args + ["--target", "1"]).exit_code == 0


CHANNEL_FILES = {
    "malformed_json": ('{"operators": [', 1),
    "missing_operators": ('{"arity": 1}', 1),
    "ill_shaped_operators": ('{"operators": [[1, 2]]}', 1),
    "non_square_operators": ('{"operators": [[[[1, 0], [0, 0]]]]}', 1),
    "not_trace_preserving": (KrausChannel((2 * np.eye(2),)).to_json(), 2),
}


@pytest.mark.parametrize("command", ["fidelity", "sweep", "compare", "noise-stats"])
@pytest.mark.parametrize("kind", sorted(CHANNEL_FILES))
def test_bad_channel_file_exits_cleanly(runner, tmp_path, command, kind):
    text, code = CHANNEL_FILES[kind]
    path = tmp_path / "channel.json"
    path.write_text(text)
    args = {
        "fidelity": ["fidelity", "--n", "3", "--method", "closed"],
        "sweep": ["sweep", "--n", "3", "--method", "closed", "--output", str(tmp_path / "out.csv")],
        "compare": ["compare", "--n", "3"],
        "noise-stats": ["noise-stats"],
    }[command]
    result = runner.invoke(main, args + ["--channel", str(path)])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    expected = "not trace preserving" if code == 2 else "malformed Kraus operators"
    assert expected in result.output
