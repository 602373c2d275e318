import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import rewindlab
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


def _pair_channel():
    u = haar_unitary(4, np.random.default_rng(3725))
    return KrausChannel((np.sqrt(0.95) * np.eye(4), np.sqrt(0.05) * u), arity=2)


@pytest.mark.parametrize(
    "channel,expected",
    [
        (lambda: depolarizing(2, 0.05), "alpha = 0.9625\nbeta = 0.926875\nrecycled_one = 1\nrecycled_s = 0.975\n"),
        (_pair_channel, "alpha = 0.952008223963\nbeta = 0.906562264916\nrecycled_one = 1\nrecycled_s = 1\n"),
    ],
    ids=["dep2", "pair2"],
)
def test_noise_stats_prints_exactly_four_statistics(runner, tmp_path, channel, expected):
    path = tmp_path / "channel.json"
    path.write_text(channel().to_json())
    result = runner.invoke(main, ["noise-stats", "--channel", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output == expected


@pytest.mark.parametrize("text", ["pair:3", "pair:3,2,1", "prefix:", "pair:a,b", "x"])
@pytest.mark.parametrize("command", ["fidelity", "sweep", "compare"])
def test_malformed_target_text_is_usage_error(runner, tmp_path, command, text):
    out = tmp_path / "rows.csv"
    args = {
        "fidelity": ["fidelity", "--n", "5"],
        "sweep": ["sweep", "--n", "4:6", "--output", str(out)],
        "compare": ["compare", "--n", "5"],
    }[command]
    result = runner.invoke(main, args + ["--target", text])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"malformed target {text!r}" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "target,message",
    [
        ({"kind": "single", "indices": [1, 2]}, "single target takes 1 index, got indices [1, 2]"),
        ({"kind": "prefix", "indices": []}, "prefix target takes 1 index, got indices []"),
        ({"kind": "pair", "indices": [3]}, "pair target takes 2 indices, got indices [3]"),
    ],
    ids=["single-two", "prefix-none", "pair-one"],
)
def test_spec_target_with_wrong_index_count_is_usage_error(runner, tmp_path, target, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "conv", "n": 5, "target": target}))
    result = runner.invoke(main, ["fidelity", "--spec", str(path), "--method", "closed"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output


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


SKIP_LINE = "skipped {} infeasible grid points (shape or target) and {} method rows (outside the method's regime)\n"


def test_sweep_counts_skipped_points_on_stderr(runner, tmp_path):
    out = tmp_path / "deep.csv"
    args = ["sweep", "--family", "local", "--n", "4", "--m", "4:12", "--target", "1", "--method", "closed", "--output", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # m = 5, 7, 9, 11 break the local parity rule; stdout keeps its one line
    assert result.stdout == f"wrote 5 rows to {out}\n"
    assert result.stderr == SKIP_LINE.format(4, 0)


def test_sweep_counts_skipped_method_rows_on_stderr(runner, tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(amplitude_damping(2, 0.05).to_json())
    out = tmp_path / "rows.csv"
    args = ["sweep", "--family", "local", "--n", "4", "--m", "2:6", "--target", "3", "--channel", str(path)]
    result = runner.invoke(main, args + ["--method", "sum,twirl", "--output", str(out)])
    assert result.exit_code == 0, result.output
    # m = 3, 5 are infeasible; the sum refuses the undressed recycled wire at m = 2, 4, 6
    assert result.stdout == f"wrote 3 rows to {out}\n"
    assert result.stderr == SKIP_LINE.format(2, 3)


def test_sweep_without_skips_prints_nothing_on_stderr(runner, tmp_path):
    out = tmp_path / "hybrid.csv"
    args = ["sweep", "--family", "hybrid", "--n", "4:8", "--m", "2", "--method", "closed", "--output", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == f"wrote 5 rows to {out}\n"
    assert result.stderr == ""


def test_deep_local_sweep_writes_every_admitted_point(runner, tmp_path):
    # every point with m > n + 22 evaluates a hybrid tower of more than 12 sweeps
    out = tmp_path / "local.csv"
    args = ["sweep", "--family", "local", "--q", "2,3", "--n", "3:24", "--m", "1:46", "--method", "closed", "--output", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    admitted = [(q, n, m) for q in (2, 3) for n in range(4, 25, 2) for m in range(2, 47, 2)]
    assert [(int(r["q"]), int(r["n"]), int(r["m"])) for r in rows] == admitted
    assert all(0 < float(r["value"]) <= 1 for r in rows)


def test_fidelity_closed_and_sum_agree_exactly_on_large_hybrid(runner):
    args = ["fidelity", "--family", "hybrid", "--q", "2", "--n", "30", "--m", "15", "--target", "1", "--method", "closed,sum"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    closed, total = result.output.strip().splitlines()
    assert "closed: " in closed and "sum: " in total
    exact = closed.split("(= ")[1]
    assert "/" in exact and total.split("(= ")[1] == exact


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
    # these routes read per-qudit statistics, which an arity-2 channel does
    # not reduce to; they used to agree on a wrong value
    path = tmp_path / "pair.json"
    path.write_text(_pair_channel().to_json())
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


def test_sweep_skips_only_the_refusing_method(runner, tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(amplitude_damping(2, 0.05).to_json())
    out = tmp_path / "rows.csv"
    args = ["sweep", "--family", "local", "--n", "4", "--m", "2:6", "--target", "3", "--channel", str(path)]
    result = runner.invoke(main, args + ["--method", "sum,twirl", "--output", str(out)])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # m = 2, 4, 6; the sum refuses the undressed recycled wire at every point
    assert [(r["m"], r["method"]) for r in rows] == [("2", "twirl"), ("4", "twirl"), ("6", "twirl")]


def test_fidelity_sum_reaches_hybrid_cap(runner):
    args = ["fidelity", "--family", "hybrid", "--n", "24", "--m", "12", "--method", "closed,sum"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    exact = [line.split("(= ")[1].rstrip(")") for line in result.output.strip().splitlines()]
    assert len(exact) == 2 and exact[0] == exact[1]


CHANNEL_FILES = {
    "malformed_json": ('{"operators": [', 1),
    "missing_operators": ('{"arity": 1}', 1),
    "ill_shaped_operators": ('{"operators": [[1, 2]]}', 1),
    "non_square_operators": ('{"operators": [[[[1, 0], [0, 0]]]]}', 1),
    "not_trace_preserving": (KrausChannel((2 * np.eye(2),)).to_json(), 2),
    # an arity the routes cannot read: zero, negative, not an integer, or three qudits
    "arity_zero": (json.dumps({"arity": 0, "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}), 1),
    "arity_negative": (json.dumps({"arity": -1, "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}), 1),
    "arity_not_integer": (json.dumps({"arity": "x", "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}), 1),
    "arity_three": (json.dumps({"arity": 3, "operators": [[[[float(r == c), 0] for c in range(8)] for r in range(8)]]}), 1),
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


def _bad_path_case(tmp_path, case):
    """(args, message) of a command line whose one path option is unusable; the rest is valid."""
    channel = tmp_path / "depol.json"
    channel.write_text(depolarizing(2, 0.04).to_json())
    folder, missing = str(tmp_path), str(tmp_path / "missing" / "out.csv")
    sweep = ["sweep", "--n", "3:5", "--method", "closed,twirl"]
    is_dir = f"'{folder}' is a directory"
    return {
        "fidelity --spec": (["fidelity", "--spec", folder], is_dir),
        "fidelity --channel": (["fidelity", "--n", "3", "--channel", folder], is_dir),
        "sweep --channel": (sweep + ["--output", str(tmp_path / "out.csv"), "--channel", folder], is_dir),
        "compare --channel": (["compare", "--n", "3", "--channel", folder], is_dir),
        "noise-stats --channel": (["noise-stats", "--channel", folder], is_dir),
        "sweep --output directory": (sweep + ["--channel", str(channel), "--output", folder], is_dir),
        "sweep --output in missing directory": (sweep + ["--channel", str(channel), "--output", missing], f"--output {missing}"),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "fidelity --spec",
        "fidelity --channel",
        "sweep --channel",
        "compare --channel",
        "noise-stats --channel",
        "sweep --output directory",
        "sweep --output in missing directory",
    ],
)
def test_unusable_path_option_is_usage_error(runner, tmp_path, case):
    args, message = _bad_path_case(tmp_path, case)
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output
    assert "wrote" not in result.output  # refused before any grid point runs
    assert [p.name for p in tmp_path.iterdir()] == ["depol.json"]  # and no file written


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_bare_alpha_beta_refused_by_simulating_routes(runner):
    # bare (alpha, beta) give no Kraus set: twirl and mc used to print the noiseless value
    args = ["fidelity", "--n", "4", "--alpha", "0.9", "--beta", "0.9"]
    for method in ("twirl", "mc"):
        result = runner.invoke(main, args + ["--method", f"closed,transfer,{method}", "--samples", "10"])
        assert result.exit_code == 2, result.output
        assert f"error: {method}: bare --alpha/--beta" in result.stderr
        assert result.stdout == ""  # refused before any route runs
    result = runner.invoke(main, args + ["--method", "closed,transfer"])
    assert result.exit_code == 0, result.output
    assert [line.split(": ")[1] for line in result.stdout.splitlines()] == ["0.640746666666667"] * 2


def test_sweep_bare_alpha_beta_refused_by_simulating_routes(runner, tmp_path):
    out = tmp_path / "bare.csv"
    for method in ("twirl", "mc"):
        args = ["sweep", "--n", "3:4", "--alpha", "0.9", "--beta", "0.9", "--method", f"closed,{method}"]
        result = runner.invoke(main, args + ["--samples", "10", "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: {method}: bare --alpha/--beta" in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("command", ["fidelity", "sweep", "compare"])
@pytest.mark.parametrize("bad", [["--alpha", "1.5", "--beta", "1.2"], ["--beta", "1.2"], ["--alpha", "-0.1"], ["--alpha", "nan"]])
def test_bare_alpha_beta_outside_unit_interval_is_usage_error(runner, tmp_path, command, bad):
    # transfer and sum used to agree on 1.890368 at alpha=1.5, beta=1.2
    out = tmp_path / "out.csv"
    args = {
        "fidelity": ["fidelity", "--n", "6", "--method", "transfer,sum"],
        "sweep": ["sweep", "--n", "3:6", "--method", "transfer,sum", "--output", str(out)],
        "compare": ["compare", "--n", "6"],
    }[command]
    result = runner.invoke(main, args + bad)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "is outside [0, 1]" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"n": 4}, "lacks the key 'family'"),
        ({"family": "conv", "n": 4, "target": {"kind": "single"}}, "lacks the key 'indices'"),
        ({"family": "conv", "n": "4"}, "has a field of the wrong type"),
        ({"family": "conv", "n": 4, "target": {"kind": "single", "indices": 3}}, "has a field of the wrong type"),
    ],
    ids=["no-family", "target-without-indices", "n-as-string", "indices-not-a-list"],
)
def test_spec_with_missing_or_mistyped_key_is_usage_error(runner, tmp_path, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["fidelity", "--spec", str(path), "--method", "closed"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"family": "conv", "n": 4.0}, "n = 4.0 is not an integer"),
        ({"family": "conv", "n": 4, "q": True}, "q = True is not an integer"),
        ({"family": "conv", "n": 4, "target": {"kind": "single", "indices": [2.5]}}, "indices [2.5] are not integers"),
    ],
    ids=["n-as-float", "q-as-bool", "index-as-float"],
)
@pytest.mark.parametrize("method", ["closed", "sum", "twirl", "mc"])
def test_spec_with_non_integer_field_is_usage_error(runner, tmp_path, spec, message, method):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["fidelity", "--spec", str(path), "--method", method, "--samples", "10"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "has a field of the wrong type" in result.output
    assert message in result.output


def test_mc_past_its_vector_cap_exits_2(runner):
    # noiseless conv n=21: 2^21 state amplitudes per sample, over the 2^20 cap
    result = runner.invoke(main, ["fidelity", "--n", "21", "--method", "mc", "--samples", "1"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: mc:")
    assert "exceeds cap" in result.stderr


@pytest.mark.parametrize("command", ["fidelity", "sweep"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_usage_error(runner, tmp_path, command, samples):
    out = tmp_path / "out.csv"
    args = {
        "fidelity": ["fidelity", "--n", "4"],
        "sweep": ["sweep", "--n", "3:4", "--output", str(out)],
    }[command]
    result = runner.invoke(main, args + ["--method", "mc", "--samples", samples])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "--samples" in result.output
    assert not out.exists()


def test_sweep_noisy_closed_on_multi_qudit_target_refused_up_front(runner, tmp_path):
    # the closed form's target error used to skip every grid point: 0 rows, exit 0
    out = tmp_path / "prefix.csv"
    args = ["sweep", "--n", "4:6", "--target", "prefix:2", "--alpha", "0.9", "--beta", "0.9", "--output", str(out)]
    result = runner.invoke(main, args + ["--method", "closed,transfer"])
    assert result.exit_code == 2, result.output
    assert "error: closed: " in result.stderr
    assert not out.exists()
    result = runner.invoke(main, args + ["--method", "transfer"])
    assert result.exit_code == 0, result.output
    assert [r["n"] for r in _rows(out)] == ["4", "5", "6"]


def test_conv_with_several_sweeps_is_a_shape_error(runner, tmp_path):
    # conv pins m = 1; closed and transfer used to answer m = 3 with the m = 1 value
    result = runner.invoke(main, ["fidelity", "--n", "4", "--m", "3", "--method", "closed,transfer"])
    assert result.exit_code == 1, result.output
    assert "exactly one sweep" in result.output
    result = runner.invoke(main, ["compare", "--n", "4", "--m", "3"])
    assert result.exit_code == 1, result.output
    out = tmp_path / "conv.csv"
    result = runner.invoke(main, ["sweep", "--n", "3:4", "--m", "1:2", "--method", "closed", "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert [(r["n"], r["m"]) for r in _rows(out)] == [("3", "1"), ("4", "1")]


def test_unknown_method_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["fidelity", "--n", "4", "--method", "closed,bogus"])
    assert result.exit_code == 1, result.output
    assert "unknown method 'bogus'" in result.output
    assert "closed:" not in result.output  # raised before any computation
    out = tmp_path / "bogus.csv"
    result = runner.invoke(main, ["sweep", "--n", "3:5", "--method", "closed,bogus", "--output", str(out)])
    assert result.exit_code == 1, result.output
    assert "unknown method 'bogus'" in result.output
    assert not out.exists()


def test_compare_names_skipped_routes_on_stderr(runner, tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(amplitude_damping(2, 0.05).to_json())
    result = runner.invoke(main, ["compare", "--family", "hybrid", "--n", "4", "--m", "2", "--channel", str(path)])
    assert result.exit_code == 0, result.output
    assert result.stdout == "sum: 0.575715641045374\ntwirl: 0.575715641045373\nmax pairwise deviation: 9.99e-16\n"
    skipped = [line.split(": ", 1) for line in result.stderr.splitlines()]
    assert [route for route, _ in skipped] == ["skipped closed", "skipped wall", "skipped transfer", "skipped mc"]
    assert all(reason for _, reason in skipped)


def test_compare_twirls_conv_past_six_qudits(runner):
    # a convolutional sweep keeps two qudits live, so the oracle reaches any n
    result = runner.invoke(main, ["compare", "--family", "conv", "--n", "12"])
    assert result.exit_code == 0, result.output
    assert "twirl: " in result.stdout
    assert "skipped twirl" not in result.stderr


def test_twirl_past_its_live_width_cap_exits_2(runner):
    # brickwork does not narrow: local n=8 m=8 keeps all eight qudits live
    result = runner.invoke(main, ["fidelity", "--family", "local", "--n", "8", "--m", "8", "--method", "twirl"])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: twirl:")
    assert "8 live qudits" in result.stderr


# -- one route table: every answer matches the twirl, every refusal says which route --

ROUTE_SHAPES = {
    "conv-n4": ["--family", "conv", "--n", "4"],
    "hybrid-n4-m2": ["--family", "hybrid", "--n", "4", "--m", "2"],
    "local-n4-m4-t1": ["--family", "local", "--n", "4", "--m", "4", "--target", "1"],
    "local-n4-m4-t3": ["--family", "local", "--n", "4", "--m", "4", "--target", "3"],
}


@pytest.fixture(scope="module")
def route_value(tmp_path_factory):
    """(exit code, output, value) of one fidelity run, cached across the parametrized cases."""
    folder = tmp_path_factory.mktemp("channels")
    noise_args = {"none": [], "bare": ["--alpha", "0.9", "--beta", "0.9"]}
    for name, channel in (("ad", amplitude_damping(2, 0.05)), ("pair", _pair_channel())):
        path = folder / f"{name}.json"
        path.write_text(channel.to_json())
        noise_args[name] = ["--channel", str(path)]
    cache = {}

    def run(method, shape, noise):
        if (method, shape, noise) not in cache:
            args = ["fidelity", "--method", method] + ROUTE_SHAPES[shape] + noise_args[noise]
            result = CliRunner().invoke(main, args)
            value = float(result.stdout.split(": ")[1].split()[0]) if result.exit_code == 0 else None
            cache[method, shape, noise] = (result.exit_code, result.output, value)
        return cache[method, shape, noise]

    return run


@pytest.mark.parametrize("noise", ["none", "ad", "pair", "bare"])
@pytest.mark.parametrize("shape", sorted(ROUTE_SHAPES))
@pytest.mark.parametrize("method", ["closed", "wall", "sum", "transfer", "twirl"])
def test_route_matches_twirl_or_refuses(route_value, method, shape, noise):
    code, output, value = route_value(method, shape, noise)
    assert code in (0, 2), output
    if code == 2:
        assert f"error: {method}:" in output
        return
    # bare (alpha, beta) has no twirl; the sum answers every shape there
    reference = "sum" if noise == "bare" else "twirl"
    ref_code, ref_output, ref_value = route_value(reference, shape, noise)
    assert ref_code == 0, ref_output
    assert abs(value - ref_value) <= (1e-12 if noise == "bare" else 1e-9), (value, ref_value)


# Option names, required flags and defaults of the route commands, as they
# stood before the commands shared one option decorator.
ROUTE_COMMAND_OPTIONS = {
    "fidelity": {
        "family": (("--family",), False, "conv"), "q": (("--q",), False, 2), "n": (("--n",), False, None),
        "m": (("--m",), False, 1), "target": (("--target",), False, "1"), "spec_path": (("--spec",), False, None),
        "method": (("--method",), False, "closed"), "alpha": (("--alpha",), False, None),
        "beta": (("--beta",), False, None), "channel_path": (("--channel",), False, None),
        "samples": (("--samples",), False, 100_000), "seed": (("--seed",), False, 0),
    },
    "sweep": {
        "family": (("--family",), False, "conv"), "qs": (("--q",), False, "2"), "ns": (("--n",), True, None),
        "ms": (("--m",), False, "1"), "target": (("--target",), False, "1"), "method": (("--method",), False, "closed"),
        "alpha": (("--alpha",), False, None), "beta": (("--beta",), False, None),
        "channel_path": (("--channel",), False, None), "samples": (("--samples",), False, 100_000),
        "seed": (("--seed",), False, 0), "output": (("--output",), True, None), "fmt": (("--format",), False, "csv"),
    },
    "compare": {
        "family": (("--family",), False, "conv"), "q": (("--q",), False, 2), "n": (("--n",), True, None),
        "m": (("--m",), False, 1), "target": (("--target",), False, "1"), "alpha": (("--alpha",), False, None),
        "beta": (("--beta",), False, None), "channel_path": (("--channel",), False, None),
        "tolerance": (("--tolerance",), False, 1e-9),
    },
}


@pytest.mark.parametrize("command", sorted(ROUTE_COMMAND_OPTIONS))
def test_route_command_options_unchanged(command):
    params = main.commands[command].params
    found = {p.name: (tuple(p.opts), p.required, None if p.required else p.default) for p in params}
    assert found == ROUTE_COMMAND_OPTIONS[command]


@pytest.mark.parametrize("start,end", [("0,0", "2"), ("0,0,1", "2,2"), ("0", "2,2")])
def test_paths_point_not_two_integers_is_usage_error(runner, start, end):
    result = runner.invoke(main, ["paths", "--from", start, "--to", end, "--s", "-1", "--t", "1"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "points are two integers" in result.output


def test_paths_unknown_method_is_usage_error(runner):
    result = runner.invoke(main, ["paths", "--from", "0,0", "--to", "2,2", "--s", "-1", "--t", "1", "--method", "dp,nosuch"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "unknown method 'nosuch'" in result.output
    assert "dp:" not in result.output  # refused before any count


@pytest.mark.parametrize("tolerance", ["nan", "-1e-9"])
def test_compare_nan_or_negative_tolerance_is_usage_error(runner, tolerance):
    # nan let every deviation pass; a negative tolerance failed every run
    result = runner.invoke(main, ["compare", "--n", "4", "--tolerance", tolerance])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "--tolerance" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["fidelity", "--family", "hybrid", "--n", "6", "--m", "2", "--method", "closed"],
        ["sweep", "--family", "local", "--q", "2,3", "--n", "4:8", "--m", "2:6", "--method", "closed"],
    ],
    ids=["fidelity", "sweep"],
)
def test_closed_form_commands_leave_numpy_unloaded(args, tmp_path):
    """Closed forms are integer arithmetic; only the oracles and channels need numpy."""
    if args[0] == "sweep":
        args = args + ["--output", str(tmp_path / "out.csv")]
    code = (
        "import sys\n"
        "from rewindlab.cli import main\n"
        "try:\n"
        "    main.main(sys.argv[1:], standalone_mode=False)\n"
        "finally:\n"
        "    print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rewindlab.__file__))}
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False", out.stdout


def _readme_commands():
    """The ``rewindlab ...`` lines of README's "Command line" block, continuations joined."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    text = block.replace("\\\n", " ")
    return [line.split("#", 1)[0].split() for line in text.splitlines() if line.startswith("rewindlab ")]


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda c: c[1])
def test_readme_command_runs(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "depol.json").write_text(depolarizing(2, 0.04).to_json())
    (tmp_path / "shape.json").write_text(json.dumps({"family": "conv", "n": 4, "q": 2, "target": {"kind": "single", "indices": [1]}}))
    result = runner.invoke(main, command[1:])
    assert result.exit_code == 0, (command, result.output)
