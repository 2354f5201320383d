import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbpopt import cbp_truncate, parse_model
from cbpopt.cli import main
from cbpopt.modelfile import dump_json, model_to_doc
from conftest import fresh_env, run_fresh

TWO_ACTION = {
    "kind": "cbp",
    "cbp": {
        "m": 1,
        "actions": [
            {"id": "a1", "b": {"0": 1.0, "2": 2.0}},
            {"id": "a2", "b": {"0": 3.0, "2": 1.0}},
        ],
        "admissible": {"1": ["a1", "a2"]},
        "tail": ["a1"],
    },
}

GENERAL = {
    "kind": "general",
    "general": {
        "states": [0, 1, "delta"],
        "target": [0],
        "cemetery": "delta",
        "rates": {"1": {"a1": {"0": 1.0, "delta": 1.0}, "a2": {"0": 1.0, "delta": 3.0}}},
    },
}

# TWO_ACTION over a head of 199 states, each admitting both actions.
WIDE_HEAD = {
    "kind": "cbp",
    "cbp": {
        **TWO_ACTION["cbp"],
        "m": 199,
        "admissible": {str(i): ["a1", "a2"] for i in range(1, 200)},
    },
}


def _cbp_with(b=None, admissible=None, tail=None) -> dict:
    """A one-action m=1 branching model file with the given fields replaced."""
    body = {
        "m": 1,
        "actions": [{"id": "a", "b": b or {"0": 1.0, "2": 2.0}}],
        "admissible": admissible or {"1": ["a"]},
        "tail": tail or ["a"],
    }
    return {"kind": "cbp", "cbp": body}


def _general_with(rates) -> dict:
    """A general model file over states 0, 1, "d" with the given rates."""
    body = {"states": [0, 1, "d"], "target": [0], "cemetery": "d", "rates": rates}
    return {"kind": "general", "general": body}


@pytest.fixture
def cbp_path(tmp_path):
    path = tmp_path / "two_action.json"
    path.write_text(json.dumps(TWO_ACTION))
    return str(path)


@pytest.fixture
def general_path(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps(GENERAL))
    return str(path)


class TestModelFiles:
    def test_round_trip_cbp(self):
        model = parse_model(TWO_ACTION)
        again = parse_model(model_to_doc(model))
        assert again == model

    def test_round_trip_general(self):
        model = parse_model(GENERAL)
        again = parse_model(model_to_doc(model))
        assert again == model

    def test_unknown_field_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_ACTION))
        doc["cbp"]["extra"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1

    def test_duplicate_action_rejected(self, tmp_path):
        doc = json.loads(json.dumps(TWO_ACTION))
        doc["cbp"]["actions"].append({"id": "a1", "b": {"0": 1.0, "2": 1.0}})
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1
        with pytest.raises(json.JSONDecodeError) as decoding:
            json.loads("{not json")
        assert capsys.readouterr().err == f"model error: invalid JSON: {decoding.value}\n"

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"model error: [Errno 2] No such file or directory: {str(path)!r}\n"
        )

    def test_directory_is_a_model_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("model error: [Errno ") and err.endswith(f": {str(tmp_path)!r}\n")

    @pytest.mark.parametrize(
        "content",
        [b'{"kind": "\xff"}', b"[" * 100_000 + b"]" * 100_000, b'{"a":' * 100_000],
        ids=["invalid_utf8", "deep_lists", "deep_objects"],
    )
    def test_unreadable_file_is_a_model_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("model error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("solve", _cbp_with(b={"0": 1, "2": 1e308, "3": 1e308})),
            ("general", _general_with(rates={"1": {"a": {"0": 1e308, "d": 1e308}}})),
            ("solve", _cbp_with(b={"0": 1, "2": 10**400})),
            ("general", _general_with(rates={"1": {"a": {"0": 10**400}}})),
        ],
        ids=["cbp", "general", "cbp_400_digit_rate", "general_400_digit_rate"],
    )
    def test_rate_total_overflow_is_a_model_error(self, tmp_path, capsys, command, doc):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("model error:")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["rho", "solve"])
    def test_huge_offspring_count_is_a_model_error(self, tmp_path, capsys, command):
        # Validation rejects the count before root finding would allocate one
        # coefficient per count (8 GB here), so this runs in process.
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps(_cbp_with(b={"0": 1, "1000000000": 1e-5})))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("model error: offspring count must lie in 0..10000000")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("solve", _cbp_with(b={"0": 1.0, "2": 2.0, "02": 7.0})),
            ("solve", _cbp_with(b={"0": 1.0, " 2": 2.0})),
            ("solve", _cbp_with(b={"0": 1.0, "1_0": 2.0})),
            ("solve", _cbp_with(admissible={"1": ["a"], " 1": ["a"]})),
            ("solve", _cbp_with(admissible={"01": ["a"]})),
            ("solve", _cbp_with(b={"0": True, "2": 2.0})),
            ("solve", _cbp_with(b={"0": 1.0, "2": "2.0"})),
            ("general", _general_with(rates={"1": {"a": {"0": True}}})),
            ("general", _general_with(rates={"1": {"a": {"0": "2.0"}}})),
            ("solve", _cbp_with(tail=[1, "a"])),
            ("solve", _cbp_with(tail=[["a"]])),
            ("solve", _cbp_with(admissible={"1": [1, "a"]})),
            ("solve", _cbp_with(admissible={"1": [["a"]]})),
        ],
        ids=[
            "rate_keys_collide",
            "rate_key_space",
            "rate_key_underscore",
            "admissible_keys_collide",
            "admissible_key_zero_padded",
            "cbp_bool_rate",
            "cbp_string_rate",
            "general_bool_rate",
            "general_string_rate",
            "tail_int_id",
            "tail_list_id",
            "admissible_int_id",
            "admissible_list_id",
        ],
    )
    def test_bad_value_is_a_model_error(self, tmp_path, capsys, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("model error:")
        assert captured.out == ""

    def test_nan_diagonal_is_a_model_error(self, tmp_path, capsys):
        # Python's json reads the NaN literal, so the check must be in validation.
        path = tmp_path / "nan.json"
        text = json.dumps(GENERAL).replace('"0": 1.0, "delta": 1.0', '"0": 1.0, "1": NaN')
        path.write_text(text)
        assert "NaN" in text
        assert main(["general", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("model error:")
        assert captured.out == ""

    def test_seventeen_digit_floats(self):
        assert dump_json({"x": 13 / 21}) == '{"x":0.61904761904761907}'
        assert dump_json({"x": 0.5}) == '{"x":0.5}'
        assert dump_json([1, True, None, "s"]) == '[1,true,null,"s"]'


class TestCommands:
    def test_rho_json(self, cbp_path, capsys):
        assert main(["rho", cbp_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["a_star"] == "a1"
        assert abs(report["rho_star"] - 0.5) < 1e-10
        assert [row["id"] for row in report["actions"]] == ["a1"]

    def test_rho_json_reports_certified_bracket(self, cbp_path, capsys):
        assert main(["rho", cbp_path, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["actions"]
        lo, hi = row["bracket"]
        assert lo <= row["rho"] <= hi and hi - lo <= 1e-9
        assert main(["rho", cbp_path]) == 0
        assert "bracket" not in capsys.readouterr().out

    def test_solve_json_byte_stable(self, cbp_path, capsys):
        assert main(["solve", cbp_path, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["solve", cbp_path, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["optimal_policy"] == {"head": {"1": "a1"}, "tail": "a1"}
        assert report["optimal_profile"]["tail_kind"] == "geometric"

    def test_solve_trace_lists_iterations(self, cbp_path, capsys):
        assert main(["solve", cbp_path, "--start-policy", "1:a2", "--trace", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["iterations"]) == 2
        assert report["iterations"][-1]["policy"] == report["optimal_policy"]
        assert report["iterations"][0]["improved_states"] == [1]

    def test_solve_trace_human(self, cbp_path, capsys):
        assert main(["solve", cbp_path, "--start-policy", "1:a2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert out.count("[0]") == 1
        assert out.count("[1]") == 1

    def test_evaluate(self, cbp_path, capsys):
        assert main(["evaluate", cbp_path, "--policy", "1:a2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["profile"]["head_values"][0] - 6 / 7) < 1e-10

    @pytest.mark.parametrize(
        "command, option",
        [("evaluate", "--policy"), ("simulate", "--policy"), ("solve", "--start-policy")],
        ids=["evaluate", "simulate", "solve"],
    )
    @pytest.mark.parametrize(
        "spec, state", [("1:ghost", 1), ("7:a1", 7)], ids=["inadmissible", "out_of_range"]
    )
    def test_bad_policy_is_a_model_error(self, cbp_path, capsys, command, option, spec, state):
        assert main([command, cbp_path, option, spec]) == 1
        captured = capsys.readouterr()
        assert f"state {state}" in captured.err
        assert captured.out == ""

    def test_malformed_policy_spec(self, cbp_path):
        assert main(["evaluate", cbp_path, "--policy", "nonsense"]) == 3

    @pytest.mark.parametrize(
        "command, option",
        [("evaluate", "--policy"), ("simulate", "--policy"), ("solve", "--start-policy")],
        ids=["evaluate", "simulate", "solve"],
    )
    @pytest.mark.parametrize(
        "spec",
        ["1:a2,1:a1", "1:a2,01:a1", "+1:a2", "1_0:a2", "01:a2"],
        ids=["repeated", "repeated_padded", "plus_sign", "underscored", "zero_padded"],
    )
    def test_repeated_or_noncanonical_state_is_usage_error(
        self, cbp_path, capsys, command, option, spec
    ):
        # Small runs, so that a spec wrongly accepted fails fast.
        small = ["--n", "10", "--max-pop", "50"] if command == "simulate" else []
        assert main([command, cbp_path, option, spec, "--json", *small]) == 3
        assert capsys.readouterr().out == ""

    def test_policy_state_may_be_padded_with_spaces(self, cbp_path, capsys):
        assert main(["evaluate", cbp_path, "--policy", " 1 : a2 ", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy"]["head"] == {"1": "a2"}

    @pytest.mark.parametrize("seed", [2**64, 2**128], ids=["2**64", "2**128"])
    def test_seed_above_64_bits_is_usage_error(self, cbp_path, capsys, seed):
        # Only below 2**64 does each seed get a stream of its own.
        assert main(["simulate", cbp_path, "--n", "10", "--seed", str(seed), "--json"]) == 3
        assert capsys.readouterr().out == ""

    def test_largest_seed_runs(self, cbp_path, capsys):
        args = ["simulate", cbp_path, "--n", "10", "--max-pop", "50", "--json"]
        assert main(args + ["--seed", str(2**64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1

    def test_simulate_zero_n_is_usage_error(self, cbp_path):
        assert main(["simulate", cbp_path, "--n", "0"]) == 3

    def test_simulate_json(self, cbp_path, capsys):
        assert (
            main(
                [
                    "simulate",
                    cbp_path,
                    "--n",
                    "2000",
                    "--seed",
                    "5",
                    "--max-pop",
                    "200",
                    "--max-jumps",
                    "5000",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 2000
        assert 0.4 < report["p_hat"] < 0.6
        assert report["ci_low"] <= report["p_hat"] <= report["ci_high"]

    def test_general_command(self, general_path, capsys):
        assert main(["general", general_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["values"]["1"] - 0.25) < 1e-10
        assert report["policy"]["1"] == "a2"

    def test_general_residual_above_tol_is_numerical(self, tmp_path, capsys, monkeypatch):
        truncated = cbp_truncate(parse_model(TWO_ACTION), None, 40)
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(model_to_doc(truncated)))
        assert main(["general", str(path), "--json"]) == 0
        residual = json.loads(capsys.readouterr().out)["oe_residual"]
        assert 0.0 < residual <= 1e-12
        monkeypatch.setattr("cbpopt.general.OE_TOL", residual / 2)
        assert main(["general", str(path)]) == 2
        assert "residual" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "human"])
    def test_closed_stdout_exits_zero(self, cbp_path, flags):
        # The read end of the pipe is closed before the command starts, so
        # its first write fails with EPIPE every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = [sys.executable, "-m", "cbpopt.cli", "evaluate", cbp_path, *flags]
        try:
            done = subprocess.run(
                argv, stdout=write_end, stderr=subprocess.PIPE, env=fresh_env(), timeout=60
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_general_requires_general_model(self, cbp_path):
        assert main(["general", cbp_path]) == 1

    def test_rho_requires_cbp_model(self, general_path):
        assert main(["rho", general_path]) == 1

    def test_brute_cap_exceeded(self, cbp_path):
        assert main(["brute", cbp_path, "--cap", "1"]) == 3

    def test_brute_json(self, cbp_path, capsys):
        assert main(["brute", cbp_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["policies"]) == 2
        assert abs(report["profile"]["head_values"][0] - 0.5) < 1e-10

    def test_human_output_default(self, cbp_path, capsys):
        assert main(["solve", cbp_path]) == 0
        out = capsys.readouterr().out
        assert "rho_star" in out
        assert "optimal head" in out

    def test_exhaustive_ties_flag(self, tmp_path, capsys):
        # Tied tail actions are always cross-checked, with no flag.
        doc = json.loads(json.dumps(TWO_ACTION))
        doc["cbp"]["actions"].append({"id": "a3", "b": {"0": 2.0, "2": 4.0}})
        doc["cbp"]["tail"] = ["a1", "a3"]
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tied"] == ["a1", "a3"]

    @pytest.mark.parametrize("command", ["rho", "solve", "general"])
    def test_root_tolerance_is_not_an_option(self, cbp_path, general_path, command):
        # Certified roots stop at a fixed tolerance, and general certifies its
        # values against the fixed general.OE_TOL.
        path = general_path if command == "general" else cbp_path
        assert main([command, path, "--tol", "1e-13"]) == 3

    def test_exhaustive_ties_is_not_an_option(self, cbp_path):
        # solve always cross-checks tied tail actions.
        assert main(["solve", cbp_path, "--exhaustive-ties"]) == 3

    def test_thread_env_var_leaves_report_unchanged(self, cbp_path, capsys, monkeypatch):
        args = [
            "simulate",
            cbp_path,
            "--n",
            "500",
            "--seed",
            "9",
            "--max-pop",
            "100",
            "--max-jumps",
            "2000",
            "--json",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("CBP_OPT_THREADS", "abc")
        assert main(args) == 0
        assert capsys.readouterr().out == plain


def _bundled(name: str) -> str:
    return (Path(__file__).parent.parent / "models" / name).read_text()


@pytest.mark.parametrize(
    ("argv", "doc", "code"),
    [
        pytest.param(["rho"], TWO_ACTION, 0, id="rho"),
        pytest.param(["simulate"], "{not json", 1, id="invalid_json"),
        pytest.param(["solve"], _cbp_with(b={"0": 1.0, "1": 1.0, "2": 2.0}), 1, id="k_equals_1"),
        pytest.param(["general"], TWO_ACTION, 1, id="general_on_cbp"),
        pytest.param(["evaluate", "--policy", "1:"], TWO_ACTION, 3, id="malformed_policy"),
        *[
            pytest.param([command], _bundled(f"{name}.json"), 0, id=f"{command}_{name}")
            for command in ("solve", "evaluate", "brute")
            for name in ("two_action", "zero_death")
        ],
        pytest.param(["general"], _bundled("general_split.json"), 0, id="general_general_split"),
        pytest.param(["brute", "--cap", "1"], _bundled("two_action.json"), 3, id="brute_over_cap"),
        # General models run in plain Python at every size: about 600 entries.
        pytest.param(
            ["general"],
            model_to_doc(cbp_truncate(parse_model(TWO_ACTION), None, 300)),
            0,
            id="general_truncation_300",
        ),
        # 398 head rows, below the numpy threshold, with about 800 entries.
        pytest.param(["solve"], WIDE_HEAD, 0, id="solve_398_rows"),
    ],
)
def test_command_does_not_import_numpy(tmp_path, argv, doc, code):
    # Root finding is pure Python, small models compile to plain-Python
    # rows, and a command that fails before it computes has no use for
    # numpy; importing it would double the start-up.
    path = tmp_path / "model.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    script = (
        "import sys\n"
        "from cbpopt.cli import main\n"
        f"code = main({[argv[0], str(path), *argv[1:]]!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script).splitlines()[-1] == f"{code} False"


@pytest.mark.parametrize(
    ("argv", "doc", "absent"),
    [
        pytest.param(["simulate", "--n", "100"], TWO_ACTION, ["solver"], id="simulate"),
        pytest.param(["general"], GENERAL, ["solver", "gen_fn"], id="general"),
    ],
)
def test_command_loads_only_its_layers(tmp_path, argv, doc, absent):
    # The policy contract lives in model and the policy-iteration loop in
    # embedded, so neither command needs the branching solver.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from cbpopt.cli import main\n"
        f"code = main({[argv[0], str(path), *argv[1:]]!r})\n"
        f"print(code, [name for name in {absent!r} if f'cbpopt.{{name}}' in sys.modules])\n"
    )
    assert run_fresh(script).splitlines()[-1] == "0 []"


GOLDEN = Path(__file__).parent / "golden"
MODELS = Path(__file__).parent.parent / "models"


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_report_matches_golden(golden, capsys):
    # tests/golden/<command>_<model>.json holds the --json report on models/<model>.json.
    command, model = golden[: -len(".json")].split("_", 1)
    args = [command, str(MODELS / f"{model}.json"), "--json"]
    if command == "simulate":
        args += ["--n", "2000", "--seed", "7"]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
