import json
import random
from fractions import Fraction

import pytest

import hypertoric.cli as cli
import hypertoric.model as model_module
import hypertoric.orbifold as orbifold_module
from hypertoric import ObstructionPullbackReport, OrbifoldIsoReport, TorsionElement
from hypertoric.chow import IsoReport
from hypertoric.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, InputError, main, parse_model
from hypertoric.orbifold import PullbackCheck
from hypertoric.sampling import random_generic_instance


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tp12(tmp_path):
    return write(tmp_path, "tp12.json", {"A": [[1, 2]], "theta": [1], "kind": "hypertoric"})


@pytest.fixture
def bmu3(tmp_path):
    return write(tmp_path, "bmu3.json", {"A": [[0, 1, 2, 3]], "kind": "direct", "unstable": [[4]]})


@pytest.fixture
def nongeneric(tmp_path):
    return write(
        tmp_path, "nongeneric.json",
        {"A": [[1, 0, 1], [0, 1, 1]], "theta": [1, 0], "kind": "lawrence"},
    )


def test_parse_model_valid(tp12):
    model = parse_model(tp12)
    assert model.kind == "hypertoric" and model.d == 1 and model.n == 2


def test_parse_model_nongeneric_names_witness(nongeneric):
    with pytest.raises(InputError) as err:
        parse_model(nongeneric)
    assert "basis {1,3}, lambda_3 = 0" in str(err.value)


def test_parse_model_rank_deficient(tmp_path):
    path = write(tmp_path, "bad.json", {"A": [[0, 0]], "theta": [1]})
    with pytest.raises(InputError, match="rank deficient"):
        parse_model(path)


def test_parse_model_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InputError, match="malformed JSON"):
        parse_model(str(path))


def test_inertia_subcommand(bmu3, capsys):
    assert main(["inertia", "--input", bmu3]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"v": ["0"], "order": 1, "fixed": [1, 2, 3, 4], "age": "0"},
        {"v": ["1/3"], "order": 3, "fixed": [1, 4], "age": "1"},
        {"v": ["2/3"], "order": 3, "fixed": [1, 4], "age": "1"},
    ]


def test_chowring_subcommand(bmu3, capsys):
    assert main(["chowring", "--input", bmu3, "--degree", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["relations"] == ["3*t1"]
    assert data["graded"]["1"] == "Z/3"


def test_orbifold_table_subcommand(bmu3, capsys):
    assert main(["orbifold-table", "--input", bmu3, "--degree", "4"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    products = {(tuple(p["g1"]), tuple(p["g2"])): p for p in data["products"]}
    assert products[(("1/3",), ("2/3",))]["poly"] == "2*t1^2"
    assert products[(("1/3",), ("2/3",))]["target"] == ["0"]


def test_verify_subcommand_pass(tp12, capsys):
    assert main(["verify", "--input", tp12, "--degree", "5", "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "obstruction-pullback: pass; orbifold-iso: pass" in out


def test_verify_rejects_nongeneric_with_exit_2(nongeneric, capsys):
    assert main(["verify", "--input", nongeneric]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "basis {1,3}" in err


def test_chart_check_subcommand(tp12, capsys):
    assert main(["chart-check", "--input", tp12, "--samples", "20", "--seed", "5"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and len(data["charts"]) == 2


def test_sre_check_fail_path(tmp_path, capsys):
    path = write(tmp_path, "sre.json", {"order": 2, "normal_weights": [[-1], [-1]]})
    assert main(["sre-check", "--input", path]) == EXIT_VERIFY_FAILED
    data = json.loads(capsys.readouterr().out)
    assert data["condition_iii"] is False
    assert data["violations"]


def test_sre_check_on_model(tp12, capsys):
    assert main(["sre-check", "--input", tp12]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["condition_iii"] is True


def test_analyze_subcommand(tp12, capsys):
    assert main(["analyze", "--input", tp12]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["coords"] == ["x1", "x2", "y1", "y2"]
    assert data["minimal_unstable"] == [["x1", "x2"]]


def test_output_is_deterministic(bmu3, capsys):
    main(["orbifold-table", "--input", bmu3, "--degree", "4"])
    first = capsys.readouterr().out
    main(["orbifold-table", "--input", bmu3, "--degree", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_bad_flags_exit_2(tp12, capsys):
    assert main(["chowring", "--input", tp12, "--degree", "0"]) == EXIT_INPUT_ERROR
    assert main(["chart-check", "--input", tp12, "--samples", "0"]) == EXIT_INPUT_ERROR


def test_analyze_refuses_a_degree(tp12, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", tp12, "--degree", "3"])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --degree 3" in capsys.readouterr().err


_OWNED = {"--degree": {"chowring", "orbifold-table", "verify"},
          "--seed": {"chart-check"}, "--samples": {"chart-check"}}


@pytest.mark.parametrize("command", ["analyze", "inertia", "chowring", "orbifold-table",
                                     "verify", "chart-check", "sre-check"])
def test_each_subcommand_takes_only_its_flags(command, tp12, capsys):
    # a flag the subcommand would not read exits 2 instead of being ignored
    for flag, owners in _OWNED.items():
        argv = [command, "--input", tp12, flag, "3"]
        if command in owners:
            assert main(argv) == EXIT_OK
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_INPUT_ERROR
    assert main([command, "--input", tp12, "--format", "text"]) == EXIT_OK


@pytest.mark.parametrize(
    "payload, reason",
    [
        ({"A": [[1.5, 2]], "theta": [1]}, "'A' entries must be integers, got 1.5"),
        ({"A": [[1, True]], "theta": [1]}, "'A' entries must be integers, got True"),
        ({"A": [[1, 2]], "theta": [1.0]}, "'theta' entries must be integers, got 1.0"),
        ({"A": [[1, 2]], "theta": [False]}, "'theta' entries must be integers, got False"),
        (
            {"A": [[0, 1, 2, 3]], "kind": "direct", "unstable": [[1.9]]},
            "'unstable' entries must be integers, got 1.9",
        ),
        ({"A": [[1, 2]], "theta": 5}, "'theta' must be a list of d=1 integers, got 5"),
        ({"A": [[1, 2]], "theta": [1, 2]}, "'theta' must be a list of d=1 integers, got [1, 2]"),
        (
            {"A": [[1, 2]], "kind": "direct", "unstable": 4},
            "'unstable' must be a list of lists of column indices, got 4",
        ),
        (
            {"A": [[0, 1, 2, 3]], "kind": "direct", "unstable": [4]},
            "'unstable' must be a list of lists of column indices, got [4]",
        ),
        ({"A": [[1, 2]], "theta": [[1]]}, "'theta' entries must be integers, got [1]"),
        (
            {"A": [[0, 1, 2, 3]], "kind": "direct", "unstable": [[[4]]]},
            "'unstable' entries must be integers, got [4]",
        ),
        ({"A": [[[1], 2]], "theta": [1]}, "'A' entries must be integers, got [1]"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "sre-check"])
def test_non_integer_model_entries_exit_2(tmp_path, capsys, payload, reason, command):
    path = write(tmp_path, "model.json", payload)
    assert main([command, "--input", path]) == EXIT_INPUT_ERROR
    assert json.loads(capsys.readouterr().err) == {"error": reason}


def test_nongeneric_message_same_on_both_paths(nongeneric, capsys):
    assert main(["analyze", "--input", nongeneric]) == EXIT_INPUT_ERROR
    via_model = capsys.readouterr().err
    assert main(["sre-check", "--input", nongeneric]) == EXIT_INPUT_ERROR
    via_sre = capsys.readouterr().err
    assert via_model == via_sre
    assert json.loads(via_sre)["error"].startswith("non-generic: basis {1,2}")


def test_direct_model_with_a_dual_coordinate_exits_2(tmp_path, capsys):
    path = write(tmp_path, "direct.json", {"A": [[1, 0, 1], [0, 1, 1]], "theta": [1, -1], "kind": "direct"})
    assert main(["analyze", "--input", path]) == EXIT_INPUT_ERROR
    reason = "sigma set selects dual coordinate y2 but the model is not doubled"
    assert json.loads(capsys.readouterr().err) == {"error": reason}


@pytest.mark.parametrize(
    "payload, reason",
    [
        (
            {"generators": [["1/2"]], "normal_weights": [[0, 1]]},
            "normal weight [0, 1] has 2 entries, generator (1/2) has 1",
        ),
        ({"order": 2, "normal_weights": [[]]}, "normal weight [] has 0 entries, generator (1/2) has 1"),
        (
            {"order": 2, "normal_weights": [[1, 1]]},
            "normal weight [1, 1] has 2 entries, generator (1/2) has 1",
        ),
        ({"order": 2, "normal_weights": [[1.5]]}, "'normal_weights' entries must be integers, got 1.5"),
        (
            {"generators": [[0.1]], "normal_weights": [[1]]},
            "'generators' entries must be integers or 'p/q' strings, got 0.1",
        ),
        (
            {"generators": [[True]], "normal_weights": [[1]]},
            "'generators' entries must be integers or 'p/q' strings, got True",
        ),
        (
            {"generators": [["0.5"]], "normal_weights": [[1]]},
            "'generators' entries must be integers or 'p/q' strings, got '0.5'",
        ),
        (
            {"generators": ["1/2"], "normal_weights": [[1]]},
            "'generators' must be a list of lists, got ['1/2']",
        ),
        ({"order": 2, "normal_weights": [[[1]]]}, "'normal_weights' entries must be integers, got [1]"),
        ({"order": [2], "normal_weights": [[1]]}, "'order' entries must be integers, got [2]"),
    ],
)
def test_malformed_sre_weights_exit_2(tmp_path, capsys, payload, reason):
    path = write(tmp_path, "sre.json", payload)
    assert main(["sre-check", "--input", path]) == EXIT_INPUT_ERROR
    assert json.loads(capsys.readouterr().err) == {"error": "bad sre input: " + reason}


def test_sre_generators_accept_ints_and_rationals(tmp_path, capsys):
    path = write(tmp_path, "sre.json", {"generators": [[1, "-3/4"]], "normal_weights": [[4, 4]]})
    assert main(["sre-check", "--input", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["condition_iii"] is True


def test_verify_names_each_failure(tp12, capsys, monkeypatch):
    g = TorsionElement.from_fractions([Fraction(1, 2)])
    e = TorsionElement.identity(1)
    iso = OrbifoldIsoReport(
        False, 2,
        ring_failures=((g, IsoReport(False, 3, "not injective")),),
        product_failures=(((g, e), None, None),),
        age_failures=((g, Fraction(1), Fraction(2)),),
        detail="inertia element sets differ",
    )
    pull = ObstructionPullbackReport(
        False, 0, (PullbackCheck(None, None, False, "double inertia components differ"),)
    )
    monkeypatch.setattr(cli, "verify_orbifold_iso", lambda *args: iso)
    monkeypatch.setattr(cli, "verify_obstruction_pullback", lambda *args: pull)
    assert main(["verify", "--input", tp12]) == EXIT_VERIFY_FAILED
    data = json.loads(capsys.readouterr().out)
    assert data["obstruction_pullback"]["failures"] == [
        {"g1": None, "g2": None, "detail": "double inertia components differ"}
    ]
    got = data["orbifold_iso"]
    assert (got["ring_failures"], got["product_failures"], got["age_failures"]) == (1, 1, 1)
    assert got["failures"] == [
        {"kind": "ring", "v": ["1/2"], "failing_degree": 3, "reason": "not injective"},
        {"kind": "product", "g1": ["1/2"], "g2": ["0"]},
        {"kind": "age", "v": ["1/2"], "ambient_age": "1", "fiber_age": "2"},
        {"kind": "detail", "detail": "inertia element sets differ"},
    ]
    assert data["ok"] is False


def test_verify_pass_lists_no_failures(tp12, capsys):
    assert main(["verify", "--input", tp12]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["obstruction_pullback"]["failures"] == []
    assert data["orbifold_iso"]["failures"] == []


@pytest.mark.parametrize("kind", ["lawrence", "hypertoric"])
@pytest.mark.parametrize("command", ["verify", "chart-check"])
def test_each_command_arranges_its_input_once(command, kind, tmp_path, capsys, monkeypatch):
    # every command parses its model through the memo the verifiers read,
    # so the Lawrence model is arranged once, as for chart-check (verify
    # arranged it twice); the output is that of a first run on empty memos,
    # and parsing the input again reads the same model
    a, theta = random_generic_instance(random.Random(3), 2, 4)
    path = write(tmp_path, "m.json", {"A": [list(r) for r in a.matrix.entries],
                                      "theta": list(theta), "kind": kind})
    assert main([command, "--input", path]) == EXIT_OK
    cold = capsys.readouterr().out
    model_module._lawrence_pair.cache_clear()
    orbifold_module._analysis.cache_clear()
    arranged = []
    arrange = model_module._git_arrangement

    def spy(*args, **kwargs):
        arranged.append(args)
        return arrange(*args, **kwargs)

    monkeypatch.setattr(model_module, "_git_arrangement", spy)
    assert main([command, "--input", path]) == EXIT_OK
    assert len(arranged) == 1
    assert capsys.readouterr().out == cold
    parsed = parse_model(path)
    assert parsed.kind == kind and len(arranged) == 1
    builder = model_module.lawrence_model if kind == "lawrence" else model_module.hypertoric_model
    assert parsed == builder(a, theta) and len(arranged) == 2
