"""Self-tests of the benchmark: the budget, the input digests, the answer
checks, and that tracing changes no verdict and no byte of stdout.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

# ``verify`` on this input was still inside exact.snf after 30 s.
HANGING = [[[-2, -3, 2, -2], [2, 2, -1, -3]], [-4, -2]]
STOP_SLACK_S = 2.0


def _digest(workload: str) -> str:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return run.recorded_digests(bench)[workload]


def _model_round(workload: str, requests: list, traced: bool = False) -> run.Round:
    digest = _digest(workload)
    return run.run_round(
        lambda rnd: run.ModelRunner(workload, traced, digest, rnd), requests, set(), perf_counter() + 120
    )


def _cli_round(calls: list, traced: bool) -> run.Round:
    return run.run_round(lambda rnd: run.CliRunner(traced, rnd), [(c, c) for c in calls], set(),
                         perf_counter() + 120)


def test_budget_stops_a_hanging_op_and_later_ops_are_unaffected():
    small = list(inputs.model_pool("desk")[4])
    alone = _model_round("desk", [("small", small)])
    rnd = _model_round("desk", [("hang", HANGING), ("small", small)])
    budget = run.BUDGET_S["desk"]
    hang = rnd.ops["hang"]
    assert hang.status == "stopped"
    assert budget <= hang.latency_s <= budget + STOP_SLACK_S
    assert rnd.ops["small"].status == "ok"
    assert rnd.ops["small"].out == alone.ops["small"].out


def test_input_digests_match_and_do_not_depend_on_the_process():
    recorded = {w: _digest(w) for w in run.WORKLOADS}
    assert {w: inputs.digest(w, run.ROOT) for w in run.WORKLOADS} == recorded
    code = ("import sys, inputs; from pathlib import Path; "
            "print(*(inputs.digest(w, Path(sys.argv[1])) for w in sys.argv[2:]))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code, str(run.ROOT), *run.WORKLOADS], cwd=HERE,
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == [recorded[w] for w in run.WORKLOADS]


def test_pools_are_full_rank_and_generic_for_the_library_too():
    import hypertoric

    for workload in inputs.MODEL_WORKLOADS:
        for a, theta in inputs.model_pool(workload):
            assert hypertoric.check_generic(hypertoric.WeightMatrix.from_rows(a), theta).generic


def test_tracing_changes_no_verdict_and_no_byte_of_stdout():
    requests = [(i, i) for i in range(6)]
    plain = _model_round("sectors", requests)
    traced = _model_round("sectors", requests, traced=True)
    assert all(op.status == "ok" for op in plain.ops.values())
    assert {k: op.out for k, op in traced.ops.items()} == {k: op.out for k, op in plain.ops.items()}
    assert any(t and t["calls"].get("orbifold.star") for t in traced.traces)

    calls = [("chowring", "bmu3.json"), ("orbifold-table", "tp12.json"), ("verify", "tp1.json"),
             ("verify", "bmu3.json"), ("sre-check", "quadric_cone_sre.json"), ("chart-check", "tp12.json")]
    plain = _cli_round(calls, traced=False)
    traced = _cli_round(calls, traced=True)
    for c in calls:
        assert plain.ops[c].status == traced.ops[c].status == "ok", plain.ops[c].detail
        assert plain.ops[c].out == traced.ops[c].out
    assert len(traced.traces) == len(calls)


def _bmu3_outputs(graded_2="Z/3", cross="2*t1^2"):
    chow = {"relations": ["3*t1"], "graded": {"0": "Z", "1": "Z/3", "2": graded_2}}
    products = [
        {"g1": ["1/3"], "g2": ["1/3"], "target": ["2/3"], "poly": "2*t1"},
        {"g1": ["1/3"], "g2": ["2/3"], "target": ["0"], "poly": cross},
        {"g1": ["2/3"], "g2": ["2/3"], "target": ["1/3"], "poly": "t1"},
    ]
    return {
        ("chowring", "bmu3.json"): json.dumps(chow),
        ("orbifold-table", "bmu3.json"): json.dumps({"products": products}),
    }


def test_wrong_answers_are_caught():
    models = run.ROOT / run.MODELS
    assert checks.check_cli_outputs(_bmu3_outputs(), models) == []
    assert checks.check_cli_outputs(_bmu3_outputs(graded_2="Z/9"), models)
    assert checks.check_cli_outputs(_bmu3_outputs(cross="t1^2"), models)
    assert checks.graded_groups(["t1^2", "2*t2"], 2, [0, 1, 2]) == {
        "0": "Z", "1": "Z x Z/2", "2": "Z/2 x Z/2"}

    side = {"ok": True, "components": 3, "failures": 0}
    iso = dict(side, ring_failures=0, product_failures=0, age_failures=0)
    good = {"obstruction_pullback": side, "orbifold_iso": iso}
    def reply(res):
        return {"out": json.dumps(res), "op_s": 0.1, "ref_s": 0.01}

    assert run._checked_model_op(0, reply(good), 4.0).status == "ok"
    for bad in (dict(good, orbifold_iso=dict(iso, ok=False)),
                dict(good, obstruction_pullback=dict(side, components=0))):
        assert run._checked_model_op(0, reply(bad), 4.0).status == "failed"


def test_fails_without_a_result_outside_a_full_checkout():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sectors", "--seed", "1",
             "--seconds", "5", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
