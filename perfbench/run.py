"""Benchmark of the hypertoric library and its command line.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

A closed loop: one op at a time, each given a fixed time budget.  The model
workloads send ops to one worker process; ``cli`` starts one CLI process per
call.  Every answer is checked.  The last line of stdout is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  The exit code is 0 only when every answer was
right.  perfbench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing
from cli_shim import MARKER
from hostspeed import START_REF_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELS = Path("demos") / "models"
WORKLOADS = ("sectors", "desk", "cli")

BUDGET_S = {"sectors": 5.0, "desk": 5.0, "cli": 20.0}
# Every op of the pool runs once per round; the metrics pool all rounds.
ROUNDS = {"sectors": 3, "desk": 2, "cli": 3}
SETUP_SAMPLES = 9
START_TIMEOUT_S = 120.0
STOP_GRACE_S = 5.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing tree, wrong inputs, ...)."""


@dataclass
class Op:
    key: object
    status: str  # "ok", "stopped" or "failed"
    latency_s: float  # at the reference host speed; a stop or failure counts unscaled
    out: str | None = None
    detail: str = ""
    raw_s: float | None = None  # wall time as measured, when it differs

    def __post_init__(self):
        if self.raw_s is None:
            self.raw_s = self.latency_s


@dataclass
class Round:
    """One round over a workload's ops, traced or not."""

    ops: dict = field(default_factory=dict)  # key -> Op
    wall_s: float = 0.0  # the sum of the ops' latencies
    rss_kb: list[int] = field(default_factory=list)  # peaks seen after finished ops
    traces: list[dict] = field(default_factory=list)

    def stopped(self) -> set:
        return {k for k, op in self.ops.items() if op.status == "stopped"}


_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
_LIBC.prctl.restype = ctypes.c_int
PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Runs in each child before exec: if the benchmark is killed, its
    children are killed too, so no stopped op outlives the run."""
    _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def spawn(argv, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(argv, cwd=ROOT, env=child_env(), preexec_fn=_die_with_parent, **kwargs)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reap(proc: subprocess.Popen) -> int:
    """Wait for a child and return its peak resident set in KiB.  The peak
    also counts the pages the child shared with the parent between fork and
    exec; ``spawn`` forks (it runs ``preexec_fn``), so that is the part of
    the parent's heap copied into the child, not its whole footprint."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def wait_exit(proc: subprocess.Popen, timeout: float) -> bool:
    """True if the child exited within ``timeout`` seconds."""
    fd = os.pidfd_open(proc.pid)
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


class Worker:
    """One worker process of a model workload, spoken to a line at a time."""

    def __init__(self, workload: str, traced: bool, digest: str):
        cmd = [sys.executable, str(HERE / "worker.py"), workload] + (["--trace"] if traced else [])
        start = perf_counter()
        self.proc = spawn(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.traced = traced
        self.trace = None
        self._buf = b""
        try:
            line = self.read_line(start + START_TIMEOUT_S)
        except EOFError:
            line = None
        self.ready_s = perf_counter() - start
        if line is None:
            self.stop()
            raise BenchError("the %s worker did not start" % workload)
        got = json.loads(line)["digest"]
        if got != digest:
            self.stop()
            raise BenchError("%s inputs digest %s, BENCHMARK.json records %s" % (workload, got, digest))

    def read_line(self, deadline: float) -> bytes | None:
        """The next line, or None at the deadline; EOFError if the worker died."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def send(self, request) -> None:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()

    def _read_trace(self, deadline: float) -> None:
        try:
            while (line := self.read_line(deadline)) is not None:
                msg = json.loads(line)
                if "trace" in msg:
                    self.trace = msg["trace"]
                    return
        except (EOFError, ValueError):
            return

    def stop(self) -> None:
        """Stop the worker now.  A traced worker is first asked (SIGTERM) to
        write its trace, then killed in any case."""
        if self.traced:
            self.proc.send_signal(signal.SIGTERM)
            self._read_trace(perf_counter() + STOP_GRACE_S)
        self.proc.kill()
        self._reap()

    def close(self) -> None:
        """Let the worker finish cleanly, keeping its trace."""
        try:
            self.send("exit")
            self._read_trace(perf_counter() + STOP_GRACE_S)
        except BrokenPipeError:
            pass
        if not wait_exit(self.proc, STOP_GRACE_S):
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        reap(self.proc)
        self.proc.stdin.close()
        self.proc.stdout.close()


class ModelRunner:
    """Runs ``sectors``/``desk`` ops in one worker.  After an op that did
    not finish the worker is replaced, so nothing of that op reaches the
    next one."""

    def __init__(self, workload: str, traced: bool, digest: str, rnd: Round):
        self.args = (workload, traced, digest)
        self.budget = BUDGET_S[workload]
        self.round = rnd
        self.worker = Worker(*self.args)

    def run(self, key, request) -> Op:
        start = perf_counter()
        try:
            self.worker.send(request)
            line = self.worker.read_line(start + self.budget)
        except (BrokenPipeError, EOFError):
            line = b'{"error": "the worker died"}'
        if line is None:
            self.worker.stop()
            op = Op(key, "stopped", perf_counter() - start)
        else:
            reply = json.loads(line)
            if "out" in reply:
                op = _checked_model_op(key, reply, self.budget)
                self.round.rss_kb.append(reply["peak_kb"])
            else:
                op = Op(key, "failed", self.budget, detail=reply["error"])
            if op.status != "ok":
                self.worker.stop()
        if op.status != "ok":
            self.round.traces.append(self.worker.trace)
            self.worker = Worker(*self.args)
        return op

    def close(self) -> None:
        self.worker.close()
        self.round.traces.append(self.worker.trace)


def _checked_model_op(key, reply: dict, budget: float) -> Op:
    """The theorem says both sides agree: a finished op must say ok, with a
    nonzero number of checked components on each side."""
    out = reply["out"]
    res = json.loads(out)
    pull, iso = res["obstruction_pullback"], res["orbifold_iso"]
    if pull["ok"] and iso["ok"] and pull["components"] > 0 and iso["components"] > 0:
        return Op(key, "ok", scaled(reply["op_s"], reply["ref_s"]), out, raw_s=reply["op_s"])
    return Op(key, "failed", budget, out, "wrong answer: %s" % out)


class CliRunner:
    """Runs each ``cli`` op as a fresh CLI process; stdout and stderr go to
    unnamed temporary files, so a large output never blocks on a pipe."""

    def __init__(self, traced: bool, rnd: Round):
        self.traced = traced
        self.budget = BUDGET_S["cli"]
        self.round = rnd
        self.out = tempfile.TemporaryFile(dir=HERE)
        self.err = tempfile.TemporaryFile(dir=HERE)

    def run(self, key, request) -> Op:
        cmd, name = key
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        prog = [str(HERE / "cli_shim.py")] if self.traced else ["-m", "hypertoric.cli"]
        argv = [sys.executable, *prog, cmd, "--input", str(MODELS / name)]
        ref_s = start_reference_s()
        start = perf_counter()
        proc = spawn(argv, stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err)
        finished = False
        try:
            finished = wait_exit(proc, self.budget)
        finally:
            if not finished:
                proc.kill()
            rss_kb = reap(proc)
        latency = perf_counter() - start
        self.out.seek(0)
        self.err.seek(0)
        out, err = self.out.read().decode(), self.err.read().decode()
        if self.traced and MARKER in err:
            err, _, blob = err.rpartition(MARKER)
            trace = json.loads(blob)
            trace["count"]["cli.process_s"] = latency
            self.round.traces.append(trace)
        if not finished:
            return Op(key, "stopped", latency)
        want = inputs.EXPECTED_EXIT[name][cmd]
        if proc.returncode != want:
            detail = "exit %d, expected %d: %s" % (proc.returncode, want, err.strip()[-300:])
            return Op(key, "failed", self.budget, out, detail)
        self.round.rss_kb.append(rss_kb)
        return Op(key, "ok", scaled(latency, ref_s, START_REF_S), out, raw_s=latency)

    def close(self) -> None:
        self.out.close()
        self.err.close()


def run_round(make_runner, requests: list, skip: set, cap: float, setup=None, samples=0) -> Round:
    """Each (key, request) once, in the given order.  Keys in ``skip``, and
    every key once ``cap`` has passed, are not run.  ``setup``, if given, is
    called ``samples`` times spread over the round."""
    rnd = Round()
    runner = make_runner(rnd)
    every = -(-len(requests) // samples) if samples else 0
    try:
        for i, (key, request) in enumerate(requests):
            if every and i % every == 0:
                setup()
            if key in skip or perf_counter() > cap:
                continue
            op = runner.run(key, request)
            rnd.wall_s += op.latency_s
            rnd.ops[key] = op
    finally:
        runner.close()
    return rnd


def pooled(keys: list, rounds: list[Round], budget: float) -> list[Op]:
    """Every op of every round.  An op skipped because it stopped in the
    first round counts as stopped again; a key that no round reached before
    the cap counts once, as stopped at the budget."""
    out = [op for rnd in rounds for op in rnd.ops.values()]
    first = rounds[0].ops
    for rnd in rounds[1:]:
        out += [first[k] for k in first if k not in rnd.ops and first[k].status == "stopped"]
    reached = {k for rnd in rounds for k in rnd.ops}
    out += [Op(k, "stopped", budget, detail="not started") for k in keys if k not in reached]
    return out


def setup_sample(workload: str, digest: str) -> tuple[float, float]:
    """Seconds from process start until the first op could run, scaled and
    as measured: a fresh worker that imported hypertoric and drew its inputs,
    or for cli a fresh interpreter that imports the CLI module."""
    ref_s = start_reference_s()
    if workload != "cli":
        worker = Worker(workload, False, digest)
        worker.close()
        seconds = worker.ready_s
    else:
        seconds = run_to_exit([sys.executable, "-c", "import hypertoric.cli"])
    return scaled(seconds, ref_s, START_REF_S), seconds


def run_to_exit(argv) -> float:
    """Seconds from spawning ``argv`` until it exits with code 0."""
    start = perf_counter()
    proc = spawn(argv)
    if not wait_exit(proc, START_TIMEOUT_S):
        proc.kill()
    reap(proc)
    if proc.returncode != 0:
        raise BenchError("%s exited with %s" % (argv[1:], proc.returncode))
    return perf_counter() - start


def start_reference_s() -> float:
    """Seconds an isolated bare interpreter takes to start and exit: the
    host-speed reference for work that is mostly a process start."""
    return run_to_exit([sys.executable, "-I", "-S", "-c", "pass"])


def output_errors(rounds: list[Round]) -> list[str]:
    """An op's stdout must be byte-identical in every round it finished."""
    errors = []
    seen: dict = {}
    for rnd in rounds:
        for key, op in rnd.ops.items():
            if op.status == "ok" and seen.setdefault(key, op.out) != op.out:
                errors.append("stdout of %s differs between rounds" % (key,))
            if op.status == "failed":
                errors.append("%s: %s" % (key, op.detail))
    return errors


def end_to_end(ops: list[Op], setup: list[float], rss_kb: list[int], raw: bool = False) -> dict:
    """The end-to-end metrics; ``raw`` takes the wall times as measured."""
    lat = sorted(op.raw_s if raw else op.latency_s for op in ops)
    finished = sum(op.status == "ok" for op in ops)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (finished / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_tail_ms": (lat[len(lat) - TAIL_BEYOND - 1] * 1000, "ms"),
        "finished_share": (finished / len(lat), "share"),
        "peak_rss_mb": (max(rss_kb, default=0) / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, bench: dict) -> dict:
    digest = recorded_digests(bench).get(workload)
    if digest is None:
        raise BenchError("BENCHMARK.json records no inputs digest for %s" % workload)
    if workload == "cli":
        if inputs.digest("cli", ROOT) != digest:
            raise BenchError("cli inputs digest %s, BENCHMARK.json records %s"
                             % (inputs.digest("cli", ROOT), digest))
        keys = inputs.cli_calls(ROOT / MODELS)

        def make_runner(traced):
            return lambda rnd: CliRunner(traced, rnd)
    else:
        keys = list(range(inputs.MODEL_WORKLOADS[workload][1]))

        def make_runner(traced):
            return lambda rnd: ModelRunner(workload, traced, digest, rnd)

    cap = perf_counter() + seconds
    rounds: list[Round] = []
    setup: list[tuple[float, float]] = []
    n_rounds = 1 if trace else ROUNDS[workload]
    for r in range(n_rounds):
        # an op that stopped in the first round would only stop again
        skip = rounds[0].stopped() if rounds else set()
        order = [(k, k) for k in inputs.round_order(keys, seed, r)]
        samples = 0 if trace else -(-SETUP_SAMPLES // n_rounds)
        rounds.append(run_round(make_runner(False), order, skip, cap,
                                lambda: setup.append(setup_sample(workload, digest)), samples))
    ops = pooled(keys, rounds, BUDGET_S[workload])
    errors = output_errors(rounds)

    traced = None
    if trace:
        order = [(k, k) for k in inputs.round_order(keys, seed, 0)]
        traced = run_round(make_runner(True), order, set(), perf_counter() + seconds)
        errors += output_errors([rounds[0], traced])
        if traced.stopped() != rounds[0].stopped():
            errors.append("the traced round stopped %s, the untraced one %s"
                          % (sorted(map(str, traced.stopped())), sorted(map(str, rounds[0].stopped()))))
    if workload == "cli":
        outputs = {op.key: op.out for op in ops if op.status == "ok"}
        try:
            errors += checks.check_cli_outputs(outputs, ROOT / MODELS)
        except KeyError as exc:
            errors.append("a golden call did not finish: %s" % (exc,))

    report = {
        "workload": workload,
        "errors": errors,
        "attempted": len(ops),
        "failed": sum(op.status == "failed" for op in ops),
        "stopped": sorted({str(op.key) for op in ops if op.status == "stopped"}),
        "unstarted": sum(op.detail == "not started" for op in ops),
        "slowest_finished_s": max((op.raw_s for op in ops if op.status == "ok"), default=0.0),
        "rounds": len(rounds),
    }
    if trace:
        metrics = tracing.layer_metrics(tracing.merge(t for t in traced.traces if t))
        metrics["ops.stopped"] = {"value": len(traced.stopped()), "unit": "count"}
        metrics["trace.overhead_s"] = {"value": traced.wall_s - rounds[0].wall_s, "unit": "s"}
        metrics["trace.overhead_share"] = {
            "value": (traced.wall_s - rounds[0].wall_s) / rounds[0].wall_s, "unit": "share"}
        report["metrics"] = metrics
    else:
        rss = [kb for r in rounds for kb in r.rss_kb]
        report["metrics"] = end_to_end(ops, [s for s, _ in setup], rss)
        report["raw"] = end_to_end(ops, [s for _, s in setup], rss, raw=True)
    return report


def recorded_digests(bench: dict) -> dict:
    """Input digests, as recorded in the ``why`` of each workload."""
    out = {}
    for w in bench["workloads"]:
        m = re.search(r"inputs ([0-9a-f]{16})", w["why"])
        if m:
            out[w["name"]] = m.group(1)
    return out


def print_report(report: dict) -> None:
    n = report["attempted"]
    print("workload %s: %d ops in %d round(s), %d distinct ops stopped at the budget, %d failed, "
          "%d not started" % (report["workload"], n, report["rounds"], len(report["stopped"]),
                              report["failed"], report["unstarted"]))
    if report["stopped"]:
        print("  stopped ops: %s" % ", ".join(report["stopped"]))
    print("  slowest finished op: %.3f s" % report["slowest_finished_s"])
    metrics = dict(report["metrics"])
    if "finished_share" in metrics:
        metrics["failed_share"] = {"value": 1 - metrics["finished_share"]["value"], "unit": "share"}
        print("  op_tail_ms is the p%.1f latency of %d ops" % (100 * (n - TAIL_BEYOND) / n, n))
    raw = report.get("raw", {})
    if raw:
        print("  %-28s %14s %-6s %14s" % ("", "scaled", "", "as measured"))
    for name, m in metrics.items():
        line = "  %-28s %14.6f %-6s" % (name, m["value"], m["unit"])
        if name in raw:
            line += " %14.6f" % raw[name]["value"]
        print(line.rstrip())
    for e in report["errors"]:
        print("  WRONG: %s" % e)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="orders the ops of each round")
    parser.add_argument("--seconds", type=float, default=None,
                        help="cap on the timed rounds of a run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: an untraced and a traced round, per-layer metrics")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        for needed in (ROOT / "src" / "hypertoric" / "__init__.py", ROOT / MODELS, ROOT / "BENCHMARK.json"):
            if not needed.exists():
                raise BenchError("missing %s: run from a full checkout" % needed.relative_to(ROOT))
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        reports = []
        for name in [args.workload] if args.workload else WORKLOADS:
            report = run_workload(name, args.seed, seconds, bool(args.trace), bench)
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    correct = all(not r["errors"] for r in reports)
    if args.workload:
        r = reports[0]
        print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                          "metrics": r["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
