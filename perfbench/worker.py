"""Worker process of the model workloads (``sectors`` and ``desk``).

    python3 perfbench/worker.py <workload> [--trace]

It imports hypertoric, draws the workload's input pool, and prints one
ready line with the pool digest.  Then it reads one request per line on
stdin and answers each with one JSON line on stdout:

    <index>         run op <index> of the pool: verify_obstruction_pullback,
                    then verify_orbifold_iso(bound=5), as ``hypertoric verify``
    [A, theta]      the same op on an input given in JSON
    "exit"          reply with the trace summary (or null) and exit

An op's reply carries its answer, its time, the time of the host-speed
reference loop run just before it, and the worker's peak resident set.

With ``--trace`` the library's layers are wrapped before the ready line.
On SIGTERM a traced worker writes its summary, with the spans still open
closed at that moment, and exits; that keeps the trace of a stopped op.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs
from hostspeed import reference_s

ISO_BOUND = 5


def run_op(hypertoric, a, theta) -> dict:
    w = hypertoric.WeightMatrix.from_rows(a)
    pull = hypertoric.verify_obstruction_pullback(w, theta)
    iso = hypertoric.verify_orbifold_iso(w, theta, ISO_BOUND)
    return {
        "obstruction_pullback": {
            "ok": pull.ok, "components": pull.checked, "failures": len(pull.failures),
        },
        "orbifold_iso": {
            "ok": iso.ok,
            "components": iso.components,
            "ring_failures": len(iso.ring_failures),
            "product_failures": len(iso.product_failures),
            "age_failures": len(iso.age_failures),
        },
    }


def _peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    workload = argv[1]
    traced = "--trace" in argv[2:]
    import hypertoric

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

        def on_term(signum, frame):
            _send({"trace": tracer.summary()})
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)

    pool = inputs.model_pool(workload)
    _send({"ready": True, "digest": inputs.digest(workload, Path.cwd())})
    for op, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request == "exit":
            _send({"trace": tracer.summary() if tracer else None})
            return 0
        if tracer:
            tracer.op = op
        a, theta = pool[request] if isinstance(request, int) else request
        ref_s = reference_s()
        start = perf_counter()
        try:
            out = json.dumps(run_op(hypertoric, a, theta), sort_keys=True)
            op_s = perf_counter() - start
            reply = {"out": out, "op_s": op_s, "ref_s": ref_s, "peak_kb": _peak_rss_kb()}
        except Exception:  # the op boundary: report the failure and keep serving
            reply = {"error": traceback.format_exc()}
        _send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
