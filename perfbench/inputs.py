"""Seeded inputs of the benchmark workloads.

Nothing here imports ``hypertoric``.  Every weight matrix and character is
drawn with this module's own ``random.Random``, and full rank and
genericity are tested with exact ``Fraction`` arithmetic, so the inputs
depend only on the seeds below and never on the library under test.

Each workload has a fixed pool of inputs drawn from its pool seed.  The
``--seed`` of a run only fixes the order in which the pool is run, so every
run of a workload does the same work and stops the same ops.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# (pool seed, op count, d, n range, entry bound) of the model workloads.
MODEL_WORKLOADS = {
    "sectors": (1, 48, 1, (2, 6), 9),
    "desk": (2, 24, 2, (4, 5), 3),
}
THETA_BOUND = 5
THETA_TRIES = 50

CLI_COMMANDS = (
    "analyze",
    "inertia",
    "chowring",
    "orbifold-table",
    "verify",
    "chart-check",
    "sre-check",
)

# Hand-written exit codes of every (model file, subcommand) pair.  Exit 2 is
# an input error (a direct model given to verify, a wall character, a file
# without a weight matrix); exit 1 is the failed strong-embedding check of
# the quadric cone.
_OK_ALL = dict.fromkeys(CLI_COMMANDS, 0)
_DIRECT = dict(_OK_ALL, **{"verify": 2, "chart-check": 2})
EXPECTED_EXIT = {
    "bmu3.json": _DIRECT,
    "nongeneric.json": dict.fromkeys(CLI_COMMANDS, 2),
    "p2.json": _DIRECT,
    "quadric_cone_sre.json": dict(dict.fromkeys(CLI_COMMANDS, 2), **{"sre-check": 1}),
    "tp1.json": _OK_ALL,
    "tp12.json": _OK_ALL,
}


def det(rows) -> Fraction:
    """Determinant of a square matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def _columns(a, cols):
    return [[row[j] for j in cols] for row in a]


def column_bases(a) -> list[tuple[int, ...]]:
    """All d-subsets of columns (0-based) with nonzero determinant."""
    d, n = len(a), len(a[0])
    return [c for c in itertools.combinations(range(n), d) if det(_columns(a, c))]


def is_generic(a, theta, bases) -> bool:
    """Every Cramer coefficient of theta in every column basis is nonzero."""
    for c in bases:
        sub = _columns(a, c)
        for i in range(len(c)):
            replaced = [row[:i] + [t] + row[i + 1:] for row, t in zip(sub, theta)]
            if det(replaced) == 0:
                return False
    return True


def draw_instance(rng: random.Random, d: int, n: int, bound: int):
    """A full-rank d x n matrix with entries in [-bound, bound] and a
    generic nonzero character with entries in [-THETA_BOUND, THETA_BOUND].
    A matrix with no generic character among THETA_TRIES draws is redrawn."""
    while True:
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(d)]
        bases = column_bases(a)
        if not bases:
            continue
        for _ in range(THETA_TRIES):
            theta = [rng.randint(-THETA_BOUND, THETA_BOUND) for _ in range(d)]
            if any(theta) and is_generic(a, theta, bases):
                return a, theta


def model_pool(workload: str) -> list[tuple[list[list[int]], list[int]]]:
    """The fixed list of (A, theta) inputs of a model workload."""
    seed, count, d, (lo, hi), bound = MODEL_WORKLOADS[workload]
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        pool.append(draw_instance(rng, d, n, bound))
    return pool


def cli_calls(models_dir: Path) -> list[tuple[str, str]]:
    """Every (subcommand, model file name) call, in a fixed order."""
    files = sorted(p.name for p in models_dir.glob("*.json"))
    return [(cmd, name) for name in files for cmd in CLI_COMMANDS]


def pool(workload: str, root: Path) -> list:
    if workload == "cli":
        return cli_calls(root / "demos" / "models")
    return model_pool(workload)


def digest(workload: str, root: Path) -> str:
    """sha256 prefix of a workload's inputs.  For cli it also covers the
    bytes of every model file the calls read."""
    payload = {"pool": pool(workload, root)}
    if workload == "cli":
        models = root / "demos" / "models"
        payload["files"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(models.glob("*.json"))
        }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def round_order(keys: list, run_seed: int, rnd: int) -> list:
    """The order in which round ``rnd`` of a run visits the pool."""
    order = list(keys)
    random.Random("%d/%d" % (run_seed, rnd)).shuffle(order)
    return order
