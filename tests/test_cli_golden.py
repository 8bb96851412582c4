"""The CLI's stdout and exit code, byte for byte.

Every subcommand in both formats runs on every demo model, and
``orbifold-table`` and ``verify`` also run on a model with zero products,
``golden/cli/zero_products.json``: ``A = [[2, 3]]`` has 4 sectors, and
12 of their 16 ordered pairs are stable.  It is kept out of
``demos/models``, whose files are the benchmark's CLI inputs.  Each
golden file under ``golden/cli`` holds the exit code on its first line
and the stdout after it.
"""

import contextlib
import io
from pathlib import Path

import pytest

from hypertoric.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "demos" / "models").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
COMMANDS = ("analyze", "inertia", "chowring", "orbifold-table", "verify", "chart-check", "sre-check")
FORMATS = ("json", "text")

CASES = [(p.stem, cmd, fmt) for p in MODELS for cmd in COMMANDS for fmt in FORMATS] + [
    ("zero_products", cmd, fmt) for cmd in ("orbifold-table", "verify") for fmt in FORMATS
]


def cli_output(model_path, command: str, fmt: str) -> str:
    """The exit code line and the stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(model_path), "--format", fmt])
    return "exit: %d\n%s" % (code, out.getvalue())


def golden_path(stem: str, command: str, fmt: str) -> Path:
    return GOLDEN / ("%s.%s.%s.out" % (stem, command, fmt))


def model_path(stem: str) -> Path:
    if stem == "zero_products":
        return GOLDEN / "zero_products.json"
    return ROOT / "demos" / "models" / (stem + ".json")


def test_cases_cover_every_demo_model():
    assert len(MODELS) == 6
    assert len(CASES) == 6 * 7 * 2 + 4


@pytest.mark.parametrize("stem,command,fmt", CASES, ids=lambda x: x)
def test_cli_output_matches_golden(stem, command, fmt):
    got = cli_output(model_path(stem), command, fmt)
    assert got.encode() == golden_path(stem, command, fmt).read_bytes()
