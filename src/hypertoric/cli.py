"""Command-line front end.

Subcommands mirror the library modules so each check is one invocation:

  analyze         model combinatorics (bases, sigma sets, unstable sets)
  inertia         inertia sectors with fixed columns and ages
  chowring        sector ring presentation and graded groups
  orbifold-table  star-product structure constants
  verify          obstruction-pullback and orbifold-ring comparisons
  chart-check     exact round-trips through every sigma chart
  sre-check       strong-embedding condition on local normal data

Every subcommand takes ``--input`` and ``--format``; ``--degree`` belongs to
chowring, orbifold-table and verify, ``--seed`` and ``--samples`` to
chart-check, and any other flag is refused.  For chowring ``--degree`` is
the last degree printed; for orbifold-table and verify it is a floor on the
truncation, which the geometry raises above every structure polynomial's
degree, and on verify it also bounds the degrees in which two rings without
equal relation lists are compared.
Exit codes: 0 success/verified, 1 verification failure, 2 input error.
All rationals are serialized as 'p/q' strings; output is deterministic for
a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .chow import graded_group, presentation
from .inertia import TorsionElement, inertia_components
from .model import DIRECT, ModelError, NonGenericError, StackModel, _json_ints, model_from_dict
from .orbifold import orbifold_table, verify_obstruction_pullback, verify_orbifold_iso
from .poly import format_poly
from .verifiers import LocalModelSRE, hypertoric_normal_data, sre_condition_iii, verify_charts

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


class InputError(ValueError):
    """Anything wrong with the input file or flags."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc)) from exc


def _model_from_json(data) -> StackModel:
    try:
        return model_from_dict(data)
    except NonGenericError as exc:
        raise InputError("non-generic: %s" % exc.report.describe()) from exc
    except ModelError as exc:
        raise InputError(str(exc)) from exc


def parse_model(path: str) -> StackModel:
    return _model_from_json(_load_json(path))


def _cmd_analyze(model: StackModel, args) -> tuple[int, dict]:
    arr = model.arrangement
    out = {
        "kind": model.kind,
        "d": model.d,
        "n": model.n,
        "coords": list(arr.labels),
        "generic": True,
        "column_bases": [list(s.basis) for s in arr.sigma_sets],
        "sigma_sets": [
            {"basis": list(s.basis), "coords": list(s.labels())} for s in arr.sigma_sets
        ],
        "minimal_unstable": [
            [arr.labels[j - 1] for j in sorted(s)] for s in arr.unstable_minimal
        ],
    }
    if model.kind == DIRECT and not arr.sigma_sets:
        del out["column_bases"], out["sigma_sets"]
    return EXIT_OK, out


def _cmd_inertia(model: StackModel, args) -> tuple[int, list]:
    out = [
        {
            "v": c.g.as_strings(),
            "order": c.g.order,
            "fixed": sorted(c.fixed_columns),
            "age": str(c.age),
        }
        for c in inertia_components(model)
    ]
    return EXIT_OK, out


def _cmd_chowring(model: StackModel, args) -> tuple[int, dict]:
    pres = presentation(model, truncation=args.degree)
    graded = {
        str(k): graded_group(pres, k).describe_group() for k in range(pres.truncation + 1)
    }
    out = {
        "relations": [format_poly(r) for r in pres.relations],
        "graded": graded,
    }
    return EXIT_OK, out


def _cmd_orbifold_table(model: StackModel, args) -> tuple[int, dict]:
    table = orbifold_table(model, args.degree)
    elems = [c.g for c in table.components]
    out = {
        "components": [
            {"v": c.g.as_strings(), "age": str(c.age), "fixed": sorted(c.fixed_columns)}
            for c in table.components
        ],
        "products": [
            {
                "g1": e.g1.as_strings(),
                "g2": e.g2.as_strings(),
                "target": e.target.as_strings() if e.target is not None else None,
                "poly": format_poly(e.poly),
            }
            # every ordered pair; the table stores one product per product
            # key, and ``entry`` reads a stable pair's off its key
            for e in (table.entry(g1, g2) for g1 in elems for g2 in elems)
        ],
    }
    return EXIT_OK, out


def _cmd_verify(model: StackModel, args) -> tuple[int, dict]:
    if model.kind == DIRECT:
        raise InputError("verify requires a lawrence or hypertoric model (needs A and theta)")
    bound = args.degree if args.degree is not None else 5
    pull = verify_obstruction_pullback(model.base, model.theta)
    iso = verify_orbifold_iso(model.base, model.theta, bound)
    out = {
        "obstruction_pullback": {
            "ok": pull.ok,
            "components": pull.checked,
            "failures": [
                {
                    "g1": f.g1.as_strings() if f.g1 is not None else None,
                    "g2": f.g2.as_strings() if f.g2 is not None else None,
                    "detail": f.detail,
                }
                for f in pull.failures
            ],
        },
        "orbifold_iso": {
            "ok": iso.ok,
            "components": iso.components,
            "ring_failures": len(iso.ring_failures),
            "product_failures": len(iso.product_failures),
            "age_failures": len(iso.age_failures),
            "failures": _iso_failures(iso),
        },
        "ok": pull.ok and iso.ok,
    }
    return (EXIT_OK if out["ok"] else EXIT_VERIFY_FAILED), out


def _iso_failures(iso) -> list[dict]:
    """Each failure of an orbifold-iso report, named by its kind."""
    out = [
        {"kind": "ring", "v": g.as_strings(), "failing_degree": rep.failing_degree,
         "reason": rep.reason}
        for g, rep in iso.ring_failures
    ]
    out += [
        {"kind": "product", "g1": g1.as_strings(), "g2": g2.as_strings()}
        for (g1, g2), _, _ in iso.product_failures
    ]
    out += [
        {"kind": "age", "v": g.as_strings(), "ambient_age": str(a), "fiber_age": str(f)}
        for g, a, f in iso.age_failures
    ]
    if iso.detail:
        out.append({"kind": "detail", "detail": iso.detail})
    return out


def _cmd_chart_check(model: StackModel, args) -> tuple[int, dict]:
    if model.kind == DIRECT:
        raise InputError("chart-check requires a lawrence or hypertoric model")
    report = verify_charts(model.base, model.theta, samples=args.samples, seed=args.seed)
    out = {
        "charts": [
            {"sigma": list(c.sigma_labels), "samples": c.samples, "ok": c.ok, "detail": c.detail}
            for c in report.charts
        ],
        "ok": report.ok,
    }
    return (EXIT_OK if report.ok else EXIT_VERIFY_FAILED), out


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_generators(value):
    """``value``, once it is a list of generators, each a list of integers or
    'p/q' strings, as lists of Fractions (a 'p/0' raises
    ``ZeroDivisionError``); floats, booleans and other strings are refused,
    and ``TorsionElement.from_fractions`` parses no string."""
    if not isinstance(value, list) or not all(isinstance(g, list) for g in value):
        raise ValueError("'generators' must be a list of lists, got %r" % (value,))
    for e in (e for g in value for e in g):
        if not (type(e) is int or isinstance(e, str) and _RATIONAL.fullmatch(e)):
            raise ValueError("'generators' entries must be integers or 'p/q' strings, got %r" % (e,))
    return [[Fraction(e) for e in g] for g in value]


def _parse_sre_input(path: str) -> LocalModelSRE | StackModel:
    data = _load_json(path)
    if not (isinstance(data, dict) and "normal_weights" in data):
        return _model_from_json(data)
    try:
        weights = tuple(tuple(w) for w in _json_ints(data["normal_weights"], "'normal_weights'", 2))
        if "generators" in data:
            gens = tuple(map(TorsionElement.from_fractions, _json_generators(data["generators"])))
        elif "order" in data:
            gens = LocalModelSRE.cyclic(_json_ints(data["order"], "'order'", 0), ()).generators
        else:
            raise ValueError("sre input needs 'generators' or 'order'")
        return LocalModelSRE(gens, weights)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("bad sre input: %s" % exc) from exc


def _cmd_sre_check(args) -> tuple[int, dict]:
    parsed = _parse_sre_input(args.input)
    if isinstance(parsed, StackModel):
        local = hypertoric_normal_data(parsed)
        source = "hypertoric normal data (%d trivial characters)" % parsed.d
    else:
        local = parsed
        source = "explicit local model"
    ok = sre_condition_iii(local)
    violations = [
        {"generator": g.as_strings(), "weight": list(w)}
        for g in local.generators
        for w in local.normal_weights
        if not g.fixes(w)
    ]
    out = {"source": source, "condition_iii": ok, "violations": violations, "ok": ok}
    return (EXIT_OK if ok else EXIT_VERIFY_FAILED), out


def _render_text(payload) -> str:
    if isinstance(payload, dict):
        if "obstruction_pullback" in payload:
            return "obstruction-pullback: %s; orbifold-iso: %s" % (
                "pass" if payload["obstruction_pullback"]["ok"] else "FAIL",
                "pass" if payload["orbifold_iso"]["ok"] else "FAIL",
            )
        if "charts" in payload:
            lines = [
                "chart {%s}: %s" % (",".join(c["sigma"]), "pass" if c["ok"] else "FAIL")
                for c in payload["charts"]
            ]
            return "\n".join(lines)
        if "condition_iii" in payload:
            return "strong-embedding condition (iii): %s" % (
                "pass" if payload["condition_iii"] else "FAIL"
            )
        return "\n".join("%s: %s" % (k, v) for k, v in payload.items())
    return json.dumps(payload, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertoric",
        description="Exact orbifold Chow machinery for Lawrence and hypertoric models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_MODEL_COMMANDS, "sre-check"):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="path to the JSON model file")
        if name in _DEGREE_COMMANDS:
            p.add_argument("--degree", "-D", type=int, default=None, help="last degree (chowring) or truncation floor")
        if name == "chart-check":
            p.add_argument("--seed", type=int, default=0, help="random seed")
            p.add_argument("--samples", type=int, default=100, help="sample count per chart")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_DEGREE_COMMANDS = ("chowring", "orbifold-table", "verify")


_MODEL_COMMANDS = {
    "analyze": _cmd_analyze,
    "inertia": _cmd_inertia,
    "chowring": _cmd_chowring,
    "orbifold-table": _cmd_orbifold_table,
    "verify": _cmd_verify,
    "chart-check": _cmd_chart_check,
}


def run(args) -> int:
    if args.command in _DEGREE_COMMANDS and args.degree is not None and args.degree < 1:
        raise InputError("--degree must be at least 1")
    if args.command == "chart-check" and args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.command == "sre-check":
        code, payload = _cmd_sre_check(args)
    else:
        model = parse_model(args.input)
        code, payload = _MODEL_COMMANDS[args.command](model, args)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
