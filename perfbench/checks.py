"""Answer checks of the ``cli`` workload that run after the timed calls.

* The golden data of the order-3 cyclic quotient ``bmu3.json``: relation
  ``3*t1``, graded groups ``Z`` and ``Z/3``, and the star products
  ``2*t1`` (1/3 * 1/3), ``2*t1^2`` (1/3 * 2/3) and ``t1`` (2/3 * 2/3).
* Every ``chowring`` graded group, recomputed from the printed relations
  with sympy's ``invariant_factors``.  sympy is used here only, as an
  oracle independent of the library.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from inputs import EXPECTED_EXIT

BMU3_PRODUCTS = {
    (("1/3",), ("1/3",)): (["2/3"], "2*t1"),
    (("1/3",), ("2/3",)): (["0"], "2*t1^2"),
    (("2/3",), ("2/3",)): (["1/3"], "t1"),
}


def _monomials(d: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(d), k):
        exps = [0] * d
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _describe(free: int, torsion) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z/%d" % t for t in torsion)
    return " x ".join(parts) if parts else "0"


def graded_groups(relations: list[str], d: int, degrees) -> dict[str, str]:
    """Degree-k groups of Z[t1..td] / (relations), from sympy alone."""
    import sympy
    from sympy.matrices.normalforms import invariant_factors

    ts = sympy.symbols("t1:%d" % (d + 1))
    polys = [sympy.Poly(sympy.sympify(r.replace("^", "**")), *ts) for r in relations]
    out = {}
    for k in degrees:
        monos = _monomials(d, k)
        columns = []
        for p in polys:
            e = p.total_degree()
            if e > k:
                continue
            for m in _monomials(d, k - e):
                terms = dict(p.mul(sympy.Poly(sympy.Mul(*(t**x for t, x in zip(ts, m))), *ts)).terms())
                columns.append([int(terms.get(mono, 0)) for mono in monos])
        factors = ()
        if columns and monos:
            factors = invariant_factors(sympy.Matrix(columns).T, domain=sympy.ZZ)
        nonzero = [abs(int(f)) for f in factors if f != 0]
        out[str(k)] = _describe(len(monos) - len(nonzero), [f for f in nonzero if f > 1])
    return out


def check_cli_outputs(outputs: dict, models_dir: Path) -> list[str]:
    """Errors found in the stdout of the successful calls, keyed by
    (subcommand, model file name)."""
    errors = []
    chow = json.loads(outputs[("chowring", "bmu3.json")])
    if chow["relations"] != ["3*t1"] or chow["graded"]["0"] != "Z" or chow["graded"]["1"] != "Z/3":
        errors.append("bmu3 chowring differs from the golden Z[t]/(3t)")
    table = json.loads(outputs[("orbifold-table", "bmu3.json")])
    products = {(tuple(p["g1"]), tuple(p["g2"])): (p["target"], p["poly"]) for p in table["products"]}
    for key, want in BMU3_PRODUCTS.items():
        if products.get(key) != want:
            errors.append("bmu3 product %s is %s, expected %s" % (key, products.get(key), want))
    for (cmd, name), out in sorted(outputs.items()):
        if cmd != "chowring" or EXPECTED_EXIT[name][cmd] != 0:
            continue
        d = len(json.loads((models_dir / name).read_text())["A"])
        got = json.loads(out)
        want = graded_groups(got["relations"], d, [int(k) for k in got["graded"]])
        if got["graded"] != want:
            errors.append("%s chowring groups %s, sympy gives %s" % (name, got["graded"], want))
    return errors
