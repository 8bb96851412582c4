"""The sector walk and the partner table against counts read off lattice
indices alone.

The fixed set F(g) = {j : <a_j, g> integral} of a torus element is closed
under Z-span: cl(S) = {j : a_j in Z<a_S>}.  For a full-rank S the elements
with F(g) containing S form the dual of Z<a_S>, which has
[Z^d : Z<a_S>] elements, the gcd of the maximal minors of a_S.  Möbius
inversion over the closed sets (Rota 1964; Stanley, EC1 §3.7) gives the
number of elements whose fixed set is exactly T; the sectors are those
whose T is stable, and a pair of sectors is stable exactly when the
intersection of their fixed sets is.  The oracle reads the model's
columns, its minimal unstable sets and whether it is doubled, with a
local Fraction determinant: no ``exact`` routine and no sector.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from hypertoric import WeightMatrix, direct_model, inertia_components, lawrence_model
from hypertoric.inertia import _mask
from hypertoric.sampling import random_generic_instance


def _det(rows) -> Fraction:
    """Determinant of a square matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def _indices(columns, d: int) -> dict:
    """[Z^d : Z<a_S>] of every column set S (1-based) of at least d
    columns: the gcd of the absolute d x d minors, 0 below rank d."""
    cols = range(1, len(columns) + 1)
    minors = {s: abs(int(_det(list(zip(*(columns[j - 1] for j in s)))))) for s in combinations(cols, d)}
    return {frozenset(s): reduce(gcd, map(minors.__getitem__, combinations(s, d)), 0)
            for size in range(d, len(columns) + 1) for s in combinations(cols, size)}


def sector_counts(model):
    """(the number of sectors per stable fixed set, the stability test on
    column sets), from lattice indices alone."""
    n = model.n
    index = _indices(model.base.columns, model.d)
    closed = {frozenset(j for j in range(1, n + 1) if index[s | {j}] == index[s]) for s in index if index[s]}
    exact = {}
    for t in sorted(closed, key=len, reverse=True):
        exact[t] = index[t] - sum(c for u, c in exact.items() if u > t)

    def stable(cols) -> bool:
        coords = set(cols) | ({n + j for j in cols} if model.doubled else set())
        return bool(index.get(cols)) and all(u & coords for u in model.arrangement.unstable_minimal)

    return {t: c for t, c in exact.items() if c > 0 and stable(t)}, stable


_LAWRENCE = [(seed, d, n) for d, n in [(1, 4), (2, 6), (3, 9), (4, 8), (5, 7)] for seed in (1, 2, 3)]

_DIRECT = {
    "weighted_p123": lambda: direct_model(WeightMatrix.from_rows([[1, 2, 3]]), theta=[1]),
    # no sigma sets: the stability table reads the column bases
    "mu3_quotient": lambda: direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]),
    "non_primitive": lambda: direct_model(WeightMatrix.from_rows([[2, 4, 6]]), theta=[1]),
}


def _check(model):
    counts, stable = sector_counts(model)
    assert Counter(c.fixed_columns for c in inertia_components(model)) == counts
    pairs = sum(c1 * c2 for t1, c1 in counts.items() for t2, c2 in counts.items() if stable(t1 & t2))
    assert len(model.analysis) == pairs
    # each fixed set's partner row, not only the total: a sector of fixed
    # set F pairs with every sector whose fixed set T has F & T stable
    partners = model.analysis._partners
    for t1 in counts:
        assert len(partners[_mask(t1)]) == sum(c for t2, c in counts.items() if stable(t1 & t2)), sorted(t1)
    return sum(counts.values()), pairs


@pytest.mark.parametrize("seed, d, n", _LAWRENCE)
def test_lawrence_sectors_and_pairs_match_lattice_counts(seed, d, n):
    sectors, pairs = _check(lawrence_model(*random_generic_instance(random.Random(seed), d, n)))
    if (seed, d, n) == (1, 3, 9):
        assert (sectors, pairs) == (1179, 66677)
    if (seed, d, n) == (1, 4, 8):
        assert (sectors, pairs) == (6396, 1207074)


@pytest.mark.parametrize("name", sorted(_DIRECT))
def test_direct_sectors_and_pairs_match_lattice_counts(name):
    sectors, pairs = _check(_DIRECT[name]())
    if name == "non_primitive":
        assert (sectors, pairs) == (8, 48)
    if name == "mu3_quotient":
        assert sectors == 3
