"""Sector ring ranks against the Tutte polynomial of the fixed columns.

The rational Betti numbers of a Lawrence toric or hypertoric variety are the
h-numbers of its hyperplane arrangement's matroid, the Gale dual of the
column matroid of its weight matrix (Hausel-Sturmfels,
*Toric hyperKahler varieties*, Thm 1.1; Proudfoot, *A survey of hypertoric
geometry and topology*, section 3): the free rank of the degree-k piece of
the ring of the columns F is the coefficient of y^(|F|-r-k) in T_{A|F}(1, y),
which is the dual's T(y, 1), with r the rank of A|F, and 0 above degree
|F|-r.

Each sector ring is the ring of its fixed columns, so every sector fixed set
of a model gives one such identity.  The oracle reads nothing of the stable
locus: T(1, y) comes from the subset expansion over the columns themselves,
with ranks from a Fraction elimination local to this file.
"""

import itertools
import random
from fractions import Fraction
from math import comb

from hypertoric import hypertoric_model, inertia_components, lawrence_model, presentation, sector_model
from hypertoric.sampling import random_generic_instance

SHAPES = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]


def rank(vectors):
    """Rank over Q of a list of integer vectors, by Gaussian elimination."""
    rows = [[Fraction(e) for e in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def tutte_at_x_one(columns):
    """(r, coefficients of T(1, y) in y): only spanning subsets S survive
    x = 1, each adding (y - 1)^(|S| - r)."""
    r = rank(columns)
    coeffs = [0] * (len(columns) - r + 1)
    for size in range(r, len(columns) + 1):
        for subset in itertools.combinations(columns, size):
            if rank(subset) == r:
                m = size - r
                for k in range(m + 1):
                    coeffs[k] += comb(m, k) * (-1) ** (m - k)
    return r, coeffs


def rank_mismatches(model):
    """(fixed set, expected ranks, ring ranks) for every sector fixed set of
    ``model`` whose ring ranks, through one degree above the top, differ
    from the Tutte coefficients; also the number of fixed sets checked."""
    bad = []
    fixed_sets = sorted({c.fixed_columns for c in inertia_components(model)}, key=sorted)
    for fixed in fixed_sets:
        columns = [model.base.column(j) for j in sorted(fixed)]
        r, coeffs = tutte_at_x_one(columns)
        top = len(fixed) - r
        expected = [coeffs[top - k] for k in range(top + 1)] + [0]
        # the ring is generated in degree 1, so a rank-0 piece stays 0 above
        pres = presentation(sector_model(model, fixed), truncation=top + 1)
        got = [pres.piece(k).free_rank for k in range(top + 2)]
        if got != expected:
            bad.append((sorted(fixed), expected, got))
    return bad, len(fixed_sets)


def seeded_models():
    for seed, (d, n) in enumerate(SHAPES * 3):
        a, theta = random_generic_instance(random.Random(500 + seed), d, n)
        yield lawrence_model(a, theta)
        yield hypertoric_model(a, theta)


def test_tutte_polynomial_of_a_worked_example():
    # the uniform matroid U_{2,3}: T = x^2 + x + y, so T(1, y) = 2 + y
    assert tutte_at_x_one([(1, 0), (0, 1), (1, 1)]) == (2, [2, 1])
    # a loop multiplies T by y; a coloop by x
    assert tutte_at_x_one([(1,), (0,)]) == (1, [0, 1])
    assert tutte_at_x_one([(1, 0), (0, 1)]) == (2, [1])


def test_sector_ring_ranks_are_tutte_coefficients():
    checked = 0
    for model in seeded_models():
        bad, count = rank_mismatches(model)
        assert not bad, (model.kind, model.base.matrix.entries, model.theta, bad)
        checked += count
    assert checked > 400
