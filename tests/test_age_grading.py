"""The age-grading law on ages, per stable pair.

For a stable pair (g1, g2) of sectors with common fixed set C and product
g1 + g2 fixing T, the ages grade the product: age(g1) + age(g2) -
age(g1 + g2) is the rank of the pair's obstruction bundle plus the
codimension of the coordinates over C in those over T (Chen–Ruan 2004;
Abramovich–Graber–Vistoli 2008).  With the ages held over the common
order L (``_Analysis.ages``), it reads, per pair of ``walk`` with key k,
A(g1) + A(g2) - A(g1 + g2) = L * (the key's Euler factor count + its
normal coordinate count).  The law holds on each model alone, so it
checks the analysis with no second side: the ages of the sector pass,
the selections of the key pass and each key's common and target sets.
"""

import random

import pytest

from hypertoric import WeightMatrix, direct_model, hypertoric_model, lawrence_model
from hypertoric.inertia import _columns
from hypertoric.sampling import random_generic_instance


def _check(model) -> int:
    analysis = model.analysis
    bundle, big, ages = analysis.obstructions.bundle, analysis._big, analysis.ages
    degrees = [len(bundle(selection)) + len(model.coords_of_columns(_columns(target & ~common)))
               for selection, common, target in analysis.keys]
    bad = [(i1, i2) for i1, i2, k, t in analysis.walk() if ages[i1] + ages[i2] - ages[t] != big * degrees[k]]
    assert not bad, bad[:5]
    return len(analysis)


_SEEDED = [(build, seed, d, n)
           for build in (lawrence_model, hypertoric_model)
           for d, n in [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7)]
           for seed in (1, 2, 3)]

_DIRECT = {
    "weighted_p123": lambda: direct_model(WeightMatrix.from_rows([[1, 2, 3]]), theta=[1]),
    # no sigma sets: the stability table reads the column bases
    "mu3_quotient": lambda: direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]),
    "non_primitive": lambda: direct_model(WeightMatrix.from_rows([[2, 4, 6]]), theta=[1]),
}


@pytest.mark.parametrize("build, seed, d, n", _SEEDED)
def test_ages_grade_every_stable_pair_on_seeded_models(build, seed, d, n):
    assert _check(build(*random_generic_instance(random.Random(seed), d, n))) > 1


@pytest.mark.parametrize("name", sorted(_DIRECT))
def test_ages_grade_every_stable_pair_on_direct_models(name):
    assert _check(_DIRECT[name]()) > 1
