"""The inverse-pairing law on ages, per sector.

For every sector g, -g is a sector with the same fixed set, and
age(g) + age(-g) is the number of tangent terms g moves, counted with
multiplicity: frac<w, g> + frac<w, -g> is 1 for a character w that g
moves and 0 for one it fixes (Chen–Ruan's Poincaré pairing).  The law
holds on each model alone, so it checks both readers of the sectors,
the sector walk (``inertia_components``) and the model's analysis,
with no second side.
"""

import random

import pytest

from hypertoric import WeightMatrix, direct_model, hypertoric_model, inertia_components, lawrence_model
from hypertoric.sampling import random_generic_instance


def _check(components, model):
    by_element = {c.g: c for c in components}
    assert len(by_element) == len(components)
    for c in components:
        inverse = by_element[-c.g]
        assert inverse.fixed_columns == c.fixed_columns
        moved = sum(m for w, m in model.tangent_class.terms if not c.g.fixes(w))
        assert c.age + inverse.age == moved, c.g


_SEEDED = [(build, seed, d, n)
           for build in (lawrence_model, hypertoric_model)
           for d, n in [(1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (4, 6)]
           for seed in (1, 2, 3)]

_DIRECT = [
    lambda: direct_model(WeightMatrix.from_rows([[1, 2, 3]]), theta=[1]),
    # no sigma sets: the stability table reads the column bases
    lambda: direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]),
]


@pytest.mark.parametrize("build, seed, d, n", _SEEDED)
def test_inverse_sectors_pair_their_ages_on_seeded_models(build, seed, d, n):
    model = build(*random_generic_instance(random.Random(seed), d, n))
    _check(inertia_components(model), model)
    _check(model.analysis.components, model)


@pytest.mark.parametrize("make", _DIRECT, ids=["weighted_p123", "mu3_quotient"])
def test_inverse_sectors_pair_their_ages_on_direct_models(make):
    model = make()
    _check(inertia_components(model), model)
    _check(model.analysis.components, model)
