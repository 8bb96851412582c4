"""The read-once tables of the verify path against rules written out here.

The stability table decides column sets held as bitmasks; the oracle is
the set rule: the columns have Hermite rank d, and no minimal unstable set
lies in the coordinates over the other columns.  Every subset of columns is
tried, the empty and the rank-deficient ones among them.  Ages are read off
the obstruction kernel's exponent vectors; the oracle sums
m * (<w, g> - floor(<w, g>)) over the tangent class in Fractions, trivial
summands included.  A presentation's degrees and character multisets are
compared with ``homogeneous_degree()`` and ``Counter`` per relation.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import hypertoric.inertia as inertia_module
import hypertoric.model as model_module
from hypertoric import (
    GradedRingPresentation,
    IntPoly,
    SectorGeometry,
    WeightMatrix,
    age,
    direct_model,
    hypertoric_model,
    inertia_components,
    lawrence_model,
    orbifold_table,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from hypertoric.chow import product_of_forms
from hypertoric.exact import hnf
from hypertoric.inertia import _mask, _Stability
from hypertoric.sampling import random_generic_instance, random_weight_matrix


def set_rule(model, cols) -> bool:
    a = model.base
    if len(hnf([a.column(j) for j in sorted(cols)], a.d)) != a.d:
        return False
    dead = set(range(1, a.n + 1)) - set(cols)
    coords = dead | {a.n + j for j in dead} if model.doubled else dead
    return not any(s <= coords for s in model.arrangement.unstable_minimal)


def lawrence_models():
    for seed in range(4):
        for d, n in [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6)]:
            yield "lawrence-%d-%d-%d" % (seed, d, n), lawrence_model(
                *random_generic_instance(random.Random(seed), d, n))


def _antichain(rng, coords):
    drawn = [frozenset(rng.sample(range(1, coords + 1), rng.randint(1, coords - 1)))
             for _ in range(rng.randint(1, 4))]
    return sorted({s for s in drawn if not any(t < s for t in drawn)}, key=sorted)


def antichain_models():
    """Direct models with seeded antichains of unstable sets."""
    rng = random.Random(7)
    for k in range(12):
        d, n = rng.choice([(1, 4), (2, 4), (2, 5), (3, 6)])
        a = random_weight_matrix(rng, d, n)
        yield "antichain-%d" % k, direct_model(a, unstable=[sorted(s) for s in _antichain(rng, n)])


def doubled_antichain_models():
    """Lawrence models given seeded antichains over all 2n coordinates.  A
    GIT arrangement's unstable sets lie over every column off a hyperplane,
    so once the rank test passes they never lie in the dead coordinates;
    these sets, y's alone among them, exercise the dead y coordinates."""
    rng = random.Random(11)
    for k in range(8):
        model = lawrence_model(*random_generic_instance(rng, rng.choice([1, 2]), 4))
        arrangement = model.arrangement._replace(unstable_minimal=tuple(_antichain(rng, 2 * model.n)))
        yield "doubled-antichain-%d" % k, model.replace(arrangement=arrangement)


def direct_models():
    yield "bmu3", direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])
    yield from antichain_models()


def test_stability_table_is_the_set_rule_on_every_column_subset():
    outcomes = Counter()
    for name, model in [*lawrence_models(), *doubled_antichain_models(), *direct_models()]:
        table = _Stability(model)
        n, d = model.n, model.d
        for size in range(n + 1):
            for cols in itertools.combinations(range(1, n + 1), size):
                expected = set_rule(model, cols)
                assert table(_mask(cols)) == expected, (name, cols)
                full_rank = len(hnf([model.base.column(j) for j in cols], d)) == d
                outcomes[expected, full_rank] += 1
    # passes, rank-deficient sets, and full-rank sets over an unstable locus
    assert outcomes[True, True] and outcomes[False, False] and outcomes[False, True]


def test_direct_models_from_unstable_sets_read_the_column_bases_once(monkeypatch):
    walks = []
    bases = inertia_module.column_bases
    monkeypatch.setattr(inertia_module, "column_bases", lambda a: walks.append(a) or bases(a))
    for name, model in direct_models():
        walks.clear()
        table = _Stability(model)
        assert len(walks) == 1, name
        assert set(table.bases) == set(bases(model.base))


def test_one_column_basis_walk_and_no_rank_form_per_verify(monkeypatch):
    # the stability table reads the sigma-set bases, so a verify walks the
    # column bases once (the arrangement's walk), and no decision calls hnf
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    walks, decided, inside, ranked = [], [], [False], []
    for module in (model_module, inertia_module):
        walk = getattr(module, "column_bases")
        monkeypatch.setattr(module, "column_bases", lambda m, walk=walk: walks.append(m) or walk(m))
    decide = _Stability._decide

    def spy_decide(table, mask):
        decided.append(mask)
        inside[0] = True
        try:
            return decide(table, mask)
        finally:
            inside[0] = False

    rank = model_module.hnf
    monkeypatch.setattr(_Stability, "_decide", spy_decide)
    monkeypatch.setattr(model_module, "hnf", lambda *args: ranked.append(inside[0]) or rank(*args))
    assert verify_obstruction_pullback(a, theta).ok and verify_orbifold_iso(a, theta, 5).ok
    assert len(walks) == 1
    assert decided and len(set(decided)) == len(decided)
    assert ranked and True not in ranked


def test_one_off_age_walks_no_column_bases(monkeypatch, mu3_model):
    # the public age decides its one fixed set with one Hermite rank, and
    # builds no table of column bases, on a direct model built from
    # unstable sets (whose table would walk all C(n, d) subsets) and on a
    # Lawrence model alike
    walks, ranked = [], []
    walk, rank = inertia_module.column_bases, model_module.hnf
    monkeypatch.setattr(inertia_module, "column_bases", lambda m: walks.append(m) or walk(m))
    monkeypatch.setattr(model_module, "hnf", lambda *args: ranked.append(args) or rank(*args))
    lawrence = lawrence_model(*random_generic_instance(random.Random(3), 2, 5))
    for model in (mu3_model, lawrence):
        for c in inertia_components(model):
            walks.clear()
            ranked.clear()
            assert age(model, c.g) == c.age
            assert walks == [] and len(ranked) == 1


def fraction_age(model, g) -> Fraction:
    total = Fraction(0)
    terms = [*model.tangent_class.terms, ((0,) * model.d, model.tangent_class.trivial)]
    for w, m in terms:
        pairing = sum((Fraction(x) * v for x, v in zip(w, g.v)), Fraction(0))
        total += m * (pairing - math.floor(pairing))
    return total


def age_models():
    for seed, d, n in [(1, 1, 4), (2, 1, 5), (1, 2, 4), (3, 2, 5), (4, 3, 5)]:
        a, theta = random_generic_instance(random.Random(seed), d, n)
        yield "lawrence-%d" % seed, lawrence_model(a, theta)
        yield "hypertoric-%d" % seed, hypertoric_model(a, theta)
    yield from direct_models()


def test_ages_read_off_the_exponent_vectors_are_the_fractional_sums():
    nontrivial = 0
    for name, model in age_models():
        components = SectorGeometry(model, 4).analysis.components
        assert components == tuple(inertia_components(model)), name
        for c in components:
            assert c.age == fraction_age(model, c.g) == age(model, c.g), (name, c.g)
            nontrivial += c.age > 0
    assert nontrivial > 50


def presentations():
    for build in (lawrence_model, hypertoric_model):
        for seed, d, n in [(1, 1, 4), (1, 2, 4), (3, 2, 5), (4, 3, 5)]:
            table = orbifold_table(build(*random_generic_instance(random.Random(seed), d, n)), 3)
            yield from table.geometry._rings._rings.values()
    for _, model in direct_models():
        yield from orbifold_table(model, 3).geometry._rings._rings.values()


@pytest.mark.parametrize("plain", [
    (1, (IntPoly.linear_form((3,)),), 4),
    (2, (IntPoly.linear_form((1, 1)) * IntPoly.linear_form((1, -1)),
         IntPoly.linear_form((0, 2)) ** 3), 5),
])
def test_presentations_without_multisets_keep_only_their_degrees(plain):
    pres = GradedRingPresentation(*plain)
    assert pres.degrees == tuple(r.homogeneous_degree() for r in pres.relations)
    assert pres.characters is None and pres.counters == ()


def test_cached_degrees_and_multisets_equal_the_recomputed_ones():
    seen = 0
    for pres in presentations():
        assert pres.degrees == tuple(r.homogeneous_degree() for r in pres.relations)
        assert len(pres.characters) == len(pres.counters) == len(pres.relations)
        for rel, chars, counter in zip(pres.relations, pres.characters, pres.counters):
            assert counter == Counter(chars)
            assert product_of_forms(pres.num_vars, chars) == rel
            seen += 1
    assert seen > 100
