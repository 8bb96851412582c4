"""The double inertia as blocks of fixed-set pairs, and the analysis memo.

The block oracle expands the blocks of each model's analysis and holds them
to a walk over all ordered pairs of sectors, and each block's selection
bitmasks to the tuple selections of the obstruction kernel.  The key tests
hold the analysis memo to the data an analysis reads: models with equal
read data share one analysis, and a change to any one read field gets a
fresh one.
"""

import itertools
import random
from fractions import Fraction

import pytest

import hypertoric.inertia as inertia_module
import hypertoric.orbifold as orbifold_module
from hypertoric import (
    CharacterClass,
    SectorGeometry,
    StableArrangement,
    WeightMatrix,
    direct_model,
    double_inertia,
    fixed_columns,
    hypertoric_model,
    inertia_components,
    lawrence_model,
)
from hypertoric.inertia import DoubleInertiaComponent
from hypertoric.sampling import random_generic_instance


def _models():
    """Seeded Lawrence, hypertoric and direct models with d = 1..3."""
    for seed in range(12):
        rng = random.Random(6000 + seed)
        d = 1 + seed % 3
        a, theta = random_generic_instance(rng, d, rng.randint(d + 1, d + 2 if d == 3 else d + 3))
        yield "lawrence-%d" % seed, lawrence_model(a, theta)
        yield "hypertoric-%d" % seed, hypertoric_model(a, theta)
    # products of weighted projective spaces: block-diagonal positive
    # weights and a positive character select x's only
    rng = random.Random(6100)
    for k in range(6):
        sizes = [rng.randint(2, 4) for _ in range(1 + k % 3)]
        n = sum(sizes)
        rows, start = [], 0
        for size in sizes:
            rows.append([rng.randint(1, 4) if start <= j < start + size else 0 for j in range(n)])
            start += size
        theta = [rng.randint(1, 3) for _ in sizes]
        yield "direct-%d" % k, direct_model(WeightMatrix.from_rows(rows), theta=theta)


def walk_pairs(model):
    """The double inertia by the walk over all ordered pairs of sectors:
    g1 in sector order, then g2, each stable pair with its sum."""
    comps = inertia_components(model)
    return [
        DoubleInertiaComponent(c1.g, c2.g, c1.fixed_columns & c2.fixed_columns, c1.g + c2.g)
        for c1, c2 in itertools.product(comps, repeat=2)
        if inertia_module._stable_fixed(model, c1.fixed_columns & c2.fixed_columns)
    ]


def test_blocks_expand_to_the_pair_walk_and_keep_each_selection(mu3_model):
    nontrivial = 0
    for name, model in [*_models(), ("mu3", mu3_model)]:
        analysis = SectorGeometry(model, 4).analysis
        double, kernel = analysis.double, analysis.obstructions
        expected = walk_pairs(model)
        fixed = {c.g: c.fixed_columns for c in analysis.components}
        assert list(analysis.pairs) == expected, name
        assert double_inertia(model) == expected, name
        assert len(double) == len(expected)
        elements = double.elements
        for b, (block, ids) in enumerate(zip(double.blocks, analysis.ids)):
            assert {fixed[elements[i]] for i in block.rows} == {block.fixed1}
            assert {fixed[elements[j]] for j in block.cols} == {block.fixed2}
            assert block.common == block.fixed1 & block.fixed2
            assert len(ids) == len(block.rows) * len(block.cols)
            for pos, (i1, i2) in enumerate(itertools.product(block.rows, block.cols)):
                g1, g2 = elements[i1], elements[i2]
                mask, common, target_fixed = analysis.keys[ids[pos]]
                assert mask == sum(1 << k for k in kernel.selection(g1, g2)), name
                assert common == block.common
                assert target_fixed == fixed_columns(model.base, g1 + g2)
                assert double.locate(i1, i2) == (b, pos)
                assert elements[double.target(i1, i2)] == g1 + g2
        # the walk visits the blocks' pairs in pair order
        assert [(elements[i1], elements[i2]) for i1, i2, _, _ in double.walk()] == [
            (p.g1, p.g2) for p in expected]
        nontrivial += len(double.blocks) > 1
    assert nontrivial >= 10


def _analysis_of(model):
    return SectorGeometry(model, 4).analysis


def test_equal_read_data_share_one_analysis():
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    shared = _analysis_of(ambient)
    # the moment fiber differs only in its kind and its trivial summand
    fiber = hypertoric_model(a, theta)
    assert fiber != ambient and _analysis_of(fiber) is shared
    # another character with the same sigma sets: a positive multiple
    scaled = lawrence_model(a, [2 * t for t in theta])
    assert scaled.theta != ambient.theta and scaled.arrangement == ambient.arrangement
    assert _analysis_of(scaled) is shared
    info = orbifold_module._analysis.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def _other_multiplicity(model):
    tangent = model.tangent_class
    (w, m), *rest = tangent.terms
    terms = ((w, m + 1), *rest)
    return model.replace(tangent_class=CharacterClass(model.d, terms, tangent.trivial))


def _other_unstable_set(model):
    # the largest minimal unstable set loses one coordinate
    arr = model.arrangement
    sets = list(arr.unstable_minimal)
    big = max(range(len(sets)), key=lambda i: len(sets[i]))
    sets[big] = frozenset(sorted(sets[big])[1:])
    return model.replace(arrangement=StableArrangement(
        arr.sigma_sets, tuple(sets), arr.labels))


def _other_weights_column(model):
    rows = [list(r) for r in model.weights.matrix.entries]
    rows[0][-1] += 1
    return model.replace(weights=WeightMatrix.from_rows(rows))


@pytest.mark.parametrize("change", [_other_multiplicity, _other_unstable_set, _other_weights_column])
def test_one_changed_read_field_gets_a_fresh_analysis(change):
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    shared = _analysis_of(ambient)
    changed = change(ambient)
    fields = [f for f in ambient._fields if getattr(changed, f) != getattr(ambient, f)]
    assert len(fields) == 1
    fresh = _analysis_of(changed)
    assert fresh is not shared
    assert orbifold_module._analysis.cache_info().misses == 2
    # and the memo still answers for the ambient
    assert _analysis_of(ambient) is shared


def test_a_changed_multiplicity_changes_the_ages_it_reads():
    # an analysis memoized for one tangent class must not answer for
    # another: the ages of the fresh analysis are the changed model's
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    changed = _other_multiplicity(ambient)
    (w, _), *_ = changed.tangent_class.terms
    ages = [c.age for c in _analysis_of(ambient).components]
    moved = [c.age - age for c, age in zip(_analysis_of(changed).components, ages)]
    assert any(moved)
    assert all(m == Fraction(c.g.exponent(w), c.g.order)
               for m, c in zip(moved, _analysis_of(ambient).components))
