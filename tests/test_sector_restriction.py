"""Sector models are restrictions of their model.

The oracle builds each sector the long way, on the column subset with the
model's own builder, and compares it with ``sector_model``; the work counts
check that a table builds no model after the top-level one and that the
stability of a common fixed set is decided once; the order oracle holds the
pair walk to the order of the walk over all ordered pairs.
"""

import collections
import itertools
import random

import pytest

import hypertoric.inertia as inertia_module
import hypertoric.model as model_module
import hypertoric.orbifold as orbifold_module
from hypertoric import (
    WeightMatrix,
    direct_model,
    hypertoric_model,
    inertia_components,
    lawrence_model,
    orbifold_table,
    sector_model,
)
from hypertoric.inertia import DoubleInertiaComponent
from hypertoric.sampling import random_generic_instance

BUILDERS = ("lawrence_model", "hypertoric_model", "direct_model")


def _columns(model, fixed):
    keep = sorted(fixed)
    return keep, WeightMatrix(model.base.matrix.submatrix_columns([j - 1 for j in keep]))


def built_on_columns(model, fixed):
    """The sector rebuilt from scratch: the builder of the model's kind on
    the fixed columns with the model's character."""
    _, sub = _columns(model, fixed)
    if model.kind == "lawrence":
        return lawrence_model(sub, model.theta)
    if model.kind == "hypertoric":
        return hypertoric_model(sub, model.theta)
    return direct_model(sub, theta=model.theta)


def restricted_direct(model, fixed):
    """A sector of a direct model with explicit unstable sets: restrict each
    set to the fixed columns, keep the minimal ones, and build again."""
    keep, sub = _columns(model, fixed)
    renumber = {j: i for i, j in enumerate(keep, 1)}
    restricted = {frozenset(renumber[j] for j in s if j in renumber)
                  for s in model.arrangement.unstable_minimal}
    minimal = [s for s in restricted if not any(t < s for t in restricted)]
    return direct_model(sub, unstable=minimal, theta=model.theta)


def _pairs(model, fixed):
    """The expanded blocks for the sectors keyed in ``fixed`` (element ->
    fixed columns), decided on a fresh stability table, in pair order."""
    sectors = [(g, f, inertia_module._mask(f)) for g, f in fixed.items()]
    return inertia_module._blocks(inertia_module._Stability(model), sectors).pairs()


def sector_and_pair_sets(model):
    fixed = {c.g: c.fixed_columns for c in inertia_components(model)}
    return set(fixed.values()) | {p.common_fixed for p in _pairs(model, fixed)}


def _git_models():
    for seed in range(24):
        rng = random.Random(5000 + seed)
        d = 1 + seed % 3
        a, theta = random_generic_instance(rng, d, rng.randint(d + 1, d + 2 if d == 3 else d + 3))
        yield "lawrence-%d" % seed, lawrence_model(a, theta)
        yield "hypertoric-%d" % seed, hypertoric_model(a, theta)


def _theta_direct_models():
    # products of weighted projective spaces: block-diagonal positive
    # weights with a positive character, so every basis selects x's only
    rng = random.Random(5100)
    for k in range(9):
        sizes = [rng.randint(2, 4) for _ in range(1 + k % 3)]
        n = sum(sizes)
        rows, start = [], 0
        for size in sizes:
            rows.append([rng.randint(1, 4) if start <= j < start + size else 0 for j in range(n)])
            start += size
        theta = [rng.randint(1, 3) for _ in sizes]
        yield "direct-theta-%d" % k, direct_model(WeightMatrix.from_rows(rows), theta=theta)


def _explicit_direct_models(mu3):
    yield "mu3", mu3
    rng = random.Random(5200)
    made = 0
    while made < 8:
        d = rng.randint(1, 2)
        n = rng.randint(d + 1, d + 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        try:
            a = WeightMatrix.from_rows(rows)
        except ValueError:
            continue
        sets = {frozenset(rng.sample(range(1, n + 1), rng.randint(1, 2))) for _ in range(2)}
        sets = [s for s in sets if not any(t < s for t in sets)]
        yield "direct-unstable-%d" % made, direct_model(a, unstable=sets)
        made += 1


def test_git_sectors_equal_their_builders():
    checked = collections.Counter()
    for name, model in [*_git_models(), *_theta_direct_models()]:
        for fixed in sector_and_pair_sets(model):
            assert sector_model(model, fixed) == built_on_columns(model, fixed), (name, sorted(fixed))
            checked[model.kind] += 1
    assert min(checked.values()) >= 30, checked


def test_explicit_direct_sectors_equal_the_restricted_build(mu3_model):
    checked = 0
    for name, model in _explicit_direct_models(mu3_model):
        for fixed in sector_and_pair_sets(model):
            assert sector_model(model, fixed) == restricted_direct(model, fixed), (name, sorted(fixed))
            checked += 1
    assert checked >= 10


def test_theta_direct_sector_keeps_its_sigma_sets():
    model = direct_model(WeightMatrix.from_rows([[1, 2, 2]]), theta=[1])
    sec = sector_model(model, frozenset({2, 3}))
    assert [s.basis for s in sec.arrangement.sigma_sets] == [(1,), (2,)]
    assert [sorted(s) for s in sec.arrangement.unstable_minimal] == [[1, 2]]


def test_sector_model_refusals(tp12_lawrence, mu3_model):
    with pytest.raises(model_module.ModelError, match="rank deficient"):
        sector_model(mu3_model, frozenset({1}))
    with pytest.raises(ValueError, match="unstable locus"):
        sector_model(mu3_model, frozenset({1, 2, 3}))
    sec = sector_model(tp12_lawrence, frozenset({2}))
    assert sec.arrangement.labels == ("x1", "y1")


def _counting(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("builder", [lawrence_model, hypertoric_model])
def test_orbifold_table_builds_no_sector_model_from_scratch(builder, monkeypatch):
    a, theta = random_generic_instance(random.Random(1), 2, 4)
    model = builder(a, theta)
    calls = collections.Counter()
    # the builders wherever they are imported, and the builders' own
    # enumerations; inertia's one pass over the column bases is not a build
    for module in (model_module, inertia_module, orbifold_module):
        for name in BUILDERS:
            if hasattr(module, name):
                _counting(monkeypatch, module, name, calls)
    for name in ("column_bases", "minimal_unstable_sets"):
        _counting(monkeypatch, model_module, name, calls)
    geo = orbifold_table(model, 4).geometry
    assert len({c.fixed_columns for c in geo.components}) > 2
    assert not calls, dict(calls)


def _count_decisions(monkeypatch):
    """Count the stability table's decisions per column mask."""
    decided = collections.Counter()
    decide = inertia_module._Stability._decide

    def counted(table, mask):
        decided[mask] += 1
        return decide(table, mask)

    monkeypatch.setattr(inertia_module._Stability, "_decide", counted)
    return decided


def test_pairs_decide_each_common_set_once(monkeypatch):
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 4))
    fixed = {c.g: c.fixed_columns for c in inertia_components(model)}
    decided = _count_decisions(monkeypatch)
    ranks = []
    monkeypatch.setattr(model_module, "hnf", lambda *args: ranks.append(args))
    pairs = _pairs(model, fixed)
    commons = {f1 & f2 for f1 in fixed.values() for f2 in fixed.values()}
    assert set(decided) == {inertia_module._mask(c) for c in commons}
    assert max(decided.values()) == 1
    assert len(pairs) > len(commons)
    # the rank test is basis containment: no Hermite form is computed
    assert ranks == []


def test_inertia_elements_decide_each_fixed_set_once(monkeypatch):
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 4))
    a = model.base
    candidates = set()
    for basis in inertia_module.column_bases(a):
        candidates |= inertia_module.stabilizer_elements(a, basis)
    decided = _count_decisions(monkeypatch)
    elems = inertia_module.inertia_elements(model)
    fixed_sets = {inertia_module.fixed_columns(a, g) for g in candidates}
    assert set(decided) == {inertia_module._mask(f) for f in fixed_sets}
    assert max(decided.values()) == 1
    assert len(candidates) > len(decided)
    monkeypatch.undo()
    assert elems == sorted(g for g in candidates if inertia_module._in_inertia(model, g))


def product_walk_pairs(model, fixed):
    """The double inertia by the walk over all ordered pairs of sectors, in
    ``itertools.product`` order: g1 in sector order, then g2."""
    stable = {}
    out = []
    for (g1, f1), (g2, f2) in itertools.product(fixed.items(), repeat=2):
        common = f1 & f2
        if common not in stable:
            stable[common] = inertia_module._stable_fixed(model, common)
        if stable[common]:
            out.append(DoubleInertiaComponent(g1, g2, common, g1 + g2))
    return out


def test_grouped_pairs_keep_the_product_order(mu3_model):
    interleaved = 0
    models = [*_git_models(), ("mu3", mu3_model), *_theta_direct_models()]
    for name, model in models:
        fixed = {c.g: c.fixed_columns for c in inertia_components(model)}
        assert _pairs(model, fixed) == product_walk_pairs(model, fixed), name
        # a fixed set whose sectors are not adjacent in sector order, so
        # the grouped walk must sort its partners back
        runs = [f for f, _ in itertools.groupby(fixed.values())]
        interleaved += len(runs) > len(set(runs))
    assert interleaved >= 10
