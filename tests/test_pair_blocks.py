"""The double inertia as one table of each fixed set's partners, and the
analysis each model owns.

The partner oracle holds each fixed set's partners to the stable common
sets of a walk over all ordered pairs of sectors, the expanded table to
that walk, and each pair's selection bitmask to the tuple selection of the
obstruction kernel; the one-set stability rule behind it is held to the
stability table on every subset of columns.  The key
oracle holds the sectors, the product keys, ``len`` and the walk, which the
build finds from one half of the pairs, to brute force over the basis
stabilizers and over all ordered pairs.  The ownership
tests hold a model to one analysis, which it keeps, give a replaced model
its own, and hold the verifiers' sharing rule to the data an analysis
reads: the moment fiber reads the ambient's analysis, and a change to any
one read field makes the fiber a side of its own.
"""

import itertools
import random
from fractions import Fraction

import pytest

import hypertoric.analysis as analysis_module
import hypertoric.inertia as inertia_module
import hypertoric.model as model_module
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
    stabilizer_elements,
    verify_obstruction_pullback,
    verify_orbifold_iso,
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


def test_the_partner_table_expands_to_the_pair_walk_and_keeps_each_selection(mu3_model):
    nontrivial = 0
    for name, model in [*_models(), ("mu3", mu3_model)]:
        analysis = SectorGeometry(model, 4).analysis
        kernel = analysis.obstructions
        expected = walk_pairs(model)
        fixed = {c.g: c.fixed_columns for c in analysis.components}
        assert double_inertia(model) == expected, name
        assert len(analysis) == len(expected)
        elements = analysis.elements
        partners = analysis._partners
        assert set(partners) == {inertia_module._mask(f) for f in fixed.values()}, name
        for g1 in elements:
            f1 = fixed[g1]
            cols = partners[inertia_module._mask(f1)]
            # the j whose common set with sector i is stable, in sector
            # order, as ints; each pair's common set is f_i & f_j
            assert list(cols) == [j for j, g2 in enumerate(elements)
                                  if inertia_module._stable_fixed(model, f1 & fixed[g2])], name
            assert all(type(j) is int for j in cols), name
            for j in cols:
                g2 = elements[j]
                common = f1 & fixed[g2]
                key, target = analysis.locate(g1, g2)
                mask, key_common, target_fixed = analysis.keys[key]
                assert mask == sum(1 << k for k in kernel.selection(g1, g2)), name
                assert inertia_module._columns(key_common) == common
                assert inertia_module._columns(target_fixed) == fixed_columns(model.base, g1 + g2)
                assert target == g1 + g2
        # the walk visits the table's pairs in pair order, with their keys
        # and their targets
        assert list(analysis.walk()) == [
            (analysis.index[p.g1], analysis.index[p.g2], analysis.locate(p.g1, p.g2)[0], analysis.index[p.target])
            for p in expected]
        # the pairs span more than one pair of fixed sets
        nontrivial += len({(m1, fixed[elements[j]]) for m1, cols in partners.items() for j in cols}) > 1
    assert nontrivial >= 10


def test_the_one_set_rule_is_the_stability_table_on_every_column_subset(mu3_model, monkeypatch):
    # ``_stable_fixed`` (behind the public ``age`` and the brute-force
    # oracles) decides a set of columns on sets: a Hermite rank and the
    # trace rule; it agrees with the mask table on every subset of columns,
    # and builds and reads no table.  mu3's unstable set {4} is where the
    # trace rule refuses a set of full rank
    models = [*_models(), ("mu3", mu3_model)]
    tables = {name: inertia_module._Stability(model) for name, model in models}
    monkeypatch.setattr(inertia_module, "_Stability", None)
    outcomes = set()
    for name, model in models:
        for size in range(model.n + 1):
            for cols in itertools.combinations(range(1, model.n + 1), size):
                expected = tables[name](inertia_module._mask(cols))
                assert inertia_module._stable_fixed(model, frozenset(cols)) == expected, (name, cols)
                outcomes.add((expected, len(model.base.lattice(cols)) == model.d))
    # passes, rank-deficient sets, and full-rank sets over an unstable locus
    assert outcomes == {(True, True), (False, False), (False, True)}


def test_the_half_key_pass_finds_the_keys_of_all_ordered_pairs(mu3_model):
    # the build visits each unordered stable pair once; brute force forms
    # every ordered pair with its selection (``_Obstructions.selection``),
    # its common set (``_stable_fixed``) and its target's fixed set
    # (``fixed_columns``), and numbers the keys in pair order
    for name, model in [*_models(), ("mu3", mu3_model)]:
        analysis = model.analysis
        a, kernel = model.base, analysis.obstructions
        candidates = set().union(*(stabilizer_elements(a, b) for b in model_module.column_bases(a)))
        sectors = sorted(g for g in candidates if inertia_module._in_inertia(model, g))
        assert list(analysis.elements) == sectors, name
        fixed = {g: fixed_columns(a, g) for g in sectors}
        stable = {f1 & f2: inertia_module._stable_fixed(model, f1 & f2)
                  for f1 in set(fixed.values()) for f2 in set(fixed.values())}
        walked, keys = [], {}
        for g1, g2 in itertools.product(sectors, repeat=2):
            common = fixed[g1] & fixed[g2]
            if stable[common]:
                key = (sum(1 << k for k in kernel.selection(g1, g2)), common, fixed_columns(a, g1 + g2))
                keys.setdefault(key, len(keys))
                walked.append((g1, g2, key, g1 + g2))
        # the keys are numbered in the order they first appear in pair
        # order; the analysis holds each key's two sets as masks
        decoded = [(s, inertia_module._columns(c), inertia_module._columns(t)) for s, c, t in analysis.keys]
        assert decoded == list(keys), name
        assert len(analysis) == len(walked), name
        el = analysis.elements
        assert [(el[i1], el[i2], decoded[k], el[t]) for i1, i2, k, t in analysis.walk()] == walked, name


@pytest.mark.parametrize("seed", [1, 3])
def test_a_tangent_character_off_the_columns_agrees_with_the_per_element_rules(seed):
    # a tangent term whose character is neither a column nor minus one is
    # paired with each candidate beside the columns (``_characters``);
    # the ages, selections and target fixed sets read off it are the
    # per-element rules' (``_age_of``, ``_Obstructions.selection``,
    # ``fixed_columns``)
    a, theta = random_generic_instance(random.Random(seed), 2, 5)
    lawrence = lawrence_model(a, theta)
    w = tuple(x + y for x, y in zip(a.columns[0], a.columns[1]))
    assert w not in {tuple(s * x for x in c) for c in a.columns for s in (-1, 1)}
    model = lawrence.replace(tangent_class=lawrence.tangent_class + CharacterClass.build(2, [(w, 1)]))
    chars, signs = inertia_module._characters(model)
    assert chars[a.n:] == [w] and len(signs) == len(model.tangent_class.terms)
    term = [c for c, _ in model.tangent_class.terms].index(w)
    analysis = model.analysis
    assert all(c.age == inertia_module._age_of(model, c.g) for c in analysis.components)
    assert any(c.age != inertia_module._age_of(lawrence, c.g) for c in analysis.components)
    kernel, el = analysis.obstructions, analysis.elements
    selected = 0
    for i1, i2, k, t in analysis.walk():
        g1, g2 = el[i1], el[i2]
        mask, _, target_fixed = analysis.keys[k]
        assert mask == sum(1 << j for j in kernel.selection(g1, g2))
        assert inertia_module._columns(target_fixed) == fixed_columns(a, g1 + g2) and el[t] == g1 + g2
        selected += mask >> term & 1
    assert selected


@pytest.mark.parametrize("d, n, sectors, pairs, keys", [
    (2, 6, 30, 336, 49), (3, 7, 166, 6294, 435), (4, 8, 6396, 1207074, 4177)])
def test_seed_one_sectors_pairs_and_keys(d, n, sectors, pairs, keys):
    analysis = lawrence_model(*random_generic_instance(random.Random(1), d, n)).analysis
    assert (len(analysis.components), len(analysis), len(analysis.keys)) == (sectors, pairs, keys)


def _packer_vectors(big, count, rng):
    """Vectors in [0, big): all big - 1, all 0, seeded ones, and for each
    seeded one x the partners (big + s - x) mod big, s = -1, 0, 1, so that
    field sums of big - 1, big and big + 1 occur."""
    seeded = [[rng.randrange(big) for _ in range(count)] for _ in range(6)]
    partners = [[(big + shift - x) % big for x in v] for v in seeded for shift in (-1, 0, 1)]
    return [[big - 1] * count, [0] * count, *seeded, *partners]


@pytest.mark.parametrize("big", [1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 257])
def test_packer_agrees_with_per_field_arithmetic(big):
    # the powers of two are where the field width changes
    rng = random.Random(6200 + big)
    w = big.bit_length()
    for count in range(1, 5):
        vectors = _packer_vectors(big, count, rng)
        targets = analysis_module._packer(big, count, big)
        selections = analysis_module._packer(big, count, big + 1)
        assert targets[3] == selections[3] == w
        for pack, _, _, _ in (targets, selections):
            assert all(pack(v) == sum(x << k * (w + 1) for k, x in enumerate(v)) for v in vectors)
        for a, b in itertools.product(vectors, repeat=2):
            pack, lift, tops, _ = targets
            s = pack(a) + pack(b)
            folded = s - (((s + lift) & tops) >> w) * big
            assert folded == sum((x + y) % big << k * (w + 1) for k, (x, y) in enumerate(zip(a, b)))
            pack, lift, tops, _ = selections
            spread = (pack(a) + pack(b) + lift) & tops
            assert spread == sum(1 << k * (w + 1) + w for k, (x, y) in enumerate(zip(a, b)) if x + y > big)


def test_a_selection_pack_decodes_to_the_terms_of_its_set_top_bits():
    # the key pass walks only the set top bits of a selection pack; the
    # reference tests the top bit of every one of the count fields
    rng = random.Random(6300)
    for _ in range(3000):
        count, width = rng.randint(0, 40), rng.randint(1, 12)
        share = rng.random()
        spread = sum(1 << k * (width + 1) + width for k in range(count) if rng.random() < share)
        want = sum(1 << k for k in range(count) if spread >> (k * (width + 1) + width) & 1)
        assert analysis_module._selection(spread, width) == want


def _geometry_analysis(model):
    return SectorGeometry(model, 4).analysis


def test_a_model_owns_its_analysis_and_the_verified_fiber_reads_the_ambients():
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    shared = _geometry_analysis(ambient)
    assert ambient.analysis is ambient.analysis is shared
    # a replaced model, even an equal one, builds its own
    again = ambient.replace()
    assert again == ambient and again.analysis is not shared
    # so does a separately built fiber, though it reads equal data
    assert hypertoric_model(a, theta).analysis is not shared
    # the verifiers read one pair of models, and the fiber, which differs
    # only in its kind and its trivial summand, reads the ambient's analysis
    pair = model_module._lawrence_pair(a, theta)
    assert pair[1] != pair[0]
    assert all(side is pair[0] for side in orbifold_module._sides(a, theta))


def test_a_held_model_keeps_its_analysis():
    # two other inputs analysed between two reads of one held model's
    # geometry leave its analysis in place: nothing evicts it
    m = lawrence_model(*random_generic_instance(random.Random(1), 2, 4))
    an = SectorGeometry(m, 4).analysis
    for seed in (2, 3):
        SectorGeometry(lawrence_model(*random_generic_instance(random.Random(seed), 2, 4)), 4)
    assert SectorGeometry(m, 4).analysis is an


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
def test_one_changed_read_field_gets_a_fresh_analysis(change, monkeypatch):
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    shared = _geometry_analysis(ambient)
    changed = change(ambient)
    fields = [f for f in ambient._fields if getattr(changed, f) != getattr(ambient, f)]
    assert len(fields) == 1
    fresh = _geometry_analysis(changed)
    assert fresh is not shared
    # a moment fiber with the change is a side of its own to the verifiers,
    # with its own analysis: the sharing rule reads every read field
    fiber = model_module._moment_fiber
    monkeypatch.setattr(model_module, "_moment_fiber", lambda lm: change(fiber(lm)))
    sides = orbifold_module._sides(a, theta)
    assert sides[1] is not sides[0] and sides[1].analysis is not sides[0].analysis
    # and the ambient still holds its own
    assert _geometry_analysis(ambient) is shared


def test_a_changed_multiplicity_changes_the_ages_it_reads():
    # an analysis built for one tangent class must not answer for
    # another: the ages of the fresh analysis are the changed model's
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    ambient = lawrence_model(a, theta)
    changed = _other_multiplicity(ambient)
    (w, _), *_ = changed.tangent_class.terms
    ages = [c.age for c in _geometry_analysis(ambient).components]
    moved = [c.age - age for c, age in zip(_geometry_analysis(changed).components, ages)]
    assert any(moved)
    assert all(m == Fraction(c.g.exponent(w), c.g.order)
               for m, c in zip(moved, _geometry_analysis(ambient).components))


def test_the_memoized_analysis_keeps_no_expanded_pairs():
    # double_inertia expands the pairs of the analysis its model keeps
    # afresh on each call, so once its list is dropped nothing of it stays
    # on the analysis
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 5))
    pairs = double_inertia(model)
    analysis = _geometry_analysis(model)
    again = double_inertia(model)
    assert pairs == again and len(pairs) == len(analysis) > 1
    assert not any(p is q for p, q in zip(pairs, again))
    del pairs, again
    assert _geometry_analysis(model) is analysis
    assert "pairs" not in vars(analysis)


def _held_entries(analysis):
    """The entries of every tuple, list, dict and set reachable from the
    analysis' attributes through containers, each container counted once."""
    containers = (tuple, list, dict, set, frozenset)
    seen, stack, total = set(), list(vars(analysis).values()), 0
    while stack:
        value = stack.pop()
        if isinstance(value, containers) and id(value) not in seen:
            seen.add(id(value))
            total += len(value)
            stack.extend([*value.keys(), *value.values()] if isinstance(value, dict) else value)
    return total


def test_the_analysis_keeps_nothing_per_pair():
    # a table with an entry per pair held 337452 entries on these 308109
    # pairs; the sectors, the partners and the keys hold 35761,
    # and a walk, which reads every pair's key, adds nothing to them
    analysis = _geometry_analysis(lawrence_model(*random_generic_instance(random.Random(1), 4, 6)))
    assert len(analysis) == 308109
    assert sum(1 for _ in analysis.walk()) == len(analysis)
    assert _held_entries(analysis) < len(analysis) // 4


@pytest.mark.parametrize("d, n", [(2, 5), (3, 6)])
def test_a_passing_verify_decodes_no_column_set(d, n, monkeypatch):
    # inside the double inertia a column set is its int mask: the sectors'
    # fixed sets and the keys' common and target sets are decoded
    # (``inertia._columns``) only where they leave the library, so a passing
    # verify decodes none, in any module that reads the decoder.  The iso
    # check certifies every key pair, so the geometry's one per-key store,
    # its generator products, stays empty
    columns, decoded = inertia_module._columns, []
    readers = [m for m in (inertia_module, analysis_module, orbifold_module) if hasattr(m, "_columns")]
    assert len(readers) >= 2
    for module in readers:
        monkeypatch.setattr(module, "_columns", lambda mask: decoded.append(mask) or columns(mask))
    geometries, geometry = [], orbifold_module._geometry
    monkeypatch.setattr(orbifold_module, "_geometry",
                        lambda *args: geometries.append(geometry(*args)) or geometries[-1])
    a, theta = random_generic_instance(random.Random(1), d, n)
    assert verify_obstruction_pullback(a, theta).ok and verify_orbifold_iso(a, theta, 5).ok
    assert decoded == []
    geo, = geometries
    assert not geo._values
    assert [name for name, value in vars(geo).items() if isinstance(value, dict)] == [
        "_presentations", "_embeddings", "_values"]
    # the decoder still serves the public readers
    assert inertia_components(geo.model)[0].fixed_columns == frozenset(range(1, n + 1))
    assert decoded
