import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import hypertoric.analysis as analysis_module
import hypertoric.chow as chow_module
import hypertoric.inertia as inertia_module
import hypertoric.model as model_module
import hypertoric.orbifold as orbifold_module
from hypertoric import (
    CharacterClass,
    GradedClass,
    GradedRingPresentation,
    GysinError,
    IntPoly,
    NonGenericError,
    ObstructionError,
    SectorEmbedding,
    SectorGeometry,
    TorsionElement,
    WeightMatrix,
    double_inertia,
    euler_poly,
    hypertoric_model,
    inertia_components,
    lawrence_model,
    log_trace,
    obstruction,
    orbifold_table,
    presentation,
    reduce_class,
    star,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from hypertoric.chow import IsoReport, product_of_forms
from hypertoric.cli import EXIT_VERIFY_FAILED, main
from hypertoric.sampling import random_generic_instance


def _ring_key(pres):
    """A ring's value: equal keys are equal presentations."""
    return (pres.num_vars, pres.relations, pres.truncation)


def chi(w):
    return CharacterClass.build(len(w), [(w, 1)])


def test_log_trace_examples(omega):
    assert log_trace(omega, CharacterClass.build(1, [((1,), 1)])) == CharacterClass.build(
        1, [((1,), Fraction(1, 3))]
    )
    assert log_trace(omega, CharacterClass.build(1, [((2,), 1)])) == CharacterClass.build(
        1, [((2,), Fraction(2, 3))]
    )
    assert log_trace(omega, CharacterClass.build(1, trivial=4)).is_zero


def test_log_trace_kills_fixed_characters(omega):
    assert log_trace(omega, CharacterClass.build(1, [((3,), 2)])).is_zero


def test_obstruction_mu3(mu3_model, omega, omega2):
    assert obstruction(mu3_model, omega, omega) == chi((2,))
    assert obstruction(mu3_model, omega2, omega2) == chi((1,))
    assert obstruction(mu3_model, omega, omega2).is_zero
    e = TorsionElement.identity(1)
    for g in (e, omega, omega2):
        assert obstruction(mu3_model, e, g).is_zero


def test_obstruction_tp12(tp12_lawrence, half):
    assert obstruction(tp12_lawrence, half, half).is_zero


def test_obstruction_symmetric():
    rng = random.Random(41)
    for _ in range(5):
        a, theta = random_generic_instance(rng, 2, 3)
        model = lawrence_model(a, theta)
        for p in double_inertia(model):
            assert obstruction(model, p.g1, p.g2) == obstruction(model, p.g2, p.g1)


def test_euler_poly():
    assert str(euler_poly(CharacterClass.zero(1))) == "1"
    assert str(euler_poly(chi((2,)))) == "2*t1"
    two = CharacterClass.build(1, [((1,), 1), ((2,), 1)])
    assert str(euler_poly(two)) == "2*t1^2"
    with_trivial = CharacterClass.build(1, [((1,), 1)], trivial=1)
    assert euler_poly(with_trivial).is_zero
    assert str(with_trivial) == "1*triv + 1*chi[1]"


def test_euler_poly_rejects_non_bundle():
    with pytest.raises(ValueError):
        euler_poly(CharacterClass.build(1, [((1,), Fraction(1, 2))]))
    with pytest.raises(ValueError):
        euler_poly(CharacterClass.build(1, [((1,), -1)]))


def test_mu3_star_table(mu3_model, omega, omega2):
    table = orbifold_table(mu3_model, 4)
    e = TorsionElement.identity(1)
    assert str(table.entry(omega, omega).poly) == "2*t1"
    assert table.entry(omega, omega).target == omega2
    assert str(table.entry(omega, omega2).poly) == "2*t1^2"
    assert table.entry(omega, omega2).target == e
    assert str(table.entry(omega2, omega2).poly) == "t1"
    assert table.entry(omega2, omega2).target == omega


def test_star_unit_law(mu3_model, tp12_hypertoric):
    for model in (mu3_model, tp12_hypertoric):
        geo = SectorGeometry(model, truncation=8)
        e = TorsionElement.identity(model.d)
        for comp in geo.components:
            rng = random.Random(43)
            poly = IntPoly.from_dict(1, {(rng.randint(0, 2),): rng.randint(1, 4)})
            alpha = GradedClass(comp.g, poly)
            left = star(geo, geo.generator(e), alpha)
            right = star(geo, alpha, geo.generator(e))
            pres = geo.sector_presentation(comp.g)
            deg = poly.homogeneous_degree()
            assert left.component == comp.g and right.component == comp.g
            assert reduce_class(pres, left.poly, degree=deg) == reduce_class(pres, poly, degree=deg)
            assert reduce_class(pres, right.poly, degree=deg) == reduce_class(pres, poly, degree=deg)


def test_star_zero_absorbs(mu3_model, omega):
    geo = SectorGeometry(mu3_model, truncation=6)
    zero = GradedClass(omega, IntPoly.zero(1))
    out = star(geo, zero, geo.generator(omega))
    assert out.is_zero


def test_tp12_hypertoric_table(tp12_hypertoric, half):
    table = orbifold_table(tp12_hypertoric, 5)
    entry = table.entry(half, half)
    assert str(entry.poly) == "-t1^2"
    assert entry.target == TorsionElement.identity(1)
    # -t^2 and t^2 agree in Z[t]/(2t^2)
    pres = table.sector_presentation(entry.target)
    assert entry.coords == reduce_class(pres, IntPoly.variable(1, 0) ** 2)


def test_trivial_inertia_table():
    model = lawrence_model(WeightMatrix.from_rows([[1, 0], [0, 1]]), [1, 1])
    table = orbifold_table(model, 4)
    assert len(table.components) == 1
    e = TorsionElement.identity(2)
    assert str(table.entry(e, e).poly) == "1"


def _orbifold_degree(table, g, poly):
    comp = next(c for c in table.components if c.g == g)
    return poly.homogeneous_degree() + comp.age


def test_star_commutative_and_age_graded(mu3_model, tp12_hypertoric, tp12_lawrence):
    for model in (mu3_model, tp12_hypertoric, tp12_lawrence):
        table = orbifold_table(model, 6)
        elems = [c.g for c in table.components]
        ages = {c.g: c.age for c in table.components}
        for g1, g2 in itertools.product(elems, repeat=2):
            e12 = table.entry(g1, g2)
            e21 = table.entry(g2, g1)
            assert e12.target == e21.target and e12.coords == e21.coords
            if e12.target is not None and any(e12.coords):
                total = e12.poly.homogeneous_degree() + ages[e12.target]
                assert total == ages[g1] + ages[g2]


def test_star_associative_on_generators(mu3_model, tp12_hypertoric):
    for model in (mu3_model, tp12_hypertoric):
        geo = SectorGeometry(model, truncation=12)
        elems = [c.g for c in geo.components]
        for g1, g2, g3 in itertools.product(elems, repeat=3):
            a, b, c = geo.generator(g1), geo.generator(g2), geo.generator(g3)
            left = star(geo, star(geo, a, b), c)
            right = star(geo, a, star(geo, b, c))
            if left.is_zero or right.is_zero:
                assert left.is_zero and right.is_zero
                continue
            assert left.component == right.component
            pres = geo.sector_presentation(left.component)
            deg = left.poly.homogeneous_degree()
            assert right.poly.homogeneous_degree() == deg
            assert reduce_class(pres, left.poly, degree=deg) == reduce_class(
                pres, right.poly, degree=deg
            )


def test_verify_obstruction_pullback_examples(a12):
    rep = verify_obstruction_pullback(a12, [1])
    assert rep.ok and rep.checked == 4
    eye = WeightMatrix.from_rows([[1, 0], [0, 1]])
    rep2 = verify_obstruction_pullback(eye, [1, 1])
    assert rep2.ok and rep2.checked == 1


def test_verify_obstruction_pullback_random():
    rng = random.Random(47)
    for _ in range(8):
        a, theta = random_generic_instance(rng, 2, 4)
        assert verify_obstruction_pullback(a, theta).ok


def test_verify_orbifold_iso_named(a12, a11):
    assert verify_orbifold_iso(a12, [1], 5).ok
    assert verify_orbifold_iso(a11, [1], 4).ok
    assert verify_orbifold_iso(WeightMatrix.from_rows([[1]]), [1], 4).ok


def test_verify_orbifold_iso_random():
    rng = random.Random(53)
    for _ in range(4):
        d = rng.choice([1, 2])
        a, theta = random_generic_instance(rng, d, rng.randint(d, 4))
        rep = verify_orbifold_iso(a, theta, 5)
        assert rep.ok, (a.matrix.entries, theta)


def _counted(record, fn):
    def wrapper(*args):
        record.append(args)
        return fn(*args)
    return wrapper


def _product_keys(geo):
    """What a generator product depends on: the obstruction class, the
    common fixed set and the target's fixed set."""
    return {
        (obstruction(geo.model, p.g1, p.g2), p.common_fixed,
         geo.component(p.target).fixed_columns)
        for p in double_inertia(geo.model)
    }


def _product_values(geo):
    """What the geometry builds a generator product from: the Euler factors
    of a pair's selection, as the kernel stores them, and the value of the
    embedding it pushes along."""
    out = set()
    for _, _, k, _ in geo.analysis.walk():
        mask, common, target_fixed = geo.analysis.keys[k]
        emb = geo.embedding(*map(inertia_module._columns, (common, target_fixed)))
        out.add((geo.obstructions.bundle(mask),
                 (_ring_key(emb.sub), _ring_key(emb.ambient), emb.normal_chars)))
    return out


def _nonzero(values, d):
    """The product values whose product is nonzero: the product of the
    stored factors and the normal Euler polynomial are both nonzero."""
    return {(factors, emb) for factors, emb in values
            if not product_of_forms(d, factors).is_zero
            and all(not IntPoly.linear_form(w).is_zero for w in emb[2])}


def _multiset_lists(geo, build_sector):
    """The (num_vars, character multisets, truncation) of every fixed set a
    table of ``geo`` reads, from the sector models themselves."""
    pairs = double_inertia(geo.model)
    fixed_sets = {c.fixed_columns for c in geo.components} | {p.common_fixed for p in pairs}
    out = set()
    for fixed in fixed_sets:
        sec = build_sector(geo.model, fixed)
        multisets = tuple(tuple(sorted(sec.coordinate_char(j) for j in s))
                          for s in sec.arrangement.unstable_minimal)
        out.add((geo.model.d, multisets, geo.truncation))
    return out


def _spy_work(monkeypatch):
    """Record the work of the table path: sector models, the rings the
    geometry builds from trace masks (``chow._trace_ring``), each as its
    variable count, the sorted characters of each trace mask's coordinates
    and its truncation, Euler polynomials, the geometry's generator
    products (each one run of the product kernel), and ``star`` calls."""
    work = {name: [] for name in ("sector_models", "presentations", "eulers", "products", "stars")}
    monkeypatch.setattr(inertia_module, "sector_model",
                        _counted(work["sector_models"], inertia_module.sector_model))
    build = orbifold_module._trace_ring

    def spy_ring(model, support, unstable, truncation):
        unstable = tuple(unstable)
        multisets = tuple(tuple(sorted(model.coordinate_char(i) for i in inertia_module._bits(s)))
                          for s in inertia_module._traces(unstable, support))
        work["presentations"].append((model.d, multisets, truncation))
        return build(model, support, unstable, truncation)

    monkeypatch.setattr(orbifold_module, "_trace_ring", spy_ring)
    for name, fn in (("eulers", "euler_poly"), ("products", "product_coefficients"), ("stars", "star")):
        monkeypatch.setattr(orbifold_module, fn, _counted(work[name], getattr(orbifold_module, fn)))
    return work


@pytest.mark.parametrize("name", ["tp12_hypertoric", "mu3_model"])
def test_orbifold_table_analyses_once(name, request, monkeypatch):
    # one inertia pass, no sector model, one presentation per fixed set
    # read, one Gysin check per (common, target) fixed-set pair, no Euler
    # polynomial, one kernel product per product key with a nonzero
    # product, for the table's single geometry, and no ``star``; on mu3
    # two fixed sets have the ring Z[t]/(3t), and each has a presentation
    # of its own
    model = request.getfixturevalue(name)
    build_sector = inertia_module.sector_model
    enumerations, checked = [], []

    walk = _counted(enumerations, inertia_module._sectors)
    for module in (inertia_module, analysis_module):
        monkeypatch.setattr(module, "_sectors", walk)
    monkeypatch.setattr(SectorEmbedding, "check", _counted(checked, SectorEmbedding.check))
    work = _spy_work(monkeypatch)

    geo = orbifold_table(model, 4)
    done = {name: len(calls) for name, calls in work.items()}
    assert len(enumerations) == 1
    assert done["sector_models"] == done["stars"] == 0
    pairs = double_inertia(geo.model)
    fixed_sets = {c.fixed_columns for c in geo.components} | {p.common_fixed for p in pairs}
    assert len(work["presentations"]) == len(fixed_sets) == len(geo._presentations)
    assert set(work["presentations"]) == _multiset_lists(geo, build_sector)
    if name == "mu3_model":
        assert len(set(work["presentations"])) < len(fixed_sets)
    fixed_pairs = {tuple(map(inertia_module._columns, key[1:])) for key in geo.analysis.keys}
    assert fixed_pairs == {(p.common_fixed, geo.component(p.target).fixed_columns) for p in pairs}
    assert [id(emb) for (emb,) in checked] == [
        id(geo.embedding(*map(inertia_module._columns, fp))) for fp in geo._embeddings]
    assert len(checked) == len(fixed_pairs)
    assert done["eulers"] == 0
    keys = [(geo.obstructions.bundle(mask), geo.embedding(*map(inertia_module._columns, (common, target_fixed))))
            for mask, common, target_fixed in geo.analysis.keys]
    assert len(checked) == len(fixed_pairs)
    nonzero = [k for k, (factors, emb) in enumerate(keys)
               if not product_of_forms(model.d, factors).is_zero and all(any(w) for w in emb.normal_chars)]
    assert done["products"] == len(nonzero) and nonzero


# (builder, seed, d, n) of random_generic_instance; the last has 204 sectors
_ORACLE_DRAWS = [
    (build, seed, d, n)
    for build in (lawrence_model, hypertoric_model)
    for seed, d, n in [(1, 1, 4), (2, 1, 5), (1, 2, 4), (3, 2, 5), (4, 3, 5)]
] + [(lawrence_model, 6, 3, 5)]


@pytest.mark.parametrize("build, seed, d, n", _ORACLE_DRAWS)
def test_memoized_table_equals_per_pair_star(build, seed, d, n):
    a, theta = random_generic_instance(random.Random(seed), d, n)
    model = build(a, theta)
    table = orbifold_table(model, 5)
    fresh = SectorGeometry(model, truncation=table.truncation)
    elems = [c.g for c in fresh.components]
    assert [c.g for c in table.components] == elems
    for g1, g2 in itertools.product(elems, repeat=2):
        entry = table.entry(g1, g2)
        pair = fresh.pair(g1, g2)
        if pair is None:
            assert (entry.target, entry.poly, entry.coords) == (None, IntPoly.zero(d), ())
            continue
        poly = star(fresh, fresh.generator(g1), fresh.generator(g2)).poly
        coords = reduce_class(fresh.sector_presentation(pair.target), poly)
        assert (entry.target, entry.poly, entry.coords) == (pair.target, poly, coords)
    if (seed, d, n) == (6, 3, 5):
        assert len(elems) >= 200


# A = [[2, 3]]: 4 sectors, 12 of their 16 ordered pairs stable
_A23 = WeightMatrix.from_rows([[2, 3]])

_SPARSE_MODELS = [
    (build, seed, d, n)
    for build in (lawrence_model, hypertoric_model)
    for seed, d, n in [(1, 1, 4), (1, 2, 4), (3, 2, 5), (4, 3, 5)]
] + [(hypertoric_model, None, 1, 2), (lawrence_model, None, 1, 2)]


@pytest.mark.parametrize("build, seed, d, n", _SPARSE_MODELS)
def test_table_holds_only_the_double_inertia(build, seed, d, n, monkeypatch):
    if seed is None:
        model = build(_A23, [1])
    else:
        model = build(*random_generic_instance(random.Random(seed), d, n))
    made = []
    monkeypatch.setattr(orbifold_module, "ProductEntry",
                        _counted(made, orbifold_module.ProductEntry))
    table = orbifold_table(model, 5)
    geo = table
    pairs = double_inertia(model)
    # the table holds one product per key and no entry: ``entry`` builds
    # one per call, off the pair's key
    assert made == [] and len(table.analysis.keys) <= len(pairs)
    assert [table.entry(p.g1, p.g2)[:3] for p in pairs] == [(p.g1, p.g2, p.target) for p in pairs]
    assert len(made) == len(pairs)

    elems = [c.g for c in table.components]
    zeros = 0
    for g1, g2 in itertools.product(elems, repeat=2):
        entry = table.entry(g1, g2)
        if geo.pair(g1, g2) is None:
            zeros += 1
            assert (entry.g1, entry.g2, entry.target, entry.poly, entry.coords) == (
                g1, g2, None, IntPoly.zero(d), ())
            assert geo.analysis.locate(g1, g2) is None
            assert star(geo, geo.generator(g1), geo.generator(g2)).is_zero
        else:
            k, target = geo.analysis.locate(g1, g2)
            assert entry == (g1, g2, target, *geo.value(k)) and entry.target is not None
    assert zeros == len(elems) ** 2 - len(pairs)
    if seed is None:
        assert (len(elems), len(pairs)) == (4, 12)

    # a stranger in either slot raises, in every lookup, where ``pair``
    # used to give None, as it does for an unstable pair of sectors; the
    # analysis owns the refusal
    stranger = TorsionElement.from_fractions([Fraction(1, 1009)] * d)
    assert stranger not in elems
    refused = "element %s is not an inertia element" % re.escape(str(stranger))
    lookups = (table.entry, geo.pair, geo.analysis.locate,
               lambda g1, g2: star(geo, geo.generator(g1), geo.generator(g2)))
    for args in [(stranger, elems[0]), (elems[0], stranger), (stranger, stranger)]:
        for lookup in lookups:
            with pytest.raises(ValueError, match=refused):
                lookup(*args)
    with pytest.raises(ValueError, match=refused):
        geo.sector_presentation(stranger)


def test_the_ring_keeps_nothing_per_pair():
    # (3, 9) seed 1: 66677 pairs over 4011 product keys.  After the table
    # and an entry of every stable pair, the geometry holds one generator
    # product per key, one embedding per (common, target) and one ring per
    # fixed set, and reading the entries grew none of them
    model = lawrence_model(*random_generic_instance(random.Random(1), 3, 9))
    geo = orbifold_table(model, 5)
    stores = ("_presentations", "_embeddings", "_values")
    sizes = [len(getattr(geo, name)) for name in stores]
    pairs = double_inertia(model)
    for p in pairs:
        assert geo.entry(p.g1, p.g2).target == p.target
    keys = geo.analysis.keys
    assert (len(pairs), len(keys)) == (66677, 4011)
    assert [len(getattr(geo, name)) for name in stores] == sizes
    assert len(geo._values) == len(keys)
    assert len(geo._embeddings) == len({(common, target) for _, common, target in keys})
    assert not hasattr(geo, "products")
    assert set(vars(geo)) == {"truncation", "model", "analysis", "obstructions", *stores}


def _spy_verify(monkeypatch, fail_fixed=None):
    """Record the geometries (``_geometry``), the ring checks and the work
    (``_spy_work``) of ``verify_orbifold_iso``; with ``fail_fixed``, the
    check of the ambient ring over that fixed set reports a forced
    failure."""
    geometries, checks = [], []
    geometry = orbifold_module._geometry
    iso = orbifold_module._same_ring

    def spy_geometry(*args):
        geometries.append(geometry(*args))
        return geometries[-1]

    def spy_iso(src, dst, bound):
        checks.append((src, dst))
        if fail_fixed is not None and src is geometries[0].presentation_for(fail_fixed):
            return IsoReport(False, 1, "forced failure")
        return iso(src, dst, bound)

    monkeypatch.setattr(orbifold_module, "_geometry", spy_geometry)
    monkeypatch.setattr(orbifold_module, "_same_ring", spy_iso)
    return geometries, checks, _spy_work(monkeypatch)


@pytest.mark.parametrize("seed, d, n", [(1, 2, 4), (1, 2, 5), (3, 2, 5)])
def test_verify_orbifold_iso_checks_each_ring_once(seed, d, n, monkeypatch):
    a, theta = random_generic_instance(random.Random(seed), d, n)
    build_sector = inertia_module.sector_model
    geometries, checks, work = _spy_verify(monkeypatch)
    embedded, made = [], []
    monkeypatch.setattr(SectorEmbedding, "check", _counted(embedded, SectorEmbedding.check))
    monkeypatch.setattr(orbifold_module, "_makeup", _counted(made, orbifold_module._makeup))
    assert verify_orbifold_iso(a, theta, 5).ok
    done = {name: len(calls) for name, calls in work.items()}
    # the fiber of a Lawrence input reads the ambient's geometry
    geo, = geometries
    rings = {c.fixed_columns for c in geo.components}
    assert len(checks) == len(rings) < len(geo.components)
    assert len({(id(src), id(dst)) for src, dst in checks}) == len(checks)
    assert done["sector_models"] == done["stars"] == 0
    # one presentation per distinct multiset list
    assert sorted(work["presentations"]) == sorted(_multiset_lists(geo, build_sector))
    # every key pair is certified by its makeup, read once per key for
    # each side and stored by neither: no Euler polynomial, no kernel
    # product, no value and no graded piece, while each embedding a key
    # pushes along is built and checked once
    assert len(made) == 2 * len(geo.analysis.keys)
    assert done["eulers"] == done["products"] == 0
    assert not any(pres._pieces for pres in geo._presentations.values())
    assert not geo._values
    assert [emb for emb, in embedded] == list(geo._embeddings.values())
    assert set(geo._embeddings) == {key[1:] for key in geo.analysis.keys}

    # the table of the same model still runs one kernel product per
    # distinct (class, embedding value) with a nonzero product, no more
    # than one per key and fewer than one per pair
    for calls in work.values():
        calls.clear()
    table = orbifold_table(lawrence_model(a, theta), 5)
    values = _product_values(table)
    assert not work["eulers"] and 0 < len(work["products"]) == len(_nonzero(values, d))
    assert len(values) <= len(_product_keys(table)) < len(double_inertia(table.model))


def test_failing_ring_check_names_every_sector_sharing_it(tmp_path, capsys, monkeypatch):
    # negative control: one ring check per fixed set still fails every
    # sector over that set, in the report and in the CLI's verify output
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    comps = inertia_components(lawrence_model(a, theta))
    bad, count = Counter(c.fixed_columns for c in comps).most_common(1)[0]
    assert count >= 2
    named = [c.g for c in comps if c.fixed_columns == bad]

    geometries, checks, _ = _spy_verify(monkeypatch, fail_fixed=bad)
    rep = verify_orbifold_iso(a, theta, 5)
    assert not rep.ok
    assert [g for g, _ in rep.ring_failures] == named
    assert all(r.reason == "forced failure" for _, r in rep.ring_failures)

    geometries.clear()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [list(r) for r in a.matrix.entries],
                                "theta": list(theta), "kind": "lawrence"}))
    assert main(["verify", "--input", str(path)]) == EXIT_VERIFY_FAILED
    failures = json.loads(capsys.readouterr().out)["orbifold_iso"]["failures"]
    assert failures == [
        {"kind": "ring", "v": g.as_strings(), "failing_degree": 1, "reason": "forced failure"}
        for g in named
    ]


def _edit_fiber_geometry(monkeypatch, edit):
    """Make the moment fiber a side of its own (``_sides`` never shares),
    so ``verify_orbifold_iso`` builds it a geometry of its own over an
    analysis of its own with the ambient's layout, and apply ``edit`` to
    each fiber geometry: every second one built, since the ambient's comes
    first."""
    geometry = orbifold_module._geometry
    built = []

    def own_sides(a, theta):
        return model_module._lawrence_pair(a, model_module._int_entries(theta, "character theta"))

    def edited(*args):
        built.append(geometry(*args))
        if len(built) % 2 == 0:
            edit(built[-1])
        return built[-1]

    monkeypatch.setattr(orbifold_module, "_sides", own_sides)
    monkeypatch.setattr(orbifold_module, "_geometry", edited)


def _fiber_with_other_pairs(monkeypatch, n):
    """Make the moment fiber's arrangement gain the unstable set {x_1, y_1}
    of an input with ``n`` columns, so its sectors or partners differ from
    the ambient's."""
    fiber = model_module._moment_fiber

    def unstable(lm):
        out = fiber(lm)
        arrangement = out.arrangement
        return out.replace(arrangement=arrangement._replace(
            unstable_minimal=(*arrangement.unstable_minimal, frozenset({1, n + 1}))))

    monkeypatch.setattr(model_module, "_moment_fiber", unstable)
    # the verifiers' model pairs built before the patch hold the unpatched fiber
    model_module._lawrence_pair.cache_clear()


@pytest.mark.parametrize("seed, d, n", [(1, 2, 5), (3, 2, 5), (1, 1, 4)])
def test_fiber_with_other_pairs_fails_both_checks_with_none_compared(seed, d, n, tmp_path, capsys, monkeypatch):
    # negative control for the one alignment of both verifiers: sides whose
    # pairs differ fail with one detail and no pair or component compared,
    # in the reports and in the CLI's verify output
    a, theta = random_generic_instance(random.Random(seed), d, n)
    _fiber_with_other_pairs(monkeypatch, n)
    ambient = lawrence_model(a, theta)
    layouts = [orbifold_module._layout(SectorGeometry(m, 4).analysis)
               for m in (ambient, model_module._moment_fiber(ambient))]
    assert layouts[0] != layouts[1]
    detail = "double inertia components differ"
    pull = verify_obstruction_pullback(a, theta)
    assert (pull.ok, pull.checked, [f.detail for f in pull.failures]) == (False, 0, [detail])
    iso = verify_orbifold_iso(a, theta, 5)
    assert (iso.ok, iso.components, iso.detail) == (False, 0, detail)
    assert not (iso.ring_failures or iso.product_failures or iso.age_failures)

    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [list(r) for r in a.matrix.entries],
                                "theta": list(theta), "kind": "lawrence"}))
    assert main(["verify", "--input", str(path)]) == EXIT_VERIFY_FAILED
    out = json.loads(capsys.readouterr().out)
    assert out["obstruction_pullback"]["components"] == out["orbifold_iso"]["components"] == 0
    assert out["obstruction_pullback"]["failures"] == [{"g1": None, "g2": None, "detail": detail}]
    assert out["orbifold_iso"]["failures"] == [{"kind": "detail", "detail": detail}]


def _fiber_ring_with_a_larger_lattice(monkeypatch, a, theta):
    """Give the moment fiber of ``(a, theta)``, a (2, n) input, a geometry
    of its own (``_edit_fiber_geometry``) whose ring over the most shared
    fixed set gains t1^2, once the fiber's products are built; return the
    sectors over that set."""
    comps = inertia_components(lawrence_model(a, theta))
    bad, count = Counter(c.fixed_columns for c in comps).most_common(1)[0]
    assert count >= 2
    extra = IntPoly.from_dict(2, {(2, 0): 1})

    def enlarge(geo):
        for k in range(len(geo.analysis.keys)):
            geo.value(k)
        pres = geo.presentation_for(bad)
        assert any(reduce_class(pres, extra))
        geo._presentations[inertia_module._mask(bad)] = GradedRingPresentation(
            pres.num_vars, pres.relations + (extra,), pres.truncation)

    _edit_fiber_geometry(monkeypatch, enlarge)
    return [c.g for c in comps if c.fixed_columns == bad]


@pytest.mark.parametrize("bound", [2, 5])
def test_fiber_ring_with_a_larger_lattice_fails_every_sector_over_it(
        bound, tmp_path, capsys, monkeypatch):
    # negative control with a real lattice difference: the fiber ring over
    # the most shared fixed set gains t1^2, which is not in its degree-2
    # lattice; the relation goes in once the fiber's products are built,
    # since this set is the subsector of a checked embedding that t1^2
    # would fail.  The fiber of a Lawrence input reads the ambient's
    # geometry, so the fiber first gets a geometry of its own over the
    # same read data
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    named = _fiber_ring_with_a_larger_lattice(monkeypatch, a, theta)
    rep = verify_orbifold_iso(a, theta, bound)
    assert not rep.ok and not rep.product_failures and not rep.age_failures
    assert [g for g, _ in rep.ring_failures] == named
    assert {(r.failing_degree, r.reason) for _, r in rep.ring_failures} == {
        (2, "relation lattices differ in degree 2")}

    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [list(r) for r in a.matrix.entries],
                                "theta": list(theta), "kind": "lawrence"}))
    argv = ["verify", "--input", str(path), "--degree", str(bound)]
    assert main(argv) == EXIT_VERIFY_FAILED
    failures = json.loads(capsys.readouterr().out)["orbifold_iso"]["failures"]
    assert failures == [
        {"kind": "ring", "v": g.as_strings(), "failing_degree": 2,
         "reason": "relation lattices differ in degree 2"}
        for g in named
    ]


def test_failed_embedding_check_raises_on_every_push(mu3_model, omega, monkeypatch):
    geo = SectorGeometry(mu3_model, truncation=6)

    def fail(emb):
        raise GysinError("forced failure")

    monkeypatch.setattr(SectorEmbedding, "check", fail)
    for _ in range(2):
        with pytest.raises(GysinError):
            star(geo, geo.generator(omega), geo.generator(omega))


@pytest.mark.parametrize("seed, d, n, moved, failing, text", [
    (1, 2, 6, 1, 5, "forced on [2, 3, 4, 5, 6] in [1, 2, 3, 4, 5, 6]"),
    (1, 2, 5, 2, 7, "forced on [3, 5] in [1, 3, 4, 5]"),
])
def test_of_several_failing_embeddings_the_first_pairs_raises(seed, d, n, moved, failing, text, monkeypatch):
    # the product keys are numbered in pair order, so the table and the iso
    # check make the products in pair order: of the several embeddings
    # forced to fail here, both raise the one of the first pair in pair
    # order whose embedding fails
    a, theta = random_generic_instance(random.Random(seed), d, n)
    model = lawrence_model(a, theta)
    embedding = SectorGeometry._embedding

    def fail_moving(geo, common, target):
        small, big = map(inertia_module._columns, (common, target))
        if len(big - small) == moved:
            raise GysinError("forced on %s in %s" % (sorted(small), sorted(big)))
        return embedding(geo, common, target)

    monkeypatch.setattr(SectorGeometry, "_embedding", fail_moving)
    analysis = model.analysis
    pushes = [tuple(map(inertia_module._columns, analysis.keys[k][1:])) for _, _, k, _ in analysis.walk()]
    fails = [(common, target) for common, target in pushes if len(target - common) == moved]
    assert len(set(fails)) == failing
    assert text == "forced on %s in %s" % tuple(map(sorted, fails[0]))
    for build in (lambda: orbifold_table(model, 4), lambda: verify_orbifold_iso(a, theta, 5)):
        with pytest.raises(GysinError) as raised:
            build()
        assert str(raised.value) == text


def test_obstruction_kernel_work_counts(monkeypatch):
    # one tangent exponent per (sector, tangent term) for the whole table,
    # the ages included, each read off the sector's column pairings with no
    # ``exponent`` call; no CharacterClass, and one tuple of Euler factors
    # per distinct selection (distinct selections are distinct classes)
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    model = lawrence_model(a, theta)
    fresh = SectorGeometry(model, truncation=4)
    pairs = double_inertia(model)
    classes = {fresh.obstructions.class_of(p.g1, p.g2) for p in pairs}
    assert len(classes) < len(pairs)

    calls = Counter()
    exponent = TorsionElement.exponent

    def counted_exponent(g, w):
        calls[g, tuple(w)] += 1
        return exponent(g, w)

    monkeypatch.setattr(TorsionElement, "exponent", counted_exponent)
    read = []
    tangent_exponents = inertia_module._tangent_exponents
    monkeypatch.setattr(inertia_module, "_tangent_exponents",
                        lambda *args: read.append(tangent_exponents(*args)) or read[-1])
    made = []
    monkeypatch.setattr(analysis_module, "CharacterClass", _counted(made, CharacterClass))
    # the table's own first analysis, of a fresh model, not the one
    # ``fresh`` read
    table = orbifold_table(model.replace(), 4)

    tangent = [w for w, _ in model.tangent_class.terms]
    assert len(table.components) > 1 and len(tangent) > 1
    assert not calls
    assert [len(exps) for exps in read] == [len(tangent)] * len(table.components)
    assert [c.age for c in table.components] == [c.age for c in fresh.components]
    monkeypatch.undo()
    assert [c.age for c in table.components] == [inertia_module._age_of(model, c.g) for c in table.components]
    assert not made
    assert len(table.analysis.obstructions._factors) == len(classes)


@pytest.mark.parametrize("seed, d, n", [(1, 1, 4), (3, 2, 5), (2, 3, 5)])
def test_verify_keeps_obstructions_as_ints(seed, d, n, monkeypatch):
    # the two verifiers of a Lawrence input construct the two tangent
    # classes, the ambient's and its moment fiber's, and no other
    # CharacterClass; no class is bundle-tested, and no generator product's
    # polynomial goes through ``IntPoly.from_dict``
    a, theta = random_generic_instance(random.Random(seed), d, n)
    made, tested, dicts = [], [], []
    init = CharacterClass.__init__

    def spy_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(CharacterClass, "__init__", spy_init)
    monkeypatch.setattr(CharacterClass, "is_bundle", _counted(tested, CharacterClass.is_bundle))
    monkeypatch.setattr(IntPoly, "from_dict", staticmethod(_counted(dicts, IntPoly.from_dict)))
    # the verifiers' own first models, and so their own first analyses
    model_module._lawrence_pair.cache_clear()
    assert verify_obstruction_pullback(a, theta).ok
    assert verify_orbifold_iso(a, theta, 5).ok
    assert len(made) == 2 and not tested and not dicts
    ambient, fiber = model_module._lawrence_pair(a, theta)
    assert made == [ambient.tangent_class, fiber.tangent_class]
    assert made[0] is ambient.tangent_class and made[1] is fiber.tangent_class


def _fiber_with_negative_term(monkeypatch, a, theta, multiplicity=-1):
    """Give the moment fiber ``multiplicity`` (by default -1) on the tangent
    character that enters the most obstructions; return that character and
    the ambient geometry."""
    geo = SectorGeometry(lawrence_model(a, theta), truncation=4)
    entering = Counter(w for p in double_inertia(geo.model)
                       for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms)
    bad, _ = entering.most_common(1)[0]
    fiber = model_module._moment_fiber

    def broken(lm):
        out = fiber(lm)
        tangent = out.tangent_class
        terms = tuple((w, Fraction(multiplicity) if w == bad else m) for w, m in tangent.terms)
        return out.replace(tangent_class=CharacterClass(out.d, terms, tangent.trivial))

    monkeypatch.setattr(model_module, "_moment_fiber", broken)
    # the verifiers' model pairs built before the patch hold the unbroken fiber
    model_module._lawrence_pair.cache_clear()
    return bad, geo


def test_pullback_lists_every_pair_with_a_non_bundle_selection(monkeypatch):
    # negative control: a failing selection is never cached, so every pair
    # whose selection holds the broken term fails, not only the first
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    bad, geo = _fiber_with_negative_term(monkeypatch, a, theta)
    expected = [(p.g1, p.g2) for p in double_inertia(geo.model)
                if bad in {w for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms}]
    assert 2 <= len(expected) < len(double_inertia(geo.model))

    rep = verify_obstruction_pullback(a, theta)
    assert not rep.ok and rep.checked == len(double_inertia(geo.model))
    assert [(f.g1, f.g2) for f in rep.failures] == expected
    assert all("not a bundle" in f.detail for f in rep.failures)


def test_fiber_with_a_doubled_character_fails_every_pair_it_enters(monkeypatch):
    # negative control: multiplicity 2 on the most entering character keeps
    # a bundle but changes the class, so the fiber's classes and products
    # are other store keys, built from the fiber's own data; every pair
    # whose selection holds the character fails the pullback and its
    # product, and every sector that moves it fails its age
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    bad, geo = _fiber_with_negative_term(monkeypatch, a, theta, multiplicity=2)
    expected = [(p.g1, p.g2) for p in double_inertia(geo.model)
                if bad in {w for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms}]

    rep = verify_obstruction_pullback(a, theta)
    assert (rep.ok, rep.checked, len(rep.failures)) == (False, 84, 21)
    assert [(f.g1, f.g2) for f in rep.failures] == expected
    assert all(f.detail.startswith("ambient ") and "2*chi" in f.detail for f in rep.failures)

    iso = verify_orbifold_iso(a, theta, 5)
    assert not iso.ok and not iso.ring_failures
    assert (len(iso.product_failures), len(iso.age_failures)) == (21, 10)
    assert [key for key, _, _ in iso.product_failures] == expected
    assert [g for g, _, _ in iso.age_failures] == [c.g for c in geo.components if not c.g.fixes(bad)]


def _fiber_with_a_shifted_character(monkeypatch):
    """Give the moment fiber's y_1 character 1 more in its first entry."""
    fiber = model_module._moment_fiber

    def shifted(lm):
        out = fiber(lm)
        rows = [list(row) for row in out.weights.matrix.entries]
        rows[0][lm.n] += 1
        return out.replace(weights=WeightMatrix.from_rows(rows))

    monkeypatch.setattr(model_module, "_moment_fiber", shifted)
    # the verifiers' model pairs built before the patch hold the unshifted fiber
    model_module._lawrence_pair.cache_clear()


def test_fiber_with_a_coordinate_character_off_by_one_fails_what_reads_it(monkeypatch):
    # negative control: the fiber's y_1 character gains 1 in its first
    # entry and nothing else changes.  The tangent terms are untouched, so
    # the pullback passes; the fiber gets an analysis of its own, and every
    # ring over a fixed set holding column 1, and every product into one,
    # fails, with no age failure
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    geo = SectorGeometry(lawrence_model(a, theta), truncation=5)
    _fiber_with_a_shifted_character(monkeypatch)

    rep = verify_obstruction_pullback(a, theta)
    assert (rep.ok, rep.checked, rep.failures) == (True, 84, ())
    iso = verify_orbifold_iso(a, theta, 5)
    assert (iso.ok, iso.components, iso.age_failures) == (False, 14, ())
    assert [g for g, _ in iso.ring_failures] == [c.g for c in geo.components if 1 in c.fixed_columns]
    assert len(iso.ring_failures) == 11
    targets = {c.g: c.fixed_columns for c in geo.components}
    pairs = [(p.g1, p.g2) for p in double_inertia(geo.model)]
    failing = [key for key, _, _ in iso.product_failures]
    assert len(failing) == 37
    assert failing == sorted(failing, key=pairs.index)
    assert all(1 in targets[entry.target] for _, entry, _ in iso.product_failures)


def _iso_reports(monkeypatch, a, theta, bound=5):
    """The iso report of ``(a, theta)``, and the report with the makeup
    certificate forced to miss, so that every key pair is reduced; an
    error either raises stands for its report."""
    def report():
        try:
            return verify_orbifold_iso(a, theta, bound)
        except ValueError as exc:
            return type(exc), str(exc)

    certified = report()
    with monkeypatch.context() as m:
        m.setattr(orbifold_module, "_same_makeup", lambda made_a, made_f: False)
        return certified, report()


@pytest.mark.parametrize("seed, d, n", [(1, 1, 5), (2, 1, 6), (1, 2, 5), (3, 2, 5), (2, 2, 6),
                                        (1, 3, 6), (2, 3, 5)])
def test_certified_products_give_the_report_of_reduced_ones(seed, d, n, monkeypatch):
    # the makeup certificate changes no verdict: on passing inputs the
    # report equals, field for field, the one that reduces every key
    # pair, and the certificate missed on none
    a, theta = random_generic_instance(random.Random(seed), d, n)
    missed = []
    same = orbifold_module._same_makeup
    monkeypatch.setattr(orbifold_module, "_same_makeup", lambda *made: same(*made) or missed.append(made))
    certified, reduced = _iso_reports(monkeypatch, a, theta)
    assert certified.ok and certified == reduced and not missed


def test_a_zero_product_is_certified_only_by_a_zero_product():
    # no library-built model has a zero makeup: a zero column is fixed by
    # every element, so the helper is tested on its own
    ring = GradedRingPresentation.from_characters(1, [[(3,)]], 2)
    made = (((1,),), SectorEmbedding(ring, ring, ()))
    same = orbifold_module._same_makeup
    assert same(None, None) and same(made, made)
    assert not same(None, made) and not same(made, None)


def test_a_makeup_split_otherwise_misses_the_certificate_and_reduces_to_the_same_product():
    # one target ring and one multiset of characters, split two ways
    # between the Euler factors and the normal characters: the certificate
    # compares the two tuples, so it misses, while the generator products,
    # polynomials and coordinates, are equal; a miss costs only the
    # reduction to coordinates (``value``)
    small = GradedRingPresentation.from_characters(2, [[(1, 1)]], 4)
    target = GradedRingPresentation.from_characters(2, [[(1, 1), (1, 1)]], 4)
    made_a = (((1, 0),), SectorEmbedding(small, target, ((0, 1),)))
    made_f = (((0, 1),), SectorEmbedding(small, target, ((1, 0),)))
    assert orbifold_module._same_makeup(made_a, made_a)
    assert not orbifold_module._same_makeup(made_a, made_f)
    poly_a, coords_a = orbifold_module._generator_product(made_a, 2)
    assert (poly_a, coords_a) == orbifold_module._generator_product(made_f, 2)
    assert poly_a == product_of_forms(2, [(1, 0), (0, 1)]) and any(coords_a)


_FIBER_CONTROLS = {
    "own_side": lambda mp, a, theta: _edit_fiber_geometry(mp, lambda geo: None),
    "doubled_character": lambda mp, a, theta: _fiber_with_negative_term(mp, a, theta, 2),
    "negative_character": lambda mp, a, theta: _fiber_with_negative_term(mp, a, theta),
    "shifted_character": lambda mp, a, theta: _fiber_with_a_shifted_character(mp),
    "larger_lattice": _fiber_ring_with_a_larger_lattice,
    "other_pairs": lambda mp, a, theta: _fiber_with_other_pairs(mp, a.n),
}


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("control", list(_FIBER_CONTROLS))
def test_certified_products_give_the_report_of_reduced_ones_on_negative_controls(control, seed, monkeypatch):
    # the negative-control fibers above, on both of their seeds: every
    # failure list, and an error where one is raised, is the one that
    # reducing every key pair gives; a fiber with a side of its own and
    # equal read data passes by comparing distinct makeups
    a, theta = random_generic_instance(random.Random(seed), 2, 5)
    _FIBER_CONTROLS[control](monkeypatch, a, theta)
    certified, reduced = _iso_reports(monkeypatch, a, theta)
    assert certified == reduced
    if control == "negative_character":
        assert certified[0] is ObstructionError
    else:
        assert certified.ok == (control == "own_side")


def test_table_of_a_non_bundle_model_raises(monkeypatch):
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    _fiber_with_negative_term(monkeypatch, a, theta)
    broken = model_module._moment_fiber(lawrence_model(a, theta))
    geo = SectorGeometry(broken, truncation=4)
    failing = []
    for p in double_inertia(geo.model):
        try:
            geo.obstructions.class_of(p.g1, p.g2)
        except ObstructionError:
            failing.append(p)
    assert len(failing) >= 2
    for p in failing:
        with pytest.raises(ObstructionError):
            geo.obstructions.class_of(p.g1, p.g2)
    # the table and the geometry's product of the first failing key raise
    # naming that key's first pair, the first failing pair in pair order,
    # on every read
    k = next(k for k, (mask, _, _) in enumerate(geo.analysis.keys) if geo.obstructions.bundle(mask) is None)
    named = re.escape("obstruction of (%s, %s) is not a bundle" % (failing[0].g1, failing[0].g2))
    with pytest.raises(ObstructionError, match=named):
        orbifold_table(broken, 4)
    for _ in range(2):
        with pytest.raises(ObstructionError, match=named):
            geo.value(k)


def test_star_refuses_a_pair_whose_obstruction_is_not_a_bundle(monkeypatch):
    # negative control for star: the product of the generators of a pair
    # whose selection picks the negative term raises, naming the pair
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    _fiber_with_negative_term(monkeypatch, a, theta)
    geo = SectorGeometry(model_module._moment_fiber(lawrence_model(a, theta)), truncation=4)
    ob = geo.obstructions
    pairs = double_inertia(geo.model)
    failing = [p for p in pairs if ob.bundle(sum(1 << k for k in ob.selection(p.g1, p.g2))) is None]
    assert 2 <= len(failing) < len(pairs)
    for p in failing:
        named = re.escape("obstruction of (%s, %s) is not a bundle" % (p.g1, p.g2))
        with pytest.raises(ObstructionError, match=named):
            star(geo, geo.generator(p.g1), geo.generator(p.g2))


def _spy_geometries(monkeypatch):
    """Record the geometries ``verify_orbifold_iso`` reads (``_geometry``),
    the geometries and product entries it constructs, and the coordinate
    mask of each sector-ring lookup of the trace rule."""
    read, geometries, entries, looked_up = records = [], [], [], []
    traces = chow_module._traces

    def spy(record, fn):
        def made(*args):
            record.append(fn(*args))
            return record[-1]
        return made

    def spy_traces(unstable, alive):
        looked_up.append(alive)
        return traces(unstable, alive)

    for name, record in zip(("_geometry", "SectorGeometry", "ProductEntry"), records):
        monkeypatch.setattr(orbifold_module, name, spy(record, getattr(orbifold_module, name)))
    monkeypatch.setattr(chow_module, "_traces", spy_traces)
    return read, geometries, entries, looked_up


def test_both_tables_of_a_lawrence_input_read_one_geometry(monkeypatch):
    # the moment fiber of a Lawrence input reads the ambient's data, so the
    # two sides of one call read one geometry, the ring of each fixed set
    # either reads is looked up once, and a passing check builds no table
    # and no product entry
    records = read, geometries, entries, looked_up = _spy_geometries(monkeypatch)
    for seed, d, n in [(1, 2, 5), (3, 2, 5), (2, 3, 5), (1, 1, 6)]:
        for record in records:
            record.clear()
        assert verify_orbifold_iso(*random_generic_instance(random.Random(seed), d, n), 5).ok
        geo, = read
        assert len(geometries) == 1 and not geo._values and not entries
        fixed_sets = ({c.fixed_columns for c in geo.components}
                      | {inertia_module._columns(common) for _, common, _ in geo.analysis.keys})
        assert Counter(looked_up) == Counter(inertia_module._mask(geo.model.coords_of_columns(f)) for f in fixed_sets)


@pytest.mark.parametrize("multiplicity", [2, -1])
def test_fiber_with_other_read_data_gets_a_geometry_of_its_own(multiplicity, monkeypatch):
    # a fiber whose tangent class differs reads another analysis, so it
    # gets a geometry of its own, which builds its own presentations; the
    # outcome is the one the negative controls above expect
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    _fiber_with_negative_term(monkeypatch, a, theta, multiplicity)
    build_sector = inertia_module.sector_model
    read, geometries, _, _ = _spy_geometries(monkeypatch)
    work = _spy_work(monkeypatch)
    if multiplicity < 0:
        with pytest.raises(ObstructionError):
            verify_orbifold_iso(a, theta, 5)
    else:
        rep = verify_orbifold_iso(a, theta, 5)
        assert not rep.ok and not rep.ring_failures
        assert (len(rep.product_failures), len(rep.age_failures)) == (21, 10)
        assert read == geometries
        # each geometry builds one presentation per multiset list it reads
        lists = _multiset_lists(geometries[0], build_sector)
        assert sorted(work["presentations"]) == sorted([*lists, *lists])
    ambient, fiber = geometries
    assert [g.model.kind for g in geometries] == ["lawrence", "hypertoric"]
    assert fiber.analysis is not ambient.analysis
    for c in ambient.components:
        pres_a, pres_f = (g.presentation_for(c.fixed_columns) for g in geometries)
        assert pres_a is not pres_f and pres_a == pres_f


@pytest.mark.parametrize("bound", [0, -3])
def test_verify_orbifold_iso_refuses_a_bound_below_one(a12, bound):
    # a bound below 1 would compare no ring and report a vacuous pass
    with pytest.raises(ValueError, match="bound must be at least 1, got %d" % bound):
        verify_orbifold_iso(a12, [1], bound)
    assert verify_orbifold_iso(a12, [1], 1).ok


@pytest.mark.parametrize("bound", [0, -3])
def test_orbifold_table_refuses_a_bound_below_one(bound):
    # such a bound used to give the default truncation, as if none were given
    m = lawrence_model(*random_generic_instance(random.Random(1), 1, 3))
    with pytest.raises(ValueError, match="bound must be at least 1, got %d" % bound):
        orbifold_table(m, bound)
    assert orbifold_table(m, 1).truncation >= 1


def test_negative_truncation_is_refused():
    # a presentation truncated below 0 used to be built, and every piece
    # raised; a geometry truncated below 0 used to be built, and refused
    # only at its first presentation
    m = lawrence_model(*random_generic_instance(random.Random(1), 1, 3))
    with pytest.raises(ValueError, match="truncation must be nonnegative, got -1"):
        presentation(m, -1)
    with pytest.raises(ValueError, match="truncation must be nonnegative, got -2"):
        SectorGeometry(m, -2)
    assert presentation(m, 0).piece(0).describe_group() == "Z"


def test_one_analysis_per_verify(monkeypatch):
    # the pullback and the iso check of one input, ambient and fiber alike,
    # share one inertia pass, one partner table and one selection per
    # unordered pair; no pair is expanded into a per-pair object
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    enumerations, tables, selections = [], [], []
    sectors = _counted(enumerations, inertia_module._sectors)
    for module in (inertia_module, analysis_module):
        monkeypatch.setattr(module, "_sectors", sectors)
    monkeypatch.setattr(analysis_module, "_partners", _counted(tables, analysis_module._partners))
    monkeypatch.setattr(orbifold_module._Analysis, "_row", _counted(selections, orbifold_module._Analysis._row))

    pull = verify_obstruction_pullback(a, theta)
    iso = verify_orbifold_iso(a, theta, 5)
    assert pull.ok and iso.ok and pull.checked > 1
    assert len(enumerations) == len(tables) == 1
    assert {model.kind for model, _ in enumerations} == {"lawrence"}
    ambient, _ = model_module._lawrence_pair(a, theta)
    assert all(side is ambient for side in orbifold_module._sides(a, theta))
    # the selections are computed one sector row at a time, over the
    # partners j >= i, so each unordered stable pair's once; (i, i) is
    # stable for every sector
    analysis = SectorGeometry(ambient, 4).analysis
    assert "pairs" not in vars(analysis)
    assert len(selections) == len(analysis.components)
    covered = sorted((i, j) for _, i, cols in selections for j in cols)
    half = [(i1, i2) for i1, i2, *_ in analysis.walk() if i1 <= i2]
    assert covered == half and len(half) > len(analysis.components)
    assert pull.checked == len(analysis) == 2 * len(half) - len(analysis.components)


@pytest.mark.parametrize("seed, d, n", [(1, 2, 4), (2, 2, 4), (1, 2, 5), (3, 2, 5), (1, 3, 9)])
def test_a_passing_verify_builds_no_sector_object(seed, d, n, monkeypatch):
    # the sector walk and the analysis hold ints; a passing verify of a
    # Lawrence input (the benchmark's desk shape, and (3, 9)) builds no
    # TorsionElement and no InertiaComponent, and the objects built on a
    # later read are the ones the public walk builds
    a, theta = random_generic_instance(random.Random(seed), d, n)
    built = []
    reduced, new = TorsionElement._reduced, inertia_module.InertiaComponent.__new__
    monkeypatch.setattr(TorsionElement, "_reduced", staticmethod(_counted(built, reduced)))
    monkeypatch.setattr(inertia_module.InertiaComponent, "__new__", staticmethod(_counted(built, new)))
    pull = verify_obstruction_pullback(a, theta)
    iso = verify_orbifold_iso(a, theta, 5)
    assert pull.ok and iso.ok and iso.components > 1
    assert not built
    monkeypatch.undo()
    model = model_module._lawrence_pair(a, theta)[0]
    analysis = model.analysis
    assert "elements" not in vars(analysis) and "components" not in vars(analysis)
    assert list(analysis.components) == inertia_components(model)
    assert list(orbifold_table(model, 5).components) == inertia_components(model)
    assert [c.age for c in analysis.components] == [inertia_module._age_of(model, c.g) for c in analysis.components]
    assert iso.components == len(analysis.components)


def test_one_model_pair_per_verify_input(monkeypatch, a_2x3):
    # the pullback and the iso check of one input read one Lawrence model
    # and its fiber, so the arrangement is computed once; an integral
    # character of another type is the same input, another input arranges
    # again, and a non-generic character raises on every call, since a
    # failed build is not stored
    arranged = []
    arrange = model_module._git_arrangement

    def spy(*args, **kwargs):
        arranged.append(args)
        return arrange(*args, **kwargs)

    monkeypatch.setattr(model_module, "_git_arrangement", spy)
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    assert verify_obstruction_pullback(a, theta).ok
    assert verify_orbifold_iso(a, [Fraction(t) for t in theta], 5).ok
    assert len(arranged) == 1
    b, phi = random_generic_instance(random.Random(1), 2, 4)
    assert verify_obstruction_pullback(b, phi).ok and verify_orbifold_iso(b, phi, 5).ok
    assert len(arranged) == 2
    for _ in range(2):
        for verify in (verify_obstruction_pullback, verify_orbifold_iso):
            with pytest.raises(NonGenericError):
                verify(a_2x3, [1, 0])
    assert len(arranged) == 6


def test_memo_is_keyed_by_the_model_value(monkeypatch):
    # a memo warmed by an unpatched run must not answer for a fiber with
    # another tangent class: every failing pair is still listed
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    assert verify_obstruction_pullback(a, theta).ok
    # the ambient and its moment fiber read equal data: one analysis
    warm, shared = orbifold_module._sides(a, theta)
    assert shared is warm
    bad, geo = _fiber_with_negative_term(monkeypatch, a, theta)
    expected = [(p.g1, p.g2) for p in double_inertia(geo.model)
                if bad in {w for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms}]
    assert 2 <= len(expected) < len(double_inertia(geo.model))

    rep = verify_obstruction_pullback(a, theta)
    assert [(f.g1, f.g2) for f in rep.failures] == expected
    assert all("not a bundle" in f.detail for f in rep.failures)
    ambient, fiber = orbifold_module._sides(a, theta)
    assert fiber is not ambient and fiber.analysis is not warm.analysis
    with pytest.raises(ObstructionError):
        verify_orbifold_iso(a, theta, 5)


def test_tables_at_two_bounds_equal_cold_ones():
    # the model's analysis carries no bound: tables and reports at bounds 3
    # and 5, one after the other, equal each computed on a fresh model
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    model = lawrence_model(a, theta)
    warm = [orbifold_table(model, b) for b in (3, 5)]
    assert warm[0].analysis is warm[1].analysis
    warm_reports = [verify_orbifold_iso(a, theta, b) for b in (3, 5)]
    for b, table, report in zip((3, 5), warm, warm_reports):
        cold = orbifold_table(model.replace(), b)
        assert cold.analysis is not table.analysis
        assert cold.truncation == table.truncation
        assert cold.components == table.components
        pairs = double_inertia(model)
        assert [cold.entry(p.g1, p.g2) for p in pairs] == [table.entry(p.g1, p.g2) for p in pairs]
        model_module._lawrence_pair.cache_clear()
        assert verify_orbifold_iso(a, theta, b) == report


def test_memo_holds_at_most_two_analyses(monkeypatch):
    # the analyses live on the models of the memo of model pairs, which
    # holds the two latest inputs
    built = []
    monkeypatch.setattr(analysis_module._Analysis, "__init__",
                        _counted(built, analysis_module._Analysis.__init__))
    inputs = [random_generic_instance(random.Random(seed), 2, 4) for seed in (1, 2, 3)]
    for a, theta in inputs:
        assert verify_obstruction_pullback(a, theta).ok
    info = model_module._lawrence_pair.cache_info()
    # one analysis per input: its fiber reads the ambient's
    assert (info.currsize, info.misses, len(built)) == (2, 3, 3)
    # the iso check of the latest input reads the held pair, and its
    # geometry reads the ambient's analysis, which the fiber shares
    assert verify_orbifold_iso(*inputs[-1], 5).ok
    after = model_module._lawrence_pair.cache_info()
    assert (after.currsize, after.misses, after.hits - info.hits, len(built)) == (2, 3, 1, 3)
