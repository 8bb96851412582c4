import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import hypertoric.analysis as analysis_module
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
from hypertoric.chow import IsoReport
from hypertoric.cli import EXIT_VERIFY_FAILED, main
from hypertoric.orbifold import _ring_key
from hypertoric.sampling import random_generic_instance


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
        from hypertoric import double_inertia

        for p in double_inertia(model):
            assert obstruction(model, p.g1, p.g2) == obstruction(model, p.g2, p.g1)


def test_euler_poly():
    assert str(euler_poly(CharacterClass.zero(1))) == "1"
    assert str(euler_poly(chi((2,)))) == "2*t1"
    two = CharacterClass.build(1, [((1,), 1), ((2,), 1)])
    assert str(euler_poly(two)) == "2*t1^2"
    with_trivial = CharacterClass.build(1, [((1,), 1)], trivial=1)
    assert euler_poly(with_trivial).is_zero


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
    pres = table.geometry.sector_presentation(entry.target)
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
        for p in geo.pairs
    }


def _product_values(geo):
    """What the ring store builds a generator product from: the obstruction
    class and the value of the embedding it pushes along."""
    out = set()
    for p in geo.pairs:
        emb = geo.embedding(p.common_fixed, geo.component(p.target).fixed_columns)
        out.add((obstruction(geo.model, p.g1, p.g2),
                 (_ring_key(emb.sub), _ring_key(emb.ambient), emb.normal_chars)))
    return out


def _nonzero(values):
    """The product values whose product is nonzero, by the old rule: the
    class's Euler polynomial and the normal one are both nonzero."""
    return {(c, emb) for c, emb in values
            if not euler_poly(c).is_zero and all(not IntPoly.linear_form(w).is_zero for w in emb[2])}


def _multiset_lists(geo, build_sector):
    """The (num_vars, character multisets, truncation) of every fixed set a
    table of ``geo`` reads, from the sector models themselves."""
    fixed_sets = {c.fixed_columns for c in geo.components} | {p.common_fixed for p in geo.pairs}
    out = set()
    for fixed in fixed_sets:
        sec = build_sector(geo.model, fixed)
        multisets = tuple(tuple(sorted(sec.coordinate_char(j) for j in s))
                          for s in sec.arrangement.unstable_minimal)
        out.add((geo.model.d, multisets, geo.truncation))
    return out


def _spy_work(monkeypatch):
    """Record the work of the table path: sector models, presentations made
    from characters, Euler polynomials, the ring store's generator products
    (each one run of the product kernel), and ``star`` calls."""
    work = {name: [] for name in ("sector_models", "presentations", "eulers", "products", "stars")}
    monkeypatch.setattr(inertia_module, "sector_model",
                        _counted(work["sector_models"], inertia_module.sector_model))
    monkeypatch.setattr(GradedRingPresentation, "from_characters", staticmethod(
        _counted(work["presentations"], GradedRingPresentation.from_characters)))
    for name, fn in (("eulers", "euler_poly"), ("products", "product_coefficients"), ("stars", "star")):
        monkeypatch.setattr(orbifold_module, fn, _counted(work[name], getattr(orbifold_module, fn)))
    return work


@pytest.mark.parametrize("name", ["tp12_hypertoric", "mu3_model"])
def test_orbifold_table_analyses_once(name, request, monkeypatch):
    # one inertia pass, no sector model, one presentation per distinct
    # multiset list, one Gysin check per distinct embedding value, no Euler
    # polynomial, one kernel product per distinct (class, embedding value)
    # with a nonzero product, for the table's single geometry, and no
    # ``star``; on mu3 two fixed sets share the ring Z[t]/(3t), and their
    # two identity embeddings are one value
    model = request.getfixturevalue(name)
    build_sector = inertia_module.sector_model
    enumerations, checked = [], []

    walk = _counted(enumerations, inertia_module._sectors)
    for module in (inertia_module, analysis_module):
        monkeypatch.setattr(module, "_sectors", walk)
    monkeypatch.setattr(SectorEmbedding, "check", _counted(checked, SectorEmbedding.check))
    work = _spy_work(monkeypatch)

    geo = orbifold_table(model, 4).geometry
    done = {name: len(calls) for name, calls in work.items()}
    assert len(enumerations) == 1
    assert done["sector_models"] == done["stars"] == 0
    lists = _multiset_lists(geo, build_sector)
    assert sorted(work["presentations"]) == sorted(lists)
    fixed_pairs = {(p.common_fixed, geo.component(p.target).fixed_columns) for p in geo.pairs}
    embeddings = {id(e): e for e in (geo.embedding(*fp) for fp in fixed_pairs)}
    values = {(_ring_key(e.sub), _ring_key(e.ambient), e.normal_chars) for e in embeddings.values()}
    assert len(checked) == len(embeddings) == len(values)
    assert {id(emb) for (emb,) in checked} == set(embeddings)
    if name == "mu3_model":
        assert len(values) < len(fixed_pairs)
    assert done["eulers"] == 0
    nonzero = _nonzero(_product_values(geo))
    assert done["products"] == len(nonzero) <= len(_product_values(geo)) <= len(_product_keys(geo))


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
    fresh = SectorGeometry(model, truncation=table.geometry.truncation)
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
    geo = table.geometry
    # the table holds one product per key; its entries are the expanded
    # view, one per pair, built on first use
    assert made == [] and len(table.values) <= len(geo.pairs)
    assert list(table.products) == [(p.g1, p.g2) for p in geo.pairs]
    assert len(made) == len(geo.pairs)

    elems = [c.g for c in table.components]
    zeros = 0
    for g1, g2 in itertools.product(elems, repeat=2):
        entry = table.entry(g1, g2)
        if geo.pair(g1, g2) is None:
            zeros += 1
            assert (entry.g1, entry.g2, entry.target, entry.poly, entry.coords) == (
                g1, g2, None, IntPoly.zero(d), ())
        else:
            assert entry is table.products[(g1, g2)] and entry.target is not None
    assert zeros == len(elems) ** 2 - len(geo.pairs)
    if seed is None:
        assert (len(elems), len(geo.pairs)) == (4, 12)

    stranger = TorsionElement.from_fractions([Fraction(1, 1009)] * d)
    assert stranger not in elems
    for args in [(stranger, elems[0]), (elems[0], stranger), (stranger, stranger)]:
        with pytest.raises(ValueError):
            table.entry(*args)


def _spy_verify(monkeypatch, fail_fixed=None):
    """Record the tables, the ring checks and the work (``_spy_work``) of
    ``verify_orbifold_iso``; with ``fail_fixed``, the check of the ambient
    ring over that fixed set reports a forced failure."""
    tables, checks = [], []
    table = orbifold_module._table
    iso = orbifold_module._same_ring

    def spy_table(*args):
        tables.append(table(*args))
        return tables[-1]

    def spy_iso(src, dst, bound):
        checks.append((src, dst))
        if fail_fixed is not None and src is tables[0].geometry.presentation_for(fail_fixed):
            return IsoReport(False, 1, "forced failure")
        return iso(src, dst, bound)

    monkeypatch.setattr(orbifold_module, "_table", spy_table)
    monkeypatch.setattr(orbifold_module, "_same_ring", spy_iso)
    return tables, checks, _spy_work(monkeypatch)


@pytest.mark.parametrize("seed, d, n", [(1, 2, 4), (1, 2, 5), (3, 2, 5)])
def test_verify_orbifold_iso_checks_each_ring_once(seed, d, n, monkeypatch):
    a, theta = random_generic_instance(random.Random(seed), d, n)
    build_sector = inertia_module.sector_model
    tables, checks, work = _spy_verify(monkeypatch)
    assert verify_orbifold_iso(a, theta, 5).ok
    done = {name: len(calls) for name, calls in work.items()}
    ambient, fiber = tables
    rings = {(ca.fixed_columns, cf.fixed_columns)
             for ca, cf in zip(ambient.components, fiber.components)}
    assert len(checks) == len(rings) < len(ambient.components)
    assert len({(id(src), id(dst)) for src, dst in checks}) == len(checks)
    assert done["sector_models"] == done["stars"] == 0
    # one presentation per distinct multiset list, whichever side asks first
    lists = set().union(*(_multiset_lists(t.geometry, build_sector) for t in tables))
    assert sorted(work["presentations"]) == sorted(lists)
    # no Euler polynomial, and one kernel product per distinct (class,
    # embedding value) of both tables together; the fiber's values are all
    # the ambient's here, so there are fewer products than keys
    assert done["eulers"] == 0
    values = _product_values(ambient.geometry)
    assert _product_values(fiber.geometry) <= values
    keys = sum(len(_product_keys(t.geometry)) for t in tables)
    assert done["products"] == len(_nonzero(values))
    assert len(values) < keys < sum(len(t.geometry.pairs) for t in tables)


def test_failing_ring_check_names_every_sector_sharing_it(tmp_path, capsys, monkeypatch):
    # negative control: one ring check per fixed set still fails every
    # sector over that set, in the report and in the CLI's verify output
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    comps = inertia_components(lawrence_model(a, theta))
    bad, count = Counter(c.fixed_columns for c in comps).most_common(1)[0]
    assert count >= 2
    named = [c.g for c in comps if c.fixed_columns == bad]

    tables, checks, _ = _spy_verify(monkeypatch, fail_fixed=bad)
    rep = verify_orbifold_iso(a, theta, 5)
    assert not rep.ok
    assert [g for g, _ in rep.ring_failures] == named
    assert all(r.reason == "forced failure" for _, r in rep.ring_failures)

    tables.clear()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [list(r) for r in a.matrix.entries],
                                "theta": list(theta), "kind": "lawrence"}))
    assert main(["verify", "--input", str(path)]) == EXIT_VERIFY_FAILED
    failures = json.loads(capsys.readouterr().out)["orbifold_iso"]["failures"]
    assert failures == [
        {"kind": "ring", "v": g.as_strings(), "failing_degree": 1, "reason": "forced failure"}
        for g in named
    ]


def _edit_fiber_table(monkeypatch, edit):
    """Apply ``edit`` to each fiber table's products: every second table
    built, since ``verify_orbifold_iso`` builds the ambient one first."""
    table = orbifold_module._table
    built = []

    def edited(*args):
        built.append(table(*args))
        if len(built) % 2 == 0:
            edit(built[-1])
        return built[-1]

    monkeypatch.setattr(orbifold_module, "_table", edited)


def _lose_pair(table):
    keys = list(table.products)
    lost = keys[len(keys) // 2]
    del table.products[lost]
    return lost


def _gain_pair(table):
    elems = [c.g for c in table.components]
    gained = next((g1, g2) for g1 in elems for g2 in elems if (g1, g2) not in table.products)
    g1, g2 = gained
    table.products[gained] = orbifold_module.ProductEntry(
        g1, g2, g1 + g2, IntPoly.one(g1.d), (1,))
    return gained


@pytest.mark.parametrize("edit", [_lose_pair, _gain_pair])
def test_pair_stable_on_one_side_is_a_product_failure(edit, tmp_path, capsys, monkeypatch):
    # negative control: a stable pair missing from the fiber table, or a
    # fiber-only pair, is reported, in the report and in the CLI's verify output
    edited = []
    _edit_fiber_table(monkeypatch, lambda table: edited.append(edit(table)))
    rep = verify_orbifold_iso(_A23, [1], 5)
    assert not rep.ok
    assert [key for key, _, _ in rep.product_failures] == edited
    assert not rep.ring_failures and not rep.age_failures

    edited.clear()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[2, 3]], "theta": [1], "kind": "hypertoric"}))
    assert main(["verify", "--input", str(path)]) == EXIT_VERIFY_FAILED
    (g1, g2), = edited
    failures = json.loads(capsys.readouterr().out)["orbifold_iso"]["failures"]
    assert failures == [{"kind": "product", "g1": g1.as_strings(), "g2": g2.as_strings()}]


@pytest.mark.parametrize("bound", [2, 5])
def test_fiber_ring_with_a_larger_lattice_fails_every_sector_over_it(
        bound, tmp_path, capsys, monkeypatch):
    # negative control with a real lattice difference: the fiber ring over
    # the most shared fixed set gains t1^2, which is not in its degree-2
    # lattice; the relation goes in once the fiber table is built, since
    # this set is the subsector of a checked embedding that t1^2 would fail
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    comps = inertia_components(lawrence_model(a, theta))
    bad, count = Counter(c.fixed_columns for c in comps).most_common(1)[0]
    assert count >= 2
    named = [c.g for c in comps if c.fixed_columns == bad]
    extra = IntPoly.from_dict(2, {(2, 0): 1})

    def enlarge(table):
        geo = table.geometry
        pres = geo.presentation_for(bad)
        assert any(reduce_class(pres, extra))
        geo._presentations[tuple(sorted(bad))] = GradedRingPresentation(
            pres.num_vars, pres.relations + (extra,), pres.truncation)

    _edit_fiber_table(monkeypatch, enlarge)
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


def test_obstruction_kernel_work_counts(monkeypatch):
    # one exponent evaluation per (sector, tangent term) for the whole table,
    # the ages included (fixed columns are read without ``exponent``), and
    # one CharacterClass per distinct selection (distinct selections are
    # distinct classes)
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    model = lawrence_model(a, theta)
    fresh = SectorGeometry(model, truncation=4)
    classes = {fresh.obstructions.class_of(p.g1, p.g2) for p in fresh.pairs}
    assert len(classes) < len(fresh.pairs)

    calls = Counter()
    exponent = TorsionElement.exponent

    def counted_exponent(g, w):
        calls[g, tuple(w)] += 1
        return exponent(g, w)

    monkeypatch.setattr(TorsionElement, "exponent", counted_exponent)
    made = []
    monkeypatch.setattr(analysis_module, "CharacterClass", _counted(made, CharacterClass))
    # the table's own first analysis, not the one ``fresh`` memoized
    orbifold_module._analysis.cache_clear()
    table = orbifold_table(model, 4)

    tangent = [w for w, _ in model.tangent_class.terms]
    assert len(table.components) > 1 and len(tangent) > 1
    assert calls == Counter({(c.g, w): 1 for c in table.components for w in tangent})
    assert [c.age for c in table.components] == [c.age for c in fresh.components]
    assert len(made) == len(classes)


def _fiber_with_negative_term(monkeypatch, a, theta, multiplicity=-1):
    """Give the moment fiber ``multiplicity`` (by default -1) on the tangent
    character that enters the most obstructions; return that character and
    the ambient geometry."""
    geo = SectorGeometry(lawrence_model(a, theta), truncation=4)
    entering = Counter(w for p in geo.pairs
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
    expected = [(p.g1, p.g2) for p in geo.pairs
                if bad in {w for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms}]
    assert 2 <= len(expected) < len(geo.pairs)

    rep = verify_obstruction_pullback(a, theta)
    assert not rep.ok and rep.checked == len(geo.pairs)
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
    expected = [(p.g1, p.g2) for p in geo.pairs
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


def test_table_of_a_non_bundle_model_raises(monkeypatch):
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    _fiber_with_negative_term(monkeypatch, a, theta)
    broken = model_module._moment_fiber(lawrence_model(a, theta))
    with pytest.raises(ObstructionError):
        orbifold_table(broken, 4)
    geo = SectorGeometry(broken, truncation=4)
    failing = []
    for p in geo.pairs:
        try:
            geo.obstructions.class_of(p.g1, p.g2)
        except ObstructionError:
            failing.append(p)
    assert len(failing) >= 2
    for p in failing:
        with pytest.raises(ObstructionError):
            geo.obstructions.class_of(p.g1, p.g2)


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
    assert orbifold_table(m, 1).geometry.truncation >= 1


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
    # share one inertia pass, one block walk and one selection per pair;
    # no pair is expanded into a per-pair object
    a, theta = random_generic_instance(random.Random(3), 2, 5)
    enumerations, walks, expansions, selections = [], [], [], []
    sectors = _counted(enumerations, inertia_module._sectors)
    walk = _counted(walks, inertia_module._blocks)
    for module in (inertia_module, analysis_module):
        monkeypatch.setattr(module, "_sectors", sectors)
        monkeypatch.setattr(module, "_blocks", walk)
    monkeypatch.setattr(inertia_module.DoubleInertia, "pairs",
                        _counted(expansions, inertia_module.DoubleInertia.pairs))
    monkeypatch.setattr(orbifold_module._Analysis, "_selections",
                        _counted(selections, orbifold_module._Analysis._selections))

    pull = verify_obstruction_pullback(a, theta)
    iso = verify_orbifold_iso(a, theta, 5)
    assert pull.ok and iso.ok and pull.checked > 1
    assert len(enumerations) == len(walks) == 1
    assert {model.kind for model, _ in enumerations} == {"lawrence"}
    assert expansions == []
    assert orbifold_module._analysis.cache_info().currsize == 1
    # each block's selections once, so each pair's once
    analysis = SectorGeometry(lawrence_model(a, theta), 4).analysis
    assert [block for _, block in selections] == list(analysis.double.blocks)
    assert sum(len(b.rows) * len(b.cols) for b in analysis.double.blocks) == pull.checked


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
    assert orbifold_module._analysis.cache_info().currsize == 1
    bad, geo = _fiber_with_negative_term(monkeypatch, a, theta)
    expected = [(p.g1, p.g2) for p in geo.pairs
                if bad in {w for w, _ in geo.obstructions.class_of(p.g1, p.g2).terms}]
    assert 2 <= len(expected) < len(geo.pairs)

    rep = verify_obstruction_pullback(a, theta)
    assert [(f.g1, f.g2) for f in rep.failures] == expected
    assert all("not a bundle" in f.detail for f in rep.failures)
    with pytest.raises(ObstructionError):
        verify_orbifold_iso(a, theta, 5)


def test_tables_at_two_bounds_equal_cold_ones():
    # the shared analysis carries no bound: tables and reports at bounds 3
    # and 5, one after the other, equal each computed on an empty memo
    a, theta = random_generic_instance(random.Random(1), 2, 5)
    model = lawrence_model(a, theta)
    warm = [orbifold_table(model, b) for b in (3, 5)]
    assert warm[0].geometry.analysis is warm[1].geometry.analysis
    warm_reports = [verify_orbifold_iso(a, theta, b) for b in (3, 5)]
    for b, table, report in zip((3, 5), warm, warm_reports):
        orbifold_module._analysis.cache_clear()
        cold = orbifold_table(model, b)
        assert cold.geometry.analysis is not table.geometry.analysis
        assert cold.geometry.truncation == table.geometry.truncation
        assert cold.components == table.components
        assert cold.products == table.products
        orbifold_module._analysis.cache_clear()
        assert verify_orbifold_iso(a, theta, b) == report


def test_memo_holds_at_most_two_analyses():
    inputs = [random_generic_instance(random.Random(seed), 2, 4) for seed in (1, 2, 3)]
    for a, theta in inputs:
        assert verify_obstruction_pullback(a, theta).ok
    info = orbifold_module._analysis.cache_info()
    # one miss per input: its fiber reads the ambient's analysis
    assert (info.currsize, info.misses, info.hits) == (2, 3, 3)
    # the two held are the analyses of the two latest inputs; each table
    # reads the memo once, and its geometry reads the table's analysis
    assert verify_orbifold_iso(*inputs[-1], 5).ok
    after = orbifold_module._analysis.cache_info()
    assert (after.currsize, after.misses, after.hits - info.hits) == (2, 3, 2)
