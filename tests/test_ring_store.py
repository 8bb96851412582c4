"""One owner per ring, and the exact certificates that skip work.

A ``SectorGeometry`` owns the rings over one analysis at one truncation,
keyed by what derives them: each fixed mask has one presentation whose
pieces are built once, and each (common fixed mask, target fixed mask)
one embedding, checked once.  Within one
``verify_orbifold_iso`` call a fiber with the ambient's read data reads
the ambient's geometry, and a fiber with other read data builds its own.
Three certificates stand in for lattice work: equal relation lists prove
two rings equal (``_same_ring``), and so do equal minimal trace masks over
equal character tables, with no relation built (``_same_relations``);
containment of coordinate masks in two rings of one model proves a
product relation divides another (``SectorEmbedding.check``), on the
minimal traces alone; and equal makeups prove two
generator products one class (``orbifold._same_makeup``).  The negative
controls here show that the relations and the lattice test still decide
wherever no certificate exists.
"""

import importlib.util
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import hypertoric.chow as chow_module
import hypertoric.orbifold as orbifold_module
from hypertoric import (
    GradedRingPresentation,
    GysinError,
    IntPoly,
    SectorEmbedding,
    SectorGeometry,
    WeightMatrix,
    direct_model,
    double_inertia,
    hypertoric_model,
    lawrence_model,
    orbifold_table,
    ring_map_is_iso,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from hypertoric.inertia import _bits, _mask
from hypertoric.orbifold import _same_relations, _same_ring
from hypertoric.sampling import random_generic_instance

T = IntPoly.variable(1, 0)
T1, T2 = IntPoly.variable(2, 0), IntPoly.variable(2, 1)


def _ring_key(pres):
    """A ring's value: equal keys are equal presentations."""
    return (pres.num_vars, pres.relations, pres.truncation)


def _record_work(monkeypatch):
    """Spy on piece builds and embedding checks: (ring value, degree) per
    build and embedding value per check."""
    builds, checks = Counter(), Counter()
    build, check = chow_module._build_piece, SectorEmbedding.check

    def spy_build(pres, k):
        builds[(_ring_key(pres), k)] += 1
        return build(pres, k)

    def spy_check(emb):
        checks[(_ring_key(emb.sub), _ring_key(emb.ambient), emb.normal_chars)] += 1
        return check(emb)

    monkeypatch.setattr(chow_module, "_build_piece", spy_build)
    monkeypatch.setattr(SectorEmbedding, "check", spy_check)
    return builds, checks


@pytest.mark.parametrize("seed, d, n", [(1, 2, 5), (3, 2, 5), (2, 3, 5), (1, 1, 6)])
def test_each_ring_value_and_embedding_has_one_owner_per_verify(seed, d, n, monkeypatch):
    # the geometry keeps one presentation per fixed set and one embedding
    # per fixed-set pair.  A passing verify of a Lawrence input certifies
    # every generator product by its makeup, so it builds no piece, and it
    # checks each embedding value once
    a, theta = random_generic_instance(random.Random(seed), d, n)
    builds, checks = _record_work(monkeypatch)
    assert verify_orbifold_iso(a, theta, 5).ok
    assert checks and not builds
    assert set(checks.values()) == {1}

    # the geometries live for one call only: a second call checks every
    # embedding again, once each
    first = dict(checks)
    checks.clear()
    assert verify_orbifold_iso(a, theta, 5).ok
    assert dict(checks) == first and not builds

    # the table of the model reduces every product, in the pieces of the
    # rings it pushes into; no two fixed sets on these seeds share a list
    # of character multisets, so each ring value's pieces are built once
    checks.clear()
    orbifold_table(lawrence_model(a, theta), 5)
    assert builds and set(builds.values()) == {1}
    assert dict(checks) == first


def test_separate_tables_do_not_share_rings(monkeypatch):
    # each geometry owns its rings and builds their pieces, so a second
    # geometry of the same model rebuilds what the first built
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 4))
    builds, _ = _record_work(monkeypatch)
    geos = [SectorGeometry(model, 3) for _ in range(2)]
    for geo in geos:
        for c in geo.components:
            geo.sector_presentation(c.g).piece(3)
    assert builds and set(builds.values()) == {2}
    fixed = geos[0].components[0].fixed_columns
    assert geos[0].presentation_for(fixed) is not geos[1].presentation_for(fixed)


# --- _same_ring: the relation-equality certificate and its fallback -------

def test_equal_relation_lists_need_no_piece():
    rels = (T1 * T2, (T1 * T1).scale(3))
    pres_a, pres_f = (GradedRingPresentation(2, rels, 5) for _ in range(2))
    assert _same_ring(pres_a, pres_f, 5).is_iso
    assert not pres_a._pieces and not pres_f._pieces


def test_same_ideal_by_other_relations_passes_through_the_pieces():
    # (t1, t2^2) and (t1, t2^2 + t1*t2) are one ideal by two generator lists
    pres_a = GradedRingPresentation(2, (T1, T2 * T2), 5)
    pres_f = GradedRingPresentation(2, (T1, T2 * T2 + T1 * T2), 5)
    assert pres_a.relations != pres_f.relations
    assert _same_ring(pres_a, pres_f, 5).is_iso
    assert sorted(pres_a._pieces) == sorted(pres_f._pieces) == list(range(6))


@pytest.mark.parametrize("rels_a, rels_f", [
    ((T1 * T1,), (T1 * T1, T1 * T2 * T2)),           # lattices first differ in degree 3
    ((T1 * T2.scale(2),), (T1 * T2,)),               # in degree 2, by torsion
    ((T1,), (T2,)),                                  # in degree 1
    ((T1 * T1 * T1,), (T1 * T1 * T1, T2 ** 4)),      # in degree 4
])
def test_different_ideals_fail_where_the_identity_map_fails(rels_a, rels_f):
    variables = [IntPoly.variable(2, i) for i in range(2)]
    for src, dst in ((rels_a, rels_f), (rels_f, rels_a)):
        pres_a = GradedRingPresentation(2, src, 5)
        pres_f = GradedRingPresentation(2, dst, 5)
        got = _same_ring(pres_a, pres_f, 5)
        want = ring_map_is_iso(pres_a, pres_f, variables, 5)
        assert not got.is_iso
        assert got.failing_degree == want.failing_degree


# --- SectorEmbedding.check: mask certificates and the lattice test -------

def _model(*chars):
    """A direct model whose coordinates have the characters ``chars``."""
    return direct_model(WeightMatrix.from_rows(zip(*chars)), unstable=[[1]])


def _ring(model, support, *masks, truncation=6):
    """A ring of ``model`` over the coordinates ``support`` as the geometry
    builds it (``chow._trace_ring``), with one relation per mask: the masks
    lie in ``support`` and none in another, so each is its own minimal
    trace."""
    return chow_module._trace_ring(model, support, masks, truncation)


def _lattice_tests(monkeypatch):
    """Record the relations the lattice test is asked about."""
    asked = []
    test = chow_module.is_zero_class

    def spy(pres, poly):
        asked.append(poly)
        return test(pres, poly)

    monkeypatch.setattr(chow_module, "is_zero_class", spy)
    return asked


# coordinates 1..3 of one character each, as in a model with a repeated column
REPEATED = direct_model(WeightMatrix.from_rows([[1, 1, 1]]), unstable=[[1, 2, 3]])


def test_a_model_ring_keeps_its_minimal_masks():
    model = _model((1,), (1,), (-1,), (-1,), (3,), (0,))
    pres = _ring(model, 0b1111110, 0b110, 0b11000, 0b100000, 0b1000000)
    # every minimal mask is kept; t^2 from two masks is one relation, and
    # a zero character gives a zero product, which is dropped
    assert pres.minimal == (0b100000, 0b1000000, 0b110, 0b11000)
    assert [str(r) for r in pres.relations] == ["3*t1", "t1^2"]
    assert pres == GradedRingPresentation(1, (T.scale(3), T * T), 6)
    # the characters' ring is the same ring, with no masks
    chars = GradedRingPresentation.from_characters(1, [[(1,), (1,)], [(-1,), (-1,)], [(3,)], [(0,)]], 6)
    assert chars == pres and chars.minimal is None


def test_no_certificate_reaches_the_lattice_test_and_raises(monkeypatch):
    # Z[t]/(2t) inside Z[t]/(t): the sub mask {1} does not lie in the
    # ambient mask {2}, and t is nonzero in Z[t]/(2t), so the restriction
    # is refused by the lattice test
    asked = _lattice_tests(monkeypatch)
    model = _model((2,), (1,))
    emb = SectorEmbedding._of_coordinates(_ring(model, 0b110, 0b10), _ring(model, 0b110, 0b100), (),
                                          model.weights.columns)
    with pytest.raises(GysinError, match="restriction ill-defined"):
        emb.check()
    assert asked == [T]


def test_no_certificate_but_a_member_passes_the_lattice_test(monkeypatch):
    # t1 + t2 lies in (t1, t2) though neither divides it: its mask holds
    # no sub mask, so the lattice test is asked about every relation, and
    # passes them all
    asked = _lattice_tests(monkeypatch)
    model = _model((1, 0), (0, 1), (1, 1))
    sub = _ring(model, 0b1110, 0b10, 0b100)
    ambient = _ring(model, 0b1110, 0b1000, 0b10, 0b100)
    emb = SectorEmbedding._of_coordinates(sub, ambient, (), model.weights.columns)
    emb.check()
    assert T1 + T2 in asked and asked == _asked_of_every_relation(emb)


def _restriction_t_against_t_squared():
    # the geometry's rings of REPEATED over {1, 2} (t^2) and over {1} (t):
    # {1} lies in {1, 2} as a set of characters, but not as coordinates
    geo = SectorGeometry(REPEATED, 6)
    sub, ambient = geo.presentation_for(frozenset({1, 2})), geo.presentation_for(frozenset({1}))
    assert (sub.relations, ambient.relations) == ((T * T,), (T,))
    return SectorEmbedding._of_coordinates(sub, ambient, (), REPEATED.weights.columns)


def _pushforward_t_times_t_against_t_cubed():
    # t times the normal class t is not divisible by t^3, though the
    # characters {1} and {1} together are the set {1, 1, 1}
    sub, ambient = _ring(REPEATED, 0b1010, 0b10), _ring(REPEATED, 0b1110, 0b1110)
    assert (sub.relations, ambient.relations) == ((T,), (T ** 3,))
    return SectorEmbedding._of_coordinates(sub, ambient, (2,), REPEATED.weights.columns)


@pytest.mark.parametrize("build, message, count", [
    (_restriction_t_against_t_squared, "restriction ill-defined: ambient relation t1 is nonzero", 1),
    (_pushforward_t_times_t_against_t_cubed, "pushforward ill-defined: t1 times", 2),
], ids=["restriction", "pushforward"])
def test_containment_counts_multiplicity(build, message, count, monkeypatch):
    # a repeated column gives two coordinates of one character: two bits,
    # so mask containment counts multiplicity, and the masks miss.  The
    # lattice test is asked about the relations in order, and refuses the
    # last one asked: the restricted t (of 1), or, once t^3 restricts to
    # zero, the pushed t (of 2)
    emb = build()
    asked = _lattice_tests(monkeypatch)
    with pytest.raises(GysinError, match=message):
        emb.check()
    assert asked == _asked_of_every_relation(emb)[:count]


@pytest.mark.parametrize("seed, d, n", [(1, 2, 5), (2, 3, 5)])
def test_a_ring_missing_one_relation_mask_fails_the_lattice_test_naming_it(seed, d, n, monkeypatch):
    # the identity embedding into a sector ring of a sub ring built without
    # the minimal masks of one relation: the masks miss, and the lattice
    # test, asked about the ambient relations in order, refuses that one
    # first, naming it
    model = lawrence_model(*random_generic_instance(random.Random(seed), d, n))
    geo = SectorGeometry(model, 5)
    ring, fixed = max(((geo.sector_presentation(c.g), c.fixed_columns) for c in geo.components),
                      key=lambda pair: len(pair[0].relations))
    assert len(ring.relations) >= 3
    support = _mask(model.coords_of_columns(fixed))
    product = {s: chow_module.product_of_forms(model.d, [model.coordinate_char(i) for i in _bits(s)])
               for s in ring.minimal}
    asked = _lattice_tests(monkeypatch)
    for k, rel in enumerate(ring.relations):
        less = _ring(model, support, *(s for s in ring.minimal if product[s] != rel), truncation=ring.truncation)
        asked.clear()
        emb = SectorEmbedding._of_coordinates(less, ring, (), model.weights.columns)
        with pytest.raises(GysinError, match=re.escape("ambient relation %s is nonzero" % rel)):
            emb.check()
        assert asked == _asked_of_every_relation(emb)[:k + 1] and asked[-1] == rel


def _asked_of_every_relation(emb):
    """What the lattice test is asked for an embedding with no certificate:
    every ambient relation within the sub's truncation, then every sub
    relation within range times the normal Euler class."""
    sub, ambient = emb.sub, emb.ambient
    out = [r for r in ambient.relations if r.homogeneous_degree() <= sub.truncation]
    if all(map(any, emb.normal_chars)):
        limit = ambient.truncation - len(emb.normal_chars)
        out += [r * emb.euler for r in sub.relations if r.homogeneous_degree() <= limit]
    return out


def test_hand_built_rings_and_embeddings_take_the_lattice_test(monkeypatch):
    # rings built by hand carry no masks, and an embedding built by hand
    # no normal mask: each asks the lattice test about every relation in
    # range
    asked = _lattice_tests(monkeypatch)
    geo = SectorGeometry(lawrence_model(*random_generic_instance(random.Random(1), 2, 5)), 5)
    built = {id(e): e for e in (geo.embedding(p.common_fixed, geo.component(p.target).fixed_columns)
                                for p in double_inertia(geo.model))}.values()
    assert len(built) > 5 and asked == []
    others = []
    for emb in built:
        plain = [GradedRingPresentation(p.num_vars, p.relations, p.truncation) for p in (emb.sub, emb.ambient)]
        others += [SectorEmbedding(emb.sub, emb.ambient, emb.normal_chars),
                   SectorEmbedding(*plain, emb.normal_chars)]
    # a ring embedded into itself by hand, with no normal characters, is
    # the identity map, but only an embedding between two rings of one
    # model is proved so with no relation read
    ring = max((e.ambient for e in built), key=lambda p: len(p.relations))
    others.append(SectorEmbedding(ring, ring, ()))
    for emb in others:
        asked.clear()
        emb.check()
        assert asked == _asked_of_every_relation(emb)
    # each of its relations is asked about twice: restricted, and pushed
    # times the normal Euler class 1
    assert len(asked) == 2 * len(ring.relations) > 2


def test_an_embedding_of_a_ring_into_itself_reads_no_relation(monkeypatch):
    # of the embeddings a geometry checks, those of a fixed set into itself
    # (common mask equal to target mask, no normal coordinates) return at
    # once; every other one is proved on its trace masks (``_covered``) and
    # asks the lattice test (``is_zero_class``) about no relation; every
    # embedding is still checked once
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 5))
    checked, check = [], SectorEmbedding.check

    def spy_check(emb):
        checked.append((emb, []))
        check(emb)

    def spy(name, fn):
        def run(*args):
            checked[-1][1].append(name)
            return fn(*args)
        return run

    monkeypatch.setattr(SectorEmbedding, "check", spy_check)
    monkeypatch.setattr(chow_module, "_covered", spy("masks", chow_module._covered))
    monkeypatch.setattr(chow_module, "is_zero_class", spy("relations", chow_module.is_zero_class))
    orbifold_table(model, 5)
    masks = {key[1:] for key in model.analysis.keys}
    assert len(checked) == len(masks)
    same = [(emb, read) for emb, read in checked if emb.sub is emb.ambient]
    assert len(same) == sum(common == target for common, target in masks) > 1
    assert all(emb.normal == 0 and read == [] for emb, read in same)
    assert all(read and "relations" not in read for emb, read in checked if emb.sub is not emb.ambient)


def test_certificates_prove_every_seeded_sector_embedding(monkeypatch):
    # on these models the mask certificate settles every check, with no
    # miss (every ``_covered`` call returns True), and the lattice test,
    # run on the same rings without their masks, agrees
    asked, covered, test = _lattice_tests(monkeypatch), [], chow_module._covered
    monkeypatch.setattr(chow_module, "_covered", lambda *args: covered.append(test(*args)) or covered[-1])
    models = [build(*random_generic_instance(random.Random(seed), d, n))
              for build in (lawrence_model, hypertoric_model) for seed, d, n in [(1, 2, 5), (2, 3, 5), (1, 1, 6)]]
    models += [direct_model(WeightMatrix.from_rows([row]), theta=[1]) for row in ([2, 4, 6], [1, 2, 3])]
    embeddings = []
    for model in models:
        geo = SectorGeometry(model, 5)
        for p in double_inertia(geo.model):
            embeddings.append(geo.embedding(p.common_fixed, geo.component(p.target).fixed_columns))
    assert len({id(e) for e in embeddings}) > 90
    assert asked == [] and len(covered) > 100 and all(covered)
    for emb in {id(e): e for e in embeddings}.values():
        sub, ambient = (GradedRingPresentation(p.num_vars, p.relations, p.truncation)
                        for p in (emb.sub, emb.ambient))
        SectorEmbedding(sub, ambient, emb.normal_chars).check()
    assert asked


# --- rings a model builds: relations worked out only where read ----------

def _kernel_runs(monkeypatch, *modules):
    """Record each run of the product kernel (``product_coefficients``),
    as the modules ``modules`` call it."""
    runs = []
    for module in modules:
        kernel = module.product_coefficients
        monkeypatch.setattr(module, "product_coefficients",
                            lambda *args, kernel=kernel: runs.append(args) or kernel(*args))
    return runs


def test_a_model_ring_builds_its_relations_on_first_read_by_one_path():
    # a ring a model builds holds its minimal traces and the character
    # table; printing, equality, pickling, ``replace`` and a piece each
    # build its relations through one path, and read as the plain ring
    model = _model((1,), (1,), (-1,), (-1,), (3,), (0,))
    plain = GradedRingPresentation(1, (T.scale(3), T * T), 6)
    readers = [repr, lambda r: r == plain, lambda r: pickle.loads(pickle.dumps(r)),
               lambda r: r.replace(truncation=5), lambda r: r.piece(2)]
    for read in readers:
        ring = _ring(model, 0b1111110, 0b110, 0b11000, 0b100000, 0b1000000)
        assert (ring.minimal, ring.table) == ((0b100000, 0b1000000, 0b110, 0b11000), model.weights.columns)
        with pytest.raises(AttributeError):
            GradedRingPresentation.relations.__get__(ring)
        assert read(ring) == read(plain)
        assert ring.relations == plain.relations
    assert not hasattr(ring, "nothing") and (plain.minimal, plain.table) == (None, None)


def _pool_inputs():
    """The inputs of the benchmark's ``sectors`` and ``desk`` pools, drawn
    by ``perfbench/inputs.py``, which imports nothing of the library."""
    spec = importlib.util.spec_from_file_location(
        "pool_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(WeightMatrix.from_rows(a), theta) for name in ("sectors", "desk") for a, theta in inputs.model_pool(name)]


def test_a_passing_verify_builds_no_linear_form_product(monkeypatch):
    # every ring comparison is settled by trace masks and character
    # tables, and every embedding check by trace masks, so no ring builds
    # its relations, and no generator product or normal Euler class is
    # made: the product kernel never runs (the rings built every relation
    # eagerly before, 415 kernel runs over the two pools)
    runs = _kernel_runs(monkeypatch, chow_module, orbifold_module)
    seeded = [random_generic_instance(random.Random(1), d, n) for d, n in [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6)]]
    inputs = _pool_inputs() + seeded
    assert len(inputs) == 48 + 24 + 5
    for a, theta in inputs:
        assert verify_obstruction_pullback(a, theta).ok and verify_orbifold_iso(a, theta, 5).ok
    assert runs == []


def test_equal_masks_over_other_characters_fall_back_to_the_relations(monkeypatch):
    # equal minimal traces certify two rings equal only over equal
    # character tables; over another table both rings build their
    # relations and compare them, which here differ (2t against 3t) or
    # agree (the characters differ off the trace)
    runs = _kernel_runs(monkeypatch, chow_module)
    for chars, same in [(((2,), (1,), (5,)), True), (((3,), (1,), (5,)), False), (((2,), (1,), (7,)), True)]:
        ring, other = _ring(_model((2,), (1,), (5,)), 0b1110, 0b10), _ring(_model(*chars), 0b1110, 0b10)
        assert other.minimal == ring.minimal
        runs.clear()
        assert _same_relations(ring, other) is same
        assert len(runs) == (0 if other.table == ring.table else 2)
    assert len(runs) == 2


@pytest.mark.parametrize("chars", [((1,), (1,)), ((1,), (0,))], ids=["repeated", "zero"])
def test_a_mask_miss_runs_the_lattice_test(chars, monkeypatch):
    # two rings that do not trace one list of unstable masks: the ambient
    # trace {2} holds no sub trace, so the masks alone miss.  Its product
    # repeats t, or is zero, so the one ambient relation is t; the lattice
    # test is asked about every relation in range, and passes both
    # directions
    model = _model(*chars)
    sub, ambient = _ring(model, 0b110, 0b10), _ring(model, 0b110, 0b10, 0b100)
    assert (sub.minimal, ambient.minimal) == ((0b10,), (0b10, 0b100))
    assert ambient.relations == (T,)
    asked, covered, test = _lattice_tests(monkeypatch), [], chow_module._covered
    monkeypatch.setattr(chow_module, "_covered", lambda *args: covered.append(test(*args)) or covered[-1])
    emb = SectorEmbedding._of_coordinates(sub, ambient, (), model.weights.columns)
    emb.check()
    assert covered == [False] and asked == _asked_of_every_relation(emb) == [T, T]


def test_an_embedding_of_columns_outside_the_target_is_refused():
    # the certificate takes the normal coordinates to be the target's
    # outside the sub's, which holds only for nested column sets
    geo = SectorGeometry(lawrence_model(*random_generic_instance(random.Random(2), 2, 4)), 5)
    with pytest.raises(ValueError, match=re.escape("columns [2, 4] do not lie in columns [1, 2, 3]")):
        geo.embedding({2, 4}, {1, 2, 3})
    assert not geo._embeddings
    assert geo.embedding({2, 3}, {1, 2, 3}).normal == _mask([1, 1 + geo.model.n])
