"""One owner per ring, and the exact certificates that skip work.

A ``SectorGeometry`` owns the rings over one analysis at one truncation,
keyed by what derives them: each fixed mask has one presentation whose
pieces are built once, and each (common fixed mask, target fixed mask)
one embedding, checked once.  Within one
``verify_orbifold_iso`` call a fiber with the ambient's read data reads
the ambient's geometry, and a fiber with other read data builds its own.
Three certificates stand in for lattice work: equal relation lists prove
two rings equal (``_same_ring``), containment of coordinate masks in two
rings of one model proves a product relation divides another
(``SectorEmbedding.check``), and equal makeups prove two generator
products one class (``orbifold._same_makeup``).  The negative controls
here show that the lattice test still decides wherever no certificate
exists.
"""

import random
import re
from collections import Counter

import pytest

import hypertoric.chow as chow_module
from hypertoric import (
    GradedRingPresentation,
    GysinError,
    IntPoly,
    SectorEmbedding,
    SectorGeometry,
    WeightMatrix,
    direct_model,
    double_inertia,
    lawrence_model,
    orbifold_table,
    ring_map_is_iso,
    verify_orbifold_iso,
)
from hypertoric.inertia import _mask
from hypertoric.orbifold import _same_ring
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
    return chow_module._trace_ring(model, support, masks, truncation, {})


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


def test_a_model_ring_keeps_a_trace_mask_per_relation():
    model = _model((1,), (1,), (-1,), (-1,), (3,), (0,))
    pres = _ring(model, 0b1111110, 0b110, 0b11000, 0b100000, 0b1000000)
    # t^2 from two masks is one relation with the first mask; a zero
    # character gives a zero product, which is dropped
    assert [str(r) for r in pres.relations] == ["3*t1", "t1^2"]
    assert pres.traces == (0b100000, 0b110)
    assert pres == GradedRingPresentation(1, (T.scale(3), T * T), 6)
    # the characters' ring is the same ring, with no masks
    chars = GradedRingPresentation.from_characters(1, [[(1,), (1,)], [(-1,), (-1,)], [(3,)], [(0,)]], 6)
    assert chars == pres and chars.traces == ()


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
    # t1 + t2 lies in (t1, t2) though neither divides it; the pushes of t1
    # and t2 are certified by the ambient relations t1 and t2
    asked = _lattice_tests(monkeypatch)
    model = _model((1, 0), (0, 1), (1, 1))
    sub = _ring(model, 0b1110, 0b10, 0b100)
    ambient = _ring(model, 0b1110, 0b1000, 0b10, 0b100)
    SectorEmbedding._of_coordinates(sub, ambient, (), model.weights.columns).check()
    assert asked == [T1 + T2]


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


@pytest.mark.parametrize("build, message", [
    (_restriction_t_against_t_squared, "restriction ill-defined: ambient relation t1 is nonzero"),
    (_pushforward_t_times_t_against_t_cubed, "pushforward ill-defined: t1 times"),
], ids=["restriction", "pushforward"])
def test_containment_counts_multiplicity(build, message, monkeypatch):
    # a repeated column gives two coordinates of one character: two bits,
    # so mask containment counts multiplicity
    emb = build()
    asked = _lattice_tests(monkeypatch)
    with pytest.raises(GysinError, match=message):
        emb.check()
    assert len(asked) == 1


@pytest.mark.parametrize("seed, d, n", [(1, 2, 5), (2, 3, 5)])
def test_a_ring_missing_one_relation_mask_fails_the_lattice_test_naming_it(seed, d, n, monkeypatch):
    # the identity embedding into a sector ring of a sub ring built without
    # one relation's mask: that relation alone reaches the lattice test,
    # which refuses it, naming it
    geo = SectorGeometry(lawrence_model(*random_generic_instance(random.Random(seed), d, n)), 5)
    ring, fixed = max(((geo.sector_presentation(c.g), c.fixed_columns) for c in geo.components),
                      key=lambda pair: len(pair[0].relations))
    assert len(ring.relations) >= 3
    support = _mask(geo.model.coords_of_columns(fixed))
    asked = _lattice_tests(monkeypatch)
    for k, rel in enumerate(ring.relations):
        less = _ring(geo.model, support, *ring.traces[:k], *ring.traces[k + 1:], truncation=ring.truncation)
        asked.clear()
        with pytest.raises(GysinError, match=re.escape("ambient relation %s is nonzero" % rel)):
            SectorEmbedding._of_coordinates(less, ring, (), geo.model.weights.columns).check()
        assert asked == [rel]


def _asked_of_every_relation(emb):
    """What the lattice test is asked for an embedding with no certificate:
    every ambient relation within the sub's truncation, then every sub
    relation within range times the normal Euler class."""
    sub, ambient = emb.sub, emb.ambient
    out = [r for r, k in zip(ambient.relations, ambient.degrees) if k <= sub.truncation]
    if all(map(any, emb.normal_chars)):
        limit = ambient.truncation - len(emb.normal_chars)
        out += [r * emb.euler for r, k in zip(sub.relations, sub.degrees) if k <= limit]
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
    # once; every embedding is still checked once
    model = lawrence_model(*random_generic_instance(random.Random(1), 2, 5))
    checked, check, uncertified = [], SectorEmbedding.check, chow_module._uncertified

    def spy_check(emb):
        checked.append((emb, []))
        check(emb)

    def spy_uncertified(*args):
        checked[-1][1].append(args)
        return uncertified(*args)

    monkeypatch.setattr(SectorEmbedding, "check", spy_check)
    monkeypatch.setattr(chow_module, "_uncertified", spy_uncertified)
    orbifold_table(model, 5)
    masks = {key[1:] for key in model.analysis.keys}
    assert len(checked) == len(masks)
    same = [(emb, read) for emb, read in checked if emb.sub is emb.ambient]
    assert len(same) == sum(common == target for common, target in masks) > 1
    assert all(emb.normal == 0 and read == [] for emb, read in same)
    assert all(read for emb, read in checked if emb.sub is not emb.ambient)


def test_certificates_prove_every_seeded_sector_embedding(monkeypatch):
    # on these models a certificate settles every check, and the lattice
    # test, run on the same rings without their masks, agrees
    asked = _lattice_tests(monkeypatch)
    embeddings = []
    for seed, d, n in [(1, 2, 5), (2, 3, 5), (1, 1, 6)]:
        model = lawrence_model(*random_generic_instance(random.Random(seed), d, n))
        geo = SectorGeometry(model, 5)
        for p in double_inertia(geo.model):
            embeddings.append(geo.embedding(p.common_fixed, geo.component(p.target).fixed_columns))
    assert len({id(e) for e in embeddings}) > 20
    assert asked == []
    for emb in {id(e): e for e in embeddings}.values():
        sub, ambient = (GradedRingPresentation(p.num_vars, p.relations, p.truncation)
                        for p in (emb.sub, emb.ambient))
        SectorEmbedding(sub, ambient, emb.normal_chars).check()
    assert asked
