import random

import pytest

from hypertoric import (
    GradedRingPresentation,
    GysinError,
    IntPoly,
    SectorEmbedding,
    SectorGeometry,
    WeightMatrix,
    direct_model,
    graded_group,
    gysin_push,
    is_zero_class,
    lawrence_model,
    presentation,
    reduce_class,
    ring_map_is_iso,
)
from hypertoric.exact import invariant_factors
from hypertoric.poly import monomials_of_degree
from hypertoric.sampling import random_generic_instance

T = IntPoly.variable(1, 0)


def zpres(*relations, nvars=1, truncation=8):
    return GradedRingPresentation(nvars, tuple(relations), truncation)


@pytest.fixture
def z3t():
    return zpres(T.scale(3))


@pytest.fixture
def z2t2():
    return zpres((T * T).scale(2))


def test_presentation_mu3(mu3_model):
    pres = presentation(mu3_model)
    assert [str(r) for r in pres.relations] == ["3*t1"]


def test_presentation_p2():
    m = direct_model(WeightMatrix.from_rows([[1, 1, 1]]), theta=[1])
    assert [str(r) for r in presentation(m).relations] == ["t1^3"]


def test_presentation_lawrence_12(tp12_lawrence):
    assert [str(r) for r in presentation(tp12_lawrence).relations] == ["2*t1^2"]


def test_graded_groups(z3t, z2t2):
    assert graded_group(z3t, 0).describe_group() == "Z"
    assert graded_group(z3t, 1).describe_group() == "Z/3"
    assert graded_group(z2t2, 2).describe_group() == "Z/2"
    assert graded_group(zpres(T ** 3), 5).describe_group() == "0"


def test_graded_group_truncation_guard(z3t):
    with pytest.raises(ValueError):
        graded_group(z3t, 9)
    with pytest.raises(ValueError, match="truncation must be nonnegative, got -1"):
        zpres(T.scale(3), truncation=-1)


def test_presentation_refuses_a_relation_in_another_number_of_variables():
    # a form in 3 variables used to construct a ring in 2 and fail only at
    # piece(1), with "polynomial has monomials outside the given basis";
    # its fourth power, above the truncation, was never noticed, and the
    # pieces came out as Z, Z^2, Z^3, Z^4
    form = IntPoly.linear_form((1, 2, 3))
    for rel in (form, form ** 4, IntPoly.variable(1, 0)):
        with pytest.raises(ValueError, match=r"^relation .* is in %d variables, not 2$" % rel.nvars):
            GradedRingPresentation(2, (rel,), 3)
    assert GradedRingPresentation(3, (form,), 3).piece(1).describe_group() == "Z^2"
    with pytest.raises(ValueError, match="^zero relation should have been dropped$"):
        GradedRingPresentation(2, (IntPoly.zero(2),), 3)
    with pytest.raises(ValueError, match="^degree-0 relation makes the ring trivial$"):
        GradedRingPresentation(2, (IntPoly.const(2, 3),), 3)


def test_presentation_refuses_a_negative_number_of_variables():
    with pytest.raises(ValueError, match="^number of variables must be nonnegative, got -1$"):
        GradedRingPresentation(-1, (), 3)
    assert GradedRingPresentation(0, (), 3).piece(2).describe_group() == "0"


def test_graded_invariants_independent_of_relation_order():
    rng = random.Random(3)
    rels = [T.scale(6), (T * T).scale(4), T ** 3]
    base = zpres(*rels)
    invs = [graded_group(base, k).invariants for k in range(6)]
    for _ in range(4):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        other = zpres(*shuffled)
        assert [graded_group(other, k).invariants for k in range(6)] == invs


def test_invariants_equal_the_factors_of_the_basis_rows():
    # invariants start the Smith form from the columns of the reduced
    # basis, which is not reduced again; a matrix and its transpose have
    # the same invariant factors, so they are those of the rows, on seeded
    # sector rings with torsion and on free pieces with an empty basis
    pieces = [zpres(nvars=2).piece(3)]
    for seed, d, n in [(1, 2, 5), (3, 2, 5)]:
        geo = SectorGeometry(lawrence_model(*random_generic_instance(random.Random(seed), d, n)), 4)
        pieces += [geo.sector_presentation(c.g).piece(k) for c in geo.components for k in range(5)]
    assert sum(not p.basis for p in pieces) > 1 and sum(bool(p.invariants[1]) for p in pieces) > 100
    for p in pieces:
        rows = invariant_factors(p.basis, len(p.monomials))
        assert p.invariants == (p.free_rank, tuple(x for x in rows if x > 1))
    assert pieces[0].invariants == (4, ())


def test_reduce_examples(z3t, z2t2):
    assert reduce_class(z3t, T.scale(4)) == reduce_class(z3t, T)
    assert reduce_class(z3t, IntPoly.zero(1), degree=2) == (0,)
    assert reduce_class(z2t2, -(T * T)) == reduce_class(z2t2, T * T)


def test_reduce_rejects_inhomogeneous(z3t):
    with pytest.raises(ValueError):
        reduce_class(z3t, T + IntPoly.one(1))
    with pytest.raises(ValueError, match="^polynomial has degree 1, expected 2$"):
        reduce_class(z3t, T, degree=2)


def test_reduce_additive_and_invariant(z3t):
    rng = random.Random(9)
    piece = graded_group(z3t, 3)
    for _ in range(20):
        p = IntPoly.from_dict(1, {(3,): rng.randint(-9, 9)})
        q = IntPoly.from_dict(1, {(3,): rng.randint(-9, 9)})
        csum = reduce_class(z3t, p + q, degree=3)
        # addition of canonical coordinates, re-canonicalized
        coords = tuple(
            a + b
            for a, b in zip(reduce_class(z3t, p, degree=3), reduce_class(z3t, q, degree=3))
        )
        rep = piece.representative(coords)
        assert reduce_class(z3t, rep, degree=3) == csum
        # adding a relation multiple never changes the class
        shifted = p + (T.scale(3) * T * T).scale(rng.randint(-3, 3))
        assert reduce_class(z3t, shifted, degree=3) == reduce_class(z3t, p, degree=3)
        # subtraction is addition of the negative
        assert p - q == p + (-q)
        assert reduce_class(z3t, p - q, degree=3) == reduce_class(z3t, p + (-q), degree=3)
    # a polynomial in another number of variables is refused, not padded
    with pytest.raises(ValueError, match="mixing polynomials"):
        p + IntPoly.zero(2)
    with pytest.raises(ValueError, match="mixing polynomials"):
        p - IntPoly.zero(2)
    with pytest.raises(ValueError, match="mixing polynomials"):
        p * IntPoly.zero(2)
    with pytest.raises(ValueError, match="^negative power$"):
        p ** -1


def test_reduce_idempotent_through_representative(z2t2):
    for k in range(5):
        piece = graded_group(z2t2, k)
        for coeff in range(-4, 5):
            poly = IntPoly.from_dict(1, {(k,): coeff})
            coords = piece.canonical(poly.coefficients_on(piece.monomials))
            rep = piece.representative(coords)
            assert reduce_class(z2t2, rep, degree=k) == coords
    piece = graded_group(z2t2, 1)
    with pytest.raises(ValueError, match="^coefficient vector has wrong length$"):
        piece.canonical((1, 2))
    with pytest.raises(ValueError, match="^polynomial has monomials outside the given basis$"):
        (T * T).coefficients_on(piece.monomials)


def test_iso_identity(z2t2):
    rep = ring_map_is_iso(z2t2, z2t2, [T], 6)
    assert rep.is_iso


def test_iso_t_to_zero_fails_at_degree_1(z3t):
    z = zpres(nvars=0)
    rep = ring_map_is_iso(z3t, z, [IntPoly.zero(0)], 4)
    assert not rep.is_iso
    assert rep.failing_degree == 1


@pytest.mark.parametrize("bound", [0, -1])
def test_iso_refuses_a_bound_below_one(z3t, bound):
    # t -> 2t from Z[t] onto Z[t]/(3t) fails at degree 1; a bound below 1
    # would compare nothing and report an isomorphism
    z = zpres()
    with pytest.raises(ValueError, match="bound must be at least 1, got %d" % bound):
        ring_map_is_iso(z, z3t, [T.scale(2)], bound)
    rep = ring_map_is_iso(z, z3t, [T.scale(2)], 1)
    assert not rep.is_iso and rep.failing_degree == 1
    assert "graded groups differ" in rep.reason


def test_iso_unit_scaling(z3t):
    rep = ring_map_is_iso(z3t, z3t, [T.scale(2)], 6)
    assert rep.is_iso
    # 2 is not invertible mod 4, so the same map fails on Z[t]/(4t)
    z4t = zpres(T.scale(4))
    rep2 = ring_map_is_iso(z4t, z4t, [T.scale(2)], 6)
    assert not rep2.is_iso and rep2.failing_degree == 1


def test_iso_not_surjective_branch(z3t):
    # equal invariants in every degree, but the image misses a generator
    for pres, image in ((zpres(nvars=1), T.scale(2)), (zpres(T.scale(9)), T.scale(3))):
        rep = ring_map_is_iso(pres, pres, [image], 4)
        assert not rep.is_iso and rep.failing_degree == 1
        assert rep.reason == "induced map is not surjective in degree 1"
    assert ring_map_is_iso(z3t, z3t, [T.scale(2)], 4).is_iso


def test_iso_well_definedness_branch():
    # the identity on variables is well defined only when every source
    # relation lands in the target ideal
    t1, t2 = IntPoly.variable(2, 0), IntPoly.variable(2, 1)
    cases = [
        (zpres(T.scale(2)), zpres(T.scale(4)), [T], 1),
        (GradedRingPresentation(2, (t1 * t2,), 6), GradedRingPresentation(2, (t1 * t1,), 6),
         [t1, t2], 2),
    ]
    for src, dst, images, degree in cases:
        rep = ring_map_is_iso(src, dst, images, 4)
        assert not rep.is_iso and rep.failing_degree == degree
        assert "target ideal" in rep.reason
    # the other way round the map is well defined, and the groups differ
    rep = ring_map_is_iso(zpres(T.scale(4)), zpres(T.scale(2)), [T], 4)
    assert not rep.is_iso and rep.failing_degree == 1
    assert "graded groups differ" in rep.reason


def test_iso_composition(z3t):
    f = [T.scale(2)]
    g = [T.scale(2)]
    assert ring_map_is_iso(z3t, z3t, f, 5).is_iso
    assert ring_map_is_iso(z3t, z3t, g, 5).is_iso
    composed = [T.scale(4)]
    assert ring_map_is_iso(z3t, z3t, composed, 5).is_iso


def test_iso_rejects_bad_images(z3t):
    with pytest.raises(ValueError):
        ring_map_is_iso(z3t, z3t, [T * T], 4)
    with pytest.raises(ValueError):
        ring_map_is_iso(z3t, z3t, [], 4)
    with pytest.raises(ValueError, match="^variable image lives in the wrong ring$"):
        ring_map_is_iso(z3t, z3t, [IntPoly.variable(2, 0)], 4)


def test_iso_two_variable_swap():
    rels = (IntPoly.linear_form([1, 0]) * IntPoly.linear_form([0, 1]),)
    pres = GradedRingPresentation(2, rels, 6)
    swap = [IntPoly.variable(2, 1), IntPoly.variable(2, 0)]
    assert ring_map_is_iso(pres, pres, swap, 5).is_iso


def test_gysin_identity_embedding(z3t):
    emb = SectorEmbedding(z3t, z3t, ())
    assert str(emb.euler) == "1"
    assert gysin_push(emb, T) == T


def test_gysin_mu3_push(z3t):
    # fundamental class of a codim-2 sector with deleted characters 1 and 2
    emb = SectorEmbedding(z3t, z3t, ((1,), (2,)))
    pushed = gysin_push(emb, IntPoly.one(1))
    assert str(pushed) == "2*t1^2"


def test_gysin_tp12_push(z2t2):
    z2t = zpres(T.scale(2))
    emb = SectorEmbedding(z2t, z2t2, ((1,), (-1,)))
    pushed = gysin_push(emb, IntPoly.one(1))
    assert str(pushed) == "-t1^2"
    # the well-definedness check ran: sub relation 2t times -t^2 dies in Z[t]/(2t^2)
    assert is_zero_class(z2t2, z2t.relations[0] * emb.euler)


def test_gysin_check_failure_is_loud():
    # Z[t]/(t) inside Z[t] with trivial normal bundle: pushing t-torsion
    # classes into a free ring cannot be well defined
    sub = zpres(T)
    ambient = zpres(nvars=1)
    emb = SectorEmbedding(sub, ambient, ())
    with pytest.raises(GysinError):
        gysin_push(emb, IntPoly.one(1))


def test_gysin_restriction_failure_is_loud(z3t):
    # ambient relation t^2 does not die in Z[t] (no relations): restriction side
    sub = zpres(nvars=1)
    ambient = zpres(T * T)
    emb = SectorEmbedding(sub, ambient, ((1,),))
    with pytest.raises(GysinError):
        gysin_push(emb, T)


def test_gysin_projection_formula_selfconsistency(z2t2):
    rng = random.Random(31)
    z2t = zpres(T.scale(2))
    emb = SectorEmbedding(z2t, z2t2, ((1,), (-1,)))
    for _ in range(10):
        alpha = IntPoly.from_dict(1, {(rng.randint(0, 2),): rng.randint(-5, 5)})
        pushed = gysin_push(emb, alpha)
        assert reduce_class(z2t, pushed, degree=pushed.homogeneous_degree() or 0) == reduce_class(
            z2t, alpha * emb.euler, degree=(alpha * emb.euler).homogeneous_degree() or 0
        )


def test_monomials_of_degree_order():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 3) == []
    assert monomials_of_degree(2, -1) == []


def test_two_variable_graded_groups():
    # Z[t1,t2]/(t1*t2): degree k >= 1 should be Z^2 (powers of t1 and t2)
    rels = (IntPoly.linear_form([1, 0]) * IntPoly.linear_form([0, 1]),)
    pres = GradedRingPresentation(2, rels, 6)
    assert graded_group(pres, 0).describe_group() == "Z"
    assert graded_group(pres, 1).describe_group() == "Z^2"
    assert graded_group(pres, 3).describe_group() == "Z^2"
