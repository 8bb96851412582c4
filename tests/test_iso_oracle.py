"""The sector-ring check and ``ring_map_is_iso`` against reference deciders.

``verify_orbifold_iso`` decides each sector-ring check by comparing graded
pieces (``orbifold._same_ring``).  Its reference is ``ring_map_is_iso`` with
the identity on variables.  ``ring_map_is_iso`` pushes the Hermite basis of
each source piece through the matrix of monomial images; its reference is
``reference_ring_map_is_iso`` below, the earlier body that substitutes the
images into every source relation.  Every input must get the same verdict
and the same failing degree from both sides.
"""

import random
from collections import Counter

from hypertoric import (
    GradedRingPresentation,
    IntPoly,
    SectorGeometry,
    is_zero_class,
    lawrence_model,
    ring_map_is_iso,
)
from hypertoric.chow import IsoReport
from hypertoric.exact import IntMatrix, hnf
from hypertoric.model import _moment_fiber
from hypertoric.orbifold import _same_ring
from hypertoric.poly import monomials_of_degree
from hypertoric.sampling import random_generic_instance


def reference_ring_map_is_iso(src, dst, var_images, bound):
    """Per degree k: every source relation of degree k maps into the target
    ideal, the groups have equal invariants, and the images with the target
    relations span the whole target piece."""
    images = list(var_images)

    def image_of_monomial(exps):
        out = IntPoly.one(dst.num_vars)
        for i, e in enumerate(exps):
            for _ in range(e):
                out = out * images[i]
        return out

    def image_of_poly(p):
        out = IntPoly.zero(dst.num_vars)
        for exps, c in p.terms:
            out = out + image_of_monomial(exps).scale(c)
        return out

    for k in range(bound + 1):
        for rel in src.relations:
            if rel.homogeneous_degree() == k:
                if not is_zero_class(dst, image_of_poly(rel)):
                    return IsoReport(False, k, "relation %s does not map into the target ideal" % rel)
        sp = src.piece(k)
        dp = dst.piece(k)
        if sp.invariants != dp.invariants:
            return IsoReport(False, k, "graded groups differ")
        n_dst = len(dp.monomials)
        columns = [image_of_monomial(m).coefficients_on(dp.monomials) for m in sp.monomials]
        if hnf(columns + list(dp.basis), n_dst) != IntMatrix.identity(n_dst).entries:
            return IsoReport(False, k, "induced map is not surjective in degree %d" % k)
    return IsoReport(True)


def identity_report(pres_a, pres_f, bound):
    variables = [IntPoly.variable(pres_f.num_vars, i) for i in range(pres_a.num_vars)]
    return ring_map_is_iso(pres_a, pres_f, variables, bound)


def verdict(rep):
    return rep.is_iso, rep.failing_degree


def random_form(rng, nvars, degree, span=2):
    """A nonzero homogeneous polynomial: a product of ``degree`` random
    linear forms times a small scalar, or a scaled monomial."""
    if rng.random() < 0.3:
        mono = rng.choice(monomials_of_degree(nvars, degree))
        return IntPoly.from_dict(nvars, {mono: rng.choice([1, 2, 3, 4, 6])})
    poly = IntPoly.const(nvars, rng.choice([1, 1, 2, 3]))
    for _ in range(degree):
        w = [0] * nvars
        while not any(w):
            w = [rng.randint(-span, span) for _ in range(nvars)]
        poly = poly * IntPoly.linear_form(w)
    return poly


def _pres(nvars, relations, truncation):
    return GradedRingPresentation(nvars, tuple(relations), truncation)


def _same_ideal_other_generators(rng, nvars, rels):
    """The ideal of ``rels`` by other generators: reordered, a generator
    times -1, and a multiple of a generator added."""
    out = list(rels)
    rng.shuffle(out)
    i = rng.randrange(len(out))
    out[i] = out[i].scale(-1)
    j = rng.randrange(len(out))
    out.append(out[j] * random_form(rng, nvars, rng.randint(1, 2)))
    return out


def presentation_pairs(count):
    """Seeded (ambient, fiber, bound) presentation pairs with d <= 3."""
    rng = random.Random(20150315)
    for i in range(count):
        nvars = rng.randint(1, 3)
        truncation = 4
        bound = rng.randint(1, truncation)
        rels = [random_form(rng, nvars, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        kind = i % 3
        if kind == 0:
            other = _same_ideal_other_generators(rng, nvars, rels)
        elif kind == 1:
            # one more relation of degree e: the lattices can first differ at e
            other = rels + [random_form(rng, nvars, rng.randint(1, 3))]
        else:
            other = [random_form(rng, nvars, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        pair = (_pres(nvars, rels, truncation), _pres(nvars, other, truncation))
        if rng.random() < 0.5:
            pair = pair[::-1]
        yield (*pair, bound, kind)


def test_same_ring_matches_the_identity_map_on_presentation_pairs():
    seen = Counter()
    for pres_a, pres_f, bound, kind in presentation_pairs(360):
        got = _same_ring(pres_a, pres_f, bound)
        want = identity_report(pres_a, pres_f, bound)
        assert verdict(got) == verdict(want), (pres_a.relations, pres_f.relations, bound)
        if not got.is_iso:
            assert got.reason == "relation lattices differ in degree %d" % got.failing_degree
        if kind == 0:
            assert got.is_iso
        seen[got.failing_degree] += 1
        seen["at bound"] += got.failing_degree == bound
        seen["equal, other generators"] += got.is_iso and pres_a.relations != pres_f.relations
    # the inputs first differ at every degree 1..3, and at the bound itself
    assert all(seen[k] >= 5 for k in (1, 2, 3, "at bound"))
    assert seen[None] >= 120 and seen["equal, other generators"] >= 100


def sector_ring_pairs():
    """Every (ambient fixed set, fiber fixed set) ring pair of 24 seeded
    Lawrence models with d = 1..3 and n <= 6, as the verifier pairs them."""
    rng = random.Random(7)
    for i in range(24):
        d = 1 + i % 3
        n = rng.randint(d + 1, 6 if d < 3 else 5)
        model = lawrence_model(*random_generic_instance(rng, d, n))
        geo_a = SectorGeometry(model, 4)
        geo_f = SectorGeometry(_moment_fiber(model), 4)
        keys = dict.fromkeys((ca.fixed_columns, cf.fixed_columns)
                             for ca, cf in zip(geo_a.components, geo_f.components))
        for fixed_a, fixed_f in keys:
            yield d, geo_a.presentation_for(fixed_a), geo_f.presentation_for(fixed_f)


def test_same_ring_matches_the_identity_map_on_sector_rings():
    dims = Counter()
    for d, pres_a, pres_f in sector_ring_pairs():
        for bound in (1, 4):
            got = _same_ring(pres_a, pres_f, bound)
            assert verdict(got) == verdict(identity_report(pres_a, pres_f, bound))
        dims[d] += 1
    assert sorted(dims) == [1, 2, 3] and sum(dims.values()) >= 60


def map_triples(count):
    """Seeded (src, dst, linear images, bound) with at most 2 variables."""
    rng = random.Random(1503)
    for _ in range(count):
        n_src, n_dst = rng.randint(1, 2), rng.randint(0, 2)
        truncation = 4
        bound = rng.randint(1, 3)

        def relations(nvars):
            if nvars == 0:
                return []
            return [random_form(rng, nvars, rng.randint(1, 2), span=1)
                    for _ in range(rng.randint(0, 2))]

        src = _pres(n_src, relations(n_src), truncation)
        dst = _pres(n_dst, relations(n_dst), truncation)
        images = []
        for _ in range(n_src):
            if n_dst == 0 or rng.random() < 0.1:
                images.append(IntPoly.zero(n_dst))
            else:
                w = [rng.choice([-2, -1, 0, 1, 1, 2, 3]) for _ in range(n_dst)]
                images.append(IntPoly.linear_form(w))
        yield src, dst, images, bound


def branch(rep):
    """Which check decided the report: "iso", or the word of its reason."""
    if rep.is_iso:
        return "iso"
    return next(word for word in ("target ideal", "differ", "surjective") if word in rep.reason)


def test_ring_map_is_iso_matches_the_reference():
    branches = Counter()
    for src, dst, images, bound in map_triples(240):
        got = ring_map_is_iso(src, dst, images, bound)
        want = reference_ring_map_is_iso(src, dst, images, bound)
        assert verdict(got) == verdict(want), (src.relations, dst.relations, images, bound)
        assert branch(got) == branch(want)
        branches[branch(got)] += 1
    # maps that are isomorphisms, not well defined, between unequal groups,
    # and not surjective all occur
    assert all(branches[b] >= 10 for b in ("iso", "target ideal", "differ", "surjective")), branches
