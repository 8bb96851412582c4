"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single PASS line on success so the suite doubles as a
checklist (`pytest -s tests/test_acceptance.py`).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from hypertoric import (
    CharacterClass,
    GradedRingPresentation,
    IntMatrix,
    IntPoly,
    LocalModelSRE,
    TorsionElement,
    WeightMatrix,
    check_generic,
    cokernel_torsion_elements,
    direct_model,
    double_inertia,
    euler_poly,
    graded_group,
    hypertoric_model,
    lawrence_model,
    obstruction,
    orbifold_table,
    presentation,
    reduce_class,
    ring_map_is_iso,
    snf,
    sre_condition_iii,
    verify_charts,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from hypertoric.sampling import random_generic_instance

T = IntPoly.variable(1, 0)


def _ok(name):
    print("\nACCEPTANCE %s: PASS" % name)


def test_criterion_1_mu3_golden():
    start = time.time()
    model = direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])
    e = TorsionElement.identity(1)
    w = TorsionElement.from_fractions([Fraction(1, 3)])
    w2 = TorsionElement.from_fractions([Fraction(2, 3)])

    table = orbifold_table(model, 4)
    assert [c.g for c in table.components] == [e, w, w2]

    # all three sector rings are Z[t]/(3t): Z, Z/3, Z/3, ...
    for comp in table.components:
        pres = table.sector_presentation(comp.g)
        assert [str(r) for r in pres.relations] == ["3*t1"]
        assert graded_group(pres, 0).describe_group() == "Z"
        assert graded_group(pres, 1).describe_group() == "Z/3"

    # obstruction classes
    assert obstruction(model, w, w) == CharacterClass.build(1, [((2,), 1)])
    assert obstruction(model, w2, w2) == CharacterClass.build(1, [((1,), 1)])
    for g1, g2 in itertools.product((e, w, w2), repeat=2):
        if (g1, g2) not in ((w, w), (w2, w2)):
            assert obstruction(model, g1, g2).is_zero

    # euler coefficients on the diagonal pairs
    assert str(euler_poly(obstruction(model, w, w))) == "2*t1"
    assert str(euler_poly(obstruction(model, w2, w2))) == "t1"

    # star products, with targets derived from the group law
    cross = table.entry(w, w2)
    assert str(cross.poly) == "2*t1^2" and cross.target == e
    diag1 = table.entry(w, w)
    assert str(diag1.poly) == "2*t1" and diag1.target == w2
    diag2 = table.entry(w2, w2)
    assert str(diag2.poly) == "t1" and diag2.target == w

    # everything exact integers
    for entry in (table.entry(p.g1, p.g2) for p in double_inertia(model)):
        assert all(isinstance(c, int) for _, c in entry.poly.terms)
        assert all(isinstance(c, int) for c in entry.coords)

    elapsed = time.time() - start
    assert elapsed < 1.0, "criterion 1 must run in under a second, took %.2fs" % elapsed
    print(
        "\nINFO: published display writes the diagonal products with sector "
        "subscripts omega and omega^2 swapped; the group-law targets "
        "(omega^2 for omega*omega, omega for omega^2*omega^2) are asserted here."
    )
    _ok("1 (mu3 golden data, < 1 s)")


def test_criterion_2_presentation_sanity():
    mu3 = direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])
    pres = presentation(mu3, truncation=4)
    groups = [graded_group(pres, k).describe_group() for k in range(5)]
    assert groups == ["Z", "Z/3", "Z/3", "Z/3", "Z/3"]

    for n in range(1, 4):
        pn = direct_model(WeightMatrix.from_rows([[1] * (n + 1)]), theta=[1])
        pres_n = presentation(pn, truncation=n + 3)
        assert [str(r) for r in pres_n.relations] == ["t1^%d" % (n + 1)]
        for k in range(n + 4):
            expected = "Z" if k <= n else "0"
            assert graded_group(pres_n, k).describe_group() == expected
    _ok("2 (presentation sanity: Bmu3 and P^n, exact)")


def test_criterion_3_obstruction_pullback_at_scale():
    start = time.time()
    count = 0
    for seed in range(50):
        rng = random.Random(seed)
        d = rng.choice([1, 2])
        n = rng.randint(d, 4)
        a, theta = random_generic_instance(rng, d, n, bound=3)
        report = verify_obstruction_pullback(a, theta)
        assert report.ok, (seed, a.matrix.entries, theta, report.failures[:2])
        assert report.checked >= 1
        count += report.checked
    elapsed = time.time() - start
    assert elapsed < 60.0, "criterion 3 exceeded 60 s (%.1fs)" % elapsed
    _ok("3 (obstruction pullback on 50 random instances, %d components, %.1fs < 60s)" % (count, elapsed))


def test_criterion_4_orbifold_iso_at_desk_scale():
    start = time.time()
    assert verify_orbifold_iso(WeightMatrix.from_rows([[1, 2]]), [1], 5).ok
    assert verify_orbifold_iso(WeightMatrix.from_rows([[1, 1]]), [1], 5).ok
    for seed in range(20):
        rng = random.Random(100 + seed)
        d = rng.choice([1, 2])
        n = rng.randint(d, 4)
        a, theta = random_generic_instance(rng, d, n, bound=3)
        report = verify_orbifold_iso(a, theta, 5)
        assert report.ok, (seed, a.matrix.entries, theta)
    elapsed = time.time() - start
    assert elapsed < 300.0, "criterion 4 exceeded 5 minutes (%.1fs)" % elapsed
    _ok("4 (orbifold ring isomorphism: T*P(1,2), T*P^1, 20 random, %.1fs < 300s)" % elapsed)


CHART_INSTANCES = [
    (WeightMatrix.from_rows([[1, 2]]), (1,)),
    (WeightMatrix.from_rows([[1, 1]]), (1,)),
    (WeightMatrix.from_rows([[1, 0], [0, 1]]), (1, 1)),
    (WeightMatrix.from_rows([[1, 0, 1], [0, 1, 1]]), (2, 1)),
]


def test_criterion_5_chart_roundtrips():
    instances = list(CHART_INSTANCES)
    for seed in (7, 8):
        rng = random.Random(seed)
        d = rng.choice([1, 2])
        instances.append(random_generic_instance(rng, d, rng.randint(d, 4), bound=3))
    charts = 0
    for a, theta in instances:
        assert check_generic(a, theta).generic
        report = verify_charts(a, theta, samples=100, seed=20260808)
        assert report.ok, (a.matrix.entries, theta, [c.detail for c in report.charts if not c.ok])
        assert all(c.samples == 100 for c in report.charts)
        charts += len(report.charts)
    _ok("5 (chart roundtrips: %d charts x 100 exact samples)" % charts)


def test_criterion_6_star_algebra_laws():
    instances = [
        direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]),
        lawrence_model(WeightMatrix.from_rows([[1, 2]]), [1]),
        hypertoric_model(WeightMatrix.from_rows([[1, 2]]), [1]),
        hypertoric_model(WeightMatrix.from_rows([[1, 1]]), [1]),
    ]
    for seed in (5, 6):
        rng = random.Random(seed)
        a, theta = random_generic_instance(rng, rng.choice([1, 2]), 3, bound=2)
        instances.append(hypertoric_model(a, theta))

    from hypertoric import SectorGeometry, star

    pairs = triples = 0
    for model in instances:
        table = orbifold_table(model, 4)
        elems = [c.g for c in table.components]
        ages = {c.g: c.age for c in table.components}
        # triple products reach degree age1+age2+age3, beyond the pair bound
        geo = SectorGeometry(model, truncation=max(4, int(3 * max(ages.values())) + 1))
        e = TorsionElement.identity(model.d)

        # unit law
        for g in elems:
            ent = table.entry(e, g)
            assert ent.target == g and str(ent.poly) == "1"
            ent2 = table.entry(g, e)
            assert ent2.target == g and str(ent2.poly) == "1"

        # commutativity + age additivity on nonzero products; the pair and
        # its mirror share one product key, so commutativity is by construction
        for g1, g2 in itertools.product(elems, repeat=2):
            pairs += 1
            e12, e21 = table.entry(g1, g2), table.entry(g2, g1)
            assert e12.target == e21.target and e12.coords == e21.coords
            if e12.target is not None and any(e12.coords):
                orbdeg = e12.poly.homogeneous_degree() + ages[e12.target]
                assert orbdeg == ages[g1] + ages[g2]

        # associativity on all triples
        for g1, g2, g3 in itertools.product(elems, repeat=3):
            triples += 1
            a1, a2, a3 = geo.generator(g1), geo.generator(g2), geo.generator(g3)
            left = star(geo, star(geo, a1, a2), a3)
            right = star(geo, a1, star(geo, a2, a3))
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
    _ok("6 (star laws: unit; commutativity on %d pairs, by construction, as entry(g1, g2) and "
        "entry(g2, g1) read one product key; associativity on %d triples; age-graded)" % (pairs, triples))


def test_criterion_7_negative_controls():
    # (a) order-2 negation action on the plane: not a strong embedding
    assert not sre_condition_iii(LocalModelSRE.cyclic(2, [-1, -1]))

    # (b) wall character rejected with the witness basis {1,3}
    a = WeightMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    report = check_generic(a, (1, 0))
    assert not report.generic
    assert ((1, 3), 3) in report.violations
    assert "basis {1,3}, lambda_3 = 0" in report.describe()
    with pytest.raises(Exception, match=r"basis \{1,3\}, lambda_3 = 0"):
        lawrence_model(a, (1, 0))

    # (c) collapsing t to 0 out of Z[t]/(3t) is not injective in degree 1
    z3t = GradedRingPresentation(1, (T.scale(3),), 6)
    z = GradedRingPresentation(0, (), 6)
    verdict = ring_map_is_iso(z3t, z, [IntPoly.zero(0)], 4)
    assert not verdict.is_iso and verdict.failing_degree == 1
    _ok("7 (negative controls: failed strong embedding, wall witness {1,3}, non-injective collapse)")


def test_criterion_8_exact_core_properties():
    rng = random.Random(20260808)
    checked_coker = 0
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        res = snf(m)
        assert res.U.mul(m).mul(res.V) == res.D
        assert abs(res.U.det()) == 1 and abs(res.V.det()) == 1
        diag = res.diagonal()
        for i in range(res.D.rows):
            for j in range(res.D.cols):
                if i != j:
                    assert res.D[i, j] == 0
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert not any(diag[i] == 0 and diag[j] != 0 for i in range(len(diag)) for j in range(i + 1, len(diag)))
        if rows == cols:
            det = m.det()
            if det != 0:
                elems = cokernel_torsion_elements(m)
                assert len(elems) == abs(det)
                checked_coker += 1
    assert checked_coker > 100
    _ok("8 (1000 random SNF contracts; |cokernel| = |det| on %d nonsingular squares)" % checked_coker)
