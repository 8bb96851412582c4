import itertools
import random
from fractions import Fraction

import pytest

import hypertoric.inertia as inertia_module
from hypertoric import (
    CharacterClass,
    LocalModelSRE,
    TorsionElement,
    WeightMatrix,
    age,
    column_bases,
    double_inertia,
    fixed_columns,
    fractional,
    inertia_components,
    inertia_elements,
    lawrence_model,
    log_trace,
    obstruction,
    sector_model,
    sre_condition_iii,
    stabilizer_elements,
)
from hypertoric.chow import presentation
from hypertoric.sampling import random_generic_instance


def elems(strings):
    return {TorsionElement.from_fractions([Fraction(s)]) for s in strings}


def test_torsion_element_canonical_form():
    g = TorsionElement.from_fractions([Fraction(7, 3), Fraction(-1, 2)])
    assert g.v == (Fraction(1, 3), Fraction(1, 2))
    assert g.order == 6
    assert (-g).v == (Fraction(2, 3), Fraction(1, 2))
    assert (g + (-g)).is_identity


def test_elements_of_different_dimensions_do_not_mix():
    # zipped, (1/2, 0) + (1/3) was (5/6)
    g, h = TorsionElement(2, (1, 0)), TorsionElement(3, (1,))
    for op in (lambda x, y: x + y, lambda x, y: x < y, lambda x, y: x > y):
        with pytest.raises(ValueError, match=r"element \(1/3\) has dimension 1, not 2"):
            op(g, h)
    assert TorsionElement(2, (1, 0)) + TorsionElement(2, (1, 1)) == TorsionElement(2, (0, 1))
    assert TorsionElement(3, (1,)) < TorsionElement(2, (1,))
    with pytest.raises(TypeError):
        g < (1, 0)


_A = WeightMatrix.from_rows([[1, 2, 3], [0, 1, 1]])
_HALF = TorsionElement(2, (1,))


@pytest.mark.parametrize("call", [
    # zipped with a 2-dimensional column, the 1-dimensional element read
    # only its first entry: {2}, the class 0, True and 1/2*chi[1, 1]
    lambda: fixed_columns(_A, _HALF),
    lambda: obstruction(lawrence_model(_A, (1, 1)), _HALF, _HALF),
    lambda: obstruction(lawrence_model(_A, (1, 1)), TorsionElement(2, (1, 0)), _HALF),
    lambda: sre_condition_iii(LocalModelSRE((_HALF,), ((0, 1),))),
    lambda: log_trace(_HALF, CharacterClass.build(2, [((1, 1), 1)])),
], ids=["fixed_columns", "obstruction", "obstruction-second", "sre_condition_iii", "log_trace"])
def test_an_element_of_another_dimension_is_refused(call):
    with pytest.raises(ValueError, match=r"element \(1/2\) has dimension 1, not 2"):
        call()


def test_bases_spanning_one_lattice_are_walked_once(monkeypatch):
    # columns 1 and 2 span 2Z, column 3 spans 3Z: three bases, two lattices
    a = WeightMatrix.from_rows([[2, -2, 3]])
    walked = []

    def spy(basis):
        walked.append(basis)
        return walk(basis)

    walk = inertia_module.cokernel_torsion_numerators
    monkeypatch.setattr(inertia_module, "cokernel_torsion_numerators", spy)
    got = inertia_elements(lawrence_model(a, [1]))
    assert sorted(walked) == [((2,),), ((3,),)]
    assert got == sorted(elems(["0", "1/2", "1/3", "2/3"]))


def test_stabilizer_examples(a12):
    assert stabilizer_elements(a12, (2,)) == elems(["0", "1/2"])
    eye = WeightMatrix.from_rows([[1, 0], [0, 1]])
    assert stabilizer_elements(eye, (1, 2)) == {TorsionElement.identity(2)}
    a4 = WeightMatrix.from_rows([[0, 1, 2, 3]])
    assert stabilizer_elements(a4, (4,)) == elems(["0", "1/3", "2/3"])


def test_stabilizer_order_is_det(a_2x3):
    for basis in ((1, 2), (1, 3), (2, 3)):
        sub = a_2x3.columns_matrix(basis)
        assert len(stabilizer_elements(a_2x3, basis)) == abs(sub.det())


def test_stabilizer_rejects_non_basis():
    a4 = WeightMatrix.from_rows([[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        stabilizer_elements(a4, (1,))


def test_inertia_elements_examples(tp12_lawrence, mu3_model):
    assert set(inertia_elements(tp12_lawrence)) == elems(["0", "1/2"])
    assert set(inertia_elements(mu3_model)) == elems(["0", "1/3", "2/3"])
    eye = lawrence_model(WeightMatrix.from_rows([[1, 0], [0, 1]]), [1, 1])
    assert inertia_elements(eye) == [TorsionElement.identity(2)]


def test_inertia_closed_under_inversion():
    rng = random.Random(17)
    for _ in range(10):
        a, theta = random_generic_instance(rng, rng.choice([1, 2]), rng.randint(2, 4))
        model = lawrence_model(a, theta)
        got = set(inertia_elements(model))
        assert {-g for g in got} == got
        assert TorsionElement.identity(a.d) in got


def test_fixed_columns(a12, half, omega):
    assert fixed_columns(a12, half) == frozenset({2})
    assert fixed_columns(a12, TorsionElement.identity(1)) == frozenset({1, 2})
    a4 = WeightMatrix.from_rows([[0, 1, 2, 3]])
    assert fixed_columns(a4, omega) == frozenset({1, 4})


def test_a_column_mask_and_its_set_round_trip(tp12_lawrence):
    # ``_columns`` inverts ``_mask`` on every subset of columns 1..8 and
    # hands out one set object per mask, which the sectors share
    for size in range(9):
        for cols in itertools.combinations(range(1, 9), size):
            mask = inertia_module._mask(cols)
            assert inertia_module._columns(mask) == frozenset(cols)
            assert inertia_module._mask(inertia_module._columns(mask)) == mask
            assert inertia_module._columns(mask) is inertia_module._columns(inertia_module._mask(cols))
    components = tp12_lawrence.analysis.components
    assert all(c.fixed_columns is inertia_module._columns(inertia_module._mask(c.fixed_columns)) for c in components)


def test_fixed_columns_invariances(a_2x3):
    rng = random.Random(23)
    pool = [TorsionElement.from_fractions([Fraction(rng.randint(0, 5), 6), Fraction(rng.randint(0, 5), 6)]) for _ in range(12)]
    for g in pool:
        assert fixed_columns(a_2x3, g) == fixed_columns(a_2x3, -g)
    for g1, g2 in itertools.combinations(pool, 2):
        f12 = fixed_columns(a_2x3, g1) & fixed_columns(a_2x3, g2)
        assert f12 <= fixed_columns(a_2x3, g1 + g2)


def test_age_examples(tp12_lawrence, mu3_model, half, omega):
    assert age(tp12_lawrence, TorsionElement.identity(1)) == 0
    assert age(tp12_lawrence, half) == 1
    assert age(mu3_model, omega) == 1


def test_age_rejects_non_inertia(tp12_lawrence, mu3_model, omega, half):
    with pytest.raises(ValueError):
        age(tp12_lawrence, omega)
    # fixed columns {1,3} contain a basis, but their locus lies in {x4}
    with pytest.raises(ValueError):
        age(mu3_model, half)
    # a 2-dimensional element on a 1-dimensional model
    with pytest.raises(ValueError):
        age(mu3_model, TorsionElement.from_fractions([Fraction(1, 3), Fraction(0)]))


def test_age_complement_characterwise(tp12_lawrence, half):
    # for each non-fixed coordinate character, frac + frac(-.) = 1
    for w, _ in tp12_lawrence.tangent_class.terms:
        f = fractional(half.pairing(w))
        fneg = fractional((-half).pairing(w))
        if f:
            assert f + fneg == 1
        else:
            assert fneg == 0


def test_double_inertia_counts(tp12_lawrence, mu3_model):
    pairs = double_inertia(tp12_lawrence)
    assert len(pairs) == 4
    assert {(p.g1.v[0], p.g2.v[0]) for p in pairs} == {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
    }
    assert len(double_inertia(mu3_model)) == 9


def test_double_inertia_trivial_model():
    eye = lawrence_model(WeightMatrix.from_rows([[1, 0], [0, 1]]), [1, 1])
    pairs = double_inertia(eye)
    assert len(pairs) == 1
    assert pairs[0].g1.is_identity and pairs[0].g2.is_identity


def test_double_inertia_common_fixed_in_target():
    rng = random.Random(29)
    for _ in range(5):
        a, theta = random_generic_instance(rng, 2, 4)
        model = lawrence_model(a, theta)
        for p in double_inertia(model):
            assert p.common_fixed <= fixed_columns(a, p.target)


def test_sector_models(tp12_lawrence, mu3_model, half):
    sec = sector_model(tp12_lawrence, frozenset({2}))
    assert sec.kind == "lawrence"
    assert sec.base.matrix.entries == ((2,),)
    # direct sector: restricted unstable sets keep the inverted coordinate
    sec3 = sector_model(mu3_model, frozenset({1, 4}))
    assert sec3.kind == "direct"
    assert [sorted(s) for s in sec3.arrangement.unstable_minimal] == [[2]]
    assert [str(r) for r in presentation(sec3).relations] == ["3*t1"]


def test_inertia_components_sorted(mu3_model):
    comps = inertia_components(mu3_model)
    assert [c.g.v[0] for c in comps] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    assert all(c.age == (0 if c.g.is_identity else 1) for c in comps)


@pytest.mark.parametrize("walk", [inertia_components, double_inertia, inertia_elements])
def test_fixed_columns_run_once_per_candidate(walk, mu3_model, monkeypatch):
    # the walk computes one column-pairing vector per distinct candidate,
    # an int row over its lattice's order, decides stability on the fixed
    # columns read off its zeros and hands the same set on with the sector;
    # no candidate calls ``fixed_columns``.  On mu3 the candidate 1/2 fixes
    # columns {1, 3}, whose locus is unstable
    model, a = mu3_model, mu3_model.base
    candidates = set().union(*(stabilizer_elements(a, b) for b in column_bases(a)))
    seen, fixed = [], []

    def spy(chars, reps):
        seen.extend(TorsionElement._reduced(order, row) for order, row in reps)
        return pairings(chars, reps)

    pairings = inertia_module._pairings
    monkeypatch.setattr(inertia_module, "_pairings", spy)
    monkeypatch.setattr(inertia_module, "fixed_columns", lambda *args: fixed.append(args))
    walk(model)
    assert sorted(seen) == sorted(candidates) and not fixed
    monkeypatch.undo()
    comps = inertia_components(model)
    assert len(comps) < len(candidates)
    assert all(c.fixed_columns == fixed_columns(a, c.g) for c in comps)
