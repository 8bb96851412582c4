"""The integer torsion kernels against a Fraction reference.

The reference functions below are the rational formulas: a torsion element
is a tuple of Fractions in [0, 1), and every pairing, fractional part, age
and obstruction multiplicity is computed with Fraction arithmetic.  The
library stores numerators over the order and computes on ints; both must
agree on every sector and every ordered pair of sectors of seeded models.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_decomp

import hypertoric.orbifold as orbifold_module
from hypertoric import (
    CharacterClass,
    IntMatrix,
    ModelError,
    ObstructionError,
    SectorGeometry,
    TorsionElement,
    WeightMatrix,
    age,
    direct_model,
    double_inertia,
    fixed_columns,
    hypertoric_model,
    inertia_elements,
    lawrence_model,
    log_trace,
    obstruction,
    stabilizer_elements,
    verify_obstruction_pullback,
)
from hypertoric.sampling import random_generic_instance


def ref_fractional(q):
    q = Fraction(q)
    return Fraction(q.numerator % q.denominator, q.denominator)


def ref_canonical(values):
    return tuple(ref_fractional(x) for x in values)


def ref_pairing(v, w):
    return sum((Fraction(c) * x for c, x in zip(w, v)), Fraction(0))


def ref_add(v1, v2):
    return ref_canonical(a + b for a, b in zip(v1, v2))


def ref_neg(v):
    return ref_canonical(-x for x in v)


def ref_order(v):
    return lcm(*(x.denominator for x in v))


def ref_strings(v):
    return [str(x) for x in v]


def ref_fixed_columns(a, v):
    return frozenset(j for j in range(1, a.n + 1) if ref_pairing(v, a.column(j)).denominator == 1)


def ref_age(model, v):
    return sum(
        (m * ref_fractional(ref_pairing(v, w)) for w, m in model.tangent_class.terms), Fraction(0)
    )


def ref_log_trace(v, cls):
    terms = []
    for w, m in cls.terms:
        f = ref_fractional(ref_pairing(v, w))
        if f:
            terms.append((w, m * f))
    return CharacterClass.build(cls.dim, terms)


def ref_obstruction(model, v1, v2):
    v12 = ref_add(v1, v2)
    terms = []
    for w, m in model.tangent_class.terms:
        f1 = ref_fractional(ref_pairing(v1, w))
        f2 = ref_fractional(ref_pairing(v2, w))
        f3 = ref_fractional(-ref_pairing(v12, w))
        fixed_both = 1 if (f1 == 0 and f2 == 0) else 0
        mult = m * (f1 + f2 + f3 - 1 + fixed_both)
        if mult:
            terms.append((w, mult))
    out = CharacterClass.build(model.d, terms)
    if not out.is_bundle():
        raise ObstructionError("not a bundle: %s" % out)
    return out


def _models():
    """Seeded Lawrence, hypertoric and direct models with d = 1 and d = 2.
    A draw whose inertia is trivial compares nothing, so it is redrawn."""
    rng = random.Random(4242)
    out = []
    for d, n in ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4)):
        a, theta = random_generic_instance(rng, d, n)
        while len(inertia_elements(lawrence_model(a, theta))) == 1:
            a, theta = random_generic_instance(rng, d, n)
        out += [lawrence_model(a, theta), hypertoric_model(a, theta)]
        # a direct model with the last coordinate alone unstable
        out.append(direct_model(a, unstable=[[n]]))
    out.append(direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]]))
    out.append(direct_model(WeightMatrix.from_rows([[1, 0, 2, 3], [0, 1, 3, 2]]), unstable=[[3, 4]]))
    return out


MODELS = _models()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: "%s-d%d-n%d" % (m.kind, m.d, m.n))
def test_integer_kernels_match_fraction_reference(model):
    elems = inertia_elements(model)
    refs = [ref_canonical(g.v) for g in elems]
    assert refs == sorted(refs)
    scaled = model.tangent_class.scale(Fraction(-3, 2))
    for g, v in zip(elems, refs):
        assert g.v == v and g.order == ref_order(v) and g.as_strings() == ref_strings(v)
        assert str(g) == "(" + ", ".join(ref_strings(v)) + ")"
        assert (-g).v == ref_neg(v)
        assert fixed_columns(model.base, g) == ref_fixed_columns(model.base, v)
        assert age(model, g) == ref_age(model, v)
        assert log_trace(g, model.tangent_class) == ref_log_trace(v, model.tangent_class)
        assert log_trace(g, scaled) == ref_log_trace(v, scaled)
        for w, _ in model.tangent_class.terms:
            assert g.pairing(w) == ref_pairing(v, w)
            assert Fraction(g.exponent(w), g.order) == ref_fractional(ref_pairing(v, w))
    for (g1, v1), (g2, v2) in itertools.product(zip(elems, refs), repeat=2):
        assert (g1 + g2).v == ref_add(v1, v2)
        assert (g1 < g2) == (v1 < v2) and (g1 == g2) == (v1 == v2)
        assert obstruction(model, g1, g2) == ref_obstruction(model, v1, v2)


_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _vector_pairs(draw):
    d = draw(st.integers(0, 3))
    vec = st.lists(_FRACTIONS, min_size=d, max_size=d)
    return draw(vec), draw(vec)


@given(_vector_pairs())
def test_from_fractions_is_canonical(pair):
    x1, x2 = pair
    g1, g2 = TorsionElement.from_fractions(x1), TorsionElement.from_fractions(x2)
    v1, v2 = ref_canonical(x1), ref_canonical(x2)
    assert g1.v == v1 and g2.v == v2
    assert TorsionElement.from_fractions(g1.v) == g1
    assert (g1 == g2) == (v1 == v2)
    if g1 == g2:
        assert hash(g1) == hash(g2)
    assert (g1 < g2) == (v1 < v2) and (g1 <= g2) == (v1 <= v2)
    assert g1.is_identity == (not any(v1))


@pytest.mark.parametrize("order, nums", [(3, (3,)), (4, (2,)), (2, (-1,)), (0, ()), (6, (2, 4))])
def test_constructor_refuses_non_canonical(order, nums):
    with pytest.raises(ValueError, match="not a canonical torsion element"):
        TorsionElement(order, nums)


def test_negative_tangent_multiplicity_is_not_a_bundle(mu3_model, omega):
    bad = mu3_model.replace(tangent_class=CharacterClass.build(1, [((2,), -1)]))
    with pytest.raises(ObstructionError):
        obstruction(bad, omega, omega)
    with pytest.raises(ModelError, match="integers"):
        mu3_model.replace(tangent_class=CharacterClass.build(1, [((2,), Fraction(1, 2))]))


# (seed, d, n) of random_generic_instance for the obstruction kernel oracle
_KERNEL_DRAWS = [(1, 1, 4), (2, 1, 5), (1, 2, 4), (3, 2, 5), (4, 3, 5)]


@pytest.mark.parametrize("seed, d, n", _KERNEL_DRAWS)
def test_obstruction_kernel_matches_reference(seed, d, n, monkeypatch):
    # every ordered stable pair through the geometry's kernel, and every
    # tuple of Euler factors verify_obstruction_pullback reads, one per
    # distinct selection, on every pair with that selection: each against
    # the reference class of the ambient model and, computed on its own, of
    # the fiber model, expanded to characters with multiplicity
    a, theta = random_generic_instance(random.Random(seed), d, n)
    ambient, fiber = lawrence_model(a, theta), hypertoric_model(a, theta)
    for model in (ambient, fiber):
        geo = SectorGeometry(model, truncation=4)
        assert len(geo.components) > 1
        for p in double_inertia(geo.model):
            assert geo.obstructions.class_of(p.g1, p.g2) == ref_obstruction(model, p.g1.v, p.g2.v)

    built = {}
    bundle = orbifold_module._Obstructions.bundle

    def spy(kernel, mask):
        out = bundle(kernel, mask)
        built.setdefault(mask, []).append(out)
        return out

    monkeypatch.setattr(orbifold_module._Obstructions, "bundle", spy)
    # the pullback's own first analysis: it reads the memo of model pairs,
    # not the two models above, so no factor of the geometries' is reused
    rep = verify_obstruction_pullback(a, theta)
    assert rep.ok
    kernel = orbifold_module._Obstructions(ambient)
    with_selection = {}
    for p in double_inertia(geo.model):
        mask = sum(1 << k for k in kernel.selection(p.g1, p.g2))
        with_selection.setdefault(mask, []).append(p)
    assert sorted(built) == sorted(with_selection)
    assert len(built) < rep.checked == len(double_inertia(geo.model))
    for mask, outs in built.items():
        for p in with_selection[mask]:
            ref_a, ref_f = (tuple(w for w, m in ref_obstruction(model, p.g1.v, p.g2.v).terms
                                  for _ in range(m.numerator)) for model in (ambient, fiber))
            assert all(out == ref_a == ref_f for out in outs)


def _nonsingular(rng, d):
    while True:
        m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
        if m.det():
            return m


def ref_stabilizer(m):
    """{v : M^T v integral} from sympy's Smith form D = S M^T T: with
    w = T^-1 v the condition reads D w integral, as S is unimodular, so
    w_i runs over k_i / d_i and v = T w, a grid independent of the Hermite
    walk."""
    mt = sympy.Matrix(m.transpose().entries)
    d, s, t = smith_normal_decomp(mt, domain=sympy.ZZ)
    assert d == s * mt * t
    diag = [abs(int(d[i, i])) for i in range(m.rows)]
    t = IntMatrix.from_rows([[int(x) for x in row] for row in t.tolist()])
    out = set()
    for ks in itertools.product(*map(range, diag)):
        w = [Fraction(k, e) for k, e in zip(ks, diag)]
        out.add(TorsionElement.from_fractions(t.mul_vector(w)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stabilizer_elements_match_the_fraction_walk(d):
    rng = random.Random(700 + d)
    zeros = negative = 0
    for _ in range(12):
        m = _nonsingular(rng, d)
        zeros += any(0 in row for row in m.entries)
        negative += m.det() < 0
        got = stabilizer_elements(WeightMatrix(m), range(1, d + 1))
        assert got == ref_stabilizer(m)
        assert len(got) == abs(m.det())
    # the draw covers negative determinants, and zero entries where a
    # nonsingular matrix can have them
    assert negative and (zeros or d == 1)
