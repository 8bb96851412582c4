"""The product kernel and the geometry's generator products against the
chains of polynomial products they replaced.

``chow.product_coefficients`` turns a multiset of characters into the
coefficients of its product of linear forms over the monomials of its
degree; its reference is the chain of ``IntPoly.linear_form`` products.
``orbifold._generator_product`` builds a generator product as one kernel
run over what it is made of (``orbifold._makeup``): the obstruction class's
Euler factors and the normal characters.  A ``SectorGeometry`` keeps one
per product key (``value``), from the key's makeup (``makeup``); their
reference, ``old_product`` below, multiplies the class's Euler polynomial
by the normal one factor by factor and reduces the result with
``reduce_class``.  All must agree exactly, errors included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypertoric.orbifold as orbifold_module
from hypertoric import (
    CharacterClass,
    GradedClass,
    GradedRingPresentation,
    IntPoly,
    SectorEmbedding,
    double_inertia,
    euler_poly,
    gysin_push,
    hypertoric_model,
    lawrence_model,
    orbifold_table,
    reduce_class,
    star,
)
from hypertoric.chow import product_coefficients
from hypertoric.inertia import _columns
from hypertoric.orbifold import _generator_product, _makeup
from hypertoric.poly import monomials_of_degree
from hypertoric.sampling import random_generic_instance


def chain(d, chars):
    out = IntPoly.one(d)
    for w in chars:
        out = out * IntPoly.linear_form(w)
    return out


def old_euler(bundle):
    if not bundle.is_bundle():
        raise ValueError("euler class needs nonnegative integer multiplicities: %s" % bundle)
    if bundle.trivial > 0:
        return IntPoly.zero(bundle.dim)
    out = IntPoly.one(bundle.dim)
    for w, m in bundle.terms:
        out = out * IntPoly.linear_form(w) ** int(m)
    return out


def old_product(bundle, emb):
    poly = old_euler(bundle) * chain(emb.ambient.num_vars, emb.normal_chars)
    deg = poly.homogeneous_degree()
    if deg is not None and deg > emb.ambient.truncation:
        raise ValueError("product degree %d exceeds the truncation bound %d"
                         % (deg, emb.ambient.truncation))
    return poly, reduce_class(emb.ambient, poly)


def product(factors, emb):
    """The kernel's generator product of Euler factors along an embedding."""
    return _generator_product(_makeup(factors, emb), emb.ambient.num_vars)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


_chars = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_chars)
def test_kernel_equals_the_chain_of_linear_forms(case):
    # zero characters are drawn too: their products are zero vectors
    d, chars = case
    expected = chain(d, chars).coefficients_on(monomials_of_degree(d, len(chars)))
    assert tuple(product_coefficients(d, chars)) == expected


@settings(max_examples=100, deadline=None)
@given(_chars, st.lists(st.integers(0, 2), max_size=4), st.integers(0, 1))
def test_euler_poly_equals_the_chain(case, mults, trivial):
    d, chars = case
    bundle = CharacterClass.build(d, list(zip(chars, mults)), trivial=trivial)
    assert euler_poly(bundle) == old_euler(bundle)


def test_kernel_refuses_a_character_of_the_wrong_length():
    with pytest.raises(ValueError, match="wrong length"):
        product_coefficients(2, [(1, 2), (1, 2, 3)])


def _models():
    for build in (lawrence_model, hypertoric_model):
        for seed, d, n in [(1, 1, 4), (2, 1, 5), (1, 2, 4), (3, 2, 5), (4, 3, 5)]:
            yield build(*random_generic_instance(random.Random(seed), d, n))


def _geometries():
    """The geometries of the tables of seeded models, each holding every
    embedding its table pushes along."""
    for model in _models():
        yield orbifold_table(model, 3)


def _factors(bundle):
    """The Euler factors of a bundle: each character repeated by its
    multiplicity, in term order."""
    return tuple(w for w, m in bundle.terms for _ in range(m.numerator))


def test_store_products_equal_the_old_products():
    # the key's factors and a factor list too wide for the target; a zero
    # product comes from a zero normal character (checked below) or, for a
    # class, from a trivial summand (``euler_poly``, checked in test_orbifold)
    checked = refused = 0
    for geo in _geometries():
        analysis = geo.analysis
        d = geo.model.d
        for k, (mask, common, target_fixed) in enumerate(analysis.keys):
            emb = geo.embedding(_columns(common), _columns(target_fixed))
            factors = analysis.obstructions.bundle(mask)
            bundle = CharacterClass.build(d, [(w, 1) for w in factors])
            assert _factors(bundle) == factors
            wide = CharacterClass.build(d, [(emb.normal_chars[0] if emb.normal_chars
                                             else (1,) * d, geo.truncation + 1)])
            for c in (bundle, wide):
                expected = outcome(old_product, c, emb)
                # the kernel itself, so no stored product answers for other factors
                assert outcome(product, _factors(c), emb) == expected
                checked += 1
                refused += expected[0] == "raised"
            assert geo.value(k) == old_product(bundle, emb)
            assert geo.value(k) is geo.value(k)
    assert checked > 300 and refused > 0


def test_each_product_key_has_one_value_built_once(monkeypatch):
    # the geometry builds one generator product per product key, by one
    # kernel run when it is nonzero; the table's pair expansion and
    # ``star`` read the stored values and run the kernel no more
    runs = []
    kernel = orbifold_module.product_coefficients
    monkeypatch.setattr(orbifold_module, "product_coefficients",
                        lambda *args: runs.append(args) or kernel(*args))
    for model in _models():
        runs.clear()
        table = orbifold_table(model, 3)
        geo = table
        analysis = geo.analysis
        built = len(runs)
        values = [geo.value(k) for k in range(len(analysis.keys))]
        pairs = double_inertia(model)
        entries = zip((table.entry(p.g1, p.g2) for p in pairs), analysis.walk())
        assert {k: (e.poly, e.coords) for e, (_, _, k, _) in entries} == dict(enumerate(values)) and len(runs) == built
        assert built == sum(poly != IntPoly.zero(model.d) for poly, _ in values) > 0
        assert values == [product(analysis.obstructions.bundle(mask), geo.embedding(*map(_columns, masks)))
                          for mask, *masks in analysis.keys]
        assert values == [_generator_product(geo.makeup(k), model.d) for k in range(len(analysis.keys))]
        runs.clear()
        assert [table.entry(p.g1, p.g2)[3:] for p in pairs] == [
            values[k] for _, _, k, _ in analysis.walk()] and not runs

        el, d = analysis.elements, model.d
        for i1, i2, k, t in analysis.walk():
            alpha, beta = GradedClass(el[i1], IntPoly.one(d).scale(2)), GradedClass(el[i2], IntPoly.one(d).scale(-3))
            assert star(geo, alpha, beta) == GradedClass(el[t], alpha.poly * beta.poly * geo.value(k)[0])
        assert not runs


def test_zero_normal_character_gives_a_zero_product_with_no_truncation_check():
    # a zero normal character kills the product before any degree is read;
    # a negative multiplicity never reaches the kernel, which takes Euler
    # factors: the obstruction kernel refuses it (``bundle`` is None), and
    # so does ``euler_poly``
    ring = GradedRingPresentation.from_characters(1, [[(3,)]], 2)
    emb = SectorEmbedding(ring, ring, ((0,), (1,)))
    emb.check()
    big = CharacterClass.build(1, [((1,), 5)])
    assert _makeup(_factors(big), emb) is None
    assert product(_factors(big), emb) == old_product(big, emb) == (IntPoly.zero(1), ())


def test_embedding_euler_and_gysin_push_equal_the_chain():
    for geo in _geometries():
        for common, target_fixed in {(p.common_fixed, geo.component(p.target).fixed_columns)
                                     for p in double_inertia(geo.model)}:
            emb = geo.embedding(common, target_fixed)
            fresh = SectorEmbedding(emb.sub, emb.ambient, emb.normal_chars)
            old = chain(geo.model.d, emb.normal_chars)
            assert fresh.euler == old
            assert gysin_push(fresh, IntPoly.one(geo.model.d)) == old
