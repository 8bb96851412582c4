"""Orbifold product machinery.

Logarithmic traces, the obstruction class of a pair of sectors, Euler-class
polynomials, the star product on inertia sectors, and the two executable
verification routines: obstruction classes restrict along the moment-fiber
embedding, and the two sides carry isomorphic orbifold rings with identical
structure constants and ages.

A model's orbifold ring is one object, its ``SectorGeometry``: the one
owner of the rings over one analysis at one truncation, each kept once,
keyed by what derives it: one product of characters per trace mask, one
presentation per fixed mask, one checked embedding per (common fixed
mask, target fixed mask), and one generator product per product key of
the analysis, built only where it is read; a pair's structure constants
are read off its key (``entry``), and nothing is kept per pair.
``orbifold_table`` returns the geometry with every generator product
built.  Both verifiers align their two sides once (``_align``), into the
distinct (ambient key, fiber key) pairs of the double inertia, compare
once per key pair, and expand only a failing key pair into its pairs
(``_expand``).  Both
verifiers read their two sides from one helper (``_sides``), which holds
the one rule by which the moment fiber shares the ambient's analysis and
geometry.  ``verify_orbifold_iso`` reads geometries, and builds no pair
expansion.  It compares generator products certificate first, reducing
on a mismatch: a key's makeup (``SectorGeometry.makeup``), its Euler
factors and the embedding they are pushed along, certifies two products
equal when the factors, the normal characters and the target relations
agree (``_same_makeup``), and only a key pair without that certificate
is reduced to coordinates (``value``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .analysis import ObstructionError, _Analysis, _Obstructions
from .characters import CharacterClass
from .chow import (GradedClass, GradedRingPresentation, IsoReport, SectorEmbedding, _trace_ring, _truncation,
                   _vector_poly, product_coefficients, product_of_forms)
from .exact import as_int
from .inertia import DoubleInertiaComponent, InertiaComponent, TorsionElement, _bits, _columns, _mask, _same_dimension
from .model import StackModel, WeightMatrix, _int_entries, _lawrence_pair
from .poly import IntPoly


def log_trace(g: TorsionElement, v: CharacterClass) -> CharacterClass:
    """Weight each eigenpiece of g by its fractional exponent: the character
    w contributes frac(<w, g>) times its multiplicity.  Characters fixed by
    g (and the trivial one) contribute nothing.  An element of another
    dimension than the class's raises ``ValueError``."""
    _same_dimension(v.dim, g)
    terms = []
    for w, m in v.terms:
        e = g.exponent(w)
        if e:
            # m * frac<w, g>, with frac<w, g> = e / order
            terms.append((w, Fraction(m.numerator * e, m.denominator * g.order)))
    return CharacterClass.build(v.dim, terms)


def obstruction(model: StackModel, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
    """Obstruction class of the ordered pair (g1, g2), from the model's
    tangent class restricted to the common fixed locus (restriction keeps
    every global character).

    Per character w of multiplicity m the multiplicity is
    m * (frac<w,g1> + frac<w,g2> + frac<-w,g1+g2> - 1 + [w fixed by both]);
    the result must be a genuine bundle (all multiplicities nonnegative
    integers) or the model data is inconsistent.

    Over M = lcm(ord g1, ord g2) the three fractional parts are
    e1/M, e2/M and e3/M with e3 = -(e1 + e2) mod M, so their sum is 0, 1
    or 2; it is 0 exactly when w is fixed by both.  The bracket is
    therefore 1 when e1 + e2 > M, that is frac<w,g1> + frac<w,g2> > 1, and
    0 otherwise: w enters with its full multiplicity m or not at all.  So
    the class depends only on which terms enter.  This function runs the
    analysis' kernel (``analysis._Obstructions``) for one pair and builds
    the class it returns; the geometries and verifiers read the kernel's
    Euler factors and build none.  An element of another dimension than
    the model's raises ``ValueError``.
    """
    _same_dimension(model.d, g1, g2)
    return _Obstructions(model).class_of(g1, g2)


def euler_poly(bundle: CharacterClass) -> IntPoly:
    """Top Chern class of a character bundle: the product of the linear
    forms <w, t>, with multiplicity.  The empty bundle gives 1; any trivial
    summand contributes a zero factor; a multiplicity that is not a
    nonnegative integer raises ``ValueError``."""
    if not bundle.is_bundle():
        raise ValueError("euler class needs nonnegative integer multiplicities: %s" % bundle)
    if bundle.trivial:
        return IntPoly.zero(bundle.dim)
    return product_of_forms(bundle.dim, [w for w, m in bundle.terms for _ in range(m.numerator)])


def _check_truncation(degree: int | None, truncation: int) -> None:
    if degree is not None and degree > truncation:
        raise ValueError("product degree %d exceeds the truncation bound %d" % (degree, truncation))


def _makeup(factors, emb: SectorEmbedding) -> tuple | None:
    """What the generator product of an obstruction class, given by its
    Euler factors (``_Obstructions.bundle``), pushed along a checked
    embedding, is made of: ``(factors, emb)``, whose product is that of
    the linear forms of the factors and the normal characters; None when a
    normal character is zero, so the product is zero.  A product above the
    target's truncation is refused."""
    if not all(map(any, emb.normal_chars)):
        return None
    _check_truncation(len(factors) + len(emb.normal_chars), emb.ambient.truncation)
    return factors, emb


def _generator_product(made: tuple | None, num_vars: int) -> tuple:
    """The generator product of a makeup (``_makeup``) in ``num_vars``
    variables: one kernel product over its factors and normal characters,
    in that order, since the product is commutative, with its canonical
    coordinates in the embedding's target ring; the zero product for
    None."""
    if made is None:
        return IntPoly.zero(num_vars), ()
    factors, emb = made
    chars, target = (*factors, *emb.normal_chars), emb.ambient
    vec = product_coefficients(target.num_vars, chars)
    return _vector_poly(target.num_vars, len(chars), vec), target.piece(len(chars)).canonical(vec)


def _same_relations(pres_a: GradedRingPresentation, pres_f: GradedRingPresentation) -> bool:
    """Equal variable counts and relation lists: equal ideals, so equal
    pieces in every degree both truncations hold."""
    return pres_a.num_vars == pres_f.num_vars and pres_a.relations == pres_f.relations


def _same_makeup(made_a: tuple | None, made_f: tuple | None) -> bool:
    """The certificate that two generator products are one class: both are
    zero, or their Euler factors and their normal characters are equal
    tuples, so their polynomials are equal, and their targets have equal
    relations (``_same_relations``), so the polynomials have equal
    coordinates.  Equal products split otherwise between factors and
    normal characters are not certified; the caller then compares their
    coordinates."""
    if made_a is None or made_f is None:
        return made_a is made_f
    (factors_a, emb_a), (factors_f, emb_f) = made_a, made_f
    return (factors_a == factors_f and emb_a.normal_chars == emb_f.normal_chars
            and _same_relations(emb_a.ambient, emb_f.ambient))


class ProductEntry(NamedTuple):
    g1: TorsionElement
    g2: TorsionElement
    target: TorsionElement | None
    poly: IntPoly
    coords: tuple[int, ...]


class SectorGeometry:
    """A model's inertia analysis with the rings over it, at one
    truncation, and the one owner of those rings, each kept once, keyed by
    what derives it.  The analysis is the model's own
    (``StackModel.analysis``), which also owns the refusal of a non-sector:
    ``component``, ``pair`` and ``sector_presentation`` raise
    ``ValueError`` for one, through ``_Analysis.position``.  A sector's
    ring depends only on its fixed columns: it is built by the one builder
    of sector rings (``chow._trace_ring``) on the trace rule's masks
    (``inertia._traces``), with no sector model built, once per fixed mask,
    with its one piece cache, and each relation's product is made once
    per trace mask for the whole geometry.  The geometry checks one
    embedding per (common fixed mask, target fixed mask), the last two
    masks of a product key (``_Analysis.keys``), by mask containment
    (``SectorEmbedding.check``); a failed check is never stored, so every
    push through it raises again.  It reads what the generator product of
    a product key of the analysis is made of (``makeup``), storing
    nothing, and builds the product (``value``) once per key where it is
    read; ``entry`` reads a pair's structure constants of the star product
    on sector generators off its key, and nothing is kept per pair.  The
    one expansion of the pairs is ``inertia.double_inertia``.  All of
    these read only the model's weights, arrangement and tangent terms,
    so a model with equal ones may read this geometry (``_sides``).  A
    negative truncation raises ``ValueError``."""

    def __init__(self, model: StackModel, truncation: int):
        self.truncation = _truncation(truncation)
        self.model = model
        self.analysis = model.analysis
        self.obstructions: _Obstructions = self.analysis.obstructions
        self._products: dict = {}
        self._presentations: dict = {}
        self._embeddings: dict = {}
        self._values: dict = {}

    @property
    def components(self) -> tuple[InertiaComponent, ...]:
        """The analysis' sectors (``_Analysis.components``)."""
        return self.analysis.components

    def component(self, g: TorsionElement) -> InertiaComponent:
        return self.components[self.analysis.position(g)]

    def pair(self, g1, g2) -> DoubleInertiaComponent | None:
        """The double-inertia component of (g1, g2), or None for an
        unstable pair of sectors; a non-sector raises ``ValueError``."""
        found = self.analysis.locate(g1, g2)
        if found is None:
            return None
        k, target = found
        return DoubleInertiaComponent(g1, g2, _columns(self.analysis.keys[k][1]), target)

    def presentation_for(self, fixed: frozenset[int]) -> GradedRingPresentation:
        """The sector ring over the columns ``fixed`` (``_ring``); a column
        outside 1..n raises ``ModelError``, and an unstable fixed set
        ``ValueError``, as ``sector_model`` does."""
        return self._ring(_mask(set(self.model.base._checked(fixed))))

    def _ring(self, fixed: int) -> GradedRingPresentation:
        """The sector ring over the fixed column mask ``fixed``, built once
        (``chow._trace_ring``) on the coordinates over ``fixed``."""
        if fixed not in self._presentations:
            stable = self.analysis._stable
            self._presentations[fixed] = _trace_ring(self.model, fixed | fixed << stable._shift, stable._unstable,
                                                     self.truncation, self._products)
        return self._presentations[fixed]

    def sector_presentation(self, g: TorsionElement) -> GradedRingPresentation:
        return self._ring(self.analysis._masks[self.analysis.position(g)])

    def embedding(self, small: frozenset[int], big: frozenset[int]) -> SectorEmbedding:
        """The embedding of the ring over the columns ``small`` into the one
        over ``big`` (``_embedding``); a column outside 1..n raises
        ``ModelError``."""
        return self._embedding(*(_mask(set(self.model.base._checked(cols))) for cols in (small, big)))

    def _embedding(self, common: int, target: int) -> SectorEmbedding:
        """The embedding of the ring over the fixed column mask ``common``
        into the one over ``target``, built and checked once per pair of
        masks.  Its normal coordinates lie over the columns
        ``target & ~common``, column by column: x_j, then y_j, which is j
        shifted by ``_Stability._shift``, and is x_j itself in an undoubled
        model."""
        emb = self._embeddings.get((common, target))
        if emb is None:
            normal = [i for j in _bits(target & ~common) for i in sorted({j, j + self.analysis._stable._shift})]
            emb = SectorEmbedding._of_coordinates(self._ring(common), self._ring(target), normal,
                                                  self.model.weights.columns)
            emb.check()
            self._embeddings[common, target] = emb
        return emb

    def makeup(self, k: int) -> tuple | None:
        """What the generator product of the analysis' product key ``k`` is
        made of (``_makeup``): the Euler factors of the key's selection, as
        the kernel holds them, and the embedding of its common mask into
        its target mask that they are pushed along.  It runs every check of
        the product: a key whose selection is not a bundle raises
        ``ObstructionError``, naming the key's first pair in pair order,
        and the embedding is built and checked (``GysinError``) before the
        truncation is; ``star`` tests the selection first, naming its own
        operands.  Nothing is stored: the factors and the embedding are
        the kernel's and the geometry's, so every read runs the checks
        again, and a key that raises raises on every read."""
        selection, common, target = self.analysis.keys[k]
        factors = self.obstructions.bundle(selection)
        if factors is None:
            first = next((i1, i2) for i1, i2, key, _ in self.analysis.walk() if key == k)
            self.obstructions.class_for(selection, *map(self.analysis.elements.__getitem__, first))
        return _makeup(factors, self._embedding(common, target))

    def value(self, k: int) -> tuple:
        """The generator product of the analysis' product key ``k`` and its
        coordinates in the target's ring, built once from its makeup
        (``makeup``, ``_generator_product``).  A key that raises is never
        stored."""
        out = self._values.get(k)
        if out is None:
            out = self._values[k] = _generator_product(self.makeup(k), self.model.d)
        return out

    def generator(self, g: TorsionElement) -> GradedClass:
        return GradedClass(g, IntPoly.one(self.model.d))

    def entry(self, g1, g2) -> ProductEntry:
        """The structure constants of the star product of the generators
        of (g1, g2): the generator product of the pair's key (``value``)
        and its target, built per call and not stored, or the zero entry
        of an unstable pair of sectors; a non-sector raises ``ValueError``
        (``_Analysis.locate``)."""
        found = self.analysis.locate(g1, g2)
        if found is None:
            return ProductEntry(g1, g2, None, IntPoly.zero(self.model.d), ())
        k, target = found
        return ProductEntry(g1, g2, target, *self.value(k))


def _zero_class(d: int) -> GradedClass:
    return GradedClass(None, IntPoly.zero(d))


def star(geo: SectorGeometry, alpha: GradedClass, beta: GradedClass) -> GradedClass:
    """Orbifold product of two sector classes of ``geo.model``.

    Pull both classes to the common fixed locus (the identity on polynomial
    representatives), multiply by the generator product of their pair: the
    Euler polynomial of the obstruction class times the normal Euler factor
    of the embedding of the common locus into the target fixed locus, as
    the geometry builds it once per product key (``SectorGeometry.value``),
    after the pair's own selection is tested to be a bundle.  An unstable
    pair of sectors gives the zero class, and a class on a non-sector
    raises ``ValueError`` (``_Analysis.locate``).
    """
    model = geo.model
    if alpha.is_zero or beta.is_zero:
        return _zero_class(model.d)
    found = geo.analysis.locate(alpha.component, beta.component)
    if found is None:
        return _zero_class(model.d)
    k, target = found
    mask = geo.analysis.keys[k][0]
    if geo.obstructions.bundle(mask) is None:
        geo.obstructions.class_for(mask, alpha.component, beta.component)
    pushed = alpha.poly * beta.poly * geo.value(k)[0]
    _check_truncation(pushed.homogeneous_degree(), geo.truncation)
    return GradedClass(target, pushed)


def orbifold_table(model: StackModel, bound: int | None = None) -> SectorGeometry:
    """The model's orbifold ring: its geometry (``_geometry``), with the
    generator product of every product key of its analysis built.

    The geometry reads the model's own analysis (``StackModel.analysis``),
    so its sectors, pairs and product keys are those the pullback check
    reads; it owns the presentations, embeddings and
    generator products, built once per product key of the analysis
    (``SectorGeometry.value``), not once per pair, and ``entry`` reads a
    pair's off its key.  The keys are built in their order, which is the
    order of first appearance in pair order, so a selection that is not
    a bundle raises naming the first pair in pair order that has one
    (``SectorGeometry.makeup``).  A bound below 1 raises."""
    geo = _geometry(model, bound if bound is None else as_int(bound))
    for k in range(len(geo.analysis.keys)):
        geo.value(k)
    return geo


def _geometry(model: StackModel, bound: int | None) -> SectorGeometry:
    """A new geometry over the model's own analysis, truncated at
    ``bound`` (by default twice the coordinate count) or above the degree
    of every structure polynomial, whichever is higher, and the one
    truncation rule of ``orbifold_table`` and the iso check.  A bound
    below 1 raises ``ValueError``; a selection that is not a bundle is
    refused where its key's product is made (``SectorGeometry.makeup``)."""
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1, got %d" % bound)
    analysis = model.analysis
    floor = bound if bound is not None else 2 * model.num_coords
    # Structure polynomials have degree age(g1)+age(g2)-age(g1*g2).
    top_age = Fraction(max(analysis.ages), analysis._big)
    return SectorGeometry(model, max(floor, int(2 * top_age) + 1))


_DIFFER = "double inertia components differ"


def _align(ambient: _Analysis, fiber: _Analysis):
    """The distinct (ambient key, fiber key) of the pairs, in order of
    first appearance, or None when the two sides' pairs differ.  A fiber
    that reads the ambient's analysis (``_sides``) pairs each key with
    itself.  Two analyses with equal elements, fixed sets and partners
    (``_layout``) have equal pairs in one order, so their walks are
    zipped."""
    if fiber is ambient:
        return [(k, k) for k in range(len(ambient.keys))]
    if _layout(fiber) != _layout(ambient):
        return None
    return dict.fromkeys((ka, kf) for (_, _, ka, _), (_, _, kf, _) in zip(ambient.walk(), fiber.walk()))


def _expand(ambient: _Analysis, fiber: _Analysis, failing):
    """(g1, g2, target, ambient key, fiber key) of each pair whose key pair
    is in ``failing``, in pair order; nothing is walked when it is empty."""
    if not failing:
        return
    el = ambient.elements
    for (i1, i2, ka, t), (_, _, kf, _) in zip(ambient.walk(), fiber.walk()):
        if (ka, kf) in failing:
            yield el[i1], el[i2], el[t], ka, kf


def _layout(analysis: _Analysis) -> tuple:
    """What fixes an analysis' pairs and their order: its elements, their
    fixed masks, and each fixed mask's partners (``_partners``)."""
    return analysis.elements, analysis._masks, analysis._partners


def _sides(a: WeightMatrix, theta) -> tuple[StackModel, StackModel]:
    """The two sides both verifiers compare: the Lawrence model of ``(a,
    theta)`` and the model its moment fiber reads, from the memo of model
    pairs (``model._lawrence_pair``).  The fiber shares the ambient's
    analysis and geometry when the two read equal data (doubling, base,
    weights, arrangement and tangent terms): the ambient is then returned
    for it, and ``_align`` pairs each key with itself.  A fiber with other
    read data is its own side."""
    ambient, fiber = _lawrence_pair(a, _int_entries(theta, "character theta"))
    reads = [(m.doubled, m.base, m.weights, m.arrangement, m.tangent_class.terms) for m in (ambient, fiber)]
    return ambient, ambient if reads[0] == reads[1] else fiber


class PullbackCheck(NamedTuple):
    g1: TorsionElement
    g2: TorsionElement
    ok: bool
    detail: str = ""


class ObstructionPullbackReport(NamedTuple):
    ok: bool
    checked: int
    failures: tuple[PullbackCheck, ...]


def verify_obstruction_pullback(a: WeightMatrix, theta) -> ObstructionPullbackReport:
    """On every double-inertia component, the obstruction class computed from
    the moment-fiber tangent data must equal the restriction of the ambient
    one (restriction keeps all characters, so this is equality of exact
    character multisets), and both must be genuine bundles.

    Each side reads the analysis of its model (``_sides``): the moment
    fiber of a Lawrence model reads the ambient's.  The sides
    are aligned once (``_align``), as ``verify_orbifold_iso`` aligns them,
    into their distinct (ambient key, fiber key) pairs, and the classes
    are compared once per key pair, as the kernels' Euler factor tuples,
    which are equal exactly when the classes are.  Only the pairs of a
    failing key pair are expanded (``_expand``), and a class is built only
    for a failing pair's text.  Every selection is bundle-tested, and a
    failing pair is listed on its own: every pair whose selection is not a
    bundle, and every pair whose two classes differ, is in ``failures``,
    in pair order.  Sides whose pairs differ fail with no pair checked."""
    ambient, fiber = (m.analysis for m in _sides(a, theta))
    combos = _align(ambient, fiber)
    if combos is None:
        return ObstructionPullbackReport(False, 0, (PullbackCheck(None, None, False, _DIFFER),))
    failing = {(ka, kf) for ka, kf in combos
               if (factors := ambient.obstructions.bundle(ambient.keys[ka][0])) is None
               or factors != fiber.obstructions.bundle(fiber.keys[kf][0])}
    failures = []
    for g1, g2, _, ka, kf in _expand(ambient, fiber, failing):
        try:
            r_ambient = ambient.obstructions.class_for(ambient.keys[ka][0], g1, g2)
            r_fiber = fiber.obstructions.class_for(fiber.keys[kf][0], g1, g2)
        except ObstructionError as exc:
            failures.append(PullbackCheck(g1, g2, False, str(exc)))
            continue
        failures.append(PullbackCheck(g1, g2, False, "ambient %s vs fiber %s" % (r_ambient, r_fiber)))
    return ObstructionPullbackReport(not failures, len(ambient), tuple(failures))


class OrbifoldIsoReport(NamedTuple):
    ok: bool
    components: int
    ring_failures: tuple = ()
    product_failures: tuple = ()
    age_failures: tuple = ()
    detail: str = ""


def _same_ring(pres_a, pres_f, bound: int) -> IsoReport:
    """``ring_map_is_iso`` for the identity on variables, up to ``bound``.

    Equal relation lists span equal ideals, so their pieces are equal in
    every degree; that is the certificate.  Otherwise the pieces are
    compared: the map is well defined iff the ambient lattice lies in the
    fiber's, and onto, so (f.g. abelian groups are Hopfian) bijective in
    degree k iff the pieces are."""
    if _same_relations(pres_a, pres_f):
        return IsoReport(True)
    for k in range(bound + 1):
        if pres_a.piece(k) != pres_f.piece(k):
            return IsoReport(False, k, "relation lattices differ in degree %d" % k)
    return IsoReport(True)


def verify_orbifold_iso(a: WeightMatrix, theta, bound: int = 5) -> OrbifoldIsoReport:
    """Compare the full orbifold structure of the ambient model and its
    moment-fiber model: matching sectors, componentwise graded ring
    isomorphism up to ``bound``, identical structure polynomials, and
    identical ages.

    Each side reads a geometry (``_geometry``) of its model (``_sides``):
    on a Lawrence input the moment fiber reads the ambient's geometry, and
    the check certifies that the two sides share their read data; a fiber
    with other read data gets a geometry of its own and is computed from
    its own data.  Within a geometry each fixed mask has one
    presentation, with its pieces built once, each (common fixed mask,
    target fixed mask) one embedding, built and checked once, and each
    product key at most one generator product; a key's makeup is read off
    the kernel's factors and the geometry's embedding, and stored by
    neither side.  The sides are aligned once (``_align``), as the pullback
    check aligns them; sides whose pairs differ fail with no component
    compared.  Aligned sectors have equal fixed sets, so the rings are
    compared (``_same_ring``) once per fixed set, and every sector over a
    failing one is listed in ``ring_failures``; the ages are compared as
    the analyses' ints (``_Analysis.ages``), and an element or a component
    is built only to name a failure.  Products are compared once
    per (ambient key, fiber key), certificate first, reduced on a mismatch:
    equal makeups (``_same_makeup``: equal factors, equal normal
    characters and equal target relations) are the same polynomial in the
    same ring, so the same class, and only a key pair whose makeups differ
    is reduced to coordinates (``value``); it fails when those differ too.
    A passing check of a Lawrence input so builds no generator product and
    no graded piece for a product.  Only the pairs of a failing key pair are expanded
    (``_expand``) into ``product_failures``, in pair order, with the
    coordinates of both sides.  A ``bound`` below 1 raises
    ``ValueError``."""
    bound = as_int(bound)
    ambient, fiber = _sides(a, theta)
    geo_a = _geometry(ambient, bound)
    geo_f = geo_a if fiber is ambient else _geometry(fiber, bound)
    combos = _align(geo_a.analysis, geo_f.analysis)
    if combos is None:
        return OrbifoldIsoReport(False, 0, detail=_DIFFER)

    an, fn = geo_a.analysis, geo_f.analysis
    reports = {mask: _same_ring(geo_a._ring(mask), geo_f._ring(mask), bound) for mask in dict.fromkeys(an._masks)}
    ring_failures = tuple((an.elements[i], reports[mask]) for i, mask in enumerate(an._masks)
                          if not reports[mask].is_iso)
    # each side's ages are over its own common order L
    age_failures = tuple((an.elements[i], an.components[i].age, fn.components[i].age)
                         for i, (x, y) in enumerate(zip(an.ages, fn.ages)) if x * fn._big != y * an._big)
    failing = {(ka, kf) for ka, kf in combos if not _same_makeup(geo_a.makeup(ka), geo_f.makeup(kf))
               and geo_a.value(ka)[1] != geo_f.value(kf)[1]}
    product_failures = tuple(
        ((g1, g2), ProductEntry(g1, g2, t, *geo_a.value(ka)), ProductEntry(g1, g2, t, *geo_f.value(kf)))
        for g1, g2, t, ka, kf in _expand(an, fn, failing))
    ok = not (ring_failures or age_failures or product_failures)
    return OrbifoldIsoReport(ok, len(an.ages), ring_failures, product_failures, age_failures)
