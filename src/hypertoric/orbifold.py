"""Orbifold product machinery.

Logarithmic traces, the obstruction class of a pair of sectors, Euler-class
polynomials, the star product on inertia sectors with its full structure
table, and the two executable verification routines: obstruction classes
restrict along the moment-fiber embedding, and the two sides carry
isomorphic orbifold rings with identical structure constants and ages.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .analysis import ObstructionError, _Analysis, _analysis, _Obstructions, _Reads
from .characters import CharacterClass
from .chow import GradedClass, GradedRingPresentation, IsoReport, SectorEmbedding, product_coefficients, product_of_forms
from .inertia import DoubleInertiaComponent, InertiaComponent, TorsionElement, sector_unstable_sets
from .model import StackModel, WeightMatrix, _int_entries, _lawrence_pair
from .poly import IntPoly


def log_trace(g: TorsionElement, v: CharacterClass) -> CharacterClass:
    """Weight each eigenpiece of g by its fractional exponent: the character
    w contributes frac(<w, g>) times its multiplicity.  Characters fixed by
    g (and the trivial one) contribute nothing."""
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
    the class depends only on which terms enter; this function runs the
    analysis' kernel (``analysis._Obstructions``) for one pair.
    """
    return _Obstructions(model).class_of(g1, g2)


def euler_poly(bundle: CharacterClass) -> IntPoly:
    """Top Chern class of a character bundle: the product of the linear
    forms <w, t>, with multiplicity.  The empty bundle gives 1; any trivial
    summand contributes a zero factor."""
    factors = _euler_factors(bundle)
    return IntPoly.zero(bundle.dim) if factors is None else product_of_forms(bundle.dim, factors)


def _euler_factors(bundle: CharacterClass) -> list | None:
    """The characters of a bundle's Euler polynomial, with multiplicity, or
    None when a trivial summand makes it zero."""
    if not bundle.is_bundle():
        raise ValueError("euler class needs nonnegative integer multiplicities: %s" % bundle)
    if bundle.trivial:
        return None
    return [w for w, m in bundle.terms for _ in range(m.numerator)]


def _ring_key(pres: GradedRingPresentation) -> tuple:
    return (pres.num_vars, pres.relations, pres.truncation)


class _RingStore:
    """The rings of one ``orbifold_table`` or ``verify_orbifold_iso`` call,
    and the generator products over them, keyed by value:

    - one presentation per (num_vars, character multisets, truncation),
      found before any polynomial is multiplied, and one presentation
      object, with its one piece cache, per ring value (num_vars,
      relations, truncation);
    - one embedding per (sub ring, ambient ring, normal characters),
      checked once; a failed check is never stored, so every push through
      it raises again;
    - one generator product per (obstruction class, embedding), built by
      one kernel run over the class's characters and the normal ones.

    Every geometry of the call reads the same store, so the fiber of
    ``verify`` reads the rings, checks and products the ambient side has
    already built.  A fiber class or ring that differs from the ambient one
    is another key, so it is built from the fiber's own data."""

    def __init__(self):
        self._by_characters: dict = {}
        self._rings: dict = {}
        self._embeddings: dict = {}
        self._products: dict = {}

    def presentation(self, num_vars: int, multisets: tuple, truncation: int) -> GradedRingPresentation:
        """The ring of the products of linear forms of ``multisets`` (each a
        sorted tuple of characters), as ``from_characters`` builds it."""
        key = (num_vars, multisets, truncation)
        pres = self._by_characters.get(key)
        if pres is None:
            built = GradedRingPresentation.from_characters(num_vars, multisets, truncation)
            pres = self._by_characters[key] = self._rings.setdefault(_ring_key(built), built)
        return pres

    def embedding(self, sub, ambient, normal_chars) -> SectorEmbedding:
        key = (_ring_key(sub), _ring_key(ambient), normal_chars)
        emb = self._embeddings.get(key)
        if emb is None:
            emb = SectorEmbedding(sub=sub, ambient=ambient, normal_chars=normal_chars)
            emb.check()
            self._embeddings[key] = emb
        return emb

    def product(self, obstruction_class: CharacterClass, emb: SectorEmbedding) -> tuple:
        """The generator product of an obstruction class pushed along an
        embedding of this store: the class's Euler polynomial times the
        normal Euler polynomial, refused above the target's truncation, with
        its canonical coordinates in the target ring: one kernel product over
        the class's characters and the normal ones.  The store holds each
        embedding it hands out, one object per value, so the object's
        identity keys its value."""
        key = (obstruction_class, id(emb))
        out = self._products.get(key)
        if out is None:
            chars = _euler_factors(obstruction_class)
            target = emb.ambient
            if chars is None or not all(map(any, emb.normal_chars)):
                out = (IntPoly.zero(target.num_vars), ())
            else:
                chars += emb.normal_chars
                _check_truncation(len(chars), target.truncation)
                piece = target.piece(len(chars))
                vec = product_coefficients(target.num_vars, chars)
                out = (piece.representative(vec), piece.canonical(vec))
            self._products[key] = out
        return out


def _check_truncation(degree: int | None, truncation: int) -> None:
    if degree is not None and degree > truncation:
        raise ValueError("product degree %d exceeds the truncation bound %d" % (degree, truncation))


class SectorGeometry:
    """A model's inertia analysis with the rings over it, at one
    truncation.  The analysis is the shared one of the model's read data
    (``_analysis``); a caller that already holds it passes it.  A sector's
    ring depends only on its fixed columns: it is read straight from the
    characters of the sector's minimal unstable sets
    (``inertia.sector_unstable_sets``), with no sector model built, once
    per fixed set and per geometry.  Presentations, the embeddings between
    them and the generator products come from the ring store
    (``_RingStore``), so geometries that share a store share them.  A
    negative truncation raises ``ValueError``."""

    def __init__(self, model: StackModel, truncation: int, analysis: _Analysis | None = None,
                 _rings: _RingStore | None = None):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative, got %d" % truncation)
        self.model = model
        self.truncation = truncation
        self.analysis = analysis if analysis is not None else _analysis(_Reads(model))
        self.components: tuple[InertiaComponent, ...] = self.analysis.components
        self.obstructions: _Obstructions = self.analysis.obstructions
        self._presentations: dict = {}
        self._embeddings: dict = {}
        self._rings = _rings if _rings is not None else _RingStore()

    @property
    def pairs(self) -> tuple[DoubleInertiaComponent, ...]:
        """The expanded double inertia, in pair order."""
        return self.analysis.pairs

    def component(self, g: TorsionElement) -> InertiaComponent:
        i = self.analysis.index.get(g)
        if i is None:
            raise ValueError("element %s is not an inertia element" % g)
        return self.components[i]

    def pair(self, g1, g2) -> DoubleInertiaComponent | None:
        found = self.analysis.locate(g1, g2)
        if found is None:
            return None
        k, target = found
        return DoubleInertiaComponent(g1, g2, self.analysis.keys[k][1], target)

    def presentation_for(self, fixed: frozenset[int]) -> GradedRingPresentation:
        """The sector ring over ``fixed``; an unstable fixed set raises
        ``ValueError``, as ``sector_model`` does."""
        key = tuple(sorted(fixed))
        pres = self._presentations.get(key)
        if pres is None:
            char = self.model.coordinate_char
            multisets = tuple(tuple(sorted(char(i) for i in s))
                              for s in sector_unstable_sets(self.model, fixed))
            pres = self._presentations[key] = self._rings.presentation(
                self.model.d, multisets, self.truncation)
        return pres

    def sector_presentation(self, g: TorsionElement) -> GradedRingPresentation:
        return self.presentation_for(self.component(g).fixed_columns)

    def embedding(self, small: frozenset[int], big: frozenset[int]) -> SectorEmbedding:
        key = (small, big)
        if key not in self._embeddings:
            model = self.model
            # column by column, x_j before y_j
            coords = sorted(model.coords_of_columns(big - small), key=lambda i: ((i - 1) % model.n, i))
            self._embeddings[key] = self._rings.embedding(
                self.presentation_for(small),
                self.presentation_for(big),
                tuple(map(model.coordinate_char, coords)),
            )
        return self._embeddings[key]

    def product(self, obstruction_class: CharacterClass, common: frozenset[int],
                target_fixed: frozenset[int]) -> tuple:
        """The generator product of a pair with this obstruction class,
        common fixed set and target fixed set, and its coordinates in the
        target's ring, from the store."""
        return self._rings.product(obstruction_class, self.embedding(common, target_fixed))

    def generator(self, g: TorsionElement) -> GradedClass:
        return GradedClass(g, IntPoly.one(self.model.d))


def _zero_class(d: int) -> GradedClass:
    return GradedClass(None, IntPoly.zero(d))


def star(geo: SectorGeometry, alpha: GradedClass, beta: GradedClass) -> GradedClass:
    """Orbifold product of two sector classes of ``geo.model``.

    Pull both classes to the common fixed locus (the identity on polynomial
    representatives), multiply by the generator product of their pair: the
    Euler polynomial of the obstruction class times the normal Euler factor
    of the embedding of the common locus into the target fixed locus, read
    from the geometry's ring store.
    """
    model = geo.model
    if alpha.is_zero or beta.is_zero:
        return _zero_class(model.d)
    found = geo.analysis.locate(alpha.component, beta.component)
    if found is None:
        geo.component(alpha.component)
        geo.component(beta.component)
        return _zero_class(model.d)
    k, target = found
    mask, common, target_fixed = geo.analysis.keys[k]
    obstruction_class = geo.obstructions.class_for(mask, alpha.component, beta.component)
    product, _ = geo.product(obstruction_class, common, target_fixed)
    pushed = alpha.poly * beta.poly * product
    _check_truncation(pushed.homogeneous_degree(), geo.truncation)
    return GradedClass(target, pushed)


class ProductEntry(NamedTuple):
    g1: TorsionElement
    g2: TorsionElement
    target: TorsionElement | None
    poly: IntPoly
    coords: tuple[int, ...]


class OrbifoldTable:
    """Structure constants of the star product on sector generators: one
    generator product per product key of the geometry's analysis, in
    ``values``, and one entry per pair of the double inertia, in pair
    order, in ``products``, expanded on first use; absent means zero."""

    def __init__(self, geometry: SectorGeometry, components: tuple[InertiaComponent, ...],
                 values: tuple):
        self.geometry = geometry
        self.components = components
        self.values = values
        self._products: dict | None = None

    @property
    def analysis(self) -> _Analysis:
        return self.geometry.analysis

    @property
    def products(self) -> dict:
        if self._products is None:
            self._products = {(e.g1, e.g2): e for e in self.entries()}
        return self._products

    def entries(self, keys=None):
        """A ``ProductEntry`` per pair, in pair order; with ``keys``, only
        for the pairs whose key index is in it."""
        analysis = self.analysis
        double, ids = analysis.double, analysis.ids
        el = double.elements
        for i1, i2, b, pos in double.walk():
            k = ids[b][pos]
            if keys is None or k in keys:
                poly, coords = self.values[k]
                yield ProductEntry(el[i1], el[i2], el[double.target(i1, i2)], poly, coords)

    def entry(self, g1, g2) -> ProductEntry:
        """The stored entry, else the zero entry; a non-sector raises ValueError."""
        found = self.products.get((g1, g2))
        if found is not None:
            return found
        self.geometry.component(g1)
        self.geometry.component(g2)
        return ProductEntry(g1, g2, None, IntPoly.zero(self.geometry.model.d), ())


def orbifold_table(model: StackModel, bound: int | None = None) -> OrbifoldTable:
    """The generator products of the double inertia's pairs; absent means zero.

    The table's geometry reads the shared analysis of the model's read data
    (``_analysis``), so its sectors, blocks and product keys are those the
    pullback check reads; its truncation is its own, since it depends on
    ``bound``, and its presentations, embeddings and products come from a
    ring store of its own (``_RingStore``), which builds each generator
    product once per (class, embedding).  The table looks it up once per
    product key of the analysis, not once per pair, and ``products``
    expands the keys to the pairs.  A selection that is not a bundle
    raises, naming the first pair in pair order that has one.  A bound
    below 1 raises."""
    return _table(model, bound, _RingStore())


def _table(model: StackModel, bound: int | None, rings: _RingStore) -> OrbifoldTable:
    """``orbifold_table`` with its rings and products read from, and added
    to, ``rings``."""
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1, got %d" % bound)
    floor = bound if bound is not None else 2 * model.num_coords
    analysis = _analysis(_Reads(model))
    # Structure polynomials have degree age(g1)+age(g2)-age(g1*g2).
    top_age = max(c.age for c in analysis.components)
    geo = SectorGeometry(model, max(floor, int(2 * top_age) + 1), analysis, _rings=rings)
    values = []
    for mask, common, target_fixed in analysis.keys:
        obstruction_class = analysis.obstructions.bundle(mask)
        if obstruction_class is None:
            # raise, naming the first pair in pair order whose selection fails
            for g1, g2, k in analysis.walk():
                analysis.obstructions.class_for(analysis.keys[k][0], g1, g2)
        values.append(geo.product(obstruction_class, common, target_fixed))
    return OrbifoldTable(geo, geo.components, tuple(values))


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

    Each side reads the shared analysis of its model's read data
    (``_analysis``).  A fiber whose read data are the ambient's (the moment
    fiber of a Lawrence model) reads the ambient's analysis, and its
    classes are compared once per distinct selection.  A fiber with other
    data has its own analysis; its pair list is compared with the
    ambient's, and the two sides' classes are compared once per distinct
    (ambient selection, fiber selection).  Every selection is bundle-tested,
    and a failing pair is listed on its own: every pair whose selection is
    not a bundle, and every pair whose two classes differ, is in
    ``failures``, in pair order."""
    models = _lawrence_pair(a, _int_entries(theta, "character theta"))
    ambient, fiber = (_analysis(_Reads(m)) for m in models)
    if fiber is ambient:
        per_pair = None
        combos = {(mask, mask): None for mask, _, _ in ambient.keys}
    else:
        if [(p.g1, p.g2) for p in fiber.pairs] != [(p.g1, p.g2) for p in ambient.pairs]:
            return ObstructionPullbackReport(
                False, 0, (PullbackCheck(None, None, False, "double inertia components differ"),)
            )
        per_pair = [(ambient.keys[ka][0], fiber.keys[kf][0])
                    for (_, _, ka), (_, _, kf) in zip(ambient.walk(), fiber.walk())]
        combos = dict.fromkeys(per_pair)
    failing = set()
    for mask_a, mask_f in combos:
        r_ambient = ambient.obstructions.bundle(mask_a)
        r_fiber = fiber.obstructions.bundle(mask_f)
        if r_ambient is None or r_fiber is None or r_ambient != r_fiber:
            failing.add((mask_a, mask_f))
    failures = []
    if failing:
        masks = per_pair or ((ambient.keys[k][0],) * 2 for _, _, k in ambient.walk())
        for (g1, g2, _), (mask_a, mask_f) in zip(ambient.walk(), masks):
            if (mask_a, mask_f) not in failing:
                continue
            try:
                r_ambient = ambient.obstructions.class_for(mask_a, g1, g2)
                r_fiber = fiber.obstructions.class_for(mask_f, g1, g2)
            except ObstructionError as exc:
                failures.append(PullbackCheck(g1, g2, False, str(exc)))
                continue
            failures.append(
                PullbackCheck(g1, g2, False, "ambient %s vs fiber %s" % (r_ambient, r_fiber)))
    return ObstructionPullbackReport(not failures, len(ambient.double), tuple(failures))


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
    if pres_a.num_vars == pres_f.num_vars and pres_a.relations == pres_f.relations:
        return IsoReport(True)
    for k in range(bound + 1):
        if pres_a.piece(k) != pres_f.piece(k):
            return IsoReport(False, k, "relation lattices differ in degree %d" % k)
    return IsoReport(True)


def verify_orbifold_iso(a: WeightMatrix, theta, bound: int = 5) -> OrbifoldIsoReport:
    """Compare the full orbifold structure of the ambient model and its
    moment-fiber model: matching sectors, componentwise graded ring
    isomorphism up to ``bound``, identical structure polynomials, and
    identical ages.  Both tables are computed end-to-end from their own
    model data.

    The two tables share one ring store (``_RingStore``) for this call, so
    each distinct ring is one presentation, with its pieces built once, and
    each distinct embedding is built and checked once, whichever side
    needs it first.  A sector's ring is the presentation of its fixed set,
    so the rings are compared (``_same_ring``) once per distinct (ambient
    fixed set, fiber fixed set); every sector over a failing pair is listed
    in ``ring_failures``.  Products are compared by ``_product_failures``:
    once per product key when the fiber reads the ambient's analysis, and
    every failing pair is listed, the ambient pairs first, then the
    fiber-only ones.  A ``bound`` below 1 raises ``ValueError``."""
    ambient, fiber = _lawrence_pair(a, _int_entries(theta, "character theta"))
    rings = _RingStore()
    table_a = _table(ambient, bound, rings)
    table_f = _table(fiber, bound, rings)
    if [c.g for c in table_a.components] != [c.g for c in table_f.components]:
        return OrbifoldIsoReport(False, 0, detail="inertia element sets differ")

    ring_failures = []
    reports: dict = {}
    for comp_a, comp_f in zip(table_a.components, table_f.components):
        key = (comp_a.fixed_columns, comp_f.fixed_columns)
        if key not in reports:
            pres_a = table_a.geometry.presentation_for(comp_a.fixed_columns)
            pres_f = table_f.geometry.presentation_for(comp_f.fixed_columns)
            reports[key] = _same_ring(pres_a, pres_f, bound)
        rep = reports[key]
        if not rep.is_iso:
            ring_failures.append((comp_a.g, rep))

    age_failures = [
        (ca.g, ca.age, cf.age)
        for ca, cf in zip(table_a.components, table_f.components)
        if ca.age != cf.age
    ]

    product_failures = _product_failures(table_a, table_f)
    ok = not (ring_failures or age_failures or product_failures)
    return OrbifoldIsoReport(
        ok,
        len(table_a.components),
        tuple(ring_failures),
        tuple(product_failures),
        tuple(age_failures),
    )


def _product_failures(table_a: OrbifoldTable, table_f: OrbifoldTable) -> list:
    """The pairs whose two entries differ in target or coordinates, as
    (key, ambient entry, fiber entry), in the ambient table's pair order,
    then the fiber-only pairs.

    Two tables over one analysis have the same pairs, targets and keys, so
    their values are compared once per key, and only the pairs of a
    failing key are expanded.  Tables over two analyses, or whose
    ``products`` were handed out (and so may have been edited), are
    compared entry by entry."""
    if table_a.analysis is table_f.analysis and table_a._products is table_f._products is None:
        failing = {k for k, (value_a, value_f) in enumerate(zip(table_a.values, table_f.values))
                   if value_a[1] != value_f[1]}
        if not failing:
            return []
        return [((ea.g1, ea.g2), ea, ef)
                for ea, ef in zip(table_a.entries(failing), table_f.entries(failing))]
    failures = []
    fiber_only = [key for key in table_f.products if key not in table_a.products]
    for key in [*table_a.products, *fiber_only]:
        entry_a, entry_f = table_a.entry(*key), table_f.entry(*key)
        if entry_a.target != entry_f.target or entry_a.coords != entry_f.coords:
            failures.append((key, entry_a, entry_f))
    return failures

