"""Orbifold product machinery.

Logarithmic traces, the obstruction class of a pair of sectors, Euler-class
polynomials, the star product on inertia sectors with its full structure
table, and the two executable verification routines: obstruction classes
restrict along the moment-fiber embedding, and the two sides carry
isomorphic orbifold rings with identical structure constants and ages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import CharacterClass
from .chow import (
    GradedClass,
    GradedRingPresentation,
    IsoReport,
    SectorEmbedding,
    reduce_class,
)
from .inertia import (
    DoubleInertiaComponent,
    InertiaComponent,
    TorsionElement,
    _pairs,
    inertia_components,
    sector_unstable_sets,
)
from .model import StackModel, WeightMatrix, _moment_fiber, lawrence_model
from .poly import IntPoly


class ObstructionError(ValueError):
    """Obstruction class failed to be a bundle: the model is inconsistent."""


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


class _Obstructions:
    """The obstruction classes of one model's pairs of inertia elements.

    Per character w_k of the model's tangent class, an element g has the
    exponent e_k(g) = <w_k, nums> mod ord g; the exponent vector of each
    element is computed once, on first use.  The *selection* of an ordered
    pair is the int tuple of the k with e_k(g1)/ord g1 + e_k(g2)/ord g2 > 1,
    which is the rule of ``obstruction``; the obstruction class is those
    terms of the tangent class, so it depends on the pair only through its
    selection and is built and bundle-tested once per distinct selection.
    A selection that fails the test is never stored: every pair that has it
    raises ``ObstructionError`` again."""

    def __init__(self, model: StackModel):
        self.model = model
        self._terms = model.tangent_class.terms
        self._exponents: dict = {}
        self._classes: dict = {}

    def _exponent_vector(self, g: TorsionElement) -> tuple[int, ...]:
        e = self._exponents.get(g)
        if e is None:
            e = self._exponents[g] = tuple(g.exponent(w) for w, _ in self._terms)
        return e

    def selection(self, g1: TorsionElement, g2: TorsionElement) -> tuple[int, ...]:
        """Indices of the tangent terms in the obstruction of (g1, g2)."""
        n1, n2 = g1.order, g2.order
        both = n1 * n2
        exps = zip(self._exponent_vector(g1), self._exponent_vector(g2))
        return tuple(k for k, (e1, e2) in enumerate(exps) if e1 * n2 + e2 * n1 > both)

    def class_for(self, sel: tuple[int, ...], g1: TorsionElement,
                  g2: TorsionElement) -> CharacterClass:
        """The class of the selection ``sel`` of (g1, g2), checked to be a
        bundle; the pair only names a failure."""
        out = self._classes.get(sel)
        if out is None:
            # a subsequence of sorted, distinct, nonzero terms is a canonical class
            out = CharacterClass(self.model.d, tuple(self._terms[k] for k in sel), Fraction(0))
            if not out.is_bundle():
                raise ObstructionError(
                    "obstruction of (%s, %s) is not a bundle: %s" % (g1, g2, out)
                )
            self._classes[sel] = out
        return out

    def class_of(self, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
        return self.class_for(self.selection(g1, g2), g1, g2)


class _Analysis:
    """The inertia analysis of one model, read by every verifier and table
    of that model: the sectors, the stable pairs (the double inertia), each
    pair's obstruction selection, computed once, and the obstruction kernel
    that turns a selection into its bundle-tested class.  Nothing here
    depends on a degree bound.  Every reader of the memo gets the same
    object, so only the kernel's own caches and the pair index ever
    change."""

    def __init__(self, model: StackModel):
        self.model = model
        self.components = tuple(inertia_components(model))
        self.pairs = tuple(_pairs(model, {c.g: c.fixed_columns for c in self.components}))
        self.obstructions = _Obstructions(model)
        self.selections = tuple(self.obstructions.selection(p.g1, p.g2) for p in self.pairs)
        self.by_element = {c.g: c for c in self.components}

    @functools.cached_property
    def by_pair(self) -> dict:
        """Pair index by (g1, g2), built on first use: ``star`` and
        ``SectorGeometry.pair`` read it, ``verify`` does not."""
        return {(p.g1, p.g2): i for i, p in enumerate(self.pairs)}

    def obstruction_of(self, i: int) -> CharacterClass:
        """The class of pair ``i``; a non-bundle raises ``ObstructionError``."""
        p = self.pairs[i]
        return self.obstructions.class_for(self.selections[i], p.g1, p.g2)


@functools.lru_cache(maxsize=2)
def _analysis(model: StackModel) -> _Analysis:
    """The analysis of ``model``, keyed by its value: equal models share
    one, and a model with other data (another tangent class, say) gets its
    own.  Two entries hold the ambient model and the fiber of one
    ``verify``, whose two checks both read them."""
    return _Analysis(model)


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
    0 otherwise: w enters with its full multiplicity m or not at all.

    The class is thus determined by which terms enter (the pair's
    selection), so each model's shared analysis keeps one kernel that
    computes each element's exponents once and each class once per
    distinct selection, and both verifiers read it; this function runs the
    same kernel for one pair.
    """
    return _Obstructions(model).class_of(g1, g2)


def euler_poly(bundle: CharacterClass) -> IntPoly:
    """Top Chern class of a character bundle: the product of the linear
    forms <w, t>, with multiplicity.  The empty bundle gives 1; any trivial
    summand contributes a zero factor."""
    if not bundle.is_bundle():
        raise ValueError("euler class needs nonnegative integer multiplicities: %s" % bundle)
    if bundle.trivial > 0:
        return IntPoly.zero(bundle.dim)
    out = IntPoly.one(bundle.dim)
    for w, m in bundle.terms:
        out = out * IntPoly.linear_form(w) ** int(m)
    return out


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
    - one Euler polynomial per obstruction class, and one generator product
      per (obstruction class, embedding).

    Every geometry of the call reads the same store, so the fiber of
    ``verify`` reads the rings, checks and products the ambient side has
    already built.  A fiber class or ring that differs from the ambient one
    is another key, so it is built from the fiber's own data."""

    def __init__(self):
        self._by_characters: dict = {}
        self._rings: dict = {}
        self._embeddings: dict = {}
        self._eulers: dict = {}
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
        its canonical coordinates in the target ring.  The store holds each
        embedding it hands out, one object per value, so the object's
        identity keys its value."""
        key = (obstruction_class, id(emb))
        out = self._products.get(key)
        if out is None:
            eu = self._eulers.get(obstruction_class)
            if eu is None:
                eu = self._eulers[obstruction_class] = euler_poly(obstruction_class)
            poly = eu * emb.euler
            _check_truncation(poly, emb.ambient.truncation)
            out = self._products[key] = (poly, reduce_class(emb.ambient, poly))
        return out


def _check_truncation(poly: IntPoly, truncation: int) -> None:
    deg = poly.homogeneous_degree()
    if deg is not None and deg > truncation:
        raise ValueError("product degree %d exceeds the truncation bound %d" % (deg, truncation))


@dataclass
class SectorGeometry:
    """A model's inertia analysis with the rings over it, at one
    truncation.  The sectors, pairs, selections and obstruction kernel are
    the model's shared analysis (``_analysis``), computed once per model
    value and read by ``verify_obstruction_pullback`` too.  A sector's ring
    depends only on its fixed columns: it is read straight from the
    characters of the sector's minimal unstable sets
    (``inertia.sector_unstable_sets``), with no sector model built, once per
    fixed set and per geometry.  Presentations, the embeddings between them
    and the generator products come from the ring store (``_RingStore``),
    one per value, so geometries that share a store share them; a
    generator product depends only on its obstruction class and the
    embedding it pushes along.  A negative truncation raises ``ValueError``."""

    model: StackModel
    truncation: int
    analysis: _Analysis = field(init=False, repr=False)
    components: tuple[InertiaComponent, ...] = field(init=False)
    pairs: tuple[DoubleInertiaComponent, ...] = field(init=False)
    obstructions: _Obstructions = field(init=False, repr=False)
    _presentations: dict = field(default_factory=dict)
    _embeddings: dict = field(default_factory=dict)
    _rings: _RingStore = field(default_factory=_RingStore, repr=False)

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be nonnegative, got %d" % self.truncation)
        self.analysis = _analysis(self.model)
        self.components = self.analysis.components
        self.pairs = self.analysis.pairs
        self.obstructions = self.analysis.obstructions

    def component(self, g: TorsionElement) -> InertiaComponent:
        try:
            return self.analysis.by_element[g]
        except KeyError:
            raise ValueError("element %s is not an inertia element" % g) from None

    def pair(self, g1, g2) -> DoubleInertiaComponent | None:
        i = self.analysis.by_pair.get((g1, g2))
        return None if i is None else self.pairs[i]

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
            coords = [i for j in sorted(big - small) for i in sorted(self.model.coords_of_columns({j}))]
            self._embeddings[key] = self._rings.embedding(
                self.presentation_for(small),
                self.presentation_for(big),
                tuple(self.model.coordinate_char(i) for i in coords),
            )
        return self._embeddings[key]

    def product(self, i: int) -> tuple:
        """The generator product of pair ``i`` and its coordinates in the
        target's ring, from the store; a non-bundle obstruction raises
        ``ObstructionError``."""
        obstruction_class = self.analysis.obstruction_of(i)
        pair = self.pairs[i]
        emb = self.embedding(pair.common_fixed, self.component(pair.target).fixed_columns)
        return self._rings.product(obstruction_class, emb)

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
    i = geo.analysis.by_pair.get((alpha.component, beta.component))
    if i is None:
        geo.component(alpha.component)
        geo.component(beta.component)
        return _zero_class(model.d)
    product, _ = geo.product(i)
    pushed = alpha.poly * beta.poly * product
    _check_truncation(pushed, geo.truncation)
    return GradedClass(geo.pairs[i].target, pushed)


@dataclass(frozen=True)
class ProductEntry:
    g1: TorsionElement
    g2: TorsionElement
    target: TorsionElement | None
    poly: IntPoly
    coords: tuple[int, ...]


@dataclass
class OrbifoldTable:
    """Structure constants of the star product on sector generators: one
    entry per pair of the double inertia, in pair order; absent means zero."""

    geometry: SectorGeometry
    components: tuple[InertiaComponent, ...]
    products: dict

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

    The table's geometry reads the model's shared analysis (``_analysis``),
    so its sectors, pairs and pair selections are those the pullback check
    reads; its truncation is its own, since it depends on ``bound``, and its
    presentations, embeddings and products come from a ring store of its
    own.

    A generator product is the Euler polynomial of the pair's obstruction
    class times the normal Euler factor of the common fixed locus in the
    target's, reduced in the target's presentation; the ring store builds
    it once per (class, embedding).  The table looks it up once per key
    (obstruction, common fixed set, target fixed set), and every later pair
    with that key gets the same polynomial and coordinates.  The obstruction
    enters the key as its selection, the int tuple of the tangent terms it
    consists of, which determines it; each stable pair's selection is still
    bundle-tested, so a non-bundle still raises.  A bound below 1 raises."""
    return _table(model, bound, _RingStore())


def _table(model: StackModel, bound: int | None, rings: _RingStore) -> OrbifoldTable:
    """``orbifold_table`` with its rings and products read from, and added
    to, ``rings``."""
    if bound is not None and bound < 1:
        raise ValueError("bound must be at least 1, got %d" % bound)
    floor = bound if bound is not None else 2 * model.num_coords
    # Structure polynomials have degree age(g1)+age(g2)-age(g1*g2).
    top_age = max(c.age for c in _analysis(model).components)
    geo = SectorGeometry(model, max(floor, int(2 * top_age) + 1), _rings=rings)
    analysis = geo.analysis
    products = {}
    by_key: dict = {}
    for i, pair in enumerate(geo.pairs):
        analysis.obstruction_of(i)  # the bundle test; a failure raises here
        key = (analysis.selections[i], pair.common_fixed,
               analysis.by_element[pair.target].fixed_columns)
        found = by_key.get(key)
        if found is None:
            found = by_key[key] = geo.product(i)
        poly, coords = found
        products[(pair.g1, pair.g2)] = ProductEntry(pair.g1, pair.g2, pair.target, poly, coords)
    return OrbifoldTable(geo, geo.components, products)


@dataclass(frozen=True)
class PullbackCheck:
    g1: TorsionElement
    g2: TorsionElement
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ObstructionPullbackReport:
    ok: bool
    checked: int
    failures: tuple[PullbackCheck, ...]


def verify_obstruction_pullback(a: WeightMatrix, theta) -> ObstructionPullbackReport:
    """On every double-inertia component, the obstruction class computed from
    the moment-fiber tangent data must equal the restriction of the ambient
    one (restriction keeps all characters, so this is equality of exact
    character multisets), and both must be genuine bundles.

    Each side is read from its own model's shared analysis (``_analysis``):
    its pairs, its pair selections, and its obstruction kernel, built from
    that model's own tangent class, so ``verify_orbifold_iso`` on the same
    input reuses them.  Each class is built once per distinct selection,
    and the two sides' classes, not their selections, are compared once per
    distinct (ambient selection, fiber selection).  Every pair is still
    bundle-tested and a failing pair is listed on its own: a non-bundle
    selection is never cached, so every pair that has it is listed in
    ``failures``, and so is every pair whose two classes differ."""
    model = lawrence_model(a, theta)
    ambient, fiber = _analysis(model), _analysis(_moment_fiber(model))
    pairs = ambient.pairs
    if [(p.g1, p.g2) for p in fiber.pairs] != [(p.g1, p.g2) for p in pairs]:
        return ObstructionPullbackReport(
            False, 0, (PullbackCheck(None, None, False, "double inertia components differ"),)
        )
    failures = []
    same: dict = {}
    for i, p in enumerate(pairs):
        try:
            r_ambient = ambient.obstruction_of(i)
            r_fiber = fiber.obstruction_of(i)
        except ObstructionError as exc:
            failures.append(PullbackCheck(p.g1, p.g2, False, str(exc)))
            continue
        key = (ambient.selections[i], fiber.selections[i])
        equal = same.get(key)
        if equal is None:
            equal = same[key] = r_ambient == r_fiber
        if not equal:
            failures.append(
                PullbackCheck(
                    p.g1, p.g2, False,
                    "ambient %s vs fiber %s" % (r_ambient, r_fiber),
                )
            )
    return ObstructionPullbackReport(not failures, len(pairs), tuple(failures))


@dataclass(frozen=True)
class OrbifoldIsoReport:
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
    in ``ring_failures``.  Products are compared on the ambient pairs, then
    the fiber-only ones, each a product failure.  A ``bound`` below 1
    raises ``ValueError``."""
    ambient = lawrence_model(a, theta)
    fiber = _moment_fiber(ambient)
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

    product_failures = []
    fiber_only = [key for key in table_f.products if key not in table_a.products]
    for key in [*table_a.products, *fiber_only]:
        entry_a, entry_f = table_a.entry(*key), table_f.entry(*key)
        if entry_a.target != entry_f.target or entry_a.coords != entry_f.coords:
            product_failures.append((key, entry_a, entry_f))

    ok = not (ring_failures or age_failures or product_failures)
    return OrbifoldIsoReport(
        ok,
        len(table_a.components),
        tuple(ring_failures),
        tuple(product_failures),
        tuple(age_failures),
    )
