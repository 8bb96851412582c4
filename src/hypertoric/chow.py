"""Degreewise-exact integral graded rings.

A sector ring is presented as Z[t1..td] modulo one product relation per
minimal unstable coordinate set (the factor for a coordinate of character w
is the linear form <w, t>); a presentation built from a model keeps each
relation's coordinate mask next to it.  Each graded piece, up to a
truncation bound, is Z^m over its monomials modulo the relation lattice,
held as the reduced Hermite basis of that lattice, which is unique per
lattice.  Piece k is built from piece k-1: the degree-k part of the ideal
is spanned by t_i times the degree-(k-1) part and the relations of degree
exactly k.  Every product of linear forms (relations, normal Euler classes,
generator products) is one kernel, ``product_coefficients``, that moves its
dense coefficient vector along the same cached "t_i times a monomial" maps.
Rank and torsion are read off the basis, and it gives canonical
coordinates, in which ring-map isomorphisms and Gysin pushforwards are
checked; a Gysin check runs the lattice test only where the coordinate
masks of two rings of one model give no certificate.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .exact import IntMatrix, as_int, hermite_reduce, hnf, invariant_factors
from .inertia import _bits, _mask, _traces
from .model import StackModel
from .poly import IntPoly, monomials_of_degree
from .value import Value


class GysinError(ValueError):
    """Pushforward well-definedness check failed for an embedding."""


class GradedPiece(NamedTuple):
    """Degree-k piece of a presentation as an abelian group.

    ``monomials`` is the free basis and ``basis`` the reduced Hermite basis
    of the relation lattice over it (``exact.hnf``), so two pieces are equal
    exactly when their lattices are.  Rank and torsion are read off it.
    """

    degree: int
    monomials: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def free_rank(self) -> int:
        return len(self.monomials) - len(self.basis)

    @property
    def invariants(self) -> tuple[int, tuple[int, ...]]:
        """The free rank and the invariant factors above 1.  The basis is
        already reduced, so the Smith form starts from its columns: a
        matrix and its transpose have the same invariant factors."""
        factors = invariant_factors(list(zip(*self.basis)), len(self.basis))
        return (self.free_rank, tuple(d for d in factors if d > 1))

    def describe_group(self) -> str:
        free, torsion = self.invariants
        parts = []
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append("Z^%d" % free)
        parts.extend("Z/%d" % t for t in torsion)
        return " x ".join(parts) if parts else "0"

    def canonical(self, coeffs) -> tuple[int, ...]:
        """Canonical coordinates of a coefficient vector over ``monomials``:
        its reduction by the Hermite basis rows in pivot order.  Two classes
        are equal iff these coordinates agree."""
        x = list(coeffs)
        if len(x) != len(self.monomials):
            raise ValueError("coefficient vector has wrong length")
        return tuple(hermite_reduce(x, self.basis))

    def representative(self, coords) -> IntPoly:
        """The polynomial whose coefficients are ``coords``; canonical
        coordinates are coefficients, so its class has those coordinates."""
        nvars = len(self.monomials[0]) if self.monomials else 0
        return IntPoly.from_dict(nvars, dict(zip(self.monomials, coords)))


class GradedRingPresentation(Value):
    """Z[t1..td] modulo homogeneous relations, evaluated degreewise up to
    ``truncation``.  Graded pieces are cached lazily.  ``num_vars``,
    ``truncation`` and the degree of a piece are read by ``exact.as_int``;
    a negative ``num_vars`` or ``truncation``, and a relation in another
    number of variables than ``num_vars``, raise ``ValueError``.

    A presentation is an immutable ``Value`` over its ring, ``num_vars``,
    ``relations`` and ``truncation``: equality compares these, and no
    field is assigned after construction.  Its read-once tables are cache
    slots, set once, with the fields (``_set``): ``degrees``, the degree of
    each relation, and, for a ring a model builds (``_trace_ring``),
    ``traces``, per relation the mask of the model's coordinates whose
    characters multiply to it (bit i for coordinate i); any other
    presentation has no ``traces``.  The masks are a certificate
    (``SectorEmbedding.check``), not part of the ring's value.
    ``__init__`` reads the degrees as it validates the relations
    (``IntPoly.homogeneous_degree`` refuses a non-homogeneous one); a ring
    a model builds is built by ``_derived``, unchecked, with each degree
    its trace mask's bit count.  A presentation is not hashable
    (``__hash__ = None``): its pieces fill a dict as they are read."""

    _fields = ("num_vars", "relations", "truncation")
    __slots__ = _fields + ("degrees", "traces", "_pieces")

    def __init__(self, num_vars: int, relations: tuple[IntPoly, ...], truncation: int):
        num_vars, truncation = as_int(num_vars), _truncation(truncation)
        if num_vars < 0:
            raise ValueError("number of variables must be nonnegative, got %d" % num_vars)
        degrees = []
        for r in relations:
            if r.nvars != num_vars:
                raise ValueError("relation %s is in %d variables, not %d" % (r, r.nvars, num_vars))
            if r.is_zero:
                raise ValueError("zero relation should have been dropped")
            degrees.append(r.homogeneous_degree())
            if not degrees[-1]:
                raise ValueError("degree-0 relation makes the ring trivial")
        self._set(num_vars, relations, truncation, tuple(degrees), ())

    def _set(self, num_vars: int, relations: tuple[IntPoly, ...], truncation: int,
             degrees: tuple[int, ...], traces: tuple[int, ...]) -> None:
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "_pieces", {})

    __hash__ = None

    @staticmethod
    def from_characters(num_vars: int, multisets, truncation: int) -> "GradedRingPresentation":
        """The ring of the products of linear forms, one per multiset of
        characters (``_relations``), with no certificate."""
        products = (product_of_forms(num_vars, [tuple(map(as_int, w)) for w in ws]) for ws in multisets)
        return GradedRingPresentation(num_vars, _relations(products), truncation)

    def piece(self, k: int) -> GradedPiece:
        k = as_int(k)
        if k < 0 or k > self.truncation:
            raise ValueError("degree %d outside truncation bound %d" % (k, self.truncation))
        if k not in self._pieces:
            self._pieces[k] = _build_piece(self, k)
        return self._pieces[k]


class GradedClass(Value):
    """A homogeneous class on one inertia sector (``component`` None marks
    the zero class with no sector attached)."""

    __slots__ = _fields = ("component", "poly")

    def __init__(self, component: object, poly: IntPoly):
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "poly", poly)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero


@functools.lru_cache(maxsize=256)
def _monomials(num_vars: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(monomials_of_degree(num_vars, k))


@functools.lru_cache(maxsize=256)
def _times_t(num_vars: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Per variable t_i, the position among the degree-(k+1) monomials of
    t_i times each degree-k monomial, in order."""
    index = {m: j for j, m in enumerate(_monomials(num_vars, k + 1))}
    return tuple(tuple(index[m[:i] + (m[i] + 1,) + m[i + 1:]] for m in _monomials(num_vars, k))
                 for i in range(num_vars))


def product_coefficients(num_vars: int, chars) -> list[int]:
    """The product of the linear forms <w, t> of ``chars``, with
    multiplicity, as its coefficients over the monomials of degree
    ``len(chars)`` in ``monomials_of_degree`` order: each factor adds
    w_i times the vector so far, moved along the map of t_i."""
    vec = [1]
    for k, w in enumerate(chars):
        if len(w) != num_vars:
            raise ValueError("character %r has wrong length for %d variables" % (w, num_vars))
        out = [0] * len(_monomials(num_vars, k + 1))
        for wi, moved in zip(w, _times_t(num_vars, k)):
            if wi:
                for j, c in zip(moved, vec):
                    out[j] += wi * c
        vec = out
    return vec


def product_of_forms(num_vars: int, chars) -> IntPoly:
    """The product of the linear forms <w, t> of ``chars``, with multiplicity."""
    return _vector_poly(num_vars, len(chars), product_coefficients(num_vars, chars))


def _vector_poly(num_vars: int, k: int, vec) -> IntPoly:
    """The polynomial of the int coefficient vector ``vec`` over the
    monomials of degree ``k``, as ``product_coefficients`` gives it."""
    # one degree's monomials in graded-lex order are already in term order
    return IntPoly(num_vars, tuple((m, c) for m, c in zip(_monomials(num_vars, k), vec) if c))


def _build_piece(pres: GradedRingPresentation, k: int) -> GradedPiece:
    """Piece ``k`` from piece ``k - 1``: the Hermite basis of t_i times each
    basis row of the lower piece, for every variable t_i, and of the
    relations of degree exactly ``k``.  Over Z these span the degree-k part
    of the ideal, so the basis is that of the full Macaulay matrix."""
    monos = _monomials(pres.num_vars, k)
    width = len(monos)
    vectors = [rel.coefficients_on(monos) for rel, deg in zip(pres.relations, pres.degrees)
               if deg == k]
    if k > 0:
        lower = pres.piece(k - 1)
        for moved in _times_t(pres.num_vars, k - 1):
            for row in lower.basis:
                v = [0] * width
                for j, c in zip(moved, row):
                    v[j] = c
                vectors.append(v)
    return GradedPiece(k, monos, hnf(vectors, width))


def presentation(model: StackModel, truncation: int | None = None) -> GradedRingPresentation:
    """Sector ring presentation of a model: one product relation per minimal
    unstable set, with its coordinate mask as the certificate of its
    factors.  It is the ring of the model's sector over all its
    coordinates (``_trace_ring``), whose minimal traces are the model's
    minimal unstable sets.  Default truncation is twice the ambient
    coordinate count."""
    truncation = 2 * model.num_coords if truncation is None else _truncation(truncation)
    return _trace_ring(model, _mask(range(1, model.num_coords + 1)), map(_mask, model.arrangement.unstable_minimal),
                       truncation, {})


def _relations(polys) -> tuple[IntPoly, ...]:
    """The distinct nonzero polynomials of ``polys``, homogeneous, in
    (degree, terms) order: the relations of a ring of products."""
    return tuple(sorted({p for p in polys if not p.is_zero}, key=lambda p: (sum(p.terms[0][0]), p.terms)))


def _trace_ring(model: StackModel, support: int, unstable, truncation: int, products: dict) -> GradedRingPresentation:
    """The ring of a model's sector over the coordinate mask ``support``:
    one relation per minimal trace of the minimal unstable masks
    ``unstable`` on it (``inertia._traces``), the product of the linear
    forms of the characters of the trace's coordinates, made once per mask
    in ``products``, the store of whoever builds the rings.  Zero products
    are dropped and equal ones kept once (``_relations``), and the ring
    keeps each relation's first mask (``traces``).  An empty trace raises
    ``ValueError``.  The one builder of ``presentation`` and of an
    orbifold geometry's sector rings, which pass a nonnegative int
    ``truncation``.  The ring is built unchecked (``_derived``): each
    relation is a nonzero product of as many linear forms in d variables
    as its mask has bits, so it is homogeneous of that degree, at least
    1."""
    table, traces = model.weights.columns, _traces(unstable, support)
    for s in traces:
        if s not in products:
            products[s] = product_of_forms(model.d, [table[i - 1] for i in _bits(s)])
    first = {products[s]: s for s in reversed(traces)}
    relations = _relations(first)
    masks = tuple(map(first.get, relations))
    return GradedRingPresentation._derived(model.d, relations, truncation, tuple(m.bit_count() for m in masks), masks)


def _truncation(value) -> int:
    """A truncation bound read by ``exact.as_int``, the one refusal of a
    negative one."""
    truncation = as_int(value)
    if truncation < 0:
        raise ValueError("truncation must be nonnegative, got %d" % truncation)
    return truncation


def graded_group(pres: GradedRingPresentation, k: int) -> GradedPiece:
    """Abelian-group invariants of the degree-k piece."""
    return pres.piece(k)


def reduce_class(pres: GradedRingPresentation, poly: IntPoly, degree: int | None = None) -> tuple[int, ...]:
    """Canonical coordinates of a homogeneous polynomial in its graded piece.
    The zero polynomial reduces to zero coordinates (at ``degree`` if given);
    ``degree`` is read by ``exact.as_int``, as ``piece`` reads its degree."""
    degree = None if degree is None else as_int(degree)
    deg = poly.homogeneous_degree()
    if deg is None:
        if degree is None:
            return ()
        deg = degree
    elif degree is not None and degree != deg:
        raise ValueError("polynomial has degree %d, expected %d" % (deg, degree))
    piece = pres.piece(deg)
    return piece.canonical(poly.coefficients_on(piece.monomials))


def is_zero_class(pres: GradedRingPresentation, poly: IntPoly) -> bool:
    return not any(reduce_class(pres, poly))


class IsoReport(NamedTuple):
    is_iso: bool
    failing_degree: int | None = None
    reason: str | None = None


def ring_map_is_iso(
    src: GradedRingPresentation,
    dst: GradedRingPresentation,
    var_images,
    bound: int,
) -> IsoReport:
    """Degreewise bijectivity of the graded ring map t_i -> var_images[i].

    For each degree k <= bound, with the images of the source monomials as
    a matrix: every source Hermite basis row, pushed through it, must reduce
    to zero in the target (once lower degrees pass, that checks the degree-k
    relations), the groups must have equal invariants, and the Hermite basis
    of the images and the target relations must be the identity (the map is
    onto).  Equal invariants plus surjectivity give bijectivity for finitely
    generated abelian groups.  A ``bound`` below 1 raises ``ValueError``.
    """
    bound = as_int(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1, got %d" % bound)
    images = list(var_images)
    if len(images) != src.num_vars:
        raise ValueError("expected %d variable images" % src.num_vars)
    for img in images:
        if img.nvars != dst.num_vars:
            raise ValueError("variable image lives in the wrong ring")
        if not img.is_zero and img.homogeneous_degree() != 1:
            raise ValueError("variable image %s is not homogeneous of degree 1" % img)

    # each image is a linear form, so a monomial's image is a product of them
    forms = [img.coefficients_on(_monomials(dst.num_vars, 1)) for img in images]
    for k in range(bound + 1):
        sp, dp = src.piece(k), dst.piece(k)
        columns = [product_coefficients(dst.num_vars, [w for w, e in zip(forms, m) for _ in range(e)])
                   for m in sp.monomials]
        for row in sp.basis:
            pushed = [sum(c * x for c, x in zip(row, col)) for col in zip(*columns)]
            if any(dp.canonical(pushed)):
                return IsoReport(False, k, "relations of degree %d do not map into the target ideal" % k)
        if sp.invariants != dp.invariants:
            return IsoReport(
                False, k,
                "graded groups differ: %s vs %s" % (sp.describe_group(), dp.describe_group()),
            )
        n_dst = len(dp.monomials)
        if hnf(columns + list(dp.basis), n_dst) != IntMatrix.identity(n_dst).entries:
            return IsoReport(False, k, "induced map is not surjective in degree %d" % k)
    return IsoReport(True)


class SectorEmbedding(Value):
    """Closed embedding of a smaller sector into a bigger one, over the same
    polynomial variables.  ``normal_chars`` are the characters of the
    deleted coordinates; their product of linear forms is the normal Euler
    polynomial.  An embedding built between two rings of one model
    (``_of_coordinates``) keeps the mask of those coordinates, ``normal``,
    outside its compared fields; any other has ``normal`` None.  No slots,
    so ``euler`` can cache; an embedding is not hashable, as its
    presentations are not.  ``__init__`` reads each normal character's
    entries by ``exact.as_int``."""

    _fields = ("sub", "ambient", "normal_chars")

    def __init__(self, sub: GradedRingPresentation, ambient: GradedRingPresentation,
                 normal_chars: tuple[tuple[int, ...], ...]):
        self._set(sub, ambient, tuple(tuple(map(as_int, w)) for w in normal_chars), None)

    def _set(self, sub: GradedRingPresentation, ambient: GradedRingPresentation,
             normal_chars: tuple[tuple[int, ...], ...], normal: int | None) -> None:
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "normal_chars", normal_chars)
        object.__setattr__(self, "normal", normal)

    @staticmethod
    def _of_coordinates(sub: GradedRingPresentation, ambient: GradedRingPresentation, normal,
                        table) -> "SectorEmbedding":
        """The embedding of a model's ring ``sub`` into another of its
        rings, ``ambient``, whose normal coordinates are ``normal``, in
        order, with their characters read off the model's character table
        ``table`` (coordinate i at i - 1), int tuples already, so built
        unchecked (``_derived``); their mask is kept, for the certificate
        of ``check``.  The caller guarantees what that certificate
        assumes: both rings are the model's (``_trace_ring``), and
        ``normal`` are the ambient's coordinates outside the sub's."""
        return SectorEmbedding._derived(sub, ambient, tuple(table[i - 1] for i in normal), _mask(normal))

    @functools.cached_property
    def euler(self) -> IntPoly:
        return product_of_forms(self.ambient.num_vars, self.normal_chars)

    def check(self) -> None:
        """Per-instance well-definedness: restriction must kill ambient
        relations, and pushing a sub relation must land in the ambient ideal.
        Failures raise loudly; nothing is silently accepted.

        A product of linear forms divides another when the coordinates of
        its characters are among the other's.  In an embedding built
        between two rings of one model (``_of_coordinates``), a relation's
        trace mask names its coordinates.  So an ambient relation r is zero
        on the subsector when some sub relation s has ``s & r == s``, and a
        sub relation s pushes into the ambient ideal when some ambient
        relation r has ``r & (s | normal) == r``.  Such a containment is the
        proof; the lattice test runs for every relation without one, and
        for every relation of any other embedding (``_uncertified``).  An
        embedding of a model's ring into itself with no normal coordinates
        is the identity map, and is proved with no relation read."""
        sub, ambient, normal = self.sub, self.ambient, self.normal
        if normal == 0 and sub is ambient:
            return
        masked = normal is not None
        for rel in _uncertified(ambient, sub.truncation, sub.traces if masked else (), 0):
            if not is_zero_class(sub, rel):
                raise GysinError(
                    "restriction ill-defined: ambient relation %s is nonzero on the subsector" % rel
                )
        if not all(map(any, self.normal_chars)):
            return  # a zero character: the normal Euler class is zero
        limit = ambient.truncation - len(self.normal_chars)
        for rel in _uncertified(sub, limit, ambient.traces if masked else (), normal):
            if not is_zero_class(ambient, rel * self.euler):
                raise GysinError(
                    "pushforward ill-defined: %s times the normal Euler class "
                    "is nonzero in the ambient ring" % rel
                )


def _uncertified(pres, limit: int, masks, more: int | None) -> list[IntPoly]:
    """The relations of ``pres`` of degree at most ``limit`` with no mask
    certificate: none of the relation masks ``masks`` of the other ring
    lies in theirs joined with the coordinates ``more`` (all of them when
    ``masks`` is empty)."""
    return [rel for rel, deg, s in itertools.zip_longest(pres.relations, pres.degrees, pres.traces)
            if deg <= limit and not any(r & (s | more) == r for r in masks)]


def gysin_push(embedding: SectorEmbedding, poly: IntPoly) -> IntPoly:
    """Pushforward of a class on the subsector: any polynomial lift times the
    normal Euler polynomial (the restriction map is the identity on
    variables, so the lift is the polynomial itself)."""
    embedding.check()
    return poly * embedding.euler
