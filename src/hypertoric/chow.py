"""Degreewise-exact integral graded rings.

A sector ring is presented as Z[t1..td] modulo one product relation per
minimal unstable coordinate set (the factor for a coordinate of character w
is the linear form <w, t>); a presentation built from a model keeps each
relation's multiset of characters next to it.  Each graded piece, up to a
truncation bound, is Z^m over its monomials modulo the relation lattice,
held as the reduced Hermite basis of that lattice, which is unique per
lattice.  Piece k is built from piece k-1: the degree-k part of the ideal
is spanned by t_i times the degree-(k-1) part and the relations of degree
exactly k.  Every product of linear forms (relations, normal Euler classes,
generator products) is one kernel, ``product_coefficients``, that moves its
dense coefficient vector along the same cached "t_i times a monomial" maps.
Rank and torsion are read off the basis, and it gives canonical
coordinates, in which ring-map isomorphisms and Gysin pushforwards are
checked; a Gysin check runs the lattice test only where the presentations'
character multisets give no certificate.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import NamedTuple

from .exact import IntMatrix, as_int, hermite_reduce, hnf, invariant_factors
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
        """The free rank and the invariant factors above 1."""
        factors = invariant_factors(self.basis, len(self.monomials))
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


class GradedRingPresentation:
    """Z[t1..td] modulo homogeneous relations, evaluated degreewise up to
    ``truncation`` (at least 0).  Graded pieces are cached lazily.

    Each presentation holds its read-once tables: ``degrees``, the degree
    of each relation, read as the relations are validated, and, for a
    presentation made by ``from_characters``, ``characters``, one sorted
    multiset of characters per relation whose product of linear forms is
    that relation, with ``counters``, the same multisets as ``Counter``s;
    otherwise ``characters`` is None and ``counters`` empty.  The multisets
    are a certificate, not part of the ring's value: equality compares the
    relations only, and a presentation is not hashable."""

    __slots__ = ("num_vars", "relations", "truncation", "degrees", "characters", "counters", "_pieces")

    def __init__(self, num_vars: int, relations: tuple[IntPoly, ...], truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative, got %d" % truncation)
        degrees = []
        for r in relations:
            if r.is_zero:
                raise ValueError("zero relation should have been dropped")
            if not r.is_homogeneous():
                raise ValueError("relation %s is not homogeneous" % r)
            degrees.append(r.homogeneous_degree())
            if not degrees[-1]:
                raise ValueError("degree-0 relation makes the ring trivial")
        self.num_vars, self.relations, self.truncation = num_vars, relations, truncation
        self.degrees = tuple(degrees)
        self.characters: tuple | None = None
        self.counters: tuple[Counter, ...] = ()
        self._pieces: dict = {}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.num_vars, self.relations, self.truncation) == (
                other.num_vars, other.relations, other.truncation)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "GradedRingPresentation(num_vars=%r, relations=%r, truncation=%r)" % (
            self.num_vars, self.relations, self.truncation)

    @staticmethod
    def from_characters(num_vars: int, multisets, truncation: int) -> "GradedRingPresentation":
        """The ring of the products of linear forms, one per multiset of
        characters: zero products are dropped, equal ones kept once, with
        the first multiset that gives them as their certificate."""
        by_poly: dict = {}
        for chars in multisets:
            chars = tuple(sorted(tuple(map(as_int, w)) for w in chars))
            poly = product_of_forms(num_vars, chars)
            if not poly.is_zero:
                by_poly.setdefault(poly, chars)
        # a nonzero product of k linear forms has degree k
        rels = sorted(by_poly, key=lambda p: (len(by_poly[p]), p.terms))
        out = GradedRingPresentation(num_vars, tuple(rels), truncation)
        out.characters = tuple(by_poly[r] for r in rels)
        out.counters = tuple(map(Counter, out.characters))
        return out

    def piece(self, k: int) -> GradedPiece:
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
    def degree(self):
        return self.poly.homogeneous_degree()

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
    # one degree's monomials in graded-lex order are already in term order
    coeffs = zip(_monomials(num_vars, len(chars)), product_coefficients(num_vars, chars))
    return IntPoly(num_vars, tuple((m, c) for m, c in coeffs if c))


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
    unstable set, with its characters as the certificate of its factors.
    Default truncation is twice the ambient coordinate count."""
    if truncation is None:
        truncation = 2 * model.num_coords
    multisets = [[model.coordinate_char(j) for j in s] for s in model.arrangement.unstable_minimal]
    return GradedRingPresentation.from_characters(model.d, multisets, truncation)


def graded_group(pres: GradedRingPresentation, k: int) -> GradedPiece:
    """Abelian-group invariants of the degree-k piece."""
    return pres.piece(k)


def reduce_class(pres: GradedRingPresentation, poly: IntPoly, degree: int | None = None) -> tuple[int, ...]:
    """Canonical coordinates of a homogeneous polynomial in its graded piece.
    The zero polynomial reduces to zero coordinates (at ``degree`` if given)."""
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
    polynomial.  No slots, so ``euler`` can cache; an embedding is not
    hashable, as its presentations are not."""

    _fields = ("sub", "ambient", "normal_chars")

    def __init__(self, sub: GradedRingPresentation, ambient: GradedRingPresentation,
                 normal_chars: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "normal_chars", tuple(tuple(map(as_int, w)) for w in normal_chars))

    @functools.cached_property
    def euler(self) -> IntPoly:
        return product_of_forms(self.ambient.num_vars, self.normal_chars)

    def check(self) -> None:
        """Per-instance well-definedness: restriction must kill ambient
        relations, and pushing a sub relation must land in the ambient ideal.
        Failures raise loudly; nothing is silently accepted.

        A product of linear forms divides another when its multiset of
        characters is contained, with multiplicity, in the other's.  So an
        ambient relation containing some sub relation's characters is zero
        on the subsector, and a sub relation whose characters plus the
        normal characters contain some ambient relation's pushes into the
        ambient ideal.  Such a containment, read off the presentations'
        ``counters``, is the proof; the lattice test runs for every relation
        without one (``_uncertified``)."""
        for rel in _uncertified(self.ambient, self.sub.truncation, self.sub, {}):
            if not is_zero_class(self.sub, rel):
                raise GysinError(
                    "restriction ill-defined: ambient relation %s is nonzero on the subsector" % rel
                )
        if not all(map(any, self.normal_chars)):
            return  # a zero character: the normal Euler class is zero
        limit = self.ambient.truncation - len(self.normal_chars)
        for rel in _uncertified(self.sub, limit, self.ambient, Counter(self.normal_chars)):
            if not is_zero_class(self.ambient, rel * self.euler):
                raise GysinError(
                    "pushforward ill-defined: %s times the normal Euler class "
                    "is nonzero in the ambient ring" % rel
                )


def _uncertified(pres, limit: int, other, more: dict) -> list[IntPoly]:
    """The relations of ``pres`` of degree at most ``limit`` with no
    certificate: no relation multiset of ``other`` lies in theirs plus
    ``more``, with multiplicity (all of them, if either has no multisets)."""
    return [rel for rel, deg, chars in itertools.zip_longest(pres.relations, pres.degrees, pres.counters)
            if deg <= limit and not (chars and any(
                all(chars.get(w, 0) + more.get(w, 0) >= m for w, m in c.items()) for c in other.counters))]


def gysin_push(embedding: SectorEmbedding, poly: IntPoly) -> IntPoly:
    """Pushforward of a class on the subsector: any polynomial lift times the
    normal Euler polynomial (the restriction map is the identity on
    variables, so the lift is the polynomial itself)."""
    embedding.check()
    return poly * embedding.euler
