"""Inertia decomposition of a stack model.

Enumerates the finite-order torus elements whose fixed locus meets the
stable locus, computes their fixed coordinate sets and ages, and realizes a
sector as a smaller model by deleting the non-fixed columns.

A torsion torus element is stored as a rational vector v in (Q/Z)^d in
canonical form (entries in [0,1), lowest terms); it acts on a coordinate of
character w by the root of unity with exponent <w, v>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .exact import cokernel_torsion_elements
from .model import (
    HYPERTORIC,
    LAWRENCE,
    StackModel,
    WeightMatrix,
    column_bases,
    direct_model,
    hypertoric_model,
    lawrence_model,
)


def fractional(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    q = Fraction(q)
    return Fraction(q.numerator % q.denominator, q.denominator)


@dataclass(frozen=True, order=True)
class TorsionElement:
    """A finite-order torus element, as a canonical vector in (Q/Z)^d."""

    v: tuple[Fraction, ...]

    @staticmethod
    def from_fractions(values) -> "TorsionElement":
        return TorsionElement(tuple(fractional(Fraction(x)) for x in values))

    @staticmethod
    def identity(d: int) -> "TorsionElement":
        return TorsionElement((Fraction(0),) * d)

    @property
    def d(self) -> int:
        return len(self.v)

    @property
    def order(self) -> int:
        return lcm(*(x.denominator for x in self.v)) if self.v else 1

    @property
    def is_identity(self) -> bool:
        return not any(self.v)

    def __add__(self, other: "TorsionElement") -> "TorsionElement":
        return TorsionElement.from_fractions(a + b for a, b in zip(self.v, other.v))

    def __neg__(self) -> "TorsionElement":
        return TorsionElement.from_fractions(-x for x in self.v)

    def pairing(self, w) -> Fraction:
        """<w, v> as an exact rational."""
        return sum((Fraction(c) * x for c, x in zip(w, self.v)), Fraction(0))

    def fixes(self, w) -> bool:
        return self.pairing(w).denominator == 1

    def as_strings(self) -> list[str]:
        return [str(x) for x in self.v]

    def __str__(self) -> str:
        return "(" + ", ".join(self.as_strings()) + ")"


@dataclass(frozen=True)
class InertiaComponent:
    """One inertia sector: the element, its fixed columns and its age.  The
    sector model is ``sector_model(model, fixed_columns)``, built on demand."""

    g: TorsionElement
    fixed_columns: frozenset[int]
    age: Fraction


@dataclass(frozen=True)
class DoubleInertiaComponent:
    """An ordered pair of sectors with common fixed locus meeting the stable
    locus; ``target`` is the product element g1 * g2."""

    g1: TorsionElement
    g2: TorsionElement
    common_fixed: frozenset[int]
    target: TorsionElement


def stabilizer_elements(a: WeightMatrix, basis) -> set[TorsionElement]:
    """The finite group of elements acting trivially on the basis columns:
    all v with <a_j, v> integral for j in the basis; order |det A_C|."""
    basis = tuple(sorted(basis))
    sub = a.columns_matrix(basis)
    if sub.rows != sub.cols or sub.det() == 0:
        raise ValueError("columns {%s} are not a basis" % ",".join(map(str, basis)))
    return {TorsionElement(v) for v in cokernel_torsion_elements(sub)}


def fixed_columns(a: WeightMatrix, g: TorsionElement) -> frozenset[int]:
    """Columns j with <a_j, v> integral.  In a doubled model x_j and y_j are
    fixed together since the dual coordinate carries -a_j."""
    return frozenset(j for j in range(1, a.n + 1) if g.fixes(a.column(j)))


def _stable_fixed(model: StackModel, cols: frozenset[int]) -> bool:
    """The columns contain a column basis, and the locus where exactly they
    survive meets the stable locus: no minimal unstable set lives on the
    dead coordinates.  The test for a sector and a pair of sectors alike."""
    a = model.base
    if len(cols) < a.d or a.matrix.submatrix_columns([j - 1 for j in sorted(cols)]).rank() != a.d:
        return False
    dead = model.coords_of_columns(set(range(1, model.n + 1)) - cols)
    return not any(s <= dead for s in model.arrangement.unstable_minimal)


def _in_inertia(model: StackModel, g: TorsionElement) -> bool:
    """A canonical element of the model's dimension whose fixed columns pass
    ``_stable_fixed``; it fixes a basis, so that basis's stabilizer has it."""
    if g.d != model.d or not all(0 <= x < 1 for x in g.v):
        return False
    return _stable_fixed(model, fixed_columns(model.base, g))


def inertia_elements(model: StackModel) -> list[TorsionElement]:
    """All torsion elements with stable fixed points: the union of the basis
    stabilizers, kept when the fixed locus meets the stable locus.  Sorted by
    canonical coordinates; always contains the identity."""
    a = model.base
    candidates: set[TorsionElement] = set()
    for basis in column_bases(a):
        candidates |= stabilizer_elements(a, basis)
    return sorted((g for g in candidates if _in_inertia(model, g)), key=lambda g: g.v)


def age(model: StackModel, g: TorsionElement) -> Fraction:
    """Sum of the fractional pairings of g over the model's tangent class;
    trivial summands (the moment directions of a hypertoric model) add 0."""
    if not _in_inertia(model, g):
        raise ValueError("element %s is not in the inertia of this model" % g)
    return _age_of(model, g)


def _age_of(model: StackModel, g: TorsionElement) -> Fraction:
    return sum(
        (m * fractional(g.pairing(w)) for w, m in model.tangent_class.terms),
        Fraction(0),
    )


def sector_model(model: StackModel, fixed: frozenset[int]) -> StackModel:
    """The smaller model obtained by deleting the non-fixed columns.

    GIT models rerun the sigma machinery on the surviving columns with the
    same character; direct models restrict their unstable sets to the
    surviving coordinates.
    """
    a = model.base
    keep = sorted(fixed)
    sub = WeightMatrix(a.matrix.submatrix_columns([j - 1 for j in keep]))
    if model.kind in (LAWRENCE, HYPERTORIC):
        builder = lawrence_model if model.kind == LAWRENCE else hypertoric_model
        return builder(sub, model.theta)
    # direct: restrict each minimal unstable set and re-minimalize
    renumber = {j: i + 1 for i, j in enumerate(keep)}
    restricted = {frozenset(renumber[j] for j in s if j in fixed)
                  for s in model.arrangement.unstable_minimal}
    if frozenset() in restricted:
        raise ValueError("fixed locus lies in the unstable locus")
    minimal = [s for s in restricted if not any(t < s for t in restricted)]
    return direct_model(sub, unstable=minimal, theta=model.theta)


def inertia_components(model: StackModel) -> list[InertiaComponent]:
    """All sectors, sorted by canonical element coordinates."""
    a = model.base
    return [
        InertiaComponent(g, fixed_columns(a, g), _age_of(model, g))
        for g in inertia_elements(model)
    ]


def _pairs(model: StackModel, fixed: dict) -> list[DoubleInertiaComponent]:
    """Ordered pairs of the inertia elements keyed in ``fixed`` (element ->
    fixed columns, in sector order) whose common fixed columns pass
    ``_stable_fixed``."""
    out = []
    for (g1, f1), (g2, f2) in itertools.product(fixed.items(), repeat=2):
        common = f1 & f2
        if _stable_fixed(model, common):
            out.append(DoubleInertiaComponent(g1, g2, common, g1 + g2))
    return out


def double_inertia(model: StackModel) -> list[DoubleInertiaComponent]:
    """All ordered pairs of inertia elements whose common fixed columns
    contain a column basis and meet the stable locus."""
    return _pairs(model, {g: fixed_columns(model.base, g) for g in inertia_elements(model)})
