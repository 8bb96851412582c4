"""Inertia decomposition of a stack model.

Enumerates the finite-order torus elements whose fixed locus meets the
stable locus, computes their fixed coordinate sets and ages, and realizes a
sector as the restriction of its model to the coordinates over the fixed
columns: the sector's sigma sets, unstable sets and tangent class are read
off the model's, with one rule for every kind and no model rebuilt.
Stability is decided on column sets held as int bitmasks (``_Stability``).

A torsion torus element v in (Q/Z)^d is stored as integer numerators over
its order N: v = nums / N with every numerator in [0, N) and
gcd(N, *nums) = 1, so each element has one representation.  It acts on a
coordinate of character w by the N-th root of unity to the power
<w, nums> mod N, and all torsion arithmetic (sums, fixed columns, ages) is on
these ints; Fractions appear only where a value leaves the module.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .characters import CharacterClass
from .exact import cokernel_torsion_numerators
from .model import SigmaSet, StableArrangement, StackModel, WeightMatrix, _coordinate_labels, _integral, column_bases
from .value import Value


def fractional(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    q = Fraction(q)
    return Fraction(q.numerator % q.denominator, q.denominator)


@functools.total_ordering
class TorsionElement(Value):
    """A finite-order torus element v = nums / order in (Q/Z)^d.

    ``order`` is the order N of the element and ``nums`` its integer
    numerators, each in [0, N), with gcd(N, *nums) = 1; the constructor
    refuses any other form, so equality and the hash, both ``Value``'s,
    compare int tuples.  Elements sort as their canonical vectors ``v``
    do; an element of another dimension is refused by
    ``_same_dimension``."""

    __slots__ = _fields = ("order", "nums")

    def __init__(self, order: int, nums: tuple[int, ...]):
        if order < 1 or not all(0 <= a < order for a in nums) or gcd(order, *nums) != 1:
            raise ValueError("not a canonical torsion element: %r over %r" % (nums, order))
        self._set(order, nums)

    @staticmethod
    def _reduced(order: int, nums) -> "TorsionElement":
        """The element nums / order, for any ints (taken mod order) and a
        positive ``order``; canonical by construction, so built unchecked
        (``_derived``)."""
        nums = [a % order for a in nums]
        g = gcd(order, *nums)
        return TorsionElement._derived(order // g, tuple(a // g for a in nums))

    @staticmethod
    def from_fractions(values) -> "TorsionElement":
        """The element of the rationals ``values`` mod 1: their numerators
        over the common denominator, read by ``model._integral`` under
        ``exact.as_fraction_vector``'s rule, so a bool, a string, ``None``
        or an infinity is refused with ``ValueError``."""
        nums, order = _integral(values)
        return TorsionElement._reduced(order, nums)

    @staticmethod
    def identity(d: int) -> "TorsionElement":
        return TorsionElement(1, (0,) * d)

    @property
    def v(self) -> tuple[Fraction, ...]:
        """The canonical vector in [0, 1)^d."""
        return tuple(Fraction(a, self.order) for a in self.nums)

    @property
    def d(self) -> int:
        return len(self.nums)

    @property
    def is_identity(self) -> bool:
        return self.order == 1

    def __lt__(self, other: "TorsionElement") -> bool:
        if not isinstance(other, TorsionElement):
            return NotImplemented
        _same_dimension(self.d, other)
        # a/N < b/M  <=>  a*M < b*N, entry by entry
        return (tuple(a * other.order for a in self.nums)
                < tuple(b * self.order for b in other.nums))

    def __add__(self, other: "TorsionElement") -> "TorsionElement":
        _same_dimension(self.d, other)
        order = lcm(self.order, other.order)
        s, t = order // self.order, order // other.order
        return TorsionElement._reduced(order, [a * s + b * t for a, b in zip(self.nums, other.nums)])

    def __neg__(self) -> "TorsionElement":
        return TorsionElement(self.order, tuple(-a % self.order for a in self.nums))

    def exponent(self, w) -> int:
        """<w, nums> mod order: g acts on the character w by the order-th
        root of unity to this power."""
        return sum(map(mul, w, self.nums)) % self.order

    def pairing(self, w) -> Fraction:
        """<w, v> as an exact rational."""
        return Fraction(sum(map(mul, w, self.nums)), self.order)

    def fixes(self, w) -> bool:
        return self.exponent(w) == 0

    def as_strings(self) -> list[str]:
        return [str(x) for x in self.v]

    def __str__(self) -> str:
        return "(" + ", ".join(self.as_strings()) + ")"


class InertiaComponent(NamedTuple):
    """One inertia sector: the element, its fixed columns and its age.  The
    sector model is ``sector_model(model, fixed_columns)``, built on demand."""

    g: TorsionElement
    fixed_columns: frozenset[int]
    age: Fraction


class DoubleInertiaComponent(NamedTuple):
    """An ordered pair of sectors with common fixed locus meeting the stable
    locus; ``target`` is the product element g1 * g2."""

    g1: TorsionElement
    g2: TorsionElement
    common_fixed: frozenset[int]
    target: TorsionElement


def stabilizer_elements(a: WeightMatrix, basis) -> set[TorsionElement]:
    """The finite group of elements acting trivially on the basis columns:
    all v with <a_j, v> integral for j in the basis; order |det A_B|.  The
    dual of ``WeightMatrix.basis_lattice``, which refuses columns that are
    not d of rank d with ``ModelError``."""
    big, rows = cokernel_torsion_numerators(a.basis_lattice(basis))
    return {TorsionElement._reduced(big, row) for row in rows}


def _same_dimension(d: int, *elements: TorsionElement) -> None:
    """Refuse an element whose dimension is not ``d``: a pairing zips the
    numerators with a character, so it would read only the shorter one."""
    for g in elements:
        if g.d != d:
            raise ValueError("element %s has dimension %d, not %d" % (g, g.d, d))


def fixed_columns(a: WeightMatrix, g: TorsionElement) -> frozenset[int]:
    """Columns j with <a_j, v> integral, that is <a_j, nums> = 0 mod the
    order.  In a doubled model x_j and y_j are fixed together since the dual
    coordinate carries -a_j.  An element of another dimension than the
    weights' raises ``ValueError``."""
    _same_dimension(a.d, g)
    nums, order = g.nums, g.order
    return frozenset(j for j, w in enumerate(a.columns, 1) if not sum(map(mul, w, nums)) % order)


def _mask(indices) -> int:
    """The int bitmask of distinct column or coordinate indices: bit j for j."""
    return sum(1 << j for j in indices)


def _bits(mask: int) -> list[int]:
    """The indices of the int bitmask ``mask``, ascending: the inverse of
    ``_mask``."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


@functools.cache
def _columns(mask: int) -> frozenset[int]:
    """The index set of the int bitmask ``mask`` (``_bits``): the one place
    a column or coordinate mask becomes a set, where it leaves the double
    inertia or the trace rule, with one frozenset shared per distinct
    mask."""
    return frozenset(_bits(mask))


def _traces(unstable, alive: int) -> list[int]:
    """The trace rule on ints: the minimal traces of the minimal unstable
    coordinate masks ``unstable`` on the coordinate mask ``alive``, ordered
    by (size, sorted elements).  An empty trace means the fixed locus lies
    in the unstable locus, and raises ``ValueError``.  The one owner of the
    rule: ``sector_unstable_sets`` reads it on sets, and the sector rings
    of an orbifold geometry on masks."""
    traces = {u & alive for u in unstable}
    if 0 in traces:
        raise ValueError("fixed locus lies in the unstable locus")
    minimal = [s for s in traces if not any(t & s == t != s for t in traces)]
    return sorted(minimal, key=lambda s: (s.bit_count(), _bits(s)))


class _Stability:
    """One model's stability rule on column sets held as int bitmasks
    (``_mask``), decided once per mask, for sectors and pairs alike.  A set
    passes when it contains a basis mask (so its rank is d, with no Hermite
    form) and every minimal unstable coordinate mask meets the coordinates
    over it: over a column mask M they are M | M << n in a doubled model
    (y_j is bit n + j), else M (``_shift``).  ``bases`` are the sigma-set
    bases, one per column basis, and a model with none (a direct model
    built from unstable sets) reads ``column_bases`` once.  The table has
    this one mode: the one-set test behind ``age`` is ``_stable_fixed``,
    on sets."""

    __slots__ = ("bases", "_basis_masks", "_unstable", "_shift", "_decided")

    def __init__(self, model: StackModel):
        self.bases = bases = tuple(s.basis for s in model.arrangement.sigma_sets) or tuple(column_bases(model.base))
        self._basis_masks = tuple(map(_mask, bases))
        self._unstable = tuple(map(_mask, model.arrangement.unstable_minimal))
        self._shift = model.n if model.doubled else 0
        self._decided: dict[int, bool] = {}

    def __call__(self, mask: int) -> bool:
        out = self._decided.get(mask)
        if out is None:
            out = self._decided[mask] = self._decide(mask)
        return out

    def _decide(self, mask: int) -> bool:
        alive = mask | mask << self._shift
        return any(b & mask == b for b in self._basis_masks) and all(u & alive for u in self._unstable)


def _stable_fixed(model: StackModel, cols) -> bool:
    """The stability rule for one set of columns, on sets, with no table
    and no walk of the column bases: the columns have rank d, read off one
    Hermite form, and every minimal unstable set meets the coordinates
    over them (the trace rule that ``sector_unstable_sets`` raises on)."""
    a = model.base
    alive = model.coords_of_columns(cols)
    return len(a.lattice(cols)) == a.d and all(s & alive for s in model.arrangement.unstable_minimal)


def _in_inertia(model: StackModel, g: TorsionElement) -> bool:
    """An element of the model's dimension whose fixed columns pass
    ``_stable_fixed``; it fixes a basis, so that basis's stabilizer has it."""
    return g.d == model.d and _stable_fixed(model, fixed_columns(model.base, g))


def inertia_elements(model: StackModel) -> list[TorsionElement]:
    """All torsion elements with stable fixed points: the union of the basis
    stabilizers, kept when the fixed locus meets the stable locus, decided
    once per distinct fixed-column set.  Each distinct basis lattice, keyed
    by its Hermite basis, is walked once.  Sorted by canonical coordinates;
    always contains the identity."""
    return [TorsionElement._reduced(*rep) for _, rep, *_ in _sectors(model, _Stability(model))[1]]


def _sectors(model: StackModel, stable: _Stability) -> tuple[int, list[tuple]]:
    """The one sector walk, behind ``inertia_elements``,
    ``inertia_components`` and the analysis.  Returns the common order L
    of the duals of the distinct lattices of ``stable.bases`` and, per
    sector in sector order, ints only: its fixed-column mask, the pair
    (N, row) of the order and int row it was read from (the element is
    row / N), and its tangent exponents and age (``_age``) over N.

    The duals' rows (``exact.cokernel_torsion_numerators``) are deduped
    and sorted on their numerators over L before any ``TorsionElement``
    exists.  Each candidate gets one pairing vector (``_pairings``): its
    zeros on the base columns are the fixed mask, and its tangent
    exponents are read off the pairing (``_tangent_exponents``).  No
    ``TorsionElement``, ``InertiaComponent`` or fixed set is built here:
    their readers build them from these ints, a fixed set with
    ``_columns``."""
    a = model.base
    duals = [cokernel_torsion_numerators(lattice) for lattice in dict.fromkeys(map(a._lattice, stable.bases))]
    big = lcm(*(order for order, _ in duals))
    candidates = {tuple(x * (big // order) for x in row): (order, row) for order, rows in duals for row in rows}
    # over L, a/N < b/M exactly when a*(L/N) < b*(L/M): the int tuples sort
    # as ``__lt__`` does, with no Fraction built
    candidates = [candidates[nums] for nums in sorted(candidates)]
    chars, signs = _characters(model)
    mults = _int_mults(model)
    bits = [1 << j for j in range(1, a.n + 1)]
    out = []
    for (order, row), pairing in zip(candidates, _pairings(chars, candidates)):
        mask = sum(bit for bit, p in zip(bits, pairing) if not p)
        if stable(mask):
            exps = _tangent_exponents(pairing, signs, order)
            out.append((mask, (order, row), exps, _age(mults, exps)))
    return big, out


def _characters(model: StackModel) -> tuple[list, list[tuple[int, int]]]:
    """The characters the sector walk pairs each candidate with: the base
    columns, then each tangent character that is neither a column nor
    minus one; and each tangent term's character among them as (index,
    sign), in term order."""
    chars = list(model.base.columns)
    index = {tuple(s * x for x in w): (j, s) for s in (-1, 1) for j, w in enumerate(chars)}
    for w, _ in model.tangent_class.terms:
        if w not in index:
            index[w] = (len(chars), 1)
            chars.append(w)
    return chars, [index[w] for w, _ in model.tangent_class.terms]


def _pairings(chars, candidates):
    """Lazily, per candidate (N, row), <c, row> mod N for each character
    c: zero exactly when row / N fixes c."""
    return ([sum(map(mul, c, row)) % order for c in chars] for order, row in candidates)


def _tangent_exponents(pairing, signs, order: int) -> list[int]:
    """A sector's tangent exponents over ``order``, read off its pairing
    vector through the (index, sign) of ``_characters``."""
    return [s * pairing[j] % order for j, s in signs]


def age(model: StackModel, g: TorsionElement) -> Fraction:
    """Sum of the fractional pairings of g over the model's tangent class;
    trivial summands (the moment directions of a hypertoric model) add 0."""
    if not _in_inertia(model, g):
        raise ValueError("element %s is not in the inertia of this model" % g)
    return _age_of(model, g)


def _age_of(model: StackModel, g: TorsionElement) -> Fraction:
    return Fraction(_age(_int_mults(model), [g.exponent(w) for w, _ in model.tangent_class.terms]), g.order)


def _int_mults(model: StackModel) -> tuple[int, ...]:
    """The int multiplicities of the tangent terms, in term order: the one
    reading behind every age and ``analysis._Obstructions``."""
    return tuple(m.numerator for _, m in model.tangent_class.terms)


def _age(mults, exponents) -> int:
    """sum_k m_k e_k, the age times the order N of an element with the
    exponents e_k over N on tangent terms of int multiplicities m_k:
    frac<w, v> is the exponent over N."""
    return sum(map(mul, mults, exponents))


def sector_unstable_sets(model: StackModel, fixed: frozenset[int]) -> list[frozenset[int]]:
    """The minimal unstable sets of the sector of the fixed columns, in the
    model's coordinates: the trace rule (``_traces``) on the coordinates
    over ``fixed``, read as sets; an empty trace raises ``ValueError``.
    ``sector_model`` renumbers these sets."""
    alive = _mask(model.coords_of_columns(fixed))
    return [_columns(s) for s in _traces(map(_mask, model.arrangement.unstable_minimal), alive)]


def sector_model(model: StackModel, fixed: frozenset[int]) -> StackModel:
    """The sector of the fixed columns: the model restricted to the
    coordinates over them, renumbered x's then y's, with the same kind and
    character.

    A point of that coordinate subspace lies in a chart of the model exactly
    when the chart's basis lies in ``fixed``, so the restricted stable locus
    is the stable locus of the smaller model: its sigma sets are the model's
    sigma sets on ``fixed``, its minimal unstable sets the minimal traces
    of the model's (``sector_unstable_sets``; the renumbering keeps their
    order), and its tangent class loses the deleted characters.
    """
    keep = sorted(fixed)
    sub = WeightMatrix(model.base.columns_matrix(keep))
    alive = sorted(model.coords_of_columns(fixed))
    coord = {i: k for k, i in enumerate(alive, 1)}
    column = {j: k for k, j in enumerate(keep, 1)}
    unstable = [frozenset(coord[i] for i in s) for s in sector_unstable_sets(model, fixed)]
    sigmas = tuple(SigmaSet(tuple(column[j] for j in s.basis), s.tags)
                   for s in model.arrangement.sigma_sets if fixed.issuperset(s.basis))
    chars = tuple(model.coordinate_char(i) for i in alive)
    dead = [(model.coordinate_char(i), 1) for i in range(1, model.num_coords + 1) if i not in coord]
    labels = _coordinate_labels(len(keep), model.doubled)
    tangent = model.tangent_class - CharacterClass.build(model.d, dead)
    return StackModel(model.kind, sub, WeightMatrix.from_rows(zip(*chars)), model.theta,
                      StableArrangement(sigmas, tuple(unstable), labels), tangent)


def inertia_components(model: StackModel) -> list[InertiaComponent]:
    """All sectors, sorted by canonical element coordinates."""
    return [InertiaComponent(TorsionElement._reduced(order, row), _columns(mask), Fraction(age, order))
            for mask, (order, row), _, age in _sectors(model, _Stability(model))[1]]


def double_inertia(model: StackModel) -> list[DoubleInertiaComponent]:
    """All ordered pairs of inertia elements whose common fixed columns
    contain a column basis and meet the stable locus, in pair order: the
    one expansion of the double inertia, read off the walk of the model's
    own analysis (``StackModel.analysis``) afresh on each call, so the
    analysis keeps none; each common mask becomes a set here
    (``_columns``)."""
    analysis = model.analysis
    el, keys = analysis.elements, analysis.keys
    return [DoubleInertiaComponent(el[i1], el[i2], _columns(keys[k][1]), el[t]) for i1, i2, k, t in analysis.walk()]
