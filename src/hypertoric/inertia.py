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
from operator import itemgetter, mul
from typing import NamedTuple

from .characters import CharacterClass
from .exact import cokernel_torsion_numerators
from .model import SigmaSet, StableArrangement, StackModel, WeightMatrix, _coordinate_labels, column_bases
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
    refuses any other form, so equality and hashing compare int tuples.
    The hash is computed once, at construction, since elements key the
    exponent tables, the pair maps and the sector lookups.  Elements sort
    as their canonical vectors ``v`` do."""

    _fields = ("order", "nums")
    __slots__ = _fields + ("_hash",)

    def __init__(self, order: int, nums: tuple[int, ...]):
        if order < 1 or not all(0 <= a < order for a in nums) or gcd(order, *nums) != 1:
            raise ValueError("not a canonical torsion element: %r over %r" % (nums, order))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "_hash", hash((order, nums)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.order == other.order and self.nums == other.nums
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def _reduced(order: int, nums) -> "TorsionElement":
        """The element nums / order, for any ints (taken mod order)."""
        nums = [a % order for a in nums]
        g = gcd(order, *nums)
        return TorsionElement(order // g, tuple(a // g for a in nums))

    @staticmethod
    def from_fractions(values) -> "TorsionElement":
        values = [Fraction(x) for x in values]
        order = lcm(*(x.denominator for x in values))
        return TorsionElement._reduced(
            order, [x.numerator * (order // x.denominator) for x in values]
        )

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

    def _same_d(self, other: "TorsionElement"):
        if self.d != other.d:
            raise ValueError("torsion elements of dimensions %d and %d" % (self.d, other.d))

    def __lt__(self, other: "TorsionElement") -> bool:
        if not isinstance(other, TorsionElement):
            return NotImplemented
        self._same_d(other)
        # a/N < b/M  <=>  a*M < b*N, entry by entry
        return (tuple(a * other.order for a in self.nums)
                < tuple(b * self.order for b in other.nums))

    def __add__(self, other: "TorsionElement") -> "TorsionElement":
        self._same_d(other)
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
    all v with <a_j, v> integral for j in the basis; order |det A_B|.  Refuses
    columns whose Hermite basis has fewer than d rows."""
    basis = tuple(basis)
    lattice = a.lattice(basis)
    if len(basis) != a.d or len(lattice) != a.d:
        raise ValueError("columns {%s} are not a basis" % ",".join(map(str, sorted(basis))))
    return _dual_elements(lattice)


def _dual_elements(lattice) -> set[TorsionElement]:
    """The dual of a full-rank lattice given by its Hermite basis."""
    big, rows = cokernel_torsion_numerators(lattice)
    return {TorsionElement._reduced(big, row) for row in rows}


def fixed_columns(a: WeightMatrix, g: TorsionElement) -> frozenset[int]:
    """Columns j with <a_j, v> integral, that is <a_j, nums> = 0 mod the
    order.  In a doubled model x_j and y_j are fixed together since the dual
    coordinate carries -a_j."""
    nums, order = g.nums, g.order
    return frozenset(j for j, w in enumerate(a.columns, 1) if not sum(map(mul, w, nums)) % order)


def _mask(indices) -> int:
    """The int bitmask of distinct column or coordinate indices: bit j for j."""
    return sum(1 << j for j in indices)


class _Stability:
    """One model's stability rule on column sets held as int bitmasks
    (``_mask``), decided once per mask, for sectors and pairs alike.  A set
    passes when it contains a basis mask (so its rank is d, with no Hermite
    form) and no minimal unstable coordinate mask lies in the dead
    coordinates: over a dead column mask D they are D | D << n in a doubled
    model (y_j is bit n + j), else D.  ``bases`` are column sets of rank d;
    by default the sigma-set bases, one per column basis, and a model with
    none (a direct model built from unstable sets) reads ``column_bases``
    once."""

    __slots__ = ("bases", "_basis_masks", "_unstable", "_all", "_shift", "_decided")

    def __init__(self, model: StackModel, bases=None):
        if bases is None:
            bases = tuple(s.basis for s in model.arrangement.sigma_sets) or tuple(column_bases(model.base))
        self.bases = bases
        self._basis_masks = tuple(map(_mask, bases))
        self._unstable = tuple(map(_mask, model.arrangement.unstable_minimal))
        self._all = _mask(range(1, model.n + 1))
        self._shift = model.n if model.doubled else 0
        self._decided: dict[int, bool] = {}

    def __call__(self, mask: int) -> bool:
        out = self._decided.get(mask)
        if out is None:
            out = self._decided[mask] = self._decide(mask)
        return out

    def _decide(self, mask: int) -> bool:
        if not any(b & mask == b for b in self._basis_masks):
            return False
        dead = self._all & ~mask
        dead |= dead << self._shift
        return not any(u & dead == u for u in self._unstable)


def _stable_fixed(model: StackModel, cols) -> bool:
    """The stability rule (``_Stability``) for one set of columns, with no
    walk of the column bases: the rank is read off one Hermite form, and a
    set of rank d is the one basis its own test needs."""
    a = model.base
    cols = tuple(cols)
    return len(a.lattice(cols)) == a.d and _Stability(model, (cols,))(_mask(cols))


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
    return [g for g, _, _ in _sectors(model, _Stability(model))]


def _sectors(model: StackModel, stable: _Stability) -> list[tuple[TorsionElement, frozenset[int], int]]:
    """The walk behind ``inertia_elements``: each sector's element with its
    fixed columns, as a set and a mask, in sector order; the candidates are
    the duals of the lattices of ``stable.bases``."""
    a = model.base
    candidates: set[TorsionElement] = set()
    for lattice in dict.fromkeys(a.lattice(basis) for basis in stable.bases):
        candidates |= _dual_elements(lattice)
    kept: dict[frozenset[int], int] = {}
    out = []
    for g in candidates:
        fixed = fixed_columns(a, g)
        mask = kept.get(fixed)
        if mask is None:
            mask = kept[fixed] = _mask(fixed)
        if stable(mask):
            out.append((g, fixed, mask))
    _, scaled = _over_common_order([g for g, _, _ in out])
    return sorted(out, key=lambda sector: scaled[sector[0]])


def _over_common_order(elements) -> tuple[int, dict]:
    """The lcm L of the elements' orders, and each element's numerators
    over L.  a/N < b/M exactly when a*(L/N) < b*(L/M), so these int keys
    sort as ``__lt__`` does, and the keys of a sum are the keys added mod L."""
    big = lcm(*(g.order for g in elements))
    return big, {g: tuple(a * (big // g.order) for a in g.nums) for g in elements}


def age(model: StackModel, g: TorsionElement) -> Fraction:
    """Sum of the fractional pairings of g over the model's tangent class;
    trivial summands (the moment directions of a hypertoric model) add 0."""
    if not _in_inertia(model, g):
        raise ValueError("element %s is not in the inertia of this model" % g)
    return _age_of(model, g)


def _age_of(model: StackModel, g: TorsionElement) -> Fraction:
    terms = model.tangent_class.terms
    return _age([m.numerator for _, m in terms], [g.exponent(w) for w, _ in terms], g.order)


def _age(mults, exponents, order: int) -> Fraction:
    """sum_k m_k e_k / order, the age of an element of that order with the
    exponents e_k on tangent terms of int multiplicities m_k: frac<w, v> is
    the exponent over the order."""
    return Fraction(sum(map(mul, mults, exponents)), order)


def sector_unstable_sets(model: StackModel, fixed: frozenset[int]) -> list[frozenset[int]]:
    """The minimal unstable sets of the sector of the fixed columns, in the
    model's coordinates: the minimal traces of the model's minimal unstable
    sets on the coordinates over ``fixed``, ordered by (size, sorted
    elements).  An empty trace means the fixed locus lies in the unstable
    locus, and raises ``ValueError``.  The one owner of the trace rule:
    ``sector_model`` renumbers these sets, and the sector rings of an
    orbifold geometry read their characters."""
    alive = model.coords_of_columns(fixed)
    traces = {s & alive for s in model.arrangement.unstable_minimal}
    if frozenset() in traces:
        raise ValueError("fixed locus lies in the unstable locus")
    return sorted((s for s in traces if not any(t < s for t in traces)),
                  key=lambda s: (len(s), sorted(s)))


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
    return [InertiaComponent(g, fixed, _age_of(model, g))
            for g, fixed, _ in _sectors(model, _Stability(model))]


class PairBlock:
    """Every ordered pair of a sector over ``fixed1`` and a sector over
    ``fixed2``, when their common set ``common`` passes ``_Stability``.
    Stability reads only the two fixed sets, so the double inertia is a
    union of such full blocks.  ``rows`` and ``cols`` are the indices of
    the two sets' sectors, in sector order; the block's pairs are
    ``rows x cols``, row-major, and a pair's position in the block is
    ``row position * len(cols) + column position``."""

    __slots__ = ("fixed1", "fixed2", "common", "rows", "cols")

    def __init__(self, fixed1: frozenset[int], fixed2: frozenset[int], common: frozenset[int],
                 rows: tuple[int, ...], cols: tuple[int, ...]):
        self.fixed1, self.fixed2, self.common = fixed1, fixed2, common
        self.rows, self.cols = rows, cols


class DoubleInertia:
    """The stable pairs of a list of sectors, held as blocks of fixed-set
    pairs (``PairBlock``), in the order of the pairs of fixed sets.

    Nothing is stored per pair: ``walk`` yields the pairs in the order of
    the walk over all ordered pairs (g1 in sector order, then g2),
    ``pairs`` expands them into ``DoubleInertiaComponent``s, ``locate``
    finds one pair's block without a walk, and ``targets`` gives the sums
    of one block's pairs.

    The sum of a stable pair fixes the common set, so it is a sector too.
    It is looked up, not built: each element's numerators over the common
    order L are packed into one int, a field of ``w + 1`` bits per
    coordinate with 2**w > L, so two packs add field by field with no
    carry between fields.  Adding 2**w - L to every field sets a field's
    top bit exactly when its sum reaches L, and subtracting L from those
    fields leaves the pack of the sum mod L."""

    def __init__(self, elements, fixed, blocks):
        self.elements = tuple(elements)
        self.fixed = tuple(fixed)
        self.blocks = tuple(blocks)
        self._block_of = {(b.fixed1, b.fixed2): k for k, b in enumerate(self.blocks)}
        # every sector pairs with the identity, so every fixed set has a block
        self._position = [0] * len(self.elements)
        for b in self.blocks:
            for r, i in enumerate(b.rows):
                self._position[i] = r
        self.big, scaled = _over_common_order(self.elements)
        self._width = width = self.big.bit_length()
        fields = [k * (width + 1) for k in range(len(self.elements[0].nums))]
        self._tops = sum(1 << (f + width) for f in fields)
        self._offset = sum((2 ** width - self.big) << f for f in fields)
        self._packs = [sum(a << f for f, a in zip(fields, scaled[g])) for g in self.elements]
        self._by_pack = {p: i for i, p in enumerate(self._packs)}

    def __len__(self) -> int:
        return sum(len(b.rows) * len(b.cols) for b in self.blocks)

    def walk(self):
        """(i1, i2, block index, position in the block) of every pair, in
        pair order: g1 in sector order, then g2.  Each fixed set's partners
        are sorted back into sector order."""
        rows: dict[frozenset[int], list] = {}
        for k, b in enumerate(self.blocks):
            width = len(b.cols)
            rows.setdefault(b.fixed1, []).extend((j, k, c, width) for c, j in enumerate(b.cols))
        for row in rows.values():
            row.sort(key=itemgetter(0))
        for i1, f1 in enumerate(self.fixed):
            r = self._position[i1]
            for i2, k, c, width in rows[f1]:
                yield i1, i2, k, r * width + c

    def locate(self, i1: int, i2: int) -> tuple[int, int] | None:
        """(block index, position) of the pair of sectors i1, i2, or None
        when the pair is not stable."""
        k = self._block_of.get((self.fixed[i1], self.fixed[i2]))
        if k is None:
            return None
        return k, self._position[i1] * len(self.blocks[k].cols) + self._position[i2]

    def target(self, i1: int, i2: int) -> int:
        """The sector index of the sum of sectors i1 and i2."""
        s = self._packs[i1] + self._packs[i2]
        return self._by_pack[s - (((s + self._offset) & self._tops) >> self._width) * self.big]

    def targets(self, block: PairBlock) -> list[int]:
        """``target`` of each pair of the block, row-major."""
        packs, by_pack, big = self._packs, self._by_pack, self.big
        offset, tops, width = self._offset, self._tops, self._width
        cols = [packs[j] for j in block.cols]
        return [by_pack[(s := packs[i] + q) - (((s + offset) & tops) >> width) * big]
                for i in block.rows for q in cols]

    def pairs(self) -> list[DoubleInertiaComponent]:
        """The expanded view: one ``DoubleInertiaComponent`` per pair, in
        pair order."""
        el, blocks = self.elements, self.blocks
        return [DoubleInertiaComponent(el[i1], el[i2], blocks[k].common, el[self.target(i1, i2)])
                for i1, i2, k, _ in self.walk()]


def _blocks(stable: _Stability, sectors) -> DoubleInertia:
    """The stable pairs of ``sectors`` ((element, fixed columns, mask), in
    sector order), as blocks: the sectors are grouped by fixed set, and
    ``stable`` decides each pair of fixed sets on the mask of the common
    set, once per distinct common set, so no pair is formed to decide it."""
    groups: dict[int, list[int]] = {}
    sets: dict[int, frozenset[int]] = {}
    for i, (_, fixed, mask) in enumerate(sectors):
        groups.setdefault(mask, []).append(i)
        sets[mask] = fixed
    groups = {mask: tuple(indices) for mask, indices in groups.items()}
    blocks = [PairBlock(sets[m1], sets[m2], sets[m1] & sets[m2], rows, cols)
              for m1, rows in groups.items() for m2, cols in groups.items() if stable(m1 & m2)]
    return DoubleInertia([g for g, _, _ in sectors], [fixed for _, fixed, _ in sectors], blocks)


def double_inertia(model: StackModel) -> list[DoubleInertiaComponent]:
    """All ordered pairs of inertia elements whose common fixed columns
    contain a column basis and meet the stable locus."""
    stable = _Stability(model)
    return _blocks(stable, _sectors(model, stable)).pairs()
