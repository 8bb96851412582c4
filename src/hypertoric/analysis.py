"""The inertia analysis of a model.

The sectors of a model, its double inertia held as one table of each
fixed mask's partners, the distinct product keys of its pairs (a pair's
obstruction selection and key are computed where they are read, never
stored per pair), and the obstruction kernel, which holds each
selection's Euler factors as int characters.  It is built in two int
passes: one sector walk (``inertia._sectors``), whose numerators and
exponents are packed once, and one key pass over each unordered stable
pair.  It holds the sectors, their fixed sets and the keys as ints; their
``TorsionElement``s and ``InertiaComponent``s are built on the first read,
and a column set is decoded (``inertia._columns``), where a result leaves
the library or a failure is named, so a passing verify builds none.  An
analysis reads only the model's weights, stable-locus combinatorics and
tangent terms, never its character, kind or trivial summand.  It belongs to
its model (``StackModel.analysis``), which builds it on the first read and
keeps it, so every geometry of one model reads one analysis; the verifiers
let the moment fiber of a Lawrence model read the ambient's
(``orbifold._sides``).
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import mul

from .characters import CharacterClass
from .inertia import InertiaComponent, TorsionElement, _columns, _int_mults, _sectors, _Stability
from .model import StackModel


class ObstructionError(ValueError):
    """Obstruction class failed to be a bundle: the model is inconsistent."""


class _Obstructions:
    """The obstruction classes of one model's pairs of inertia elements.

    Per character w_k of the model's tangent class (``chars``), an element
    g has the exponent e_k(g) = <w_k, nums> mod ord g.  The kernel keeps no
    exponents: the sector pass (``inertia._sectors``) reads each sector's
    off its column pairings once, for its age and its selection pack, and
    ``selection`` maps ``g.exponent`` itself.
    The *selection* of an ordered pair is the set of the k with
    e_k(g1)/ord g1 + e_k(g2)/ord g2 > 1, which is the rule of
    ``orbifold.obstruction``, held as an int bitmask (bit k for term k);
    the obstruction class is those terms of the tangent class, so it
    depends on the pair only through its selection.  Its Euler factors
    (``bundle``) are kept once per distinct selection: each selected
    character repeated by its multiplicity, in term order, so two classes
    are equal exactly when their factor tuples are.  A class is a bundle
    exactly when its selection picks no negative multiplicity
    (``_negative``); one that is not has no factors, and every pair with
    it raises ``ObstructionError`` again.  A ``CharacterClass`` is built
    only for a class handed out (``class_for``).  The kernel reads only the
    dimension and the tangent terms of its model, and holds per-selection
    factors only."""

    def __init__(self, model: StackModel):
        self.d = model.d
        self.terms = model.tangent_class.terms
        self.chars = tuple(w for w, _ in self.terms)
        self.mults = _int_mults(model)
        self._negative = sum(1 << k for k, m in enumerate(self.mults) if m < 0)
        self._factors: dict = {}

    def selection(self, g1: TorsionElement, g2: TorsionElement) -> tuple[int, ...]:
        """Indices of the tangent terms in the obstruction of (g1, g2)."""
        n1, n2 = g1.order, g2.order
        both = n1 * n2
        exps = zip(map(g1.exponent, self.chars), map(g2.exponent, self.chars))
        return tuple(k for k, (e1, e2) in enumerate(exps) if e1 * n2 + e2 * n1 > both)

    def bundle(self, mask: int) -> tuple | None:
        """The Euler factors of the selection ``mask``, or None when it
        picks a negative multiplicity."""
        out = self._factors.get(mask)
        if out is None:
            if mask & self._negative:
                return None
            out = self._factors[mask] = tuple(w for k, (w, m) in enumerate(zip(self.chars, self.mults))
                                              if mask >> k & 1 for _ in range(m))
        return out

    def class_for(self, mask: int, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
        """The class of the selection ``mask`` of (g1, g2), checked to be a
        bundle; the pair only names a failure."""
        # a subsequence of sorted, distinct, nonzero terms is a canonical class
        out = CharacterClass(self.d, tuple(t for k, t in enumerate(self.terms) if mask >> k & 1), Fraction(0))
        if mask & self._negative:
            raise ObstructionError("obstruction of (%s, %s) is not a bundle: %s" % (g1, g2, out))
        return out

    def class_of(self, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
        return self.class_for(sum(1 << k for k in self.selection(g1, g2)), g1, g2)


def _partners(stable: _Stability, masks) -> dict:
    """Each fixed mask's partners, the double inertia as one table: per
    fixed mask, the sorted tuple of the sector indices it pairs with.  The
    sectors (``masks``, per sector in sector order) are grouped by fixed
    mask, and ``stable`` decides each pair of groups on the AND of their
    masks, the common mask, once per distinct common mask, so no pair is
    formed to decide it and no common set is kept: a pair's is one AND
    where its key is read (``_Analysis._row``).  Every sector pairs with
    the identity, so every fixed mask has partners."""
    groups: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        groups.setdefault(mask, []).append(i)
    return {m1: tuple(sorted(j for m2, cols in groups.items() if stable(m1 & m2) for j in cols))
            for m1 in groups}


def _packer(big: int, count: int, threshold: int):
    """Packs of ``count`` ints in [0, big), one int each: a field of
    ``w + 1`` bits per value, with 2**w > big.  Returns ``(pack, lift,
    tops, w)``: ``pack(values)``, the pack of 2**w - threshold in every
    field, and the pack of every field's top bit 2**w.

    A field of pack1 + pack2 + lift holds a + b + 2**w - threshold.  For a
    threshold of ``big`` or ``big + 1`` that is in [0, 2**(w + 1)), so no
    field carries into the next, and the field's top bit is set exactly
    when a + b >= threshold: one addition and one ``& tops`` decide every
    field at once.  Targets use threshold L, the common order, and
    subtract L from each field whose bit is set, which leaves the pack of
    the sum mod L; selections use L + 1, so the bit is t1 + t2 > L."""
    width = big.bit_length()
    fields = range(0, count * (width + 1), width + 1)

    def pack(values) -> int:
        return sum(v << f for f, v in zip(fields, values))

    return pack, pack([2 ** width - threshold] * count), pack([1 << width] * count), width


def _selection(spread: int, width: int) -> int:
    """The selection bitmask (bit k for term k) of a selection pack of
    fields ``width + 1`` bits wide whose only set bits are field tops, as
    the key pass leaves them: one step per set bit, the lowest first, whose
    position k * (width + 1) + width names its term k."""
    out = 0
    while spread:
        low = spread & -spread
        out |= 1 << (low.bit_length() - 1) // (width + 1)
        spread ^= low
    return out


class _Analysis:
    """The inertia analysis of one model, kept by the model
    (``StackModel.analysis``) and read by every geometry over it, and the
    one owner of its double inertia: the sectors with their ages, each
    fixed mask's partners in sector order (``_partners``; the sectors and
    the partners read one ``inertia._Stability`` table), the obstruction
    kernel, and the distinct product keys, on which a pair's generator
    product depends, in ``keys``: each an int triple (selection mask, bit k
    for term k; common fixed mask; target fixed mask).  Inside the double
    inertia a column set is its int mask, and a pair's common set is the
    AND of its sectors' masks; a set becomes a frozenset only where it
    leaves the library (``inertia._columns``): a sector's in ``components``
    and a key's common set in ``SectorGeometry.pair`` and
    ``inertia.double_inertia``.  Nothing is kept per pair: the build,
    ``walk`` and ``locate`` compute a row of pairs' keys and their sums'
    sectors with one kernel (``_row``) where they read them, ``len`` reads
    the partners, and ``inertia.double_inertia`` expands the walk afresh on
    each call.
    ``position`` is the one refusal of an element that is not a sector, for
    every lookup of the geometries over the analysis.

    The sectors are held as ints, per sector in sector order: the (N, row)
    of each element (``_rows``, the element is row / N), its fixed mask
    (``_masks``), and its age times L (``ages``).  ``elements``,
    ``components`` and the element ``index`` are built from these on their
    first read, and kept.

    The build is two int passes.  The sector pass (``inertia._sectors``)
    hands over each sector's numerators and tangent exponents over its
    order N, and the common order L; each is packed once (``_packer``) and
    scaled to L by one product.  The sum of a stable pair fixes the common
    set, so it is a sector too.  It is looked up, not built: the numerators
    are packed with threshold L (``_packs``), and the folded sum of two
    packs is the pack of the sum, since the numerators over L of a sum are
    the two elements' added mod L.  A pair's selection is computed on the
    exponents t_k(g) = e_k(g) * (L / ord g), where the rule
    e1/n1 + e2/n2 > 1 of ``_Obstructions.selection`` reads t1 + t2 > L:
    each sector's t's are packed with threshold L + 1 (``_lows``), the lift
    is added once per row, and one addition and one mask give a pair's
    selection.

    The key pass reads that a pair's key is symmetric in g1 and g2, so the
    key index (``_key_index``, keyed by the int triple of selection pack,
    common mask and target mask) is filled with
    one ``_row`` per sector i over its partners j >= i, in order.  Of a
    pair and its mirror the one with i <= j comes first in pair order, so
    the keys are numbered in the order they first appear in pair order
    (``walk``), and of several failing embeddings (``GysinError``)
    ``orbifold_table`` and the iso check raise the first pair's."""

    def __init__(self, model: StackModel):
        self._stable = stable = _Stability(model)
        big, sectors = _sectors(model, stable)
        self.obstructions = kernel = _Obstructions(model)
        self._masks, self._rows, exponents, ages = zip(*sectors)
        scales = [big // order for order, _ in self._rows]
        self.ages = tuple(map(mul, ages, scales))
        self._partners = _partners(stable, self._masks)
        # a pack of values over N times L / N is the pack of the values over
        # L: each field stays below L, so none carries
        pack, self._lift, self._sum_tops, self._width = _packer(big, model.d, big)
        self._big, self._packs = big, [pack(row) * s for (_, row), s in zip(self._rows, scales)]
        self._by_pack = {p: i for i, p in enumerate(self._packs)}
        pack, self._select_lift, self._tops, width = _packer(big, len(kernel.terms), big + 1)
        self._lows = list(map(mul, map(pack, exponents), scales))
        self._key_index = key_index = {}
        for i, mask in enumerate(self._masks):
            cols = self._partners[mask]
            for key in dict.fromkeys(self._row(i, cols[bisect_left(cols, i):])[0]):
                key_index.setdefault(key, len(key_index))
        self.keys = tuple((_selection(spread, width), common, target) for spread, common, target in key_index)

    @functools.cached_property
    def elements(self) -> tuple[TorsionElement, ...]:
        """The sector elements, in sector order, built from the sector
        walk's rows on the first read."""
        return tuple(TorsionElement._reduced(order, row) for order, row in self._rows)

    @functools.cached_property
    def components(self) -> tuple[InertiaComponent, ...]:
        """The sectors, in sector order, built on the first read: each
        element with its fixed set, decoded from its mask, and its age,
        ``ages`` over L."""
        return tuple(InertiaComponent(g, _columns(mask), Fraction(age, self._big))
                     for g, mask, age in zip(self.elements, self._masks, self.ages))

    @functools.cached_property
    def index(self) -> dict:
        """Each sector element's position in sector order, built on the
        first read; ``position`` reads it."""
        return {g: i for i, g in enumerate(self.elements)}

    def _row(self, i: int, cols) -> tuple:
        """The pairs (i, j), j in ``cols``: each pair's key as
        ``_key_index`` holds it, an int triple (selection pack, with term k
        at the top bit of field k; common mask, the AND of the two fixed
        masks; target fixed mask), lazily, and the list of each pair's
        target sector."""
        packs, lows, by_pack, big, masks = self._packs, self._lows, self._by_pack, self._big, self._masks
        lift, tops, width, select = self._lift, self._sum_tops, self._width, self._tops
        pack, low, mask = packs[i], lows[i] + self._select_lift, masks[i]
        targets = [by_pack[(s := pack + packs[j]) - (((s + lift) & tops) >> width) * big] for j in cols]
        return (((low + lows[j]) & select, mask & masks[j], masks[t]) for j, t in zip(cols, targets)), targets

    def __len__(self) -> int:
        return sum(len(self._partners[m]) for m in self._masks)

    def walk(self):
        """(i1, i2, key index, target) of every pair, in pair order: g1 in
        sector order, then g2."""
        key_index = self._key_index
        for i1, mask in enumerate(self._masks):
            cols = self._partners[mask]
            keys, targets = self._row(i1, cols)
            yield from zip(repeat(i1), cols, map(key_index.__getitem__, keys), targets)

    def position(self, g: TorsionElement) -> int:
        """The sector index of g; the one refusal of a non-sector, with
        ``ValueError``."""
        i = self.index.get(g)
        if i is None:
            raise ValueError("element %s is not an inertia element" % g)
        return i

    def locate(self, g1: TorsionElement, g2: TorsionElement) -> tuple | None:
        """(key index, target) of the pair (g1, g2) of sectors, or None when
        the pair is unstable: stability is decided on the common mask.  A
        non-sector in either slot raises ``ValueError`` (``position``)."""
        i1, i2 = self.position(g1), self.position(g2)
        if not self._stable(self._masks[i1] & self._masks[i2]):
            return None
        (key,), (t,) = self._row(i1, (i2,))
        return self._key_index[key], self.elements[t]
