"""The inertia analysis of a model's read data.

The sectors of a model, its double inertia held as blocks of fixed-set
pairs, each pair's obstruction selection and product key, and the
obstruction kernel that turns a selection into its bundle-tested class.
An analysis reads only the model's weights, stable-locus combinatorics and
tangent terms, never its character, kind or trivial summand, and is
memoized by those data (``_analysis``), so every table and verifier of
every model with equal data, the moment fiber of a Lawrence model among
them, reads one analysis.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .characters import CharacterClass
from .inertia import DoubleInertiaComponent, InertiaComponent, TorsionElement, _age, _blocks, _sectors, _Stability
from .model import StackModel


class ObstructionError(ValueError):
    """Obstruction class failed to be a bundle: the model is inconsistent."""


class _Obstructions:
    """The obstruction classes of one model's pairs of inertia elements.

    Per character w_k of the model's tangent class, an element g has the
    exponent e_k(g) = <w_k, nums> mod ord g; the exponent vector of each
    element is computed once, on first use, and the analysis reads the age
    of g off it (``inertia._age``, over the int multiplicities ``mults``).
    The *selection* of an ordered pair is the set of the k with
    e_k(g1)/ord g1 + e_k(g2)/ord g2 > 1, which is the rule of
    ``orbifold.obstruction``, held as an int bitmask (bit k for term k);
    the obstruction class is those terms of the tangent class, so it
    depends on the pair only through its selection and is built once per
    distinct selection.  It is a bundle exactly when it selects no
    negative multiplicity (``_negative``).  A selection that fails the test
    is never stored: every pair that has it raises ``ObstructionError``
    again.  The kernel reads only the dimension and the tangent terms of
    its model."""

    def __init__(self, model: StackModel):
        self.d = model.d
        self.terms = model.tangent_class.terms
        self.chars = tuple(w for w, _ in self.terms)
        self.mults = tuple(m.numerator for _, m in self.terms)
        self._negative = sum(1 << k for k, m in enumerate(self.mults) if m < 0)
        self._exponents: dict = {}
        self._classes: dict = {}

    def exponent_vector(self, g: TorsionElement) -> tuple[int, ...]:
        e = self._exponents.get(g)
        if e is None:
            e = self._exponents[g] = tuple(map(g.exponent, self.chars))
        return e

    def selection(self, g1: TorsionElement, g2: TorsionElement) -> tuple[int, ...]:
        """Indices of the tangent terms in the obstruction of (g1, g2)."""
        n1, n2 = g1.order, g2.order
        both = n1 * n2
        exps = zip(self.exponent_vector(g1), self.exponent_vector(g2))
        return tuple(k for k, (e1, e2) in enumerate(exps) if e1 * n2 + e2 * n1 > both)

    def _class(self, mask: int) -> CharacterClass:
        # a subsequence of sorted, distinct, nonzero terms is a canonical class
        return CharacterClass(self.d, tuple(t for k, t in enumerate(self.terms) if mask >> k & 1),
                              Fraction(0))

    def bundle(self, mask: int) -> CharacterClass | None:
        """The class of the selection ``mask``, or None when it is not a
        bundle."""
        out = self._classes.get(mask)
        if out is None:
            if mask & self._negative:
                return None
            out = self._classes[mask] = self._class(mask)
        return out

    def class_for(self, mask: int, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
        """The class of the selection ``mask`` of (g1, g2), checked to be a
        bundle; the pair only names a failure."""
        out = self.bundle(mask)
        if out is None:
            raise ObstructionError(
                "obstruction of (%s, %s) is not a bundle: %s" % (g1, g2, self._class(mask)))
        return out

    def class_of(self, g1: TorsionElement, g2: TorsionElement) -> CharacterClass:
        return self.class_for(sum(1 << k for k in self.selection(g1, g2)), g1, g2)


class _Reads:
    """The data an inertia analysis reads off a model, and the model it
    is read from: two of them are equal when their data are, whatever the
    models' kinds, characters or trivial summands, so the moment fiber of
    a Lawrence model reads what the ambient model reads."""

    __slots__ = ("data", "model", "_hash")

    def __init__(self, model: StackModel):
        self.data = (model.doubled, model.base, model.weights, model.arrangement,
                     model.tangent_class.terms)
        self.model = model
        self._hash = hash(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Reads) and self.data == other.data

    def __hash__(self) -> int:
        return self._hash


class _Analysis:
    """The inertia analysis of one value of read data (``_Reads``), shared
    by every table and verifier of every model with that data: the
    sectors, their ages read off the kernel's exponent vectors, the double
    inertia as blocks of fixed-set pairs (``inertia.DoubleInertia``; the
    sectors and the blocks read one ``inertia._Stability`` table), the
    obstruction kernel, and each pair's product key (selection, common
    fixed set, target fixed set), on which its generator product depends.  The distinct keys are ``keys``;
    ``ids[b]`` holds the key index of each pair of block ``b``, row-major,
    the only per-pair data kept.  Per-pair objects are built only at the
    boundary (``pairs``, ``walk``).

    Selections are computed inside each block on exponent vectors over
    the common order L of the sectors, t_k(g) = e_k(g) * (L / ord g), where
    the rule e1/n1 + e2/n2 > 1 of ``_Obstructions.selection`` reads
    t1 + t2 > L.  A sector's t's are packed into one int, a field of
    ``w + 1`` bits per tangent term with 2**w > L (``_lows``), and again
    with 2**w - L - 1 added to each field (``_highs``).  A field of
    low + high holds t1 + t2 + 2**w - L - 1, in [0, 2**(w + 1)), so no
    field carries into the next, and its top bit is set exactly when
    t1 + t2 > L: one addition and one mask give a pair's selection."""

    def __init__(self, model: StackModel):
        stable = _Stability(model)
        sectors = _sectors(model, stable)
        self.obstructions = kernel = _Obstructions(model)
        self.components = tuple(InertiaComponent(g, fixed, _age(kernel.mults, kernel.exponent_vector(g), g.order))
                                for g, fixed, _ in sectors)
        self.index = {c.g: i for i, c in enumerate(self.components)}
        self.double = _blocks(stable, sectors)
        big = self.double.big
        width = big.bit_length()
        fields = [k * (width + 1) for k in range(len(kernel.terms))]
        tops = [1 << (f + width) for f in fields]
        self._lows = [sum(e * (big // c.g.order) << f
                          for f, e in zip(fields, kernel.exponent_vector(c.g)))
                      for c in self.components]
        lift = sum((2 ** width - big - 1) << f for f in fields)
        self._highs = [p + lift for p in self._lows]
        self._tops = sum(tops)
        key_index: dict = {}
        ids = []
        for block in self.double.blocks:
            per_pair = list(zip(self._selections(block),
                                map(self.double.fixed.__getitem__, self.double.targets(block))))
            local = dict.fromkeys(per_pair)
            for spread, target_fixed in local:
                mask = sum(1 << k for k, top in enumerate(tops) if spread & top)
                local[spread, target_fixed] = key_index.setdefault(
                    (mask, block.common, target_fixed), len(key_index))
            ids.append(tuple(map(local.__getitem__, per_pair)))
        self.keys = tuple(key_index)
        self.ids = tuple(ids)

    def _selections(self, block) -> list[int]:
        """Each pair's selection, row-major, with term k at the top bit of
        field k."""
        lows, highs, tops = self._lows, self._highs, self._tops
        cols = [highs[j] for j in block.cols]
        return [(lows[i] + h) & tops for i in block.rows for h in cols]

    def walk(self):
        """(g1, g2, key index) of every pair, in pair order."""
        el, ids = self.double.elements, self.ids
        for i1, i2, b, pos in self.double.walk():
            yield el[i1], el[i2], ids[b][pos]

    @functools.cached_property
    def pairs(self) -> tuple[DoubleInertiaComponent, ...]:
        """The expanded double inertia, built on first use."""
        return tuple(self.double.pairs())

    def locate(self, g1: TorsionElement, g2: TorsionElement) -> tuple | None:
        """(key index, target) of the pair (g1, g2), or None when it is not
        a stable pair of sectors."""
        i1, i2 = self.index.get(g1), self.index.get(g2)
        found = None if i1 is None or i2 is None else self.double.locate(i1, i2)
        if found is None:
            return None
        b, pos = found
        return self.ids[b][pos], self.double.elements[self.double.target(i1, i2)]


@functools.lru_cache(maxsize=2)
def _analysis(reads: _Reads) -> _Analysis:
    """The analysis of the read data ``reads``, built from its model: models
    with equal read data share one, so the moment fiber of a Lawrence
    model reads the ambient's, and a model with other data (another
    tangent multiplicity, say) gets its own.  Two entries hold the
    analyses of the latest two read-data values."""
    return _Analysis(reads.model)
