"""Formal rational combinations of torus characters.

A ``CharacterClass`` is a finite Q-linear combination of characters
w in Z^d, with the multiplicity of the trivial character kept in a separate
slot (K-classes built here routinely subtract trivial summands).  These hold
tangent classes, logarithmic traces and obstruction classes.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import _fraction, as_int
from .value import Value


class CharacterClass(Value):
    """terms: sorted ((w, mult), ...) over nonzero characters w, mult != 0.
    Equality and the hash are ``Value``'s, over the three fields.
    ``build`` and ``scale`` read multiplicities, the trivial part and the
    scalar by ``exact._fraction``'s rule: a bool, a string, ``None`` or a
    non-finite float is refused with ``ValueError``, naming it."""

    __slots__ = _fields = ("dim", "terms", "trivial")

    def __init__(self, dim: int, terms: tuple[tuple[tuple[int, ...], Fraction], ...],
                 trivial: Fraction):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "trivial", trivial)

    @staticmethod
    def build(dim: int, terms=None, trivial=0) -> "CharacterClass":
        acc: dict[tuple[int, ...], Fraction] = {}
        triv = _fraction(trivial)
        for w, mult in terms or []:
            w = tuple(map(as_int, w))
            if len(w) != dim:
                raise ValueError("character %r has wrong length for dim %d" % (w, dim))
            m = _fraction(mult)
            if not m:
                continue
            if any(w):
                acc[w] = acc.get(w, Fraction(0)) + m
            else:
                triv += m
        items = tuple(sorted((w, m) for w, m in acc.items() if m))
        return CharacterClass(dim, items, triv)

    @staticmethod
    def zero(dim: int) -> "CharacterClass":
        return CharacterClass.build(dim)

    def __add__(self, other: "CharacterClass") -> "CharacterClass":
        if self.dim != other.dim:
            raise ValueError("mixing character classes of different dims")
        return CharacterClass.build(
            self.dim, list(self.terms) + list(other.terms), self.trivial + other.trivial
        )

    def __sub__(self, other: "CharacterClass") -> "CharacterClass":
        return self + other.scale(-1)

    def scale(self, c) -> "CharacterClass":
        c = _fraction(c)
        return CharacterClass.build(
            self.dim, [(w, c * m) for w, m in self.terms], c * self.trivial
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms and not self.trivial

    def is_bundle(self) -> bool:
        """True when all multiplicities are nonnegative integers."""
        all_mults = [m for _, m in self.terms] + [self.trivial]
        return all(m.denominator == 1 and m >= 0 for m in all_mults)

    def __str__(self) -> str:
        parts = []
        if self.trivial:
            parts.append("%s*triv" % self.trivial)
        parts.extend("%s*chi%s" % (m, list(w)) for w, m in self.terms)
        return " + ".join(parts) if parts else "0"
