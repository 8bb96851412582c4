"""Integer polynomials in variables t1..td with a fixed graded-lex order.

Small exact implementation tailored to homogeneous computations: every
monomial is an exponent tuple, terms are kept sorted in graded-lex order
with t1 > t2 > ... > td, and coefficients are arbitrary-precision ints.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .exact import as_int
from .value import Value


def monomials_of_degree(nvars: int, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree k, in descending graded-lex order:
    the multisets of k variable indices in ascending order, counted."""
    if k < 0:
        return []
    return [tuple(map(c.count, range(nvars))) for c in combinations_with_replacement(range(nvars), k)]


def _term_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class IntPoly(Value):
    """Immutable integer polynomial; terms sorted descending, no zero coeffs."""

    __slots__ = _fields = ("nvars", "terms")

    def __init__(self, nvars: int, terms: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_dict(nvars: int, coeffs: dict) -> "IntPoly":
        items = [(tuple(e), as_int(c)) for e, c in coeffs.items() if c]
        for exps, _ in items:
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent tuple %r for %d variables" % (exps, nvars))
        items.sort(key=lambda t: _term_key(t[0]), reverse=True)
        return IntPoly(nvars, tuple(items))

    @staticmethod
    def zero(nvars: int) -> "IntPoly":
        return IntPoly(nvars, ())

    @staticmethod
    def const(nvars: int, c: int) -> "IntPoly":
        return IntPoly.from_dict(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "IntPoly":
        return IntPoly.const(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "IntPoly":
        """The variable t_{i+1} (0-based index i)."""
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return IntPoly.from_dict(nvars, {exps: 1})

    @staticmethod
    def linear_form(w) -> "IntPoly":
        """The degree-1 form <w, t> = w_1 t_1 + ... + w_d t_d."""
        w = tuple(map(as_int, w))
        return IntPoly.from_dict(len(w), dict(zip(monomials_of_degree(len(w), 1), w)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """Degree if homogeneous (None for zero), else raise."""
        degs = {sum(e) for e, _ in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: %s" % self)
        return degs.pop() if degs else None

    def _combine(self, other: "IntPoly", sign: int) -> "IntPoly":
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials in different variable counts")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + sign * c
        return IntPoly.from_dict(self.nvars, acc)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "IntPoly":
        return IntPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def scale(self, c: int) -> "IntPoly":
        c = as_int(c)
        if c == 0:
            return IntPoly.zero(self.nvars)
        return IntPoly(self.nvars, tuple((e, c * coef) for e, coef in self.terms))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials in different variable counts")
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return IntPoly.from_dict(self.nvars, acc)

    def __pow__(self, n: int) -> "IntPoly":
        n = as_int(n)
        if n < 0:
            raise ValueError("negative power")
        out = IntPoly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def coefficients_on(self, monomials) -> tuple[int, ...]:
        """Coefficient vector over an explicit monomial basis (exact cover)."""
        lookup = dict(self.terms)
        vec = tuple(lookup.pop(tuple(m), 0) for m in monomials)
        if lookup:
            raise ValueError("polynomial has monomials outside the given basis")
        return vec

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return "IntPoly(%s)" % format_poly(self)


def format_poly(p: IntPoly) -> str:
    """Deterministic human/JSON form, e.g. '2*t1^2 - t1*t2'."""
    if p.is_zero:
        return "0"
    parts = []
    for exps, coef in p.terms:
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("t%d" % (i + 1))
            elif e > 1:
                factors.append("t%d^%d" % (i + 1, e))
        mono = "*".join(factors)
        mag = abs(coef)
        if mono:
            body = mono if mag == 1 else "%d*%s" % (mag, mono)
        else:
            body = str(mag)
        if not parts:
            parts.append("-" + body if coef < 0 else body)
        else:
            parts.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(parts)
