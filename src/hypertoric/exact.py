"""Exact integer linear algebra.

Matrices over the integers, with one determinant routine on int rows
(``_det``, behind ``IntMatrix.det`` and the model's minors); the reduced
Hermite basis of a lattice, with reduction modulo it and the walk over the
dual of Z^d / L; exact rational linear solving.  ``hnf`` is the one elimination: the Smith form behind
both ``invariant_factors`` and ``snf`` (with transforms, a public contract
that no other computation here calls) takes Hermite bases of the rows and
of the columns in turn.  Every number is a Python ``int`` or
``fractions.Fraction``; no fixed-width arithmetic or floating point
appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, prod
from numbers import Rational
from typing import NamedTuple

from .value import Value


def _fraction(value, what: str = "a finite number") -> Fraction:
    """``Fraction(value)`` of a rational number or a finite float, the one
    input rule of ``as_int`` and ``as_fraction_vector``.  Anything else is
    refused with ``ValueError`` naming it by its repr: a bool, a string
    (``'1/2'`` is not parsed), ``None``, a ``Decimal``, a float infinity or
    nan, where ``Fraction`` would read a bool as 0 or 1, parse a string or
    raise a bare ``OverflowError`` or ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (Rational, float)) or (
            isinstance(value, float) and not isfinite(value)):
        raise ValueError("expected %s, got %r" % (what, value))
    return Fraction(value)


def as_fraction_vector(values) -> tuple[Fraction, ...]:
    """A sequence of rational numbers or finite floats as Fractions; a
    ``Fraction`` itself is passed through, not rebuilt, and anything else
    (a bool, a string, ``None``, an infinity or nan) is refused with
    ``ValueError`` by ``_fraction``'s rule."""
    return tuple(v if v.__class__ is Fraction else _fraction(v) for v in values)


def as_int(value) -> int:
    """``value`` as an int: one with a fractional part is refused with
    ``ValueError``, not truncated as ``int`` would, and so is anything
    ``_fraction`` refuses, ``None``, a bool, a string, an infinity or nan
    among them (named by its repr, so ``'5'`` does not read as 5)."""
    if value.__class__ is int:
        return value
    if (q := _fraction(value, "an integer")).denominator != 1:
        raise ValueError("expected an integer, got %s" % (value,))
    return q.numerator


class IntMatrix(Value):
    """Immutable integer matrix, stored row-major as nested tuples: rows
    of one length of plain ints, checked by ``__init__``, and not by
    ``_derived``, for rows the library built from a matrix's own."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("rows have inconsistent lengths")
        for row in entries:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError("matrix entries must be plain ints, got %r" % (e,))
        self._set(entries)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(map(as_int, row)) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(values) -> "IntMatrix":
        vals = list(values)
        n = len(vals)
        return IntMatrix(tuple(tuple(vals[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def mul_vector(self, vec) -> tuple[Fraction, ...]:
        """Matrix times a rational column vector, exactly."""
        v = as_fraction_vector(vec)
        if self.cols != len(v):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in self.entries)

    def submatrix_columns(self, col_indices) -> "IntMatrix":
        """Submatrix of the given 0-based columns, in the order given."""
        idx = list(col_indices)
        return IntMatrix(tuple(tuple(row[j] for j in idx) for row in self.entries))

    def det(self) -> int:
        """Determinant (``_det`` of the rows)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.entries)


def _det(rows) -> int:
    """Determinant of the square matrix with int ``rows`` by fraction-free
    (Bareiss) elimination, read as given: no shape or entry check.  A
    matrix and its transpose have one determinant, so a caller holding
    columns passes them as the rows."""
    n = len(rows)
    a = [list(row) for row in rows]
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def hermite_reduce(vector, basis) -> list[int]:
    """``vector`` reduced modulo the lattice of a Hermite basis as ``hnf``
    returns it: each row, in pivot order, is subtracted until the vector's
    entry at that pivot lies in [0, pivot).  Vectors that differ by a
    lattice vector reduce to the same result, and lattice vectors to zero."""
    v = list(vector)
    c = 0
    for row in basis:
        while not row[c]:
            c += 1
        q = v[c] // row[c]
        if q:
            v[c:] = [x - q * y for x, y in zip(v[c:], row[c:])]
        c += 1
    return v


def hnf(vectors, width: int) -> tuple[tuple[int, ...], ...]:
    """The reduced row Hermite basis of the lattice spanned by integer
    ``vectors`` of length ``width``.

    The first nonzero entry of each row (its pivot) is positive, pivots
    move strictly right down the rows, and every entry above a pivot lies
    in [0, pivot).  The basis depends only on the lattice, and its length is
    the rank.  Vectors are taken one at a time and first reduced by the
    basis so far (``hermite_reduce``); one that reduces to zero is already
    in the lattice and is skipped.  The rest are inserted by gcd steps on
    pivot columns, and the basis is re-reduced after every insertion, so
    between insertions it is the reduced basis of the lattice so far and its
    entries stay small; no transform is tracked.
    """
    rows: dict[int, list[int]] = {}
    basis: list[list[int]] = []  # the rows in pivot order
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ValueError("vector of length %d in a lattice of width %d" % (len(v), width))
        v = hermite_reduce(v, basis)
        if not any(v):
            continue
        for c in range(width):
            if not v[c]:
                continue
            # Euclid on column c by row operations: b ends with the gcd as
            # its pivot, and v with a zero in column c
            b = rows[c] if c in rows else [0] * width
            while v[c]:
                q = b[c] // v[c]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            rows[c] = b if b[c] > 0 else [-x for x in b]
        order = sorted(rows)
        for i, c in enumerate(order):
            rows[c] = hermite_reduce(rows[c], [rows[k] for k in order[i + 1:]])
        basis = [rows[c] for c in order]
    return tuple(tuple(row) for row in basis)


def _combine(p: int, u, q: int, v) -> tuple[int, ...]:
    return tuple(p * x + q * y for x, y in zip(u, v))


def _smith(a, width: int, left, right) -> tuple[list[int], list, list]:
    """The Smith form of the matrix with rows ``a`` of length ``width``, by
    the route of Kannan and Bachem: Hermite bases of its rows and of its
    columns in turn until it is diagonal, then one gcd/lcm pass for the
    divisibility chain d1 | d2 | ...

    Row i carries the transform row ``left[i]`` and column j the transform
    row ``right[j]``.  The reduced basis of the rows of [A | left] is
    W [A | left] for a unimodular W, so the new transform is read off the
    extra columns; the columns go the same way through the transpose.  With
    transform rows of length zero, rows in the lattice of the others are
    dropped, which leaves the nonzero diagonal as it is.  Each step of the
    pass takes g = s x + t y from the Hermite basis of (x, 1, 0), (y, 0, 1);
    L = [[s, t], [-y/g, x/g]] on the rows and R = [[1, -t y/g], [1, s x/g]]
    on the columns take diag(x, y) to diag(g, x y / g).  Returns the nonzero
    diagonal and both transforms.
    """
    flipped = False
    while True:
        k = len(left[0]) if left else 0
        reduced = hnf([row + t for row, t in zip(a, left)], width + k)
        a, left = [r[:width] for r in reduced], [r[width:] for r in reduced]
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            break
        # the columns next, as the rows of the transpose
        a, width, left, right, flipped = list(zip(*a)), len(a), right, left, not flipped
    if flipped:  # the diagonal reads the same off the transpose
        left, right = right, left
    diag = [row[i] for i, row in enumerate(a) if i < width and row[i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                (g, s, t), _ = hnf(((x, 1, 0), (y, 0, 1)), 3)
                diag[i], diag[j] = g, x // g * y
                left[i], left[j] = (_combine(s, left[i], t, left[j]),
                                    _combine(-(y // g), left[i], x // g, left[j]))
                right[i], right[j] = (_combine(1, right[i], 1, right[j]),
                                      _combine(-t * (y // g), right[i], s * (x // g), right[j]))
    return diag, left, right


def invariant_factors(vectors, width: int) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of the lattice L spanned
    by ``vectors``, so that Z^width / L is Z^(width - len) plus the Z/d_i:
    the diagonal of ``_smith`` with no transforms."""
    a = [tuple(v) for v in vectors]
    return tuple(_smith(a, width, [()] * len(a), [()] * width)[0])


class SnfResult(NamedTuple):
    """Smith normal form data: U * M * V = D with U, V unimodular and the
    diagonal of D a divisibility chain d1 | d2 | ..."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form of an arbitrary integer matrix: ``_smith`` with
    the identity transforms.  The nonzero diagonal entries come first; only
    the output identities (U*M*V = D, unimodularity, divisibility chain, D
    diagonal) are contractual."""
    rows, cols = m.rows, m.cols
    diag, u, v = _smith(list(m.entries), cols, list(IntMatrix.identity(rows).entries),
                        list(IntMatrix.identity(cols).entries))
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return SnfResult(U=IntMatrix(tuple(u)), D=IntMatrix.from_rows(d), V=IntMatrix(tuple(v)).transpose())


def solve_rational(m: IntMatrix, b) -> tuple[Fraction, ...] | None:
    """Exact solution x of M*x = b, or None when the system is inconsistent.

    Free variables (if any) are set to zero, so for square nonsingular M the
    unique solution is returned.
    """
    rhs = as_fraction_vector(b)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length %d does not match %d rows" % (len(rhs), m.rows))
    rows, cols = m.rows, m.cols
    a = [[Fraction(e) for e in m.entries[i]] + [rhs[i]] for i in range(rows)]
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = a[i][cols]
    return tuple(x)


def cokernel_torsion_numerators(basis) -> tuple[int, list[tuple[int, ...]]]:
    """All v in (Q/Z)^d with H v integral, for a full-rank Hermite basis H as
    ``hnf`` returns it: the dual of Z^d / L for the lattice L of its rows.
    Returns (N, rows), N = |det H| the product of the pivots, each v = row / N
    with entries in [0, N); the N rows are distinct, not all in lowest terms.

    From the last coordinate up, v_i = (k_i - sum_{j>i} H_ij v_j) / p_i with
    k_i in [0, p_i); raising k_i by one adds N H^-1 e_i, zero below i.  So
    each pivot p > 1 repeats every coordinate's list of numerators p times,
    adding the multiples of its step; the rows are zipped once, at the end."""
    d = len(basis)
    pivots = [basis[i][i] for i in range(d)]
    big = prod(pivots)
    cols = [[0] for _ in range(d)]
    for i in reversed(range(d)):
        p = pivots[i]
        if p == 1:
            continue
        step = [0] * d
        step[i] = big // p
        for r in reversed(range(i)):
            step[r] = -sum(basis[r][j] * step[j] for j in range(r + 1, i + 1)) // pivots[r]
        cols = [[x + y for y in range(0, p * s, s) for x in col] if s else col * p
                for col, s in zip(cols, step)]
    return big, list(zip(*([x % big for x in col] for col in cols)))


def cokernel_torsion_elements(m: IntMatrix) -> set[tuple[Fraction, ...]]:
    """All v in (Q/Z)^d with M^T * v integral, for a nonsingular square M.

    Each element is returned in canonical form: entries are Fractions in
    [0, 1) in lowest terms.  The result has exactly |det M| elements.  This
    is the Fraction view of ``cokernel_torsion_numerators`` of the Hermite
    basis of the columns of M.
    """
    basis = hnf(m.transpose().entries, m.rows)
    if m.rows != m.cols or len(basis) != m.rows:
        raise ValueError("cokernel enumeration requires a nonsingular square matrix")
    big, rows = cokernel_torsion_numerators(basis)
    return {tuple(Fraction(x, big) for x in row) for row in rows}
