"""Exact integer linear algebra.

Matrices over the integers; the reduced Hermite basis of a lattice, with
reduction modulo it, its invariant factors and the walk over the dual of
Z^d / L; exact rational linear solving; Smith normal form with transforms,
a public contract that no other computation here calls.  Every number is a
Python ``int`` or ``fractions.Fraction``; no fixed-width arithmetic or
floating point appears anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from .value import Value


def as_fraction_vector(values) -> tuple[Fraction, ...]:
    """Coerce a sequence of ints/Fractions/strings like '2/3' to Fractions."""
    return tuple(Fraction(v) for v in values)


def as_int(value) -> int:
    """``value`` as an int: one with a fractional part is refused with
    ``ValueError``, not truncated as ``int`` would."""
    if value.__class__ is int:
        return value
    q = Fraction(value)
    if q.denominator != 1:
        raise ValueError("expected an integer, got %s" % (value,))
    return q.numerator


class IntMatrix(Value):
    """Immutable integer matrix, stored row-major as nested tuples."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("rows have inconsistent lengths")
        for row in entries:
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise TypeError("matrix entries must be plain ints, got %r" % (e,))
        object.__setattr__(self, "entries", entries)

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
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
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
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


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


def invariant_factors(vectors, width: int) -> tuple[int, ...]:
    """The nonzero invariant factors d1 | d2 | ... of the lattice L spanned
    by ``vectors``, so that Z^width / L is Z^(width - len) plus the Z/d_i.

    Hermite bases of the lattice and of its transpose alternate until the
    basis is diagonal; a gcd/lcm pass then makes the divisibility chain.
    """
    basis = hnf(vectors, width)
    while any(sum(map(bool, row)) > 1 for row in basis):
        basis = hnf(zip(*basis), len(basis))
    diag = [sum(row) for row in basis]  # one nonzero entry per row
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return tuple(diag)


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
    """Smith normal form of an arbitrary integer matrix.

    Pivots are chosen by smallest absolute value; only the output identities
    (U*M*V = D, unimodularity, divisibility chain, D diagonal) are contractual.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src], applied to a and u
        if q:
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        if q:
            for row in a:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = abs(a[i][j])
                if e and (best is None or e < best):
                    best = e
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        d = a[t][t]
        fix = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % d),
            None,
        )
        if fix is not None:
            # pull a non-multiple into the pivot row and redo the elimination
            add_row(t, fix[0], 1)
            continue
        t += 1

    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    return SnfResult(U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(a), V=IntMatrix.from_rows(v))


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
