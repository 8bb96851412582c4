"""The Hermite lattice kernel against sympy.

``exact.hnf`` gives the reduced row Hermite basis of a lattice, and every
graded piece of a sector ring is held as one.  sympy's rank and
``invariant_factors`` are the independent reference here (sympy is a test
dependency only): graded-group invariants of random presentations are
recomputed from sympy polynomials, and Hermite bases are checked for their
defining shape, for spanning exactly the input lattice, and for depending on
the lattice alone.  sympy's determinant checks the one determinant routine
(``exact._det``, behind ``IntMatrix.det`` and the Cramer numerators of the
sign rule).
"""

import itertools
import random
import time

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from hypertoric import (
    GradedRingPresentation,
    IntPoly,
    WeightMatrix,
    column_bases,
    graded_group,
    verify_orbifold_iso,
)
from hypertoric.exact import IntMatrix, hermite_reduce, hnf, invariant_factors
from hypertoric.model import _cramer, _integral
from hypertoric.sampling import random_generic_instance


def ref_factors(vectors):
    """Nonzero invariant factors of the row lattice of ``vectors``."""
    if not vectors:
        return []
    m = sympy.Matrix(vectors)
    return [int(f) for f in sympy_invariant_factors(m, domain=sympy.ZZ) if f != 0]


def ref_rank(vectors):
    return sympy.Matrix(vectors).rank() if vectors else 0


def ref_graded_invariants(nvars, relations, k):
    """(free rank, torsion) of the degree-k piece of Z[t] / (relations),
    with each relation a {exponent tuple: coefficient} dict."""
    ts = sympy.symbols("t1:%d" % (nvars + 1))
    monos = sorted({
        tuple(c.count(i) for i in range(nvars))
        for c in itertools.combinations_with_replacement(range(nvars), k)
    })
    index = {m: i for i, m in enumerate(monos)}
    vectors = []
    for rel in relations:
        poly = sympy.Poly(sum(c * sympy.Mul(*(t**x for t, x in zip(ts, m))) for m, c in rel.items()), *ts)
        e = poly.total_degree()
        if e > k:
            continue
        for c in itertools.combinations_with_replacement(range(nvars), k - e):
            shifted = poly * sympy.Poly(sympy.Mul(*(ts[i] for i in c)), *ts)
            vec = [0] * len(monos)
            for m, coeff in shifted.terms():
                vec[index[m]] = int(coeff)
            vectors.append(vec)
    factors = ref_factors(vectors)
    return len(monos) - len(factors), tuple(f for f in factors if f > 1)


def random_relation(rng, nvars):
    degree = rng.randint(1, 3)
    monos = [
        tuple(c.count(i) for i in range(nvars))
        for c in itertools.combinations_with_replacement(range(nvars), degree)
    ]
    while True:
        rel = {m: rng.randint(-9, 9) for m in rng.sample(monos, rng.randint(1, len(monos)))}
        rel = {m: c for m, c in rel.items() if c}
        if rel:
            return rel


@pytest.mark.parametrize("seed", [0, 1])
def test_graded_invariants_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        relations = [random_relation(rng, nvars) for _ in range(rng.randint(1, 3))]
        pres = GradedRingPresentation(
            nvars, tuple(IntPoly.from_dict(nvars, rel) for rel in relations), 4
        )
        for k in range(5):
            got = graded_group(pres, k).invariants
            assert got == ref_graded_invariants(nvars, relations, k), (relations, k)


def random_vectors(rng, count, width, rank=None):
    """Random integer vectors; with ``rank`` they are products of random
    count x rank and rank x width matrices, so their rank is at most that."""
    if rank is None:
        return [[rng.randint(-9, 9) for _ in range(width)] for _ in range(count)]
    left = random_vectors(rng, count, rank)
    right = random_vectors(rng, rank, width)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def lattice_cases(seed, cases=120):
    rng = random.Random(seed)
    for _ in range(cases):
        width = rng.randint(1, 6)
        count = rng.randint(0, 8)
        rank = rng.choice([None, rng.randint(1, width)])
        yield width, random_vectors(rng, count, width, rank)


def assert_hermite_shape(basis, width):
    pivots = []
    for row in basis:
        assert len(row) == width
        p = next(i for i, e in enumerate(row) if e)
        assert row[p] > 0
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        for above in basis[:i]:
            assert 0 <= above[p] < basis[i][p]


def test_hnf_is_a_reduced_hermite_basis_of_the_input_lattice():
    for width, vectors in lattice_cases(5):
        basis = hnf(vectors, width)
        assert_hermite_shape(basis, width)
        # the inputs lie in the span of the basis ...
        for v in vectors:
            assert not any(hermite_reduce(v, basis))
        # ... and the two lattices have equal rank and index, so they agree
        assert ref_factors([list(r) for r in basis]) == ref_factors(vectors)


def test_hnf_depends_only_on_the_lattice():
    rng = random.Random(8)
    for width, vectors in lattice_cases(6):
        basis = hnf(vectors, width)
        mixed = [list(v) for v in vectors]
        for _ in range(3 * len(mixed)):
            if len(mixed) < 2:
                break
            i, j = rng.sample(range(len(mixed)), 2)
            q = rng.randint(-3, 3)
            mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
            if rng.random() < 0.3:
                mixed[j] = [-b for b in mixed[j]]
        rng.shuffle(mixed)
        assert hnf(mixed, width) == basis


def test_rank_and_invariant_factors_match_sympy():
    for width, vectors in lattice_cases(7):
        assert len(hnf(vectors, width)) == ref_rank(vectors)
        assert list(invariant_factors(vectors, width)) == ref_factors(vectors)


def test_hnf_refuses_wrong_width():
    with pytest.raises(ValueError):
        hnf([[1, 2]], 3)


def test_orbifold_iso_on_formerly_stuck_instance():
    a = WeightMatrix.from_rows([[0, 2, -2, -1, 3], [2, 3, -2, 1, -1]])
    assert verify_orbifold_iso(a, [2, -1], 5).ok


def test_three_variable_pieces_finish_and_match_sympy():
    rel1 = {(2, 0, 0): 10, (1, 1, 0): 10, (1, 0, 1): -3, (0, 0, 2): 12}
    rel2 = {(2, 0, 0): 12, (1, 1, 0): -3, (1, 0, 1): 12, (0, 2, 0): -12, (0, 1, 1): 10, (0, 0, 2): -12}
    pres = GradedRingPresentation(3, (IntPoly.from_dict(3, rel1), IntPoly.from_dict(3, rel2)), 8)
    start = time.perf_counter()
    got = [graded_group(pres, k).invariants for k in range(3, 9)]
    assert time.perf_counter() - start < 1.0
    # sympy itself does not finish degree 6 of this ring in a minute
    assert got[:3] == [ref_graded_invariants(3, [rel1, rel2], k) for k in range(3, 6)]


def det_cases(seed):
    """Seeded square int matrices of sizes 0-5, entries in [-9, 9]: random
    ones, singular ones (a row the sum or difference of two others, or a
    zero column), and ones with a zero leading entry and a nonzero entry below
    it, so the elimination swaps rows."""
    rng = random.Random(seed)
    for n in range(6):
        for kind in range(12):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n >= 3 and kind % 3 == 1:
                i, j, k = rng.sample(range(n), 3)
                m[j], m[k] = ([rng.randint(-4, 4) for _ in range(n)] for _ in "jk")
                sign = rng.choice([-1, 1])
                m[i] = [x + sign * y for x, y in zip(m[j], m[k])]
            elif n >= 2 and kind % 3 == 2:
                m[0][0] = 0
                m[rng.randrange(1, n)][0] = rng.choice([-9, -1, 1, 7])
            elif n and kind == 3:
                c = rng.randrange(n)
                for row in m:
                    row[c] = 0
            yield m


def test_det_matches_sympy():
    singular = swapped = 0
    for m in det_cases(5):
        got = IntMatrix.from_rows(m).det()
        assert got == int(sympy.Matrix(m).det()), m
        singular += len(m) > 1 and not got
        swapped += len(m) > 1 and not m[0][0] and any(row[0] for row in m)
    assert singular >= 10 and swapped >= 10


def test_cramer_numerators_match_sympy():
    # each numerator is det A_B with column j replaced by the integral
    # character, taken by sympy from the matrix itself, not its transpose
    a, theta = random_generic_instance(random.Random(1), 3, 9)
    theta = _integral(theta)[0]
    bases = column_bases(a)
    assert len(bases) == 79
    for basis in bases:
        sub = sympy.Matrix(a.columns_matrix(basis).entries)
        det, nums = _cramer(a, basis, theta)
        assert det == int(sub.det())
        for k, num in enumerate(nums):
            replaced = sub.copy()
            replaced[:, k] = sympy.Matrix(theta)
            assert num == int(replaced.det()), (basis, k)
