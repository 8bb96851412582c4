import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypertoric import (
    IntMatrix,
    as_fraction_vector,
    cokernel_torsion_elements,
    snf,
    solve_rational,
)
from hypertoric.exact import cokernel_torsion_numerators, hnf


def assert_snf_contract(m, res):
    assert res.U.mul(m).mul(res.V) == res.D
    assert abs(res.U.det()) == 1
    assert abs(res.V.det()) == 1
    diag = res.diagonal()
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D[i, j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros only at the end of the chain
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero


class _Half(Fraction):
    """A Fraction subclass: it is coerced, not passed through."""


def test_as_fraction_vector_passes_fractions_through():
    q = Fraction(2, 3)
    sub = _Half(1, 2)
    out = as_fraction_vector([q, 3, sub, -4])
    assert out[0] is q
    assert out == (Fraction(2, 3), Fraction(3), Fraction(1, 2), Fraction(-4))
    assert [type(v) for v in out] == [Fraction] * 4


def test_int_matrix_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="^rows have inconsistent lengths$"):
        IntMatrix.from_rows([[1, 2], [3]])
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="^dimension mismatch in matrix product$"):
        m.mul(m)
    with pytest.raises(ValueError, match="^dimension mismatch in matrix-vector product$"):
        m.mul_vector([1, 2])
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        m.det()
    assert m.mul(m.transpose()).entries == ((14, 32), (32, 77))
    assert IntMatrix(()).det() == 1


def test_snf_identity_1x1():
    res = snf(IntMatrix.from_rows([[1]]))
    assert res.D.entries == ((1,),)
    assert res.U.entries == ((1,),)
    assert res.V.entries == ((1,),)


def test_snf_diag_2_3():
    m = IntMatrix.diagonal([2, 3])
    res = snf(m)
    assert res.D == IntMatrix.diagonal([1, 6])
    assert_snf_contract(m, res)


def test_snf_gcd_row():
    m = IntMatrix.from_rows([[4, 6]])
    res = snf(m)
    assert res.D.entries == ((2, 0),)
    assert_snf_contract(m, res)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_snf_contract_hypothesis(rows, cols, data):
    entries = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    m = IntMatrix.from_rows(entries)
    assert_snf_contract(m, snf(m))


@pytest.mark.parametrize("rows", [
    [[410, 494, -350, -19], [-439, -404, -38, -174], [847, -700, -770, -228],
     [683, 89, 965, -633], [284, 919, 22, 777]],
    [[-16, -1, 2, -1, 10, 0], [-9, 10, 10, -9, -17, -4], [-19, 2, 5, -19, 15, 6],
     [3, 4, 17, -20, 8, -18], [-9, 19, -8, -13, -5, 9], [2, 12, 2, 13, -4, 9]],
], ids=["5x4", "6x6"])
def test_snf_transforms_stay_small(rows):
    # an elimination by smallest pivot gave no answer on the 5x4 input
    # within 120 s, and transform entries of 44406 bits on the 6x6 one
    m = IntMatrix.from_rows(rows)
    res = snf(m)
    assert_snf_contract(m, res)
    assert all(abs(x).bit_length() <= 64 for t in (res.U, res.V) for row in t.entries for x in row)


def test_solve_identity():
    m = IntMatrix.identity(2)
    assert solve_rational(m, [1, 0]) == (Fraction(1), Fraction(0))


def test_solve_half():
    assert solve_rational(IntMatrix.from_rows([[2]]), [1]) == (Fraction(1, 2),)


def test_solve_inconsistent():
    assert solve_rational(IntMatrix.from_rows([[1, 1], [1, 1]]), [1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_rational(IntMatrix.from_rows([[1, 1]]), [1, 2])


def test_solve_multiply_back_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        b = as_fraction_vector([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows)])
        x = solve_rational(m, b)
        if x is not None:
            assert m.mul_vector(x) == b


def brute_force_cokernel(m):
    """Independent oracle: scan the full grid of denominator-|det| vectors."""
    n = abs(m.det())
    d = m.rows
    mt = m.transpose()
    out = set()
    for ks in itertools.product(range(n), repeat=d):
        v = tuple(Fraction(k, n) for k in ks)
        if all(val.denominator == 1 for val in mt.mul_vector(v)):
            out.add(v)
    return out


def test_cokernel_2():
    got = cokernel_torsion_elements(IntMatrix.from_rows([[2]]))
    assert got == {(Fraction(0),), (Fraction(1, 2),)}


def test_cokernel_3_matches_brute_force():
    m = IntMatrix.from_rows([[3]])
    got = cokernel_torsion_elements(m)
    assert got == {(Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),)}
    assert got == brute_force_cokernel(m)


def test_cokernel_identity_trivial():
    assert cokernel_torsion_elements(IntMatrix.identity(2)) == {(Fraction(0), Fraction(0))}


def test_cokernel_singular_rejected():
    with pytest.raises(ValueError):
        cokernel_torsion_elements(IntMatrix.from_rows([[1, 1], [1, 1]]))


def test_cokernel_canonical_form_and_size():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        while True:
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
            )
            if m.det() != 0:
                break
        got = cokernel_torsion_elements(m)
        assert len(got) == abs(m.det())
        mt = m.transpose()
        for v in got:
            assert all(0 <= x < 1 for x in v)
            assert all(val.denominator == 1 for val in mt.mul_vector(v))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_hermite_walk_gives_each_dual_element_once(d, data):
    # the walk over the Hermite basis of the columns of M gives |det M|
    # distinct rows over N, and each pairs integrally with every column
    entries = [[data.draw(st.integers(-9, 9)) for _ in range(d)] for _ in range(d)]
    m = IntMatrix.from_rows(entries)
    det = m.det()
    assume(det)
    big, rows = cokernel_torsion_numerators(hnf(m.transpose().entries, d))
    assert big == abs(det)
    assert len(set(rows)) == len(rows) == abs(det)
    for row in rows:
        assert all(0 <= x < big for x in row)
        assert all(sum(a * x for a, x in zip(col, row)) % big == 0 for col in m.transpose().entries)


def test_cokernel_brute_force_cross_check():
    rng = random.Random(13)
    for _ in range(10):
        d = rng.randint(1, 2)
        while True:
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            )
            if m.det() != 0:
                break
        assert cokernel_torsion_elements(m) == brute_force_cokernel(m)
