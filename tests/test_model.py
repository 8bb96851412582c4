import itertools
import random
from fractions import Fraction

import pytest

from hypertoric import (
    ModelError,
    NonGenericError,
    WeightMatrix,
    check_generic,
    column_bases,
    direct_model,
    hypertoric_model,
    lambda_coeffs,
    lawrence_double,
    lawrence_model,
    minimal_unstable_sets,
    model_from_dict,
    moment_eval,
    sigma_set,
)


def test_weight_matrix_rejects_rank_deficient():
    with pytest.raises(ModelError, match="rank deficient"):
        WeightMatrix.from_rows([[0, 0]])


def test_column_bases_1x2(a12):
    assert column_bases(a12) == [(1,), (2,)]


def test_column_bases_identity():
    assert column_bases(WeightMatrix.from_rows([[1, 0], [0, 1]])) == [(1, 2)]


def test_column_bases_2x3(a_2x3):
    assert column_bases(a_2x3) == [(1, 2), (1, 3), (2, 3)]


def test_lambda_half(a12):
    assert lambda_coeffs(a12, (2,), [1]) == (Fraction(1, 2),)


def test_lambda_identity_system():
    a = WeightMatrix.from_rows([[1, 0], [0, 1]])
    assert lambda_coeffs(a, (1, 2), [5, -7]) == (Fraction(5), Fraction(-7))


def test_lambda_2x3(a_2x3):
    assert lambda_coeffs(a_2x3, (2, 3), [1, 0]) == (Fraction(-1), Fraction(1))


def test_lambda_multiply_back(a_2x3):
    lams = lambda_coeffs(a_2x3, (2, 3), [1, 0])
    combo = [Fraction(0), Fraction(0)]
    for lam, col in zip(lams, (2, 3)):
        for i, c in enumerate(a_2x3.column(col)):
            combo[i] += lam * c
    assert combo == [1, 0]


def test_lambda_refuses_columns_outside_the_matrix(a12):
    # column 0 once read column n through a negative index
    for basis in ((0,), (3,)):
        with pytest.raises(ModelError, match="not all in 1..2"):
            lambda_coeffs(a12, basis, [1])


def test_sigma_sign_rule(a12, a_2x3):
    assert sigma_set(a12, (1,), [1]).labels() == ("x1",)
    assert sigma_set(a12, (2,), [1]).labels() == ("x2",)
    assert sigma_set(a_2x3, (2, 3), [1, 0]).labels() == ("y2", "x3")


def test_sigma_rejects_zero_lambda(a_2x3):
    with pytest.raises(NonGenericError):
        sigma_set(a_2x3, (1, 3), [1, 0])


def test_check_generic_positive(a12):
    assert check_generic(a12, [1]).generic


def test_check_generic_identity():
    assert check_generic(WeightMatrix.from_rows([[1, 0], [0, 1]]), [1, 1]).generic


def test_check_generic_violations(a_2x3):
    rep = check_generic(a_2x3, [1, 0])
    assert not rep.generic
    # both degenerate bases are named; {1,3} with lambda_3 = 0 among them
    assert ((1, 3), 3) in rep.violations
    assert "basis {1,3}, lambda_3 = 0" in rep.describe()


def brute_force_min_hitting(sets):
    """Oracle: scan every subset of the universe."""
    universe = sorted(set().union(*sets))
    hitting = [
        frozenset(c)
        for size in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, size)
        if all(set(c) & s for s in sets)
    ]
    return [h for h in hitting if not any(o < h for o in hitting)]


def test_minimal_unstable_singletons():
    assert minimal_unstable_sets([{1}, {2}]) == [frozenset({1, 2})]
    assert minimal_unstable_sets([{1}, {2}, {3}]) == [frozenset({1, 2, 3})]


def test_minimal_unstable_overlap():
    got = minimal_unstable_sets([{1, 2}, {2, 3}])
    assert got == [frozenset({2}), frozenset({1, 3})]
    assert sorted(got, key=lambda s: (len(s), sorted(s))) == sorted(
        brute_force_min_hitting([{1, 2}, {2, 3}]), key=lambda s: (len(s), sorted(s))
    )


def test_minimal_unstable_is_antichain_random():
    rng = random.Random(5)
    for _ in range(20):
        sets = [
            frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        got = minimal_unstable_sets(sets)
        for s in got:
            assert all(s & t for t in sets)
        for s1, s2 in itertools.combinations(got, 2):
            assert not (s1 <= s2 or s2 <= s1)
        assert sorted(got, key=lambda s: (len(s), sorted(s))) == sorted(
            brute_force_min_hitting(sets), key=lambda s: (len(s), sorted(s))
        )


def test_lawrence_double(a12):
    assert lawrence_double(a12).matrix.entries == ((1, 2, -1, -2),)
    one = WeightMatrix.from_rows([[1]])
    assert lawrence_double(one).matrix.entries == ((1, -1),)
    eye = WeightMatrix.from_rows([[1, 0], [0, 1]])
    assert lawrence_double(eye).matrix.entries == ((1, 0, -1, 0), (0, 1, 0, -1))


def test_lawrence_double_roundtrip(a_2x3):
    doubled = lawrence_double(a_2x3)
    xblock = doubled.matrix.submatrix_columns(range(a_2x3.n))
    assert xblock == a_2x3.matrix


def test_moment_examples(a12):
    assert moment_eval(a12, [1, 1, -2, 1]) == (Fraction(0),)
    assert moment_eval(a12, [2, 3, 1, 1]) == (Fraction(8),)
    assert moment_eval(a12, [0, 0, 0, 0]) == (Fraction(0),)


def test_moment_bilinear(a_2x3):
    rng = random.Random(3)
    n = a_2x3.n
    for _ in range(20):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        y1 = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        y2 = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        lhs = moment_eval(a_2x3, x + [a + b for a, b in zip(y1, y2)])
        r1 = moment_eval(a_2x3, x + y1)
        r2 = moment_eval(a_2x3, x + y2)
        assert lhs == tuple(a + b for a, b in zip(r1, r2))


def test_sigma_sets_have_d_elements_once_per_column(a_2x3):
    theta = (2, 1)
    assert check_generic(a_2x3, theta).generic
    for basis in column_bases(a_2x3):
        s = sigma_set(a_2x3, basis, theta)
        assert len(s.basis) == a_2x3.d
        assert len(s.tags) == len(s.basis)


def test_model_constructors_reject_nongeneric(a_2x3):
    with pytest.raises(NonGenericError):
        lawrence_model(a_2x3, [1, 0])
    with pytest.raises(NonGenericError):
        hypertoric_model(a_2x3, [1, 0])


def test_model_rejects_zero_theta(a12):
    with pytest.raises(ModelError):
        lawrence_model(a12, [0])


def test_unstable_sets_hit_every_sigma(tp12_lawrence):
    arr = tp12_lawrence.arrangement
    n = tp12_lawrence.n
    for s in arr.unstable_minimal:
        for sig in arr.sigma_sets:
            assert s & sig.coords(n)


def test_hypertoric_tangent_is_lawrence_minus_d_trivial(tp12_lawrence, tp12_hypertoric):
    diff = tp12_lawrence.tangent_class - tp12_hypertoric.tangent_class
    assert diff.terms == ()
    assert diff.trivial == tp12_lawrence.d


def test_direct_model_from_theta_weighted_projective():
    m = direct_model(WeightMatrix.from_rows([[1, 1, 1]]), theta=[1])
    assert [sorted(s) for s in m.arrangement.unstable_minimal] == [[1, 2, 3]]


def test_direct_model_validates_unstable_sets():
    a = WeightMatrix.from_rows([[0, 1, 2, 3]])
    with pytest.raises(ModelError):
        direct_model(a, unstable=[[9]])
    with pytest.raises(ModelError):
        direct_model(a, unstable=[[4], [3, 4]])
    with pytest.raises(ModelError):
        direct_model(a)


def test_model_from_dict_variants(a12):
    m = model_from_dict({"A": [[1, 2]], "theta": [1], "kind": "hypertoric"})
    assert m.kind == "hypertoric" and m.moment_rank == 1
    m2 = model_from_dict({"A": [[0, 1, 2, 3]], "kind": "direct", "unstable": [[4]]})
    assert m2.kind == "direct"
    with pytest.raises(ModelError):
        model_from_dict({"A": [[0, 0]]})
    with pytest.raises(ModelError):
        model_from_dict({"theta": [1]})
    with pytest.raises(ModelError):
        model_from_dict({"A": [[1, 2]], "theta": [1], "kind": "toric"})
    with pytest.raises(NonGenericError):
        model_from_dict({"A": [[1, 0, 1], [0, 1, 1]], "theta": [1, 0], "kind": "lawrence"})
