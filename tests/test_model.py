import itertools
import random
import re
import time
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
    sector_model,
    sigma_set,
    stabilizer_elements,
)
from hypertoric.exact import IntMatrix
from hypertoric.model import _sign_rule
from hypertoric.sampling import random_generic_instance, random_weight_matrix


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


def git_sigma_sets(a, theta):
    return [sigma_set(a, basis, theta) for basis in column_bases(a)]


def test_minimal_unstable_singletons():
    # d = 1, positive columns: the sigma sets are the singletons {x_j}
    for rows in ([[1, 2]], [[1, 2, 3]]):
        a = WeightMatrix.from_rows(rows)
        assert minimal_unstable_sets(git_sigma_sets(a, [1]), a.n) == [frozenset(range(1, a.n + 1))]


def test_minimal_unstable_overlap():
    # columns 1 and 3 parallel: the sigma sets are {x1,x2} and {x2,x3}
    a = WeightMatrix.from_rows([[1, 0, 2], [0, 1, 0]])
    sigmas = [sigma_coords_of(a.n, s) for s in git_sigma_sets(a, [1, 1])]
    assert sorted(sigmas, key=sorted) == [frozenset({1, 2}), frozenset({2, 3})]
    got = minimal_unstable_sets(git_sigma_sets(a, [1, 1]), a.n)
    assert got == [frozenset({2}), frozenset({1, 3})]
    assert sorted(got, key=lambda s: (len(s), sorted(s))) == sorted(
        brute_force_min_hitting(sigmas), key=lambda s: (len(s), sorted(s))
    )


def test_minimal_unstable_is_antichain_random():
    rng = random.Random(5)
    for i in range(20):
        d = 1 + i % 3
        a, theta = random_generic_instance(rng, d, rng.randint(d + 1, 6))
        sets = [sigma_coords_of(a.n, s) for s in git_sigma_sets(a, theta)]
        got = minimal_unstable_sets(git_sigma_sets(a, theta), a.n)
        for s in got:
            assert all(s & t for t in sets)
        for s1, s2 in itertools.combinations(got, 2):
            assert not (s1 <= s2 or s2 <= s1)
        assert sorted(got, key=lambda s: (len(s), sorted(s))) == sorted(
            brute_force_min_hitting(sets), key=lambda s: (len(s), sorted(s))
        )


def sigma_coords_of(n, sigma):
    """Coordinate indices of a sigma set: x_j -> j, y_j -> n + j."""
    return frozenset(j if tag == "x" else n + j for j, tag in zip(sigma.basis, sigma.tags))


def direct_instance(rng, d, n):
    """A theta-built direct model: each column a positive multiple of one of
    d independent rays, or zero, and theta inside the cone of the rays, so
    every basis selects only x's."""
    rays = [[0] * d for _ in range(d)]
    while not IntMatrix.from_rows(rays).det():
        rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
    picks = list(range(d)) + [rng.randrange(-1, d) for _ in range(n - d)]
    rng.shuffle(picks)
    # pick -1 is a zero column
    scales = [rng.randint(1, 3) if k >= 0 else 0 for k in picks]
    cols = [[s * e for e in rays[k]] for k, s in zip(picks, scales)]
    weights = [rng.randint(1, 3) for _ in rays]
    theta = [sum(w * ray[i] for w, ray in zip(weights, rays)) for i in range(d)]
    return direct_model(WeightMatrix.from_rows(list(zip(*cols))), theta=theta)


def oracle_models():
    rng = random.Random(11)
    for i in range(60):
        d = 1 + i % 3
        a, theta = random_generic_instance(rng, d, rng.randint(d + 1, 7))
        yield lawrence_model(a, theta)
        yield hypertoric_model(a, theta)
    for i in range(45):
        d = 1 + i % 3
        yield direct_instance(rng, d, rng.randint(d, 7))
    # a zero column, parallel columns, and both in a direct model
    yield lawrence_model(WeightMatrix.from_rows([[0, 1, -2]]), [1])
    yield hypertoric_model(WeightMatrix.from_rows([[1, 2, 0, 1], [0, 0, 1, 1]]), [3, 1])
    yield direct_model(WeightMatrix.from_rows([[1, 2, 0, 0], [0, 0, 1, 0]]), theta=[1, 1])


def test_unstable_sets_are_the_minimal_transversals_of_the_sigma_sets():
    checked = 0
    for model in oracle_models():
        arr = model.arrangement
        expected = brute_force_min_hitting([sigma_coords_of(model.n, s) for s in arr.sigma_sets])
        assert list(arr.unstable_minimal) == expected, (model.kind, model.base, model.theta)
        checked += 1
    assert checked == 168


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


def test_non_integral_theta_is_refused_not_truncated(a12, a_2x3):
    # truncated, (3/2, 1/2) became the wall (1, 0) and 1/2 became zero,
    # though check_generic calls both characters generic
    assert check_generic(a_2x3, (Fraction(3, 2), Fraction(1, 2))).generic
    for a, theta, entry in ((a_2x3, (Fraction(3, 2), Fraction(1, 2)), "3/2"),
                            (a12, [Fraction(1, 2)], "1/2"),
                            (a12, [1.5], "1.5")):
        for build in (lawrence_model, hypertoric_model):
            with pytest.raises(ModelError, match="theta must be integral, got entry %s" % entry):
                build(a, theta)
        with pytest.raises(ModelError, match="got entry %s" % entry):
            direct_model(a, unstable=[[1]], theta=theta)
    with pytest.raises(ModelError, match="got entry 1/2"):
        direct_model(a12, theta=[Fraction(1, 2)])
    # integral values of any type keep working
    for theta in ([2], [Fraction(4, 2)], [2.0]):
        assert lawrence_model(a12, theta).theta == (2,)
        assert direct_model(a12, unstable=[[1, 2]], theta=theta).theta == (2,)


def test_unstable_sets_hit_every_sigma(tp12_lawrence):
    arr = tp12_lawrence.arrangement
    for s in arr.unstable_minimal:
        for sig in arr.sigma_sets:
            assert s & sigma_coords_of(tp12_lawrence.n, sig)


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
    assert m.kind == "hypertoric"
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


def test_reach_builds_certify_minimal_transversals():
    for d, n in ((2, 14), (3, 12)):
        start = time.perf_counter()
        model = lawrence_model(*random_generic_instance(random.Random(1), d, n))
        assert time.perf_counter() - start < 2.0, (d, n)
        sigmas = [sigma_coords_of(model.n, s) for s in model.arrangement.sigma_sets]
        for u in model.arrangement.unstable_minimal:
            assert all(u & s for s in sigmas)
            assert all(any(not (u - {c}) & s for s in sigmas) for c in u)


@pytest.mark.parametrize(
    "rows, theta, k",
    [([[1, 2]], [-1], 1), ([[1, 0, 1], [0, 1, 1]], [1, -1], 2),
     ([[1, 0, 1], [0, 1, 1]], [-1, 2], 1), ([[1, 1, 1], [0, 1, 2]], [3, -1], 2)],
)
def test_direct_model_refuses_a_dual_coordinate(rows, theta, k):
    message = "sigma set selects dual coordinate y%d but the model is not doubled" % k
    with pytest.raises(ModelError, match="^%s$" % message):
        direct_model(WeightMatrix.from_rows(rows), theta=theta)


def on_a_wall(a, theta):
    """Integer hyperplane rule: theta lies on a wall iff det [A_S | theta] = 0
    for some d-1 columns S whose cofactors (the normal of their span) are
    not all zero."""
    for cols in itertools.combinations(range(1, a.n + 1), a.d - 1):
        sub = [[a.column(j)[r] for j in cols] for r in range(a.d)]
        normal = [IntMatrix.from_rows([row + [int(r == i)] for r, row in enumerate(sub)]).det()
                  for i in range(a.d)]
        if any(normal) and not sum(u * t for u, t in zip(normal, theta)):
            return True
    return False


def test_genericity_agrees_with_the_hyperplane_rule():
    # check_generic reads each basis's Cramer numerators; the rule pairs
    # theta with integer hyperplane normals: they must find the same walls
    rng = random.Random(4)
    walls = 0
    for i in range(240):
        d = 1 + i % 3
        a = random_weight_matrix(rng, d, rng.randint(d, 6))
        if i % 2:
            cols = rng.sample(range(1, a.n + 1), d - 1)
            theta = [sum(rng.randint(-2, 2) * a.column(j)[r] for j in cols) for r in range(d)]
        else:
            theta = [rng.randint(-4, 4) for _ in range(d)]
        generic = check_generic(a, theta).generic
        walls += not generic
        assert generic != on_a_wall(a, theta), (a, theta)
    assert 60 < walls < 180


def test_integer_sign_rule_matches_the_fraction_solve():
    # oracle: the signs and walls of the sign rule, read off integer
    # determinants, against the Fraction coefficients of lambda_coeffs, on
    # generic, wall-lying and rational characters
    rng = random.Random(11)
    walls = rational = 0
    for i in range(150):
        d = 1 + i % 3
        a = random_weight_matrix(rng, d, rng.randint(d, 6))
        if i % 3 == 1:
            cols = rng.sample(range(1, a.n + 1), d)
            theta = [sum(rng.randint(-2, 2) * a.column(j)[r] for j in cols[:-1]) for r in range(d)]
        elif i % 3 == 2:
            theta = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            rational += any(x.denominator > 1 for x in theta)
        else:
            theta = [rng.randint(-4, 4) for _ in range(d)]
        for basis in column_bases(a):
            sigma, found = _sign_rule(a, basis, theta)
            lams = lambda_coeffs(a, basis, theta)
            assert sigma.basis == basis
            assert sigma.tags == tuple("x" if lam > 0 else "y" for lam in lams), (a, basis, theta)
            assert found == [(basis, j) for j, lam in zip(basis, lams) if lam == 0], (a, basis, theta)
            walls += len(found)
    assert walls > 50 and rational > 20
    with pytest.raises(ModelError, match="not a basis"):
        _sign_rule(WeightMatrix.from_rows([[1, 2, 0], [2, 4, 1]]), (1, 2), [1, 0])


def test_indices_outside_the_matrix_are_refused():
    # index 0 and n + 1 were read from the other end, or died in IndexError
    a = WeightMatrix.from_rows([[1, 2, 3]])
    m = lawrence_model(a, [1])
    for call, bad in [
        (lambda: a.column(0), "{0}"), (lambda: a.column(-1), "{-1}"), (lambda: a.column(4), "{4}"),
        (lambda: m.coordinate_char(0), "{0}"), (lambda: m.coordinate_char(7), "{7}"),
        (lambda: m.coords_of_columns({0}), "{0}"), (lambda: m.coords_of_columns({4}), "{4}"),
        (lambda: sector_model(m, frozenset({0, 1})), "{0,1}"),
        (lambda: sector_model(m, frozenset({1, 4})), "{1,4}"),
    ]:
        with pytest.raises(ModelError, match=re.escape("columns %s are not all in" % bad)):
            call()
    assert a.column(3) == (3,) and m.coordinate_char(6) == (-3,)
    assert m.coords_of_columns({1, 3}) == {1, 3, 4, 6}


def test_column_indices_must_be_plain_ints():
    # True was read as column 1, and 1.5 put 4.5 among the coordinates;
    # 1.0 and 1.5 died in a bare TypeError
    a = WeightMatrix.from_rows([[1, 2, 3]])
    m = lawrence_model(a, [1])
    for call, bad in [
        (lambda: a.column(True), "{True}"), (lambda: a.column(1.5), "{1.5}"),
        (lambda: a.column(1.0), "{1.0}"), (lambda: a.column("1"), "{1}"),
        (lambda: a.columns_matrix([1, True]), "{1,True}"), (lambda: a.lattice([1.0]), "{1.0}"),
        (lambda: m.coords_of_columns([1.5]), "{1.5}"), (lambda: m.coords_of_columns([2, 1.0]), "{2,1.0}"),
        (lambda: stabilizer_elements(a, [1.0]), "{1.0}"),
        (lambda: sector_model(m, frozenset({1.5, 2})), "{1.5,2}"),
    ]:
        with pytest.raises(ModelError, match=re.escape("columns %s are not all in 1..3" % bad)):
            call()
    with pytest.raises(ModelError, match=re.escape("columns {False} are not all in 1..6")):
        m.coordinate_char(False)
    assert a.columns == ((1,), (2,), (3,)) and (a.d, a.n) == (1, 3)
    assert m.coords_of_columns([2, 1]) == {1, 2, 4, 5} and m.coords_of_columns([]) == frozenset()
    # the cache slots are not part of the value
    assert a == WeightMatrix(a.matrix) and hash(a) == hash(WeightMatrix(a.matrix))
    assert a.replace(matrix=IntMatrix.from_rows([[4, 5]])).columns == ((4,), (5,))
