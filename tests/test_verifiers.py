import json
import pickle
import random
import sys
from fractions import Fraction

import pytest

import hypertoric.verifiers as verifiers_module
from hypertoric import (
    ChartInstance,
    LocalModelSRE,
    ModelError,
    NonGenericError,
    SigmaSet,
    TorsionElement,
    WeightMatrix,
    build_chart,
    chart_forward,
    chart_inverse,
    column_bases,
    hypertoric_model,
    hypertoric_normal_data,
    lawrence_model,
    moment_eval,
    random_rational_point,
    sigma_set,
    sre_condition_iii,
    verify_charts,
)
from hypertoric.cli import EXIT_VERIFY_FAILED, main
from hypertoric.sampling import random_generic_instance


def test_sre_quadric_cone_counterexample():
    # order-2 group acting on the plane by negation: normal weights (-1,-1)
    assert not sre_condition_iii(LocalModelSRE.cyclic(2, [-1, -1]))
    for order in (0, -2):
        with pytest.raises(ValueError, match="^group order must be positive$"):
            LocalModelSRE.cyclic(order, [1])


def test_sre_empty_normal_bundle():
    gen = TorsionElement.from_fractions([Fraction(1, 2)])
    assert sre_condition_iii(LocalModelSRE((gen,), ()))


def test_sre_invariant_cut_is_strong():
    # same group, but the deleted direction carries an even weight
    assert sre_condition_iii(LocalModelSRE.cyclic(2, [2]))


def test_sre_hypertoric_normal_data(a12):
    model = hypertoric_model(a12, [1])
    local = hypertoric_normal_data(model)
    assert local.normal_weights == ((0,),)
    assert sre_condition_iii(local)


def test_sre_hypertoric_normal_data_random():
    rng = random.Random(61)
    for _ in range(6):
        a, theta = random_generic_instance(rng, rng.choice([1, 2]), 3)
        assert sre_condition_iii(hypertoric_normal_data(hypertoric_model(a, theta)))


def test_sre_generator_change_invariance():
    # the same cyclic group presented by different generators
    for order in (2, 3, 5, 6):
        weights = [(-1,), (order - 1,), (2,)]
        answers = set()
        for k in range(1, order):
            from math import gcd

            if gcd(k, order) != 1:
                continue
            gen = TorsionElement.from_fractions([Fraction(k, order)])
            answers.add(sre_condition_iii(LocalModelSRE((gen,), tuple(weights))))
        assert len(answers) == 1


def test_chart_worked_example(a12):
    sigma = sigma_set(a12, (1,), [1])
    chart = build_chart(a12, sigma)
    assert chart.base_point_dim == 3 and chart.fiber_dim == 1
    base, z = chart_inverse(chart, [2, 3, 1, 1])
    assert base == (Fraction(2), Fraction(3), Fraction(-3), Fraction(1))
    assert z == (Fraction(8),)
    assert moment_eval(a12, base) == (Fraction(0),)
    assert chart_forward(chart, base, z) == (Fraction(2), Fraction(3), Fraction(1), Fraction(1))


def test_chart_zero_fiber_is_identity(a12):
    sigma = sigma_set(a12, (1,), [1])
    chart = build_chart(a12, sigma)
    p = (Fraction(2), Fraction(3), Fraction(-3), Fraction(1))
    assert chart_forward(chart, p, [0]) == p
    base, z = chart_inverse(chart, p)
    assert base == p and z == (Fraction(0),)


def test_chart_second_pivot_column(a12):
    sigma = sigma_set(a12, (2,), [1])
    chart = build_chart(a12, sigma)
    assert chart.pivots == ((2, "x"),)
    q = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    base, z = chart_inverse(chart, q)
    assert moment_eval(a12, base) == (Fraction(0),)
    assert chart_forward(chart, base, z) == q


def test_chart_reads_its_coordinates_once(a12):
    # the pivots and the 0-based index of each pivot coordinate and of its
    # partner are cache slots set at construction (x_j at j - 1, y_j at
    # n + j - 1), not part of the chart's value; a copy rebuilds them
    for basis, theta in [((1,), [1]), ((2,), [1]), ((1,), [-1])]:
        sigma = sigma_set(a12, basis, theta)
        chart = build_chart(a12, sigma)
        assert ChartInstance._fields == ("sigma", "a")
        assert chart.pivots is chart.pivots == tuple(sorted(zip(sigma.basis, sigma.tags)))
        (col, tag), = chart.pivots
        x, y = col - 1, a12.n + col - 1
        assert chart.partner_index(0) == (y if tag == "x" else x)
        point = tuple(Fraction(i + 1) for i in range(2 * a12.n))
        assert chart.pivot_values(point) == [point[x if tag == "x" else y]]
        copy = pickle.loads(pickle.dumps(chart))
        assert copy == chart and copy.pivots == chart.pivots and copy.partner_index(0) == chart.partner_index(0)


def test_chart_rejects_bad_points(a12):
    sigma = sigma_set(a12, (1,), [1])
    chart = build_chart(a12, sigma)
    with pytest.raises(ValueError, match="outside the chart"):
        chart_inverse(chart, [0, 1, 1, 1])
    with pytest.raises(ValueError, match="moment fiber"):
        chart_forward(chart, [1, 1, 1, 1], [0])
    with pytest.raises(ValueError, match="^fiber vector must have 1 coordinates$"):
        chart_forward(chart, [1, 1, -2, 1], [0, 0])
    for call in (lambda p: chart_inverse(chart, p), lambda p: chart_forward(chart, p, [0])):
        with pytest.raises(ValueError, match="^point must have 4 coordinates$"):
            call([1, 1, 1])


def test_chart_roundtrip_random(a12):
    sigma = sigma_set(a12, (1,), [1])
    chart = build_chart(a12, sigma)
    rng = random.Random(67)
    done = 0
    while done < 100:
        q = random_rational_point(rng, 4)
        if not chart.in_chart(q):
            continue
        done += 1
        base, z = chart_inverse(chart, q)
        assert moment_eval(a12, base) == (Fraction(0),)
        assert chart_forward(chart, base, z) == q


def test_verify_charts_named(a12, a11):
    assert verify_charts(a12, [1], samples=100, seed=0).ok
    assert verify_charts(a11, [1], samples=50, seed=1).ok
    eye = WeightMatrix.from_rows([[1, 0], [0, 1]])
    assert verify_charts(eye, [1, 1], samples=50, seed=2).ok


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_charts_refuses_fewer_than_one_sample(a12, samples):
    # such a count used to check no point and report a vacuous pass
    with pytest.raises(ValueError, match="samples must be at least 1, got %d" % samples):
        verify_charts(a12, [1], samples=samples)
    assert [c.samples for c in verify_charts(a12, [1], samples=1).charts] == [1, 1]


def _base_point_off_the_fiber(monkeypatch):
    # only the base-point check of verify_charts itself reads a nonzero
    # moment value; the chart maps read the true one
    real = verifiers_module.moment_eval

    def moment(a, p):
        out = real(a, p)
        if sys._getframe(1).f_code is verifiers_module.verify_charts.__code__:
            return (out[0] + 1, *out[1:])
        return out

    monkeypatch.setattr(verifiers_module, "moment_eval", moment)
    return "base point of %s has nonzero moment value"


def _forward_moves_the_point(monkeypatch):
    real = verifiers_module.chart_forward

    def forward(chart, base, z):
        p = real(chart, base, z)
        return (p[0] + 1, *p[1:])

    monkeypatch.setattr(verifiers_module, "chart_forward", forward)
    return "forward(inverse(q)) != q at %s"


def _inverse_of_a_forward_image_moves_z(monkeypatch):
    # verify_charts inverts each sample q, then the forward image of a
    # fresh z: only that second inverse of each sample is moved
    real, calls = verifiers_module.chart_inverse, []

    def inverse(chart, point):
        calls.append(point)
        base, z = real(chart, point)
        return (base, z) if len(calls) % 2 else (base, tuple(c + 1 for c in z))

    monkeypatch.setattr(verifiers_module, "chart_inverse", inverse)
    return "inverse(forward(base, z)) mismatch at %s"


@pytest.mark.parametrize("break_step", [
    _base_point_off_the_fiber, _forward_moves_the_point, _inverse_of_a_forward_image_moves_z])
def test_verify_charts_reports_each_failing_step(break_step, a12, tmp_path, capsys, monkeypatch):
    # negative controls for the three failure branches: each chart stops
    # at its first sample and names it, and chart-check exits 1
    first = lawrence_model(a12, (1,)).arrangement.sigma_sets[0]
    rng = random.Random(0)
    q = random_rational_point(rng, 4)
    while not build_chart(a12, first).in_chart(q):
        q = random_rational_point(rng, 4)
    detail = break_step(monkeypatch)
    report = verify_charts(a12, [1], samples=5, seed=0)
    assert not report.ok and len(report.charts) == 2
    assert report.charts[0] == (first.labels(), 1, False, detail % (q,))
    prefix = detail.split("%s")[0]
    assert all(not c.ok and c.samples == 1 and c.detail.startswith(prefix) for c in report.charts)
    path = tmp_path / "tp12.json"
    path.write_text(json.dumps({"A": [[1, 2]], "theta": [1], "kind": "hypertoric"}))
    assert main(["chart-check", "--input", str(path), "--samples", "5"]) == EXIT_VERIFY_FAILED
    out = json.loads(capsys.readouterr().out)
    assert out == {"charts": [{"sigma": list(c.sigma_labels), "samples": 1, "ok": False, "detail": c.detail}
                              for c in report.charts], "ok": False}


def test_verify_charts_takes_a_rational_theta_and_refuses_bad_ones(a_2x3):
    # the charts are read off the Lawrence model of the integral multiple
    a = WeightMatrix.from_rows([[0, 1, 1], [1, 0, 1]])
    rational = verify_charts(a, [Fraction(2, 3), Fraction(1, 3)], samples=10, seed=4)
    assert rational.ok and rational == verify_charts(a, (2, 1), samples=10, seed=4)
    assert [c.sigma_labels for c in rational.charts] == [
        sigma_set(a, basis, (2, 1)).labels() for basis in column_bases(a)]
    with pytest.raises(NonGenericError):
        verify_charts(a_2x3, [1, 0], samples=1)
    with pytest.raises(ModelError, match="nonzero"):
        verify_charts(a_2x3, [0, 0], samples=1)


def test_verify_charts_needs_row_permutation():
    # a pivot column with a zero in the first row still gives a chart, with
    # no row reordering
    a = WeightMatrix.from_rows([[0, 1, 1], [1, 0, 1]])
    theta = (2, 1)
    rep = verify_charts(a, theta, samples=25, seed=3)
    assert rep.ok


def test_verify_charts_random_instances():
    rng = random.Random(71)
    for _ in range(5):
        d = rng.choice([1, 2])
        a, theta = random_generic_instance(rng, d, rng.randint(d, 4))
        rep = verify_charts(a, theta, samples=20, seed=rng.randint(0, 999))
        assert rep.ok, (a.matrix.entries, theta)


def test_a_local_model_refuses_a_weight_of_another_length_at_construction():
    # it was refused only when sre_condition_iii read it, and the CLI
    # carried its own copy of the check
    with pytest.raises(ValueError, match=r"^element \(1/2\) has dimension 1, not 2$"):
        LocalModelSRE((TorsionElement(2, (1,)),), ((0, 1),))
    # generators are checked against the first one's dimension: with no
    # weight to compare against, a 1- and a 2-dimensional one made a model
    with pytest.raises(ValueError, match=r"^element \(1/2, 1/3\) has dimension 2, not 1$"):
        LocalModelSRE((TorsionElement(1, (0,)), TorsionElement(6, (3, 2))), ())


def test_build_chart_refuses_dependent_columns():
    # columns 1 and 2 are equal; a nonzero diagonal alone does not make a basis
    a = WeightMatrix.from_rows([[1, 1, 0], [1, 1, 1]])
    with pytest.raises(ValueError, match=r"columns \{1,2\} are not a basis"):
        build_chart(a, SigmaSet((1, 2), ("x", "x")))
    # column 0 is not column n
    with pytest.raises(ValueError, match=r"columns \{0,3\} are not all in 1..3"):
        build_chart(a, SigmaSet((0, 3), ("x", "x")))


def test_chart_coordinates_are_the_moment_in_the_pivot_basis():
    # mu(q) = sum z_i a_{b_i} over the pivot columns, both round trips are
    # exact, and for d = 1 z is the moment over the pivot entry
    rng = random.Random(73)
    for d in (1, 2, 3):
        for _ in range(3):
            a, theta = random_generic_instance(rng, d, rng.randint(d, d + 2))
            for basis in column_bases(a):
                chart = build_chart(a, sigma_set(a, basis, theta))
                assert [col for col, _ in chart.pivots] == sorted(basis)
                done = 0
                while done < 5:
                    q = random_rational_point(rng, 2 * a.n)
                    if not chart.in_chart(q):
                        continue
                    done += 1
                    base, z = chart_inverse(chart, q)
                    spanned = tuple(
                        sum(z[i] * a.column(col)[r] for i, (col, _) in enumerate(chart.pivots))
                        for r in range(d)
                    )
                    assert moment_eval(a, q) == spanned
                    assert moment_eval(a, base) == (0,) * d
                    assert chart_forward(chart, base, z) == q
                    z2 = random_rational_point(rng, d)
                    assert chart_inverse(chart, chart_forward(chart, base, z2)) == (base, z2)
                    if d == 1:
                        assert z == (moment_eval(a, q)[0] / a.column(basis[0])[0],)
