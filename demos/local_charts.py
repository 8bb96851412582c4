# Exact local product structure over each sigma chart.
#
# Over the chart where the sigma coordinates are invertible, the doubled
# coordinate space splits as (moment fiber) x (affine d-space): the fiber
# coordinates z are the moment value in the basis of the chart's columns,
# mu(q) = sum z_i a_{b_i}, and the base point moves each partner coordinate
# back by z_i over its pivot coordinate.
# Everything below is exact rational arithmetic: the round-trips are
# equalities of Fractions, not approximations.

from fractions import Fraction

from hypertoric import (
    WeightMatrix,
    build_chart,
    chart_forward,
    chart_inverse,
    moment_eval,
    sigma_set,
    verify_charts,
)

A = WeightMatrix.from_rows([[1, 2]])
sigma = sigma_set(A, (1,), [1])
chart = build_chart(A, sigma)

print("chart for sigma =", sigma.labels())
print("base dimension %d, fiber dimension %d" % (chart.base_point_dim, chart.fiber_dim))

q = (Fraction(2), Fraction(3), Fraction(1), Fraction(1))
base, z = chart_inverse(chart, q)
print("\nsplit q =", q)
print("  base point:", base, " (moment value:", moment_eval(A, base), ")")
print("  fiber coordinate z =", z)

back = chart_forward(chart, base, z)
print("  reassembled:", back, " round-trip exact:", back == q)

p = (Fraction(2), Fraction(3), Fraction(-3), Fraction(1))
moved = chart_forward(chart, p, [Fraction(8)])
print("\nmove the base point", p, "by z = 8:", moved)

report = verify_charts(A, [1], samples=100, seed=0)
for c in report.charts:
    print("chart {%s}: %d samples, %s" % (",".join(c.sigma_labels), c.samples,
                                          "pass" if c.ok else "FAIL"))
