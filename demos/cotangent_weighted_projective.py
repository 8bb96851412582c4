# The cotangent stack of the weighted projective line P(1,2).
#
# Weight matrix A = (1 2), character theta = 1.  The ambient model is the
# GIT quotient of the doubled coordinate space; the moment-fiber model sits
# inside it cut out by 1*x1*y1 + 2*x2*y2 = 0.  Both carry the same integral
# sector rings, and this script checks the two comparison statements on
# desk-scale data: obstruction classes restrict, and the orbifold tables
# agree sector by sector.

from hypertoric import (
    WeightMatrix,
    double_inertia,
    hypertoric_model,
    lawrence_model,
    orbifold_table,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)

A = WeightMatrix.from_rows([[1, 2]])

ambient = lawrence_model(A, [1])
fiber = hypertoric_model(A, [1])

print("ambient coordinates:", ambient.arrangement.labels)
print("minimal unstable sets:", [sorted(s) for s in ambient.arrangement.unstable_minimal])
print("ambient tangent class:", ambient.tangent_class)
print("fiber tangent class:  ", fiber.tangent_class)

pull = verify_obstruction_pullback(A, [1])
print("\nobstruction pullback: %s on %d double components" % (
    "pass" if pull.ok else "FAIL", pull.checked))

iso = verify_orbifold_iso(A, [1], 5)
print("orbifold ring comparison: %s on %d sectors" % (
    "pass" if iso.ok else "FAIL", iso.components))

print("\nmoment-fiber star table (note -t^2 = t^2 in Z[t]/(2t^2)):")
table = orbifold_table(fiber, 5)
for p in double_inertia(fiber):
    entry = table.entry(p.g1, p.g2)
    print("  l_%s * l_%s = (%s) . l_%s   canonical %s" % (
        p.g1, p.g2, entry.poly, entry.target, entry.coords))
