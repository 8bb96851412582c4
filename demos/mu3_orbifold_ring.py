# The cyclic-quotient golden example, end to end.
#
# Affine 3-space mod an order-3 group acting with weights (1, 2) on the last
# two coordinates has the quotient presentation with torus weights
# (0, 1, 2, 3) and the inverted coordinate x4 as the only unstable set.
# This script walks through the inertia sectors, their integral rings,
# the obstruction classes and the full star-product table.

from hypertoric import (
    WeightMatrix,
    direct_model,
    double_inertia,
    euler_poly,
    graded_group,
    inertia_components,
    obstruction,
    orbifold_table,
    presentation,
)

model = direct_model(WeightMatrix.from_rows([[0, 1, 2, 3]]), unstable=[[4]])

print("inertia sectors:")
for comp in inertia_components(model):
    print(
        "  g = %-8s  fixed columns %s  age %s"
        % (comp.g, sorted(comp.fixed_columns), comp.age)
    )

print("\nsector ring (identical for all three sectors):")
pres = presentation(model, truncation=4)
print("  relations:", [str(r) for r in pres.relations])
for k in range(5):
    print("  degree %d: %s" % (k, graded_group(pres, k).describe_group()))

table = orbifold_table(model, 4)
elems = [c.g for c in table.components]

print("\nobstruction classes and their Euler polynomials:")
for g1 in elems:
    for g2 in elems:
        r = obstruction(model, g1, g2)
        if not r.is_zero:
            print("  R(%s, %s) = %s,  eu = %s" % (g1, g2, r, euler_poly(r)))

print("\nstar products of the sector generators:")
for p in double_inertia(model):
    entry = table.entry(p.g1, p.g2)
    print("  l_%s * l_%s = (%s) . l_%s" % (p.g1, p.g2, entry.poly, entry.target))

print(
    "\nThe ring is Z[t, l_w, l_w2] / (3t, l_w^2 - 2t l_w2, "
    "l_w l_w2 - 2t^2, l_w2^2 - t l_w), with targets read off the group law."
)
