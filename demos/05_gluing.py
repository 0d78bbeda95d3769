"""Boundary connected sums and the induced map of block dg Lie algebras.

Run:  python3 demos/05_gluing.py
"""

from dgla import (
    boundary_connected_sum,
    build_block_g,
    forget_compare,
    glue_headline_g,
    linalg,
    manifold_model,
)

m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
n = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
mn = boundary_connected_sum(m, n)
print("generators of the sum:", [g for g, _ in mn.v.basis.entries])
print("omega of the sum:", mn.omega)

gm = build_block_g(m, (0, 2))
gn = build_block_g(n, (0, 2))
gmn = build_block_g(mn, (0, 2))
print("degree-0 dims add:", gm.dim(0), "+", gn.dim(0), "=", gmn.dim(0))

gmap = glue_headline_g(
    gm, gn, gmn, *mn.inclusions, assert_semisimple=True
)
print("gluing map verified as a dg Lie map:", gmap.report.passed)

# The forgetful comparison reports ranks of both projections out of the
# pullback derivation complex; no quasi-isomorphism claim is made.
for row in forget_compare(m, (0, 4)):
    print(row)
