"""From a manifold model to the block dg Lie algebra.

Run:  python3 demos/03_block_model.py
"""

from dgla import (
    betti_numbers,
    build_block_g,
    deru,
    linalg,
    manifold_model,
    tilde_model,
)

# S^3 x S^3 minus a disk: two degree-2 generators with the hyperbolic
# antisymmetric pairing.  The canonical cycle omega is [a,b].
m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
print("omega =", m.omega)

# The stabilized model adjoins beta and gamma with d(gamma) = omega - beta;
# it is minimal relative to beta, and extending derivations by zero is a
# quasi-isomorphism in non-negative degrees:
tilde, include_beta, project = tilde_model(m)
left = deru(m.presentation, "omega", None, (0, 4))
right = deru(tilde, "beta", None, (0, 4))
print("H(Der_u rel omega):", betti_numbers(left.to_chain(), (0, 3)))
print("H(Der_u rel beta): ", betti_numbers(right.to_chain(), (0, 3)))

# The block dg Lie algebra: Hom(sV, pi_*(SO) x Q) twisted-semidirect the
# unipotent derivations.  For this manifold the degree-0 part is the
# two-dimensional Hom piece.
g = build_block_g(m, (0, 3))
print("block g dims 0..3:", [g.dim(n) for n in range(4)])

# A mixed-degree 9-manifold with a synthetic first Pontryagin class shows a
# genuinely twisted differential (chi = p_* is nonzero):
tw = manifold_model(
    9,
    [("a", 2), ("x", 3), ("b", 4), ("y", 5)],
    linalg.matrix(4, 4, [(0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, -1)]),
    None,
    {3: [1]},
)
gt = build_block_g(tw, (0, 3))
twists = [
    (n, i)
    for n in range(1, 4)
    for i in range(gt.acting.dim(n))
    if gt.action.twist(n, i)
]
print("twisted block g dims:", [gt.dim(n) for n in range(4)], "chi nonzero at", twists)
