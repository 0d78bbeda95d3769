"""Chevalley-Eilenberg cohomology, BCH groups, and the gauge action.

Run:  python3 demos/04_ce_and_exponentials.py
"""

from fractions import Fraction

from dgla import (
    DgLaPresentation,
    Derivation,
    DgLieSlice,
    NilpotentElementGroup,
    SliceElement,
    ce_cohomology,
    exp_automorphism,
    linalg,
    mc_check,
)


def table(brackets):
    """A bracket callback on sparse structure constants {(n, i, m, j): {k: c}}."""
    return lambda *pair: brackets.get(pair, {})


# CE cohomology of sl_2 in degree 0 gives the Whitehead answer (1,0,0,1).
# Basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f.
sl2_brackets = {
    (0, 0, 0, 1): {2: 1}, (0, 1, 0, 0): {2: -1},
    (0, 2, 0, 0): {0: 2}, (0, 0, 0, 2): {0: -2},
    (0, 2, 0, 1): {1: -2}, (0, 1, 0, 2): {1: 2},
}
sl2 = DgLieSlice((0, 0), {0: ["e", "f", "h"]}, bracket_fn=table(sl2_brackets)).pad_to(0, 4)
print("H^*(sl2):", ce_cohomology(sl2, 1, (0, 3)))

# The Heisenberg algebra under Baker-Campbell-Hausdorff multiplication:
# [x,y] = z.  Elements are sparse coordinate vectors.
heis_brackets = {(0, 0, 0, 1): {2: 1}, (0, 1, 0, 0): {2: -1}}
heis = DgLieSlice((0, 0), {0: ["x", "y", "z"]}, bracket_fn=table(heis_brackets))
G = NilpotentElementGroup(heis, 2)
x = SliceElement(heis, 0, {0: 1})
y = SliceElement(heis, 0, {1: 1})
xy = G.multiply(x, y).vector
print("BCH(x, y) =", [Fraction(xy.get(i, 0)) for i in range(3)])

# Exponentials of nilpotent derivations are automorphisms.
p = DgLaPresentation([("a", 2), ("b", 2)])
theta = Derivation(p, 0, {"b": p.gen("a")})
e = exp_automorphism(theta)
print("e(theta): a ->", e.images["a"], ", b ->", e.images["b"])

# Maurer-Cartan elements of a tiny slice: d(a) = b and [a,a] = b, so
# tau = -2a satisfies d tau + (1/2)[tau, tau] = 0.
slc = DgLieSlice(
    (-2, 0),
    {-2: ["b"], -1: ["a"], 0: []},
    {-1: linalg.matrix(1, 1, [(0, 0, 1)])},
    bracket_fn=table({(-1, 0, -1, 0): {0: 1}}),
)
tau = SliceElement(slc, -1, {0: -2})
print("mc_check(-2a):", mc_check(tau)[0])
