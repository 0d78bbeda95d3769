"""Derivation complexes relative to a subalgebra, and unipotent parts.

Run:  python3 demos/02_derivation_complexes.py
"""

from dgla import DgLaPresentation, betti_numbers, der_complex, deru

# L = free Lie algebra on two degree-2 generators, omega = [a,b]: the
# derivations killing omega form the symplectic derivation complex.
p = DgLaPresentation(
    [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
)
slc = der_complex(p, "omega", (0, 4))
print("Der(L rel omega) dims 0..4:", [slc.dim(n) for n in range(5)])

# Degree 0 is sl_2 (the trace condition); the unipotent part drops the
# semisimple piece: its degree-0 part is the kernel of the action on the
# indecomposables.
u = deru(p, "omega", None, (0, 4))
print("Der_u dims 0..4:", [u.dim(n) for n in range(5)])
print("H_*(Der_u) 0..3:", betti_numbers(u.to_chain(), (0, 3)))
