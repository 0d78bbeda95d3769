"""Seeded fuzz: random presentations through the derivation machinery.

A broad consistency net: any sign error in the Leibniz rule, the derivation
differential, or the bracket tables shows up as a failed d^2, Leibniz, or
Jacobi identity on some random input.
"""

from dgla.derivations import der_complex, deru
from dgla.graded import betti_numbers
from oracles import fuzz_presentations, fuzz_split_presentations


def test_fuzz_derivation_slices():
    for p in fuzz_split_presentations():
        slc = der_complex(p, "s", (0, 2))
        slc.check_d_squared()
        slc.check_bracket_axioms()
        slc.check_d_leibniz()


def test_fuzz_deru_homology_is_finite_and_consistent():
    for p in fuzz_presentations():
        u = deru(p, None, None, (0, 3))
        b = betti_numbers(u.to_chain(), (0, 2))
        assert all(v >= 0 for v in b.values())
