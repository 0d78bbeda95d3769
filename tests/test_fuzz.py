"""Seeded fuzz: random presentations through the derivation machinery.

A broad consistency net: any sign error in the Leibniz rule, the derivation
differential, or the bracket tables shows up as a failed d^2, Leibniz, or
Jacobi identity on some random input.
"""

import random

from dgla.derivations import der_complex, deru
from dgla.graded import betti_numbers
from dgla.presentation import DgLaPresentation, GeneratorSplit
from oracles import random_presentation


def test_fuzz_derivation_slices():
    rng = random.Random(60606)
    built = 0
    while built < 12:
        p = random_presentation(rng, max_gens=3, max_degree=4)
        names = [n for n, _ in p.generators.entries]
        subnames = [n for n in names if rng.random() < 0.35]
        ok = all(
            p.d_gen(n).is_zero() or p.in_generator_span(p.d_gen(n), subnames)
            for n in subnames
        )
        if not ok:
            continue
        # skip blowup cases (many degree-1 generators): the point is broad
        # coverage, not scale
        if sum(p.dim(d + 2) for _, d in p.generators.entries) > 60:
            continue
        p = DgLaPresentation(p.generators.entries, p.differential, {"s": GeneratorSplit(subnames)})
        slc = der_complex(p, "s", (0, 2))
        slc.check_d_squared()
        slc.check_bracket_axioms()
        slc.check_d_leibniz()
        built += 1


def test_fuzz_deru_homology_is_finite_and_consistent():
    rng = random.Random(70707)
    built = 0
    while built < 8:
        p = random_presentation(rng, max_gens=3, max_degree=4)
        if sum(p.dim(d + 2) for _, d in p.generators.entries) > 60:
            continue
        u = deru(p, None, None, (0, 3))
        b = betti_numbers(u.to_chain(), (0, 2))
        assert all(v >= 0 for v in b.values())
        built += 1
