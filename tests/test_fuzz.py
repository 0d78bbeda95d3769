"""Seeded fuzz: random presentations through the derivation machinery.

A broad consistency net: any sign error in the Leibniz rule, the derivation
differential, or the bracket tables shows up as a failed d^2, Leibniz, or
Jacobi identity on some random input.
"""

import random

import pytest

from dgla.derivations import der_complex, deru
from dgla.errors import SchemaError
from dgla.graded import betti_numbers
from dgla.presentation import DgLaPresentation
from oracles import fuzz_presentations, fuzz_split_presentations, random_presentation


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


def test_fuzz_a_differential_shifted_by_one_degree_is_refused_at_its_pointer():
    # the last generator with d != 0 occurs in no other differential (each d
    # lies in the earlier generators), so moving its degree by one puts
    # exactly its d value off degree -1
    rng = random.Random(80808)
    shifted = 0
    while shifted < 12:
        p = random_presentation(rng, max_gens=4, max_degree=5)
        if not p.differential:
            continue
        name = [n for n, _ in p.generators.entries if n in p.differential][-1]
        step = rng.choice((-1, 1))
        gens = [(n, d + step if n == name else d) for n, d in p.generators.entries]
        values = {n: v.terms() for n, v in p.differential.items()}
        with pytest.raises(SchemaError) as raised:
            DgLaPresentation(gens, values)
        assert raised.value.pointer == "/differential/%s" % name
        # the same values on the original degrees are admitted
        assert set(DgLaPresentation(p.generators.entries, values).differential) == set(values)
        shifted += 1
