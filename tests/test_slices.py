"""Whole-window axiom certificates of explicit dg Lie slices.

Each broken slice below fails its axiom on exactly one basis pair or
triple, placed late in the iteration order, so a check that samples only
the first few hundred pairs or triples passes it.
"""

from fractions import Fraction

import pytest

from dgla.errors import AxiomFailure
from dgla.slices import DgLieSlice


def test_jacobi_is_checked_on_every_triple():
    # e0..e3 central; a = e4, b = e5, c = e6 with [a,b] = a, [a,c] = b, so
    # [a,[b,c]] - [[a,b],c] - [b,[a,c]] = -b on the triple (4, 5, 6), the
    # 238th of 343 in iteration order; every earlier triple satisfies Jacobi
    brackets = {(0, 4, 0, 5): {4: 1}, (0, 5, 0, 4): {4: -1},
                (0, 4, 0, 6): {5: 1}, (0, 6, 0, 4): {5: -1}}
    slc = DgLieSlice((0, 0), {0: ["e%d" % i for i in range(7)]},
                     bracket_fn=lambda *pair: brackets.get(pair, {}))
    with pytest.raises(AxiomFailure, match=r"Jacobi fails on triple \(0,4\),\(0,5\),\(0,6\)"):
        slc.check_bracket_axioms()


def test_d_leibniz_is_checked_on_every_pair():
    # 21 odd generators u0..u20 with [u20,u20] = w and dw = u0: the pair
    # (u20, u20), the 441st and last, breaks d[x,y] = [dx,y] - [x,dy]
    labels = {0: [], 1: ["u%d" % i for i in range(21)], 2: ["w"]}
    d_blocks = {2: [[Fraction(1 if i == 0 else 0)] for i in range(21)]}
    brackets = {(1, 20, 1, 20): {0: 1}}
    slc = DgLieSlice((0, 2), labels, d_blocks, bracket_fn=lambda *pair: brackets.get(pair, {}))
    slc.check_d_squared()
    slc.check_bracket_axioms()
    with pytest.raises(AxiomFailure, match=r"pair \(1,20\),\(1,20\)"):
        slc.check_d_leibniz()


def test_truncation_and_products_say_whether_they_vanish_below():
    # tau_{>=0} of anything vanishes below 0, also when nothing is left
    empty = DgLieSlice((-2, -1), {-1: ["x"]}).truncate_nonneg()
    assert empty.zero_below and empty.to_chain().lo == -1
    t = DgLieSlice((-1, 1), {0: ["x"], 1: ["y"]}).truncate_nonneg()
    assert t.zero_below and t.to_chain().lo == -1
    # a product vanishes below its window when every factor does there
    assert t.product(t).zero_below
    plain = DgLieSlice((0, 1), {0: ["z"]})
    assert not plain.zero_below and not t.product(plain).zero_below
    high = DgLieSlice((1, 1), {})
    high.zero_below = True
    assert not t.product(high).zero_below  # t is not zero in degree 0
