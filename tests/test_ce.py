
import pytest

from dgla import io, linalg
from dgla.ce import CESlice, _words, ce_cohomology, ce_product_check
from dgla.derivations import deru
from dgla.errors import NotAComplex, WindowTooNarrow
from dgla.models import build_block_g, manifold_model, tilde_model
from dgla.presentation import presentation_slice
from dgla.slices import DgLieSlice
from oracles import (
    ce_d_block_by_parts,
    ce_words_by_search,
    exterior_polynomial_ce_betti,
    fuzz_presentations,
)


def sl2():
    # basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f
    tab = {
        (0, 0, 0, 1): {2: 1}, (0, 1, 0, 0): {2: -1},
        (0, 2, 0, 0): {0: 2}, (0, 0, 0, 2): {0: -2},
        (0, 2, 0, 1): {1: -2}, (0, 1, 0, 2): {1: 2},
    }
    return DgLieSlice((0, 0), {0: ["e", "f", "h"]}, bracket_fn=lambda *pair: tab.get(pair, {}))


def abelian(degree, hi=8):
    labels = {d: [] for d in range(0, hi + 1)}
    labels[degree] = ["x"]
    return DgLieSlice((0, hi), labels)


def test_abelian_exterior():
    b = ce_cohomology(abelian(2), 1, (0, 6))
    assert b == {0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 0, 6: 0}
    assert b == exterior_polynomial_ce_betti([3], 0, 6)


def test_abelian_polynomial():
    b = ce_cohomology(abelian(1), 1, (0, 6))
    assert b == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
    assert b == exterior_polynomial_ce_betti([2], 0, 6)


def test_abelian_mixed_matches_free_graded_commutative():
    labels = {d: [] for d in range(0, 7)}
    labels[1] = ["p"]
    labels[2] = ["q"]
    g = DgLieSlice((0, 6), labels)
    b = ce_cohomology(g, 1, (0, 5))
    assert b == exterior_polynomial_ce_betti([2, 3], 0, 5)


def test_sl2_whitehead():
    g = sl2().pad_to(0, 4)
    assert ce_cohomology(g, 1, (0, 3)) == {0: 1, 1: 0, 2: 0, 3: 1}


def test_coefficient_dimension_scales():
    g = sl2().pad_to(0, 4)
    assert ce_cohomology(g, 3, (0, 3)) == {0: 3, 1: 0, 2: 0, 3: 3}


def test_negative_coefficient_dimension_raises():
    g = sl2().pad_to(0, 4)
    assert ce_cohomology(g, 0, (0, 3)) == {0: 0, 1: 0, 2: 0, 3: 0}
    with pytest.raises(ValueError, match="coefficient dimension"):
        ce_cohomology(g, -1, (0, 3))
    with pytest.raises(ValueError, match="coefficient dimension"):
        ce_product_check(g, g, 1, -1, (0, 2))


def test_ce_d_squared_certified_with_differential_and_bracket():
    # a dg Lie slice with both a nonzero differential and nonzero brackets:
    # the derivation complex of the tilde model of W11
    m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
    tilde, _, _ = tilde_model(m)
    g = deru(tilde, "beta", None, (0, 4))
    CESlice(g, 5)  # certifies d^2 = 0 when it is built


def test_ce_slice_refuses_a_slice_with_nonzero_d_squared():
    one = linalg.matrix(1, 1, [(0, 0, 1)])
    g = DgLieSlice((0, 2), {0: ["x"], 1: ["y"], 2: ["z"]}, {1: one, 2: one})
    with pytest.raises(NotAComplex):
        CESlice(g, 3)


def test_window_bookkeeping():
    g = abelian(2, hi=3)
    with pytest.raises(WindowTooNarrow) as e:
        ce_cohomology(g, 1, (0, 6))
    assert e.value.required == (0, 6)


def test_product_identity_comparison():
    g = sl2().pad_to(0, 5)
    zero = DgLieSlice((0, 5), {d: [] for d in range(6)})
    rep = ce_product_check(g, zero, 1, 1, (0, 4))
    assert rep.passed


def test_kunneth_on_products():
    g = sl2().pad_to(0, 5)
    h = abelian(2, hi=5)
    rep = ce_product_check(g, h, 1, 1, (0, 4))
    assert rep.passed
    rep2 = ce_product_check(h, h, 2, 3, (0, 4))
    assert rep2.passed


def test_kunneth_on_der_slices():
    m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
    tilde, _, _ = tilde_model(m)
    g = deru(tilde, "beta", None, (0, 3))
    h = deru(tilde, "beta", None, (0, 3))
    rep = ce_product_check(g, h, 1, 1, (0, 3))
    assert rep.passed


def test_ce_words_respect_odd_letter_exclusion():
    # letters of odd shifted degree never repeat
    g = abelian(2, hi=8)  # s-degree 3, odd
    for words in _words(g, 7).values():
        assert all(len(w) <= 1 for w in words)
    h = abelian(1, hi=8)  # s-degree 2, even: powers allowed
    assert any(len(w) == 3 for w in _words(h, 6)[6])


def test_nonabelian_two_dimensional():
    # [x, y] = y in degree 0: H^0 = Q, H^1 = Q (the x-line), H^2 = 0
    tab = {(0, 0, 0, 1): {1: 1}, (0, 1, 0, 0): {1: -1}}
    g = DgLieSlice((0, 0), {0: ["x", "y"]},
                   bracket_fn=lambda *pair: tab.get(pair, {})).pad_to(0, 3)
    assert ce_cohomology(g, 1, (0, 2)) == {0: 1, 1: 1, 2: 0}


def _oracle_slices(fixture_path):
    """(name, g, top): dg Lie slices from degree 0 with CE chains to build through top."""
    def load(name):
        return io.load_json_file(fixture_path(name + ".json"))

    for name in ["sl2", "heisenberg", "abelian_deg2"]:
        yield name, io.load_slice_or_presentation(load(name)).pad_to(0, 5), 6
    for name in ["s2", "presentation_w11"]:
        yield name, presentation_slice(io.load_presentation(load(name)), 0, 5), 6
    w21 = io.load_manifold(load("w21"))
    yield "deru w21", deru(w21.presentation, "omega", None, (0, 5)), 6
    for name in ["w11", "twisted9"]:
        yield "block-g " + name, build_block_g(io.load_manifold(load(name)), (0, 5)), 6
    for t, p in enumerate(fuzz_presentations()):
        yield "fuzz deru %d" % t, deru(p, None, None, (0, 3)), 4


def test_words_and_blocks_match_the_search_and_two_part_oracle(fixture_path):
    parities = set()
    for name, g, top in _oracle_slices(fixture_path):
        ce = CESlice(g, top)
        sdegrees = [d + 1 for d in range(top) for _ in range(g.dim(d))]
        # dim C_k is the t^k coefficient of prod_odd (1 + t^s) prod_even (1 - t^s)^-1,
        # the count of free graded-commutative monomials in the letters
        dims = exterior_polynomial_ce_betti(sdegrees, 0, top)
        by_degree = _words(g, top)
        for k in range(top + 1):
            words = by_degree[k]
            assert words == ce_words_by_search(g, k) == ce.labels[k], (name, k)
            assert len(words) == dims[k], (name, k)
            parities |= {d % 2 for w in words for d, _ in w}
        for k in range(1, top + 1):
            got = {(i, j): c for i, row in enumerate(ce.d_matrix(k)) for j, c in row.items()}
            assert got == ce_d_block_by_parts(g, k), (name, k)
    assert parities == {0, 1}
