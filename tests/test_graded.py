import random

import pytest

from dgla import io, linalg
from dgla.ce import CESlice
from dgla.derivations import deru
from dgla.errors import NotAComplex, WindowTooNarrow
from dgla.graded import (
    ChainComplexSlice,
    GradedBasis,
    GradedLinearMap,
    betti_numbers,
    homology,
)
from dgla.models import build_block_g, tilde_model
from dgla.presentation import DgLaPresentation, lie_chain_slice
from dgla.slices import DgLieSlice
from oracles import per_degree_homology, witt_dimensions


def _two_term_identity():
    labels = {-1: [], 0: ["e0"], 1: ["e1"], 2: []}
    return ChainComplexSlice((-1, 2), labels, {1: linalg.matrix(1, 1, [(0, 0, 1)])})


def test_acyclic_identity():
    c = _two_term_identity()
    assert betti_numbers(c, (0, 1)) == {0: 0, 1: 0}


def test_free_lie_one_odd_generator():
    p = DgLaPresentation([("a", 1)])
    c = lie_chain_slice(p, 0, 4)
    assert betti_numbers(c, (1, 3)) == {1: 1, 2: 1, 3: 0}


def test_free_lie_two_even_generators_witt_oracle():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    w = witt_dimensions([2, 2], 3, 6)
    expected = {2: w[(1, 2)], 4: w[(2, 4)], 6: w[(3, 6)]}
    c = lie_chain_slice(p, 1, 7)
    b = betti_numbers(c, (2, 6))
    assert {k: b[k] for k in (2, 4, 6)} == expected == {2: 2, 4: 1, 6: 2}


def test_representatives_are_cycles_spanning():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    c = lie_chain_slice(p, 1, 7)
    from dgla import linalg

    res = homology(c, (2, 6))
    for k, (betti, reps) in res.items():
        assert len(reps) == betti
        for r in reps:
            assert r and not linalg.matvec(c.d_matrix(k), r)


def test_window_too_narrow():
    c = _two_term_identity()
    lo, hi = c.window()
    for k in (hi, lo, lo - 3):
        with pytest.raises(WindowTooNarrow) as e:
            c.homology_degree(k)
        # the message names the current window, and the required one contains it
        assert str(e.value) == "no homology at degree %d in window [%d, %d]" % (k, lo, hi)
        rlo, rhi = e.value.required
        assert rlo <= min(k - 1, lo) and rhi >= max(k + 1, hi)


def test_not_a_complex_detected():
    labels = {0: ["x"], 1: ["y"], 2: ["z"]}
    one = linalg.matrix(1, 1, [(0, 0, 1)])
    diff = {1: one, 2: one}
    with pytest.raises(NotAComplex):
        ChainComplexSlice((0, 2), labels, diff)


@pytest.mark.parametrize("nrows, ncols", [(2, 3), (1, 2), (3, 2), (0, 2)])
def test_blocks_of_the_wrong_shape_are_refused(nrows, ncols):
    """A 2x2 block is expected: a row too many or too few, or an entry past
    the last column, is a ValueError."""
    labels = {0: ["x", "x2"], 1: ["y", "y2"]}
    block = linalg.matrix(nrows, ncols, [(0, ncols - 1, 1)] if nrows else [])
    with pytest.raises(ValueError, match="wrong shape"):
        ChainComplexSlice((0, 1), labels, {1: block})
    source, target = GradedBasis([("y", 1), ("y2", 1)]), GradedBasis([("x", 0), ("x2", 0)])
    f = GradedLinearMap(source, target, -1)
    with pytest.raises(ValueError, match="must be 2x2"):
        f.set_block(1, block)
    f.set_block(1, linalg.matrix(2, 2, [(1, 1, 3)]))
    assert f.block(1) == [{}, {1: 3}] and not f.is_zero()


def test_homology_basis_order_independent():
    p1 = DgLaPresentation([("a", 2), ("b", 2)])
    p2 = DgLaPresentation([("b", 2), ("a", 2)])
    b1 = betti_numbers(lie_chain_slice(p1, 1, 7), (2, 6))
    b2 = betti_numbers(lie_chain_slice(p2, 1, 7), (2, 6))
    assert b1 == b2


def test_rank_nullity_invariant():
    p = DgLaPresentation([("a", 1), ("b", 2)])
    c = lie_chain_slice(p, 0, 5)
    from dgla import linalg

    for k in range(1, 5):
        rk = linalg.rank(c.d_matrix(k), c.dim(k)) if c.dim(k) else 0
        kernel, _ = linalg.kernel_basis(c.d_matrix(k), c.dim(k))
        assert rk + len(kernel) == c.dim(k)


def test_cp2_model_matches_rational_homotopy():
    # the minimal model of CP^2: H_k = pi_{k+1}(CP^2) (x) Q, i.e. classes in
    # degrees 1 (from pi_2) and 4 (from pi_5 of the total space S^5)
    p = DgLaPresentation([("v", 1), ("w", 3)], {"w": "1/2*[v,v]"})
    c = lie_chain_slice(p, 0, 6)
    assert betti_numbers(c, (1, 5)) == {1: 1, 2: 0, 3: 0, 4: 1, 5: 0}


def test_homology_degree_eliminates_a_bounded_number_of_times(monkeypatch):
    # zero differential: every basis element is a cycle, and the number of
    # eliminations must not grow with the number of representatives
    p = DgLaPresentation([("x", 1), ("y", 1), ("z", 2)])
    c = lie_chain_slice(p, 4, 6)
    calls = []
    echelon = linalg._primitive_echelon
    monkeypatch.setattr(
        linalg, "_primitive_echelon", lambda *a: calls.append(1) or echelon(*a)
    )
    betti, reps = c.homology_degree(5)
    assert betti == len(reps) == c.dim(5) > 3
    assert len(calls) <= 3


def test_every_complex_reports_the_same_window_error():
    # the CE chains of an abelian slice on [0, 3] have the window [-1, 3]
    labels = {d: ["x%d" % d] for d in range(4)}
    windows = [
        DgLieSlice((-1, 3), labels),
        ChainComplexSlice((-1, 3), labels, {}),
        CESlice(DgLieSlice((0, 3), labels), 3),
    ]
    for access, d in [("dim", -2), ("dim", 4), ("d_matrix", -1), ("d_matrix", 4)]:
        errors = []
        for w in windows:
            with pytest.raises(WindowTooNarrow) as e:
                getattr(w, access)(d)
            errors.append((str(e.value), e.value.required))
        assert errors[0] == errors[1] == errors[2], (access, d)
    assert errors[0] == ("no differential out of degree 4 in window [-1, 3]", (-1, 4))


# -- one kernel per differential block ------------------------------------------------


def _assert_shared_kernels_agree(c):
    """homology and homology_degree, in either order, match the per-degree oracle."""
    k0, k1 = c.lo + 1, c.hi - 1
    want = {k: per_degree_homology(c, k) for k in range(k0, k1 + 1)}
    assert homology(c, (k0, k1)) == want
    blocks = {d: c.d_matrix(d) for d in range(c.lo + 1, c.hi + 1)}
    fresh = ChainComplexSlice((c.lo, c.hi), c.labels, blocks)
    assert {k: fresh.homology_degree(k) for k in reversed(range(k0, k1 + 1))} == want
    return want


def _fixture_chains(fixture_path):
    """The chain slices the fixtures give: Lie chains, Der_u chains, g chains and CE chains."""
    def load(name):
        return io.load_json_file(fixture_path(name + ".json"))

    for name in ["s2", "presentation_cp2", "presentation_twisted9", "presentation_w11", "tilde_w11"]:
        yield name, lie_chain_slice(io.load_presentation(load(name)), 0, 7)
    for name in ["w11", "w21", "cp2", "hp2", "hp2_sum", "s4s4", "twisted9", "action10", "ab10",
                 "empty_model"]:
        m = io.load_manifold(load(name))
        tilde, _, _ = tilde_model(m)
        yield name + " deru", deru(m.presentation, "omega", None, (0, 4)).to_chain()
        yield name + " tilde deru", deru(tilde, "beta", None, (0, 4)).to_chain()
        yield name + " block-g", build_block_g(m, (-1, 3)).to_chain()
    for name in ["sl2", "heisenberg", "abelian_deg2"]:
        yield name + " ce", CESlice(io.load_slice_or_presentation(load(name)).pad_to(0, 3), 4)


def test_shared_kernels_give_the_per_degree_homology_of_every_fixture_chain(fixture_path):
    nonzero = 0
    for name, c in _fixture_chains(fixture_path):
        want = _assert_shared_kernels_agree(c)
        nonzero += any(betti for betti, _ in want.values())
    assert nonzero > 20


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1, and its inverse."""
    lower = linalg.matrix(n, n, [(i, j, rng.randint(-2, 2) if j < i else 1)
                                 for i in range(n) for j in range(i + 1)])
    upper = linalg.matrix(n, n, [(i, j, rng.randint(-2, 2) if j > i else rng.choice([1, -1]))
                                 for i in range(n) for j in range(i, n)])
    u = linalg.matmul(lower, upper)
    return u, linalg.inverse(u)


def _random_complex(rng):
    """A chain complex on [0, top] with known Betti numbers, in random bases.

    d_k = U_{k-1} J_k U_k^{-1}: J_k sends the last r_k basis vectors of C_k
    to the first r_k of C_{k-1}, which J_{k-1} kills, and each U_k is a
    random unimodular matrix.  Returns (slice, {k: betti}).
    """
    top = rng.randint(2, 6)
    dims = [rng.randint(0, 6) for _ in range(top + 1)]
    ranks = [0]
    for k in range(1, top + 1):
        ranks.append(rng.randint(0, min(dims[k], dims[k - 1] - ranks[k - 1])))
    ranks.append(0)
    bases = [_unimodular(rng, n) for n in dims]
    blocks = {}
    for k in range(1, top + 1):
        skip = dims[k] - ranks[k]
        j_k = linalg.matrix(dims[k - 1], dims[k], [(i, skip + i, 1) for i in range(ranks[k])])
        blocks[k] = linalg.matmul(bases[k - 1][0], linalg.matmul(j_k, bases[k][1]))
    labels = {k: ["e%d_%d" % (k, i) for i in range(n)] for k, n in enumerate(dims)}
    betti = {k: dims[k] - ranks[k] - ranks[k + 1] for k in range(1, top)}
    return ChainComplexSlice((0, top), labels, blocks), betti


@pytest.mark.parametrize("seed", range(30))
def test_shared_kernels_give_the_per_degree_homology_of_random_complexes(seed):
    c, betti = _random_complex(random.Random(seed))
    want = _assert_shared_kernels_agree(c)
    assert {k: b for k, (b, _) in want.items()} == betti


def test_each_differential_block_is_eliminated_once(monkeypatch):
    c, _ = _random_complex(random.Random(5))
    seen = []
    kernel_basis = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis",
                        lambda rows, ncols: seen.append(ncols) or kernel_basis(rows, ncols))
    homology(c, (c.lo + 1, c.hi - 1))
    homology(c, (c.lo + 1, c.hi - 1))
    assert seen == [c.dim(d) for d in range(c.lo + 1, c.hi + 1)]
