"""Cold free-Lie brackets solved once per letter pattern and moved to each letter set.

``DgLaPresentation.basis_bracket`` keys a bracket that no tree decides by the
degrees of its letters, in generator order, and both factors' packed leads
with each letter renamed to its rank among them; a repeat of the key is read
from the first solve's terms, stored as renamed leads and renamed back.
These tests hold the table to the tensor path, pin how many tensors a run
solves, and check that each solve consumes only its own product.
"""

import pytest

from dgla import cli, freelie, io
from dgla.gluing import boundary_connected_sum
from dgla.presentation import DgLaPresentation
from oracles import basis_trees, relabel


def _presentation(degrees):
    return DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degrees)])


def _glued_w21_w11(fixture_path):
    m, n = (io.load_manifold(io.load_json_file(fixture_path(name)))
            for name in ("w21.json", "w11.json"))
    return boundary_connected_sum(m, n).presentation


def _counting_solves(monkeypatch):
    """Count ``solve_against_basis`` calls per basis memo, i.e. per presentation."""
    counts = {}
    solve = freelie.solve_against_basis

    def counting(basis, tensor):
        memo = basis[0].memo
        counts[memo] = counts.get(memo, 0) + 1
        return solve(basis, tensor)

    monkeypatch.setattr(freelie, "solve_against_basis", counting)
    return counts


def _cold(p, d1, i1, d2, i2):
    """Whether no tree decides the bracket of basis elements i1 of d1 and i2 of d2."""
    t1, t2 = p.lie_basis(d1)[i1].tree, p.lie_basis(d2)[i2].tree
    trees = basis_trees(p, d1 + d2)
    return (t1, t2) not in trees and (t2, t1) not in trees


def _expected_solves(p):
    """One solve per letter pattern of the cold brackets in p's bracket cache,
    plus one per cold bracket on every generator, from the trees' words."""
    patterns, whole = set(), 0
    for key in p._bracket_cache:
        if not _cold(p, *key):
            continue
        d1, i1, d2, i2 = key
        t1, t2 = p.lie_basis(d1)[i1].tree, p.lie_basis(d2)[i2].tree
        letters = sorted(set(freelie.tree_word(t1) + freelie.tree_word(t2)))
        if len(letters) == len(p._deg_list):
            whole += 1
            continue
        rank = {g: r for r, g in enumerate(letters)}
        patterns.add((tuple(p._deg_list[g] for g in letters),
                      relabel(t1, rank), relabel(t2, rank)))
    return len(patterns) + whole


@pytest.mark.parametrize("degrees", [[1, 1, 1], [1, 2, 1, 2], [3, 1, 3, 1], [2, 1, 1, 2, 3],
                                     "w21 # w11"])
def test_moved_brackets_match_the_tensor_path(monkeypatch, fixture_path, degrees):
    # mixed degrees catch a key that drops the degrees or ranks the letters
    # by degree; one degree throughout would catch neither
    p = _glued_w21_w11(fixture_path) if degrees == "w21 # w11" else _presentation(degrees)
    solve = freelie.solve_against_basis
    counts = _counting_solves(monkeypatch)
    cold = 0
    for d1 in range(1, 7):
        for d2 in range(1, 8 - d1):
            basis = p.lie_basis(d1 + d2)
            for i1, b1 in enumerate(p.lie_basis(d1)):
                for i2, b2 in enumerate(p.lie_basis(d2)):
                    tensor = freelie.expand_tree((b1.tree, b2.tree), p._deg_list)
                    expected = solve(basis, tensor)
                    got = p.basis_bracket(d1, i1, d2, i2)
                    assert got.degree == d1 + d2
                    # the same terms, in the same order, with the same int or Fraction
                    assert ([(i, c, type(c)) for i, c in got.coords.items()]
                            == [(i, c, type(c)) for i, c in expected.items()]), (b1.tree, b2.tree)
                    cold += _cold(p, d1, i1, d2, i2)
    solves = counts.get(p._bases, 0)
    assert 0 < solves < cold
    assert solves == _expected_solves(p)


def test_a_moved_lead_that_is_no_basis_lead_raises():
    p = _presentation([1, 2, 1, 2])

    def bracket_all():
        for i1 in range(p.dim(2)):
            for i2 in range(p.dim(3)):
                p.basis_bracket(2, i1, 3, i2)

    bracket_all()
    pattern, terms = next((k, v) for k, v in p._bracket_patterns.items() if v)
    # every term is of odd degree 5, so its lead is a Lyndon word of two or
    # more letters, and no reversed one is Lyndon, nor any basis lead
    degs = p._deg_list
    p._bracket_patterns[pattern] = [
        (freelie.pack(freelie.unpack(w, degs)[::-1], degs), c) for w, c in terms]
    p._bracket_cache.clear()
    with pytest.raises(AssertionError, match="no basis lead"):
        bracket_all()


def _cold_pair(p, d1, d2):
    """The first key (d1, i1, d2, i2) of a bracket that is solved, on every generator."""
    for i1, b1 in enumerate(p.lie_basis(d1)):
        for i2, b2 in enumerate(p.lie_basis(d2)):
            if _cold(p, d1, i1, d2, i2) and b1.letters | b2.letters == p._alphabet:
                return d1, i1, d2, i2
    raise AssertionError("no cold bracket of degrees %d, %d" % (d1, d2))


def test_a_planted_word_outside_the_span_raises(monkeypatch):
    p = _presentation([1, 1])
    key = _cold_pair(p, 3, 4)
    # a word over one letter is no word of a bracket of both letters
    planted = freelie.pack((0,) * 7, p._deg_list)
    product = freelie.BasisMemo.product

    def planting(self, u, v):
        tensor = product(self, u, v)
        assert planted not in tensor
        tensor[planted] = 1
        return tensor

    monkeypatch.setattr(freelie.BasisMemo, "product", planting)
    with pytest.raises(ValueError, match="outside the free Lie span"):
        p.basis_bracket(*key)
    assert key not in p._bracket_cache


def test_a_changed_memoized_expansion_raises():
    # the solve subtracts the memoized expansion of every basis element it
    # clears; one changed coefficient leaves a word that no element can
    # clear, since a single word of two or more letters is no Lie element
    p = _presentation([1, 1])
    key = _cold_pair(p, 3, 4)
    d = key[0] + key[2]
    coords = _presentation([1, 1]).basis_bracket(*key).coords  # a fresh presentation's
    i = max(coords)
    expansion = p.lie_basis(d)[i].expansion
    w = max(expansion)  # a word after the lead
    expansion[w] += 1
    with pytest.raises(ValueError, match="outside the free Lie span"):
        p.basis_bracket(*key)


@pytest.mark.parametrize("argv", [
    ["der", "presentation_w11.json", "--sub", "omega", "--min", "0", "--max", "12"],
    ["glue", "w21.json", "w11.json", "--min", "0", "--max", "4", "--assert-semisimple"],
], ids=["der", "glue"])
def test_each_solve_consumes_only_its_own_product(monkeypatch, fixture_path, argv):
    # every cold product is the solve's work dict; the memoized expansions
    # the solve subtracts are left as a memo-free expansion builds them
    seen = {}
    basis_bracket = DgLaPresentation.basis_bracket

    def recorded(self, *key):
        seen.setdefault(self._bases, self)
        return basis_bracket(self, *key)

    monkeypatch.setattr(DgLaPresentation, "basis_bracket", recorded)
    code, _ = cli.run([fixture_path(a) if a.endswith(".json") else a for a in argv])
    assert code == 0
    checked = 0
    for p in seen.values():
        for tree, expansion in p._bases.expansions.items():
            assert expansion == freelie.expand_tree(tree, p._deg_list), tree
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("argv, total", [
    (["glue", "w21.json", "w11.json", "--min", "0", "--max", "4", "--assert-semisimple"], 44),
    # every cold bracket there is on both letters but [a, a] and [b, b], whose
    # patterns are one, so one solve serves both
    (["der", "presentation_w11.json", "--sub", "omega", "--min", "0", "--max", "8"], 9),
], ids=["glue", "der"])
def test_each_letter_pattern_is_solved_once(monkeypatch, fixture_path, argv, total):
    counts = _counting_solves(monkeypatch)
    seen = {}  # basis memo -> its presentation, for every presentation that brackets
    basis_bracket = DgLaPresentation.basis_bracket

    def recorded(self, *key):
        seen.setdefault(self._bases, self)
        return basis_bracket(self, *key)

    monkeypatch.setattr(DgLaPresentation, "basis_bracket", recorded)
    code, _ = cli.run([fixture_path(a) if a.endswith(".json") else a for a in argv])
    assert code == 0
    assert set(counts) <= set(seen)
    assert {memo: counts.get(memo, 0) for memo in seen} == {
        memo: _expected_solves(p) for memo, p in seen.items()}
    assert sum(counts.values()) == total
