import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgla import freelie, io
from dgla.errors import InhomogeneousExpression, UnknownGenerator
from dgla.presentation import DgLaPresentation
from oracles import (
    _expand_bracket,
    basis_trees,
    brute_force_lie_dims,
    is_exact,
    is_lyndon,
    random_presentation,
    solve_against_basis_fractions,
    solve_all_fractions,
    tuple_word_basis,
    witt_dimensions,
    words_of_degree,
)


def dims_by_length(p, max_length, max_degree):
    out = {}
    for d in range(1, max_degree + 1):
        for b in p.lie_basis(d):
            if b.length <= max_length:
                out[(b.length, d)] = out.get((b.length, d), 0) + 1
    return out


def test_basis_examples():
    # one even generator: [x,x] = 0
    p = DgLaPresentation([("x", 2)])
    assert p.lie_basis(4) == []
    # one odd generator: [x,x] survives, [x,[x,x]] does not
    p = DgLaPresentation([("x", 1)])
    assert len(p.lie_basis(2)) == 1
    assert p.lie_basis(3) == []
    # two even generators, degree 6: Witt count 2 at word length 3
    p = DgLaPresentation([("a", 2), ("b", 2)])
    assert len(p.lie_basis(6)) == 2


def test_basis_matches_brute_force_small():
    for degs in [(1,), (2,), (1, 1), (1, 2), (2, 3), (3, 3), (1, 1, 2)]:
        p = DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degs)])
        brute = brute_force_lie_dims(list(degs), 4)
        lib = dims_by_length(p, 4, 4 * max(degs))
        assert lib == brute, degs


def test_basis_matches_witt():
    for degs in [(1, 1), (2, 2), (1, 3), (2, 2, 2)]:
        p = DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degs)])
        witt = witt_dimensions(list(degs), 5, 5 * max(degs))
        lib = dims_by_length(p, 5, 5 * max(degs))
        assert lib == witt, degs


def test_normal_form_examples():
    p = DgLaPresentation([("x", 2)])
    assert p.normal_form("[x,x]").is_zero()
    p = DgLaPresentation([("x", 2), ("y", 2)])
    assert p.normal_form("[y,x]") == p.normal_form("-1*[x,y]")
    # [[a,b],b] = -[b,[a,b]]: same element, verified via the tensor oracle
    q = DgLaPresentation([("a", 2), ("b", 2)])
    e1 = q.normal_form("[[a,b],b]")
    e2 = q.normal_form("[b,[a,b]]")
    assert e1 == e2.scale(-1)
    assert not e1.is_zero()


def test_normal_form_idempotent_and_linear():
    p = DgLaPresentation([("a", 1), ("b", 2)])
    e = p.normal_form("2*[a,[a,b]]+1/3*[b,[a,a]]")
    again = p.normal_form(e.terms())
    assert again == e
    x = p.normal_form("[a,b]")
    y = p.normal_form("[b,a]")
    assert p.normal_form([(Fraction(2), ("a", "b")), (Fraction(1), ("b", "a"))]) == (
        x.scale(2) + y
    )


def test_normal_form_errors():
    p = DgLaPresentation([("a", 1), ("b", 2)])
    with pytest.raises(UnknownGenerator):
        p.normal_form("[a,zz]")
    with pytest.raises(InhomogeneousExpression):
        p.normal_form("a+b")


def test_jacobi_after_normalization():
    rng = random.Random(1)
    p = DgLaPresentation([("a", 1), ("b", 2), ("c", 2)])
    triples = []
    for d1 in (1, 2):
        for d2 in (1, 2):
            for d3 in (1, 2):
                for b1 in p.lie_basis(d1):
                    for b2 in p.lie_basis(d2):
                        for b3 in p.lie_basis(d3):
                            triples.append(((d1, b1), (d2, b2), (d3, b3)))
    rng.shuffle(triples)
    for (d1, b1), (d2, b2), (d3, b3) in triples[:40]:
        x = p.normal_form([(Fraction(1), p.tree_names(b1.tree))])
        y = p.normal_form([(Fraction(1), p.tree_names(b2.tree))])
        z = p.normal_form([(Fraction(1), p.tree_names(b3.tree))])
        lhs = p.bracket(x, p.bracket(y, z))
        rhs = p.bracket(p.bracket(x, y), z)
        sign = -1 if (d1 * d2) % 2 else 1
        rhs = rhs + p.bracket(y, p.bracket(x, z)).scale(sign)
        assert lhs == rhs


def test_bracket_bilinear_and_graded():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    zero = p.zero(2)
    assert p.bracket(p.gen("a"), zero).is_zero()
    ab = p.bracket(p.gen("a"), p.gen("b"))
    assert ab == p.normal_form("[a,b]")
    # [[a,b],a] = -[a,[a,b]]
    v = p.bracket(ab, p.gen("a"))
    assert v == p.bracket(p.gen("a"), ab).scale(-1)


def test_zero_generators_is_legal():
    p = DgLaPresentation([])
    assert p.lie_basis(3) == []
    assert p.zero(2).is_zero()


def test_tensor_embedding_certified():
    # leading-word triangularity is asserted inside basis_in_degree; a
    # collision would raise.  Spot-check independence via a rank argument.
    from dgla import linalg

    p = DgLaPresentation([("x", 1), ("y", 1)])
    basis = p.lie_basis(4)
    support = sorted({w for b in basis for w in b.expansion})
    pos = {w: i for i, w in enumerate(support)}
    rows = linalg.matrix(len(basis), len(support), (
        (i, pos[w], c) for i, b in enumerate(basis) for w, c in b.expansion.items()
    ))
    assert linalg.rank(rows, len(support)) == len(basis)


def test_normal_form_tensor_faithful_random():
    # the normal form must expand to the same tensor as the input expression
    from dgla import freelie

    rng = random.Random(4242)
    p = DgLaPresentation([("x", 1), ("y", 2), ("z", 3)])
    degs = [1, 2, 3]

    def random_tree(depth, want_deg=None):
        if depth == 0:
            return rng.choice(["x", "y", "z"])
        return (random_tree(depth - 1), random_tree(depth - 1))

    from dgla.freelie import tree_degree

    done = 0
    while done < 40:
        tree = random_tree(rng.randint(1, 3))
        itree = p.tree_indices(tree)
        if tree_degree(itree, degs) > 9:
            continue
        done += 1
        expected = {
            w: c for w, c in freelie.expand_tree(itree, degs).items() if c
        }
        nf = p.normal_form([(Fraction(1), tree)])
        got = {}
        basis = p.lie_basis(nf.degree) if not nf.is_zero() else []
        for i, c in nf.coords.items():
            for w, cc in basis[i].expansion.items():
                got[w] = got.get(w, Fraction(0)) + c * cc
        got = {w: c for w, c in got.items() if c}
        assert got == expected


# -- the integer core: triangular solve and the expansion memo --------------

_PRESENTATIONS = {}


def _presentation(degs):
    """One presentation per degree list, so bases are built once per run."""
    if degs not in _PRESENTATIONS:
        _PRESENTATIONS[degs] = DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degs)])
    return _PRESENTATIONS[degs]


@st.composite
def _rational_combination(draw):
    """(basis, coordinates) of a random rational combination of basis elements."""
    # odd generator degrees make odd squares, whose lead coefficient is 2
    degs = draw(st.sampled_from([(1,), (1, 1), (1, 2), (3, 3), (1, 2, 3)]))
    d = draw(st.integers(1, 8))
    basis = _presentation(degs).lie_basis(d)
    assume(basis)
    coords = draw(st.dictionaries(
        st.integers(0, len(basis) - 1),
        st.fractions(-50, 50, max_denominator=64).filter(bool),
        min_size=1,
    ))
    return degs, basis, coords


def _tensor(basis, coords):
    out = {}
    for i, c in coords.items():
        for w, cw in basis[i].expansion.items():
            out[w] = out.get(w, Fraction(0)) + c * cw
    return {w: c for w, c in out.items() if c}


def _integer(tensor):
    """(integer tensor, denominator) of a rational tensor."""
    scale = lcm(*(c.denominator for c in tensor.values()))
    return {w: int(c * scale) for w, c in tensor.items()}, scale


def _scaled(coords, scale):
    """The coordinates of scale times a vector with coordinates ``coords``."""
    return {i: c * scale for i, c in coords.items()}


@settings(max_examples=100, deadline=None)
@given(_rational_combination(), st.fractions(-5, 5, max_denominator=64).filter(bool),
       st.randoms(use_true_random=False))
def test_integer_solve_matches_fraction_oracle(combination, delta, rng):
    degs, basis, coords = combination
    tensor = _tensor(basis, coords)
    ints, scale = _integer(tensor)
    got = freelie.solve_against_basis(basis, ints)
    assert solve_against_basis_fractions(basis, tensor) == coords
    assert got == _scaled(coords, scale)
    assert all(is_exact(c) for c in got.values())
    # a word that leads no basis element is outside the span, and so is any
    # vector of the span plus a nonzero multiple of it
    leads = {b.lead for b in basis}
    words = (freelie.pack(w, degs) for w in words_of_degree(list(degs), basis[0].degree))
    others = [w for w in words if w not in leads]
    assume(others)
    w = rng.choice(others)
    tensor[w] = tensor.get(w, Fraction(0)) + delta
    with pytest.raises(ValueError):
        freelie.solve_against_basis(basis, _integer(tensor)[0])


@settings(max_examples=100, deadline=None)
@given(_rational_combination(), st.booleans())
@example(((1,), _presentation((1,)).lie_basis(2), {0: Fraction(1, 2)}), False)
@example(((1, 1), _presentation((1, 1)).lie_basis(2), {1: 3, 2: Fraction(-5, 2)}), False)
@example(((1, 1), _presentation((1, 1)).lie_basis(3), {0: 4, 1: -6}), True)
def test_integer_solve_agrees_with_the_all_fraction_path(combination, integral):
    """The same coordinates as the solve that returned every value as a Fraction.

    Every integral coordinate is now an int: on the integer multiple of a
    tensor with a denominator, and on integer ones, where the scale stays 1.
    """
    _, basis, coords = combination
    if integral:
        coords = {i: c.numerator for i, c in coords.items()}
    tensor, scale = _integer(_tensor(basis, coords))
    got = freelie.solve_against_basis(basis, dict(tensor))  # the solve consumes its tensor
    assert got == solve_all_fractions(basis, tensor) == _scaled(coords, scale)
    assert all(is_exact(c) for c in got.values())
    if integral:
        assert all(type(c) is int for c in got.values())


def test_solve_divides_by_an_odd_square_lead():
    # i([x,x]) = 2xx for odd x, so the word xx alone is 1/2 [x,x]
    p = DgLaPresentation([("x", 1)])
    (square,) = p.lie_basis(2)
    assert square.lead_coeff == 2
    xx = freelie.pack((0, 0), [1])
    assert freelie.solve_against_basis([square], {xx: 1}) == {0: Fraction(1, 2)}
    assert p.normal_form("1/3*[x,x]").coords == {0: Fraction(1, 3)}
    # the square comes after [x,y], whose coordinate must be rescaled with it
    q = DgLaPresentation([("x", 1), ("y", 1)])
    basis = q.lie_basis(2)
    xx, xy, yx, yy = (freelie.pack(w, [1, 1]) for w in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert [b.lead for b in basis] == [xx, xy, yy]
    tensor = {xy: 1, yx: 1, yy: 1}
    assert freelie.solve_against_basis(basis, tensor) == {1: 1, 2: Fraction(1, 2)}
    assert q.normal_form("[x,y] + 1/2*[y,y]").coords == {1: 1, 2: Fraction(1, 2)}


# -- packed words, the Lyndon search and the Witt count -------------------------


def test_packed_order_is_length_then_lexicographic():
    for n in (1, 2, 3, 4, 5):
        degs = [1] * n
        words = [w for k in range(1, 6 - n // 3) for w in itertools.product(range(n), repeat=k)]
        assert all(freelie.unpack(freelie.pack(w, degs), degs) == w for w in words)
        by_tuple = sorted(words, key=lambda w: (len(w), w))
        assert sorted(words, key=lambda w: freelie.pack(w, degs)) == by_tuple
        # one length: packed order is tuple order
        for k in range(1, 4):
            same = [w for w in words if len(w) == k]
            assert sorted(same, key=lambda w: freelie.pack(w, degs)) == sorted(same)


def test_lyndon_search_matches_filtering_every_word():
    for degs in [(1,), (1, 1), (1, 2), (2, 3), (3, 3), (1, 2, 3), (2, 2, 2), (4, 1, 3)]:
        for d in range(0, 17):
            brute = [w for w in words_of_degree(list(degs), d) if is_lyndon(w)]
            got = freelie.lyndon_words(list(degs), d)
            assert len(got) == len(set(got)) and sorted(got) == brute, (degs, d)


def test_witt_count_matches_the_bigraded_oracle():
    for degs, top in [([1, 1], 12), ([1, 2, 3], 12), ([2, 2], 20), ([3, 3], 18), ([2, 3], 16)]:
        oracle = witt_dimensions(degs, top // min(degs), top)
        dims = freelie.witt_dimensions(degs, top)
        for d in range(1, top + 1):
            expected = sum(c for (_, dd), c in oracle.items() if dd == d)
            assert dims[d] == expected == len(freelie.basis_in_degree(degs, d)), (degs, d)


def test_basis_size_is_checked_against_the_witt_count(monkeypatch):
    count = freelie.witt_dimensions

    def off_by_one(degrees, top):
        dims = count(degrees, top)
        dims[top] += 1
        return dims

    monkeypatch.setattr(freelie, "witt_dimensions", off_by_one)
    with pytest.raises(AssertionError, match="Witt"):
        freelie.basis_in_degree([1, 2], 5)


@pytest.mark.parametrize(
    "degrees, d, word", [([1, 1], 3, (0, 1, 1)), ([1, 2], 4, (0, 0, 1)), ([2, 2], 6, (0, 1, 1))]
)
def test_basis_lead_must_be_the_word_of_its_tree(monkeypatch, degrees, d, word):
    # b(w) with its factors swapped is +-b(w): the same lead, the same Witt
    # count and the same span, but its tree reads another word
    bracketing = freelie.standard_bracketing

    def swapped(w, memo=None):
        tree = bracketing(w, memo)
        return (tree[1], tree[0]) if w == word else tree

    assert word in freelie.lyndon_words(degrees, d)
    freelie.basis_in_degree(degrees, d)
    monkeypatch.setattr(freelie, "standard_bracketing", swapped)
    with pytest.raises(AssertionError, match="word of the tree"):
        freelie.basis_in_degree(degrees, d)


def test_basis_matches_the_tuple_word_oracle():
    rng = random.Random(11)
    for degs, top in [((1,), 6), ((1, 1), 8), ((1, 2, 3), 8), ((2, 3), 12), ((3, 3), 12),
                      ((1, 1, 2, 2), 6), ((1, 2, 1, 3, 2), 5)]:
        p = _presentation(degs)
        for d in range(1, top + 1):
            lib, ref = p.lie_basis(d), tuple_word_basis(list(degs), d)
            assert [b.tree for b in lib] == [b.tree for b in ref], (degs, d)
            assert [freelie.unpack(b.lead, degs) for b in lib] == [b.lead for b in ref]
            assert [b.lead_coeff for b in lib] == [b.lead_coeff for b in ref]
            assert [b.length for b in lib] == [len(b.lead) for b in ref]
            for b, r in zip(lib, ref):
                assert {freelie.unpack(w, degs): c for w, c in b.expansion.items()} == r.expansion
            if not lib:
                continue
            coords = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for i in rng.sample(range(len(lib)), min(3, len(lib)))}
            coords = {i: c for i, c in coords.items() if c}
            tensor = _tensor(ref, coords)
            expected = solve_against_basis_fractions(ref, tensor)
            packed = {freelie.pack(w, degs): c for w, c in tensor.items()}
            ints, scale = _integer(packed)
            assert expected == coords
            assert freelie.solve_against_basis(lib, ints) == _scaled(coords, scale)


def test_basis_expansions_are_int_and_match_a_memo_free_expansion():
    p = DgLaPresentation([("x", 1), ("y", 2), ("z", 3)])
    degs = [1, 2, 3]
    for d in range(1, 11):
        for b in p.lie_basis(d):
            assert all(type(c) is int for c in b.expansion.values()), b.tree
            assert b.expansion == freelie.expand_tree(b.tree, degs)


def _building(monkeypatch):
    """Record each composite tree that ``expand_tree`` builds rather than reads from its memo."""
    built = []
    expand = freelie.expand_tree

    def counting(tree, degrees, memo=None, factor_degrees=None):
        if not isinstance(tree, int) and (memo is None or tree not in memo):
            built.append(tree)
        return expand(tree, degrees, memo, factor_degrees)

    monkeypatch.setattr(freelie, "expand_tree", counting)
    return built


def test_cold_basis_bracket_is_one_product_step(monkeypatch):
    p = DgLaPresentation([("x", 1), ("y", 2), ("z", 3)])
    d1, d2 = 4, 6  # every pair of basis elements here has two composite factors
    # read every expansion a bracket of these degrees can reach: its factors'
    # and those its solve clears
    for d in (d1, d2, d1 + d2):
        for b in p.lie_basis(d):
            assert b.expansion
    built = _building(monkeypatch)
    pairs = 0
    for i1, b1 in enumerate(p.lie_basis(d1)):
        for i2, b2 in enumerate(p.lie_basis(d2)):
            # a pair whose tree, either way round, is a basis tree needs no tensor
            trees = basis_trees(p, d1 + d2)
            if (b1.tree, b2.tree) in trees or (b2.tree, b1.tree) in trees:
                continue
            del built[:]
            p.basis_bracket(d1, i1, d2, i2)
            assert built == [(b1.tree, b2.tree)]
            pairs += 1
    assert pairs > 4


@pytest.mark.parametrize("name, top", [("presentation_cp2.json", 12),
                                       ("presentation_twisted9.json", 14)])
def test_tree_decided_brackets_match_the_tensor_path(fixture_path, name, top):
    p = io.load_presentation(io.load_json_file(fixture_path(name)))
    seen = set()
    for d1 in range(1, top):
        for d2 in range(1, top - d1 + 1):
            trees = basis_trees(p, d1 + d2)
            for i1, b1 in enumerate(p.lie_basis(d1)):
                for i2, b2 in enumerate(p.lie_basis(d2)):
                    tensor = freelie.expand_tree((b1.tree, b2.tree), p._deg_list)
                    expected = freelie.solve_against_basis(p.lie_basis(d1 + d2), tensor)
                    got = p.basis_bracket(d1, i1, d2, i2)
                    assert got.degree == d1 + d2
                    assert got.coords == expected, (b1.tree, b2.tree)
                    if b1.tree == b2.tree and (b1.tree, b2.tree) in trees:
                        seen.add("square")
                    elif (b1.tree, b2.tree) in trees:
                        seen.add("tree")
                    elif (b2.tree, b1.tree) in trees:
                        seen.add("swap, odd x odd" if d1 * d2 % 2 else "swap")
    assert seen == {"square", "tree", "swap", "swap, odd x odd"}


def test_expansion_memo_holds_only_composite_basis_elements():
    rng = random.Random(7)
    p = DgLaPresentation([("x", 1), ("y", 2), ("z", 3)])
    elements = [p.gen(n) for n in "xyz"]
    for _ in range(30):
        u, v = rng.choice(elements), rng.choice(elements)
        if u.degree + v.degree <= 9:
            elements.append(p.bracket(u, v))
    p.normal_form("[[x,y],[z,[x,x]]] + 1/2*[[x,z],[x,[y,x]]]")
    basis = {b.tree: b for d in p._basis_cache for b in p.lie_basis(d)}
    composite = {t for t in basis if not isinstance(t, int)}
    assert len(p._bracket_cache) > 10 and len(composite) > 10
    # no bracket product or parsed subtree is retained, only the expansions
    # of basis elements that were read, and the memo shares their dicts
    memo = p._bases.expansions
    assert memo and set(memo) < composite
    for t in memo:
        assert memo[t] is basis[t].expansion
        assert memo[t] == freelie.expand_tree(t, [1, 2, 3])


def _fixture_presentations(fixture_path):
    """Every presentation the fixtures give: their own, and those of their manifolds."""
    out = []
    for name in ("presentation_cp2.json", "presentation_twisted9.json", "presentation_w11.json",
                 "s2.json", "tilde_w11.json"):
        out.append(io.load_presentation(io.load_json_file(fixture_path(name))))
    for name in ("cp2.json", "hp2.json", "hp2_sum.json", "s4s4.json", "twisted9.json", "w11.json",
                 "w21.json"):
        out.append(io.load_manifold(io.load_json_file(fixture_path(name))).presentation)
    return out


def test_letter_masks_are_the_letters_of_the_tree_words(fixture_path):
    # each basis element's mask is set with its lead, from its factors' masks
    for p in _fixture_presentations(fixture_path):
        for d in range(1, 9):
            basis = p.lie_basis(d)
            assert p.letter_masks(d) == [b.letters for b in basis]
            for b in basis:
                assert b.letters == sum(1 << g for g in set(freelie.tree_word(b.tree))), b.tree


def test_leads_from_factor_leads_match_the_oracle_expansion(fixture_path):
    """lead, lead_coeff and length are those of the least word of the tuple-word expansion.

    They are computed from the factors' leads with no expansion.  The swapped
    tree (t2, t1) of each composite basis element (t1, t2) is no basis tree,
    and its lead is the other product v.u: it is built in a memo of its own.
    """
    rng = random.Random(2828)
    presentations = _fixture_presentations(fixture_path)
    presentations += [random_presentation(rng, max_gens=3, max_degree=3) for _ in range(10)]
    seen = set()
    for p in presentations:
        degs = p._deg_list
        swapped = freelie.BasisMemo(degs)
        for d in range(1, 11):
            for b in p.lie_basis(d):
                elements = [b]
                if not isinstance(b.tree, int):
                    elements.append(swapped.element((b.tree[1], b.tree[0])))
                for e in elements:
                    expansion = {w: c for w, c in _expand_bracket(e.tree, degs).items() if c}
                    lead = min(expansion)
                    assert freelie.unpack(e.lead, degs) == lead, (degs, e.tree)
                    assert (e.lead_coeff, e.length) == (expansion[lead], len(lead)), (degs, e.tree)
                    seen.add((e is b, e.lead_coeff, e.degree % 2))
    # odd squares (2); swapped brackets: -(-1)^{|U||V|} is 1 for odd x odd, -1 otherwise
    assert {(True, 2, 0), (False, 1, 0), (False, -1, 0), (False, -1, 1)} <= seen


def test_lie_basis_expands_no_tensor(monkeypatch, fixture_path):
    degree_lists = [p._deg_list for p in _fixture_presentations(fixture_path)]
    built = _building(monkeypatch)
    for degs in degree_lists:
        p = DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degs)])
        for d in range(1, 13):
            p.lie_basis(d)
        assert len(freelie.basis_in_degree(degs, 12)) == p.dim(12)
    assert built == []


@pytest.mark.parametrize("name, top", [("presentation_cp2.json", 12),
                                       ("presentation_twisted9.json", 12)])
def test_each_expansion_is_built_once_over_a_bracket_table(monkeypatch, fixture_path, name, top):
    p = io.load_presentation(io.load_json_file(fixture_path(name)))
    before = set(p._bases.expansions)  # read by the cold brackets of the differential's normal forms
    built = _building(monkeypatch)
    for d1 in range(1, top):
        for d2 in range(1, top - d1 + 1):
            for i1 in range(p.dim(d1)):
                for i2 in range(p.dim(d2)):
                    p.basis_bracket(d1, i1, d2, i2)
    trees = {t for d in range(1, top + 1) for t in basis_trees(p, d)}
    expansions = [t for t in built if t in trees]
    assert expansions and len(expansions) == len(set(expansions))
    assert set(expansions) == set(p._bases.expansions) - before
