"""The differential and generator morphisms read only the terms they reach.

``DgLaPresentation.reach`` splits an element's coordinates into those on
the basis trees whose letters meet a set of generators and the rest.
``differential_of`` walks only the trees that meet a generator with d != 0,
and ``GeneratorMorphism.apply`` only those that meet a generator it moves,
keeping the rest as they are.  Each must give what its unfiltered tree map
gives on the whole element: ``p._d`` and ``f.tree_map``, called on x.
"""

import random

import pytest

from dgla import io
from dgla.expmc import exp_automorphism
from dgla.morphisms import GeneratorMorphism
from dgla.presentation import pushout

from oracles import is_coefficient, random_presentation, random_unipotent_automorphism
from test_derivation_reuse import (
    _elements,
    _filtration_derivation,
    _fixture_presentations,
    _nilpotent,
    _random_element,
)


def _check_d(p, xs):
    """differential_of against the unfiltered d, entry for entry; the number of reached xs."""
    reached = 0
    for x in xs:
        got = p.differential_of(x)
        want = p._d(x, p.zero(x.degree - 1))
        # the same entries, in the same order, each of the same type
        assert [(i, type(c), c) for i, c in got.coords.items()] == [
            (i, type(c), c) for i, c in want.coords.items()
        ]
        assert got.degree == want.degree
        reached += bool(p.reach(x, p._d_mask)[0])
    return reached


def _check_apply(f, xs):
    """apply against the unfiltered tree map; the number of xs reached only in part."""
    partial = 0
    for x in xs:
        got = f.apply(x)
        want = f.tree_map(x, f.target.zero(x.degree))
        assert got.presentation is f.target
        assert got.coords == want.coords
        assert got.degree == want.degree or not want.coords
        assert all(is_coefficient(c) for c in got.coords.values())
        reached, rest = f.source.reach(x, f._moved)
        partial += bool(reached and rest)
    return partial


def _partial_endomorphism(rng, p):
    """An endomorphism fixing a random set of generators and moving the others at random."""
    names = [n for n, _ in p.generators.entries]
    moved = set(rng.sample(names, rng.randint(1, len(names))))
    return GeneratorMorphism(p, p, {
        n: _random_element(rng, p, d) if n in moved else p.gen(n)
        for n, d in p.generators.entries
    })


def _check_presentation(rng, p):
    xs = _elements(rng, p)
    reached = _check_d(p, xs)
    partial = 0
    for f in (GeneratorMorphism.identity(p), random_unipotent_automorphism(rng, p),
              _partial_endomorphism(rng, p), _partial_endomorphism(rng, p)):
        partial += _check_apply(f, xs + [f.images[n] for n in f.images])
    return reached, partial


@pytest.mark.parametrize("name", sorted(_fixture_presentations()))
def test_reach_filtered_maps_match_the_tree_maps_on_every_fixture(name):
    p = _fixture_presentations()[name]
    reached, _ = _check_presentation(random.Random(name), p)
    assert reached or not p.differential


def test_reach_filtered_maps_match_the_tree_maps_on_fuzz_presentations():
    rng = random.Random(3403)
    reached = partial = 0
    for _ in range(15):
        r, q = _check_presentation(rng, random_presentation(rng, max_gens=4, max_degree=4))
        reached, partial = reached + r, partial + q
    assert reached and partial


def test_exp_images_match_the_tree_maps(fixture_path):
    rng = random.Random(99)
    p = _nilpotent()
    maps = []
    for _ in range(6):
        e = exp_automorphism(_filtration_derivation(rng, p))
        maps += [e, e.compose(maps[-1])] if maps else [e]
    w11 = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    th = io.load_derivation(io.load_json_file(fixture_path("exp_derivation.json")), w11)
    maps += [exp_automorphism(th), exp_automorphism(th.scale(-1))]
    partial = 0
    for f in maps:
        q = f.source
        xs = [_random_element(rng, q, d) for d in range(2, 11)]
        xs += [q.gen(n) for n, _ in q.generators.entries] + list(f.images.values())
        partial += _check_apply(f, xs)
    assert partial


def test_homotopy_fixture_maps_match_the_tree_maps(fixture_path):
    _, f, g, _ = io.load_homotopy(io.load_json_file(fixture_path("homotopy_interp.json")))
    rng = random.Random(5)
    xs = [_random_element(rng, f.source, d) for d in range(1, 9)]
    for m in (f, g):
        # a map between two presentations moves every generator
        assert m._moved == (1 << len(m.source.generators.entries)) - 1
        _check_apply(m, xs)
    _check_d(f.target, [f.apply(x) for x in xs])


@pytest.mark.parametrize("left, right, along", [
    ("w11.json", "w21.json", None),
    ("presentation_cp2.json", "presentation_cp2.json", None),
    ("tilde_w11.json", "tilde_w11.json", "beta"),
])
def test_pushout_inclusions_match_the_tree_maps(left, right, along):
    presentations = _fixture_presentations()
    p, q = presentations[left], presentations[right]
    po, inc_p, inc_q = pushout(p, q, along)
    rng = random.Random(left + right)
    for inc in (inc_p, inc_q):
        assert inc._moved == (1 << len(inc.source.generators.entries)) - 1
        xs = _elements(rng, inc.source)
        _check_apply(inc, xs)
        _check_d(po, [inc.apply(x) for x in xs])


def test_with_zero_differential_no_tree_is_walked(monkeypatch):
    rng = random.Random(7)
    p, q = _nilpotent(), _nilpotent()
    xs = [_random_element(rng, p, d) for d in range(2, 13)]

    def split(*args):
        raise AssertionError("an element was split")

    # nor is an element split by letters: d = 0 reaches no term
    monkeypatch.setattr(p, "reach", split)
    for x in xs:
        assert p.differential_of(x) is p.zero(x.degree - 1)
    assert p._d.memo == {}
    # an element of another presentation is still refused, before anything is read
    for x in (q.gen("a"), q.zero(2)):
        with pytest.raises(ValueError):
            p.differential_of(x)


def test_the_identity_returns_its_argument_and_walks_no_tree():
    rng = random.Random(11)

    def walked(*args):
        raise AssertionError("a tree was walked")

    for name, p in sorted(_fixture_presentations().items()):
        ident = GeneratorMorphism.identity(p)
        assert ident._moved == 0
        ident.tree_map.leaf = ident.tree_map.node = walked
        for x in _elements(rng, p):
            got = ident.apply(x)
            assert got is x if x.coords else got is p.zero(x.degree)
        assert ident.tree_map.memo == {}


def test_reach_splits_by_letters_and_refuses_foreign_elements():
    rng = random.Random(13)
    p, q = _nilpotent(), _nilpotent()
    masks = range(1 << len(p.generators.entries))
    for d in range(2, 13):
        x = _random_element(rng, p, d)
        for mask in masks:
            reached, rest = p.reach(x, mask)
            assert {**reached, **rest} == x.coords and not set(reached) & set(rest)
            for i, b in enumerate(p.lie_basis(d)):
                if i in x.coords:
                    # the letters of one basis element are those of its tree
                    assert (i in reached) == bool(p.letters(p.tree_element(b.tree)) & mask)
    f = GeneratorMorphism.identity(p)
    for x in (q.gen("a"), q.zero(2)):
        with pytest.raises(ValueError):
            p.reach(x, 1)
        with pytest.raises(ValueError):
            p.differential_of(x)
        with pytest.raises(ValueError):
            f.apply(x)
