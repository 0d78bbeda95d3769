"""Derivation slices as sparse operators, against the paths they replaced.

A ``DerSlice`` sums each structure constant's Hom vector straight into
one dict, each generator's slot at its offset, from the term lists it
keeps per basis derivation, through the one evaluator ``_reached_add``,
which adds memoized tree images in place and builds no element per term;
``oracles.der_bracket_structure_constants`` builds each one from
``der_bracket``, a new Derivation and its Hom vector.  Both orders of
every pair that the antisymmetry walk compares are evaluated on their own.
Every evaluation goes through ``_reached_add``: ``eval_at`` adds into a
fresh sum, and ``add_eval_at`` into any sum adds what ``eval_at`` gives, in
value and order, for every factor and multiple, as does ``_reached_add``
at an offset.  A unit is built on its one
generator as ``from_vector`` builds it.  ``eval_at``, and so each condition
of a derivation space, evaluates a unit only on the terms of its element
that the unit reaches; ``oracles.unrestricted_evaluation`` evaluates it on
the whole element.  Degrees other than 0 of Der and Der_u assemble their
condition matrix per Hom slot, with no unit (``_vanishing_space``): each of
its columns holds, by value, what the unit's ``eval_at`` gives, and it has
the kernel of the per-unit matrix.  Each pair must agree entry for entry.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dgla import derivations, freelie, io, linalg
from dgla.cli import run
from dgla.derivations import (
    Derivation, FDerivation, _HomLayout, der_complex, deru, forget_pullback,
)
from dgla.gluing import boundary_connected_sum
from dgla.linalg import accumulate as _accumulate, nonzeros
from dgla.models import build_block_g, tilde_model
from dgla.morphisms import GeneratorMorphism
from dgla.presentation import DgLaPresentation, LieElement
from dgla.slices import DgLieSlice

from oracles import (
    condition_columns,
    der_bracket_structure_constants,
    fuzz_presentations,
    fuzz_split_presentations,
    random_presentation,
    unrestricted_evaluation,
)


def _load(fixture_path, name):
    return io.load_json_file(fixture_path(name))


def _tilde_w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2), ("beta", 4), ("gamma", 5)],
        {"gamma": "[a,b]-beta"},
        {"beta": {"generators": ["beta"]}, "omega": {"elements": ["[a,b]"]}},
    )


def _genus(g):
    """Generators a_i, b_i of degree 2 and omega = sum of [a_i, b_i]."""
    names = [("a%d" % k, 2) for k in range(g)] + [("b%d" % k, 2) for k in range(g)]
    omega = "+".join("[a%d,b%d]" % (k, k) for k in range(g))
    return DgLaPresentation(names, None, {"omega": {"elements": [omega]}})


def _glued_deru(fixture_path, left, right, window):
    """The Der_u of the block g of the boundary connected sum of two manifold fixtures."""
    mn = boundary_connected_sum(io.load_manifold(_load(fixture_path, left)),
                                io.load_manifold(_load(fixture_path, right)))
    return build_block_g(mn, window).acting


def _table_slice(case, fixture_path):
    w11 = io.load_presentation(_load(fixture_path, "presentation_w11.json"))
    w21 = io.load_manifold(_load(fixture_path, "w21.json"))
    t9 = io.load_presentation(_load(fixture_path, "presentation_twisted9.json"))
    rho = io.load_rho(_load(fixture_path, "rho_twisted9.json"), t9)[0]
    return {
        "w11 der": lambda: der_complex(w11, "omega", (-2, 8)),
        "w21 der": lambda: der_complex(w21.presentation, "omega", (-2, 4)),
        "w21 deru": lambda: deru(w21.presentation, "omega", None, (0, 4)),
        "twisted9 der": lambda: der_complex(t9, "omega", (-1, 4)),
        "twisted9 deru": lambda: deru(t9, "omega", None, (0, 4)),
        "twisted9 deru rho": lambda: deru(t9, "omega", rho, (0, 4)),
        "tilde_w11 beta": lambda: der_complex(_tilde_w11(), "beta", (-1, 3)),
        "tilde_w11 deru beta": lambda: deru(_tilde_w11(), "beta", None, (0, 3)),
        "glued w21 w11": lambda: _glued_deru(fixture_path, "w21.json", "w11.json", (0, 4)),
        "genus 4": lambda: deru(_genus(4), "omega", None, (0, 4)),
        "glued action10 ab10": lambda: _glued_deru(fixture_path, "action10.json", "ab10.json",
                                                   (0, 4)),
        "glued hp2 hp2": lambda: _glued_deru(fixture_path, "hp2.json", "hp2.json", (0, 6)),
    }[case]()


_TABLE_CASES = [
    "w11 der", "w21 der", "w21 deru", "twisted9 der", "twisted9 deru",
    "twisted9 deru rho", "tilde_w11 beta", "tilde_w11 deru beta", "glued w21 w11", "genus 4",
    "glued action10 ab10", "glued hp2 hp2",
]

# (pairs, nonzero brackets) of the tables whose size is pinned: generators of
# degrees 2, 3, 5, 6, 2, 6, of both parities, and two of degree 3
_TABLE_SIZES = {"glued action10 ab10": (556, 276), "glued hp2 hp2": (16, 6)}


def _entries(coords):
    """The entries of a coordinate dict, in order, each with its type."""
    return [(k, type(c), c) for k, c in coords.items()]


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_structure_constants_match_der_bracket(case, fixture_path):
    slc = _table_slice(case, fixture_path)
    want = der_bracket_structure_constants(slc)
    assert any(want.values())
    if case in _TABLE_SIZES:
        assert (len(want), sum(map(bool, want.values()))) == _TABLE_SIZES[case]
    for (n, i, m, j), w in want.items():
        got = slc.bracket(n, i, m, j)
        # the same entries, in the same order, each of the same type
        assert list(got.items()) == list(w.items()), (n, i, m, j)
        assert [type(c) for c in got.values()] == [type(c) for c in w.values()]


def test_the_glued_bracket_table_builds_no_derivation_per_pair(fixture_path, monkeypatch):
    # on 0..4 the glued Der_u has 16 pairs (2, 2) that bracket into degree 4;
    # on 0..2 it has none, and the guard would hold of any table
    calls = []
    plain = derivations.der_bracket

    def counted(theta, psi):
        calls.append((theta.degree, psi.degree))
        return plain(theta, psi)

    monkeypatch.setattr(derivations, "der_bracket", counted)
    # nor does a pair read, while the glued g is built or later, evaluate a
    # term into an element of its own
    read, inside, evaluations = [], [], []
    plain_coords, plain_eval = derivations.DerSlice._bracket_coords, derivations.Derivation.eval_at

    def reading(slc, *pair):
        read.append(pair)
        inside.append(pair)
        try:
            return plain_coords(slc, *pair)
        finally:
            inside.pop()

    def counted_eval(theta, e):
        if inside:
            evaluations.append(e)
        return plain_eval(theta, e)

    monkeypatch.setattr(derivations.DerSlice, "_bracket_coords", reading)
    monkeypatch.setattr(derivations.Derivation, "eval_at", counted_eval)
    w11 = io.load_manifold(_load(fixture_path, "w11.json"))
    g = build_block_g(boundary_connected_sum(w11, w11), (0, 4))
    nonzero = 0
    for n in range(0, 5):
        for m in range(0, 5 - n):
            for i in range(g.dim(n)):
                for j in range(g.dim(m)):
                    nonzero += bool(g.bracket(n, i, m, j))
    acting = g.acting
    assert acting.dim(2) and acting.dim(4)
    assert any(acting.bracket(2, i, 2, j) for i in range(acting.dim(2)) for j in range(acting.dim(2)))
    assert nonzero and calls == []
    assert read and evaluations == []


def test_the_antisymmetry_walk_evaluates_both_orders_of_every_pair(fixture_path, monkeypatch):
    # the walk compares [x, y] with [y, x]; a table that filled one order
    # from the other by the sign would compare a value with itself, so each
    # order that Der_u's own walk reads, while g is built, must have been
    # evaluated by the slice on its own
    evaluated, walked, inside = set(), [], []
    plain_coords, plain_bracket = derivations.DerSlice._bracket_coords, DgLieSlice.bracket
    plain_walk = DgLieSlice._antisymmetry_failures

    def evaluating(slc, *pair):
        evaluated.add(pair)
        return plain_coords(slc, *pair)

    def reading(slc, *pair):
        if inside and inside[-1] is slc and isinstance(slc, derivations.DerSlice):
            walked.append(pair)
        return plain_bracket(slc, *pair)

    def walking(slc, degree_pairs):
        inside.append(slc)
        try:
            yield from plain_walk(slc, degree_pairs)
        finally:
            inside.pop()

    monkeypatch.setattr(derivations.DerSlice, "_bracket_coords", evaluating)
    monkeypatch.setattr(DgLieSlice, "bracket", reading)
    monkeypatch.setattr(DgLieSlice, "_antisymmetry_failures", walking)
    acting = _glued_deru(fixture_path, "w21.json", "w11.json", (0, 4))
    assert (2, 2) in acting._antisymmetric
    assert any(plain_bracket(acting, *pair) for pair in walked)
    for n, i, m, j in walked:
        assert {(n, i, m, j), (m, j, n, i)} <= evaluated
        assert (m, j, n, i) in walked


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_a_unit_is_the_coordinate_derivation(case, fixture_path):
    # the unit built on its one generator is the derivation from_vector builds
    slc = _table_slice(case, fixture_path)
    for layout in slc.layouts.values():
        for k in range(layout.total):
            got, want = layout.unit(k), layout.from_vector({k: 1})
            assert (got.ambient, got.degree, got.rel) == (want.ambient, want.degree, want.rel)
            assert list(got.values) == list(want.values)
            for name, v in want.values.items():
                assert got.values[name].degree == v.degree
                assert _entries(got.values[name].coords) == _entries(v.coords)


# -- the accumulating evaluator against eval_at -----------------------------------------


def _elements(p, rng, top=6):
    """Basis elements and short sums of degree <= top, and the differential's values.

    The sums have int and Fraction coefficients, and one per degree
    integral Fractions, as a 1/2 scale and back leaves them.
    """
    out = list(p.differential.values())
    for d in range(1, top + 1):
        dim = p.dim(d)
        if not dim:
            continue
        out += [LieElement(p, d, {i: 1}) for i in rng.sample(range(dim), min(dim, 4))]
        for _ in range(3):
            out.append(LieElement(p, d, {
                rng.randrange(dim): rng.choice([1, -1, 3, Fraction(1, 2)]) for _ in range(3)
            }))
        out.append(out[-1].scale(Fraction(1, 2)).scale(2))
    return out


def _value_dicts(layout, rng):
    """Generator values of four coordinate vectors of a Hom layout and of a sum of three."""
    ks = rng.sample(range(layout.total), min(layout.total, 4))
    sums = [{k: rng.choice([1, -2, Fraction(1, 3)]) for k in ks[:3]}] if ks else []
    return [layout.values(v) for v in [{k: 1} for k in ks] + sums]


def _same_accumulation(th, add, target, elements, rng):
    """add(out, c, e) adds to out what ``_accumulate`` adds of th.eval_at(e).

    The same nonzero entries in the same order, for several factors c, into
    an empty dict and into one that already holds entries.  Entries are
    compared by value: the factor meets each term's coefficient before the
    image, so an integral product can be an int on one side and the equal
    Fraction on the other.
    """
    for e in elements:
        dim = target.dim(e.degree + th.degree)
        filled = {k: rng.choice([1, -1, Fraction(1, 2)]) for k in range(min(dim, 3))}
        for c in (1, -1, 2, Fraction(1, 3)):
            for start in ({}, filled):
                got, want = dict(start), dict(start)
                add(got, c, e)
                _accumulate(want, c, th.eval_at(e).coords)
                assert _sum(got) == _sum(want), (e.terms(), c, start)
        got = {}
        add(got, 1, e)
        assert _sum(got) == list(th.eval_at(e).coords.items())


def _sum(out):
    """The nonzero entries of an accumulated sum, in order."""
    return list(nonzeros(out).items())


def _same_at_an_offset(th, p, elements):
    """The evaluator at an offset adds eval_at's entries, each index shifted, in order and type."""
    base, q = th._base or (th, 1)
    for e in elements:
        got = {}
        derivations._reached_add(got, 7, 1 * q, base, p.term_list(e))
        want = _entries(th.eval_at(e).coords)
        assert _entries(nonzeros(got)) == [(7 + k, t, c) for k, t, c in want]


def _f_layout(m, n):
    """The Hom coordinates of degree-n f-derivations over m: a slot in m.target per source generator.

    Only ``total`` and ``values``, as ``_value_dicts`` reads a ``_HomLayout``.
    """
    slots, total = [], 0
    for name, deg in m.source.generators.entries:
        dim = m.target.dim(deg + n)
        slots.append((name, deg, total, dim))
        total += dim

    def values(vec):
        out = {}
        for name, deg, off, dim in slots:
            coords = {k - off: c for k, c in vec.items() if off <= k < off + dim}
            if coords:
                out[name] = LieElement(m.target, deg + n, coords)
        return out

    return SimpleNamespace(total=total, values=values)


def _check_derivations(p, rng):
    """Derivations of p, and their multiples q theta, against eval_at."""
    elements = _elements(p, rng)
    for n in (-1, 0, 1, 2):
        for values in _value_dicts(_HomLayout(p, None, n), rng):
            th = Derivation(p, n, values, check=False)
            for d in [th] + [th.scale(q) for q in (-1, Fraction(1, 2), 3)]:
                _same_accumulation(d, d.add_eval_at, p, elements, rng)
                _same_at_an_offset(d, p, elements)


def _fixture_presentations(fixture_path):
    return {
        "w11": io.load_presentation(_load(fixture_path, "presentation_w11.json")),
        "w21": io.load_manifold(_load(fixture_path, "w21.json")).presentation,
        "cp2": io.load_presentation(_load(fixture_path, "presentation_cp2.json")),
        "twisted9": io.load_presentation(_load(fixture_path, "presentation_twisted9.json")),
        "tilde_w11": _tilde_w11(),
        "genus 3": _genus(3),
        "cubic": _cubic_sub(),
    }


@pytest.mark.parametrize("case", ["w11", "w21", "cp2", "twisted9", "tilde_w11", "genus 3", "cubic"])
def test_the_accumulating_form_adds_what_eval_at_gives(case, fixture_path):
    p = _fixture_presentations(fixture_path)[case]
    _check_derivations(p, random.Random(case))


def test_fuzz_accumulating_form_adds_what_eval_at_gives():
    rng = random.Random(3207)
    for _ in range(15):
        p = random_presentation(rng, max_gens=4, max_degree=4)
        _check_derivations(p, rng)


@pytest.mark.parametrize("case", ["tilde_w11 projection", "cubic identity"])
def test_the_accumulating_form_serves_f_derivations(case, fixture_path):
    if case == "cubic identity":
        m = GeneratorMorphism.identity(_cubic_sub())
    else:
        m = tilde_model(io.load_manifold(_load(fixture_path, "w11.json")))[2]
    rng = random.Random(case)
    elements = _elements(m.source, rng)
    for n in (-1, 0, 1, 2):
        for values in _value_dicts(_f_layout(m, n), rng):
            th = FDerivation(m, n, values)

            def add(out, c, e, th=th):
                derivations._reached_add(out, 0, c, th, m.source.term_list(e))

            _same_accumulation(th, add, m.target, elements, rng)


def test_the_accumulating_form_refuses_an_element_of_another_presentation():
    p, q = _genus(2), _genus(2)
    th = _HomLayout(p, None, 0).unit(0)
    got = {}
    th.add_eval_at(got, 1, p.gen("a0"))
    assert th._ext is not None and got
    with pytest.raises(ValueError):
        th.add_eval_at({}, 1, q.gen("a0"))


# -- every condition matrix against the unrestricted evaluation ---------------------------


def _condition_matrices(build, monkeypatch, evaluation):
    """The columns of every condition matrix ``build()`` stacks, with ``evaluation``."""
    seen = []
    plain = derivations._condition_space

    def recorded(ncols, unit, conditions):
        seen.append(condition_columns(ncols, unit, conditions))
        return plain(ncols, unit, conditions)

    with monkeypatch.context() as mp:
        mp.setattr(derivations, "_condition_space", recorded)
        mp.setattr(derivations, "_evaluation", evaluation)
        build()
    return seen


def _same_condition_matrices(build, monkeypatch):
    got = _condition_matrices(build, monkeypatch, derivations._evaluation)
    want = _condition_matrices(build, monkeypatch, unrestricted_evaluation)
    assert got == want
    return got


def _cubic_sub():
    # a quadratic and a cubic element of cycles; y is in neither
    return DgLaPresentation(
        [("x", 1), ("a", 2), ("b", 2), ("y", 3)],
        {"y": "[x,x]"},
        {"s": {"elements": ["[a,[a,x]] + 2*[b,[b,x]]", "[a,b]"]}},
    )


def _fixture_builds(fixture_path):
    t9 = io.load_presentation(_load(fixture_path, "presentation_twisted9.json"))
    rho = io.load_rho(_load(fixture_path, "rho_twisted9.json"), t9)[0]
    w21 = io.load_manifold(_load(fixture_path, "w21.json"))
    cp2 = io.load_manifold(_load(fixture_path, "cp2.json"))
    proj = tilde_model(w21)[2]
    cubic = _cubic_sub()
    return {
        "w21 der": lambda: der_complex(w21.presentation, "omega", (-2, 4)),
        "w21 deru": lambda: deru(w21.presentation, "omega", None, (0, 4)),
        "cp2 deru": lambda: deru(cp2.presentation, "omega", None, (0, 4)),
        "twisted9 deru rho": lambda: deru(t9, "omega", rho, (0, 3)),
        "tilde_w11 omega": lambda: der_complex(_tilde_w11(), "omega", (-1, 3)),
        "genus 4": lambda: deru(_genus(4), "omega", None, (0, 2)),
        "forget pullback": lambda: forget_pullback(proj, "omega", "beta", (0, 3)),
        "cubic": lambda: der_complex(cubic, "s", (-1, 3)),
    }


@pytest.mark.parametrize("case", [
    "w21 der", "w21 deru", "cp2 deru", "twisted9 deru rho", "tilde_w11 omega", "genus 4",
    "forget pullback", "cubic",
])
def test_condition_matrices_match_the_unrestricted_evaluation(case, fixture_path, monkeypatch):
    matrices = _same_condition_matrices(_fixture_builds(fixture_path)[case], monkeypatch)
    assert any(any(col) for cols in matrices for col in cols)


def test_a_unit_is_evaluated_only_on_the_trees_it_reaches(monkeypatch):
    # the spy sits on the Leibniz extension's reads of its tree images, below
    # eval_at's restriction, and reads letters through the presentation's
    # masks; a part read through ``terms`` is recorded as one element, a
    # single tree as that basis element
    p = _cubic_sub()
    terms = {e.degree: set(e.coords) for e in p.sub("s").elements}
    calls = []
    plain = derivations.leibniz_extension

    def spied(source, target, degree, leaf, along=None):
        ext = plain(source, target, degree, leaf, along)
        names = [n for n, _ in source.generators.entries if leaf(n) is not None]

        def read(degree, coords):
            calls.append((names, LieElement(source, degree, coords)))
            return ext.terms(degree, coords)

        def tree(itree):
            calls.append((names, source.tree_element(itree)))
            return ext.tree(itree)

        return SimpleNamespace(terms=read, tree=tree)

    monkeypatch.setattr(derivations, "leibniz_extension", spied)
    der_complex(p, "s", (-1, 3))
    assert calls
    for names, e in calls:
        if e.degree not in terms:
            continue  # D of a basis derivation at d y = [x, x]
        # every term of e has the unit's generator, and y is in no element
        (name,) = names
        g = p.generators.index[name]
        masks = p.letter_masks(e.degree)
        assert e.coords and set(e.coords) <= terms[e.degree]
        assert all(masks[i] >> g & 1 for i in e.coords)
        assert name != "y"
    # the cubic element is evaluated in part: a unit on a reaches no tree of [b,[b,x]]
    assert any(len(e.coords) < len(p.sub("s").elements[0].coords)
               for _, e in calls if e.degree == 5)


def _fuzz_with_sub(rng):
    """A random presentation with a random sub of brackets of its cycle generators."""
    return _with_bracket_sub(random_presentation(rng, max_gens=4, max_degree=4), rng)


def _with_bracket_sub(p, rng):
    """p with its subs replaced by a random sub "s" of brackets of its cycle generators."""
    cycles = [g for g, _ in p.generators.entries if g not in p.differential]
    terms = []
    for _ in range(rng.randint(1, 3)):
        x, y, z = (rng.choice(cycles) for _ in range(3))
        tree = "[%s,%s]" % (x, y) if rng.random() < 0.5 else "[%s,[%s,%s]]" % (x, y, z)
        terms.append((rng.randint(1, 3), tree))
    elements = []
    for c, tree in terms:
        e = p.normal_form("%d*%s" % (c, tree))
        if elements and rng.random() < 0.5 and elements[-1].degree == e.degree:
            elements[-1] = elements[-1] + e
        else:
            elements.append(e)
    spec = {"elements": [e.terms() for e in elements if not e.is_zero()]}
    return DgLaPresentation(p.generators.entries, p.differential, {"s": spec})


def test_fuzz_condition_matrices_match_the_unrestricted_evaluation(monkeypatch):
    rng = random.Random(2606)
    nonzero = 0
    for _ in range(30):
        p = _fuzz_with_sub(rng)
        matrices = _same_condition_matrices(lambda: der_complex(p, "s", (-2, 2)), monkeypatch)
        nonzero += any(any(col) for cols in matrices for col in cols)
    assert nonzero >= 10


# -- the per-slot walk against the per-unit columns ----------------------------------------


def _walked(p, layout, heights, monkeypatch):
    """The one condition matrix ``_vanishing_space`` assembles, and its space."""
    built = []
    plain = linalg.matrix

    def recorded(nrows, ncols, entries=()):
        built.append(plain(nrows, ncols, entries))
        return built[-1]

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "matrix", recorded)
        space = derivations._vanishing_space(p, layout, heights)
    (m,) = built
    return m, space


def _walk_matches_the_units(p, rel, monkeypatch):
    """Each walked column of degrees 1..6 against the units' evaluations, and the kernels.

    Column k, cut at each listed element e, holds the entries of
    ``layout.unit(k).eval_at(e)``, compared by value; ``Subspace.from_kernel``
    returns the same vectors, at the same pivots, from the walked matrix
    and from the per-unit one.  True when some walked matrix is nonzero.
    """
    elements = p.sub(rel).elements
    nonzero = False
    for n in range(1, 7):
        layout = _HomLayout(p, rel, n)
        assert layout.elements == elements
        heights = [p.dim(e.degree + n) for e in elements]
        m, space = _walked(p, layout, heights, monkeypatch)
        cols = linalg.columns(m, layout.total)
        for k in range(layout.total):
            unit, top = layout.unit(k), 0
            for e, height in zip(elements, heights):
                got = sorted((i - top, c) for i, c in cols[k].items() if top <= i < top + height)
                assert got == sorted(unit.eval_at(e).coords.items()), (n, k, e.terms())
                top += height
            assert top == len(m)
        conditions = [(h, derivations._evaluation(e)) for h, e in zip(heights, elements)]
        want = derivations._condition_space(layout.total, layout.unit, conditions)
        assert (space.vectors, space.pivots) == (want.vectors, want.pivots), n
        nonzero = nonzero or any(m)
    return nonzero


@pytest.mark.parametrize("name, rel, window, unipotent, sized", [
    ("presentation_w11.json", "omega", (0, 12), False,
     [2, 4, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]),
    ("presentation_twisted9.json", "omega", (-3, 5), False,
     [1, 2, 4, 3, 5, 6, 7, 8, 9, 10, 11, 12]),
    ("presentation_w11.json", "omega", (0, 8), True, [2, 4, 3, 5, 6, 7, 8, 9, 10, 11, 12]),
    ("tilde_w11.json", "beta", (0, 6), True, [2, 5, 1, 4, 3, 6, 7, 8, 9, 10, 11]),
])
def test_a_window_is_sized_before_any_basis_is_built(monkeypatch, fixture_path, name, rel,
                                                      window, unipotent, sized):
    # _der_slice reads every size from the Witt table before it builds a
    # basis, so a window too deep to build is refused before any work: per
    # degree n the Hom slots |x| + n, the sub elements' images |e| + n, and
    # at n = 0 of a cycle condition the slots |x| - 1 (the degrees pinned)
    p = io.load_presentation(_load(fixture_path, name))
    events = []
    basis_in_degree, size = freelie.basis_in_degree, freelie.BasisMemo.size

    def building(degrees, d, memo=None):
        events.append(("build", d))
        return basis_in_degree(degrees, d, memo)

    def sizing(memo, d):
        events.append(("size", d))
        return size(memo, d)

    monkeypatch.setattr(freelie, "basis_in_degree", building)
    monkeypatch.setattr(freelie.BasisMemo, "size", sizing)
    if unipotent:
        deru(p, rel, None, window)
    else:
        der_complex(p, rel, window)
    first = [kind for kind, _ in events].index("build")
    assert list(dict.fromkeys(d for _, d in events[:first])) == sized


def _odd_sub():
    # odd letters on both sides of a bracket, squares of odd letters, and signs
    return DgLaPresentation(
        [("x", 1), ("a", 2), ("c", 3)],
        None,
        {"s": {"elements": ["[x,x]", "[c,[x,a]] - 2*[a,[x,c]]", "[c,c] + [x,[x,[a,a]]]"]}},
    )


def _walk_cases(fixture_path):
    closed = io.load_presentation(_load(fixture_path, "presentation_closed_sub.json"))

    def glued(m, n):
        m, n = (io.load_manifold(_load(fixture_path, f)) for f in (m, n))
        return boundary_connected_sum(m, n).presentation

    return {
        "w11 omega": lambda: (io.load_presentation(
            _load(fixture_path, "presentation_w11.json")), "omega"),
        "tilde_w11 omega": lambda: (io.load_presentation(
            _load(fixture_path, "tilde_w11.json")), "omega"),
        "twisted9 omega": lambda: (io.load_presentation(
            _load(fixture_path, "presentation_twisted9.json")), "omega"),
        "closed_sub closed": lambda: (closed, "closed"),
        "closed_sub open": lambda: (closed, "open"),
        "cubic": lambda: (_cubic_sub(), "s"),
        "odd letters": lambda: (_odd_sub(), "s"),
        "glue w21 w11": lambda: (glued("w21.json", "w11.json"), "omega"),
        "glue action10 ab10": lambda: (glued("action10.json", "ab10.json"), "omega"),
    }


@pytest.mark.parametrize("case", [
    "w11 omega", "tilde_w11 omega", "twisted9 omega", "closed_sub closed", "closed_sub open",
    "cubic", "odd letters", "glue w21 w11", "glue action10 ab10",
])
def test_the_slot_walk_gives_each_units_column(case, fixture_path, monkeypatch):
    p, rel = _walk_cases(fixture_path)[case]()
    assert _walk_matches_the_units(p, rel, monkeypatch)


def test_fuzz_slot_walk_gives_each_units_column(monkeypatch):
    # the presentations of test_fuzz.py, each with a sub of brackets of its cycles
    rng = random.Random(4040)
    nonzero = 0
    for p in list(fuzz_split_presentations()) + list(fuzz_presentations()):
        nonzero += _walk_matches_the_units(_with_bracket_sub(p, rng), "s", monkeypatch)
    assert nonzero >= 10


def test_der_builds_units_only_in_degree_0(fixture_path, monkeypatch):
    # degrees >= 1 are assembled per Hom slot; degree 0 evaluates each unit
    degrees = []
    plain = _HomLayout.unit

    def recorded(layout, k):
        degrees.append(layout.n)
        return plain(layout, k)

    monkeypatch.setattr(_HomLayout, "unit", recorded)
    code, _ = run(["der", fixture_path("presentation_w11.json"), "--sub", "omega",
                   "--min", "0", "--max", "8"])
    assert code == 0
    assert degrees and set(degrees) == {0}
