"""Derivation slices as sparse operators, against the paths they replaced.

A ``DerSlice`` reads its structure constants from memoized operator columns
of its basis derivations; ``oracles.der_bracket_structure_constants`` builds
each one from ``der_bracket``, a new Derivation and its Hom vector.
``eval_at``, and so each condition of a derivation space, evaluates a unit
only on the terms of its element that the unit reaches;
``oracles.unrestricted_evaluation`` evaluates it on the whole element.  Both
pairs must agree entry for entry.
"""

import random

import pytest

from dgla import derivations, io
from dgla.derivations import der_complex, deru, f_der_dims, forget_pullback
from dgla.gluing import boundary_connected_sum
from dgla.models import build_block_g, tilde_model
from dgla.morphisms import GeneratorMorphism
from dgla.presentation import DgLaPresentation

from oracles import (
    condition_columns,
    der_bracket_structure_constants,
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
        "glued w21 w11": lambda: build_block_g(
            boundary_connected_sum(w21, io.load_manifold(_load(fixture_path, "w11.json"))),
            (0, 4),
        ).acting,
        "genus 4": lambda: deru(_genus(4), "omega", None, (0, 4)),
    }[case]()


@pytest.mark.parametrize("case", [
    "w11 der", "w21 der", "w21 deru", "twisted9 der", "twisted9 deru",
    "twisted9 deru rho", "tilde_w11 beta", "tilde_w11 deru beta", "glued w21 w11", "genus 4",
])
def test_structure_constants_match_der_bracket(case, fixture_path):
    slc = _table_slice(case, fixture_path)
    want = der_bracket_structure_constants(slc)
    assert any(want.values())
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
        "f-derivations": lambda: f_der_dims(proj, "omega", (-1, 3)),
        "forget pullback": lambda: forget_pullback(proj, "omega", "beta", (0, 3)),
        "cubic": lambda: der_complex(cubic, "s", (-1, 3)),
        "cubic f-derivations": lambda: f_der_dims(GeneratorMorphism.identity(cubic), "s", (-1, 2)),
    }


@pytest.mark.parametrize("case", [
    "w21 der", "w21 deru", "cp2 deru", "twisted9 deru rho", "tilde_w11 omega", "genus 4",
    "f-derivations", "forget pullback", "cubic", "cubic f-derivations",
])
def test_condition_matrices_match_the_unrestricted_evaluation(case, fixture_path, monkeypatch):
    matrices = _same_condition_matrices(_fixture_builds(fixture_path)[case], monkeypatch)
    assert any(any(col) for cols in matrices for col in cols)


def test_a_unit_is_evaluated_only_on_the_trees_it_reaches(monkeypatch):
    # the spy sits on the Leibniz extension's call and on its tree reads,
    # below eval_at's restriction, and reads letters through the
    # presentation's masks; a one-term part reads one basis tree, recorded
    # as that basis element
    p = _cubic_sub()
    terms = {e.degree: set(e.coords) for e in p.sub("s").elements}
    calls = []
    plain = derivations.leibniz_extension

    def spied(source, target, degree, leaf, along=None):
        ext = plain(source, target, degree, leaf, along)
        names = [n for n, _ in source.generators.entries if leaf(n) is not None]

        def call(e, zero):
            calls.append((names, e))
            return ext(e, zero)

        def tree(itree):
            calls.append((names, source.tree_element(itree)))
            return ext.tree(itree)

        call.tree = tree
        return call

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
    p = random_presentation(rng, max_gens=4, max_degree=4)
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
    for _ in range(15):
        p = _fuzz_with_sub(rng)
        ident = GeneratorMorphism.identity(p)
        for build in (lambda: der_complex(p, "s", (-2, 2)),
                      lambda: f_der_dims(ident, "s", (-1, 1))):
            matrices = _same_condition_matrices(build, monkeypatch)
            nonzero += any(any(col) for cols in matrices for col in cols)
    assert nonzero >= 10
