import random

import pytest

from dgla import linalg
from dgla.derivations import Derivation
from dgla.errors import NonMinimalAmbient, NotInvertibleLinearPart
from dgla.graded import GradedLinearMap
from dgla.models import pi_so_basis
from dgla.morphisms import (
    GeneratorMorphism,
    check_morphism,
    indec_action,
    invert_automorphism,
)
from dgla.presentation import DgLaPresentation
from oracles import random_unipotent_automorphism


def w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )


def tilde_w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2), ("beta", 4), ("gamma", 5)],
        {"gamma": "[a,b]-beta"},
        {"beta": {"generators": ["beta"]}},
    )


def test_identity_passes():
    p = w11()
    rep = check_morphism(GeneratorMorphism.identity(p), fixed_sub="omega")
    assert rep.passed


def test_higher_correction_passes_on_zero_differential():
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 6)])
    f = GeneratorMorphism(p, p, {"a": "a", "b": "b", "c": "c+[a,[a,b]]"})
    assert check_morphism(f).passed


def test_moving_fixed_sub_fails():
    t = tilde_w11()
    f = GeneratorMorphism(
        t,
        t,
        {"a": "a", "b": "b", "beta": "beta+[a,b]", "gamma": "gamma"},
    )
    rep = check_morphism(f, fixed_sub="beta")
    assert ("fixes_sub", "beta") in rep.failures()


def test_d_commutation_checked():
    t = tilde_w11()
    # swapping a and b flips the sign of [a,b], so d fails to commute
    f = GeneratorMorphism(
        t, t, {"a": "b", "b": "a", "beta": "beta", "gamma": "gamma"}
    )
    rep = check_morphism(f)
    assert ("d_commutes", "gamma") in rep.failures()
    g = GeneratorMorphism(
        t, t, {"a": "b", "b": "a", "beta": "-1*beta", "gamma": "-1*gamma"}
    )
    assert check_morphism(g).passed


@pytest.mark.parametrize("images, witness", [
    ({"y": "y+[u,v]"}, None),  # rho kills decomposables
    ({"x": "x+[u,v]", "y": "y+2*x"}, "y"),
    ({"x": "y", "y": "x"}, "x"),
], ids=["invariant", "moves-y", "moves-both"])
def test_rho_invariance_names_the_first_generator_that_moves(images, witness):
    # rho(x) = pi3 and rho(y) = 0: rho . f = rho on generators, or the
    # first generator in presentation order where it fails
    p = DgLaPresentation([("x", 3), ("y", 3), ("u", 1), ("v", 2)])
    rho = GradedLinearMap(p.generators, pi_so_basis(3), 0, {3: linalg.matrix(1, 2, [(0, 0, 1)])})
    f = GeneratorMorphism(p, p, {n: images.get(n, n) for n in ("x", "y", "u", "v")})
    rep = check_morphism(f, rho=rho)
    assert rep.checks[-1] == ("rho_invariant", witness is None, witness)
    assert rep.passed == (witness is None)


def test_invert_identity_and_linear():
    p = w11()
    ident = GeneratorMorphism.identity(p)
    assert invert_automorphism(ident, rel=None) == ident
    f = GeneratorMorphism(p, p, {"a": "a+b", "b": "b"})
    g = invert_automorphism(f)
    assert g.compose(f) == ident


def tilde_cp2():
    return DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
        {"beta": {"generators": ["beta"]}},
    )


def test_invert_with_higher_terms():
    t = tilde_cp2()
    f = GeneratorMorphism(
        t,
        t,
        {"v": "v", "w": "w", "beta": "beta", "gamma": "gamma+[v,[v,w]]"},
    )
    assert check_morphism(f, fixed_sub="beta").passed
    g = invert_automorphism(f, rel="beta")
    assert g.compose(f) == GeneratorMorphism.identity(t)
    assert f.compose(g) == GeneratorMorphism.identity(t)


def test_invert_rejects_singular_linear_part():
    p = w11()
    f = GeneratorMorphism(p, p, {"a": "a+b", "b": "a+b"})
    with pytest.raises(NotInvertibleLinearPart):
        invert_automorphism(f)


def test_invert_rejects_non_minimal():
    p = DgLaPresentation([("w", 2), ("v", 3)], {"v": "w"})
    f = GeneratorMorphism.identity(p)
    with pytest.raises(NonMinimalAmbient):
        invert_automorphism(f)


def test_invert_random_unipotent():
    rng = random.Random(5)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 4), ("e", 6)])
    ident = GeneratorMorphism.identity(p)
    for _ in range(5):
        f = random_unipotent_automorphism(rng, p)
        g = invert_automorphism(f)
        assert g.compose(f) == ident and f.compose(g) == ident


def test_indec_action_examples():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    ident = indec_action(GeneratorMorphism.identity(p))
    assert ident.block(2) == [{0: 1}, {1: 1}]
    f = GeneratorMorphism(p, p, {"a": "a", "b": "a+b"})
    m = indec_action(f)
    assert m.block(2) == [{0: 1, 1: 1}, {1: 1}]
    th = Derivation(p, 0, {"b": p.gen("a")})
    dm = indec_action(th)
    assert dm.block(2) == [{1: 1}, {}]


def test_indec_action_multiplicative():
    rng = random.Random(11)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 4)])
    for _ in range(4):
        f = random_unipotent_automorphism(rng, p)
        g = random_unipotent_automorphism(rng, p)
        mf = indec_action(f)
        mg = indec_action(g)
        mfg = indec_action(f.compose(g))
        from dgla import linalg

        for d in (2, 4):
            assert mfg.block(d) == linalg.matmul(mf.block(d), mg.block(d))


def test_rel_sub_automorphism_keeps_sub_identity():
    t = tilde_cp2()
    f = GeneratorMorphism(
        t,
        t,
        {"v": "v", "w": "w", "beta": "beta", "gamma": "gamma+[v,beta]"},
    )
    assert check_morphism(f, fixed_sub="beta").passed
    g = invert_automorphism(f, rel="beta")
    assert g.images["beta"] == t.gen("beta")
