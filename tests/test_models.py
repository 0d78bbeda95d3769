import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from dgla import io, linalg, models
from dgla.derivations import Derivation, der_differential, deru
from dgla.errors import (
    AxiomFailure,
    BadPontryaginDegrees,
    NotAComplex,
    NotUnimodular,
    OmegaNotClosed,
    SchemaError,
)
from dgla.expmc import exp_automorphism
from dgla.gluing import boundary_connected_sum
from dgla.graded import betti_numbers
from dgla.models import (
    ManifoldModel,
    OuterAction,
    SymplecticGVS,
    build_block_g,
    build_g,
    manifold_model,
    omega_element,
    outer_action_check,
    pi_so_basis,
    semidirect,
    tilde_model,
    xi_extend,
)
from dgla.morphisms import check_morphism
from dgla.presentation import DgLaPresentation, ElementGenerated, lie_chain_slice
from dgla.slices import DgLieSlice

from oracles import suspended_hom_reference


def _hyperbolic():
    return linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)])


def w11():
    return manifold_model(6, [("a", 2), ("b", 2)], _hyperbolic())


def cp2():
    return manifold_model(
        6,
        [("v", 1), ("w", 3)],
        linalg.matrix(2, 2, [(0, 1, 1), (1, 0, 1)]),
        {"w": "1/2*[v,v]"},
        {3: [4]},
    )


def hp2():
    return manifold_model(8, [("u", 3)], linalg.matrix(1, 1, [(0, 0, 1)]), None, {3: [2]})


def test_omega_examples():
    m = w11()
    assert m.omega == m.presentation.normal_form("[a,b]")
    h = hp2()
    assert h.omega == h.presentation.normal_form("1/2*[u,u]")
    # swapped basis gives the same element
    swapped = manifold_model(
        6, [("b", 2), ("a", 2)], linalg.matrix(2, 2, [(0, 1, -1), (1, 0, 1)])
    )
    assert swapped.omega == swapped.presentation.normal_form("[a,b]")


def test_omega_basis_independent_under_random_symplectic_changes():
    rng = random.Random(17)
    m = w11()
    p = m.presentation
    base = m.omega
    count = 0
    while count < 8:
        # random invertible change of basis of V preserving the form:
        # <f(x), f(y)> = <x, y>
        mat = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        if det != 1:  # Sp(2) = SL(2)
            continue
        count += 1
        names = ["a", "b"]
        gens = [("a", 2), ("b", 2)]
        # pairing in the new basis equals the old one for SL2 changes
        new = SymplecticGVS(gens, -4, _hyperbolic())
        duals = new.duals
        # transport omega through the substitution a -> mat*a etc.
        sub = {
            "a": p.gen("a").scale(mat[0][0]) + p.gen("b").scale(mat[1][0]),
            "b": p.gen("a").scale(mat[0][1]) + p.gen("b").scale(mat[1][1]),
        }
        from dgla.morphisms import GeneratorMorphism

        f = GeneratorMorphism(p, p, sub)
        assert f.apply(base) == base
    assert count == 8


@pytest.mark.parametrize(
    "name", ["cp2", "empty_model", "hp2", "hp2_sum", "s4s4", "twisted9", "w11", "w21"]
)
def test_dual_basis_matrix_inverts_the_pairing(fixture_path, name):
    v = io.load_manifold(io.load_json_file(fixture_path(name + ".json"))).v
    n = len(v.basis)
    assert len(v.duals) == n and linalg.has_shape(v.duals, n, n)
    duals = {(i, k): c for i, k, c in linalg.entries(v.duals)}
    pairing = {(k, j): c for k, j, c in linalg.entries(v.pairing)}
    for i in range(n):
        for j in range(n):
            value = sum(
                (duals.get((i, k), 0) * pairing.get((k, j), 0) for k in range(n)), Fraction(0)
            )
            assert value == (1 if i == j else 0)


def test_manifold_validation_errors():
    with pytest.raises(NotUnimodular):
        manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2))
    # a differential that keeps degree: refused when built (d must lower degree by one)
    with pytest.raises(SchemaError) as raised:
        manifold_model(6, [("a", 2), ("b", 2)], _hyperbolic(), {"a": "b"})
    assert raised.value.pointer == "/differential/a"
    with pytest.raises(BadPontryaginDegrees):
        manifold_model(6, [("a", 2), ("b", 2)], _hyperbolic(), None, {2: [1, 1]})
    # degree-7 generator with a p_2 functional: accepted
    m = manifold_model(
        16,
        [("x", 7), ("y", 7)],
        linalg.matrix(2, 2, [(0, 1, 1), (1, 0, 1)]),
        None,
        {7: [1, 0]},
    )
    assert m.pontryagin[7] == [Fraction(1), Fraction(0)]


def test_manifold_model_presentation_must_be_on_v():
    # the presentation is the free Lie algebra on V: its generators are V's
    # basis, in order
    v = SymplecticGVS([("a", 2), ("b", 2)], -4, _hyperbolic())
    for gens in ([("a", 2)], [("b", 2), ("a", 2)], [("a", 2), ("b", 3)]):
        with pytest.raises(ValueError):
            ManifoldModel(6, v, DgLaPresentation(gens))
    p = DgLaPresentation([("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}})
    m = ManifoldModel(6, v, p)
    assert m.omega == m.presentation.normal_form("[a,b]")
    assert m.presentation is p and p.subalgebras["omega"].elements == (m.omega,)


def test_manifold_model_leaves_its_presentation_as_built():
    # the omega sub is given to the presentation's constructor: a model
    # checks it and never adds it
    v = SymplecticGVS([("a", 2), ("b", 2)], -4, _hyperbolic())
    p = DgLaPresentation([("a", 2), ("b", 2)])
    with pytest.raises(ValueError):
        ManifoldModel(6, v, p)
    assert p.subalgebras == {}
    with pytest.raises(TypeError):
        p.subalgebras["omega"] = ElementGenerated([p.normal_form("[a,b]")])
    assert p.subalgebras == {}
    for spec in ({"elements": ["2*[a,b]"]}, {"elements": ["[a,b]", "[a,[a,b]]"]},
                 {"generators": ["a"]}):
        with pytest.raises(ValueError):
            ManifoldModel(6, v, DgLaPresentation([("a", 2), ("b", 2)], None, {"omega": spec}))


def test_omega_not_closed_rejected():
    # a minimal model (d lowers degree, d^2 = 0, no linear part) with
    # pairing z<->w, x<->y, whose omega = [z,w] + [x,y] has
    # d omega = [z,[z,x]] != 0
    args = (
        10,
        [("z", 2), ("x", 3), ("y", 5), ("w", 6)],
        linalg.matrix(4, 4, [(1, 2, 1), (2, 1, 1), (0, 3, 1), (3, 0, -1)]),
    )
    with pytest.raises(OmegaNotClosed):
        manifold_model(*args, {"w": "[z,x]"})
    assert manifold_model(*args).omega.degree == 8


def test_tilde_model_structure():
    m = w11()
    tilde, inc, proj = tilde_model(m)
    assert tilde.validate().passed
    assert tilde.is_minimal("beta")
    assert not tilde.is_minimal(None)
    assert check_morphism(proj).passed
    # p restricted to the original generators is the identity
    assert proj.images["a"] == m.presentation.gen("a")
    assert proj.images["beta"] == m.omega
    assert proj.images["gamma"].is_zero()
    # d~ gamma = omega - beta
    assert tilde.d_gen("gamma") == tilde.normal_form("[a,b]-beta")


def test_tilde_projection_quasi_iso():
    m = cp2()
    tilde, inc, proj = tilde_model(m)
    from dgla.derivations import homology_map_is_iso

    assert homology_map_is_iso(proj, 1, 6)


def test_xi_is_dg_lie_map():
    m = w11()
    tilde, _, _ = tilde_model(m)
    p = m.presentation
    u = deru(p, "omega", None, (0, 5))
    from dgla.derivations import der_bracket

    sample = [th for n in (4, 5) for th in u.derivations[n]][:4]
    for th in sample:
        for ps in sample:
            lhs = xi_extend(der_bracket(th, ps), tilde)
            rhs = der_bracket(xi_extend(th, tilde), xi_extend(ps, tilde))
            assert lhs == rhs
    for th in sample:
        assert xi_extend(der_differential(th), tilde) == der_differential(
            xi_extend(th, tilde)
        )
        assert xi_extend(th, tilde).value("beta").is_zero()
        assert xi_extend(th, tilde).value("gamma").is_zero()


def test_xi_quasi_iso_ranks_w11():
    m = w11()
    tilde, _, _ = tilde_model(m)
    ul = deru(m.presentation, "omega", None, (0, 4))
    ut = deru(tilde, "beta", None, (0, 4))
    bl = betti_numbers(ul.to_chain(), (0, 3))
    bt = betti_numbers(ut.to_chain(), (0, 3))
    assert bl == bt


def _act_zero(n, i, m, j):
    return {}


def _bad_action_data():
    """(g, L, outer action) failing d_of_action at ((1, 0), (0, 0)).

    d s = t acting on a one-dimensional module; s acts by zero but t by the
    identity, so d(s.x) = 0 differs from (ds).x = x.
    """
    g = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, {1: linalg.matrix(1, 1, [(0, 0, 1)])})
    L = DgLieSlice((0, 1), {0: ["x"], 1: []})
    g.zero_below = L.zero_below = True

    def act_bad(n, i, m, j):
        if n == 0 and m == 0:
            return {0: Fraction(1)}
        return {}

    return g, L, OuterAction(g, L, act_bad, None)


def _bad_chi_chain_data():
    """(g, L, outer action) failing chi_chain at (2, 0).

    chi sends the cycle u to y, and d y = x, so d chi(u) = x but chi(d u) = 0.
    """
    g = DgLieSlice((0, 2), {2: ["u"]})
    L = DgLieSlice((0, 2), {0: ["x"], 1: ["y"]}, {1: linalg.matrix(1, 1, [(0, 0, 1)])})
    return g, L, OuterAction(g, L, _act_zero, lambda n, i: {0: Fraction(1)})


def _bad_chi_bracket_data():
    """(g, L, outer action) failing chi_of_bracket, first at ((0, 0), (1, 0)).

    [t, s] = s and the action is zero, so chi([t, s]) = chi(s) = x must
    vanish; both (t, s) and (s, t) fail, and the first in walk order is (t, s).
    """
    tab = {(0, 0, 1, 0): {0: 1}, (1, 0, 0, 0): {0: -1}}
    g = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
    L = DgLieSlice((0, 1), {0: ["x"], 1: []})
    g.zero_below = L.zero_below = True
    return g, L, OuterAction(g, L, _act_zero, lambda n, i: {0: Fraction(1)})


def test_outer_action_failure_witnessed():
    g, L, bad = _bad_action_data()
    assert outer_action_check(OuterAction(g, L, _act_zero, None)).passed
    rep = outer_action_check(bad)
    assert ("d_of_action", ("axiom_d_of_action", 1, 0, 0, 0)) in rep.failures()


def test_chi_chain_failure_witnessed():
    g, L, bad = _bad_chi_chain_data()
    assert outer_action_check(OuterAction(g, L, _act_zero, None)).passed
    rep = outer_action_check(bad)
    assert rep.failures() == [("chi_anticommutes_with_d", ("chi_chain", 2, 0))]


def test_chi_of_bracket_failure_witnessed():
    g, L, bad = _bad_chi_bracket_data()
    assert outer_action_check(OuterAction(g, L, _act_zero, None)).passed
    rep = outer_action_check(bad)
    assert rep.failures() == [("chi_of_bracket", ("axiom_chi_bracket", 0, 0, 1, 0))]


def test_lie_map_failure_planted_only_in_the_reversed_order_is_reported():
    # t acts as the identity and s sends x to y, so [t, s] = 0 is right; the
    # table gives [s, t] = -s, whose identity fails while that of (t, s) holds
    tab = {(1, 0, 0, 0): {0: Fraction(-1)}}
    g = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
    L = DgLieSlice((0, 1), {0: ["x"], 1: ["y"]})

    def act(n, i, m, j):
        if n == 0:
            return {j: Fraction(1)}
        return {0: Fraction(1)} if m == 0 else {}

    rep = outer_action_check(OuterAction(g, L, act, None))
    assert rep.failures() == [("action_is_graded_lie_map", ("alpha_antisymmetry", 0, 0, 1, 0))]


def test_bracket_that_breaks_antisymmetry_fails_the_lie_map_check():
    # [t, s] = s but [s, t] = 0; the zero action satisfies every identity
    L = DgLieSlice((0, 1), {0: ["x"], 1: []})

    def check(tab):
        g = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
        return outer_action_check(OuterAction(g, L, _act_zero, None))

    rep = check({(0, 0, 1, 0): {0: Fraction(1)}})
    assert rep.failures() == [("action_is_graded_lie_map", ("alpha_antisymmetry", 0, 0, 1, 0))]
    assert check({(0, 0, 1, 0): {0: Fraction(1)}, (1, 0, 0, 0): {0: Fraction(-1)}}).passed


def test_semidirect_untwisted_abelian():
    g = DgLieSlice((0, 2), {0: ["t"], 1: ["s"], 2: []}, {1: linalg.matrix(1, 1)})
    L = DgLieSlice((0, 2), {0: ["x"], 1: [], 2: []})
    act = OuterAction(g, L, lambda n, i, m, j: {}, None)
    s = semidirect(g, L, act, (0, 2))
    s.check_d_squared()
    assert s.dim(0) == 2 and s.dim(1) == 1


@pytest.mark.parametrize("data", [_bad_action_data, _bad_chi_chain_data, _bad_chi_bracket_data])
def test_semidirect_refuses_a_failing_outer_action(data):
    g, L, a = data()
    with pytest.raises(AxiomFailure, match="outer action axioms fail"):
        semidirect(g, L, a)


def test_leibniz_walks_the_bottom_degree_of_a_zero_below_slice():
    # d s = t and [t, s] = s, so d[t, s] = t but [dt, s] + [t, ds] = [t, t] = 0
    tab = {(0, 0, 1, 0): {0: 1}, (1, 0, 0, 0): {0: -1}}
    g = DgLieSlice(
        (0, 1), {0: ["t"], 1: ["s"]}, {1: linalg.matrix(1, 1, [(0, 0, 1)])},
        bracket_fn=lambda *pair: tab.get(pair, {}),
    )
    L = DgLieSlice((0, 1), {0: ["x"], 1: []})
    g.zero_below = L.zero_below = True
    a = OuterAction(g, L, _act_zero, None)
    assert outer_action_check(a).passed
    g.check_d_squared()
    g.check_bracket_axioms()
    with pytest.raises(AxiomFailure, match="derivation at pair"):
        g.check_d_leibniz()
    with pytest.raises(AxiomFailure, match="derivation at pair"):
        semidirect(g, L, a, (0, 1))
    # d out of degree 0 is unknown, so the pair is not walked
    g.zero_below = False
    g.check_d_leibniz()


def test_semidirect_refuses_a_nonabelian_module():
    # [x, y] = y is a Lie bracket, but the module of a semidirect product is abelian
    tab = {(0, 0, 1, 0): {0: 1}, (1, 0, 0, 0): {0: -1}}
    g = DgLieSlice((0, 1), {0: ["t"], 1: []})
    L = DgLieSlice((0, 1), {0: ["x"], 1: ["y"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
    L.check_bracket_axioms()
    a = OuterAction(g, L, _act_zero, None)
    assert outer_action_check(a).passed
    with pytest.raises(AxiomFailure, match="bracket nonzero"):
        semidirect(g, L, a)


@pytest.mark.parametrize("broken", ["acting", "module"])
def test_semidirect_refuses_a_factor_that_is_not_a_complex(broken):
    # d c = b and d b = a, so d^2 c = a
    one = linalg.matrix(1, 1, [(0, 0, 1)])
    bad = DgLieSlice((0, 2), {0: ["a"], 1: ["b"], 2: ["c"]}, {1: one, 2: one})
    good = DgLieSlice((0, 2), {0: ["x"]})
    g, L = (bad, good) if broken == "acting" else (good, bad)
    a = OuterAction(g, L, _act_zero, None)
    assert outer_action_check(a).passed
    with pytest.raises(NotAComplex):
        semidirect(g, L, a)


def test_semidirect_refuses_an_acting_part_that_breaks_jacobi():
    # [a,b] = c, [b,c] = a, [c,a] = c: [a,[b,c]] = 0 but [[a,b],c] + [b,[a,c]] = -a
    tab = {}
    for (i, j), k, c in [((0, 1), 2, 1), ((1, 2), 0, 1), ((2, 0), 2, 1)]:
        tab[(0, i, 0, j)] = {k: Fraction(c)}
        tab[(0, j, 0, i)] = {k: Fraction(-c)}
    g = DgLieSlice((0, 0), {0: ["a", "b", "c"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
    L = DgLieSlice((0, 0), {0: ["x"]})
    a = OuterAction(g, L, _act_zero, None)
    assert outer_action_check(a).passed
    with pytest.raises(AxiomFailure, match="Jacobi"):
        semidirect(g, L, a)


def test_block_g_is_certified_without_the_product_bracket(fixture_path):
    # every certificate runs on a block: g, the module or the outer action
    m = io.load_manifold(io.load_json_file(fixture_path("w21.json")))
    g = build_block_g(m, (0, 4))
    assert g._structure == {}


def test_semidirect_compares_each_antisymmetry_pair_once(fixture_path, monkeypatch):
    # the outer-action check and g's own axiom checks share g's one
    # antisymmetry walk: building g of w21, w11 and their boundary connected
    # sum on 0..4, as `glue` does, compares each unordered basis pair of each
    # degree pair of each acting part once
    compared = Counter()
    from_outer = []
    plain_tuples = DgLieSlice._unordered_tuples
    plain_check = models.outer_action_check

    def tuples(self, degrees):
        walk = plain_tuples(self, degrees)
        if sys._getframe(1).f_code.co_name != "_antisymmetry_failures":
            return walk

        def counted():
            for t in walk:
                compared[id(self), degrees + t] += 1
                yield t

        return counted()

    def outer(a, window=None):
        before = sum(compared.values())
        rep = plain_check(a, window)
        from_outer.append(sum(compared.values()) - before)
        return rep

    monkeypatch.setattr(DgLieSlice, "_unordered_tuples", tuples)
    monkeypatch.setattr(models, "outer_action_check", outer)
    w21, w11 = (io.load_manifold(io.load_json_file(fixture_path(f))) for f in ("w21.json", "w11.json"))
    gs = [build_block_g(m, (0, 4)) for m in (w21, w11, boundary_connected_sum(w21, w11))]
    monkeypatch.undo()
    want = set()
    for acting in (g.acting for g in gs):
        degs = [d for d in range(acting.lo, acting.hi + 1) if acting.dim(d)]
        for n, m in combinations_with_replacement(degs, 2):
            if acting.in_window(n + m):
                want.update((id(acting), (n, m) + t) for t in acting._unordered_tuples((n, m)))
    assert len(want) > 100
    assert set(compared) == want and set(compared.values()) == {1}
    # the outer-action check made the comparisons of the degree pairs that
    # act on the module (none for w11, whose acting part is only degree 4)
    assert len(from_outer) == 3 and from_outer[0] and not from_outer[1] and from_outer[2]


def test_block_g_w11_dims_and_homology():
    m = w11()
    g = build_block_g(m, (0, 4))
    assert g.dim(0) == 2
    assert [g.dim(n) for n in range(4)] == [2, 0, 0, 0]
    g.check_d_squared()
    g.check_bracket_axioms()


def test_block_g_via_general_build_matches():
    m = w11()
    tilde, _, _ = tilde_model(m)
    top = max(d for _, d in m.v.basis.entries) + 1
    pi = pi_so_basis(top)
    rho = m.pontryagin_map(tilde, pi)
    general = build_g(tilde, None, "beta", rho, None, (0, 4))
    block = build_block_g(m, (0, 4))
    bg = betti_numbers(general.to_chain(), (0, 3))
    bb = betti_numbers(block.to_chain(), (0, 3))
    assert bg == bb


def test_block_g_vanishes_below_a_window_from_zero_only():
    # both semidirect factors are tau_{>=0} truncations from degree 0
    assert build_block_g(w11(), (0, 2)).zero_below
    assert not build_block_g(w11(), (1, 2)).zero_below


def twisted9():
    # S^3 x S^6 # S^4 x S^5 minus a disk, with a synthetic p_1 on the
    # degree-3 generator: the mixed degrees let a degree-1 derivation have a
    # linear part in degree 3, so the Pontryagin twist is visible
    return manifold_model(
        9,
        [("a", 2), ("x", 3), ("b", 4), ("y", 5)],
        linalg.matrix(4, 4, [(0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, -1)]),
        None,
        {3: [1]},
    )


def test_block_g_twisted_by_pontryagin():
    m = twisted9()
    assert m.omega == m.presentation.normal_form("[a,y]+[x,b]")
    g = build_block_g(m, (0, 3))
    g.check_d_squared()
    g.check_bracket_axioms()
    act = g.action
    found = [
        (n, i)
        for n in range(1, 4)
        for i in range(g.acting.dim(n))
        if act.twist(n, i)
    ]
    assert found


def test_pontryagin_zero_gives_untwisted_product():
    m = w11()  # no pontryagin classes at all
    g = build_block_g(m, (0, 3))
    act = g.action
    for n in range(1, 4):
        for i in range(g.acting.dim(n)):
            assert not act.twist(n, i)


def test_build_g_with_zero_pi_degenerates_to_deru():
    from dgla.graded import GradedBasis

    m = w11()
    tilde, _, _ = tilde_model(m)
    pi = GradedBasis([])
    g = build_g(tilde, "beta", "beta", None, pi, (0, 3))
    u = deru(tilde, "beta", None, (0, 3))
    for n in range(0, 4):
        assert g.dim(n) == u.dim(n)
    for n in range(1, 4):
        assert g.d_matrix(n) == u.d_matrix(n)


def test_h0_of_beta_relative_derivations_is_form_algebra():
    # with a trivial differential, the degree-0 homology of Der(L~ rel beta)
    # is the Lie algebra of form-preserving maps of V: sp for even
    # generators (antisymmetric form), so-type for odd ones
    from dgla.derivations import der_complex

    cases = [
        (w11(), 3),  # sp(2) = sl_2
        (
            manifold_model(
                6,
                [("a1", 2), ("b1", 2), ("a2", 2), ("b2", 2)],
                linalg.matrix(4, 4, [(0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)]),
            ),
            10,
        ),  # sp(4)
        (manifold_model(8, [("u", 3), ("v", 3)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, 1)])), 1),
        (
            manifold_model(
                8,
                [("u", 3), ("x", 3), ("y", 3)],
                linalg.matrix(3, 3, [(0, 0, 1), (1, 2, 1), (2, 1, 1)]),
            ),
            3,
        ),  # so(2,1)
    ]
    for m, expected in cases:
        tilde, _, _ = tilde_model(m)
        slc = der_complex(tilde, "beta", (-1, 1))
        assert betti_numbers(slc.to_chain(), (0, 0))[0] == expected


def test_twist_entries_match_the_defining_formula():
    # chi(theta)(s x) = (-1)^{|theta|} rho(theta(x)), entry by entry, and
    # the semidirect differential carries chi verbatim in its module rows
    m = twisted9()
    g = build_block_g(m, (0, 2))
    acting = g.acting
    hm = g.hom_module
    pos = hm.position[(0, "a", "pi3")]
    for i in range(acting.dim(1)):
        th = acting.derivations[1][i]
        c = th.value("a").linear_part().get("x", Fraction(0))
        assert g.action.twist(1, i).get(pos, 0) == -c
    d1 = {(r, c): x for r, c, x in linalg.entries(g.d_matrix(1))}
    for i in range(acting.dim(1)):
        chi = g.action.twist(1, i)
        for k in range(g.module.dim(0)):
            assert d1.get((acting.dim(0) + k, i), 0) == chi.get(k, 0)


@pytest.mark.parametrize("name", ["hom_linear_d", "tilde_w11", "twisted9", "action10"])
def test_hom_module_matches_the_suspended_name_reference(name, fixture_path):
    # _HomModule reads each d-block from the linear part of d; the reference
    # builds it through the names s x and matrices.  They must agree entry
    # for entry, signs included: a whole-block sign flip keeps every rank
    obj = io.load_json_file(fixture_path(name + ".json"))
    if "pairing" in obj:
        m = io.load_manifold(obj)
        p, pi = m.presentation, pi_so_basis(max(d for _, d in m.v.basis.entries) + 1)
    else:
        p, pi = io.load_presentation(obj), pi_so_basis(4 if name == "hom_linear_d" else 10)
    hm = models._HomModule(p, None, pi, (0, 6))
    labels, position, d_blocks = suspended_hom_reference(p, None, pi, (0, 6))
    full = hm.full
    assert [full.dim(n) for n in range(full.lo, full.hi + 1)] == [
        len(labels[n]) for n in range(min(labels), max(labels) + 1)]
    assert (full.lo, full.hi) == (min(labels), max(labels))
    assert hm.position == position
    blocks = {n: full.d_matrix(n) for n in range(full.lo + 1, full.hi + 1)}
    assert blocks == {
        n: d_blocks.get(n, linalg.matrix(len(labels[n - 1]), len(labels[n]))) for n in blocks
    }
    nonzero = [n for n, b in blocks.items() if any(b)]
    # minimal manifold models have d with no linear part
    assert nonzero == {"hom_linear_d": [0], "tilde_w11": [2]}.get(name, [])
    if name == "hom_linear_d":
        # d y = x: d E(pi3, s x) = (-1)^0 E(pi3, s y)
        row, col = hm.position[(-1, "y", "pi3")], hm.position[(0, "x", "pi3")]
        assert blocks[0][row] == {col: 1}
