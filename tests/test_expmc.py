import random
from fractions import Fraction
from itertools import product

import pytest

from dgla import io, linalg
from dgla.derivations import Derivation, der_bracket, der_complex, deru
from dgla.errors import ClassExceeded, NotNilpotent
from dgla.expmc import (
    NilpotentElementGroup,
    PolyLie,
    _check_class,
    _dynkin_weight,
    bch,
    exp_automorphism,
    gauge_action,
    gauge_action_adjoint,
    homotopy_check,
    mc_check,
)
from dgla.models import (
    OuterAction,
    _HomModule,
    manifold_model,
    pi_so_basis,
    tilde_model,
)
from dgla.morphisms import GeneratorMorphism, check_morphism, indec_action
from dgla.presentation import DgLaPresentation, LieElement
from dgla.slices import DgLieSlice, SliceElement
from oracles import (
    NilMatrix,
    exp_series_images,
    full_hom_outer_action,
    full_word_class_check,
    gauss_rank,
)


def heisenberg():
    # [x,y] = z
    tab = {(0, 0, 0, 1): {2: 1}, (0, 1, 0, 0): {2: -1}}
    return DgLieSlice((0, 0), {0: ["x", "y", "z"]}, bracket_fn=lambda *pair: tab.get(pair, {}))


def test_bch_abelian_and_heisenberg():
    ab = DgLieSlice((0, 0), {0: ["x", "y"]})
    G = NilpotentElementGroup(ab, 1)
    x = SliceElement(ab, 0, {0: 1})
    y = SliceElement(ab, 0, {1: 1})
    assert G.multiply(x, y).vector == {0: Fraction(1), 1: Fraction(1)}
    H = NilpotentElementGroup(heisenberg(), 2)
    x = SliceElement(H.carrier, 0, {0: 1})
    y = SliceElement(H.carrier, 0, {1: 1})
    assert G is not H
    assert H.multiply(x, y).vector == {0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)}
    assert H.multiply(x, H.inverse(x)).is_zero()


def test_bch_matches_matrix_logarithm():
    # strictly upper triangular n x n matrices have class n - 1, so the last
    # two sizes need the Dynkin words of weights 5 and 6
    rng = random.Random(23)
    for n, cls in ((3, 2), (4, 3), (5, 4), (6, 5), (7, 6)):
        for _ in range(4):
            X = NilMatrix.random(rng, n)
            Y = NilMatrix.random(rng, n)
            expected = X.exp().matmul(Y.exp()).log()
            got = bch(X, Y, lambda a, b: a.bracket(b), cls)
            assert got == expected, (n, cls)


def test_dynkin_matches_hardcoded_weights():
    rng = random.Random(29)
    for _ in range(3):
        X = NilMatrix.random(rng, 5)
        Y = NilMatrix.random(rng, 5)
        br = lambda a, b: a.bracket(b)
        from dgla.expmc import _BCH_LOW

        for w in (2, 3, 4):
            hard = _BCH_LOW[w](X, Y, br)
            dyn = _dynkin_weight(X, Y, br, w)
            assert hard == dyn, w


def test_bch_associative_class3():
    rng = random.Random(31)
    for _ in range(5):
        X = NilMatrix.random(rng, 4)
        Y = NilMatrix.random(rng, 4)
        Z = NilMatrix.random(rng, 4)
        br = lambda a, b: a.bracket(b)
        lhs = bch(bch(X, Y, br, 3), Z, br, 3)
        rhs = bch(X, bch(Y, Z, br, 3), br, 3)
        assert lhs == rhs


def test_class_exceeded():
    H = heisenberg()
    with pytest.raises(ClassExceeded):
        NilpotentElementGroup(H, 1)


# u1, u2, u3, their brackets v12, v13, v23, and A = [u1,v23], B = [u2,v13],
# with [ui,[ui,uj]] = 0 and weight 4 zero: any two units generate class 2,
# but degree 0 has class 3, since [u1+u2,[u1+u2,u3]] = A + B
_THREE_UNITS = {
    (0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1},
    (0, 5): {6: 1}, (1, 4): {7: 1}, (2, 3): {6: -1, 7: 1},
}


def three_units():
    tab = {}
    for (i, j), v in _THREE_UNITS.items():
        tab[0, i, 0, j] = v
        tab[0, j, 0, i] = {k: -c for k, c in v.items()}
    labels = ["u1", "u2", "u3", "v12", "v13", "v23", "A", "B"]
    return DgLieSlice((0, 0), {0: labels}, bracket_fn=lambda *pair: tab.get(pair, {}))


def _three_unit_matrices():
    """A faithful matrix representation of three_units().

    Left multiplication on the tensor algebra in u1, u2, u3 up to length 3,
    modulo the relations [ui,[ui,uj]] = 0.  Those are the length-3 tensors
    uj ui ui - 2 ui uj ui + ui ui uj, so a word (a, b, b) with a != b is
    rewritten as 2 (b, a, b) - (b, b, a) and the other 34 words are the basis.
    """
    words = [()] + [w for n in (1, 2, 3) for w in product(range(3), repeat=n)
                    if not (n == 3 and w[0] != w[1] == w[2])]
    index = {w: k for k, w in enumerate(words)}

    def left(k):
        rows = [[0] * len(words) for _ in words]
        for w in words:
            if len(w) == 3:
                continue
            kw = (k,) + w
            if len(kw) == 3 and kw[0] != kw[1] == kw[2]:
                a, b = kw[0], kw[1]
                terms = [((b, a, b), 2), ((b, b, a), -1)]
            else:
                terms = [(kw, 1)]
            for t, c in terms:
                rows[index[t]][index[w]] += c
        return NilMatrix(rows)

    mats = [left(k) for k in range(3)]
    mats += [mats[0].bracket(mats[1]), mats[0].bracket(mats[2]), mats[1].bracket(mats[2])]
    mats += [mats[0].bracket(mats[5]), mats[1].bracket(mats[4])]
    return mats


def test_group_certifies_the_class_of_all_of_degree_zero():
    g = three_units()
    g.check_bracket_axioms()  # raises AxiomFailure on a bad table
    with pytest.raises(ClassExceeded):
        NilpotentElementGroup(g, 2)
    G = NilpotentElementGroup(g, 3)
    mats = _three_unit_matrices()

    def matrix(v):
        n = mats[0].n
        return NilMatrix([
            [sum(c * mats[i].rows[r][k] for i, c in v.vector.items()) for k in range(n)]
            for r in range(n)
        ])

    # the matrices are independent and satisfy the bracket table, so the
    # representation is faithful and a matrix identity is a slice identity
    for i in range(8):
        for j in range(i + 1, 8):
            b = SliceElement.unit(g, 0, i).bracket(SliceElement.unit(g, 0, j))
            assert mats[i].bracket(mats[j]) == matrix(b)
    flat = [[x for r in m.rows for x in r] for m in mats]
    assert gauss_rank(flat) == 8
    x = G.element({0: 1, 1: 1})
    y = G.element({2: 1})
    z = G.multiply(x, y)
    # the class-2 truncation would drop (A + B) / 12
    assert z.vector[6] == z.vector[7] == Fraction(1, 12)
    rng = random.Random(43)
    pairs = [(x, y)] + [
        tuple(G.element({i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(8)})
              for _ in range(2))
        for _ in range(2)
    ]
    for a, b in pairs:
        assert matrix(G.multiply(a, b)) == matrix(a).exp().matmul(matrix(b).exp()).log()


def nilpotent_fixture():
    # word-length filtration forces every composition of four derivations
    # with values in bracket length >= 2 to vanish by degree 8
    return DgLaPresentation([("a", 2), ("b", 2), ("c", 4), ("e", 6), ("f", 8)])


def random_filtration_derivation(rng, p):
    vals = {}
    for name in ("c", "e", "f"):
        deg = p.generators.degree(name)
        basis = p.lie_basis(deg)
        vec = [
            Fraction(rng.randint(-1, 1)) if not isinstance(b.tree, int) else Fraction(0)
            for b in basis
        ]
        if any(vec):
            vals[name] = p.element_from_vector(deg, vec)
    return Derivation(p, 0, vals)


def test_class_check_and_bch_take_each_bracket_once():
    # the pairs of acceptance criterion 6: every right-nested word of weight
    # 4 takes 28 brackets, the two-letter Lyndon basis at most 6; bch at
    # class 3 brackets [x,y], [x,[x,y]] and [[x,y],y] once each
    rng = random.Random(99)
    p = nilpotent_fixture()
    calls = []

    def counted(a, b):
        calls.append(1)
        return der_bracket(a, b)

    for _ in range(50):
        th = random_filtration_derivation(rng, p)
        ps = random_filtration_derivation(rng, p)
        del calls[:]
        _check_class(th, ps, counted, 3)
        assert len(calls) <= 6
        del calls[:]
        bch(th, ps, counted, 3)
        assert len(calls) == 3


def test_class_check_agrees_with_every_word():
    rng = random.Random(47)
    p = nilpotent_fixture()
    pairs = [
        (random_filtration_derivation(rng, p), random_filtration_derivation(rng, p), der_bracket)
        for _ in range(4)
    ]
    for n in (3, 4):
        for _ in range(3):
            pairs.append((NilMatrix.random(rng, n), NilMatrix.random(rng, n),
                          lambda a, b: a.bracket(b)))
    # a pair that commutes, and one that only generates class 2
    e = [[Fraction(int(j == i + 1)) for j in range(4)] for i in range(4)]
    pairs.append((NilMatrix(e), NilMatrix(e).scale(2), lambda a, b: a.bracket(b)))
    pairs.append((NilMatrix.random(rng, 3), NilMatrix.random(rng, 3).scale(0),
                  lambda a, b: a.bracket(b)))
    verdicts = set()
    for x, y, br in pairs:
        for c in (1, 2, 3, 4):
            expected = full_word_class_check(x, y, br, c)
            try:
                _check_class(x, y, br, c)
                got = True
            except ClassExceeded:
                got = False
            assert got == expected, c
            verdicts.add(got)
    assert verdicts == {True, False}


def test_class_check_at_class_0_and_5_agrees_with_every_word():
    # the Lyndon words of weights 1 and 6 bound the walk; strictly upper
    # triangular n x n matrices have class n - 1
    rng = random.Random(53)
    pairs = [(NilMatrix.random(rng, n), NilMatrix.random(rng, n)) for n in (2, 3, 6, 7)]
    e = NilMatrix.random(rng, 4).scale(0)
    pairs.append((e, e))
    verdicts = set()
    for x, y in pairs:
        for c in (0, 5):
            br = lambda a, b: a.bracket(b)
            expected = full_word_class_check(x, y, br, c)
            try:
                _check_class(x, y, br, c)
                got = True
            except ClassExceeded:
                got = False
            assert got == expected, c
            verdicts.add((c, got))
    assert verdicts == {(0, True), (0, False), (5, True), (5, False)}


def test_exp_examples():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    assert exp_automorphism(Derivation(p, 0, {})) == GeneratorMorphism.identity(p)
    th = Derivation(p, 0, {"b": p.gen("a")})
    e = exp_automorphism(th)
    assert e.images["b"] == p.normal_form("a+b")
    assert e.compose(exp_automorphism(th.scale(-1))) == GeneratorMorphism.identity(p)


def test_exp_checks_its_fixed_element_sub_without_a_name_round_trip(monkeypatch, fixture_path):
    # e(theta) fixes omega = [a,b]: f(omega) is compared with omega itself,
    # not with omega expanded to terms and solved back into the basis
    p = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    th = Derivation(p, 0, {"b": p.gen("a")}, rel="omega")
    calls = []
    terms = LieElement.terms
    monkeypatch.setattr(LieElement, "terms", lambda self: calls.append(self) or terms(self))
    assert exp_automorphism(th).report.passed
    assert calls == []


def test_exp_images_match_the_full_series():
    # random_filtration_derivation vanishes on a and b, which e(theta) must fix
    rng = random.Random(13)
    p = nilpotent_fixture()
    shift = Derivation(p, 0, {"a": p.gen("b")})
    for k in range(8):
        th = random_filtration_derivation(rng, p)
        if k % 2:
            th = th + shift
        assert exp_automorphism(th).images == exp_series_images(th)


def test_exp_rejects_non_nilpotent():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    th = Derivation(p, 0, {"a": p.gen("a")})
    with pytest.raises(NotNilpotent):
        exp_automorphism(th)


def test_each_series_rejects_an_invertible_action_with_its_own_message():
    # theta x = x, h . x = x and [h, x] = x: no power of the action kills x
    p = DgLaPresentation([("h", 2), ("x", 2)])
    with pytest.raises(NotNilpotent, match=r"^theta does not act nilpotently on 'x'$"):
        exp_automorphism(Derivation(p, 0, {"x": p.gen("x")}))
    g = DgLieSlice((0, 0), {0: ["h"]})
    module = DgLieSlice((-1, -1), {-1: ["x"]})
    act = OuterAction(g, module, lambda n, i, m, j: {0: 1})
    h, x = SliceElement.unit(g, 0, 0), SliceElement.unit(module, -1, 0)
    with pytest.raises(NotNilpotent, match=r"^gauge action is not nilpotent on this slice$"):
        gauge_action(h, x, act)
    table = {(0, 0, -1, 0): {0: 1}, (-1, 0, 0, 0): {0: -1}}
    slc = DgLieSlice((-1, 0), {-1: ["x"], 0: ["h"]}, bracket_fn=lambda *pair: table.get(pair, {}))
    h, x = SliceElement.unit(slc, 0, 0), SliceElement.unit(slc, -1, 0)
    with pytest.raises(NotNilpotent, match=r"^adjoint gauge action is not nilpotent$"):
        gauge_action_adjoint(h, x)


def test_exp_bch_homomorphism():
    rng = random.Random(37)
    p = nilpotent_fixture()
    for _ in range(6):
        th = random_filtration_derivation(rng, p)
        ps = random_filtration_derivation(rng, p)
        z = bch(th, ps, der_bracket, 3)
        lhs = exp_automorphism(z)
        rhs = exp_automorphism(th).compose(exp_automorphism(ps))
        assert lhs == rhs


def test_exp_indec_action_depends_only_on_homology_class():
    # shadow of the H_0 statement: e(theta + D psi) and e(theta) induce the
    # same map on indecomposables, for cycles theta and degree-1 psi
    from dgla.derivations import der_differential

    tilde = DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
        {"beta": {"generators": ["beta"]}},
    )
    slc = der_complex(tilde, "beta", (0, 1))
    thetas = [
        Derivation(tilde, 0, {}, rel="beta", check=False),
        Derivation(tilde, 0, {"gamma": "[v,[v,w]]"}, rel="beta", check=False),
    ]
    for theta in thetas:
        assert der_differential(theta).is_zero()
        m0 = indec_action(exp_automorphism(theta), "beta")
        for psi in slc.derivations[1][:4]:
            boundary = der_differential(psi)
            e1 = exp_automorphism(theta + boundary)
            m1 = indec_action(e1, "beta")
            for d in (1, 3, 5):
                assert m1.block(d) == m0.block(d)


def test_mc_examples():
    lab = {-2: ["b"], -1: ["a"], 0: []}
    slc = DgLieSlice(
        (-2, 0),
        lab,
        {-1: linalg.matrix(1, 1, [(0, 0, 1)])},
        bracket_fn=lambda *pair: {0: 1} if pair == (-1, 0, -1, 0) else {},
    )
    zero = SliceElement.zero(slc, -1)
    ok, res = mc_check(zero)
    assert ok and res.is_zero()
    tau = SliceElement(slc, -1, {0: Fraction(-2)})
    ok, res = mc_check(tau)
    assert ok
    bad = SliceElement(slc, -1, {0: Fraction(-1)})
    ok, res = mc_check(bad)
    assert not ok and res.vector == {0: Fraction(-1, 2)}


def test_adjoint_gauge_preserves_mc():
    # Der slice of the tilde model: nonabelian with nonzero differential
    m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
    tilde, _, _ = tilde_model(m)
    slc = der_complex(tilde, "beta", (-2, 1))
    rng = random.Random(43)
    # nilpotent degree-0 acting elements: zero linear part on indecomposables
    candidates = []
    for i in range(slc.dim(0)):
        th = slc.derivations[0][i]
        if indec_action(th, "beta").is_zero():
            candidates.append(SliceElement.unit(slc, 0, i))
    tau0 = SliceElement.zero(slc, -1)
    assert mc_check(tau0)[0]
    for th in candidates[:3]:
        out = gauge_action_adjoint(th, tau0)
        ok, res = mc_check(out)
        assert ok, res.vector
    # also gauge a nonzero MC element when one exists: tau with d tau + ...
    for i in range(slc.dim(-1)):
        tau = SliceElement.unit(slc, -1, i)
        ok, _ = mc_check(tau)
        if ok:
            for th in candidates[:2]:
                out = gauge_action_adjoint(th, tau)
                assert mc_check(out)[0]
            break


def test_twisted_block_gauge_preserves_mc():
    # hp2 # s4s4: chi = p_* is nonzero on a nilpotent degree-0 derivation
    m = manifold_model(
        8,
        [("u", 3), ("x", 3), ("y", 3)],
        linalg.matrix(3, 3, [(0, 0, 1), (1, 2, 1), (2, 1, 1)]),
        None,
        {3: [2, 0, 0]},
    )
    p = m.presentation
    pi = pi_so_basis(4)
    rho = m.pontryagin_map(p, pi)
    hm = _HomModule(p, None, pi, (-1, 1))
    module = hm.full  # untruncated: includes Hom degrees -1 and -2
    acting = der_complex(p, "omega", (0, 1))
    acting.zero_below = False

    act = full_hom_outer_action(hm, acting, rho)
    # theta: x -> u, u -> -y is nilpotent, kills omega, and p(theta x) = 2
    th_der = Derivation(p, 0, {"x": p.gen("u"), "u": p.gen("y").scale(-1)}, rel="omega")
    th = SliceElement(acting, 0, acting.coords(th_der, 0))
    assert any(act.twist(0, i) for i in range(acting.dim(0))) or hm.chi_induced(0, hm.induced_map(th_der), rho)
    for j in range(module.dim(-1)):
        tau = SliceElement.unit(module, -1, j)
        assert mc_check(tau)[0]
        out = gauge_action(th, tau, act)
        ok, res = mc_check(out)
        assert ok
        # the twist actually moved tau unless chi and the action vanish
    moved = gauge_action(th, SliceElement.zero(module, -1), act)
    assert not moved.is_zero()


def test_gauge_series_truncation():
    # two-dimensional module degree -1 with t.m1 = m2, t.m2 = 0 and
    # chi(t) = 3 m1: the series terminates after the quadratic term and
    # Xi(t)(5 m1) = 5 m1 + (5 m2 - 3 m1) + (1/2)(-3 m2) = 2 m1 + 7/2 m2
    g = DgLieSlice((0, 0), {0: ["t"]})
    L = DgLieSlice((-2, 0), {-2: [], -1: ["m1", "m2"], 0: []})

    def action_fn(n, i, m, j):
        if n == 0 and m == -1 and j == 0:
            return {1: Fraction(1)}
        return {}

    def chi_fn(n, i):
        return {0: Fraction(3)}

    act = OuterAction(g, L, action_fn, chi_fn)
    th = SliceElement(g, 0, {0: Fraction(1)})
    x = SliceElement(L, -1, {0: Fraction(5)})
    out = gauge_action(th, x, act)
    assert out.vector == {0: Fraction(2), 1: Fraction(7, 2)}


def test_homotopy_constant_certifies_reflexivity():
    src = DgLaPresentation([("a", 2), ("b", 2), ("c", 6)])
    tgt = src
    f = GeneratorMorphism(src, tgt, {"a": "a", "b": "b", "c": "c+[a,[a,b]]"})
    h = {
        n: PolyLie.constant(f.images[n])
        for n, _ in src.generators.entries
    }
    rep = homotopy_check(h, f, f)
    assert rep.passed


def test_homotopy_linear_interpolation():
    src = DgLaPresentation([("u", 2)])
    tgt = DgLaPresentation([("z", 2), ("w", 3)], {"w": "z"})
    f = GeneratorMorphism(src, tgt, {"u": "z"})
    g = GeneratorMorphism(src, tgt, {"u": tgt.zero(2)})
    h = {"u": ({"0": "z", "1": "-1*z"}, {"0": "w"})}
    rep = homotopy_check(h, f, g)
    assert rep.passed


def test_homotopy_failure_at_evaluation():
    src = DgLaPresentation([("u", 2)])
    tgt = DgLaPresentation([("z", 2), ("w", 3)], {"w": "z"})
    f = GeneratorMorphism(src, tgt, {"u": "z"})
    g = GeneratorMorphism(src, tgt, {"u": "2*z"})
    h = {"u": ({"0": "z", "1": "-1*z"}, {"0": "w"})}
    rep = homotopy_check(h, f, g)
    fails = dict(rep.failures())
    assert "ev1_is_g" in fails
    # the witness names the first generator that fails
    assert fails["ev1_is_g"] == "u"


def test_homotopy_rel_sub():
    src = DgLaPresentation(
        [("s", 2), ("u", 2)], None, {"s": {"generators": ["s"]}}
    )
    tgt = DgLaPresentation([("s", 2), ("z", 2), ("w", 3)], {"w": "z"})
    f = GeneratorMorphism(src, tgt, {"s": "s", "u": "z"})
    g = GeneratorMorphism(src, tgt, {"s": "s", "u": tgt.zero(2)})
    h = {
        "s": ({"0": "s"}, {}),
        "u": ({"0": "z", "1": "-1*z"}, {"0": "w"}),
    }
    rep = homotopy_check(h, f, g, rel="s")
    assert rep.passed
    h_bad = {
        "s": ({"0": "s", "1": "z"}, {}),
        "u": ({"0": "z", "1": "-1*z"}, {"0": "w"}),
    }
    rep = homotopy_check(h_bad, f, g, rel="s")
    assert ("constant_on_rel", "s") in rep.failures()


def test_polylie_tensor_leibniz():
    # d[h1, h2] = [d h1, h2] + (-1)^{|h1|}[h1, d h2] in L (x) Omega_1:
    # exercises every sign path of the interval-form bracket
    t = DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
    )
    samples = [
        PolyLie(t, 1, {0: t.gen("v"), 2: t.gen("v").scale(3)}, {1: t.normal_form("[v,v]")}),
        PolyLie(t, 3, {1: t.gen("w")}, {0: t.gen("beta"), 2: t.gen("beta").scale(-2)}),
        PolyLie(t, 4, {0: t.gen("beta"), 1: t.normal_form("[v,w]")}, {3: t.gen("gamma")}),
    ]
    for h1 in samples:
        for h2 in samples:
            lhs = h1.bracket(h2).d()
            sign = -1 if h1.degree % 2 else 1
            rhs = h1.d().bracket(h2) + h1.bracket(h2.d()).scale(sign)
            assert lhs == rhs


def test_homotopy_reflexive_with_brackets_and_differential():
    t = DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
        {"beta": {"generators": ["beta"]}},
    )
    f = GeneratorMorphism.identity(t)
    h = {n: PolyLie.constant(f.images[n]) for n, _ in t.generators.entries}
    rep = homotopy_check(h, f, f, rel="beta")
    assert rep.passed


def test_gauge_action_is_group_action():
    # Xi_chi(bch(t, p))(x) = Xi_chi(t)(Xi_chi(p)(x)): the gauge action of
    # the exponential group.  The two symplectic nilpotents used here
    # commute (an sl_2-type pair would rightly be rejected as
    # non-nilpotent), but the series still composes nontrivially because
    # the twist enters every level.
    m = manifold_model(
        8,
        [("u1", 3), ("u2", 3), ("x", 3), ("y", 3)],
        linalg.matrix(4, 4, [(0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1)]),
        None,
        {3: [2, 2, 0, 0]},
    )
    p = m.presentation
    pi = pi_so_basis(4)
    rho = m.pontryagin_map(p, pi)
    hm = _HomModule(p, None, pi, (-1, 1))
    module = hm.full
    acting = der_complex(p, "omega", (0, 1))

    act = full_hom_outer_action(hm, acting, rho)
    th_der = Derivation(
        p, 0, {"x": p.gen("u1"), "u1": p.gen("y").scale(-1)}, rel="omega"
    )
    ps_der = Derivation(
        p, 0, {"x": p.gen("u2"), "u2": p.gen("y").scale(-1)}, rel="omega"
    )
    assert der_bracket(th_der, ps_der).is_zero()
    assert hm.chi_induced(0, hm.induced_map(th_der), rho) and hm.chi_induced(0, hm.induced_map(ps_der), rho)
    th = SliceElement(acting, 0, acting.coords(th_der, 0))
    ps = SliceElement(acting, 0, acting.coords(ps_der, 0))
    z = bch(th, ps, lambda a, b: a.bracket(b), 2)
    for j in range(module.dim(-1)):
        tau = SliceElement.unit(module, -1, j)
        lhs = gauge_action(z, tau, act)
        rhs = gauge_action(th, gauge_action(ps, tau, act), act)
        assert lhs == rhs


def test_adjoint_gauge_action_is_group_action():
    tilde = DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
        {"beta": {"generators": ["beta"]}},
    )
    slc = der_complex(tilde, "beta", (-2, 1))
    from dgla.morphisms import indec_action

    nil = [
        SliceElement.unit(slc, 0, i)
        for i in range(slc.dim(0))
        if indec_action(slc.derivations[0][i], "beta").is_zero()
    ]
    taus = [SliceElement.zero(slc, -1)] + [
        SliceElement.unit(slc, -1, i)
        for i in range(slc.dim(-1))
        if mc_check(SliceElement.unit(slc, -1, i))[0]
    ]
    for th in nil[:2]:
        for ps in nil[:2]:
            z = bch(th, ps, lambda a, b: a.bracket(b), 4)
            for tau in taus[:2]:
                lhs = gauge_action_adjoint(z, tau)
                rhs = gauge_action_adjoint(th, gauge_action_adjoint(ps, tau))
                assert lhs == rhs
