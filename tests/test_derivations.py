import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import pytest

import dgla
from dgla import freelie, io, linalg
from dgla.derivations import (
    Derivation,
    _HomLayout,
    der_bracket,
    der_complex,
    der_differential,
    deru,
    eval_at,
    FDerivation,
    forget_pullback,
    glue_derivations,
)
from dgla.errors import SchemaError, SubMismatch, UnknownGenerator, WindowTooNarrow
from dgla.graded import betti_numbers
from dgla.morphisms import GeneratorMorphism, indec_action
from dgla.presentation import DgLaPresentation, LieElement, pushout
from oracles import (
    all_generator_der_bracket,
    all_generator_der_differential,
    deru_degree0_by_intersection,
    random_presentation,
)


def w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )


def tilde_w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2), ("beta", 4), ("gamma", 5)],
        {"gamma": "[a,b]-beta"},
        {"beta": {"generators": ["beta"]}, "omega": {"elements": ["[a,b]"]}},
    )


def test_der_dims_one_odd_generator():
    p = DgLaPresentation([("x", 1)])
    slc = der_complex(p, None, (0, 1))
    assert slc.dim(0) == 1 and slc.dim(1) == 1


def test_der_dims_rel_omega():
    p = w11()
    free = der_complex(p, None, (0, 0))
    assert free.dim(0) == 4
    rel = der_complex(p, "omega", (0, 0))
    assert rel.dim(0) == 3  # the trace-like sp-condition kills one dimension


# the windows the der tests and the benchmark run on presentation_w11 rel omega
@pytest.mark.parametrize("window", [(0, 0), (0, 3), (0, 6), (-2, 8), (0, 20)])
def test_der_dims_of_w11_rel_omega_match_the_witt_formula(fixture_path, window):
    """dim Der_n = 2 W(n+2) - W(n+4) on presentation_w11 rel omega (d = 0).

    W is ``freelie.witt_dimensions``, a path that sees no basis element and
    no derivation.  A derivation of degree n is a free choice of theta(a)
    and theta(b) in L_{n+2}, and theta -> theta(omega) = [theta a, b] +
    [a, theta b] maps that space onto L_{n+4} when n >= 0, since L_{n+4}
    then has bracket length at least 2 and is spanned by [a, L_{n+2}] and
    [b, L_{n+2}]; its kernel is Der_n rel omega.  Below 0, L_{n+2} = 0.
    """
    p = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    lo, hi = window
    witt = freelie.witt_dimensions([2, 2], hi + 4)
    slc = der_complex(p, "omega", window)
    dims = {n: slc.dim(n) for n in range(lo, hi + 1)}
    assert dims == {n: 2 * witt[n + 2] - witt[n + 4] if n >= 0 else 0 for n in dims}
    if window == (0, 20):
        assert (dims[0], dims[20]) == (3, 37)


def test_derivation_rejects_nonvanishing_on_rel():
    p = w11()
    with pytest.raises(SubMismatch):
        Derivation(p, 0, {"a": "a"}, rel="omega")


def test_sums_of_derivations_relative_to_different_subs_are_refused(fixture_path):
    # the sum would be labeled rel omega without vanishing on omega
    p = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    theta = der_complex(p, "omega", (0, 0)).derivations[0][0]
    unit = _HomLayout(p, None, 0).unit(0)
    for a, b in ((theta, unit), (unit, theta)):
        with pytest.raises(SubMismatch):
            a + b
        with pytest.raises(SubMismatch):
            a - b
    assert (theta + theta).rel == "omega" and (unit + unit).rel is None


def test_eval_examples():
    p = w11()
    zero = Derivation(p, 0, {})
    assert zero.eval_at(p.normal_form("[a,b]")).is_zero()
    th = Derivation(p, 0, {"a": p.gen("b")})
    # theta(a)=b, theta(b)=0 applied to omega: [b,b] = 0
    assert th.eval_at(p.normal_form("[a,b]")).is_zero()
    # inner derivation ad_a
    ad_a = Derivation(p, 2, {"a": p.normal_form("[a,a]"), "b": p.normal_form("[a,b]")})
    assert eval_at(ad_a, p.gen("b")) == p.normal_form("[a,b]")


def test_der_bracket_and_differential():
    t = tilde_w11()
    slc = der_complex(t, "beta", (0, 3))
    thetas1 = slc.derivations[1]
    thetas2 = slc.derivations[2]
    # [theta, theta] = 0 in even degree
    for th in thetas2[:2]:
        assert der_bracket(th, th).is_zero()
    # [d, psi] equals the slice differential of psi
    d_der = Derivation(
        t,
        -1,
        {n: t.d_gen(n) for n, _ in t.generators.entries},
        rel=None,
        check=False,
    )
    for psi in thetas1:
        lhs = all_generator_der_bracket(d_der, psi)
        assert lhs == der_differential(psi)


def test_linear_part_of_bracket_is_commutator():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    A = Derivation(p, 0, {"a": "b"})
    B = Derivation(p, 0, {"b": "a"})
    br = der_bracket(A, B)
    m = indec_action(br, None).block(2)
    ma = indec_action(A, None).block(2)
    mb = indec_action(B, None).block(2)
    commutator = chain(
        linalg.entries(linalg.matmul(ma, mb)),
        ((i, j, -c) for i, j, c in linalg.entries(linalg.matmul(mb, ma))),
    )
    assert m == linalg.matrix(2, 2, commutator)


def test_der_slice_jacobi_and_leibniz():
    t = tilde_w11()
    slc = der_complex(t, "beta", (0, 2))
    slc.check_d_squared()
    slc.check_bracket_axioms()
    slc.check_d_leibniz()


def test_slice_bases_keep_no_leibniz_memo():
    # the differential evaluates every basis derivation above the lowest
    # degree; the memo that leaves must not live as long as the slice
    t = tilde_w11()
    slices = [
        der_complex(t, "beta", (-1, 2)),
        deru(t, "beta", None, (0, 2)),
    ]
    for slc in slices:
        basis = [th for n in range(slc.lo, slc.hi + 1) for th in slc.derivations[n]]
        assert basis and all(th._ext is None for th in basis)


def test_deru_examples():
    p = w11()
    u = deru(p, "omega", None, (0, 2))
    assert u.dim(0) == 0
    full = der_complex(p, "omega", (1, 2))
    for n in (1, 2):
        assert u.dim(n) == full.dim(n)


def test_deru_chain_reaches_below_its_window_only_from_zero():
    # tau_{>=0} Der_u vanishes below degree 0, so a window from 0 answers
    # H_0; a window from 1 does not know degree 0 and must not call it zero
    p = w11()
    assert deru(p, "omega", None, (0, 3)).to_chain().homology_degree(0) == (0, [])
    chain = deru(p, "omega", None, (1, 3)).to_chain()
    assert chain.lo == 1
    with pytest.raises(WindowTooNarrow):
        chain.homology_degree(1)


def test_boundaries_have_zero_indec_action():
    t = tilde_w11()
    slc = der_complex(t, "beta", (0, 3))
    for psi in slc.derivations[1]:
        boundary = der_differential(psi)
        m = indec_action(boundary, "beta")
        assert m.is_zero()


def test_ev_omega_surjects_onto_decomposables():
    p = w11()
    for n in range(0, 4):
        layout_dim = 0
        slc = der_complex(p, None, (n, n))
        omega = p.normal_form("[a,b]")
        target_dim = p.dim(4 + n)
        decomp_dim = sum(1 for b in p.lie_basis(4 + n) if not isinstance(b.tree, int))
        rows = [th.eval_at(omega).coords for th in slc.derivations[n]]
        rank = linalg.rank(rows, target_dim) if rows else 0
        assert rank >= decomp_dim


def test_ad_omega_is_rel_omega():
    p = w11()
    omega = p.normal_form("[a,b]")
    ad = Derivation(
        p,
        4,
        {"a": p.bracket(omega, p.gen("a")), "b": p.bracket(omega, p.gen("b"))},
        rel="omega",
    )
    assert ad.eval_at(omega).is_zero()


def test_glue_derivations():
    p = DgLaPresentation([("a", 2), ("b", 2)], None, {"s": {"generators": []}})
    q = DgLaPresentation([("c", 2), ("d", 2)], None, {"s": {"generators": []}})
    po, ip, iq = pushout(p, q, "s")
    th = Derivation(p, 0, {"a": "b"})
    ps = Derivation(q, 0, {"c": "d"})
    glued = glue_derivations(th, ps, po, ip, iq)
    assert glued.value("a") == po.gen("b")
    assert glued.value("c") == po.gen("d")
    zero = glue_derivations(
        Derivation(p, 0, {}), Derivation(q, 0, {}), po, ip, iq
    )
    assert zero.is_zero()
    # restriction back recovers theta
    assert glued.value("a") == ip.apply(th.value("a"))
    assert glued.value("b").is_zero()


def test_glue_bracket_compatibility():
    rng = random.Random(3)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 6)], None, {"s": {"generators": []}})
    q = DgLaPresentation([("x", 2), ("y", 2), ("z", 6)], None, {"s": {"generators": []}})
    po, ip, iq = pushout(p, q, "s")

    def rand_der(pres, names):
        vals = {}
        for n in names:
            basis = pres.lie_basis(pres.generators.degree(n))
            vec = [Fraction(rng.randint(-1, 1)) for _ in basis]
            vals[n] = pres.element_from_vector(pres.generators.degree(n), vec)
        return Derivation(pres, 0, vals)

    for _ in range(3):
        th, thp = rand_der(p, ["c"]), rand_der(p, ["c"])
        ps, psp = rand_der(q, ["z"]), rand_der(q, ["z"])
        lhs = glue_derivations(der_bracket(th, thp), der_bracket(ps, psp), po, ip, iq)
        rhs = der_bracket(
            glue_derivations(th, ps, po, ip, iq),
            glue_derivations(thp, psp, po, ip, iq),
        )
        assert lhs == rhs


def test_forget_pullback_identity_is_diagonal():
    p = w11()
    ident = GeneratorMorphism.identity(p)
    slc, left, right, pairs = forget_pullback(ident, "omega", "omega", (0, 3))
    for n in range(0, 4):
        assert slc.dim(n) == left.dim(n) == right.dim(n)


def test_forget_pullback_rel_everything_is_zero():
    p = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"all": {"generators": ["a", "b"]}}
    )
    ident = GeneratorMorphism.identity(p)
    slc, left, right, _ = forget_pullback(ident, "all", "all", (0, 3))
    assert all(slc.dim(n) == 0 for n in range(0, 4))


def test_glue_image_is_derivations_vanishing_on_opposite_side():
    p = DgLaPresentation([("a", 2), ("b", 2)], None, {"s": {"generators": []}})
    q = DgLaPresentation([("x", 2), ("y", 2)], None, {"s": {"generators": []}})
    po, ip, iq = pushout(p, q, "s")
    for n in (0, 2):
        dp = der_complex(p, None, (n, n)).dim(n)
        dq = der_complex(q, None, (n, n)).dim(n)
        # image dimension bound: gluing is injective, so the image has
        # dimension dp + dq; it consists of derivations whose values on each
        # side lie in that side's subalgebra
        glued = []
        for th in der_complex(p, None, (n, n)).derivations[n]:
            glued.append(glue_derivations(th, Derivation(q, n, {}), po, ip, iq))
        for ps in der_complex(q, None, (n, n)).derivations[n]:
            glued.append(glue_derivations(Derivation(p, n, {}), ps, po, ip, iq))
        # injectivity via coordinates in the pushout's full derivation space
        full = der_complex(po, None, (n, n))
        total = full.layouts[n].total
        vecs = [full.layouts[n].to_vector(g) for g in glued]
        assert linalg.rank(vecs, total) == dp + dq
        # characterization: values stay in the originating side
        for g in glued:
            for name, v in g.values.items():
                side = p if name in p.generators.index else q
                assert po.in_generator_span(
                    v, [nm for nm, _ in side.generators.entries]
                )


def test_deru_rho_condition_bites_at_degree_zero():
    from dgla.graded import GradedBasis, GradedLinearMap

    p = DgLaPresentation(
        [("s", 3), ("v", 3)], None, {"A": {"generators": ["s"]}}
    )
    pi = GradedBasis([("pi3", 3)])
    rho = GradedLinearMap(p.generators, pi, 0, {3: linalg.matrix(1, 2, [(0, 0, 1)])})
    without = deru(p, "A", None, (0, 1))
    with_rho = deru(p, "A", rho, (0, 1))
    # theta(v) = s has zero action on the relative indecomposables but a
    # nonzero rho-component, so the rho condition cuts one dimension
    assert without.dim(0) == 1
    assert with_rho.dim(0) == 0


def test_element_generated_rel_kills_bracket_words():
    # vanishing on the listed elements propagates to bracket words of the
    # generated subalgebra by the Leibniz rule; spot-check up to length 3
    p = DgLaPresentation(
        [("x", 1), ("y", 1)], None, {"s": {"elements": ["[x,x]", "[x,y]"]}}
    )
    slc = der_complex(p, "s", (0, 2))
    w1 = p.normal_form("[x,x]")
    w2 = p.normal_form("[x,y]")
    words = [w1, w2, p.bracket(w1, w2), p.bracket(w1, w1), p.bracket(w2, p.bracket(w1, w2))]
    for n in range(0, 3):
        for th in slc.derivations[n]:
            for w in words:
                assert th.eval_at(w).is_zero()


def _random_element(p, degree, rng):
    return p.element_from_vector(
        degree, [Fraction(rng.randint(-2, 2)) for _ in range(p.dim(degree))]
    )


def test_f_derivation_along_identity_is_the_derivation():
    p = DgLaPresentation([("x", 1), ("a", 2), ("y", 3)], {"y": "[x,x]"})
    ident = GeneratorMorphism.identity(p)
    rng = random.Random(11)
    for n in (-1, 0, 1, 2):
        values = {g: _random_element(p, d + n, rng) for g, d in p.generators.entries}
        theta = Derivation(p, n, values)
        f = FDerivation(ident, n, values)
        for degree in range(1, 7):
            for _ in range(3):
                e = _random_element(p, degree, rng)
                warm = theta.eval_at(e)
                assert f.eval_at(e) == warm
                # a fresh derivation starts with an empty memo
                assert Derivation(p, n, values).eval_at(e) == warm
                assert theta.eval_at(e) == warm


def test_every_map_on_generators_is_admitted_by_one_rule():
    # the differential (shift -1), a derivation (shift n), an f-derivation
    # (shift n, values in the target) and a morphism (shift 0) each refuse a
    # value off its generator's degree plus the shift at that value's pointer,
    # and a name that is no generator of the source
    p = DgLaPresentation([("x", 1), ("a", 2), ("y", 3)], {"y": "[x,x]"})
    q = DgLaPresentation([("u", 2)])
    m = GeneratorMorphism(q, p, {"u": "a"})
    cases = [
        (lambda vals: DgLaPresentation(p.generators.entries, vals), "y", "/differential/y"),
        (lambda vals: Derivation(p, 1, vals), "y", "/values/y"),
        (lambda vals: FDerivation(m, 1, vals), "u", "/values/u"),
        (lambda vals: GeneratorMorphism(p, p, {"x": "x", "a": "a", "y": "y", **vals}), "y",
         "/y"),
    ]
    for build, name, pointer in cases:
        # [a,y] has degree 5, which none of these expects
        with pytest.raises(SchemaError) as raised:
            build({name: "[a,y]"})
        assert raised.value.pointer == pointer
        with pytest.raises(UnknownGenerator):
            build({"zz": "a"})
    # an f-derivation of degree 0 along m takes values of u's degree 2
    with pytest.raises(SchemaError) as raised:
        FDerivation(m, 0, {"u": "[x,a]"})
    assert raised.value.pointer == "/values/u"
    assert FDerivation(m, 0, {"u": "2*a"}).values == {"u": p.normal_form("2*a")}
    # zero values are dropped by derivations and the differential, and kept by morphisms
    assert Derivation(p, 1, {"x": "0*[x,x]"}).values == {}
    assert FDerivation(m, 1, {"u": p.zero(3)}).values == {}
    assert DgLaPresentation(p.generators.entries, {"a": p.zero(1)}).differential == {}
    zero = GeneratorMorphism(p, p, {"x": "x", "a": "a", "y": p.zero(3)})
    assert zero.images["y"].is_zero()


# -- each derivation degree is one kernel -------------------------------------------


def _degree0_case(case, fixture_path):
    """(presentation, rel, rho) of a named degree-0 Der_u case."""
    def load(name):
        return io.load_json_file(fixture_path(name))

    if case == "two-dim":
        # theta(c), theta(e), theta(f) = alpha, beta, gamma times [a,b]; the
        # sub element asks alpha + beta + gamma = 0
        p = DgLaPresentation(
            [("a", 2), ("b", 2), ("c", 4), ("e", 4), ("f", 4)], None,
            {"s": {"elements": ["[a,c]+[a,e]+[a,f]"]}},
        )
        return p, "s", None
    if case == "cp2 omega":
        return io.load_manifold(load("cp2.json")).presentation, "omega", None
    if case == "tilde_w11 beta":
        return tilde_w11(), "beta", None
    if case == "w11 omega":
        return io.load_presentation(load("presentation_w11.json")), "omega", None
    twisted9 = io.load_presentation(load("presentation_twisted9.json"))
    if case == "twisted9 omega rho":
        return twisted9, "omega", io.load_rho(load("rho_twisted9.json"), twisted9)[0]
    assert case == "twisted9 omega"
    return twisted9, "omega", None


def _degree0_cases(fixture_path):
    cases = [_degree0_case(c, fixture_path) for c in (
        "twisted9 omega", "twisted9 omega rho", "cp2 omega", "tilde_w11 beta", "two-dim",
    )]
    rng = random.Random(80808)
    while len(cases) < 20:
        cases.append((random_presentation(rng, max_gens=4, max_degree=4), None, None))
    return cases


def test_deru_degree0_spans_the_intersection_oracle(fixture_path):
    cases = _degree0_cases(fixture_path)
    assert any(p.differential for p, _, _ in cases)
    differs = 0
    for p, rel, rho in cases:
        got = deru(p, rel, rho, (0, 0)).spaces[0]
        layout, want = deru_degree0_by_intersection(p, rel, rho)
        assert linalg.Subspace.from_vectors(got.vectors, layout.total).vectors == want.vectors
        if got.dim >= 2 and got.vectors != want.vectors:
            differs += 1
    # the two-dimensional case's kernel basis is not the RREF basis
    assert differs


@pytest.mark.parametrize("case", ["twisted9 omega", "twisted9 omega rho", "w11 omega"])
def test_deru_degree0_is_one_elimination(case, fixture_path, monkeypatch):
    p, rel, rho = _degree0_case(case, fixture_path)
    calls = []
    plain = linalg._echelon

    def counted(rows, ncols):
        calls.append(ncols)
        return plain(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    deru(p, rel, rho, (0, 0))
    assert len(calls) == 1


# -- derivation operations walk only where a value or d is nonzero --------------------

# d of degree -1 and d^2 = 0: d(a) = d(b) = 1/2 [x,x] are cycles, and d(y) = a - b
_SUMS = DgLaPresentation(
    [("x", 1), ("a", 3), ("b", 3), ("y", 4)],
    {"a": "1/2*[x,x]", "b": "1/2*[x,x]", "y": "a - b"},
)


def _partial_derivations(p, rel, degrees, rng, count):
    """Slice basis derivations rel ``rel`` and random ones on a random part of the generators."""
    out = []
    for n in degrees:
        out += der_complex(p, rel, (n, n)).derivations[n][:count]
        for _ in range(count):
            support = [(g, d) for g, d in p.generators.entries if rng.random() < 0.5]
            values = {g: _random_element(p, d + n, rng) for g, d in support}
            out.append(Derivation(p, n, values, rel=rel, check=False))
    return out


def _in_generator_order(theta):
    order = [g for g, _ in theta.ambient.generators.entries]
    names = list(theta.values)
    return names == [g for g in order if g in theta.values]


@pytest.mark.parametrize("case", ["tilde_w11 beta", "tilde_w11 omega", "twisted9 omega", "sums"])
def test_der_operations_match_the_all_generator_formulas(case, fixture_path):
    # a GeneratorSplit rel (beta), ElementGenerated rels (omega), nonzero d
    # (tilde_w11, sums), odd degrees and derivations with partial support
    twisted9 = io.load_presentation(io.load_json_file(fixture_path("presentation_twisted9.json")))
    p, rel = {
        "tilde_w11 beta": (tilde_w11(), "beta"),
        "tilde_w11 omega": (tilde_w11(), "omega"),
        "twisted9 omega": (twisted9, "omega"),
        "sums": (_SUMS, None),
    }[case]
    rng = random.Random(5)
    thetas = _partial_derivations(p, rel, (-2, -1, 0, 1), rng, 3)
    assert any(0 < len(th.values) < len(p.generators.entries) for th in thetas)
    for th in thetas:
        got = der_differential(th)
        assert got == all_generator_der_differential(th) and _in_generator_order(got)
    for th, ps in zip(thetas, rng.sample(thetas, len(thetas))):
        got = der_bracket(th, ps)
        assert got == all_generator_der_bracket(th, ps) and _in_generator_order(got)


def test_der_differential_evaluates_theta_only_on_nonzero_d(monkeypatch):
    # only gamma has a nonzero d on tilde_w11, so the theta.d term of D of a
    # unit derivation takes at most one eval_at
    t = tilde_w11()
    assert list(t.differential) == ["gamma"]
    calls = []
    plain = Derivation.eval_at

    def counted(self, e):
        calls.append(e)
        return plain(self, e)

    monkeypatch.setattr(Derivation, "eval_at", counted)
    for n in (-2, 0, 1, 3):
        for g, d in t.generators.entries:
            for i in range(t.dim(d + n)):
                unit = Derivation(t, n, {g: LieElement(t, d + n, {i: 1})})
                del calls[:]
                der_differential(unit)
                assert len(calls) <= 1


def test_der_bracket_values_come_in_generator_order_under_any_hash_seed():
    # th shifts g_k to g_(k+1) and ps scales g_k by k
    script = (
        "from dgla.derivations import Derivation, der_bracket\n"
        "from dgla.presentation import DgLaPresentation\n"
        "names = ['g%d' % k for k in range(8)]\n"
        "p = DgLaPresentation([(n, 2) for n in names])\n"
        "th = Derivation(p, 0, {n: p.gen(m) for n, m in zip(names, names[1:])})\n"
        "ps = Derivation(p, 0, {n: p.gen(n).scale(k) for k, n in enumerate(names)})\n"
        "print(' '.join(der_bracket(th, ps).values))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dgla.__file__)))
    outs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outs.add(run.stdout.split("\n")[0])
    # [th, ps] sends g_k to -g_(k+1) for k < 7 and g7 to 0
    assert outs == {" ".join("g%d" % k for k in range(7))}


# -- derivations built from values the module has just computed -----------------------


def _trusted_built(monkeypatch, run):
    """Every derivation that ``Derivation._trusted`` builds while ``run()`` runs."""
    built = []
    trusted = Derivation._trusted

    def record(cls, *args, **kwargs):
        th = trusted(*args, **kwargs)
        built.append(th)
        return th

    monkeypatch.setattr(Derivation, "_trusted", classmethod(record))
    run()
    monkeypatch.setattr(Derivation, "_trusted", trusted)
    return built


def test_trusted_derivations_are_the_checked_ones(monkeypatch, tmp_path):
    # every internal construction (Hom units and coordinates, D, brackets,
    # scales and sums) over the CLI corpus and the twisted commands, and
    # the operations on one slice's basis derivations, equals the public
    # constructor's derivation on the same values
    from dgla.cli import run
    from test_acceptance import CLI_CORPUS, TWISTED_REPORT_SHA256

    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    commands = list(CLI_CORPUS) + [row[:3] for row in TWISTED_REPORT_SHA256]

    def corpus():
        for i, (cmd, files, flags) in enumerate(commands):
            argv = [cmd] + [os.path.join("fixtures", f) for f in files]
            argv += [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]
            assert run(argv + ["--out", str(tmp_path / ("r%d.json" % i))])[0] in (0, 1)
        p = io.load_presentation(io.load_json_file(os.path.join("fixtures", "presentation_twisted9.json")))
        slc = deru(p, "omega", None, (0, 3))
        basis = [th for n in range(0, 4) for th in slc.derivations[n]]
        for th in basis:
            for q in (0, 1, -1, 2, Fraction(-3, 2)):
                th.scale(q)
            th - th
            der_differential(th)
            for psi in basis:
                der_bracket(th, psi)
                if psi.degree == th.degree:
                    th + psi

    built = _trusted_built(monkeypatch, corpus)
    assert len(built) > 1000
    for th in built:
        ref = Derivation(th.ambient, th.degree, th.values, rel=th.rel, check=False)
        assert type(th.degree) is int and th.degree == ref.degree
        # the constructor keeps each value of the ambient as it is, so it
        # keeps them all exactly when they are nonzero and of the right degree
        assert list(th.values) == list(ref.values)
        assert all(ref.values[n] is v for n, v in th.values.items())
        assert th._mask == ref._mask
