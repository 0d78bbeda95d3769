import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import freelie, io, linalg
from dgla.derivations import Derivation, FDerivation, der_bracket
from dgla.errors import IncompatibleSubs, InhomogeneousExpression, SchemaError, UnsupportedSub
from dgla.expmc import PolyLie
from dgla.models import _omega_terms
from dgla.morphisms import GeneratorMorphism, check_morphism
from dgla.presentation import (
    DgLaPresentation,
    ElementGenerated,
    GeneratorSplit,
    LieElement,
    TreeMap,
    pushout,
    transfer,
)
from oracles import (
    folded_apply,
    folded_bracket,
    folded_eval_at,
    folded_poly_sum,
    folded_sum,
    is_coefficient,
    is_exact,
    reference_add_scaled,
    reference_apply,
    reference_bracket,
    reference_leibniz,
    reference_tree_map,
    random_presentation,
    sub_contains,
    tensor_normal_form,
)
from test_derivation_reuse import _fixture_presentations


def tilde_w11():
    return DgLaPresentation(
        [("a", 2), ("b", 2), ("beta", 4), ("gamma", 5)],
        {"gamma": "[a,b]-beta"},
        {
            "beta": {"generators": ["beta"]},
            "omega": {"elements": ["[a,b]"]},
        },
    )


def test_validate_pass():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    assert p.validate().passed
    # Stasheff model of S^3 x S^3 minus a disk with omega sub
    q = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )
    assert q.validate().passed


def test_validate_d_squared_failure_with_witness():
    p = DgLaPresentation([("a", 1), ("b", 2), ("c", 3)], {"c": "b", "b": "a"})
    rep = p.validate()
    assert not rep.passed
    assert ("d_squared", "c") in rep.failures()


def test_validate_degree_rules():
    # d(v) = w lowers degree by one: valid (though not minimal)
    p = DgLaPresentation([("v", 3), ("w", 2)], {"v": "w"})
    assert p.validate().passed
    assert ("d_lowers_degree", True, None) in p.validate().checks
    # equal degrees: refused when built, at the value's pointer
    with pytest.raises(SchemaError) as raised:
        DgLaPresentation([("v", 3), ("w", 3)], {"v": "w"})
    assert raised.value.pointer == "/differential/v"


def test_sub_closure():
    p = DgLaPresentation(
        [("a", 2), ("b", 2), ("c", 7)],
        {"c": "[a,[a,b]]"},
        {"good": {"generators": ["a", "b"]}, "bad": {"generators": ["b", "c"]}},
    )
    rep = p.validate()
    fails = dict(rep.failures())
    assert "sub_closed:bad" in fails
    assert "sub_closed:good" not in fails


def test_tilde_model_checks():
    t = tilde_w11()
    assert t.validate().passed
    assert t.is_minimal("beta")
    assert not t.is_minimal(None)


def test_dim_is_the_basis_size_read_with_no_basis_built(monkeypatch, fixture_path):
    # p.dim reads the Witt table: len(lie_basis) in every degree, 0 below 1,
    # and not one basis_in_degree call of its own
    built = []
    basis_in_degree = freelie.basis_in_degree

    def recording(degrees, d, memo=None):
        built.append(d)
        return basis_in_degree(degrees, d, memo)

    monkeypatch.setattr(freelie, "basis_in_degree", recording)
    presentations = {**_fixture_presentations(), "no generators": DgLaPresentation([])}
    for name, p in presentations.items():
        for d in range(-2, 15):
            built.clear()
            dim = p.dim(d)
            assert not built, (name, d)
            assert dim == len(p.lie_basis(d)), (name, d)
    # above the cap, dim raises the message that building the basis raises
    p = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    built.clear()
    with pytest.raises(SchemaError) as sized:
        p.dim(38)
    assert not built
    with pytest.raises(SchemaError) as building:
        p.lie_basis(38)
    assert built == [38]
    assert str(sized.value) == str(building.value)
    assert "degree 38 of the free Lie algebra has 27594 basis elements" in str(sized.value)


def test_indecomposables_basis_and_differential():
    t = tilde_w11()
    slc = t.indecomposables("beta")
    # basis: the non-sub generators a, b, gamma
    assert slc.labels[2] == ["a", "b"]
    assert slc.labels[5] == ["gamma"]
    # rel beta the induced differential vanishes (minimality)
    # rel nothing: gamma maps to -beta
    slc0 = t.indecomposables(None)
    col = linalg.columns(slc0.d_matrix(5), slc0.dim(5))[0]
    names = slc0.labels[4]
    assert col == {names.index("beta"): Fraction(-1)}


def test_indecomposables_all_generators_sub_is_zero():
    p = DgLaPresentation([("a", 2), ("b", 2)], None, {"all": {"generators": ["a", "b"]}})
    slc = p.indecomposables("all")
    assert all(slc.dim(d) == 0 for d in range(slc.lo, slc.hi + 1))


def test_element_generated_indec_special_case():
    p = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )
    slc = p.indecomposables("omega")
    assert slc.labels[2] == ["a", "b"]
    # the absolute complex: built and certified once for both subs
    assert p.indecomposables(None) is slc
    q = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"lin": {"elements": ["a"]}}
    )
    with pytest.raises(UnsupportedSub):
        q.indecomposables("lin")


def test_pushout_free_product():
    p = DgLaPresentation([("a", 2)], None, {"s": {"generators": []}})
    q = DgLaPresentation([("b", 2)], None, {"s": {"generators": []}})
    po, ip, iq = pushout(p, q, "s")
    assert [n for n, _ in po.generators.entries] == ["a", "b"]
    assert ip.apply(p.gen("a")) == po.gen("a")
    assert iq.apply(q.gen("b")) == po.gen("b")


def test_pushout_indec_dims_add():
    p = DgLaPresentation(
        [("s", 2), ("x", 3), ("y", 4)], None, {"s": {"generators": ["s"]}}
    )
    q = DgLaPresentation(
        [("s", 2), ("z", 3)], None, {"s": {"generators": ["s"]}}
    )
    po, _, _ = pushout(p, q, "s")
    a = p.indecomposables("s")
    b = q.indecomposables("s")
    c = po.indecomposables("s")
    for d in range(1, 6):
        da = a.dim(d) if a.lo <= d <= a.hi else 0
        db = b.dim(d) if b.lo <= d <= b.hi else 0
        dc = c.dim(d) if c.lo <= d <= c.hi else 0
        assert dc == da + db


def test_pushout_renames_collisions_and_checks_subs():
    p = DgLaPresentation([("s", 2), ("x", 3)], None, {"s": {"generators": ["s"]}})
    q = DgLaPresentation([("s", 2), ("x", 3)], None, {"s": {"generators": ["s"]}})
    po, ip, iq = pushout(p, q, "s")
    names = [n for n, _ in po.generators.entries]
    assert names == ["s", "x", "x'"]
    r = DgLaPresentation([("s", 3)], None, {"s": {"generators": ["s"]}})
    with pytest.raises(IncompatibleSubs):
        pushout(p, r, "s")


def test_pushout_along_none_is_the_free_product():
    # the empty sub: every generator of q is free, collisions are renamed,
    # both differentials are carried, and no sub (no None-named one) is kept
    p = DgLaPresentation([("u", 3), ("v", 7)], {"v": "[u,u]"}, {"s": {"generators": ["u"]}})
    q = DgLaPresentation([("u", 3), ("w", 7)], {"w": "[u,u]"})
    po, ip, iq = pushout(p, q, None)
    assert po.generators.entries == [("u", 3), ("v", 7), ("u'", 3), ("w", 7)]
    assert po.subalgebras == {}
    assert po.d_gen("w") == po.normal_form("[u',u']")
    assert ip.apply(p.d_gen("v")) == po.d_gen("v")
    assert iq.images == {"u": po.gen("u'"), "w": po.gen("w")}
    assert check_morphism(ip).passed and check_morphism(iq).passed


def test_pushout_correspondence_must_commute_with_d():
    # odd generators so that [u,u] is nonzero
    q = DgLaPresentation(
        [("u", 3), ("v", 7)], {"v": "[u,u]"},
        {"sub": {"generators": ["u", "v"]}},
    )
    r = DgLaPresentation(
        [("u", 3), ("v", 7)], None, {"sub": {"generators": ["u", "v"]}}
    )
    p2 = DgLaPresentation(
        [("s", 3), ("w", 7), ("free", 2)], {"w": "[s,s]"},
        {"sub": {"generators": ["s", "w"]}},
    )
    po, _, _ = pushout(p2, q, "sub", {"u": "s", "v": "w"})
    assert po.validate().passed
    with pytest.raises(IncompatibleSubs):
        pushout(p2, r, "sub", {"u": "s", "v": "w"})


def test_transfer():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    t = tilde_w11()
    e = p.normal_form("[a,[a,b]]")
    e2 = transfer(e, t)
    assert e2.presentation is t and e2.degree == 6
    assert transfer(e2, p) == e


def test_subalgebra_span_membership():
    q = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )
    assert sub_contains(q, "omega", q.normal_form("[a,b]"))
    assert sub_contains(q, "omega", q.zero(8))
    assert not sub_contains(q, "omega", q.gen("a"))
    # an odd-degree example where the generated subalgebra grows
    r = DgLaPresentation(
        [("x", 1), ("y", 1)], None, {"s": {"elements": ["[x,x]", "[x,y]"]}}
    )
    assert sub_contains(r, "s", r.bracket(r.normal_form("[x,x]"), r.normal_form("[x,y]")))
    assert not sub_contains(r, "s", r.normal_form("[y,y]"))


def test_zero_elements_are_immutable_and_hash_like_eq():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    aa = p.basis_bracket(2, 0, 2, 0)
    assert aa.is_zero() and aa.degree == 4
    assert (aa + p.gen("b")).degree == 2
    assert (p.gen("b") + aa).degree == 2
    assert aa.degree == 4 and p.basis_bracket(2, 0, 2, 0).degree == 4
    assert p.zero(3) == p.zero(5)
    assert hash(p.zero(3)) == hash(p.zero(5))
    assert len({p.zero(3), aa, p.zero()}) == 1


def test_one_shared_zero_per_degree_keeps_the_degree_rules():
    p = DgLaPresentation([("a", 2), ("b", 2)])
    assert p.zero(3) is p.zero(3) and p.zero() is p.zero(0)
    assert p.zero(3) is not p.zero(5) and p.zero(5).degree == 5
    zero = p.zero(4)
    ab = p.normal_form("[a,b]")
    # a sum from the shared zero takes its nonzero summand's degree, or keeps 4
    assert zero.add_scaled([(2, p.gen("a"))]).degree == 2
    assert zero.add_scaled([(1, ab), (-1, ab)]).degree == 4
    assert (zero + p.gen("b")).degree == 2 and (zero + p.zero(7)).degree == 7
    with pytest.raises(InhomogeneousExpression):
        zero.add_scaled([(1, p.gen("a")), (1, ab)])
    # and the shared zero itself is untouched
    assert zero.coords == {} and zero.degree == 4 and p.zero(4) is zero
    assert p.normal_form("0*[a,b]") is p.zero()
    # + refuses two nonzero summands of different degrees, naming the left
    # one's degree first, and summands of different presentations
    a = p.gen("a")
    with pytest.raises(InhomogeneousExpression, match=r"^cannot add degrees 2 and 4$"):
        a + ab
    with pytest.raises(InhomogeneousExpression, match=r"^cannot add degrees 4 and 2$"):
        ab - a
    q = DgLaPresentation([("a", 2), ("b", 2)])
    for x, y in ((a, q.gen("a")), (p.zero(2), q.zero(2)), (q.zero(4), ab)):
        with pytest.raises(ValueError, match=r"^elements of different presentations$"):
            x + y


def _subtrees(tree):
    yield tree
    if not isinstance(tree, int):
        yield from _subtrees(tree[0])
        yield from _subtrees(tree[1])


def test_tree_element_matches_name_round_trip():
    p = DgLaPresentation([("x", 1), ("a", 2), ("y", 3)])
    trees = {t for d in range(1, 9) for b in p.lie_basis(d) for t in _subtrees(b.tree)}
    # swapped brackets are not basis trees, and [a,a] is zero
    trees |= {(t[1], t[0]) for t in trees if not isinstance(t, int)} | {(1, 1)}
    for t in trees:
        expected = p.normal_form([(Fraction(1), p.tree_names(t))])
        got = p.tree_element(t)
        assert got == expected and got.degree == expected.degree, t


# -- sums of elements: one accumulation, the fold's values ---------------------------

# d of degree -1 and d^2 = 0: d(a) = d(b) = 1/2 [x,x] are cycles, and d(y) = a - b
_SUMS = DgLaPresentation(
    [("x", 1), ("a", 3), ("b", 3), ("y", 4)],
    {"a": "1/2*[x,x]", "b": "1/2*[x,x]", "y": "a - b"},
)
_COEFFS = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def test_sums_fixture_is_a_dg_lie_algebra():
    assert _SUMS.validate().passed
    assert _SUMS.differential_of(_SUMS.normal_form("[x,y]")).degree == 4


def _canonical(e):
    """Every coordinate a nonzero int or Fraction: the invariant the sums keep.

    A sum or product of Fraction coordinates may be an integral Fraction.
    """
    assert all(is_coefficient(c) for c in e.coords.values()), e.coords
    return e


@st.composite
def _element(draw, p, degree):
    coeffs = draw(st.lists(_COEFFS, min_size=p.dim(degree), max_size=p.dim(degree)))
    return p.element_from_vector(degree, coeffs)


@st.composite
def _images(draw, p, shift):
    """One image of degree |g| + shift per generator, some zero.

    The images of a and b are sometimes opposite, so that sums over
    elements with equal a- and b-coordinates cancel.
    """
    images = {n: draw(_element(p, d + shift)) for n, d in p.generators.entries}
    if draw(st.booleans()):
        images["b"] = images["a"].scale(-1)
    return images


@st.composite
def _argument(draw, p):
    """An element of degree 1..4, and its a- and b-coordinates made equal."""
    degree = draw(st.integers(1, 4))
    x = draw(_element(p, degree))
    if degree == 3 and draw(st.booleans()):
        c = draw(_COEFFS.filter(bool))
        x = x + (p.gen("a") + p.gen("b")).scale(c)
    return x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sums_agree_with_the_per_term_fold(data):
    p = _SUMS
    x = data.draw(_argument(p))
    y = x if data.draw(st.booleans()) else data.draw(_argument(p))
    assert _canonical(p.bracket(x, y)) == folded_bracket(p, x, y)

    images = data.draw(_images(p, 0))
    f = GeneratorMorphism(p, p, images)
    assert _canonical(f.apply(x)) == folded_apply(f, x)
    tm = TreeMap(p, images.__getitem__, lambda u, v, g: p.bracket(g(u), g(v)))
    basis = p.lie_basis(x.degree)
    terms = [(c, tm.tree(basis[i].tree)) for i, c in x.coords.items()]
    assert _canonical(tm(x, p.zero(x.degree))) == folded_sum(p.zero(x.degree), terms)

    shift = data.draw(st.integers(-1, 1))
    theta = Derivation(p, shift, data.draw(_images(p, shift)))
    assert _canonical(theta.eval_at(x)) == folded_eval_at(theta, x)

    def poly(name):
        img = images[name]
        dt_part = p.bracket(p.gen("x"), img)
        return PolyLie(p, img.degree, {0: img, 2: img.scale(3)}, {1: dt_part})

    hm = TreeMap(p, poly, lambda u, v, g: g(u).bracket(g(v)))
    got = hm(x, PolyLie(p, x.degree))
    terms = [(c, hm.tree(basis[i].tree)) for i, c in x.coords.items()]
    assert got == folded_poly_sum(PolyLie(p, x.degree), terms)
    for part in (got.p, got.q):
        for v in part.values():
            _canonical(v)


_RANDOM_COEFFS = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _random_element(rng, p, degree):
    vector = [rng.choice(_RANDOM_COEFFS) for _ in range(p.dim(degree))]
    return p.element_from_vector(degree, vector)


def _random_values(rng, p, shift):
    """Generator values of degree |g| + shift, one in three zero.

    A zero value is sometimes the zero of degree 0, which a GeneratorMorphism
    accepts for any generator.
    """
    values = {}
    for n, d in p.generators.entries:
        if rng.random() < 1 / 3:
            values[n] = p.zero() if rng.random() < 0.5 else p.zero(d + shift)
        else:
            values[n] = _random_element(rng, p, d + shift)
    return values


def _same_coords(got, expected):
    _canonical(got)
    assert got.coords == expected.coords
    if got.coords:
        assert got.degree == expected.degree


@pytest.mark.parametrize("name", ["tilde_w11", "presentation_cp2.json",
                                  "presentation_twisted9.json"])
@pytest.mark.parametrize("seed", range(4))
def test_coordinate_kernel_matches_the_element_per_term_reference(fixture_path, name, seed):
    """Brackets, sums and Leibniz nodes against their element-per-term forms.

    tilde_w11 has even and odd generators and a differential, cp2 odd
    generators and a differential, twisted9 both parities and none.
    """
    if name == "tilde_w11":
        p = tilde_w11()
    else:
        p = io.load_presentation(io.load_json_file(fixture_path(name)))
    rng = random.Random(seed)
    top = max(d for _, d in p.generators.entries) + 5
    xs = [_random_element(rng, p, rng.randint(1, top)) for _ in range(6)]
    for x in xs:
        for y in xs[:3]:
            _same_coords(p.bracket(x, y), reference_bracket(p, x, y))
        terms = [(rng.choice(_RANDOM_COEFFS), _random_element(rng, p, x.degree))
                 for _ in range(3)]
        _same_coords(x.add_scaled(terms), reference_add_scaled(x, terms))

    d_ref = reference_leibniz(p, p, -1, p.differential.get)
    f = GeneratorMorphism(p, p, _random_values(rng, p, 0))
    g = GeneratorMorphism(p, p, _random_values(rng, p, 0))
    f_ref = reference_tree_map(p, p, f.images.__getitem__)
    for shift in (-1, 0, 1):
        theta = Derivation(p, shift, _random_values(rng, p, shift))
        theta_ref = reference_leibniz(p, p, shift, theta.values.get)
        along = FDerivation(f, shift, _random_values(rng, p, shift))
        along_ref = reference_leibniz(p, p, shift, along.values.get, along=f)
        for x in xs:
            _same_coords(theta.eval_at(x), reference_apply(theta_ref, x, p.zero(x.degree + shift)))
            _same_coords(along.eval_at(x), reference_apply(along_ref, x, p.zero(x.degree + shift)))
    for x in xs:
        _same_coords(p.differential_of(x), reference_apply(d_ref, x, p.zero(x.degree - 1)))
        _same_coords(f.apply(x), reference_apply(f_ref, x, p.zero(x.degree)))
    for n, img in f.compose(g).images.items():
        _same_coords(img, reference_apply(f_ref, g.images[n], p.zero(img.degree)))


def test_inhomogeneous_images_raise():
    p = _SUMS
    images = {"x": "x", "a": "a", "b": "y", "y": "y"}
    # a generator morphism refuses the image of b, of degree 4, when it is built
    with pytest.raises(SchemaError) as raised:
        GeneratorMorphism(p, p, images)
    assert raised.value.pointer == "/b"
    # a tree map on the same images sums terms of degrees 3 and 4
    images = {n: p.normal_form(v) for n, v in images.items()}
    f = TreeMap(p, images.__getitem__, lambda u, v, f: p.bracket(f(u), f(v)))
    assert f(p.normal_form("2*a"), p.zero(3)) == p.normal_form("2*a")
    with pytest.raises(InhomogeneousExpression):
        f(p.normal_form("a + b"), p.zero(3))
    with pytest.raises(InhomogeneousExpression):
        p.gen("a").add_scaled([(1, p.gen("y"))])
    # a vanishing sum of one degree does not hide a term of another
    with pytest.raises(InhomogeneousExpression):
        p.gen("a").add_scaled([(-1, p.gen("a")), (1, p.gen("y"))])


def test_results_hold_only_nonzero_fractions():
    p = _SUMS
    a, b, x = p.gen("a"), p.gen("b"), p.gen("x")
    assert p.gen("a") is a and p.gen("y") is p.gen("y")
    f = GeneratorMorphism(p, p, {"x": "x", "a": "b", "b": "a", "y": p.gen("y").scale(-1)})
    theta = Derivation(p, 0, {"a": "2*b", "y": "[x,a]"})
    psi = Derivation(p, 0, {"b": "a"})
    elements = [
        a, x, p.bracket(x, p.bracket(x, a)),
        p.bracket(a.scale(2), b) - p.bracket(b, a.scale(-2)),
        a.scale(0), a - a, a.scale(Fraction(1, 2)) + b.scale(3),
        f.apply(p.normal_form("[x,[x,a]] - 1/3*[x,[x,b]]")),
        theta.eval_at(p.normal_form("[a,b] + 2*[x,[x,y]]")),
    ]
    elements += der_bracket(theta, psi).values.values()
    for e in elements:
        # no product here cancels a denominator, so every integral value is an int
        assert all(is_exact(c) for c in e.coords.values()), e.coords
    # the constructors store every integral coordinate as an int
    built = [
        p.normal_form([(Fraction(2), "a"), (Fraction(4, 2), "b")]),
        p.element_from_vector(3, [Fraction(6, 3), True]),
        LieElement(p, 3, {0: Fraction(-1), 1: Fraction(1, 3)}),
        a.scale(Fraction(3)),
    ]
    assert [[type(c) for c in e.coords.values()] for e in built] == [
        [int, int], [int, int], [int, Fraction], [int],
    ]
    # only arithmetic on a Fraction value leaves an integral Fraction
    assert a.scale(Fraction(1, 2)).scale(2) == a
    y = p.gen("y")
    zeros = [a.scale(0), a - a, p.zero(7), p.bracket(x, x.scale(0)), p.bracket(y, y)]
    assert [z.degree for z in zeros] == [3, 3, 7, 2, 8]
    assert all(z.coords == {} for z in zeros)
    assert len(set(zeros)) == 1 and all(z == p.zero() for z in zeros)


def _count_built(monkeypatch):
    """Count LieElements built, through either constructor."""
    built = []
    init = LieElement.__init__
    trusted = LieElement._trusted.__func__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    def counted_trusted(cls, *args):
        built.append(1)
        return trusted(cls, *args)

    monkeypatch.setattr(LieElement, "__init__", counted_init)
    monkeypatch.setattr(LieElement, "_trusted", classmethod(counted_trusted))
    return built


def test_each_sum_builds_one_element(monkeypatch):
    p = DgLaPresentation([("x", 1), ("a", 2), ("b", 2), ("c", 3)])
    x = p.element_from_vector(4, [(-1) ** k for k in range(p.dim(4))])
    y = p.element_from_vector(3, [k + 1 for k in range(p.dim(3))])
    f = GeneratorMorphism(p, p, {"x": "x", "a": "a + [x,x]", "b": "b - a", "c": "c + [x,b]"})
    assert len(x.coords) == 4 and len(y.coords) == 3
    expected = (p.bracket(x, y), f.apply(x))  # fills the bracket and tree caches
    built = _count_built(monkeypatch)
    assert p.bracket(x, y) == expected[0]
    assert len(built) == 1
    built.clear()
    assert f.apply(x) == expected[1]
    # the zero the sum starts from is the shared one: only the result is built
    assert len(built) == 1
    zero = p.zero(x.degree)
    built.clear()
    assert f.tree_map(x, zero) == expected[1]
    assert len(built) == 1
    first = p.gen("a")
    built.clear()
    assert p.gen("a") is first
    assert built == []


# -- normal forms: the bracket table against one tensor solve -------------------------


def _assert_tensor_normal_forms(p, expressions):
    """normal_form equals the tensor solve in degree, entry and type (int or Fraction)."""
    for e in expressions:
        got, expected = p.normal_form(e), tensor_normal_form(p, e)
        assert got.degree == expected.degree, e
        assert {i: (type(c), c) for i, c in got.coords.items()} == {
            i: (type(c), c) for i, c in expected.coords.items()
        }, e


_FIXTURES = ["bad_dsquare.json", "presentation_cp2.json", "presentation_twisted9.json",
             "presentation_w11.json", "tilde_w11.json", "cp2.json", "empty_model.json",
             "hp2.json", "hp2_sum.json", "s4s4.json", "twisted9.json", "w11.json", "w21.json"]


def test_normal_form_matches_the_tensor_solve_on_fixtures(fixture_path):
    # the differentials and sub elements as the fixtures write them, and
    # omega's defining terms, which hold brackets that are no basis tree
    for name in _FIXTURES:
        doc = io.load_json_file(fixture_path(name))
        if "pairing" in doc:
            m = io.load_manifold(doc)
            p, expressions = m.presentation, [_omega_terms(m.v)]
        else:
            p, expressions = io.load_presentation(doc), []
        expressions += (doc.get("differential") or {}).values()
        for spec in (doc.get("subalgebras") or {}).values():
            expressions += spec.get("elements", [])
        _assert_tensor_normal_forms(p, expressions)


def test_normal_form_matches_the_tensor_solve_on_fractional_sums():
    p = DgLaPresentation([("x", 1), ("a", 2), ("b", 2), ("y", 3)])
    _assert_tensor_normal_forms(p, [
        "1/2*[a,b]+1/2*[a,b]",  # halves summing to an int
        "1/2*[a,b]+1/2*[b,a]",  # a sum that cancels keeps its degree
        "1/3*[x,[x,y]]-1/6*[[x,y],x]+1/2*[y,[x,x]]",
        "2/3*[a,[a,b]]+1/3*[a,[a,b]]-1/2*[[a,b],a]",
        "1/2*[x,x]+1/4*[x,x]",
        "3/2*[[x,a],[x,b]]-1/2*[[x,b],[x,a]]",
        "1/2*[a,a]",
        "0*[a,b]",
    ])


_FRACTIONAL = [1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 2)]


def _bracketing(rng, leaves):
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randint(1, len(leaves) - 1)
    return (_bracketing(rng, leaves[:k]), _bracketing(rng, leaves[k:]))


def test_normal_form_matches_the_tensor_solve_on_fuzz_presentations():
    rng = random.Random(31)
    for _ in range(12):
        p = random_presentation(rng, max_gens=3, max_degree=4)
        names = [n for n, _ in p.generators.entries]
        expressions = [v.terms() for v in p.differential.values()]
        while len(expressions) < 8:
            leaves = [rng.choice(names) for _ in range(rng.randint(1, 4))]
            if p.dim(sum(p.generators.degree(n) for n in leaves)) > 200:
                continue
            terms = []
            for _ in range(rng.randint(1, 4)):
                rng.shuffle(leaves)
                terms.append((rng.choice(_FRACTIONAL), _bracketing(rng, leaves)))
            # the first tree again, with its coefficient: a fraction doubles
            expressions.append(terms + terms[:1])
        _assert_tensor_normal_forms(p, expressions)
