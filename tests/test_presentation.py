from fractions import Fraction

import pytest

from dgla.errors import IncompatibleSubs, UnsupportedSub
from dgla.presentation import (
    DgLaPresentation,
    ElementGenerated,
    GeneratorSplit,
    pushout,
    transfer,
)


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
    # equal degrees: flagged
    q = DgLaPresentation([("v", 3), ("w", 3)], {"v": "w"})
    assert ("d_lowers_degree", "v") in q.validate().failures()


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


def test_indecomposables_basis_and_differential():
    t = tilde_w11()
    slc = t.indecomposables("beta")
    # basis: the non-sub generators a, b, gamma
    assert slc.labels(2) == ["a", "b"]
    assert slc.labels(5) == ["gamma"]
    # rel beta the induced differential vanishes (minimality)
    # rel nothing: gamma maps to -beta
    slc0 = t.indecomposables(None)
    col = [row[0] for row in slc0.d_matrix(5)]
    names = slc0.labels(4)
    assert col[names.index("beta")] == Fraction(-1)


def test_indecomposables_all_generators_sub_is_zero():
    p = DgLaPresentation([("a", 2), ("b", 2)], None, {"all": {"generators": ["a", "b"]}})
    slc = p.indecomposables("all")
    assert all(slc.dim(d) == 0 for d in range(slc.lo, slc.hi + 1))


def test_element_generated_indec_special_case():
    p = DgLaPresentation(
        [("a", 2), ("b", 2)], None, {"omega": {"elements": ["[a,b]"]}}
    )
    slc = p.indecomposables("omega")
    assert slc.labels(2) == ["a", "b"]
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
    assert q.sub_contains("omega", q.normal_form("[a,b]"))
    assert q.sub_contains("omega", q.zero(8))
    assert not q.sub_contains("omega", q.gen("a"))
    # an odd-degree example where the generated subalgebra grows
    r = DgLaPresentation(
        [("x", 1), ("y", 1)], None, {"s": {"elements": ["[x,x]", "[x,y]"]}}
    )
    assert r.sub_contains("s", r.bracket(r.normal_form("[x,x]"), r.normal_form("[x,y]")))
    assert not r.sub_contains("s", r.normal_form("[y,y]"))


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
