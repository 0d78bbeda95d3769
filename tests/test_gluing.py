from fractions import Fraction

import pytest

from dgla import gluing, io, linalg
from dgla.errors import DimensionMismatch, SemisimplicityNotAsserted
from dgla.gluing import boundary_connected_sum, forget_compare, glue_headline_g
from dgla.graded import betti_numbers
from dgla.models import build_block_g, manifold_model
from dgla.morphisms import check_morphism

from oracles import extend_derivation_by_names


def w11():
    return manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))


def twisted9():
    return manifold_model(
        9,
        [("a", 2), ("x", 3), ("b", 4), ("y", 5)],
        linalg.matrix(4, 4, [(0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, -1)]),
        None,
        {3: [1]},
    )


def test_connected_sum_w21():
    m = w11()
    n = w11()
    mn = boundary_connected_sum(m, n)
    assert [g for g, _ in mn.v.basis.entries] == ["a", "b", "a'", "b'"]
    assert mn.omega == mn.presentation.normal_form("[a,b]+[a',b']")
    # pairing stays unimodular (construction would have raised otherwise)
    assert len(mn.v.basis) == 4


def test_connected_sum_records_the_pushout_inclusions(fixture_path):
    # the sum's presentation is the free product of the factors': each
    # inclusion is a dg map onto its factor's generators, and omega adds
    m, n = (io.load_manifold(io.load_json_file(fixture_path(f))) for f in ("cp2.json", "cp2.json"))
    mn = boundary_connected_sum(m, n)
    inc_m, inc_n = mn.inclusions
    assert inc_m.source is m.presentation and inc_n.source is n.presentation
    assert inc_m.target is inc_n.target is mn.presentation
    assert check_morphism(inc_m).passed and check_morphism(inc_n).passed
    assert mn.presentation.subalgebras.keys() == {"omega"}
    assert mn.omega == inc_m.apply(m.omega) + inc_n.apply(n.omega)


def test_connected_sum_certifies_omega_additivity():
    # the sum's presentation is built with the sub omega_M + omega_N, which
    # the model checks against the sum's own omega: a factor whose omega is
    # not its model's is refused
    m, n = w11(), w11()
    n.omega = n.omega.scale(2)
    with pytest.raises(ValueError, match="omega"):
        boundary_connected_sum(m, n)


def test_connected_sum_with_trivial_model():
    m = w11()
    point = manifold_model(6, [], [])
    mn = boundary_connected_sum(m, point)
    assert [g for g, _ in mn.v.basis.entries] == ["a", "b"]
    assert mn.omega == mn.presentation.normal_form("[a,b]")


def test_connected_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hp2 = manifold_model(8, [("u", 3)], linalg.matrix(1, 1, [(0, 0, 1)]))
        boundary_connected_sum(w11(), hp2)


def test_connected_sum_associative_dimensionwise():
    m = w11()
    left = boundary_connected_sum(boundary_connected_sum(m, m), m)
    right = boundary_connected_sum(m, boundary_connected_sum(m, m))
    for d in range(1, 4):
        assert left.v.basis.dim(d) == right.v.basis.dim(d)
    # omega agrees after identifying bases by position
    assert left.omega.coords == right.omega.coords


def test_connected_sum_carries_pontryagin():
    m = twisted9()
    n = twisted9()
    mn = boundary_connected_sum(m, n)
    assert mn.pontryagin[3] == [Fraction(1), Fraction(1)]


def test_glue_headline_g_dimensions_add_on_hom_part():
    m, n = w11(), w11()
    mn = boundary_connected_sum(m, n)
    gm = build_block_g(m, (0, 2))
    gn = build_block_g(n, (0, 2))
    gmn = build_block_g(mn, (0, 2))
    assert gmn.dim(0) == 4 == gm.dim(0) + gn.dim(0)
    gmap = glue_headline_g(
        gm, gn, gmn, *mn.inclusions, assert_semisimple=True
    )
    assert gmap.report.passed
    # section property: the map is injective degreewise, so restriction back
    # to either factor recovers its elements
    for d in range(0, 3):
        cols = gm.dim(d) + gn.dim(d)
        if cols:
            assert linalg.rank(gmap.blocks[d], cols) == cols


@pytest.mark.parametrize("left, right, hi", [("w21", "w11", 4), ("w11", "w11", 4)])
def test_derivations_extend_through_the_inclusion_as_through_names(
    left, right, hi, fixture_path, monkeypatch
):
    # every basis derivation of each factor, extended by zero through its
    # inclusion into the glued presentation, against the name round trip on
    # the inclusion's generator names: entry for entry, type for type (w11
    # has no nonzero basis derivation below degree 4)
    m, n = (io.load_manifold(io.load_json_file(fixture_path(f + ".json"))) for f in (left, right))
    mn = boundary_connected_sum(m, n)
    gmn = build_block_g(mn, (0, hi))
    built = []
    extend = gluing.extend_by_zero

    def recorded(*args):
        built.append(extend(*args))
        return built[-1]

    monkeypatch.setattr(gluing, "extend_by_zero", recorded)
    nonzero = 0
    for model, inc in zip((m, n), mn.inclusions):
        names = {}
        for x, img in inc.images.items():
            ((c, names[x]),) = img.terms()
            assert c == 1
        g = build_block_g(model, (0, hi))
        for d in range(0, hi + 1):
            built.clear()
            list(gluing._factor_entries(g, gmn, inc, d, 0))
            assert len(built) == g.acting.dim(d)
            for theta, got in zip(g.acting.derivations[d], built):
                want = extend_derivation_by_names(theta, gmn.acting.p, names)
                assert list(got.values) == list(want.values)
                for name, v in want.values.items():
                    w = got.values[name]
                    assert (w.degree, list(w.coords.items())) == (v.degree, list(v.coords.items()))
                    assert [type(c) for c in w.coords.values()] == [type(c) for c in v.coords.values()]
                nonzero += bool(want.values)
    assert nonzero


def test_glue_requires_assertion():
    m, n = w11(), w11()
    mn = boundary_connected_sum(m, n)
    gm = build_block_g(m, (0, 1))
    gn = build_block_g(n, (0, 1))
    gmn = build_block_g(mn, (0, 1))
    with pytest.raises(SemisimplicityNotAsserted):
        glue_headline_g(gm, gn, gmn, *mn.inclusions)


def test_glue_twisted_factors():
    m, n = twisted9(), twisted9()
    mn = boundary_connected_sum(m, n)
    gm = build_block_g(m, (0, 2))
    gn = build_block_g(n, (0, 2))
    gmn = build_block_g(mn, (0, 2))
    gmap = glue_headline_g(
        gm, gn, gmn, *mn.inclusions, assert_semisimple=True
    )
    assert gmap.report.passed


def test_glue_d_compatibility_failure_witnessed(monkeypatch):
    from dgla import gluing
    from dgla.errors import SubMismatch

    m = twisted9()
    mn = boundary_connected_sum(m, m)
    g, gmn = build_block_g(m, (0, 1)), build_block_g(mn, (0, 1))
    factor_entries = gluing._factor_entries

    def corrupted(g_factor, g_glued, inc, d, col):
        # one stray block entry: the left factor's degree-1 column 0, a
        # cycle, also hits glued column 1, whose differential is nonzero
        yield from factor_entries(g_factor, g_glued, inc, d, col)
        if d == 1 and col == 0:
            yield (1, 0, Fraction(1))

    monkeypatch.setattr(gluing, "_factor_entries", corrupted)
    with pytest.raises(SubMismatch) as exc:
        glue_headline_g(g, g, gmn, *mn.inclusions, assert_semisimple=True)
    assert str(exc.value) == (
        "gluing map failed verification: [('glue_commutes_with_d', ('d_compat', 1, 0))]"
    )


def test_glue_d_compatibility_reports_the_first_of_two_failures(monkeypatch):
    from dgla import gluing
    from dgla.errors import SubMismatch

    m = twisted9()
    mn = boundary_connected_sum(m, m)
    g, gmn = build_block_g(m, (0, 1)), build_block_g(mn, (0, 1))
    factor_entries = gluing._factor_entries

    def corrupted(g_factor, g_glued, inc, d, col):
        # stray entries: the left factor's degree-1 columns 0 and 1 both also
        # hit glued basis element 1, whose differential is nonzero, so both fail
        yield from factor_entries(g_factor, g_glued, inc, d, col)
        if d == 1 and col == 0:
            yield (1, 0, Fraction(1))
            yield (1, 1, Fraction(1))

    monkeypatch.setattr(gluing, "_factor_entries", corrupted)
    with pytest.raises(SubMismatch) as exc:
        glue_headline_g(g, g, gmn, *mn.inclusions, assert_semisimple=True)
    assert str(exc.value) == (
        "gluing map failed verification: [('glue_commutes_with_d', ('d_compat', 1, 0))]"
    )


def test_glue_with_trivial_factor_is_injection():
    m = w11()
    point = manifold_model(6, [], [])
    mn = boundary_connected_sum(m, point)
    gm = build_block_g(m, (0, 2))
    gp = build_block_g(point, (0, 2))
    gmn = build_block_g(mn, (0, 2))
    assert all(gp.dim(d) == 0 for d in range(3))
    gmap = glue_headline_g(
        gm, gp, gmn, *mn.inclusions, assert_semisimple=True
    )
    for d in range(0, 3):
        nl = gm.dim(d)
        for j in range(nl):
            assert gmap.apply(d, {j: Fraction(1)}, {})


def test_forget_compare_w11_ranks_agree():
    rows = forget_compare(w11(), (0, 4))
    assert [r["degree"] for r in rows] == [0, 1, 2, 3]
    for r in rows:
        assert r["left_agrees"] and r["right_agrees"]


def test_forget_compare_leaves_no_leibniz_memo(fixture_path, monkeypatch):
    # the pair space evaluates each left basis derivation at m's generator
    # images; the memo that builds must not outlive the pullback
    built = []
    pullback = gluing.forget_pullback

    def recorded(*args):
        built.append(pullback(*args))
        return built[-1]

    monkeypatch.setattr(gluing, "forget_pullback", recorded)
    m = io.load_manifold(io.load_json_file(fixture_path("w21.json")))
    forget_compare(m, (0, 3))
    (_, left, right, _), = built
    basis = [th for slc in (left, right) for ths in slc.derivations.values() for th in ths]
    assert sum(len(left.derivations[n]) for n in left.derivations) == 4
    assert [th for th in basis if th._ext is not None] == []


def test_forget_compare_reports_all_three():
    rows = forget_compare(twisted9(), (0, 3))
    for r in rows:
        assert set(r) == {
            "degree",
            "left",
            "pullback",
            "right",
            "left_agrees",
            "right_agrees",
        }


def test_w21_block_dimensions_pinned():
    # frozen from the construction and confirmed by the d^2/Jacobi checks:
    # Hom part 4 in degree 0, Der_u part 0; positive degrees grow
    m = boundary_connected_sum(w11(), w11())
    g = build_block_g(m, (0, 3))
    g.check_d_squared()
    assert g.dim(0) == 4
    b = betti_numbers(g.to_chain(), (0, 2))
    assert b[0] == 4
