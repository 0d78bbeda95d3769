"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions hold (run with -s to see
them) and enforces the stated time budget.  Expected values are either
computed here by independent oracles (plain Gaussian elimination, tensor
brute force, matrix logarithms) or are exact identities.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dgla import io as io_mod
from dgla import linalg
from dgla.cli import run as cli_run
from dgla.ce import ce_cohomology, ce_product_check
from dgla.derivations import (
    Derivation,
    der_bracket,
    der_complex,
    der_differential,
    deru,
)
from dgla.expmc import bch, exp_automorphism, gauge_action, gauge_action_adjoint, mc_check
from dgla.gluing import boundary_connected_sum
from dgla.graded import betti_numbers
from dgla.models import (
    _HomModule,
    build_block_g,
    build_g,
    manifold_model,
    outer_action_check,
    pi_so_basis,
    tilde_model,
)
from dgla.morphisms import GeneratorMorphism, check_morphism, invert_automorphism
from dgla.presentation import DgLaPresentation, GeneratorSplit, pushout
from dgla.slices import DgLieSlice, SliceElement
from oracles import (
    brute_force_lie_dims,
    full_hom_outer_action,
    gauss_rank,
    random_presentation,
    random_unipotent_automorphism,
)

PRESENTATION_FIXTURES = ["s2.json", "tilde_w11.json", "presentation_w11.json"]
MANIFOLD_FIXTURES = [
    "w11.json",
    "w21.json",
    "s4s4.json",
    "hp2.json",
    "hp2_sum.json",
    "cp2.json",
    "twisted9.json",
]


def _load_presentation(fixture_path, name):
    return io_mod.load_presentation(io_mod.load_json_file(fixture_path(name)))


def _load_manifold(fixture_path, name):
    return io_mod.load_manifold(io_mod.load_json_file(fixture_path(name)))


def _passline(n, text):
    print("PASS criterion %d: %s" % (n, text))


def _jacobi_samples(p, rng, budget=12, word_cap=600):
    degs = sorted({d for _, d in p.generators.entries})
    basis_elems = []
    for d in degs:
        for b in p.lie_basis(d):
            basis_elems.append((d, b))
    count = 0
    rng.shuffle(basis_elems)
    for (d1, b1), (d2, b2), (d3, b3) in itertools.product(basis_elems[:4], repeat=3):
        total = d1 + d2 + d3
        est = len(p.lie_basis(total)) if total <= 3 * max(degs or [1]) else 0
        if est > word_cap:
            continue
        if count >= budget:
            break
        count += 1
        x = p.element_from_vector(d1, _unit_vec(p.dim(d1), _index_of(p, d1, b1)))
        y = p.element_from_vector(d2, _unit_vec(p.dim(d2), _index_of(p, d2, b2)))
        z = p.element_from_vector(d3, _unit_vec(p.dim(d3), _index_of(p, d3, b3)))
        lhs = p.bracket(x, p.bracket(y, z))
        sign = -1 if (d1 * d2) % 2 else 1
        rhs = p.bracket(p.bracket(x, y), z) + p.bracket(y, p.bracket(x, z)).scale(sign)
        assert lhs == rhs


def _unit_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _index_of(p, d, b):
    return p.lie_basis(d).index(b)


def test_criterion_1_structural_soundness(fixture_path):
    start = time.monotonic()
    rng = random.Random(2024)
    for name in PRESENTATION_FIXTURES:
        p = _load_presentation(fixture_path, name)
        assert p.validate().passed, name
        _jacobi_samples(p, rng, budget=6)
    for name in MANIFOLD_FIXTURES:
        m = _load_manifold(fixture_path, name)
        assert m.presentation.validate().passed, name
        _jacobi_samples(m.presentation, rng, budget=4)
    for k in range(200):
        p = random_presentation(rng, max_gens=4, max_degree=5)
        rep = p.validate()
        assert rep.passed, (k, rep.failures())
        if k % 10 == 0:
            _jacobi_samples(p, rng, budget=4)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, elapsed
    _passline(1, "d^2 = 0 and graded Jacobi on fixtures and 200 random presentations (%.1fs)" % elapsed)


def test_criterion_2_free_lie_dimensions():
    start = time.monotonic()
    from dgla.freelie import basis_in_degree, is_lyndon
    from oracles import words_of_degree

    multisets = []
    for size in (1, 2, 3):
        for degs in itertools.combinations_with_replacement(range(1, 5), size):
            multisets.append(degs)
    multisets.append((1, 1, 2, 2))
    multisets.append((2, 2, 2, 2))
    for degs in multisets:
        brute = brute_force_lie_dims(list(degs), 5)
        # library counts per (length, degree), enumerated by word length so
        # the comparison is complete for all lengths <= 5
        lib = {}
        n = len(degs)
        words = [[]]
        for _ in range(5):
            words = [w + [i] for w in words for i in range(n)]
            for w in words:
                if is_lyndon(tuple(w)):
                    key = (len(w), sum(degs[i] for i in w))
                    lib[key] = lib.get(key, 0) + 1
        # odd squares: [b(u), b(u)] for odd-degree Lyndon u with 2|u| <= 5
        uwords = [[]]
        for _ in range(2):
            uwords = [w + [i] for w in uwords for i in range(n)]
            for w in uwords:
                deg = sum(degs[i] for i in w)
                if is_lyndon(tuple(w)) and deg % 2 == 1:
                    key = (2 * len(w), 2 * deg)
                    if 2 * len(w) <= 5:
                        lib[key] = lib.get(key, 0) + 1
        assert lib == brute, degs
        # spot-check the lie_basis operation itself on affordable degrees
        p = DgLaPresentation([("g%d" % i, d) for i, d in enumerate(degs)])

        def word_count(dd, _degs=degs, _memo={}):
            key = (dd, _degs)
            if key not in _memo:
                if dd == 0:
                    _memo[key] = 1
                elif dd < 0:
                    _memo[key] = 0
                else:
                    _memo[key] = sum(word_count(dd - g) for g in _degs)
            return _memo[key]

        for d in range(1, min(5 * max(degs), 12) + 1):
            if word_count(d) > 4000:
                continue
            got = {}
            for b in p.lie_basis(d):
                if b.length <= 5:
                    got[b.length] = got.get(b.length, 0) + 1
            expected = {l: c for (l, dd), c in brute.items() if dd == d and l <= 5}
            assert got == expected, (degs, d)
    elapsed = time.monotonic() - start
    _passline(2, "lie_basis sizes match the tensor brute force on %d multisets (%.1fs)" % (len(multisets), elapsed))


def test_criterion_3_indecomposables(fixture_path):
    start = time.monotonic()
    rng = random.Random(77)
    for k in range(20):
        p = random_presentation(rng, max_gens=4, max_degree=5)
        names = [n for n, _ in p.generators.entries]
        subnames = [n for n in names if rng.random() < 0.4]
        sub_ok = True
        for n in subnames:
            dv = p.d_gen(n)
            if not dv.is_zero() and not p.in_generator_span(dv, subnames):
                sub_ok = False
        if not sub_ok:
            continue
        p = DgLaPresentation(p.generators.entries, p.differential, {"s": GeneratorSplit(subnames)})
        slc = p.indecomposables("s")
        expected = {}
        for n, d in p.generators.entries:
            if n not in subnames:
                expected[d] = expected.get(d, 0) + 1
        for d in range(slc.lo, slc.hi + 1):
            assert slc.dim(d) == expected.get(d, 0)
    # pushout additivity on fixture-grade pairs
    p = DgLaPresentation(
        [("s", 2), ("x", 3), ("y", 4)], None, {"s": {"generators": ["s"]}}
    )
    q = DgLaPresentation(
        [("s", 2), ("z", 3), ("w", 9)], {"w": "[z,[s,z]]"},
        {"s": {"generators": ["s"]}},
    )
    po, _, _ = pushout(p, q, "s")
    a, b, c = p.indecomposables("s"), q.indecomposables("s"), po.indecomposables("s")
    for d in range(1, 8):
        da = a.dim(d) if a.lo <= d <= a.hi else 0
        db = b.dim(d) if b.lo <= d <= b.hi else 0
        dc = c.dim(d) if c.lo <= d <= c.hi else 0
        assert dc == da + db
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, elapsed
    _passline(3, "relative indecomposables have the non-sub generators as basis; pushouts add (%.1fs)" % elapsed)


def _betti_independent(slc, k0, k1):
    """Second code path: fresh matrix assembly + plain Gauss rank-nullity."""
    dims = {}
    ranks = {}
    for k in range(k0, k1 + 2):
        if not slc.in_window(k):
            ranks[k] = 0
            continue
        dims[k] = slc.dim(k)
        if k == slc.lo:
            ranks[k] = 0
            continue
        rows = []
        layout = slc.layouts[k - 1]
        for th in slc.derivations[k]:
            img = layout.to_vector(der_differential(th))
            rows.append([img.get(j, Fraction(0)) for j in range(layout.total)])
        ranks[k] = gauss_rank(rows) if rows else 0
    return {
        k: dims.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(k0, k1 + 1)
    }


def test_criterion_4_xi_quasi_isomorphism():
    start = time.monotonic()
    for gens, pairing in [
        ([("a", 2), ("b", 2)], [(0, 1, 1), (1, 0, -1)]),
        (
            [("a1", 2), ("b1", 2), ("a2", 2), ("b2", 2)],
            [(0, 1, 1), (1, 0, -1), (2, 3, 1), (3, 2, -1)],
        ),
    ]:
        m = manifold_model(6, gens, linalg.matrix(len(gens), len(gens), pairing))
        tilde, _, _ = tilde_model(m)
        left = deru(m.presentation, "omega", None, (0, 4))
        right = deru(tilde, "beta", None, (0, 4))
        b_left = betti_numbers(left.to_chain(), (0, 3))
        b_right = betti_numbers(right.to_chain(), (0, 3))
        assert b_left == b_right, (gens, b_left, b_right)
        # independent code path: fresh assembly + plain Gauss
        i_left = _betti_independent(left, 0, 3)
        i_right = _betti_independent(right, 0, 3)
        assert i_left == b_left and i_right == b_right
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, elapsed
    _passline(4, "H_k(Der_u(L rel omega)) = H_k(Der_u(L~ rel beta)) for k <= 3 on W11 and W21, two code paths (%.1fs)" % elapsed)


def test_criterion_5_omega_invariants(fixture_path):
    start = time.monotonic()
    for name in MANIFOLD_FIXTURES:
        m = _load_manifold(fixture_path, name)
        assert m.presentation.differential_of(m.omega).is_zero(), name
    # basis independence under 20 random form-preserving changes
    rng = random.Random(55)
    m = _load_manifold(fixture_path, "w21.json")
    p = m.presentation
    names = [n for n, _ in p.generators.entries]
    pair = {(i, j): c for i, j, c in linalg.entries(m.v.pairing)}
    count = 0
    while count < 20:
        # random symplectic transvection x -> x + c <x, v> v on degree-2 gens
        v = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        c = Fraction(rng.randint(-2, 2))
        if not any(v) or c == 0:
            continue
        count += 1
        images = {}
        for i, nm in enumerate(names):
            coeff = sum(pair.get((i, k), 0) * v[k] for k in range(4))
            img = p.gen(nm)
            extra = p.zero(2)
            for k2, nm2 in enumerate(names):
                if v[k2]:
                    extra = extra + p.gen(nm2).scale(v[k2])
            images[nm] = img + extra.scale(c * coeff)
        f = GeneratorMorphism(p, p, images)
        # verify the form is preserved, then omega invariance
        lin = {(k, i): c for k, i, c in linalg.entries(f.linear_block(2))}
        gprime = {
            (i, j): sum(
                lin.get((k, i), 0) * pair.get((k, l), 0) * lin.get((l, j), 0)
                for k in range(4)
                for l in range(4)
            )
            for i in range(4)
            for j in range(4)
        }
        assert {ij: c for ij, c in gprime.items() if c} == pair
        assert f.apply(m.omega) == m.omega
    # additivity under boundary connected sum
    m1 = _load_manifold(fixture_path, "w11.json")
    m2 = _load_manifold(fixture_path, "w11.json")
    mn = boundary_connected_sum(m1, m2)
    assert mn.omega == mn.presentation.normal_form("[a,b]+[a',b']")
    elapsed = time.monotonic() - start
    _passline(5, "omega closed on all fixtures, invariant under 20 symplectic changes, additive (%.1fs)" % elapsed)


def _random_filtration_derivation(rng, p, names):
    vals = {}
    for name in names:
        deg = p.generators.degree(name)
        basis = p.lie_basis(deg)
        vec = [
            Fraction(rng.randint(-1, 1)) if not isinstance(b.tree, int) else Fraction(0)
            for b in basis
        ]
        if any(vec):
            vals[name] = p.element_from_vector(deg, vec)
    return Derivation(p, 0, vals)


def test_criterion_6_exponential_bch():
    start = time.monotonic()
    rng = random.Random(99)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 4), ("e", 6), ("f", 8)])
    ident = GeneratorMorphism.identity(p)
    from dgla.expmc import _check_class

    done = 0
    while done < 50:
        th = _random_filtration_derivation(rng, p, ("c", "e", "f"))
        ps = _random_filtration_derivation(rng, p, ("c", "e", "f"))
        _check_class(th, ps, der_bracket, 3)
        z = bch(th, ps, der_bracket, 3)
        assert exp_automorphism(z) == exp_automorphism(th).compose(exp_automorphism(ps))
        assert exp_automorphism(th).compose(exp_automorphism(th.scale(-1))) == ident
        done += 1
    elapsed = time.monotonic() - start
    _passline(6, "e(bch) = e.e and e(theta)e(-theta) = id on 50 nilpotent pairs of class <= 3 (%.1fs)" % elapsed)


def _indec_matrix_nilpotent(theta, sub):
    from dgla.morphisms import indec_action

    m = indec_action(theta, sub)
    for d in sorted(m.source._by_degree):
        block = m.block(d)
        if not block:
            continue
        power = block
        for _ in range(len(block) + 1):
            power = linalg.matmul(power, block)
        if not linalg.is_zero_matrix(power):
            return False
    return True


def test_criterion_7_gauge_mc(fixture_path):
    start = time.monotonic()
    checked = 0
    # (a) adjoint gauge on derivation slices of the stabilized models of
    # every fixture, acting by degree-0 elements with nilpotent linear part
    for name in MANIFOLD_FIXTURES:
        m = _load_manifold(fixture_path, name)
        tilde, _, _ = tilde_model(m)
        slc = der_complex(tilde, "beta", (-2, 1))
        nil = [
            SliceElement.unit(slc, 0, i)
            for i in range(slc.dim(0))
            if not slc.derivations[0][i].is_zero()
            and _indec_matrix_nilpotent(slc.derivations[0][i], "beta")
        ]
        taus = [SliceElement.zero(slc, -1)]
        for i in range(slc.dim(-1)):
            t = SliceElement.unit(slc, -1, i)
            if mc_check(t)[0]:
                taus.append(t)
        for th in nil[:3]:
            for tau in taus[:3]:
                out = gauge_action_adjoint(th, tau)
                ok, res = mc_check(out)
                assert ok, (name, res.vector)
                checked += 1
        assert nil or name in ("hp2.json", "s4s4.json"), name
    # (b) the twisted block outer action with chi = p_*
    m = _load_manifold(fixture_path, "hp2_sum.json")
    p = m.presentation
    pi = pi_so_basis(4)
    rho = m.pontryagin_map(p, pi)
    hm = _HomModule(p, None, pi, (-1, 1))
    module = hm.full
    acting = der_complex(p, "omega", (0, 1))

    act = full_hom_outer_action(hm, acting, rho)
    th_der = Derivation(p, 0, {"x": p.gen("u"), "u": p.gen("y").scale(-1)}, rel="omega")
    assert hm.chi_induced(0, hm.induced_map(th_der), rho), "the block twist must be nonzero here"
    th = SliceElement(acting, 0, acting.coords(th_der, 0))
    for j in range(module.dim(-1)):
        tau = SliceElement.unit(module, -1, j)
        assert mc_check(tau)[0]
        out = gauge_action(th, tau, act)
        ok, res = mc_check(out)
        assert ok and res.is_zero()
        checked += 1
    moved = gauge_action(th, SliceElement.zero(module, -1), act)
    assert not moved.is_zero()
    elapsed = time.monotonic() - start
    _passline(7, "gauge outputs pass mc_check on %d cases incl. the p_* twist (%.1fs)" % (checked, elapsed))


def test_criterion_8_ce_oracles():
    start = time.monotonic()
    from oracles import exterior_polynomial_ce_betti

    ab2 = DgLieSlice((0, 8), {**{d: [] for d in range(9)}, 2: ["x"]})
    assert ce_cohomology(ab2, 1, (0, 6)) == exterior_polynomial_ce_betti([3], 0, 6)
    ab1 = DgLieSlice((0, 8), {**{d: [] for d in range(9)}, 1: ["x"]})
    assert ce_cohomology(ab1, 1, (0, 6)) == exterior_polynomial_ce_betti([2], 0, 6)

    # basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f
    tab = {
        (0, 0, 0, 1): {2: 1}, (0, 1, 0, 0): {2: -1},
        (0, 2, 0, 0): {0: 2}, (0, 0, 0, 2): {0: -2},
        (0, 2, 0, 1): {1: -2}, (0, 1, 0, 2): {1: 2},
    }
    sl2 = DgLieSlice((0, 0), {0: ["e", "f", "h"]},
                     bracket_fn=lambda *pair: tab.get(pair, {})).pad_to(0, 5)
    assert ce_cohomology(sl2, 1, (0, 3)) == {0: 1, 1: 0, 2: 0, 3: 1}
    # Kunneth in degrees 0..4 on product fixtures
    assert ce_product_check(sl2, ab2, 1, 1, (0, 4)).passed
    assert ce_product_check(ab1, ab2, 2, 1, (0, 4)).passed
    m = manifold_model(6, [("a", 2), ("b", 2)], linalg.matrix(2, 2, [(0, 1, 1), (1, 0, -1)]))
    tilde, _, _ = tilde_model(m)
    g = deru(tilde, "beta", None, (0, 4))
    assert ce_product_check(g, g, 1, 1, (0, 3)).passed
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, elapsed
    _passline(8, "CE betti match exterior/polynomial/Whitehead oracles; Kunneth holds (%.1fs)" % elapsed)


def test_criterion_9_outer_action_axioms(fixture_path):
    start = time.monotonic()
    for name in MANIFOLD_FIXTURES:
        m = _load_manifold(fixture_path, name)
        p = m.presentation
        top = max((d for _, d in m.v.basis.entries), default=0) + 1
        pi = pi_so_basis(top)
        rho = m.pontryagin_map(p, pi)
        hm = _HomModule(p, None, pi, (-1, 2))
        module = hm.full
        module.zero_below = False
        acting = deru(p, "omega", rho, (0, 2))

        act = full_hom_outer_action(hm, acting, rho)
        rep = outer_action_check(act)
        assert rep.passed, (name, rep.failures())
    elapsed = time.monotonic() - start
    _passline(9, "outer-action axioms hold for the block (f.theta, p_*) on all fixtures (%.1fs)" % elapsed)


def test_criterion_10_block_dimensions(fixture_path):
    start = time.monotonic()
    m = _load_manifold(fixture_path, "w11.json")
    g = build_block_g(m, (0, 4))
    assert g.dim(0) == 2
    # brute-force confirmation of the two summands
    # Hom part: functionals s v -> pi_3 with |s v| = 3: one per generator
    hom_dim = sum(1 for _, d in m.v.basis.entries if d + 1 == 3)
    assert hom_dim == 2
    # Der_u part: solve directly for degree-0 derivations with zero linear
    # part and theta(omega) = 0: values live in the decomposables of degree 2
    p = m.presentation
    decomp_dim = sum(
        1 for b in p.lie_basis(2) if not isinstance(b.tree, int)
    ) * len(p.generators.entries)
    assert decomp_dim == 0  # no decomposables in degree 2 at all
    assert g.dim(0) == hom_dim + 0
    # the general build on the tilde triple reproduces the block homology
    tilde, _, _ = tilde_model(m)
    pi = pi_so_basis(max(d for _, d in m.v.basis.entries) + 1)
    rho = m.pontryagin_map(tilde, pi)
    general = build_g(tilde, None, "beta", rho, None, (0, 4))
    bg = betti_numbers(general.to_chain(), (0, 3))
    bb = betti_numbers(g.to_chain(), (0, 3))
    assert bg == bb, (bg, bb)
    elapsed = time.monotonic() - start
    _passline(10, "block g~ of S3xS3 minus a disk has degree-0 dimension 2 = 2 + 0; tilde build agrees, H_0..3 %s (%.1fs)" % (sorted(bb.items()), elapsed))


def test_criterion_11_automorphism_inversion():
    start = time.monotonic()
    rng = random.Random(1234)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 4), ("e", 6)])
    tilde = DgLaPresentation(
        [("v", 1), ("w", 3), ("beta", 4), ("gamma", 5)],
        {"w": "1/2*[v,v]", "gamma": "[v,w]-beta"},
        {"beta": {"generators": ["beta"]}},
    )
    ident_p = GeneratorMorphism.identity(p)
    ident_t = GeneratorMorphism.identity(tilde)
    done = 0
    while done < 22:
        f = random_unipotent_automorphism(rng, p)
        g = invert_automorphism(f)
        assert g.compose(f) == ident_p and f.compose(g) == ident_p
        done += 1
    while done < 30:
        th = Derivation(
            tilde,
            0,
            {"gamma": tilde.normal_form("[v,[v,w]]").scale(rng.randint(-2, 2))},
            rel="beta",
            check=False,
        )
        ps = Derivation(
            tilde,
            0,
            {"gamma": tilde.normal_form("[v,beta]").scale(rng.randint(-2, 2))},
            rel="beta",
            check=False,
        )
        f = exp_automorphism(th).compose(exp_automorphism(ps))
        g = invert_automorphism(f, rel="beta")
        assert g.compose(f) == ident_t and f.compose(g) == ident_t
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, elapsed
    _passline(11, "30 random filtration-unipotent automorphisms inverted exactly (%.1fs)" % elapsed)


CLI_CORPUS = [
    ("check", ["s2.json"], []),
    ("check", ["tilde_w11.json"], []),
    ("homology", ["s2.json"], ["--min", "1", "--max", "3"]),
    ("model", ["w11.json"], []),
    ("model", ["twisted9.json"], []),
    ("tilde", ["w11.json"], []),
    ("xi", ["w11.json"], ["--min", "0", "--max", "2"]),
    ("block-g", ["w11.json"], ["--min", "0", "--max", "3"]),
    ("der", ["presentation_w11.json"], ["--sub", "omega", "--min", "0", "--max", "3"]),
    ("ce", ["sl2.json"], ["--min", "0", "--max", "3"]),
    ("ce", ["heisenberg.json"], ["--min", "0", "--max", "3"]),
    ("mc", ["mc_slice.json"], []),
    ("homotopy", ["homotopy_interp.json"], []),
    ("connected-sum", ["w11.json", "w11.json"], []),
    ("forget", ["w11.json"], ["--min", "0", "--max", "3"]),
    ("glue", ["w11.json", "w11.json"], ["--min", "0", "--max", "2", "--assert-semisimple"]),
    ("g", ["tilde_w11.json"], ["--sub", "beta", "--sub-b", "beta", "--min", "0", "--max", "2", "--assert-semisimple"]),
    ("indec", ["tilde_w11.json"], ["--sub", "beta"]),
    ("exp", ["presentation_w11.json"], ["--derivation", "@exp_derivation.json"]),
]


def test_criterion_12_determinism(fixture_path, tmp_path):
    start = time.monotonic()
    bodies = [[], []]
    for round_ in (0, 1):
        for i, (cmd, files, flags) in enumerate(CLI_CORPUS):
            argv = [cmd] + [fixture_path(f) for f in files]
            argv += [fixture_path(a[1:]) if a.startswith("@") else a for a in flags]
            out = tmp_path / ("r%d_%d.json" % (round_, i))
            argv += ["--out", str(out)]
            code, _ = cli_run(argv)
            assert code in (0, 1), (cmd, code)
            payload = json.loads(out.read_text())
            bodies[round_].append(io_mod.canonical_dumps(payload["report"]))
    assert bodies[0] == bodies[1]
    elapsed = time.monotonic() - start
    _passline(12, "byte-identical report bodies across two runs of %d commands (%.1fs)" % (len(CLI_CORPUS), elapsed))


# SHA-256 of each CLI_CORPUS report body, run from the repository root with
# fixture paths relative to it (a report names its input paths).  Pinned
# from an earlier commit, so a change that alters any report fails here;
# criterion 12 only compares two runs of the same code.
CORPUS_REPORT_SHA256 = [
    "736bcbad150f3db649be9fc3a3ba8e22e9e942582656aae9bd186c4104413506",
    "92160f96dab8dc4c485b0cb03c7046ffefa6270dece846a1e7360441d3a4f467",
    "c0f553d383fb7ac731d12f54dec666ddf957e927addd4f7cde660c44ffb53a1f",
    "262332b8816973eec567c8e73743ab2c57a6b0fbb673fa7f5431985f7713b332",
    "83e9cd34f4e27563a607e1a5b6f17e564367a72c01574d8f119478a66b4488c5",
    "7853165f2a8bba59be8dab4faea97897b90ba16a0acf5983793cf0ab42a514ae",
    "e6c8aa5a8c1a91b7fa494f18c7b3c85a9dd5d999d61563053fd1843a2f4ee993",
    "6dba636eca26b1d725db5c012e73c72a53e9f433f907f15a45e8be4cdc71f745",
    "46fbface5f4e09314fc737ed3937f8e36151c2bf48608bc49eb6f63e6d7625ac",
    "981f4e402556b9fcd80bd027d9d8f5fdcf7932bb96a3a2130f321e0fa0d2270a",
    "878c55a2caf4cc104a35a9ec96848e627d7c6cdea96ae160f5f50a2680d9486a",
    "c1f663480dc66a3e84fff3ede0bdc9857a3a53efb482acf0beeb170ed70ba237",
    "ae62acc8b6a4409b4617c3ccbb418e0564a4aada34ec7865ac6faef9dd8b7662",
    "d6e8456d4258986d373a3032ae7e61a494cb626c3f099191813d8350bfc3d770",
    "cd67f3b3206f80b723bb5938cf4d01cf713394b4b8688bd4c43833d46f5ab57d",
    "ab8d7f62722d66790fbe627980fb73a23fd5cbb97c7134961610753726a2fc2b",
    "a300c681b39f922a84c0f6bb567e28b0319a9b95457ee65f92cfa6e463e8202a",
    "9a0049c4293f6e3e870858171ad023b101198ce34c1b14dc7a8a876a9445a9ff",
    "740f4898032c1e01f9ec4fd49091c3a402d4c00af5176aa4aa747182f9a2e60f",
]


def test_corpus_report_bodies_match_pinned_digests(monkeypatch, tmp_path):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    digests = []
    for i, (cmd, files, flags) in enumerate(CLI_CORPUS):
        argv = [cmd] + [os.path.join("fixtures", f) for f in files]
        argv += [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]
        out = tmp_path / ("r%d.json" % i)
        code, _ = cli_run(argv + ["--out", str(out)])
        assert code in (0, 1), (cmd, code)
        body = io_mod.canonical_dumps(json.loads(out.read_text())["report"])
        digests.append(hashlib.sha256(body.encode()).hexdigest())
    assert digests == CORPUS_REPORT_SHA256


# Report SHA-256 of commands whose outer action has a nonzero twist, which
# no CLI_CORPUS command builds (w11's action and twist are both zero), and
# of the action10 commands, whose action operators are nonzero as well
# (generators in degrees 2, 3, 5 and 6 under pi_3 and pi_7).  Pinned from
# an earlier commit, as CORPUS_REPORT_SHA256 is.
TWISTED_REPORT_SHA256 = [
    ("block-g", ["twisted9.json"], ["--min", "0", "--max", "4"],
     "68b8b3f9a47009d7f8b5410bb1d04b41662341db52f0d0f1a205214a6d8235e9"),
    ("g", ["presentation_twisted9.json"], ["--rho", "@rho_twisted9.json", "--min", "0", "--max", "3"],
     "3e2e74589ef4d533e4489991887e65b58f8ada90a82703dd59c85781081b4fca"),
    ("glue", ["twisted9.json", "twisted9.json"],
     ["--min", "0", "--max", "2", "--assert-semisimple"],
     "a2825247a8a4907d3ad5f8ad1ede46aef44561ec7ea75703079e9f86b2626072"),
    ("block-g", ["action10.json"], ["--min", "0", "--max", "6"],
     "67c299ee0fe2441035bab6c72fef4afd0f87260ca0e54c5f21b39720126e457b"),
    ("glue", ["action10.json", "ab10.json"],
     ["--min", "0", "--max", "6", "--assert-semisimple"],
     "69258d5d5651dc52210ddabebff4034b2d3aba18ba1de2c374fa00311828dfbc"),
]


@pytest.mark.parametrize("cmd, files, flags, digest", TWISTED_REPORT_SHA256,
                         ids=["block-g", "g", "glue", "block-g-action10", "glue-action10"])
def test_twisted_report_bodies_match_pinned_digests(cmd, files, flags, digest, monkeypatch, tmp_path):
    assert _report_digest(cmd, files, flags, monkeypatch, tmp_path) == digest


# Report SHA-256 of `check` on a presentation whose element-generated subs
# have d != 0 on their elements, so that `validate` asks
# DgLaPresentation.subalgebra_span whether d keeps each closed, which no
# other pinned command does: "closed" (on u and [x,y], d u = [x,y]) passes,
# "open" (on u alone) fails at element 0, and the command exits 1.  Pinned
# from an earlier commit, as CORPUS_REPORT_SHA256 is.
SUB_CLOSED_REPORT_SHA256 = [
    ("check", ["presentation_closed_sub.json"], [], 1,
     "858e506c133dc5514e9f780e74f58995668b4c88424c3a58ea5ca325bfd04cb5"),
]


@pytest.mark.parametrize("cmd, files, flags, code, digest", SUB_CLOSED_REPORT_SHA256,
                         ids=["check-closed-sub"])
def test_sub_closed_report_bodies_match_pinned_digests(cmd, files, flags, code, digest,
                                                       monkeypatch, tmp_path):
    assert _report_digest(cmd, files, flags, monkeypatch, tmp_path, code) == digest


# Report SHA-256 of `g` on a presentation whose differential has a linear
# part off the designated sub (d y = x on x, y, z), so that the Hom module
# has a nonzero differential, which no other pinned command builds: dims
# 2, 1, 1, 2, 3 and betti 1, 0, 0, 0.  Pinned from an earlier commit, as
# CORPUS_REPORT_SHA256 is.
HOM_LINEAR_D_REPORT_SHA256 = [
    ("g", ["hom_linear_d.json"], ["--sub", "A", "--min", "0", "--max", "4", "--assert-semisimple"],
     "275fa5f280118792bb577f6d168adc670688ca175ad6a667804612bc2235b3cf"),
]


@pytest.mark.parametrize("cmd, files, flags, digest", HOM_LINEAR_D_REPORT_SHA256,
                         ids=["g-hom-linear-d"])
def test_hom_linear_d_report_bodies_match_pinned_digests(cmd, files, flags, digest,
                                                         monkeypatch, tmp_path):
    assert _report_digest(cmd, files, flags, monkeypatch, tmp_path) == digest


def _report_digest(cmd, files, flags, monkeypatch, tmp_path, code=0):
    """SHA-256 of one command's report body, run from the repository root.

    The command must exit with ``code``.
    """
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    argv = [cmd] + [os.path.join("fixtures", f) for f in files]
    argv += [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]
    out = tmp_path / "r.json"
    got, _ = cli_run(argv + ["--out", str(out)])
    assert got == code, (cmd, got)
    body = io_mod.canonical_dumps(json.loads(out.read_text())["report"])
    return hashlib.sha256(body.encode()).hexdigest()


# Report SHA-256 of connected sums and gluings that no other pin covers: a
# factor with a differential (cp2, hp2), Pontryagin values on both sides
# (hp2 # hp2_sum, twisted9 # twisted9) and an empty factor.  Pinned from an
# earlier commit, as CORPUS_REPORT_SHA256 is.
GLUING_REPORT_SHA256 = [
    ("connected-sum", ["cp2.json", "cp2.json"], [],
     "773feee5fe8eb8a8740befd88bee3c2a691c300c343aa900b1467c44c7fb3313"),
    ("connected-sum", ["hp2.json", "hp2_sum.json"], [],
     "637d674917527dbe1fc57b1165df6240a9aed054b911c41aaac5e2aaf43645c4"),
    ("connected-sum", ["empty_model.json", "w11.json"], [],
     "e75b60905ddb228154c9305fe3ea1ab72e07c49bf8f283d4bee063a51f9c4e0c"),
    ("connected-sum", ["twisted9.json", "twisted9.json"], [],
     "3415d6a125ef3235521b277c7b88d0ad61f6c98412c09479c93e08360ffa080e"),
    ("glue", ["cp2.json", "cp2.json"], ["--min", "0", "--max", "2", "--assert-semisimple"],
     "452c038aacafa4225819277511e8368e79b5382bebb56d9d21917b91e7db79e3"),
    ("glue", ["hp2.json", "hp2_sum.json"], ["--min", "0", "--max", "3", "--assert-semisimple"],
     "0b80968870705ab8feb6d263bd7149e003dff979758cfa9a0a7fe175d79047e1"),
    ("glue", ["w11.json", "empty_model.json"], ["--min", "0", "--max", "2", "--assert-semisimple"],
     "87c13225e146c44d157a9728a0426d7a82c9066b408c9d3ad339ece15949c42a"),
]


@pytest.mark.parametrize("cmd, files, flags, digest", GLUING_REPORT_SHA256,
                         ids=["%s-%s-%s" % (row[0], *(f[:-5] for f in row[1]))
                              for row in GLUING_REPORT_SHA256])
def test_gluing_report_bodies_match_pinned_digests(cmd, files, flags, digest, monkeypatch, tmp_path):
    assert _report_digest(cmd, files, flags, monkeypatch, tmp_path) == digest


# Runs CLI_CORPUS (argv[1], as JSON) from the working directory and writes
# the SHA-256 of each report body, as JSON, to argv[3]; reports go to argv[2].
_CORPUS_DIGESTS_SCRIPT = """
import hashlib, json, os, sys
from dgla import io as io_mod
from dgla.cli import run
corpus, out_dir, digests_path = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
digests = []
for i, (cmd, files, flags) in enumerate(corpus):
    argv = [cmd] + [os.path.join("fixtures", f) for f in files]
    argv += [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]
    out = os.path.join(out_dir, "r%d.json" % i)
    code, _ = run(argv + ["--out", out])
    assert code in (0, 1), (cmd, code)
    with open(out) as fh:
        body = io_mod.canonical_dumps(json.load(fh)["report"])
    digests.append(hashlib.sha256(body.encode()).hexdigest())
with open(digests_path, "w") as fh:
    json.dump(digests, fh)
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_corpus_report_bodies_match_pinned_digests_under_fixed_hash_seeds(seed, tmp_path):
    # pytest's own hash seed varies; a fresh interpreter per fixed seed shows
    # that no report body depends on it
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
    digests_path = tmp_path / "digests.json"
    proc = subprocess.run(
        [sys.executable, "-c", _CORPUS_DIGESTS_SCRIPT, json.dumps(CLI_CORPUS),
         str(tmp_path), str(digests_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(digests_path.read_text()) == CORPUS_REPORT_SHA256
