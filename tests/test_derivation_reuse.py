"""Derivations reuse their own work, against evaluations that reuse nothing.

``eval_at`` evaluates a derivation only on the terms of its element whose
trees it reaches (``DgLaPresentation.reach``), a multiple q * theta
through theta, and ``der_bracket`` takes each bracket of two operands once.
``oracles.unrestricted_eval_at`` evaluates a derivation's own values on the
whole element with a new Leibniz extension, and ``oracles.reference_leibniz``
does so with element-per-term brackets.
"""

import os
import random
from fractions import Fraction

import pytest

from dgla import derivations, io
from dgla.derivations import Derivation, FDerivation, der_bracket
from dgla.errors import SubMismatch
from dgla.expmc import _check_class, bch, exp_automorphism
from dgla.models import tilde_model
from dgla.morphisms import GeneratorMorphism
from dgla.presentation import DgLaPresentation

from conftest import FIXTURES
from oracles import (
    random_presentation,
    random_unipotent_automorphism,
    reference_apply,
    reference_leibniz,
    unrestricted_eval_at,
)

_COEFFS = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _fixture_presentations():
    """Every presentation among the fixtures, a manifold's included, by file name."""
    out = {}
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".json") or name.startswith("bad_"):
            continue
        data = io.load_json_file(os.path.join(FIXTURES, name))
        if "generators" not in data:
            continue
        if "dimension" in data:
            p = io.load_manifold(data).presentation
        else:
            p = io.load_presentation(data)
        if p.generators.entries:
            out[name] = p
    return out


def _random_element(rng, p, degree, coeffs=_COEFFS):
    vector = [rng.choice(coeffs) for _ in range(p.dim(degree))]
    return p.element_from_vector(degree, vector)


def _random_values(rng, p, shift, names, coeffs=_COEFFS):
    return {n: _random_element(rng, p, p.generators.degree(n) + shift, coeffs) for n in names}


def _derivations(rng, p, shift):
    """A unit on each generator, and random derivations on random sets of generators."""
    names = [n for n, _ in p.generators.entries]
    out = []
    for n in names:
        basis = p.lie_basis(p.generators.degree(n) + shift)
        if basis:
            out.append(_random_values(rng, p, shift, [n], _COEFFS[3:]))
    for _ in range(3):
        out.append(_random_values(rng, p, shift, rng.sample(names, rng.randint(1, len(names)))))
    return out


def _elements(rng, p):
    top = max(d for _, d in p.generators.entries) + 4
    xs = [_random_element(rng, p, rng.randint(1, top)) for _ in range(5)]
    xs += [_random_element(rng, p, d + 1, _COEFFS[3:]) for _, d in p.generators.entries]
    for spec in p.subalgebras.values():
        xs += list(getattr(spec, "elements", ()))
    return xs + [p.differential_of(x) for x in xs]


def _same_entries(got, want):
    # the same entries, in the same order, each of the same type
    assert got.degree == want.degree or not want.coords
    assert list(got.coords.items()) == list(want.coords.items())
    assert [type(c) for c in got.coords.values()] == [type(c) for c in want.coords.values()]


def _check_eval(th, x, target, along=None):
    """th(x) against the unrestricted evaluation and the element-per-term reference."""
    got = th.eval_at(x)
    _same_entries(got, unrestricted_eval_at(th, x))
    ref = reference_leibniz(x.presentation, target, th.degree, th.values.get, along=along)
    assert got.coords == reference_apply(ref, x, target.zero(x.degree + th.degree)).coords
    return got


def _check_derivations(rng, p):
    reached = 0
    xs = _elements(rng, p)
    for shift in (-1, 0, 1):
        for vals in _derivations(rng, p, shift):
            th = Derivation(p, shift, vals)
            for x in xs:
                reached += not _check_eval(th, x, p).is_zero()
    return reached


@pytest.mark.parametrize("name", sorted(_fixture_presentations()))
def test_eval_at_matches_the_unrestricted_evaluation_on_every_fixture(name):
    p = _fixture_presentations()[name]
    assert _check_derivations(random.Random(name), p)


def test_eval_at_matches_the_unrestricted_evaluation_on_fuzz_presentations():
    rng = random.Random(2707)
    reached = 0
    for _ in range(12):
        reached += _check_derivations(rng, random_presentation(rng, max_gens=4, max_degree=4))
    assert reached


def test_f_derivations_match_the_unrestricted_evaluation(fixture_path):
    rng = random.Random(27)
    w21 = io.load_manifold(io.load_json_file(fixture_path("w21.json")))
    morphisms = [tilde_model(w21)[2]]
    for name in ("presentation_twisted9.json", "presentation_cp2.json"):
        p = io.load_presentation(io.load_json_file(fixture_path(name)))
        morphisms += [random_unipotent_automorphism(rng, p), GeneratorMorphism.identity(p)]
    reached = 0
    for m in morphisms:
        src, tgt = m.source, m.target
        names = [n for n, _ in src.generators.entries]
        xs = _elements(rng, src)
        for shift in (-1, 0, 1):
            for picked in [[n] for n in names] + [names]:
                vals = {n: _random_element(rng, tgt, src.generators.degree(n) + shift)
                        for n in picked}
                th = FDerivation(m, shift, vals)
                for x in xs:
                    reached += not _check_eval(th, x, tgt, along=m).is_zero()
        with pytest.raises(ValueError):
            th.eval_at(tgt.gen(tgt.generators.entries[0][0]) if tgt is not src
                       else DgLaPresentation([("z", 2)]).gen("z"))
    assert reached


# -- the filtration derivations of the BCH loop ------------------------------------------


def _nilpotent():
    return DgLaPresentation([("a", 2), ("b", 2), ("c", 4), ("e", 6), ("f", 8)])


def _filtration_derivation(rng, p):
    """A degree-0 derivation sending c, e, f to random decomposables (class <= 3)."""
    vals = {}
    for name in ("c", "e", "f"):
        deg = p.generators.degree(name)
        vec = [Fraction(rng.randint(-1, 1)) if not isinstance(b.tree, int) else Fraction(0)
               for b in p.lie_basis(deg)]
        if any(vec):
            vals[name] = p.element_from_vector(deg, vec)
    return Derivation(p, 0, vals)


def test_filtration_derivations_match_the_unrestricted_evaluation():
    rng = random.Random(99)
    p = _nilpotent()
    for _ in range(10):
        x, y = _filtration_derivation(rng, p), _filtration_derivation(rng, p)
        z = bch(x, y, der_bracket, 3)
        for th in (x, y, der_bracket(x, y), z):
            for name, _ in p.generators.entries:
                # the iterates of the exp series, and random elements
                term = p.gen(name)
                while not term.is_zero():
                    term = _check_eval(th, term, p)
            for degree in (4, 6, 8):
                _check_eval(th, _random_element(rng, p, degree), p)


def test_a_foreign_element_raises():
    p, q = _nilpotent(), _nilpotent()
    th = Derivation(p, 0, {"c": "[a,b]"})
    for x in (q.gen("a"), q.zero(2)):
        with pytest.raises(ValueError):
            th.eval_at(x)
    with pytest.raises(ValueError):
        th.scale(-1).eval_at(q.gen("a"))


def test_no_reached_term_gives_the_shared_zero():
    p = _nilpotent()
    th = Derivation(p, 0, {"f": "[a,[a,[a,b]]]"})
    x = p.normal_form("[a,c] + 2*[b,c]")
    assert th.eval_at(x) is p.zero(6)
    assert th.eval_at(p.gen("f")) == p.normal_form("[a,[a,[a,b]]]")


# -- a multiple evaluates through its base -------------------------------------------------


@pytest.mark.parametrize("q", [-1, Fraction(1, 2), Fraction(1, 12)])
def test_a_multiple_evaluates_through_its_base(q):
    rng = random.Random(12)
    p = _nilpotent()
    for _ in range(5):
        th = _filtration_derivation(rng, p)
        xs = [p.gen(n) for n, _ in p.generators.entries]
        xs += [_random_element(rng, p, d) for d in (4, 6, 8)]
        for cth in (th.scale(q), th.scale(Fraction(1, 3)).scale(q), th.scale(q).scale(-2)):
            base, factor = cth._base
            assert base is th
            for x in xs:
                # values as the scaled values give them directly
                got, want = cth.eval_at(x), unrestricted_eval_at(cth, x)
                assert list(got.coords) == list(want.coords)
                assert got.coords == want.coords and got.degree == want.degree
                if q == -1 and factor == -1:
                    _same_entries(got, want)
        assert th.scale(q).scale(-1).scale(1 / Fraction(q))._base == (th, -1)


def test_scale_by_zero_is_the_zero_derivation():
    p = _nilpotent()
    th = Derivation(p, 0, {"c": "[a,b]", "e": "[a,c]"})
    zero = th.scale(0)
    assert zero.is_zero() and zero._base is None
    assert zero.eval_at(p.gen("c")).is_zero()
    assert zero == Derivation(p, 0, {})


def test_the_inverse_series_walks_no_tree_again():
    rng = random.Random(5)
    p = _nilpotent()
    for _ in range(5):
        th = _filtration_derivation(rng, p)
        e = exp_automorphism(th)
        memo = dict(th._ext.memo)
        neg = th.scale(-1)
        inverse = exp_automorphism(neg)
        # -theta walks through theta's memo, and builds no extension of its own
        assert th._ext.memo == memo and neg._ext is None
        assert e.compose(inverse) == GeneratorMorphism.identity(p)


# -- each bracket of two derivations is taken once --------------------------------------


def _counted(monkeypatch):
    calls = []
    plain = derivations._der_bracket

    def counted(theta, psi):
        calls.append((theta, psi))
        return plain(theta, psi)

    monkeypatch.setattr(derivations, "_der_bracket", counted)
    return calls


def test_a_repeated_bracket_is_the_same_object(monkeypatch):
    calls = _counted(monkeypatch)
    p = _nilpotent()
    x = Derivation(p, 0, {"c": "[a,b]", "e": "[a,c]"})
    y = Derivation(p, 0, {"e": "[b,c]"})
    xy = der_bracket(x, y)
    assert der_bracket(x, y) is xy and len(calls) == 1
    assert x._brackets[id(y)] == (y, xy)
    # operands equal to x and y but distinct are bracketed apart, as is [y, x]
    x2, y2 = x.scale(1), Derivation(p, 0, y.values)
    assert x2 == x and y2 == y
    for a, b in ((x2, y), (x, y2), (y, x)):
        got = der_bracket(a, b)
        assert calls[-1] == (a, b) and got is not xy
    assert len(calls) == 4
    assert der_bracket(x, y2) == xy and der_bracket(y, x) == xy.scale(-1)
    assert len(calls) == 4


def test_a_bracket_of_mismatched_operands_still_raises(monkeypatch):
    calls = _counted(monkeypatch)
    p = DgLaPresentation([("a", 2), ("b", 2), ("c", 4)], None, {"s": {"generators": ["a"]}})
    x = Derivation(p, 0, {"c": "[a,b]"})
    y = Derivation(p, 0, {"c": "[a,b]"}, rel="s")
    z = Derivation(_nilpotent(), 0, {"c": "[a,b]"})
    for a, b in ((x, y), (y, x), (x, z), (x, y)):
        with pytest.raises(SubMismatch):
            der_bracket(a, b)
    assert calls == [] and x._brackets is None


def test_bch_after_the_class_check_computes_no_bracket(monkeypatch):
    # the loop of acceptance criterion 6 on seeded pairs
    calls = _counted(monkeypatch)
    rng = random.Random(99)
    p = _nilpotent()
    ident = GeneratorMorphism.identity(p)
    for _ in range(5):
        x, y = _filtration_derivation(rng, p), _filtration_derivation(rng, p)
        _check_class(x, y, der_bracket, 3)
        assert calls
        del calls[:]
        z = bch(x, y, der_bracket, 3)
        assert calls == []
        assert exp_automorphism(z) == exp_automorphism(x).compose(exp_automorphism(y))
        memo = dict(x._ext.memo)
        neg = x.scale(-1)
        inverse_ok = exp_automorphism(x).compose(exp_automorphism(neg)) == ident
        assert inverse_ok and x._ext.memo == memo and neg._ext is None
