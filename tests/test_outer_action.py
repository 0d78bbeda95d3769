"""The operator form of the outer-action axioms against the per-vector walk.

``outer_action_check`` checks the Lie-map and d-of-action axioms as
identities between sparse operators; ``oracles.per_vector_outer_action_check``
is the walk over every module basis vector that it replaced.  Both must give
the same rows, pass flags and witnesses: on the actions the builders make
from the fixtures (action10's operators are nonzero), on a full-Hom action
whose operators are nonzero, and on random actions with planted failures.
"""

import functools
import random

import pytest

from dgla import io, linalg, models
from dgla.derivations import der_complex
from dgla.gluing import boundary_connected_sum
from dgla.graded import GradedLinearMap
from dgla.models import (
    OuterAction,
    _HomModule,
    build_block_g,
    build_g,
    outer_action_check,
    pi_so_basis,
)
from dgla.presentation import DgLaPresentation
from dgla.slices import DgLieSlice

from oracles import full_hom_outer_action, per_vector_outer_action_check


def _same_rows(a, window=None):
    rows = outer_action_check(a, window).checks
    assert rows == per_vector_outer_action_check(a, window).checks
    return rows


def _manifold(fixture_path, name):
    return io.load_manifold(io.load_json_file(fixture_path(name)))


@pytest.mark.parametrize("name", ["w11.json", "w21.json", "twisted9.json", "w21#w11",
                                  "action10.json"])
def test_block_g_actions_match_the_per_vector_walk(fixture_path, name):
    if name == "w21#w11":
        m = boundary_connected_sum(_manifold(fixture_path, "w21.json"),
                                   _manifold(fixture_path, "w11.json"))
    else:
        m = _manifold(fixture_path, name)
    g = build_block_g(m, (0, 4))
    rows = _same_rows(g.action, (0, 4))
    assert all(ok for _, ok, _ in rows)
    if name == "twisted9.json":
        assert any(g.action.twist(n, i) for n in range(5) for i in range(g.acting.dim(n)))


def test_action10_acts_by_nonzero_operators(fixture_path, monkeypatch):
    # generators in degrees 2, 3, 5 and 6 give derivations with a linear part
    # x -> x' that a pi line above |x'| sees, so the action and twist are not
    # zero and the Lie-map identities compose operators through _after
    calls = []
    after = models._after
    monkeypatch.setattr(models, "_after", lambda *args: calls.append(args) or after(*args))
    g = build_block_g(_manifold(fixture_path, "action10.json"), (0, 6))
    a, L = g.action, g.module
    assert len(calls) == 159
    acting = [(n, i) for n in range(g.lo, g.hi + 1) for i in range(g.acting.dim(n))]
    assert [(n, i, k) for n, i in acting for k in range(L.lo, L.hi + 1)
            if a.operator(n, i, k)] == [(1, 0, 0), (1, 0, 3), (3, 0, 0), (3, 0, 1), (4, 0, 0)]
    assert [(n, i) for n, i in acting if a.twist(n, i)] == [(1, 0)]


def _bilinear_calls_per_row(a, window, monkeypatch):
    """{row name: bilinear calls made while outer_action_check walks that row}."""
    calls = {}
    row = [None]
    plain_bilinear, plain_row = models.bilinear, models.check_row

    def counted(*args):
        calls[row[0]] = calls.get(row[0], 0) + 1
        return plain_bilinear(*args)

    def walked(name, failures):
        row[0] = name
        return plain_row(name, failures)

    with monkeypatch.context() as mp:
        mp.setattr(models, "bilinear", counted)
        mp.setattr(models, "check_row", walked)
        rows = _same_rows(a, window)
    return rows, calls


@pytest.mark.parametrize("name", ["w21#w11", "twisted9.json"])
def test_chi_of_bracket_walks_only_degree_pairs_with_a_twist(fixture_path, name, monkeypatch):
    # the per-vector oracle walks chi of a bracket on every degree pair
    if name == "w21#w11":
        m = boundary_connected_sum(_manifold(fixture_path, "w21.json"),
                                   _manifold(fixture_path, "w11.json"))
    else:
        m = _manifold(fixture_path, name)
    g = build_block_g(m, (0, 4))
    a = g.action
    rows, calls = _bilinear_calls_per_row(a, (0, 4), monkeypatch)
    assert all(ok for _, ok, _ in rows)
    twisted = {n for n in range(5) for i in range(g.acting.dim(n)) if a.twist(n, i)}
    if name == "w21#w11":
        # every twist vanishes: every identity is 0 = 0, and none is walked
        assert not twisted and "chi_of_bracket" not in calls
    else:
        assert twisted and calls["chi_of_bracket"]


def test_chi_of_bracket_is_walked_where_only_the_bracket_degree_is_twisted():
    # g_1 = <s>, g_2 = <u> with [s, s] = u act by zero on L = <x> + <z> + <y>
    # in degrees 0, 1, 2, and chi(u) = z while chi(s) = 0: chi([s, s]) = z
    # but chi(s).s + s.chi(s) = 0, though only g_{n+m} is twisted
    g = DgLieSlice((0, 2), {1: ["s"], 2: ["u"]},
                   bracket_fn=lambda *pair: {0: 1} if pair == (1, 0, 1, 0) else {})
    L = DgLieSlice((0, 2), {0: ["x"], 1: ["z"], 2: ["y"]})
    a = OuterAction(g, L, lambda n, i, m, j: {}, lambda n, i: {0: 1} if n == 2 else {})
    _same_rows(a)
    assert outer_action_check(a).failures() == [
        ("chi_of_bracket", ("axiom_chi_bracket", 1, 0, 1, 0))]


def test_build_g_action_on_a_twisted_presentation_matches(fixture_path):
    p = io.load_presentation(io.load_json_file(fixture_path("presentation_twisted9.json")))
    rho, pi = io.load_rho(io.load_json_file(fixture_path("rho_twisted9.json")), p)
    g = build_g(p, None, None, rho, pi, (0, 3))
    rows = _same_rows(g.action, (0, 3))
    assert all(ok for _, ok, _ in rows)


def test_the_pontryagin_twisted_derivation_action_has_nonzero_operators(fixture_path):
    # the outer action of test_criterion_7: derivations rel omega of hp2_sum
    # on the full Hom module, twisted by the Pontryagin functional
    m = _manifold(fixture_path, "hp2_sum.json")
    p = m.presentation
    pi = pi_so_basis(4)
    rho = m.pontryagin_map(p, pi)
    hm = _HomModule(p, None, pi, (-1, 1))
    module = hm.full
    acting = der_complex(p, "omega", (0, 1))

    a = full_hom_outer_action(hm, acting, rho)
    rows = _same_rows(a)
    assert all(ok for _, ok, _ in rows)
    values = [a.act(n, i, k, l) for n in (0, 1) for i in range(acting.dim(n))
              for k in range(-1, 2 - n) for l in range(module.dim(k))]
    assert (sum(1 for v in values if v), len(values)) == (6, 9)
    assert sum(1 for n in (0, 1) for i in range(acting.dim(n)) if a.twist(n, i)) == 2
    assert any(a.operator(n, i, k) for n in (0, 1) for i in range(acting.dim(n))
               for k in range(-1, 2 - n))


def test_build_g_reads_a_nonzero_action_from_each_derivation_once():
    # on the free algebra on x (1), y, v (2), z (3) the degree-1 derivations
    # x -> y and x -> v act on Hom(s indec, pi_3), and those onto z are twisted
    # by rho(z) = pi3; no fixture's action has a nonzero value
    p = DgLaPresentation([("x", 1), ("y", 2), ("v", 2), ("z", 3)])
    pi = pi_so_basis(3)
    rho = GradedLinearMap(p.generators, pi, 0, {3: linalg.matrix(1, 1, [(0, 0, 1)])})
    g = build_g(p, None, None, rho, pi, (0, 2))
    a, hm = g.action, g.hom_module
    assert all(ok for _, ok, _ in _same_rows(a, (0, 2)))
    nonzero = 0
    for n in range(0, 3):
        for i, theta in enumerate(g.acting.derivations[n]):
            sign = -1 if n % 2 else 1
            for m in range(0, 3 - n):
                for j in range(g.module.dim(m)):
                    # (f.theta)(s x) = (-1)^|theta| f(s theta(x)), one x at a time
                    raw = {}
                    for pos, c in hm.raw_basis_vector(m, j).items():
                        xf, tname = hm.functional[m, pos]
                        for x, _ in hm.indec_basis.entries:
                            lam = theta.value(x).linear_part().get(xf)
                            tgt = hm.position.get((m + n, x, tname))
                            if lam and tgt is not None:
                                raw[tgt] = raw.get(tgt, 0) + sign * c * lam
                    sgn = -1 if (n * m) % 2 == 0 else 1
                    want = hm.to_module_coords(n + m, {k: sgn * u for k, u in raw.items() if u})
                    assert a.act(n, i, m, j) == want, (n, i, m, j)
                    nonzero += bool(want)
    assert nonzero == 2
    assert sum(1 for n in (1, 2) for i in range(g.acting.dim(n)) if a.twist(n, i)) == 3


@pytest.mark.parametrize("acting", ["bracket only", "factors only"])
def test_lie_map_is_checked_where_only_some_degrees_act(acting):
    # g_1 = <s>, g_2 = <u> with [s, s] = u, on L = <x> + <z> + <y> in degrees
    # 0, 1, 2.  "bracket only": s acts by zero and u by x -> y, so
    # rho([s,s]) != 2 rho(s)^2 = 0.  "factors only": [s, s] = 0 and s acts
    # by x -> z -> y, so 0 != 2 rho(s)^2.  Either way only some of the
    # degrees 1, 1 and 2 act on L_0, and the identity there must be walked.
    tab = {(1, 0, 1, 0): {0: 1}} if acting == "bracket only" else {}
    g = DgLieSlice((0, 2), {1: ["s"], 2: ["u"]}, bracket_fn=lambda *pair: tab.get(pair, {}))
    L = DgLieSlice((0, 2), {0: ["x"], 1: ["z"], 2: ["y"]})

    def act(n, i, k, l):
        if acting == "bracket only":
            return {0: 1} if (n, k) == (2, 0) else {}
        return {0: 1} if n == 1 and k < 2 else {}

    rows = _same_rows(OuterAction(g, L, act))
    assert rows[0] == ("action_is_graded_lie_map", False, ("alpha_lie_map", 1, 0, 1, 0, 0, 0))


# -- random actions: graded endomorphisms of a small complex ----------------------------
#
# L is a complex on degrees -1..top whose differential leaves degrees of one
# parity only (so d^2 = 0), and g_n, for 0 <= n <= gtop, is the degree-n
# part of End(L) in a random unitriangular basis, with the graded commutator
# and D t = d t - (-1)^|t| t d.  g acts on L by evaluation, and
# chi(t) = (-1)^|t| t(v) for a fixed v in L_-1 is a twist, so every
# outer-action axiom holds until one entry is planted.


def _add(x, y, c=1):
    out = dict(x)
    for e, u in y.items():
        out[e] = out.get(e, 0) + c * u
    return {e: u for e, u in out.items() if u}


def _compose(s, t, nt):
    """s after t, maps given as {(k, a, b): c} (basis a of L_k to b of L_{k+shift})."""
    out = {}
    for (k, a, b), c in t.items():
        for (k2, a2, b2), c2 in s.items():
            if k2 == k + nt and a2 == b:
                out = _add(out, {(k, a, b2): c * c2})
    return out


class _EndAction:
    def __init__(self, rng):
        self.top, self.gtop = rng.randint(1, 2), rng.randint(1, 2)
        top = self.top
        self.ldims = {k: rng.randint(0, 2) for k in range(-1, top + 1)}
        self.ldims[rng.randint(-1, top)] = 2
        parity = rng.randint(0, 1)
        d_elem = {}
        for k in range(0, top + 1):
            if k % 2 == parity:
                for a in range(self.ldims[k]):
                    for b in range(self.ldims[k - 1]):
                        d_elem = _add(d_elem, {(k, a, b): rng.randint(-2, 2)})
        self.d_elem = d_elem
        self.v = _add({}, {b: rng.randint(-1, 1) for b in range(self.ldims[-1])})
        # elementary maps (k, a, b), and a unitriangular change of basis per degree
        self.elem = {n: [(k, a, b) for k in range(-1, top + 1 - n)
                         for a in range(self.ldims[k]) for b in range(self.ldims[k + n])]
                     for n in range(self.gtop + 1)}
        self.change = {n: [[1 if r == c else (rng.randint(-1, 1) if r < c else 0)
                            for c in range(len(e))] for r in range(len(e))]
                       for n, e in self.elem.items()}

    @functools.lru_cache(maxsize=None)
    def as_map(self, n, i):
        return {self.elem[n][r]: row[i] for r, row in enumerate(self.change[n]) if row[i]}

    def coords(self, n, mp):
        """Coordinates of the map mp in the basis of g_n (a unitriangular solve)."""
        u, pos = self.change[n], {e: r for r, e in enumerate(self.elem[n])}
        w = [0] * len(u)
        for e, c in mp.items():
            w[pos[e]] += c
        for r in reversed(range(len(w))):
            w[r] -= sum(u[r][k] * w[k] for k in range(r + 1, len(w)))
        return {i: c for i, c in enumerate(w) if c}

    @functools.lru_cache(maxsize=None)
    def bracket(self, n, i, m, j):
        if n + m > self.gtop:
            return {}
        t, p = self.as_map(n, i), self.as_map(m, j)
        sign = -1 if (n * m) % 2 else 1
        return self.coords(n + m, _add(_compose(t, p, m), _compose(p, t, n), -sign))

    @functools.lru_cache(maxsize=None)
    def act(self, n, i, k, l):
        return _add({}, {b: c for (k2, a, b), c in self.as_map(n, i).items()
                         if (k2, a) == (k, l)})

    def chi(self, n, i):
        sign = -1 if n % 2 else 1
        out = {}
        for l, c in self.v.items():
            out = _add(out, self.act(n, i, -1, l), sign * c)
        return out

    @functools.lru_cache(maxsize=None)
    def d_blocks(self):
        out = {}
        for n in range(1, self.gtop + 1):
            sign = -1 if n % 2 else 1
            cols = []
            for i in range(len(self.elem[n])):
                t = self.as_map(n, i)
                cols.append(self.coords(n - 1, _add(_compose(self.d_elem, t, n),
                                                    _compose(t, self.d_elem, -1), -sign)))
            out[n] = linalg.from_columns(len(self.elem[n - 1]), cols)
        return out

    def build(self, act=None, chi=None, bracket=None, module_bracket=None, module_d=()):
        """The outer action, with any of its tables replaced; module_d adds (k, r, c) entries."""
        g = DgLieSlice((0, self.gtop), {n: ["t%d" % i for i in range(len(e))]
                                        for n, e in self.elem.items()},
                       self.d_blocks(), bracket or self.bracket)
        ld_blocks = {}
        for k in range(0, self.top + 1):
            ents = [(b, a, c) for (k2, a, b), c in self.d_elem.items() if k2 == k]
            ents += [(r, c, 1) for k2, r, c in module_d if k2 == k]
            ld_blocks[k] = linalg.matrix(self.ldims[k - 1], self.ldims[k], ents)
        L = DgLieSlice((-1, self.top), {k: ["x%d" % a for a in range(d)] for k, d in self.ldims.items()},
                       ld_blocks, module_bracket, zero_below=True)
        return OuterAction(g, L, act or self.act, chi or self.chi)


def _plus_one(fn, key, b):
    """fn with one more unit at index b in its value at ``key``."""
    def planted(*args):
        v = fn(*args)
        return _add(v, {b: 1}) if args == key else v
    return planted


def _plantings(e, rng):
    """One planted single-entry failure per kind, as (kind, outer action)."""
    ld = e.ldims
    gdim = {n: len(x) for n, x in e.elem.items()}
    out = []
    acts = [(n, i, k, l) for n in gdim for i in range(gdim[n])
            for k in range(-1, e.top + 1 - n) for l in range(ld[k]) if ld[k + n]]
    if acts:
        n, i, k, l = rng.choice(acts)
        out.append(("act", e.build(act=_plus_one(e.act, (n, i, k, l), rng.randrange(ld[k + n])))))
    twists = [(n, i) for n in gdim if n - 1 <= e.top and ld[n - 1] for i in range(gdim[n])]
    if twists:
        n, i = rng.choice(twists)
        out.append(("chi", e.build(chi=_plus_one(e.chi, (n, i), rng.randrange(ld[n - 1])))))
    pairs = [(n, i, m, j) for n in gdim for m in gdim if n <= m and n + m in gdim
             and gdim[n + m] for i in range(gdim[n]) for j in range(gdim[m])
             if (n, i) < (m, j)]
    if pairs:
        # one structure constant, planted in both orders so that antisymmetry holds
        n, i, m, j = rng.choice(pairs)
        q = rng.randrange(gdim[n + m])
        sign = -1 if (n * m) % 2 else 1

        def bracket(*key):
            v = e.bracket(*key)
            if key == (n, i, m, j):
                return _add(v, {q: 1})
            return _add(v, {q: -sign}) if key == (m, j, n, i) else v

        out.append(("bracket", e.build(bracket=bracket)))
        # and in the reversed order only
        out.append(("reversed", e.build(bracket=_plus_one(e.bracket, (m, j, n, i), q))))
    ds = [(k, r, c) for k in range(0, e.top + 1) for r in range(ld[k - 1]) for c in range(ld[k])]
    if ds:
        out.append(("module_d", e.build(module_d=[rng.choice(ds)])))
    brs = [(k1, a, k2, b) for k1 in ld for k2 in ld if -1 <= k1 + k2 <= e.top
           and ld[k1 + k2] for a in range(ld[k1]) for b in range(ld[k2])]
    if brs:
        key = rng.choice(brs)
        c = rng.randrange(ld[key[0] + key[2]])
        out.append(("module_bracket", e.build(module_bracket=lambda *pair: {c: 1} if pair == key else {})))
    return out


def test_random_actions_with_planted_failures_match_the_per_vector_walk():
    failed = {}
    kinds = set()
    for seed in range(24):
        rng = random.Random(seed)
        e = _EndAction(rng)
        base = e.build()
        assert all(ok for _, ok, _ in _same_rows(base)), seed
        for kind, a in _plantings(e, rng):
            kinds.add(kind)
            rows = _same_rows(a)
            for name, ok, _ in rows:
                if not ok:
                    failed[name] = failed.get(name, 0) + 1
            if kind == "reversed":
                # the (p,t) identity fails while (t,p) holds: caught by antisymmetry
                _, ok, witness = rows[0]
                assert not ok and witness[0] == "alpha_antisymmetry", (seed, witness)
    assert kinds == {"act", "chi", "bracket", "reversed", "module_d", "module_bracket"}
    # every axiom's operator or vector walk reported planted failures
    assert set(failed) == {"action_is_graded_lie_map", "chi_anticommutes_with_d",
                           "chi_of_bracket", "d_of_action"}, failed
    assert min(failed.values()) >= 5, failed
