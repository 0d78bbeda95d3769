"""Whole-window axiom certificates of explicit dg Lie slices.

Each broken slice below fails its axiom on exactly one basis pair or
triple, placed late in the iteration order, so a check that samples only
the first few hundred pairs or triples passes it.
"""

import random
from collections import defaultdict

import pytest

from dgla import linalg, slices
from dgla.errors import AxiomFailure
from dgla.slices import DgLieSlice
from oracles import ordered_bracket_axioms, ordered_d_leibniz


def test_jacobi_is_checked_on_every_triple():
    # e0..e3 central; a = e4, b = e5, c = e6 with [a,b] = a, [a,c] = b, so
    # [a,[b,c]] - [[a,b],c] - [b,[a,c]] = -b on the triple (4, 5, 6), the
    # 79th of the 84 unordered triples in iteration order; every earlier
    # triple satisfies Jacobi
    brackets = {(0, 4, 0, 5): {4: 1}, (0, 5, 0, 4): {4: -1},
                (0, 4, 0, 6): {5: 1}, (0, 6, 0, 4): {5: -1}}
    slc = DgLieSlice((0, 0), {0: ["e%d" % i for i in range(7)]},
                     bracket_fn=lambda *pair: brackets.get(pair, {}))
    with pytest.raises(AxiomFailure, match=r"Jacobi fails on triple \(0,4\),\(0,5\),\(0,6\)"):
        slc.check_bracket_axioms()


def test_jacobi_runs_once_per_unordered_triple(monkeypatch):
    # seven central elements in degree 0: C(9, 3) = 84 unordered triples with
    # three brackets of vectors each (an ordered walk makes 3 * 343)
    calls = []
    bilinear = slices.bilinear
    monkeypatch.setattr(slices, "bilinear", lambda *args: calls.append(1) or bilinear(*args))
    DgLieSlice((0, 0), {0: ["e%d" % i for i in range(7)]}).check_bracket_axioms()
    assert len(calls) == 3 * 84


def _random_graded_gl(rng, differential=False):
    """A random basis of a window of gl(V) under the graded commutator.

    V has two or three basis vectors of degrees 0..2, and E_ab (v_b to v_a)
    has degree |v_a| - |v_b|.  Each degree gets a random unitriangular
    change of basis, so the constants stay integral and odd elements can
    have nonzero self-brackets.  Returns the window, the labels, the table
    {(n, i, m, j): {k: c}} of every bracket landing in the window and the
    differential blocks.  With ``differential``, V gets a random d out of
    the degrees of one parity (so d^2 = 0) and gl(V) the differential
    D x = d x - (-1)^|x| x d, in a block out of every degree but the
    lowest; otherwise there are no blocks.
    """
    vdeg = [rng.randint(0, 2) for _ in range(rng.randint(2, 3))]
    lo = rng.choice([-1, 0, 1])
    hi = lo + rng.randint(1, 3)
    units = defaultdict(list)
    for a, da in enumerate(vdeg):
        for b, db in enumerate(vdeg):
            if lo <= da - db <= hi:
                units[da - db].append((a, b))
    inverses, elems = {}, {}
    for d, es in units.items():
        n = len(es)
        p = [[1 if r == c else (rng.randint(-2, 2) if r < c else 0) for c in range(n)]
             for r in range(n)]
        inv = [[0] * n for _ in range(n)]  # p^-1 by back substitution
        for c in range(n):
            for r in reversed(range(n)):
                inv[r][c] = (r == c) - sum(p[r][t] * inv[t][c] for t in range(r + 1, n))
        elems[d] = [{es[r]: p[r][c] for r in range(n) if p[r][c]} for c in range(n)]
        inverses[d] = inv

    def coords(d, mat):
        flat = [mat.get(e, 0) for e in units[d]]
        values = (sum(q * x for q, x in zip(row, flat)) for row in inverses[d])
        return {c: v for c, v in enumerate(values) if v}

    def product_of(x, y):
        out = defaultdict(int)
        for (a, b), s in x.items():
            for (c, e), t in y.items():
                if b == c:
                    out[a, e] += s * t
        return out

    table = {}
    for n, xs in elems.items():
        for m, ys in elems.items():
            if n + m not in units:
                continue
            sign = -1 if n * m % 2 else 1
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    comm = product_of(x, y)
                    for e, v in product_of(y, x).items():
                        comm[e] -= sign * v
                    table[n, i, m, j] = coords(n + m, comm)
    labels = {d: ["f%d_%d" % (d, i) for i in range(len(xs))] for d, xs in elems.items()}
    d_blocks = {}
    if differential:
        parity = rng.randint(0, 1)
        dv = {(a, b): rng.randint(-2, 2) for a, da in enumerate(vdeg)
              for b, db in enumerate(vdeg) if da == db - 1 and db % 2 == parity}
        for n in range(lo + 1, hi + 1):
            cols = []
            for x in elems.get(n, []):
                comm = product_of(dv, x)
                for e, v in product_of(x, dv).items():
                    comm[e] -= (-1) ** (n % 2) * v
                cols.append(coords(n - 1, comm) if units[n - 1] else {})
            d_blocks[n] = linalg.from_columns(len(elems.get(n - 1, [])), cols)
    return (lo, hi), labels, table, d_blocks


def test_unordered_axiom_check_agrees_with_the_ordered_oracle():
    rng = random.Random(1515)
    verdicts = defaultdict(int)
    for _ in range(800):
        window, labels, table, _ = _random_graded_gl(rng)
        keys = [key for key in table if labels[key[0] + key[2]]]
        how = rng.choice(["none", "partner", "constant", "constant"])
        if keys and how != "none":
            n, i, m, j = key = rng.choice(keys)
            k = rng.randrange(len(labels[n + m]))
            c = rng.choice([-2, -1, 1, 2])
            if how == "partner":  # break [y,x] alone; [x,x] when x is even
                bumps = [((m, j, n, i), c)] if (n, i) != (m, j) or n % 2 == 0 else []
            elif (n, i) == (m, j):  # an odd self-bracket may change freely
                bumps = [(key, c)] if n % 2 else []
            else:  # change [x,y] and its antisymmetric partner together
                bumps = [(key, c), ((m, j, n, i), (1 if n * m % 2 else -1) * c)]
            for bumped, by in bumps:
                row = dict(table[bumped])
                row[k] = row.get(k, 0) + by
                table[bumped] = {t: v for t, v in row.items() if v}
        slc = DgLieSlice(window, labels, bracket_fn=lambda *key: table.get(key, {}))
        expected = ordered_bracket_axioms(slc)
        try:
            slc.check_bracket_axioms()
            got = None
        except AxiomFailure as exc:
            got = "antisymmetry" if "antisymmetry" in str(exc) else "Jacobi"
        assert got == expected, (window, labels, table)
        verdicts[got] += 1
    assert verdicts["antisymmetry"] >= 100 and verdicts["Jacobi"] >= 100, dict(verdicts)


def test_d_leibniz_is_checked_on_every_pair():
    # 21 odd generators u0..u20 with [u20,u20] = w and dw = u0: the pair
    # (u20, u20), the 441st and last, breaks d[x,y] = [dx,y] - [x,dy]
    labels = {0: [], 1: ["u%d" % i for i in range(21)], 2: ["w"]}
    d_blocks = {2: linalg.matrix(21, 1, [(0, 0, 1)])}
    brackets = {(1, 20, 1, 20): {0: 1}}
    slc = DgLieSlice((0, 2), labels, d_blocks, bracket_fn=lambda *pair: brackets.get(pair, {}))
    slc.check_d_squared()
    slc.check_bracket_axioms()
    with pytest.raises(AxiomFailure, match=r"pair \(1,20\),\(1,20\)"):
        slc.check_d_leibniz()


def test_d_leibniz_walks_unordered_pairs_and_reuses_antisymmetry(monkeypatch):
    # seven central elements in degree 1 of the window [0, 2]: 28 unordered
    # pairs, each one sum for antisymmetry and three for Leibniz (an ordered
    # walk makes 3 * 49); a slice whose bracket axioms passed already skips
    # the antisymmetry sums
    calls = []
    combination = slices.combination
    monkeypatch.setattr(slices, "combination", lambda *args: calls.append(1) or combination(*args))

    def fresh():
        return DgLieSlice((0, 2), {1: ["e%d" % i for i in range(7)]})

    fresh().check_d_leibniz()
    assert len(calls) == 4 * 28
    slc = fresh()
    slc.check_bracket_axioms()
    del calls[:]
    slc.check_d_leibniz()
    assert len(calls) == 3 * 28


def test_unordered_leibniz_agrees_with_the_ordered_oracle():
    # d-Leibniz once per unordered pair, after antisymmetry on the degree
    # pairs it needs, against the ordered walk that assumes nothing
    rng = random.Random(2525)
    verdicts = defaultdict(int)
    for _ in range(400):
        window, labels, table, d_blocks = _random_graded_gl(rng, differential=True)
        labels = {d: labels.get(d, []) for d in range(window[0], window[1] + 1)}
        keys = [key for key in table if labels[key[0] + key[2]]]
        how = rng.choice(["none", "partner", "constant", "d"])
        if keys and how in ("partner", "constant"):
            n, i, m, j = key = rng.choice(keys)
            k = rng.randrange(len(labels[n + m]))
            bumps = [((m, j, n, i), 1)]  # [y,x] alone
            if how == "constant":  # [x,y] and its antisymmetric partner together
                bumps = [(key, 1)] + ([((m, j, n, i), 1 if n * m % 2 else -1)]
                                      if (n, i) != (m, j) else [])
            for bumped, by in bumps:
                table[bumped] = {t: v for t, v in
                                 {**table[bumped], k: table[bumped].get(k, 0) + by}.items() if v}
        blocks = [d for d, b in d_blocks.items() if b and labels[d - 1] and labels[d]]
        if how == "d" and blocks:
            d = rng.choice(blocks)
            ents = list(linalg.entries(d_blocks[d]))
            ents.append((rng.randrange(len(labels[d - 1])), rng.randrange(len(labels[d])), 1))
            d_blocks[d] = linalg.matrix(len(labels[d - 1]), len(labels[d]), ents)
        slc = DgLieSlice(window, labels, d_blocks, lambda *key: table.get(key, {}),
                         zero_below=rng.random() < 0.3)
        expected = ordered_d_leibniz(slc)
        try:
            slc.check_d_leibniz()
            got = None
        except AxiomFailure as exc:
            got = str(exc)
        if got is None:
            assert expected is None, (window, labels, table)
            verdicts["pass"] += 1
        elif "antisymmetry" in got:
            assert ordered_bracket_axioms(slc) == "antisymmetry"
            verdicts["antisymmetry"] += 1
        else:
            assert got.endswith("pair (%d,%d),(%d,%d)" % expected), (got, expected)
            verdicts["leibniz"] += 1
    assert min(verdicts.values()) >= 50 and len(verdicts) == 3, dict(verdicts)


def test_d_leibniz_alone_catches_a_bracket_that_breaks_antisymmetry():
    # d s = t and [s, t] = s, while [t, s] = 0: the (t, s) identity holds and
    # only the reversed pair (s, t) breaks Leibniz, d[s,t] = t but
    # [ds, t] - [s, dt] = 0; an unordered walk sees it only as antisymmetry
    tab = {(1, 0, 0, 0): {0: 1}}
    slc = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, {1: linalg.matrix(1, 1, [(0, 0, 1)])},
                     bracket_fn=lambda *pair: tab.get(pair, {}), zero_below=True)
    assert ordered_d_leibniz(slc) == (1, 0, 0, 0)
    with pytest.raises(AxiomFailure, match=r"antisymmetry fails at \(0,0,1,0\)"):
        slc.check_d_leibniz()


@pytest.mark.parametrize("case", ["dx", "dy"])
def test_d_leibniz_checks_antisymmetry_where_dx_and_dy_land(case):
    # Each slice breaks antisymmetry on one degree pair that no walked pair
    # covers but through [dx, y] or [x, dy].  The pair (t, s) holds and its
    # reverse (s, t) breaks Leibniz; only antisymmetry tells the unordered
    # walk.  "dx": d t = u, [s, u] = t, [u, s] = 0, the pair (u, s) in
    # degrees (-1, 1).  "dy": d s = w on a zero_below slice, [w, t] = t,
    # [t, w] = 0, the pair (t, w) in degrees (0, 0).
    if case == "dx":
        tab = {(1, 0, -1, 0): {0: 1}}
        slc = DgLieSlice((-1, 1), {-1: ["u"], 0: ["t"], 1: ["s"]},
                         {0: linalg.matrix(1, 1, [(0, 0, 1)])},
                         bracket_fn=lambda *pair: tab.get(pair, {}))
        where = r"\(-1,0,1,0\)"
    else:
        tab = {(0, 1, 0, 0): {0: 1}}
        slc = DgLieSlice((0, 1), {0: ["t", "w"], 1: ["s"]},
                         {1: linalg.matrix(2, 1, [(1, 0, 1)])},
                         bracket_fn=lambda *pair: tab.get(pair, {}), zero_below=True)
        where = r"\(0,0,0,1\)"
    assert ordered_d_leibniz(slc) == (1, 0, 0, 0)
    # a failed verdict is not remembered as a pass
    for check in (slc.check_d_leibniz, slc.check_bracket_axioms, slc.check_d_leibniz):
        with pytest.raises(AxiomFailure, match=r"antisymmetry fails at " + where):
            check()


def test_d_leibniz_catches_a_planted_failure_on_a_mixed_pair():
    # d s = t, [t, s] = s and [s, t] = -s: antisymmetric, but d[t, s] = t
    # while [dt, s] + [t, ds] = [t, t] = 0
    tab = {(0, 0, 1, 0): {0: 1}, (1, 0, 0, 0): {0: -1}}
    slc = DgLieSlice((0, 1), {0: ["t"], 1: ["s"]}, {1: linalg.matrix(1, 1, [(0, 0, 1)])},
                     bracket_fn=lambda *pair: tab.get(pair, {}), zero_below=True)
    assert ordered_d_leibniz(slc) == (0, 0, 1, 0)
    with pytest.raises(AxiomFailure, match=r"derivation at pair \(0,0\),\(1,0\)"):
        slc.check_d_leibniz()


def test_truncation_and_products_say_whether_they_vanish_below():
    # tau_{>=0} of anything vanishes below 0, also when nothing is left
    empty, _ = DgLieSlice((-2, -1), {-1: ["x"]}).truncate_nonneg()
    assert empty.zero_below and empty.to_chain().lo == -1
    t, _ = DgLieSlice((-1, 1), {0: ["x"], 1: ["y"]}).truncate_nonneg()
    assert t.zero_below and t.to_chain().lo == -1
    # a product vanishes below its window when every factor does there
    assert t.product(t).zero_below
    plain = DgLieSlice((0, 1), {0: ["z"]})
    assert not plain.zero_below and not t.product(plain).zero_below
    high = DgLieSlice((1, 1), {})
    high.zero_below = True
    assert not t.product(high).zero_below  # t is not zero in degree 0


def test_presentation_slices_and_padded_slices_vanish_below(fixture_path):
    # a presentation is positively graded, and pad_to's caller asserts that
    # the slice vanishes outside its window: both know the degree below
    from dgla import io
    from dgla.presentation import presentation_slice

    p = io.load_presentation(io.load_json_file(fixture_path("presentation_w11.json")))
    sl2 = io.load_slice_or_presentation(io.load_json_file(fixture_path("sl2.json")))
    assert not sl2.zero_below
    for slc, lo in ((presentation_slice(p, 0, 4), 0), (presentation_slice(p, -2, 3), -2),
                    (sl2.pad_to(0, 3), 0), (sl2.pad_to(-1, 2), -1)):
        assert slc.zero_below and slc.lo == lo
        assert slc.knows(lo - 1) and not slc.knows(slc.hi + 1)
        chain = slc.to_chain()
        assert (chain.lo, chain.hi) == (lo - 1, slc.hi) and chain.dim(lo - 1) == 0
        assert chain.labels == {lo - 1: [], **slc.labels}


def test_to_chain_pads_a_zero_below_slice_and_keeps_its_blocks():
    one = linalg.matrix(1, 1, [(0, 0, 1)])
    slc = DgLieSlice((0, 2), {0: ["x"], 1: ["y"], 2: []}, {1: one}, zero_below=True)
    chain = slc.to_chain()
    assert (chain.lo, chain.hi) == (-1, 2)
    assert chain.labels == {-1: [], 0: ["x"], 1: ["y"], 2: []}
    assert chain.d_matrix(1) is slc.d_matrix(1)
    assert chain.d_matrix(0) == linalg.matrix(0, 1)
    assert chain.homology_degree(0)[0] == 0


def test_to_chain_keeps_the_window_of_a_slice_not_known_to_vanish_below():
    one = linalg.matrix(1, 1, [(0, 0, 1)])
    slc = DgLieSlice((0, 2), {0: ["x"], 1: ["y"], 2: []}, {1: one})
    chain = slc.to_chain()
    assert (chain.lo, chain.hi) == (0, 2)
    assert chain.labels == slc.labels
    assert chain.d_matrix(1) is slc.d_matrix(1)


def _out_of_window_cases(fixture_path):
    """(slice, reads outside its window, reads outside its basis) for each slice kind."""
    from dgla import io
    from dgla.derivations import der_complex
    from dgla.models import build_block_g

    def load(name):
        return io.load_json_file(fixture_path(name))

    der = der_complex(io.load_presentation(load("presentation_w11.json")), "omega", (0, 4))
    g = build_block_g(io.load_manifold(load("w11.json")), (0, 4))
    loaded = io.load_slice(load("mc_slice.json"))
    return {
        "der": (der, [(4, 0, 4, 0), (-1, 0, 0, 0), (0, 0, 5, 0)], [(0, 0, 0, 5), (0, -1, 0, 0)]),
        "block g": (g, [(2, 0, 3, 0), (0, 0, 9, 0)], [(0, 0, 0, 9), (0, 2, 0, 0)]),
        "loaded": (loaded, [(1, 0, 0, 0), (-2, 0, -2, 99), (-2, 0, -1, 0)],
                   [(0, 0, -1, 0), (-1, 99, 0, 0), (-1, 0, -1, -1)]),
    }


@pytest.mark.parametrize("kind", ["der", "block g", "loaded"])
def test_a_bracket_read_outside_the_slice_raises_and_is_not_kept(kind, fixture_path):
    from dgla.errors import WindowTooNarrow

    slc, outside_window, outside_basis = _out_of_window_cases(fixture_path)[kind]
    for key in outside_window:
        with pytest.raises(WindowTooNarrow):
            slc.bracket(*key)
    for key in outside_basis:
        with pytest.raises(IndexError):
            slc.bracket(*key)
    for key in outside_window + outside_basis:
        assert key not in slc._structure
    # every pair inside still reads, and a second read is the memoized answer
    lo, hi = slc.window()
    for n in range(lo, hi + 1):
        for m in range(lo, hi + 1):
            if lo <= n + m <= hi:
                for i in range(slc.dim(n)):
                    for j in range(slc.dim(m)):
                        assert slc.bracket(n, i, m, j) is slc.bracket(n, i, m, j)
