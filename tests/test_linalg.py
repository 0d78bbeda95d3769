import os
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla import io, linalg
from dgla.ce import CESlice
from dgla.derivations import der_complex, deru
from dgla.errors import NotAComplex
from dgla.gluing import boundary_connected_sum, glue_headline_g
from dgla.models import build_block_g, build_g, tilde_model
from oracles import (
    bareiss_echelon,
    gauss_jordan,
    gauss_rank,
    is_coefficient,
    is_exact,
    kernel_all_fractions,
    naive_matmul,
    rref_all_fractions,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "dgla")


def _matrix(rows, ncols):
    """The linalg matrix of a dense grid, the form the oracles work in."""
    return linalg.matrix(
        len(rows), ncols, ((i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r))
    )


def _dense(m, ncols):
    """The dense grid of a linalg matrix."""
    return [[r.get(j, 0) for j in range(ncols)] for r in m]


def test_rank_examples():
    assert linalg.rank(linalg.matrix(2, 2), 2) == 0
    assert linalg.rank(_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3), 3) == 3
    # hand elimination: rank 1, kernel spanned by (2, -1) up to scale
    m = _matrix([[1, 2], [2, 4]], 2)
    assert linalg.rank(m, 2) == 1
    kernel, free = linalg.kernel_basis(m, 2)
    assert len(kernel) == 1
    x, y = (kernel[0].get(j, 0) for j in range(2))
    assert x * 1 + y * 2 == 0 and (x, y) != (0, 0)
    assert Fraction(2) * y == -x * Fraction(1) or x / y == Fraction(-2)


def test_solve_and_kernel():
    m = _matrix([[1, 2, 3], [0, 1, 1]], 3)
    sol = linalg.solve(m, 3, {0: 6, 1: 2})
    assert sol is not None
    assert linalg.matvec(m, sol) == {0: Fraction(6), 1: Fraction(2)}
    assert linalg.solve(_matrix([[1, 0], [0, 1], [1, 1]], 2), 2, {0: 1, 1: 1, 2: 3}) is None


def test_pivot_columns_give_image_basis():
    dense = [[1, 2, 0], [2, 4, 1]]
    m = _matrix(dense, 3)
    pts = linalg.pivot_columns(m, 3)
    chosen = [[r[p] for r in dense] for p in pts]
    assert gauss_rank(chosen) == linalg.rank(m, 3) == 2


def test_subspace_coords_roundtrip():
    vs = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    s = linalg.Subspace.from_vectors(vs, 3)
    v = {0: Fraction(3), 1: Fraction(7), 2: Fraction(1)}
    c = s.coords(v)
    assert c is not None
    assert s.vector(c) == v
    assert s.coords({0: 1}) is None


def test_subspace_coords_certifies_by_the_rebuilt_vector():
    # v is a member exactly when it is the vector its pivot entries rebuild:
    # a sparse vector, with no zero entry, equal to that combination
    s = linalg.Subspace.from_vectors([{0: 1, 1: 2}, {1: 1, 2: 1}], 3)
    assert s.vectors == [{0: 1, 2: -2}, {1: 1, 2: 1}]
    assert s.coords({0: 1, 1: 3, 2: 1}) == {0: 1, 1: 3}
    assert s.coords({2: -2, 0: 1}) == {0: 1}
    assert s.coords({}) == {}
    assert s.coords({0: 1, 1: 2, 2: 1}) is None
    assert s.coords({0: 1, 1: 2, 2: 0}) is None
    assert s.coords({2: 1}) is None


def test_kernel_of_no_conditions_is_the_full_space():
    for n in range(4):
        k = linalg.Subspace.from_kernel(linalg.matrix(0, n), n)
        full = linalg.Subspace.full(n)
        assert (k.vectors, k.pivots) == (full.vectors, full.pivots)


def test_subspace_intersection():
    a = linalg.Subspace.from_vectors([{0: 1}, {1: 1}], 3)
    b = linalg.Subspace.from_vectors([{1: 1}, {2: 1}], 3)
    i = a.intersection(b)
    assert i.dim == 1
    assert i.contains({1: 5})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rank_matches_plain_gauss(rows):
    assert linalg.rank(_matrix(rows, 4), 4) == gauss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_nullity(rows):
    m = _matrix(rows, 3)
    kernel, _ = linalg.kernel_basis(m, 3)
    assert linalg.rank(m, 3) + len(kernel) == 3
    for v in kernel:
        assert linalg.matvec(m, v) == {}


def test_bit_length_pivoting_stays_exact():
    rng = random.Random(7)
    rows = [
        [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(6)]
        for _ in range(6)
    ]
    r = linalg.rank(_matrix(rows, 6), 6)
    assert r == gauss_rank(rows)


def test_matrix_sums_repeated_entries():
    m = linalg.matrix(2, 3, [(0, 1, 2), (1, 2, Fraction(1, 3)), (0, 1, Fraction(-1, 2))])
    assert m == [{1: Fraction(3, 2)}, {2: Fraction(1, 3)}]
    assert all(type(x) is Fraction for r in m for x in r.values())
    assert linalg.matrix(1, 1, [(0, 0, 1), (0, 0, -1)]) == [{}]
    # cancelling triples leave no zero value behind: an empty row, or none at that column
    m = linalg.matrix(3, 2, [(0, 1, 3), (1, 0, 1), (0, 1, -3), (1, 1, 2), (1, 0, -1)])
    assert m == [{}, {1: 2}, {}]


@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (-2, -2), (2, 0), (0, 2), (5, 5)])
def test_matrix_refuses_an_entry_outside_its_shape(i, j):
    with pytest.raises(ValueError, match="outside a 2x2 matrix"):
        linalg.matrix(2, 2, [(0, 0, 1), (i, j, 5)])
    with pytest.raises(ValueError):
        linalg.matrix(0, 0, [(0, 0, 1)])


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_matrix_without_entries_is_zero_of_that_shape(nrows, ncols):
    m = linalg.matrix(nrows, ncols)
    assert m == [{} for _ in range(nrows)] and linalg.has_shape(m, nrows, ncols)
    assert not linalg.has_shape(m, nrows + 1, ncols)
    assert linalg.is_zero_matrix(m)
    if nrows > 1 and ncols:
        m[0][0] = Fraction(1)
        assert m[1] == {}  # each row is its own dict
        assert linalg.has_shape(m, nrows, 1) and not linalg.has_shape(m, nrows, 0)
        assert not linalg.is_zero_matrix(m)


def test_matrix_of_entries_places_a_block_at_an_offset():
    # inserted out of order; entries and columns read row-major, ascending
    m = linalg.matrix(2, 2, [(1, 1, -4), (0, 0, 1), (1, 0, Fraction(2, 3))])
    assert list(linalg.entries(m)) == [(0, 0, 1), (1, 0, Fraction(2, 3)), (1, 1, -4)]
    assert linalg.columns(m, 3) == [{0: 1, 1: Fraction(2, 3)}, {1: -4}, {}]
    assert [list(c) for c in linalg.columns(m, 2)] == [[0, 1], [1]]
    big = linalg.matrix(4, 5, linalg.entries(m, 1, 2))
    assert big == [{}, {2: 1}, {2: Fraction(2, 3), 3: -4}, {}]
    assert _dense(big, 5)[2] == [0, 0, Fraction(2, 3), -4, 0]
    assert linalg.has_shape(big, 4, 5) and not linalg.has_shape(big, 4, 3)
    assert linalg.matrix(2, 2, linalg.entries(m)) == m
    assert linalg.from_columns(2, linalg.columns(m, 2)) == m


def test_check_d_squared_raises_at_the_first_failing_degree():
    # C_0 <- C_1 <- C_2 <- C_3 <- C_4, each of dimension one: d_1 d_2 and
    # d_2 d_3 vanish, d_3 d_4 does not
    def scalar(c):
        return linalg.matrix(1, 1, [(0, 0, c)])

    blocks = {1: scalar(1), 2: scalar(0), 3: scalar(1), 4: scalar(1)}
    linalg.check_d_squared(blocks.__getitem__, 0, 3)
    with pytest.raises(NotAComplex, match="degree 4"):
        linalg.check_d_squared(blocks.__getitem__, 0, 4)
    blocks[2] = scalar(5)
    with pytest.raises(NotAComplex, match="degree 2"):
        linalg.check_d_squared(blocks.__getitem__, 0, 4)
    linalg.check_d_squared(blocks.__getitem__, 1, 2)  # no composite in [1, 2]


def test_only_linalg_builds_matrices_and_certifies_d_squared():
    """The matrix format stays a decision of linalg alone."""
    literal = re.compile(r"\[\[\s*Fraction\(0\)\]")
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "linalg.py":
            continue
        with open(os.path.join(SRC, name)) as f:
            text = f.read()
        if literal.search(text):
            offenders.append("%s builds a matrix literal" % name)
        if "matmul(" in text:
            offenders.append("%s runs its own d^2 loop" % name)
    assert not offenders


def test_inverse_of_square_matrices():
    m = _matrix([[2, 1], [Fraction(1, 2), 1]], 2)
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == [{0: 1}, {1: 1}]
    assert linalg.inverse(_matrix([[1, 2], [2, 4]], 2)) is None
    assert linalg.inverse([]) == []


def _greedy_extension(base, candidates):
    """The definition: keep a candidate iff it raises the rank of what is kept."""
    kept, current = [], list(base)
    for i, c in enumerate(candidates):
        if gauss_rank(current + [c]) > gauss_rank(current):
            kept.append(i)
            current.append(c)
    return kept


def _sparse(rows):
    """Dense rows as sparse vectors with no zero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


_small_vectors = st.lists(st.lists(st.integers(-1, 1), min_size=3, max_size=3), max_size=6)


@settings(max_examples=80, deadline=None)
@given(_small_vectors, _small_vectors, st.lists(st.integers(0, 5), max_size=3))
def test_extend_independent_is_the_greedy_choice(base, candidates, repeats):
    # repeats copies some candidates to the end, so repeated vectors always occur
    candidates = candidates + [candidates[i] for i in repeats if i < len(candidates)]
    assert linalg.extend_independent(_sparse(base), _sparse(candidates), 3) == \
        _greedy_extension(base, candidates)


def _naive_combination(terms):
    """sum c * v value by value, keys in order of first appearance, zeros dropped."""
    keys = dict.fromkeys(k for _, v in terms for k in v)
    sums = {k: sum((c * v[k] for c, v in terms if k in v), Fraction(0)) for k in keys}
    return {k: x for k, x in sums.items() if x}


_scalars = st.one_of(
    st.sampled_from([1, -1, Fraction(1), Fraction(-1), 0]),
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=4),
)
_entries = st.one_of(st.integers(-2, 2), st.fractions(-1, 1, max_denominator=3)).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_scalars, st.dictionaries(st.integers(0, 5), _entries, max_size=4)),
                max_size=6))
@example([(Fraction(1), {0: 1, 1: 2}), (Fraction(-1), {0: 1}), (2, {2: Fraction(1, 2)})])
@example([(Fraction(1, 2), {3: 1}), (Fraction(1, 2), {3: 1}), (-1, {4: Fraction(2, 3)})])
def test_combination_is_the_naive_sum(terms):
    inputs = [(c, dict(v)) for c, v in terms]
    got = linalg.combination(terms)
    assert list(got.items()) == list(_naive_combination(terms).items())
    assert all(x and type(x) in (int, Fraction) for x in got.values())
    assert terms == inputs  # the summands are read, not changed


@pytest.mark.parametrize(
    "base, candidates, kept",
    [
        ([[1, 0, 0], [2, 0, 0]], [[3, 0, 0], [0, 1, 0], [1, 1, 0]], [1]),  # dependent base
        ([[1, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 2]], [1, 3]),  # zero, repeat
        ([], [[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 0, 1]], [1, 3]),  # empty base
        ([[1, 0, 0]], [], []),  # no candidates
        ([], [], []),
    ],
)
def test_extend_independent_examples(base, candidates, kept):
    assert linalg.extend_independent(_sparse(base), _sparse(candidates), 3) == kept == \
        _greedy_extension(base, candidates)


_nonzero = st.one_of(
    st.integers(-(2**12), 2**12),
    st.fractions(min_value=-(2**12), max_value=2**12, max_denominator=2**6),
).filter(bool)


@st.composite
def _sparse_matrix(draw, nrows=None, ncols=None, values=_nonzero):
    """An nrows x ncols matrix with a random set of nonzero entries.

    Entries are drawn from ``values``: ints or Fractions by default.
    """
    n = draw(st.integers(0, 7)) if nrows is None else nrows
    m = draw(st.integers(0, 7)) if ncols is None else ncols
    rows = [[0] * m for _ in range(n)]
    if n and m:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
        for i, j in draw(st.sets(cells, max_size=n * m)):
            rows[i][j] = draw(values)
    return rows, m


def _all_exact(rows):
    """Every value of the sparse rows or vectors is an int when integral, else a Fraction."""
    return all(is_exact(x) for r in rows for x in r.values())


def _all_coefficients(rows):
    """Every value of the sparse rows or vectors is an int or a Fraction.

    Products and sums of Fraction entries may be integral Fractions.
    """
    return all(is_coefficient(x) for r in rows for x in r.values())


@settings(max_examples=150, deadline=None)
@given(_sparse_matrix(), st.data())
@example(([], 0), None)
@example(([], 3), None)
@example(([[], []], 0), None)
@example(([[Fraction(-7, 3)]], 1), None)
@example(([[0]], 1), None)
def test_elimination_agrees_with_gauss_jordan(case, data):
    rows, ncols = case
    m = _matrix(rows, ncols)
    red, pivots = gauss_jordan(rows, ncols)
    got, got_pivots = linalg.rref(m, ncols)
    assert (got, got_pivots) == (_sparse(red), pivots) and _all_exact(got)
    assert linalg.pivot_columns(m, ncols) == pivots
    assert linalg.rank(m, ncols) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for f in free:
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for r, pc in zip(red, pivots):
            v[pc] = -r[f]
        kernel.append(v)
    got_kernel, got_free = linalg.kernel_basis(m, ncols)
    assert (got_kernel, got_free) == (_sparse(kernel), free)
    assert _all_exact(got_kernel)
    rhs = [0] * len(rows) if data is None else data.draw(_sparse_matrix(1, len(rows)))[0][0]
    aug, aug_pivots = gauss_jordan([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
    x = linalg.solve(m, ncols, _sparse([rhs])[0])
    if ncols in aug_pivots:
        assert x is None
    else:
        want = [Fraction(0)] * ncols
        for r, pc in zip(aug, aug_pivots):
            want[pc] = r[ncols]
        assert x == _sparse([want])[0] and _all_exact([x])
        assert naive_matmul(rows, [[x.get(j, 0)] for j in range(ncols)], 1) == [[b] for b in rhs]


@st.composite
def _rational_matrix(draw):
    """A sparse matrix with int entries, rational entries, or a planted rank deficiency.

    The last kind is the product of an n x k and a k x m matrix with
    k < min(n, m), so its rank is below both of its sides.
    """
    kind = draw(st.sampled_from(["integral", "rational", "deficient"]))
    if kind == "integral":
        return draw(_sparse_matrix(values=st.integers(-9, 9).filter(bool)))
    if kind == "rational":
        return draw(_sparse_matrix())
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(n, m) - 1))
    small = st.fractions(-9, 9, max_denominator=6).filter(bool)
    left, _ = draw(_sparse_matrix(n, k, small))
    right, _ = draw(_sparse_matrix(k, m, small))
    return naive_matmul(left, right, m), m


@settings(max_examples=200, deadline=None)
@given(_rational_matrix())
@example(([[2, 4], [1, 2]], 2))
@example(([[Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 3), 1]], 2))
def test_integer_kernels_agree_with_the_all_fraction_path(case):
    """RREF and kernel basis against the path that stored every value as a Fraction.

    Both give the same pivots and equal values entry for entry, and every
    integral value is now an int.
    """
    rows, ncols = case
    m = _matrix(rows, ncols)
    red, pivots = linalg._rref(m, ncols)
    assert (red, pivots) == rref_all_fractions(m, ncols) and _all_exact(red)
    vecs, free = linalg._kernel(m, ncols)
    assert (vecs, free) == kernel_all_fractions(m, ncols) and _all_exact(vecs)
    assert _all_exact(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: _sparse_matrix(n, n)))
@example(([], 0))
@example(([[Fraction(5, 3)]], 1))
@example(([[0]], 1))
def test_inverse_agrees_with_gauss_jordan(case):
    rows, n = case
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = gauss_jordan([r + e for r, e in zip(rows, identity)], 2 * n)
    inv = linalg.inverse(_matrix(rows, n))
    if pivots[:n] != list(range(n)):
        assert inv is None
    else:
        assert inv == _sparse([r[n:] for r in red]) and _all_exact(inv)
        dense = _dense(inv, n)
        assert naive_matmul(rows, dense, n) == naive_matmul(dense, rows, n) == identity


@st.composite
def _product_operands(draw):
    """An n x k and a k x m matrix, as dense grids, and k and m."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    a, _ = draw(_sparse_matrix(n, k))
    b, _ = draw(_sparse_matrix(k, m))
    return a, b, k, m


@settings(max_examples=100, deadline=None)
@given(_product_operands())
def test_products_agree_with_the_triple_loop(operands):
    a, b, k, m = operands
    product = linalg.matmul(_matrix(a, k), _matrix(b, m))
    assert product == _sparse(naive_matmul(a, b, m)) and _all_coefficients(product)
    if b:
        x = [r[0] for r in b] if m else [0] * len(b)
        y = linalg.matvec(_matrix(a, k), _sparse([x])[0])
        want = [r[0] for r in naive_matmul(a, [[c] for c in x], 1)]
        assert y == _sparse([want])[0] and _all_coefficients([y])


def test_products_touch_only_nonzeros():
    """Permutation matrices: one product per nonzero, where the dense loops make n^3."""
    n = 300
    products = []

    class Counted(Fraction):
        def __mul__(self, other):
            products.append(1)
            assert len(products) <= n, "a product with a zero entry"
            return Fraction.__mul__(self, other)

    one = Counted(1)
    rng = random.Random(11)
    perms = [rng.sample(range(n), n) for _ in range(2)]
    # built as plain sparse rows, so that the entries stay Counted
    a, b = ([{p[i]: one} for i in range(n)] for p in perms)
    product = linalg.matmul(a, b)
    assert len(products) == n
    assert product == [{perms[1][perms[0][i]]: 1} for i in range(n)]
    products.clear()
    x = {j: Counted(j + 1) for j in range(n)}
    assert linalg.matvec(a, x) == {i: x[perms[0][i]] for i in range(n)}
    assert len(products) == n


_small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))


@st.composite
def _subspace_case(draw):
    """Two small dense spanning sets in Q^n and coefficients for a member."""
    n = draw(st.integers(0, 6))
    rows = st.lists(st.lists(_small, min_size=n, max_size=n), max_size=5)
    a, b = draw(rows), draw(rows)
    coeffs = draw(st.lists(_small, min_size=len(a), max_size=len(a)))
    return n, a, b, coeffs


def _oracle_rank(rows, n):
    return len(gauss_jordan(rows, n)[1])


@settings(max_examples=100, deadline=None)
@given(_subspace_case())
@example((0, [], [], []))
@example((3, [[0, 0, 0]], [], [2]))
def test_sparse_subspace_agrees_with_gauss_jordan(case):
    n, a, b, coeffs = case
    rank_a, rank_b = _oracle_rank(a, n), _oracle_rank(b, n)
    ker = linalg.Subspace.from_kernel(_matrix(a, n), n)
    assert ker.dim == n - rank_a
    for v in ker.vectors:
        assert all(sum((r[j] * x for j, x in v.items()), Fraction(0)) == 0 for r in a)
    sa = linalg.Subspace.from_vectors(_sparse(a), n)
    sb = linalg.Subspace.from_vectors(_sparse(b), n)
    assert (sa.dim, sb.dim) == (rank_a, rank_b)
    # a random member, in sparse form with no zero entries
    member = _sparse(
        [[sum((Fraction(c) * r[j] for c, r in zip(coeffs, a)), Fraction(0)) for j in range(n)]]
    )[0]
    c = sa.coords(member)
    assert c is not None and sa.vector(c) == member
    outside = [j for j in range(n) if _oracle_rank(a + [[int(k == j) for k in range(n)]], n) > rank_a]
    if outside:
        off = linalg.combination([(1, member), (1, {outside[0]: 1})])
        assert sa.coords(off) is None and not sa.contains(off)
    assert sa.intersection(sb).dim == rank_a + rank_b - _oracle_rank(a + b, n)
    full = linalg.Subspace.full(n)
    assert all(full.contains({j: 1}) for j in range(n))


def _assert_sparse_rows(m, nrows, ncols):
    """m is nrows dicts with int keys in [0, ncols) and values as ``linalg.exact`` gives them."""
    assert type(m) is list and len(m) == nrows
    for r in m:
        assert type(r) is dict
        for j, c in r.items():
            assert type(j) is int and 0 <= j < ncols
            assert is_exact(c), c


def _assert_slice_blocks(slc):
    """Every differential block of a dg Lie slice and of its chain slice."""
    for c in (slc, slc.to_chain()):
        for d in range(c.lo + 1, c.hi + 1):
            _assert_sparse_rows(c.d_matrix(d), c.dim(d - 1), c.dim(d))


def _load(fixture_path, name):
    return io.load_json_file(fixture_path(name))


def test_matrices_of_the_pipelines_are_sparse_rows(fixture_path):
    # xi w11 0..2: both Der_u chains
    m = io.load_manifold(_load(fixture_path, "w11.json"))
    tilde, _, _ = tilde_model(m)
    for slc in (deru(m.presentation, "omega", None, (-1, 3)), deru(tilde, "beta", None, (-1, 3))):
        _assert_slice_blocks(slc)
    # der presentation_w11 omega 0..6
    p = io.load_presentation(_load(fixture_path, "presentation_w11.json"))
    _assert_slice_blocks(der_complex(p, "omega", (0, 6)))
    # ce sl2 0..3: the CE differentials
    g = io.load_slice_or_presentation(_load(fixture_path, "sl2.json")).pad_to(0, 3)
    ce = CESlice(g, 4)
    for k in range(1, 5):
        _assert_sparse_rows(ce.d_matrix(k), ce.dim(k - 1), ce.dim(k))
    # the glued g of w11 # w11, the gluing map and the summed pairing
    mn = boundary_connected_sum(m, m)
    _assert_sparse_rows(mn.v.pairing, 4, 4)
    _assert_sparse_rows(mn.v.duals, 4, 4)
    gm, gmn = build_block_g(m, (0, 2)), build_block_g(mn, (0, 2))
    _assert_slice_blocks(gmn)
    gmap = glue_headline_g(gm, gm, gmn, *mn.inclusions, assert_semisimple=True)
    for d, block in gmap.blocks.items():
        _assert_sparse_rows(block, gmn.dim(d), 2 * gm.dim(d))
    # g --rho rho_twisted9: the rho blocks and g's differential
    p = io.load_presentation(_load(fixture_path, "presentation_twisted9.json"))
    rho, pi = io.load_rho(_load(fixture_path, "rho_twisted9.json"), p)
    assert rho.blocks
    for d, block in rho.blocks.items():
        _assert_sparse_rows(block, pi.dim(d), p.generators.dim(d))
    _assert_slice_blocks(build_g(p, None, "omega", rho, pi, (-1, 3)))


# -- the primitive-row core against Bareiss elimination ---------------------------


def _eliminated(monkeypatch, run):
    """Every (rows, ncols) that ``linalg._echelon`` is given while ``run()`` runs."""
    seen = []
    plain = linalg._echelon

    def record(rows, ncols):
        rows = list(rows)
        seen.append((rows, ncols))
        return plain(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", record)
    run()
    monkeypatch.setattr(linalg, "_echelon", plain)
    return seen


def _assert_agrees_with_bareiss(rows, ncols):
    """Same pivots and RREF as Bareiss elimination, and every echelon row primitive."""
    ech, pivots = linalg._echelon(rows, ncols)
    assert pivots == bareiss_echelon(rows, ncols)[1]
    assert all(gcd(*r.values()) == 1 for r in ech)
    assert linalg.rref(rows, ncols) == rref_all_fractions(rows, ncols, bareiss_echelon)


def test_elimination_agrees_with_bareiss_on_the_corpus_matrices(monkeypatch, tmp_path):
    from dgla.cli import run
    from test_acceptance import CLI_CORPUS

    root = os.path.join(os.path.dirname(__file__), "..")
    monkeypatch.chdir(root)

    def corpus():
        for i, (cmd, files, flags) in enumerate(CLI_CORPUS):
            argv = [cmd] + [os.path.join("fixtures", f) for f in files]
            argv += [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]
            assert run(argv + ["--out", str(tmp_path / ("r%d.json" % i))])[0] in (0, 1)
        # der presentation_w11 omega up to degree 20: condition matrices up
        # to 335 x 372, the shape of the deep der windows
        p = io.load_presentation(io.load_json_file(os.path.join("fixtures", "presentation_w11.json")))
        der_complex(p, "omega", (0, 20))

    matrices = _eliminated(monkeypatch, corpus)
    assert len(matrices) > 100 and max(len(rows) for rows, _ in matrices) > 300
    for rows, ncols in matrices:
        _assert_agrees_with_bareiss(rows, ncols)


def _planted_rank_matrix(rng):
    """A sparse m x n product B C of random m x r and r x n factors, rows shuffled.

    The rank is at most r, which is below min(m, n); some entries are
    Fractions, some rows zero or repeated.
    """
    m, n = rng.randint(1, 25), rng.randint(1, 25)
    r = rng.randint(0, min(m, n) - 1)

    def entry():
        if rng.random() < 0.6:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3]))

    b = [[entry() for _ in range(r)] for _ in range(m)]
    c = [[entry() for _ in range(n)] for _ in range(r)]
    dense = naive_matmul(b, c, n) if r else [[0] * n for _ in range(m)]
    if m > 1:
        dense[rng.randrange(m)] = list(dense[rng.randrange(m)])
    rng.shuffle(dense)
    return dense, n, r


@pytest.mark.parametrize("seed", range(40))
def test_elimination_agrees_with_bareiss_on_planted_rank_deficiency(seed):
    dense, ncols, r = _planted_rank_matrix(random.Random(seed))
    rows = _matrix(dense, ncols)
    rank = linalg.rank(rows, ncols)
    assert rank == gauss_rank(dense) <= r < min(len(dense), ncols)
    _assert_agrees_with_bareiss(rows, ncols)
    # and its transpose, whose pivots are the rows of an image basis
    _assert_agrees_with_bareiss(linalg.columns(rows, ncols), len(dense))
