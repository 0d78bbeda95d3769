import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgla import linalg
from dgla.errors import NotAComplex
from oracles import gauss_jordan, gauss_rank, naive_matmul

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "dgla")


def test_rank_examples():
    assert linalg.rank([[0, 0], [0, 0]], 2) == 0
    assert linalg.rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3
    # hand elimination: rank 1, kernel spanned by (2, -1) up to scale
    m = [[1, 2], [2, 4]]
    assert linalg.rank(m, 2) == 1
    kernel, free = linalg.kernel_basis(m, 2)
    assert len(kernel) == 1
    x, y = (kernel[0].get(j, 0) for j in range(2))
    assert x * 1 + y * 2 == 0 and (x, y) != (0, 0)
    assert Fraction(2) * y == -x * Fraction(1) or x / y == Fraction(-2)


def test_solve_and_kernel():
    m = [[1, 2, 3], [0, 1, 1]]
    sol = linalg.solve(m, 3, {0: 6, 1: 2})
    assert sol is not None
    assert linalg.matvec(m, sol) == {0: Fraction(6), 1: Fraction(2)}
    assert linalg.solve([[1, 0], [0, 1], [1, 1]], 2, {0: 1, 1: 1, 2: 3}) is None


def test_pivot_columns_give_image_basis():
    m = [[1, 2, 0], [2, 4, 1]]
    pts = linalg.pivot_columns(m, 3)
    chosen = [[r[p] for r in m] for p in pts]
    assert gauss_rank(chosen) == linalg.rank(m, 3) == 2


def test_subspace_coords_roundtrip():
    vs = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    s = linalg.Subspace.from_vectors(vs, 3)
    v = {0: Fraction(3), 1: Fraction(7), 2: Fraction(1)}
    c = s.coords(v)
    assert c is not None
    assert s.vector(c) == v
    assert s.coords({0: 1}) is None


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
    assert linalg.rank(rows, 4) == gauss_rank(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
def test_rank_nullity(rows):
    kernel, _ = linalg.kernel_basis(rows, 3)
    assert linalg.rank(rows, 3) + len(kernel) == 3
    for v in kernel:
        assert linalg.matvec(rows, v) == {}


def test_bit_length_pivoting_stays_exact():
    rng = random.Random(7)
    rows = [
        [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(6)]
        for _ in range(6)
    ]
    r = linalg.rank(rows, 6)
    assert r == gauss_rank(rows)


def test_matrix_sums_repeated_entries():
    m = linalg.matrix(2, 3, [(0, 1, 2), (1, 2, Fraction(1, 3)), (0, 1, Fraction(-1, 2))])
    assert m == [[0, Fraction(3, 2), 0], [0, 0, Fraction(1, 3)]]
    assert all(type(x) is Fraction for r in m for x in r)
    assert linalg.matrix(1, 1, [(0, 0, 1), (0, 0, -1)]) == [[0]]


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_matrix_without_entries_is_zero_of_that_shape(nrows, ncols):
    m = linalg.matrix(nrows, ncols)
    assert len(m) == nrows and all(len(r) == ncols for r in m)
    assert linalg.is_zero_matrix(m)
    if nrows > 1 and ncols:
        m[0][0] = Fraction(1)
        assert m[1][0] == 0  # each row is its own list


def test_matrix_of_entries_places_a_block_at_an_offset():
    m = [[1, 0], [Fraction(2, 3), -4]]
    assert list(linalg.entries(m)) == [(0, 0, 1), (1, 0, Fraction(2, 3)), (1, 1, -4)]
    big = linalg.matrix(4, 5, linalg.entries(m, 1, 2))
    assert big == [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, Fraction(2, 3), -4, 0],
        [0, 0, 0, 0, 0],
    ]
    assert linalg.matrix(2, 2, linalg.entries(m)) == m


def test_check_d_squared_raises_at_the_first_failing_degree():
    # C_0 <- C_1 <- C_2 <- C_3 <- C_4, each of dimension one: d_1 d_2 and
    # d_2 d_3 vanish, d_3 d_4 does not
    blocks = {1: [[1]], 2: [[0]], 3: [[1]], 4: [[1]]}
    linalg.check_d_squared(blocks.__getitem__, 0, 3)
    with pytest.raises(NotAComplex, match="degree 4"):
        linalg.check_d_squared(blocks.__getitem__, 0, 4)
    blocks[2] = [[5]]
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
    m = [[2, 1], [Fraction(1, 2), 1]]
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == [[1, 0], [0, 1]]
    assert linalg.inverse([[1, 2], [2, 4]]) is None
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
def _sparse_matrix(draw, nrows=None, ncols=None):
    """An nrows x ncols matrix with a random set of nonzero int or Fraction entries."""
    n = draw(st.integers(0, 7)) if nrows is None else nrows
    m = draw(st.integers(0, 7)) if ncols is None else ncols
    rows = [[0] * m for _ in range(n)]
    if n and m:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
        for i, j in draw(st.sets(cells, max_size=n * m)):
            rows[i][j] = draw(_nonzero)
    return rows, m


def _all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrix(), st.data())
@example(([], 0), None)
@example(([], 3), None)
@example(([[], []], 0), None)
@example(([[Fraction(-7, 3)]], 1), None)
@example(([[0]], 1), None)
def test_elimination_agrees_with_gauss_jordan(case, data):
    rows, ncols = case
    red, pivots = gauss_jordan(rows, ncols)
    got, got_pivots = linalg.rref(rows, ncols)
    assert (got, got_pivots) == (red, pivots) and _all_fractions(got)
    assert linalg.pivot_columns(rows, ncols) == pivots
    assert linalg.rank(rows, ncols) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for f in free:
        v = [Fraction(int(c == f)) for c in range(ncols)]
        for r, pc in zip(red, pivots):
            v[pc] = -r[f]
        kernel.append(v)
    got_kernel, got_free = linalg.kernel_basis(rows, ncols)
    assert (got_kernel, got_free) == (_sparse(kernel), free)
    assert _all_fractions([v.values() for v in got_kernel])
    rhs = [0] * len(rows) if data is None else data.draw(_sparse_matrix(1, len(rows)))[0][0]
    aug, aug_pivots = gauss_jordan([r + [b] for r, b in zip(rows, rhs)], ncols + 1)
    x = linalg.solve(rows, ncols, _sparse([rhs])[0])
    if ncols in aug_pivots:
        assert x is None
    else:
        want = [Fraction(0)] * ncols
        for r, pc in zip(aug, aug_pivots):
            want[pc] = r[ncols]
        assert x == _sparse([want])[0] and _all_fractions([x.values()])
        assert naive_matmul(rows, [[x.get(j, 0)] for j in range(ncols)], 1) == [[b] for b in rhs]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: _sparse_matrix(n, n)))
@example(([], 0))
@example(([[Fraction(5, 3)]], 1))
@example(([[0]], 1))
def test_inverse_agrees_with_gauss_jordan(case):
    rows, n = case
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = gauss_jordan([r + e for r, e in zip(rows, identity)], 2 * n)
    inv = linalg.inverse(rows)
    if pivots[:n] != list(range(n)):
        assert inv is None
    else:
        assert inv == [r[n:] for r in red] and _all_fractions(inv)
        assert naive_matmul(rows, inv, n) == naive_matmul(inv, rows, n) == identity


@st.composite
def _product_operands(draw):
    """An n x k and a k x m matrix; m is 0 when k is, since [] has no columns."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    a, _ = draw(_sparse_matrix(n, k))
    b, _ = draw(_sparse_matrix(k, m if k else 0))
    return a, b, m if k else 0


@settings(max_examples=100, deadline=None)
@given(_product_operands())
def test_products_agree_with_the_triple_loop(operands):
    a, b, m = operands
    product = linalg.matmul(a, b)
    assert product == naive_matmul(a, b, m) and _all_fractions(product)
    if b:
        x = [r[0] for r in b] if m else [0] * len(b)
        y = linalg.matvec(a, _sparse([x])[0])
        want = [r[0] for r in naive_matmul(a, [[c] for c in x], 1)]
        assert y == _sparse([want])[0] and _all_fractions([y.values()])


def test_products_touch_only_nonzeros():
    """Permutation matrices: one product per nonzero, where the dense loops make n^3."""
    n = 300
    products = []

    class Counted(Fraction):
        def __mul__(self, other):
            products.append(1)
            assert len(products) <= n, "a product with a zero entry"
            return Fraction.__mul__(self, other)

    zero, one = Counted(0), Counted(1)
    rng = random.Random(11)
    perms = [rng.sample(range(n), n) for _ in range(2)]
    a, b = ([[one if j == p[i] else zero for j in range(n)] for i in range(n)] for p in perms)
    product = linalg.matmul(a, b)
    assert len(products) == n
    assert product == [[int(j == perms[1][perms[0][i]]) for j in range(n)] for i in range(n)]
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
    ker = linalg.Subspace.from_kernel(a, n)
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
