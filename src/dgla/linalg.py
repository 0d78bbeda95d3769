"""Exact linear algebra over Q.

Everything here works on dense matrices given as lists of rows of
``fractions.Fraction`` (integers are accepted and coerced).  The elimination
core is fraction-free: rows are scaled to integers and reduced by
Bareiss-style elimination, with the pivot in each column chosen among the
candidate rows to minimize the bit length of the pivot entry.  Coefficient
growth, not row count, is the dominant cost on free-Lie-algebra matrices,
which is why floats are banned and pivoting is by entry size.

Desk scale only: matrices of a few thousand rows/columns.
"""

from fractions import Fraction
from math import gcd


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for r in rows:
        den = 1
        for x in r:
            d = x.denominator
            den = den * d // gcd(den, d)
        out.append([int(x * den) for x in r])
    return out


def _bareiss_echelon(int_rows, ncols):
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon_rows, pivot_cols) where echelon_rows are integer rows
    with staircase structure and pivot_cols[i] is the pivot column of row i.
    """
    rows = [r[:] for r in int_rows if any(r)]
    ech = []
    pivots = []
    prev = 1
    col = 0
    while rows and col < ncols:
        cands = [i for i, r in enumerate(rows) if r[col] != 0]
        if not cands:
            col += 1
            continue
        best = min(cands, key=lambda i: abs(rows[i][col]).bit_length())
        piv = rows.pop(best)
        pv = piv[col]
        nxt = []
        for r in rows:
            rc = r[col]
            nr = [(pv * r[j] - rc * piv[j]) // prev for j in range(ncols)]
            if any(nr):
                nxt.append(nr)
        ech.append(piv)
        pivots.append(col)
        rows = nxt
        prev = pv
        col += 1
    return ech, pivots


def rank(rows, ncols=None):
    rows = _as_fraction_rows(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    _, pivots = _bareiss_echelon(_integer_rows(rows), ncols)
    return len(pivots)


def rref(rows, ncols):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_cols); rref_rows have leading entry 1 at their
    pivot column and zeros above and below it.
    """
    rows = _as_fraction_rows(rows)
    ech, pivots = _bareiss_echelon(_integer_rows(rows), ncols)
    red = [[Fraction(x) for x in r] for r in ech]
    for i in range(len(red) - 1, -1, -1):
        pc = pivots[i]
        lead = red[i][pc]
        red[i] = [x / lead for x in red[i]]
        for k in range(i):
            f = red[k][pc]
            if f:
                red[k] = [a - f * b for a, b in zip(red[k], red[i])]
    return red, pivots


def pivot_columns(rows, ncols):
    """Columns of an independent subset of the matrix's columns.

    Elementary row operations preserve linear relations between columns, so
    the pivot columns of the echelon form index an image basis among the
    original columns.
    """
    rows = _as_fraction_rows(rows)
    _, pivots = _bareiss_echelon(_integer_rows(rows), ncols)
    return pivots


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} as a list of Fraction vectors.

    The basis vector attached to free column f has entry 1 at f and 0 at all
    other free columns, so reading off the free coordinates of any kernel
    vector gives its coordinates in this basis.  Returns (vectors, free_cols).
    """
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    vecs = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][f]
        vecs.append(v)
    return vecs, free


def solve(rows, ncols, rhs):
    """One solution of A x = rhs, or None if inconsistent."""
    rows = _as_fraction_rows(rows)
    rhs = [Fraction(x) for x in rhs]
    aug = [r + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def matvec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


def matmul(a, b):
    if not a:
        return []
    cols = list(zip(*b)) if b else []
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in a]


def zero_matrix(nrows, ncols):
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def unit_vector(n, i):
    """The i-th standard basis vector of length n."""
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def identity_matrix(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def is_zero_matrix(rows):
    return all(all(x == 0 for x in r) for r in rows)


def transpose(rows, ncols):
    if not rows:
        return []
    return [list(c) for c in zip(*rows)]


class Subspace:
    """A subspace of Q^n with an RREF basis and O(dim) coordinate extraction.

    ``vectors`` are the basis in reduced row echelon form, so the coordinate
    vector of any member is read off at the pivot columns.
    """

    def __init__(self, ambient_dim, vectors, pivots):
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots

    @classmethod
    def from_kernel(cls, rows, ncols):
        vecs, free = kernel_basis(rows, ncols)
        return cls(ncols, vecs, free)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        if not vectors:
            return cls(ambient_dim, [], [])
        red, pivots = rref(vectors, ambient_dim)
        return cls(ambient_dim, red, pivots)

    @classmethod
    def full(cls, n):
        return cls(n, identity_matrix(n), list(range(n)))

    @property
    def dim(self):
        return len(self.vectors)

    def coords(self, v, check=True):
        """Coordinates of v in the RREF basis; None if v is not a member."""
        v = [Fraction(x) for x in v]
        c = [v[p] for p in self.pivots]
        if check:
            rec = [Fraction(0)] * self.ambient_dim
            for ci, bv in zip(c, self.vectors):
                if ci:
                    for j, x in enumerate(bv):
                        if x:
                            rec[j] += ci * x
            if rec != v:
                return None
        return c

    def contains(self, v):
        return self.coords(v, check=True) is not None

    def vector(self, coords):
        out = [Fraction(0)] * self.ambient_dim
        for ci, bv in zip(coords, self.vectors):
            if ci:
                for j, x in enumerate(bv):
                    if x:
                        out[j] += ci * x
        return out

    def intersection(self, other):
        """Subspace intersection via the kernel of the stacked basis."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not self.vectors or not other.vectors:
            return Subspace(self.ambient_dim, [], [])
        cols = [list(v) for v in self.vectors] + [list(v) for v in other.vectors]
        rows = transpose(cols, self.ambient_dim)
        sol, _ = kernel_basis(rows, len(cols))
        vecs = []
        for s in sol:
            v = [Fraction(0)] * self.ambient_dim
            for ci, bv in zip(s[: self.dim], self.vectors):
                for j, x in enumerate(bv):
                    v[j] += ci * x
            vecs.append(v)
        return Subspace.from_vectors(vecs, self.ambient_dim)


def extend_independent(base_rows, candidates, ncols):
    """Indices of candidate vectors extending the span of base_rows.

    Greedy: a candidate is kept iff it is independent of base_rows plus the
    candidates already kept.  Used to pick homology representatives among
    cycles modulo boundaries.
    """
    kept = []
    current = list(base_rows)
    r = rank(current, ncols) if current else 0
    for i, c in enumerate(candidates):
        trial = current + [c]
        r2 = rank(trial, ncols)
        if r2 > r:
            kept.append(i)
            current = trial
            r = r2
    return kept
