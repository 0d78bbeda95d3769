"""Exact linear algebra over Q.

A matrix is a plain list of sparse rows, one ``{column: value}`` dict per
row with no zero values.  A value is an exact rational, never a float or
bool: the builders store an ``int`` wherever it is integral and a
``Fraction`` only where there is a denominator (see ``exact``), and the
two mix exactly.  Rows index the target basis and columns the source
basis.  The width is not stored: every function that needs it takes
``ncols``, and callers know it from their bases.  The library builds every
matrix with ``matrix`` from (row, column, value) triples, reads it with
``entries`` or ``columns`` and checks it with ``has_shape``, so only this
module knows how a matrix is stored.

The matrices the library builds are about 1% nonzero with entries of a few
bits, and every kernel works on the nonzeros alone: products multiply
nonzero pairs only, and elimination scales each row to a primitive
integer row, a ``{column: int}`` dict whose entries have gcd 1, and runs
one fraction-free core.  That core is sparse elimination on primitive
rows, column by column, with Markowitz-style pivoting (Markowitz 1957): in
each column the pivot row is the one with the fewest nonzeros, then the
smallest pivot entry, which limits fill-in.  Each row operation
cancels the pivot column by the two entries' cofactors over their gcd and
divides the new row by its content, so no entry grows past what the
row's direction needs (Bareiss's integer minors grew with the step count
on wide systems).  Back-substitution uses the same row operation.
Floats are banned.

A vector is an ``{index: value}`` dict with no zero entries, the same form
as a row.  ``matvec`` and ``solve`` take and return them, ``kernel_basis``
and ``extend_independent`` work on them, and ``Subspace`` keeps its
basis, members and coordinates in that form.  Callers read a matrix's
``columns`` as such vectors and build one ``from_columns``.

A sparse sum of vectors adds each c * v with ``accumulate`` into a dict of
its own and reads the result with ``nonzeros``: ``combination`` is that
loop over a list of terms, and the sums of Lie elements and derivation
values are such sums.  Only ``matmul``, elimination's row operation
(``_clear``, one pass over its two rows) and the free-Lie tensor kernels
keep loops of their own.

Desk scale only: matrices of a few thousand rows/columns.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm

from .errors import NotAComplex


def exact(c):
    """The coefficient c as an ``int`` when it is integral, else as a ``Fraction``.

    Integer arithmetic skips the constructor and gcd that every ``Fraction``
    operation pays, and mixing the two stays exact (``1 == Fraction(1)``,
    with equal hashes), so every builder of coefficients stores an ``int``
    wherever there is no denominator.
    """
    if type(c) is int:
        return c
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def accumulate(out, c, v):
    """Add c * v into ``out``, a sparse sum the caller owns and reads with ``nonzeros``.

    Scalars 1 and -1, the most common, add and subtract without a product.
    The sum stays exact; a sum of Fractions can be an integral Fraction,
    which is equal to its int.
    """
    get = out.get
    if c == 1:
        for k, x in v.items():
            y = get(k)
            out[k] = x if y is None else y + x
    elif c == -1:
        for k, x in v.items():
            y = get(k)
            out[k] = -x if y is None else y - x
    else:
        for k, x in v.items():
            y = get(k)
            out[k] = x * c if y is None else y + x * c


def nonzeros(out):
    """The sparse vector of a finished ``accumulate`` sum: its nonzero entries."""
    return {k: x for k, x in out.items() if x}


def combination(terms):
    """The sparse vector sum of c * v over the (c, v) in ``terms``.

    Vectors are ``{index: coefficient}`` dicts; the result holds no zeros,
    so it is empty exactly when the sum vanishes.
    """
    out = {}
    for c, v in terms:
        accumulate(out, c, v)
    return nonzeros(out)


def _primitive_echelon(rows, ncols):
    """Sparse fraction-free row echelon form of primitive integer rows ``{column: int}``.

    Columns below ``ncols`` are taken left to right; in each, the pivot is
    the row piv with the fewest nonzeros, then the smallest pivot entry.
    Each other row r with an entry in the pivot column becomes
    (piv[col] / g) * r - (r[col] / g) * piv, with g = gcd(piv[col], r[col]),
    divided by the gcd of its entries (``_clear``): every row stays
    primitive, so its entries are as small as the row's direction allows,
    and a step touches only the rows it eliminates.  Returns (echelon_rows, pivot_cols): primitive
    integer rows with staircase structure, and the pivot column of each.
    """
    by_lead = {}  # leading column -> rows leading there
    for r in rows:
        if r:
            by_lead.setdefault(min(r), []).append(r)
    heap = list(by_lead)
    heapify(heap)
    ech, pivots = [], []
    while heap and heap[0] < ncols:
        col = heappop(heap)
        cands = by_lead.pop(col)
        piv = min(cands, key=lambda r: (len(r), abs(r[col]).bit_length()))
        for r in cands:
            if r is piv:
                continue
            nr = _clear(r, piv, col)
            if nr:
                lead = min(nr)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(heap, lead)
                by_lead[lead].append(nr)
        ech.append(piv)
        pivots.append(col)
    return ech, pivots


def _clear(r, s, col):
    """The integer row r with its entry at col cleared by the row s, made primitive.

    (s[col] / g) * r - (r[col] / g) * s with g = gcd(s[col], r[col]), a
    positive multiple of s[col] * r - r[col] * s, divided by its content.
    One pass over each row, r's columns first; rows hold no zeros, so only
    a column of both can cancel.
    """
    g = gcd(s[col], r[col])
    a, b, get = s[col] // g, r[col] // g, s.get
    out = {j: v for j, x in r.items() if (v := a * x - b * get(j, 0))}
    out.update({j: -b * y for j, y in s.items() if j not in r})
    return _primitive(out)


def _primitive(r):
    """The integer row r divided by the gcd of its entries (r itself when that is 1)."""
    g = gcd(*r.values())
    return r if g == 1 else {j: v // g for j, v in r.items()}


def _echelon(rows, ncols):
    """``_primitive_echelon`` of sparse rows scaled to primitive integer rows.

    Zero values are dropped.
    """
    int_rows = []
    for r in rows:
        nz = [(j, x) for j, x in r.items() if x]
        den = lcm(*(x.denominator for _, x in nz))
        int_rows.append(_primitive({j: x.numerator * (den // x.denominator) for j, x in nz}))
    return _primitive_echelon(int_rows, ncols)


def rref(rows, ncols):
    """Reduced row echelon form over Q of a list of sparse rows.

    Returns (rref_rows, pivot_cols): sparse rows with entry 1 at their
    pivot column and no entry in the other pivot columns.  Back-substitution
    runs bottom-up on the primitive echelon rows, with the echelon's row
    operation (``_clear``): each row clears its entries at the pivots of
    the rows below it, which are already reduced and so vanish at every
    other pivot.  Each row is then divided by its pivot entry, to an int
    wherever that divides and a Fraction elsewhere.
    """
    ech, pivots = _echelon(rows, ncols)
    below = {}  # pivot column -> reduced primitive integer row
    for r, pc in zip(reversed(ech), reversed(pivots)):
        for p in [j for j in r if j in below]:
            r = _clear(r, below[p], p)
        below[pc] = r
    red = []
    for pc in pivots:
        r = below[pc]
        p = r[pc]
        red.append({j: v // p if v % p == 0 else Fraction(v, p) for j, v in r.items()})
    return red, pivots


def rank(rows, ncols):
    return len(_echelon(rows, ncols)[1])


def pivot_columns(rows, ncols):
    """Columns of an independent subset of the matrix's columns.

    Elementary row operations preserve linear relations between columns, so
    the pivot columns of the echelon form index an image basis among the
    original columns.
    """
    return _echelon(rows, ncols)[1]


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} as sparse vectors, for a list of sparse rows.

    The basis vector attached to free column f has entry 1 at f and 0 at all
    other free columns, so reading off the free coordinates of any kernel
    vector gives its coordinates in this basis.  Its other entries are the
    negated entries at f of the RREF rows, at their pivots.  Returns
    (vectors, free_cols).
    """
    red, pivots = rref(rows, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    vecs = {f: {f: 1} for f in free}
    for r, pc in zip(red, pivots):
        for j, x in r.items():
            if j != pc:
                vecs[j][pc] = -x
    return [vecs[f] for f in free], free


def solve(rows, ncols, rhs):
    """One sparse solution x of A x = rhs for a sparse rhs, or None if inconsistent."""
    aug = [{**r, ncols: rhs[i]} if i in rhs else r for i, r in enumerate(rows)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    return {pc: r[ncols] for r, pc in zip(red, pivots) if ncols in r}


def inverse(rows):
    """The inverse of a square matrix, or None if it is singular."""
    n = len(rows)
    red, pivots = rref([{**r, n + i: 1} for i, r in enumerate(rows)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [{j - n: x for j, x in r.items() if j >= n} for r in red]


def matvec(rows, x):
    """The sparse vector A x of a sparse vector x."""
    out = {}
    for i, r in enumerate(rows):
        y = sum(c * x[j] for j, c in r.items() if j in x)
        if y:
            out[i] = y
    return out


def matmul(a, b):
    out = []
    for r in a:
        acc = {}
        for k, x in r.items():
            for j, y in b[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def matrix(nrows, ncols, entries=()):
    """An nrows x ncols matrix with the sum of the c of all (i, j, c) in entries at (i, j).

    Positions no triple names are zero.  ValueError if a triple lies
    outside the shape.
    """
    rows = [{} for _ in range(nrows)]
    for i, j, c in entries:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, nrows, ncols))
        r = rows[i]
        r[j] = r[j] + c if j in r else c
    return [{j: exact(c) for j, c in r.items() if c} for r in rows]


def has_shape(m, nrows, ncols):
    """True iff m is nrows sparse rows with no entry outside the first ncols columns."""
    return len(m) == nrows and all(type(r) is dict and all(0 <= j < ncols for j in r) for r in m)


def entries(m, row=0, col=0):
    """The (i + row, j + col, c) triples of the nonzero entries c of m, row by row."""
    for i, r in enumerate(m):
        for j in sorted(r):
            yield i + row, j + col, r[j]


def columns(m, ncols):
    """The ncols columns of m, each as the ``{row: value}`` dict of its nonzeros."""
    cols = [{} for _ in range(ncols)]
    for i, r in enumerate(m):
        for j, c in r.items():
            cols[j][i] = c
    return cols


def from_columns(nrows, cols):
    """The nrows x len(cols) matrix whose j-th column is the sparse vector cols[j]."""
    ents = ((i, j, c) for j, col in enumerate(cols) for i, c in col.items())
    return matrix(nrows, len(cols), ents)


def check_d_squared(d_matrix, lo, hi):
    """The d^2 = 0 certificate of a complex on the degree window [lo, hi].

    ``d_matrix(d)`` is the differential out of degree d.  Raises NotAComplex
    unless d_matrix(d - 1) . d_matrix(d) = 0 for lo + 2 <= d <= hi.
    """
    for d in range(lo + 2, hi + 1):
        if not is_zero_matrix(matmul(d_matrix(d - 1), d_matrix(d))):
            raise NotAComplex("d^2 != 0 from degree %d" % d)


def is_zero_matrix(rows):
    return not any(rows)


class Subspace:
    """A subspace of Q^n with a sparse basis read off at pivot columns.

    Each of ``vectors`` is a sparse ``{column: value}`` row with 1 at its
    own pivot and 0 at the others' pivots, so the coordinates of a member
    are read off at the pivot columns.  ``from_vectors`` keeps the reduced
    row echelon basis of a span; ``from_kernel`` keeps the kernel basis of
    ``kernel_basis``, whose pivots are the free columns.  Every basis value is
    an ``int`` where it is integral and a ``Fraction`` only where there is
    a denominator, as ``exact`` gives it; the pivot 1 is the int 1.
    Members are sparse vectors with no zero entries, and coordinates are
    sparse ``{index: value}`` dicts of a member's own values.
    """

    def __init__(self, ambient_dim, vectors, pivots):
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots
        self._index = {p: i for i, p in enumerate(pivots)}

    @classmethod
    def from_kernel(cls, rows, ncols):
        vecs, free = kernel_basis(rows, ncols)
        return cls(ncols, vecs, free)

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        red, pivots = rref(vectors, ambient_dim)
        return cls(ambient_dim, red, pivots)

    @classmethod
    def full(cls, n):
        return cls(n, [{i: 1} for i in range(n)], list(range(n)))

    @property
    def dim(self):
        return len(self.vectors)

    def coords(self, v):
        """Coordinates of v in the basis; None if v is not a member.

        Certified on every call: the vector rebuilt from the coordinates
        must be v.  So v less that combination, summed into a copy of v,
        must vanish, and v must hold no zero entry, as a rebuilt vector
        holds none.
        """
        index, vectors = self._index, self.vectors
        c = {index[j]: x for j, x in v.items() if j in index}
        rest = dict(v)
        for i, x in c.items():
            accumulate(rest, -x, vectors[i])
        return None if any(rest.values()) or not all(v.values()) else c

    def contains(self, v):
        return self.coords(v) is not None

    def vector(self, coords):
        return combination((c, self.vectors[i]) for i, c in coords.items())

    def intersection(self, other):
        """Subspace intersection via the kernel of the stacked basis."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not self.vectors or not other.vectors:
            return Subspace(self.ambient_dim, [], [])
        stacked = from_columns(self.ambient_dim, self.vectors + other.vectors)
        sol, _ = kernel_basis(stacked, self.dim + other.dim)
        vecs = [self.vector({i: c for i, c in s.items() if i < self.dim}) for s in sol]
        return Subspace.from_vectors(vecs, self.ambient_dim)


def extend_independent(base, candidates, ncols):
    """Indices of the sparse candidate vectors extending the span of base.

    Greedy: a candidate is kept iff it is independent of base plus the
    candidates already kept.  These are the pivot columns past the base of
    the matrix with columns base followed by candidates, so one elimination
    of its rows (one per coordinate below ncols) finds them all.  Used to
    pick homology representatives among cycles modulo boundaries.
    """
    nbase = len(base)
    rows = [{} for _ in range(ncols)]
    for j, v in enumerate(chain(base, candidates)):
        for i, x in v.items():
            rows[i][j] = x
    pivots = _echelon(rows, nbase + len(candidates))[1]
    return [p - nbase for p in pivots if p >= nbase]
