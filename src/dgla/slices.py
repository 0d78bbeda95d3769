"""Finite degree-windowed dg Lie algebras with explicit tables.

A DgLieSlice is the unit of everything downstream of the derivation
complexes: a ``graded.DegreeWindow`` (per-degree labels, differential
blocks, ``zero_below``) with a bracket given by a callback on basis pairs
(derivation complexes compute brackets lazily).  The bracket is memoized as
one sparse structure-constant table {(n, i, m, j): {k: c}}, and every
bilinear computation on a slice goes through ``bilinear`` over such a
table.  Vectors are sparse {index: value} dicts with no zero entries.
Degrees outside the window are unknown, not zero; any access outside
raises WindowTooNarrow.  A builder that knows its slice vanishes below the
window passes ``zero_below`` to the constructor; ``to_chain`` hands the
slice's own labels and blocks to a ChainComplexSlice, which adds the zero
degree below.
"""

from itertools import chain, combinations_with_replacement, groupby, product

from . import linalg
from .errors import AxiomFailure, NotAComplex
from .graded import ChainComplexSlice, DegreeWindow
from .linalg import combination, exact


def bilinear(table, n, x, m, y):
    """The bilinear extension of a basis table to sparse vectors.

    ``table(n, i, m, j)`` is the sparse image of the basis pair (n, i),
    (m, j); ``x`` and ``y`` are sparse vectors of degrees n and m.
    """
    return combination(
        (a * b, table(n, i, m, j)) for i, a in x.items() for j, b in y.items()
    )


class DgLieSlice(DegreeWindow):
    """A dg Lie algebra on a degree window: a DegreeWindow with a bracket.

    Unlike a ChainComplexSlice, it certifies nothing when it is built; its
    builders and callers run ``check_d_squared`` and the axiom checks.
    """

    def __init__(self, window, labels, d_blocks=None, bracket_fn=None, zero_below=False):
        super().__init__(window, labels, d_blocks, zero_below)
        self._bracket_fn = bracket_fn
        self._structure = {}
        self._antisymmetric = set()  # degree pairs whose antisymmetry is certified

    # -- structure access -------------------------------------------------

    def bracket(self, n, i, m, j):
        """The structure constants of [e_i^(n), e_j^(m)]: a sparse {k: c} in degree n+m.

        Memoized; callers must not mutate the result.  ``bracket_fn``
        returns the same sparse form; without one the bracket is zero.  A
        pair is checked once, on its first read: a degree n, m or n + m
        outside the window raises WindowTooNarrow, and an index outside its
        degree's basis IndexError.
        """
        key = (n, i, m, j)
        got = self._structure.get(key)
        if got is None:
            labels = self.labels  # one list per degree of the window
            if not (n + m in labels and 0 <= i < len(labels.get(n, ()))
                    and 0 <= j < len(labels.get(m, ()))):
                for d in (n, m, n + m):
                    self.dim(d)  # raises WindowTooNarrow at the first outside
                raise IndexError("no basis pair (%d,%d),(%d,%d) in the slice" % key)
            got = {} if self._bracket_fn is None else self._bracket_fn(n, i, m, j)
            self._structure[key] = got
        return got

    def bracket_vectors(self, n, x, m, y):
        """Bilinear extension of the basis bracket to sparse vectors."""
        return bilinear(self.bracket, n, x, m, y)

    # -- verification -------------------------------------------------------

    def check_d_squared(self):
        linalg.check_d_squared(self.d_matrix, self.lo, self.hi)

    def _basis_pairs(self, n, m):
        return product(range(self.dim(n)), range(self.dim(m)))

    def _unordered_tuples(self, degrees):
        """Basis index tuples of the sorted ``degrees``, each unordered tuple once."""
        runs = [(self.dim(d), len(list(run))) for d, run in groupby(degrees)]
        for parts in product(*(combinations_with_replacement(range(dim), r) for dim, r in runs)):
            yield tuple(chain.from_iterable(parts))

    def _antisymmetry_failures(self, degree_pairs):
        """Each basis pair (n, i, m, j) where [x,y] = -(-1)^{|x||y|}[y,x] fails.

        Walked once per unordered basis pair of each (n, m) of
        ``degree_pairs``, in order, with n <= m and n + m in the window.  A
        degree pair is recorded as certified only once its walk finishes
        with no failure, and is not walked again: the bracket is memoized.
        """
        br = self.bracket
        for n, m in degree_pairs:
            if (n, m) in self._antisymmetric:
                continue
            sign = 1 if (n * m) % 2 else -1
            clean = True
            for i, j in self._unordered_tuples((n, m)):
                if combination([(1, br(n, i, m, j)), (-sign, br(m, j, n, i))]):
                    clean = False
                    yield n, i, m, j
            if clean:
                self._antisymmetric.add((n, m))

    def _check_antisymmetry(self, degree_pairs):
        """Raises AxiomFailure at the first of the ``_antisymmetry_failures``."""
        for witness in self._antisymmetry_failures(degree_pairs):
            raise AxiomFailure("bracket antisymmetry fails at (%d,%d,%d,%d)" % witness)

    def check_bracket_axioms(self):
        """Antisymmetry on every basis pair, Jacobi on every triple, each unordered.

        [x,y] = -(-1)^{|x||y|}[y,x] and
        [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]] once per unordered pair
        and triple of basis elements whose brackets stay in the window: given
        antisymmetry, checked first, the graded Jacobiator is graded-alternating.
        Raises AxiomFailure at the first pair or triple that fails.
        """
        degs = [d for d in range(self.lo, self.hi + 1) if self.labels[d]]
        br = self.bracket
        self._check_antisymmetry(
            (n, m) for n, m in combinations_with_replacement(degs, 2) if self.in_window(n + m)
        )
        for n, m, k in combinations_with_replacement(degs, 3):
            if not all(self.in_window(d) for d in (n + m + k, n + m, m + k, n + k)):
                continue
            sign = -1 if (n * m) % 2 else 1
            for i, j, l in self._unordered_tuples((n, m, k)):
                if combination([
                    (1, bilinear(br, n, {i: 1}, m + k, br(m, j, k, l))),
                    (-1, bilinear(br, n + m, br(n, i, m, j), k, {l: 1})),
                    (-sign, bilinear(br, m, {j: 1}, n + k, br(n, i, k, l))),
                ]):
                    raise AxiomFailure(
                        "Jacobi fails on triple (%d,%d),(%d,%d),(%d,%d)" % (n, i, m, j, k, l)
                    )

    def check_abelian(self):
        """Every in-window bracket of basis elements is zero.

        Raises AxiomFailure at the first pair whose bracket is not.
        """
        for n, m in product(range(self.lo, self.hi + 1), repeat=2):
            if self.in_window(n + m):
                for i, j in self._basis_pairs(n, m):
                    if self.bracket(n, i, m, j):
                        raise AxiomFailure(
                            "bracket nonzero at (%d,%d,%d,%d)" % (n, i, m, j)
                        )

    def check_d_leibniz(self):
        """d[x,y] = [dx,y] + (-1)^{|x|}[x,dy] on every in-window basis pair.

        d out of the bottom degree is known only when the slice is
        ``zero_below``, and is then the zero map: pairs with a factor there
        are walked with dx = 0, and skipped otherwise.  The identity is
        walked once per unordered basis pair, the diagonal included: given
        graded antisymmetry on the degree pairs of [x,y], [dx,y] and [x,dy],
        the (y,x) identity is -(-1)^{|x||y|} times the (x,y) one.  So that a
        standalone call is sound, that antisymmetry is checked first, in the
        same call, on every degree pair no earlier check of this slice has
        certified.  Raises AxiomFailure at the first pair that fails.
        """
        cols = {d: linalg.columns(self.d_matrix(d), self.dim(d))
                for d in range(self.lo + 1, self.hi + 1)}
        if self.zero_below and self.lo <= self.hi:
            cols = {self.lo: [{}] * self.dim(self.lo), **cols}
        walk = [(n, m) for n, m in combinations_with_replacement(cols, 2)
                if self.in_window(n + m) and self.in_window(n + m - 1)]
        # the degree pairs of [x,y], [dx,y] and [x,dy]; a walked factor in
        # the bottom degree has dx = 0, so it needs none
        needed = set(walk)
        needed.update((n - 1, m) for n, m in walk if n > self.lo)
        needed.update(tuple(sorted((n, m - 1))) for n, m in walk if m > self.lo)
        self._check_antisymmetry(sorted(needed))
        br = self.bracket
        for n, m in walk:
            sign = -1 if n % 2 else 1
            for i, j in self._unordered_tuples((n, m)):
                terms = [(c, cols[n + m][k]) for k, c in br(n, i, m, j).items()]
                terms += [
                    (-1, bilinear(br, n - 1, cols[n][i], m, {j: 1})),
                    (-sign, bilinear(br, n, {i: 1}, m - 1, cols[m][j])),
                ]
                if combination(terms):
                    raise AxiomFailure(
                        "d is not a derivation at pair (%d,%d),(%d,%d)" % (n, i, m, j)
                    )

    # -- derived objects ---------------------------------------------------------

    def to_chain(self):
        """As a ChainComplexSlice on the same labels and differential blocks.

        A ``zero_below`` slice's chain gets one zero degree below the
        window, so that homology at the bottom degree is known; otherwise
        that degree stays out of reach.
        """
        return ChainComplexSlice(self.window(), self.labels, self._d, self.zero_below)

    def product(self, other):
        """Direct product g x h with componentwise bracket and differential."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        labels = {
            d: ["l:%s" % s for s in self.labels.get(d, [])]
            + ["r:%s" % s for s in other.labels.get(d, [])]
            for d in range(lo, hi + 1)
        }
        d_blocks = {}
        for d in range(lo + 1, hi + 1):
            d_blocks[d] = linalg.matrix(
                self.dim(d - 1) + other.dim(d - 1),
                self.dim(d) + other.dim(d),
                chain(
                    linalg.entries(self.d_matrix(d)),
                    linalg.entries(other.d_matrix(d), self.dim(d - 1), self.dim(d)),
                ),
            )

        def bracket_fn(n, i, m, j):
            na, ma = self.dim(n), self.dim(m)
            if i < na and j < ma:
                return self.bracket(n, i, m, j)
            if i >= na and j >= ma:
                off = self.dim(n + m)
                return {off + k: x for k, x in other.bracket(n, i - na, m, j - ma).items()}
            return {}

        zero_below = self.zero_below and other.zero_below and self.lo == other.lo
        return DgLieSlice((lo, hi), labels, d_blocks, bracket_fn, zero_below)

    def truncate_nonneg(self):
        """(tau_{>=0}, z0): positive degrees unchanged, degree 0 the cycles z0.

        Degree-0 coordinates are re-expressed in the kernel basis of the
        cycle subspace z0, returned beside the truncation; brackets landing
        in degree 0 are converted accordingly.  The cycles need the
        differential out of degree 0, so the window must reach degree -1
        (WindowTooNarrow otherwise).
        """
        if self.hi < 0:  # nothing of the slice is left
            z0 = linalg.Subspace.full(0)
        else:
            z0 = linalg.Subspace.from_kernel(self.d_matrix(0), self.dim(0))
        hi = max(self.hi, 0)
        labels = {d: self.labels[d] for d in range(1, hi + 1)}
        labels[0] = ["z%d" % i for i in range(z0.dim)]
        d_blocks = {d: self.d_matrix(d) for d in range(2, hi + 1)}
        if hi >= 1:
            cols = [z0.coords(c) for c in linalg.columns(self.d_matrix(1), self.dim(1))]
            if None in cols:
                raise NotAComplex("boundary of degree 1 is not a cycle")
            d_blocks[1] = linalg.from_columns(z0.dim, cols)

        def bracket_fn(n, i, m, j):
            x = {i: 1} if n > 0 else z0.vectors[i]
            y = {j: 1} if m > 0 else z0.vectors[j]
            v = bilinear(self.bracket, n, x, m, y)
            if n + m == 0:
                v = z0.coords(v)
                if v is None:
                    raise NotAComplex("bracket of cycles is not a cycle")
            return v

        return DgLieSlice((0, hi), labels, d_blocks, bracket_fn, zero_below=True), z0

    def pad_to(self, lo, hi):
        """Widen the window with genuinely zero degrees.

        Only sound when the algebra really vanishes outside the original
        window (e.g. a Lie algebra concentrated in degree 0, or a tau_{>=0}
        truncation below 0); the caller asserts that by calling this.
        """
        window = (min(lo, self.lo), max(hi, self.hi))

        def bracket_fn(n, i, m, j):
            return self.bracket(n, i, m, j) if self.in_window(n + m) else {}

        return DgLieSlice(window, self.labels, self._d, bracket_fn)


class SliceElement:
    """A homogeneous element of a DgLieSlice, for MC/BCH/gauge arithmetic.

    ``vector`` is the sparse {index: coefficient} vector of its coordinates
    in the slice's degree-``degree`` basis, with no zero entries.  The
    constructor coerces each coefficient with ``linalg.exact`` (an ``int``
    wherever it is integral, else a ``Fraction``; never a float or bool),
    drops zeros, and raises WindowTooNarrow for a degree outside the
    slice's window.
    """

    __slots__ = ("slice", "degree", "vector")

    def __init__(self, slc, degree, vector):
        slc.dim(degree)
        self.slice = slc
        self.degree = degree
        self.vector = {i: exact(x) for i, x in vector.items() if x}

    @classmethod
    def zero(cls, slc, degree):
        return cls(slc, degree, {})

    @classmethod
    def unit(cls, slc, degree, i):
        return cls(slc, degree, {i: 1})

    def is_zero(self):
        return not self.vector

    def __add__(self, other):
        if other.degree != self.degree or other.slice is not self.slice:
            raise ValueError("degree or slice mismatch")
        return SliceElement(
            self.slice, self.degree, combination([(1, self.vector), (1, other.vector)])
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        q = exact(q)
        return SliceElement(self.slice, self.degree, {i: q * x for i, x in self.vector.items()})

    def bracket(self, other):
        v = self.slice.bracket_vectors(self.degree, self.vector, other.degree, other.vector)
        return SliceElement(self.slice, self.degree + other.degree, v)

    def d(self):
        return SliceElement(
            self.slice, self.degree - 1, self.slice.d_apply(self.degree, self.vector)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SliceElement)
            and self.slice is other.slice
            and self.degree == other.degree
            and self.vector == other.vector
        )
