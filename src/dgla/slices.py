"""Finite degree-windowed dg Lie algebras with explicit tables.

A DgLieSlice is the unit of everything downstream of the derivation
complexes: it records per-degree bases (labels), differential blocks, and a
bracket realized either by stored tables or by a callback (used by
derivation complexes, which compute brackets lazily and memoize).  Degrees
outside the window are unknown, not zero; any access outside raises
WindowTooNarrow.
"""

from fractions import Fraction

from . import linalg
from .errors import NotAComplex, WindowTooNarrow
from .graded import ChainComplexSlice, GradedBasis


class DgLieSlice:
    def __init__(self, window, labels, d_blocks=None, bracket_fn=None, bracket_tables=None):
        self.lo, self.hi = int(window[0]), int(window[1])
        self.labels = {}
        for d in range(self.lo, self.hi + 1):
            self.labels[d] = list(labels.get(d, []))
        self._d = {d: m for d, m in (d_blocks or {}).items()}
        self._bracket_fn = bracket_fn
        self._bracket_tables = dict(bracket_tables or {})
        self._bracket_memo = {}

    # -- structure access -------------------------------------------------

    def window(self):
        return (self.lo, self.hi)

    def in_window(self, d):
        return self.lo <= d <= self.hi

    def dim(self, d):
        if not self.in_window(d):
            raise WindowTooNarrow(
                "degree %d outside slice window [%d, %d]" % (d, self.lo, self.hi),
                required=(min(d, self.lo), max(d, self.hi)),
            )
        return len(self.labels[d])

    def d_matrix(self, d):
        """Differential block C_d -> C_{d-1}; zero when absent."""
        if not (self.lo < d <= self.hi):
            raise WindowTooNarrow(
                "no differential out of degree %d" % d, required=(d - 1, d)
            )
        m = self._d.get(d)
        if m is None:
            return linalg.zero_matrix(self.dim(d - 1), self.dim(d))
        return m

    def d_apply(self, d, vector):
        return linalg.matvec(self.d_matrix(d), vector)

    def bracket(self, n, i, m, j):
        """Coordinates of [e_i^(n), e_j^(m)] in degree n+m."""
        key = (n, i, m, j)
        got = self._bracket_memo.get(key)
        if got is not None:
            return got
        if (n, m) in self._bracket_tables:
            out = [Fraction(x) for x in self._bracket_tables[(n, m)][i][j]]
        elif self._bracket_fn is not None:
            out = self._bracket_fn(n, i, m, j)
        else:
            out = [Fraction(0)] * self.dim(n + m)
        self._bracket_memo[key] = out
        return out

    def bracket_vectors(self, n, x, m, y):
        """Bilinear extension of the basis bracket to coordinate vectors."""
        out = [Fraction(0)] * self.dim(n + m)
        for i, ci in enumerate(x):
            if not ci:
                continue
            for j, cj in enumerate(y):
                if not cj:
                    continue
                b = self.bracket(n, i, m, j)
                for k, bk in enumerate(b):
                    if bk:
                        out[k] += ci * cj * bk
        return out

    # -- verification -------------------------------------------------------

    def check_d_squared(self):
        for d in range(self.lo + 2, self.hi + 1):
            if not linalg.is_zero_matrix(linalg.matmul(self.d_matrix(d - 1), self.d_matrix(d))):
                raise NotAComplex("slice differential does not square to zero at %d" % d)

    def check_bracket_axioms(self, triple_budget=200):
        """Antisymmetry on all in-window pairs, Jacobi on a budget of triples."""
        degs = [d for d in range(self.lo, self.hi + 1) if self.labels[d]]
        for n in degs:
            for m in degs:
                if not self.in_window(n + m):
                    continue
                for i in range(self.dim(n)):
                    for j in range(self.dim(m)):
                        lhs = self.bracket(n, i, m, j)
                        rhs = self.bracket(m, j, n, i)
                        sign = -1 if (n * m) % 2 == 0 else 1
                        for a, b in zip(lhs, rhs):
                            if a != sign * b:
                                raise AssertionError(
                                    "bracket antisymmetry fails at (%d,%d,%d,%d)" % (n, i, m, j)
                                )
        count = 0
        for n in degs:
            for m in degs:
                for k in degs:
                    if not (self.in_window(n + m + k) and self.in_window(n + m) and self.in_window(m + k) and self.in_window(n + k)):
                        continue
                    for i in range(self.dim(n)):
                        for j in range(self.dim(m)):
                            for l in range(self.dim(k)):
                                if count >= triple_budget:
                                    return
                                count += 1
                                self._jacobi_triple(n, i, m, j, k, l)

    def _jacobi_triple(self, n, i, m, j, k, l):
        x = self._unit(n, i)
        y = self._unit(m, j)
        z = self._unit(k, l)
        lhs = self.bracket_vectors(n, x, m + k, self.bracket_vectors(m, y, k, z))
        t1 = self.bracket_vectors(n + m, self.bracket_vectors(n, x, m, y), k, z)
        t2 = self.bracket_vectors(m, y, n + k, self.bracket_vectors(n, x, k, z))
        sign = Fraction(-1 if (n * m) % 2 else 1)
        for a, b, c in zip(lhs, t1, t2):
            if a != b + sign * c:
                raise AssertionError(
                    "Jacobi fails on triple (%d,%d),(%d,%d),(%d,%d)" % (n, i, m, j, k, l)
                )

    def _unit(self, n, i):
        return linalg.unit_vector(self.dim(n), i)

    def check_d_leibniz(self, pair_budget=400):
        """d[x,y] = [dx,y] + (-1)^{|x|}[x,dy] on a budget of basis pairs."""
        count = 0
        for n in range(self.lo + 1, self.hi + 1):
            for m in range(self.lo + 1, self.hi + 1):
                if not (self.in_window(n + m) and self.in_window(n + m - 1)):
                    continue
                for i in range(self.dim(n)):
                    for j in range(self.dim(m)):
                        if count >= pair_budget:
                            return
                        count += 1
                        br = self.bracket(n, i, m, j)
                        lhs = self.d_apply(n + m, br)
                        dx = self.d_apply(n, self._unit(n, i))
                        dy = self.d_apply(m, self._unit(m, j))
                        t1 = self.bracket_vectors(n - 1, dx, m, self._unit(m, j))
                        t2 = self.bracket_vectors(n, self._unit(n, i), m - 1, dy)
                        sign = Fraction(-1 if n % 2 else 1)
                        for a, b, c in zip(lhs, t1, t2):
                            if a != b + sign * c:
                                raise AssertionError(
                                    "d is not a derivation at pair (%d,%d),(%d,%d)" % (n, i, m, j)
                                )

    # -- derived objects ---------------------------------------------------------

    def to_chain(self, pad_below=False, pad_above=False):
        """As a ChainComplexSlice.

        Padding appends a zero space below/above the window; only use it
        when the complex genuinely vanishes there (e.g. tau_{>=0}
        truncations below degree 0), since window degrees are otherwise
        unknown rather than zero.
        """
        lo = self.lo - 1 if pad_below else self.lo
        hi = self.hi + 1 if pad_above else self.hi
        spaces = {}
        for d in range(lo, hi + 1):
            names = self.labels[d] if self.in_window(d) else []
            spaces[d] = GradedBasis([("%s#%d" % (s, i), d) for i, s in enumerate(names)])
        diff = {}
        for d in range(self.lo + 1, self.hi + 1):
            diff[d] = self.d_matrix(d)
        return ChainComplexSlice((lo, hi), spaces, diff)

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
            a = self.d_matrix(d)
            b = other.d_matrix(d)
            rows = len(a) + len(b)
            cols = self.dim(d) + other.dim(d)
            m = linalg.zero_matrix(rows, cols)
            for i, r in enumerate(a):
                for j, x in enumerate(r):
                    m[i][j] = x
            for i, r in enumerate(b):
                for j, x in enumerate(r):
                    m[len(a) + i][self.dim(d) + j] = x
            d_blocks[d] = m

        def bracket_fn(n, i, m, j):
            na, ma = self.dim(n), self.dim(m)
            out = [Fraction(0)] * (self.dim(n + m) + other.dim(n + m))
            if i < na and j < ma:
                for k, x in enumerate(self.bracket(n, i, m, j)):
                    out[k] = x
            elif i >= na and j >= ma:
                for k, x in enumerate(other.bracket(n, i - na, m, j - ma)):
                    out[self.dim(n + m) + k] = x
            return out

        return DgLieSlice((lo, hi), labels, d_blocks, bracket_fn=bracket_fn)

    def truncate_nonneg(self):
        """tau_{>=0}: positive degrees unchanged, degree 0 the cycles.

        Degree-0 coordinates are re-expressed in an RREF basis of the cycle
        subspace; brackets landing in degree 0 are converted accordingly.
        """
        if self.lo > 0:
            self.z0 = linalg.Subspace.full(self.dim(self.lo)) if self.in_window(0) else None
            self.full = self
            self.zero_below = True
            return self
        hi = self.hi
        if hi < 0:
            out = DgLieSlice((0, 0), {0: []})
            out.z0 = linalg.Subspace.full(0)
            out.full = self
            return out
        if self.lo == 0:
            z0 = linalg.Subspace.full(self.dim(0))
        else:
            z0 = linalg.Subspace.from_kernel(self.d_matrix(0), self.dim(0))
        labels = {0: ["z%d" % i for i in range(z0.dim)]}
        for d in range(1, hi + 1):
            labels[d] = list(self.labels[d])
        d_blocks = {}
        for d in range(2, hi + 1):
            d_blocks[d] = self.d_matrix(d)
        if hi >= 1:
            m1 = []
            cols = self.dim(1)
            imgs = [self.d_apply(1, self._unit(1, j)) for j in range(cols)]
            coords = [z0.coords(v) for v in imgs]
            for v, c in zip(imgs, coords):
                if c is None:
                    raise NotAComplex("boundary of degree 1 is not a cycle")
            m1 = [[coords[j][i] for j in range(cols)] for i in range(z0.dim)]
            d_blocks[1] = m1

        outer = self

        def bracket_fn(n, i, m, j):
            x = outer._unit(n, i) if n > 0 else z0.vectors[i]
            y = outer._unit(m, j) if m > 0 else z0.vectors[j]
            v = outer.bracket_vectors(n, list(x), m, list(y))
            if n + m == 0:
                c = z0.coords(v)
                if c is None:
                    raise NotAComplex("bracket of cycles is not a cycle")
                return c
            return v

        out = DgLieSlice((0, hi), labels, d_blocks, bracket_fn=bracket_fn)
        out.z0 = z0
        out.full = self
        out.zero_below = True
        return out

    def pad_to(self, lo, hi):
        """Widen the window with genuinely zero degrees.

        Only sound when the algebra really vanishes outside the original
        window (e.g. a Lie algebra concentrated in degree 0, or a tau_{>=0}
        truncation below 0); the caller asserts that by calling this.
        """
        lo = min(lo, self.lo)
        hi = max(hi, self.hi)
        labels = {d: list(self.labels.get(d, [])) for d in range(lo, hi + 1)}
        d_blocks = {d: self.d_matrix(d) for d in range(self.lo + 1, self.hi + 1)}
        outer = self

        def bracket_fn(n, i, m, j):
            if outer.in_window(n) and outer.in_window(m):
                v = outer.bracket(n, i, m, j)
                if outer.in_window(n + m):
                    return v
                return [Fraction(0)] * 0
            raise IndexError("no basis elements outside the original window")

        out = DgLieSlice((lo, hi), labels, d_blocks, bracket_fn=bracket_fn)
        return out

    @classmethod
    def abelian(cls, window, labels, d_blocks=None):
        return cls(window, labels, d_blocks or {})


class SliceElement:
    """A homogeneous element of a DgLieSlice, for MC/BCH/gauge arithmetic."""

    __slots__ = ("slice", "degree", "vector")

    def __init__(self, slc, degree, vector):
        self.slice = slc
        self.degree = degree
        self.vector = [Fraction(x) for x in vector]

    @classmethod
    def zero(cls, slc, degree):
        return cls(slc, degree, [Fraction(0)] * slc.dim(degree))

    @classmethod
    def unit(cls, slc, degree, i):
        return cls(slc, degree, linalg.unit_vector(slc.dim(degree), i))

    def is_zero(self):
        return all(x == 0 for x in self.vector)

    def __add__(self, other):
        if other.degree != self.degree or other.slice is not self.slice:
            raise ValueError("degree or slice mismatch")
        return SliceElement(
            self.slice, self.degree, [a + b for a, b in zip(self.vector, other.vector)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        q = Fraction(q)
        return SliceElement(self.slice, self.degree, [q * x for x in self.vector])

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


def shifted_basis(entries):
    """Suspension of a graded basis: names kept, degrees raised by one."""
    return GradedBasis([("s%s" % n, d + 1) for n, d in entries])


def hom_slice(source_basis, source_d_blocks, target_basis, window):
    """Hom(source, target) as an abelian dg Lie slice on a degree window.

    ``source_d_blocks[d]`` is the matrix of the source differential
    C_d -> C_{d-1} in the source basis order.  The target has zero
    differential.  Hom degree n holds the functionals E(t, s): s -> t over
    pairs with deg t = deg s + n; the differential is
    (df)(s) = -(-1)^{|f|} f(ds).
    """
    lo, hi = window
    labels = {}
    index = {}
    for n in range(lo, hi + 1):
        labels[n] = []
        for s, sd in source_basis.entries:
            for t, td in target_basis.entries:
                if td == sd + n:
                    index[(n, s, t)] = len(labels[n])
                    labels[n].append("%s>%s" % (s, t))
    d_blocks = {}
    src_names = source_basis.names()
    src_deg = {n: d for n, d in source_basis.entries}
    dmat = {}
    for d, m in (source_d_blocks or {}).items():
        cols = [n for n in src_names if src_deg[n] == d]
        rows = [n for n in src_names if src_deg[n] == d - 1]
        for j, cn in enumerate(cols):
            for i, rn in enumerate(rows):
                c = m[i][j]
                if c:
                    dmat[(rn, cn)] = Fraction(c)
    for n in range(lo + 1, hi + 1):
        rows = len(labels[n - 1])
        cols = len(labels[n])
        if rows == 0 or cols == 0:
            continue
        # (d E(t,s))(s1) = -(-1)^n E(t,s)(d s1), so E(t,s1) picks up the
        # coefficient of s in d(s1).
        m = linalg.zero_matrix(rows, cols)
        sign = Fraction(-1 if n % 2 == 0 else 1)
        for (nn, s, t), j in index.items():
            if nn != n:
                continue
            for (s2, s1), c in dmat.items():
                if s2 == s:
                    i = index.get((n - 1, s1, t))
                    if i is not None:
                        m[i][j] += sign * c
        d_blocks[n] = m
    slc = DgLieSlice((lo, hi), labels, d_blocks)
    slc.hom_index = index
    slc.hom_source = source_basis
    slc.hom_target = target_basis
    return slc
