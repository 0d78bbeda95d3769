"""Graded vector spaces with named bases, graded maps, and chain complexes.

Conventions: homological grading, differentials of degree -1, all scalars
exact rationals.  Every complex is known only on a finite degree window: a
DegreeWindow holds its labels and differential blocks, and is the one
place that reads them.  Degrees outside the window are unknown, not zero,
and every computation checks that the window suffices.  ChainComplexSlice,
the dg Lie slices (``slices.DgLieSlice``) and the Chevalley-Eilenberg
chains (``ce.CESlice``) are all degree windows.
"""

from . import linalg
from .errors import NotAComplex, WindowTooNarrow


class GradedBasis:
    """An ordered list of (name, degree) pairs with unique names.

    The order is stable and defines matrix column order everywhere.
    """

    def __init__(self, entries):
        self.entries = [(str(n), int(d)) for n, d in entries]
        self.index = {}
        for i, (n, _) in enumerate(self.entries):
            if n in self.index:
                raise ValueError("duplicate basis name %r" % n)
            self.index[n] = i
        self._by_degree = {}
        for n, d in self.entries:
            self._by_degree.setdefault(d, []).append(n)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and self.entries == other.entries

    def names(self):
        return [n for n, _ in self.entries]

    def degree(self, name):
        return self.entries[self.index[name]][1]

    def in_degree(self, d):
        """Names in a single degree, in basis order."""
        return list(self._by_degree.get(d, []))

    def dim(self, d):
        return len(self._by_degree.get(d, []))

    def degrees(self):
        return sorted(self._by_degree)


class GradedLinearMap:
    """A degree-homogeneous linear map given by per-degree blocks.

    ``blocks[d]`` is a ``linalg`` matrix from the source's degree-d piece to
    the target's degree d + self.degree piece, with rows indexed by the
    target basis and columns by the source basis.  Absent blocks are zero.
    """

    def __init__(self, source, target, degree, blocks=None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.blocks = {}
        if blocks:
            for d, m in blocks.items():
                self.set_block(d, m)

    def set_block(self, d, matrix):
        rows = self.target.dim(d + self.degree)
        cols = self.source.dim(d)
        if not linalg.has_shape(matrix, rows, cols):
            raise ValueError(
                "block at degree %d must be %dx%d" % (d, rows, cols)
            )
        self.blocks[d] = matrix

    def block(self, d):
        if d in self.blocks:
            return self.blocks[d]
        return linalg.matrix(self.target.dim(d + self.degree), self.source.dim(d))

    def is_zero(self):
        return all(linalg.is_zero_matrix(m) for m in self.blocks.values())


class DegreeWindow:
    """The finite degree window [lo, hi] of a graded object with a differential.

    ``labels`` maps a degree to its list of basis labels (absent degrees of
    the window are empty; only the lengths matter for computations, the
    labels name report rows).  ``differential`` maps degree d to the matrix
    of d_d : C_d -> C_{d-1}; an absent block is zero.  Degrees outside the
    window are unknown, not zero, and every access outside it raises
    WindowTooNarrow, unless the builder knows that the object vanishes
    below its window and says so with ``zero_below``.  ``knows(d)`` says
    whether degree d is known: in the window, or below a ``zero_below`` one.
    """

    def __init__(self, window, labels, differential=None, zero_below=False):
        self.lo, self.hi = int(window[0]), int(window[1])
        self.labels = {d: list(labels.get(d, [])) for d in range(self.lo, self.hi + 1)}
        self._d = dict(differential or {})
        self.zero_below = zero_below

    def window(self):
        return (self.lo, self.hi)

    def in_window(self, d):
        return self.lo <= d <= self.hi

    def knows(self, d):
        return self.in_window(d) or (d < self.lo and self.zero_below)

    def dim(self, d):
        if not self.in_window(d):
            raise WindowTooNarrow(
                "degree %d outside window [%d, %d]" % (d, self.lo, self.hi),
                required=(min(d, self.lo), max(d, self.hi)),
            )
        return len(self.labels[d])

    def d_matrix(self, d):
        """Matrix of the differential out of degree d (into degree d-1)."""
        if not (self.lo < d <= self.hi):
            raise WindowTooNarrow(
                "no differential out of degree %d in window [%d, %d]"
                % (d, self.lo, self.hi),
                required=(min(d - 1, self.lo), max(d, self.hi)),
            )
        m = self._d.get(d)
        if m is None:
            return linalg.matrix(self.dim(d - 1), self.dim(d))
        return m

    def d_apply(self, d, vector):
        """The differential of a sparse vector of degree d."""
        return linalg.matvec(self.d_matrix(d), vector)


class ChainComplexSlice(DegreeWindow):
    """A finite degree window of a chain complex, certified when it is built.

    The window, labels and differential are those of DegreeWindow.  With
    ``zero_below`` the complex is known to vanish below ``window``, and the
    slice gets one empty degree below it, so that homology at the bottom
    degree of ``window`` is known.  The constructor certifies d . d = 0
    (NotAComplex otherwise).  The slice owns one kernel basis per
    differential block, made on first use (``cycles``), so homology over
    a range of degrees eliminates each block once.
    """

    def __init__(self, window, labels, differential, zero_below=False):
        lo, hi = int(window[0]), int(window[1])
        if zero_below:
            lo -= 1
        if lo > hi:
            raise ValueError("empty window")
        super().__init__((lo, hi), labels, differential, zero_below)
        self._kernels = {}
        for d in range(self.lo + 1, self.hi + 1):
            if not linalg.has_shape(self.d_matrix(d), self.dim(d - 1), self.dim(d)):
                raise ValueError("differential block at %d has wrong shape" % d)
        self.check_complex()

    def check_complex(self):
        """Assert d . d = 0 wherever both blocks lie in the window."""
        linalg.check_d_squared(self.d_matrix, self.lo, self.hi)

    def cycles(self, d):
        """The kernel basis of the differential out of degree d, sparse (memoized).

        ``linalg.kernel_basis`` of the block, taken once per slice: homology
        at d reads it as the cycles, homology at d - 1 as the rank of the
        block.  Callers must not mutate the result.
        """
        got = self._kernels.get(d)
        if got is None:
            got = self._kernels[d] = linalg.kernel_basis(self.d_matrix(d), self.dim(d))[0]
        return got

    def homology_degree(self, k):
        """(betti, cycle_representatives) at one degree, representatives sparse.

        Needs both the differential out of k and into k, hence
        lo < k < hi strictly (boundary degrees of the window lack one side).
        The cycles are the kernel of the block out of k, and the rank of
        the block into k is dim_{k+1} - dim ker d_{k+1}: both are the
        slice's ``cycles``, so each block is eliminated once however many
        degrees ask.  The representatives take one more elimination.
        """
        if not (self.lo < k < self.hi):
            raise WindowTooNarrow(
                "no homology at degree %d in window [%d, %d]" % (k, self.lo, self.hi),
                required=(min(k - 1, self.lo), max(k + 1, self.hi)),
            )
        cycles = self.cycles(k)
        above = self.dim(k + 1)
        betti = len(cycles) - (above - len(self.cycles(k + 1)))
        boundaries = linalg.columns(self.d_matrix(k + 1), above)
        keep = linalg.extend_independent(boundaries, cycles, self.dim(k))
        reps = [cycles[i] for i in keep]
        if len(reps) != betti:
            raise NotAComplex("boundaries not contained in cycles at degree %d" % k)
        return betti, reps


def homology(c, degree_range):
    """Per-degree (betti, cycle_representatives) over a degree interval.

    ``degree_range`` is inclusive (min_degree, max_degree) and must lie in
    the interior of the slice's window.
    """
    k0, k1 = int(degree_range[0]), int(degree_range[1])
    out = {}
    for k in range(k0, k1 + 1):
        out[k] = c.homology_degree(k)
    return out


def betti_numbers(c, degree_range):
    return {k: v[0] for k, v in homology(c, degree_range).items()}
