"""Chevalley-Eilenberg (co)homology of finite dg Lie slices.

Chains are graded-symmetric words in the shifted basis s g (letters of
shifted degree |x|+1; odd letters never repeat), grown one degree at a
time (``_words``), with the standard two-part coderivation differential

    d1(s x) = -s(d x)          d2(s x ^ s y) = (-1)^{|x|} s [x, y]

extended by the Koszul rule, each term of either part sorted to its word
by ``_sort_word``.  A CESlice is a ``graded.ChainComplexSlice`` whose
labels are these words, so the sign conventions are certified by its
d^2 = 0 check on every window it is built on, rather than trusted.
Coefficients are plain vector spaces with trivial action, so
Hom(C, Q^r) = Hom(C, Q)^r and cochain Betti numbers scale linearly in the
coefficient dimension.
"""

from . import linalg
from .errors import ValidationReport, WindowTooNarrow, check_row
from .graded import ChainComplexSlice


def _letters(g, max_sdeg):
    """Letters (d, i) of s g with shifted degree d+1 <= max_sdeg, in order."""
    degrees = range(max(g.lo, 0), min(g.hi, max_sdeg - 1) + 1)
    return [(d, i) for d in degrees for i in range(g.dim(d))]


def _sdeg(letter):
    return letter[0] + 1


def _sort_word(letters):
    """Canonical form of a word with its Koszul sign; None if it vanishes.

    Letters are sorted by (degree, index); swapping adjacent letters of
    shifted degrees a, b contributes (-1)^{ab}; a repeated odd-shifted
    letter kills the word.
    """
    lst = list(letters)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if (_sdeg(lst[j - 1]) * _sdeg(lst[j])) % 2:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for i in range(1, len(lst)):
        if lst[i] == lst[i - 1] and _sdeg(lst[i]) % 2:
            return None
    return tuple(lst), sign


def _words(g, top):
    """{k: the canonical words of shifted degree k, sorted} for 0 <= k <= top.

    Grown one degree at a time: a word of degree k is a letter l followed
    by a word of degree k - |l| that starts at l or later, and at l only
    when l is even.  Letters come in order, so each degree's list is sorted.
    """
    words = {0: [()]}
    for k in range(1, top + 1):
        words[k] = [
            (l,) + w
            for l in _letters(g, k)
            for w in words[k - _sdeg(l)]
            if not w or w[0] > l or (w[0] == l and not _sdeg(l) % 2)
        ]
    return words


class CESlice(ChainComplexSlice):
    """A window of the CE chain complex of a dg Lie slice, through ``top_degree``.

    The labels of degree k are its canonical words.  The chains vanish in
    negative degrees, so the slice is ``zero_below``: its window is
    [-1, top_degree].  Every block is built once, and d^2 = 0 is certified
    when the slice is built (NotAComplex otherwise).
    """

    def __init__(self, g, top_degree):
        if g.lo != 0:
            # below 0 the input is not non-negatively graded; above 0 the
            # degrees from 0 are unknown, and nothing is assumed about them
            raise WindowTooNarrow(
                "CE chains need a non-negatively graded input from degree 0",
                required=(0, max(g.hi, top_degree - 1)),
            )
        if g.hi < top_degree - 1:
            raise WindowTooNarrow(
                "CE words up to degree %d need g up to degree %d"
                % (top_degree, top_degree - 1),
                required=(g.lo, top_degree - 1),
            )
        self.g = g
        self._g_cols = {  # the columns of g's differential out of each degree
            d: linalg.columns(g.d_matrix(d), g.dim(d)) for d in range(1, g.hi + 1)
        }
        words = _words(g, top_degree)
        self.index = {k: {w: i for i, w in enumerate(ws)} for k, ws in words.items()}
        blocks = {
            k: linalg.matrix(len(words[k - 1]), len(words[k]), self._d_terms(k))
            for k in range(1, top_degree + 1)
        }
        super().__init__((0, top_degree), words, blocks, zero_below=True)

    def _d_terms(self, k):
        """The (row, column, coefficient) terms of the CE differential out of C_k.

        On a word, d1 replaces the letter s x at a by -s(d x), and d2 the
        letters s x at a and s y at b by (-1)^{|x|} s [x, y] in front, each
        with the Koszul sign of moving the letters it reads to the front.
        Each term, a coefficient and a list of letters, goes through
        ``_sort_word`` to its row of C_{k-1}.
        """
        rows = self.index[k - 1]
        for j, w in enumerate(self.index[k]):
            terms = []
            pre_a = 0  # the shifted degree of the letters before a
            for a, (da, ia) in enumerate(w):
                sign_a = -1 if pre_a % 2 else 1
                for r, c in self._g_cols[da][ia].items() if da else ():
                    terms.append((-sign_a * c, w[:a] + ((da - 1, r),) + w[a + 1 :]))
                pre_b = pre_a  # the shifted degree of the letters before b but a
                for b in range(a + 1, len(w)):
                    db, ib = w[b]
                    sign = -1 if ((da + 1) * pre_a + (db + 1) * pre_b + da) % 2 else 1
                    rest = w[:a] + w[a + 1 : b] + w[b + 1 :]
                    for r, c in self.g.bracket(da, ia, db, ib).items():
                        terms.append((sign * c, ((da + db, r),) + rest))
                    pre_b += db + 1
                pre_a += da + 1
            for c, letters in terms:
                got = _sort_word(letters)
                if got is not None:
                    yield rows[got[0]], j, got[1] * c


def ce_cohomology(g, coefficient_dim, degree_range):
    """Betti numbers of H^k(Hom(CE chains, M)) for a trivial module M.

    ``coefficient_dim`` is dim M, at least 0 (ValueError otherwise).  The
    required g-window is computed from the range and reported via
    WindowTooNarrow when the slice is too small.  d^2 = 0 is certified
    first (NotAComplex otherwise).  Returns a dict degree -> betti.
    """
    _check_coefficient_dim(coefficient_dim)
    k0, k1 = int(degree_range[0]), int(degree_range[1])
    return _betti(CESlice(g, k1 + 1), coefficient_dim, k0, k1)


def _check_coefficient_dim(n):
    if n < 0:
        raise ValueError("coefficient dimension must be at least 0, not %d" % n)


def _betti(ce, coefficient_dim, k0, k1):
    """ce_cohomology on a CE slice built to degree k1 + 1."""
    ranks = {
        k: linalg.rank(ce.d_matrix(k), ce.dim(k)) if ce.dim(k) else 0
        for k in range(max(k0, 0), k1 + 2)
    }
    return {
        k: coefficient_dim * (ce.dim(k) - ranks[k] - ranks[k + 1]) if k >= 0 else 0
        for k in range(k0, k1 + 1)
    }


def ce_product_check(g, h, dim_m, dim_n, degree_range):
    """Verify the product comparison dimensionwise and on Betti numbers.

    Checks that CE cochains of g x h with coefficients M (x) N have, in each
    degree of the range, the dimension of the tensor product of the factors'
    cochain complexes, and that the Betti numbers satisfy the Kunneth
    equality.  Returns a report; the one mathematical failure it raises on
    is a CE differential with d^2 != 0 (NotAComplex).
    """
    _check_coefficient_dim(dim_m)
    _check_coefficient_dim(dim_n)
    k0, k1 = int(degree_range[0]), int(degree_range[1])
    prod = g.product(h)
    cg = CESlice(g, k1 + 1)
    ch = CESlice(h, k1 + 1)
    cp = CESlice(prod, k1 + 1)
    degrees = range(max(0, k0), k1 + 1)

    def dimension_failures():
        for k in degrees:
            lhs = dim_m * dim_n * cp.dim(k)
            rhs = sum((dim_m * cg.dim(i)) * (dim_n * ch.dim(k - i)) for i in range(0, k + 1))
            if lhs != rhs:
                yield ("dimension", k, lhs, rhs)

    checks = [check_row("cochain_dimensions_multiply", dimension_failures())]
    bg = _betti(cg, dim_m, max(0, k0), k1)
    bh = _betti(ch, dim_n, max(0, k0), k1)
    bp = _betti(cp, dim_m * dim_n, max(0, k0), k1)
    rhs = {k: sum(bg.get(i, 0) * bh.get(k - i, 0) for i in range(0, k + 1)) for k in degrees}
    checks.append(check_row("kunneth_betti", (
        ("kunneth", k, bp[k], rhs[k]) for k in degrees if bp[k] != rhs[k]
    )))
    return ValidationReport(checks)
