"""Chevalley-Eilenberg (co)homology of finite dg Lie slices.

Chains are graded-symmetric words in the shifted basis s g (letters of
shifted degree |x|+1; odd letters never repeat), with the standard two-part
coderivation differential

    d1(s x) = -s(d x)          d2(s x ^ s y) = (-1)^{|x|} s [x, y]

extended by the Koszul rule.  A CESlice is a ``graded.ChainComplexSlice``
whose labels are these words, so the sign conventions are certified by its
d^2 = 0 check on every window it is built on, rather than trusted.
Coefficients are plain vector spaces with trivial action, so
Hom(C, Q^r) = Hom(C, Q)^r and cochain Betti numbers scale linearly in the
coefficient dimension.
"""

from . import linalg
from .errors import ValidationReport, WindowTooNarrow, check_row
from .graded import ChainComplexSlice


def _letters(g, max_sdeg):
    """Letters (d, i) of s g with shifted degree d+1 <= max_sdeg."""
    out = []
    for d in range(max(g.lo, 0), min(g.hi, max_sdeg - 1) + 1):
        for i in range(g.dim(d)):
            out.append((d, i))
    return out


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


def ce_words(g, degree):
    """Canonical words of total shifted degree ``degree``, sorted."""
    if degree == 0:
        return [()]
    letters = _letters(g, degree)
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(start, len(letters)):
            sd = _sdeg(letters[k])
            if sd > remaining:
                continue
            if acc and letters[k] == acc[-1] and sd % 2:
                continue
            acc.append(letters[k])
            rec(k, remaining - sd, acc)
            acc.pop()

    rec(0, degree, [])
    out.sort()
    return out


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
            d: linalg.columns(g.d_matrix(d), g.dim(d)) for d in range(g.lo + 1, g.hi + 1)
        }
        words = {k: ce_words(g, k) for k in range(top_degree + 1)}
        self.index = {k: {w: i for i, w in enumerate(ws)} for k, ws in words.items()}
        blocks = {
            k: linalg.matrix(len(words[k - 1]), len(words[k]), self._d_terms(k))
            for k in range(1, top_degree + 1)
        }
        super().__init__((0, top_degree), words, blocks, zero_below=True)

    def _d1_letter(self, letter):
        """delta_1(s x) = -s(d x) as a list of (letter, coeff)."""
        d, i = letter
        if d - 1 < self.g.lo:
            return []
        return [((d - 1, k), -c) for k, c in self._g_cols[d][i].items()]

    def _d2_pair(self, la, lb):
        """delta_2(s x ^ s y) = (-1)^{|x|} s [x, y] as (letter, coeff) list."""
        (da, ia), (db, ib) = la, lb
        v = self.g.bracket(da, ia, db, ib)
        sign = -1 if da % 2 else 1
        return [((da + db, k), sign * c) for k, c in v.items()]

    def _d_terms(self, k):
        """The (row, column, coefficient) terms of the CE differential out of C_k."""
        for j, w in enumerate(self.index[k]):
            for letter_pos in range(len(w)):
                eps = sum(_sdeg(l) for l in w[:letter_pos]) % 2
                outer_sign = -1 if eps else 1
                for letter2, c in self._d1_letter(w[letter_pos]):
                    rest = w[:letter_pos] + (letter2,) + w[letter_pos + 1 :]
                    sorted_ = _sort_word(rest)
                    if sorted_ is None:
                        continue
                    ww, s = sorted_
                    i = self.index[k - 1].get(ww)
                    if i is not None:
                        yield i, j, outer_sign * s * c
            for a in range(len(w)):
                for b in range(a + 1, len(w)):
                    pre_a = sum(_sdeg(l) for l in w[:a])
                    pre_b = sum(_sdeg(l) for l in w[:b]) - _sdeg(w[a])
                    eps = (_sdeg(w[a]) * pre_a + _sdeg(w[b]) * pre_b) % 2
                    outer_sign = -1 if eps else 1
                    rest = tuple(l for t, l in enumerate(w) if t != a and t != b)
                    for letter2, c in self._d2_pair(w[a], w[b]):
                        sorted_ = _sort_word((letter2,) + rest)
                        if sorted_ is None:
                            continue
                        ww, s = sorted_
                        i = self.index[k - 1].get(ww)
                        if i is not None:
                            yield i, j, outer_sign * s * c


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
