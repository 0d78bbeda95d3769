"""Independent oracles for the test suite.

Everything here is deliberately separate from the library's code paths:
plain Gaussian elimination, and Bareiss elimination, instead of the
primitive-row core, homology with its own eliminations per degree
instead of one kernel per differential block, a fresh tensor
expansion instead of leads from factor leads and the memoized expansion,
tuple words from the full word list, bracketed at each word's longest
proper Lyndon suffix, instead of packed words from pairs of lower Lyndon
elements, a Fraction triangular solve instead of the integer one, a solve
that walks the whole basis instead of from a bisected start,
generating-function dimension counts instead of
basis enumeration, matrix exponentials as ground truth for BCH, and the
Dynkin formula on right-nested words and the terms of weights 2 to 4 by
hand instead of BCH in the two-letter Lyndon basis, every
right-nested word for the nilpotency class instead of the images of the
two-letter Lyndon basis,
normal forms by one tensor expansion and solve instead of through the
bracket table,
the graded Lie axioms on every ordered pair and triple instead of once
per unordered one, one element per bracket and summand instead of one
coordinate dict per result, and derivation operations evaluated on every
generator instead of only where a value or d is nonzero, degree 0 of
Der_u as an intersection of two kernels instead of one stacked kernel, and
RREF, kernel and triangular solve with every value a Fraction instead of
an int wherever it is integral, the outer-action axioms on every module
basis vector instead of as sparse operator identities, and d-Leibniz on
every ordered pair instead of once per unordered one, chi of a bracket
on every degree pair instead of only where some twist is nonzero,
Der's structure constants through ``der_bracket`` and conditions on the
whole of their element instead of from the basis derivations' own
extensions and on the terms a unit reaches, and gluing's extension of a
derivation by a round trip through generator names instead of through an
inclusion morphism, and the Hom module's differential through suspended
names and matrices instead of from the linear part of d directly, and
CE words by one recursive search per degree and the CE differential's two
parts by separate loops, each sign counted from odd inversions, instead of
words grown degree by degree and one sort for every term, and letter
patterns and basis indices by trees instead of by packed leads, and
the dimensions of Der(L rel omega) by a closed form in Witt sizes instead
of a kernel per degree.
Tests compare library output against these.
The helpers that are not oracles are ``sub_contains``, membership in a
designated subalgebra through the library's own spans,
``full_hom_outer_action``, the block action on the whole of Hom, the
coefficient predicates ``is_coefficient`` and ``is_exact``, which only tests
call, and ``expansion_dict``, through which tests read every expansion.
"""

import random
from collections import namedtuple
from heapq import heapify, heappop, heappush
from itertools import product
from fractions import Fraction
from math import gcd, lcm


# -- plain Gaussian elimination ------------------------------------------------


def gauss_rank(rows):
    """Rank over Q by textbook fraction-free elimination (no Bareiss, no pivots).

    Rows of ints or Fractions are scaled to integers by the lcm of their
    denominators; eliminating r against the pivot row p replaces r by
    p[col] * r - r[col] * p, divided by the gcd of its entries.
    """
    ints = []
    for r in rows:
        if any(r):
            den = lcm(*(x.denominator for x in r))
            ints.append([x.numerator * (den // x.denominator) for x in r])
    rows = ints
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = None
        for i, r in enumerate(rows):
            if r[col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        pr = rows.pop(piv)
        pv = pr[col]
        nxt = []
        for r in rows:
            if r[col]:
                f = r[col]
                r = [pv * a - f * b for a, b in zip(r, pr)]
                g = gcd(*r)
                if g > 1:
                    r = [a // g for a in r]
            if any(r):
                nxt.append(r)
        rows = nxt
        rank += 1
        col += 1
    return rank


def gauss_jordan(rows, ncols):
    """(rref rows, pivot columns) over Q by textbook dense Gauss-Jordan."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for i, r in enumerate(rows):
            if i != top and r[col]:
                f = r[col]
                rows[i] = [a - f * b for a, b in zip(r, rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def naive_matmul(a, b, ncols):
    """The product of an n x k and a k x ncols matrix by the triple loop."""
    return [
        [sum((r[t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(ncols)]
        for r in a
    ]


def per_degree_homology(c, k):
    """(betti, representatives) of a chain slice at k, with eliminations of its own.

    ``ChainComplexSlice.homology_degree`` as it was before the slice kept
    one kernel per block: the kernel of the block out of k, the rank of
    the block into k, and the representatives among the cycles.
    """
    from dgla import linalg

    d_in = c.d_matrix(k + 1)
    cycles, _ = linalg.kernel_basis(c.d_matrix(k), c.dim(k))
    betti = len(cycles) - linalg.rank(d_in, c.dim(k + 1))
    keep = linalg.extend_independent(linalg.columns(d_in, c.dim(k + 1)), cycles, c.dim(k))
    return betti, [cycles[i] for i in keep]


def betti_by_rank_nullity(dims, d_matrices, k0, k1):
    """Betti numbers from dim C_k - rank d_k - rank d_{k+1} (plain Gauss)."""
    ranks = {}
    for k in range(k0, k1 + 2):
        m = d_matrices.get(k, [])
        ranks[k] = gauss_rank(m) if m else 0
    return {k: dims.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(k0, k1 + 1)}


# -- coefficients, and the kernels with every value a Fraction -------------------


def is_coefficient(c):
    """A nonzero exact coefficient: an int (never a bool) or a Fraction, never a float.

    What arithmetic leaves: a product or sum of Fractions may be integral.
    """
    return type(c) in (int, Fraction) and c != 0


def is_exact(c):
    """A nonzero coefficient as ``linalg.exact`` gives it: an int when integral, else a Fraction."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def bareiss_echelon(rows, ncols):
    """Sparse fraction-free echelon form by Bareiss elimination (Bareiss 1968).

    The library's elimination core before it kept its rows primitive, with
    the same Markowitz-style pivot rule: rows scaled to integers, columns
    left to right, the pivot the row with the fewest nonzeros, then the
    smallest pivot entry.  A row with an entry in the pivot column becomes
    (pv * r - r[col] * piv) / prev, an exact division that keeps every
    entry an integer minor of the input; the others are scaled by
    pv / prev when they next meet a pivot column.  Returns
    (echelon_rows, pivot_cols).
    """
    by_lead = {}  # leading column -> [(row, prev the row was reduced by)]
    for r in rows:
        nz = [(j, Fraction(x)) for j, x in r.items() if x]
        den = lcm(*(x.denominator for _, x in nz))
        if nz:
            row = {j: x.numerator * (den // x.denominator) for j, x in nz}
            by_lead.setdefault(min(row), []).append((row, 1))
    heap = list(by_lead)
    heapify(heap)
    ech, pivots = [], []
    prev = 1
    while heap and heap[0] < ncols:
        col = heappop(heap)
        cands = [
            r if base == prev else {j: v * prev // base for j, v in r.items()}
            for r, base in by_lead.pop(col)
        ]
        piv = min(cands, key=lambda r: (len(r), abs(r[col]).bit_length()))
        pv = piv[col]
        for r in cands:
            if r is piv:
                continue
            out = {j: pv * v for j, v in r.items()}
            for j, v in piv.items():
                out[j] = out.get(j, 0) - r[col] * v
            nr = {j: v // prev for j, v in out.items() if v}
            if nr:
                lead = min(nr)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(heap, lead)
                by_lead[lead].append((nr, pv))
        ech.append(piv)
        pivots.append(col)
        prev = pv
    return ech, pivots


def rref_all_fractions(rows, ncols, echelon=None):
    """Sparse RREF on an echelon core, every value a ``Fraction``.

    The back-substitution the library ran before it stored integral values
    as ints: primitive integer rows, bottom-up, each divided by its pivot
    entry into Fractions at the end.  ``echelon`` is the core, the
    library's ``linalg._echelon`` unless given (``bareiss_echelon``).
    """
    from dgla import linalg

    ech, pivots = (echelon or linalg._echelon)(rows, ncols)
    below = {}
    for r, pc in zip(reversed(ech), reversed(pivots)):
        for p in [j for j in r if j in below]:
            s = below[p]
            g = gcd(s[p], r[p])
            a, b = s[p] // g, r[p] // g
            out = {j: a * v for j, v in r.items()}
            for j, v in s.items():
                out[j] = out.get(j, 0) - b * v
            r = {j: v for j, v in out.items() if v}
        g = gcd(*r.values())
        below[pc] = {j: v // g for j, v in r.items()}
    red = [{j: Fraction(v, below[pc][pc]) for j, v in below[pc].items()} for pc in pivots]
    return red, pivots


def kernel_all_fractions(rows, ncols):
    """(kernel vectors, free columns) as ``linalg.kernel_basis`` reads them, every value a Fraction."""
    red, pivots = rref_all_fractions(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = {f: {f: Fraction(1)} for f in free}
    for r, pc in zip(red, pivots):
        for j, x in r.items():
            if j != pc:
                vecs[j][pc] = -x
    return [vecs[f] for f in free], free


def expansion_dict(expansion):
    """{word: coefficient} of a basis element's expansion, as a new dict.

    The library keeps an expansion as a pair (words, coefficients) of tuples
    of one length, with no word twice; a ``TupleBracket`` keeps a dict.
    """
    if isinstance(expansion, dict):
        return dict(expansion)
    words, coeffs = expansion
    assert type(words) is tuple and type(coeffs) is tuple
    out = dict(zip(words, coeffs))
    assert len(out) == len(words) == len(coeffs)
    return out


def solve_all_fractions(basis, tensor):
    """``freelie.solve_against_basis`` as it was before it returned ints: every value a Fraction."""
    work = {w: c for w, c in tensor.items() if c}
    scale = 1
    coords = {}
    for i, b in enumerate(basis):
        c = work.get(b.lead)
        if c is None:
            continue
        lc = b.lead_coeff
        if c % lc:
            m = abs(lc) // gcd(c, lc)
            scale *= m
            c *= m
            work = {u: v * m for u, v in work.items()}
            coords = {j: v * m for j, v in coords.items()}
        f = c // lc
        coords[i] = f
        for u, cu in expansion_dict(b.expansion).items():
            nv = work.get(u, 0) - f * cu
            if nv:
                work[u] = nv
            else:
                del work[u]
    if work:
        raise ValueError("vector outside the free Lie span (packed word %#x)" % min(work))
    return {i: Fraction(c, scale) for i, c in coords.items()}


def full_walk_solve(basis, tensor):
    """``freelie.solve_against_basis`` walking the whole basis from its first element.

    The library bisects the basis for its first lead at or above the
    tensor's least word and starts there.  Takes the tensor over, as the
    library does.
    """
    work = tensor
    if not work:
        return {}
    scale = 1
    coords = {}
    for i, b in enumerate(basis):
        c = work.get(b.lead)
        if c is None:
            continue
        lc = b.lead_coeff
        if c % lc:
            m = abs(lc) // gcd(c, lc)
            scale *= m
            c *= m
            for u, v in work.items():
                work[u] = v * m
            coords = {j: v * m for j, v in coords.items()}
        f = c // lc
        coords[i] = f
        for u, cu in expansion_dict(b.expansion).items():
            nv = work.get(u, 0) - f * cu
            if nv:
                work[u] = nv
            else:
                del work[u]
        if not work:
            break
    if work:
        raise ValueError("vector outside the free Lie span (packed word %#x)" % min(work))
    if scale == 1:
        return coords
    return {i: c // scale if c % scale == 0 else Fraction(c, scale) for i, c in coords.items()}


# -- free graded Lie algebra dimensions -----------------------------------------


def witt_dimensions(degrees, max_length, max_degree):
    """Bigraded free graded Lie algebra dimensions via generating functions.

    Solves prod_{d odd}(1+s^l t^d)^{L_{l,d}} prod_{d even}(1-s^l t^d)^{-L_{l,d}}
    = 1/(1 - s P(t)) for the L_{l,d} by taking logarithms; P(t) = sum over
    generators of t^{degree}.  Returns {(length, degree): dim}.
    """
    P = {}
    for d in degrees:
        P[d] = P.get(d, 0) + 1

    def poly_pow(p, k, cap):
        out = {0: Fraction(1)}
        for _ in range(k):
            nxt = {}
            for a, ca in out.items():
                for b, cb in p.items():
                    if a + b <= cap:
                        nxt[a + b] = nxt.get(a + b, Fraction(0)) + ca * cb
            out = nxt
        return out

    # C[l][d] = [s^l t^d] sum_k (s P)^k / k = [t^d] P^k / k at l = k
    C = {}
    for k in range(1, max_length + 1):
        pk = poly_pow({d: Fraction(c) for d, c in P.items()}, k, max_degree)
        for d, c in pk.items():
            if c:
                C[(k, d)] = c / k
    L = {}
    for l in range(1, max_length + 1):
        for d in range(1, max_degree + 1):
            total = C.get((l, d), Fraction(0))
            corr = Fraction(0)
            for k in range(2, l + 1):
                if l % k == 0 and d % k == 0:
                    l2, d2 = l // k, d // k
                    eps = Fraction((-1) ** (k + 1) if d2 % 2 else 1)
                    corr += eps * Fraction(L.get((l2, d2), 0)) / k
            val = total - corr
            assert val.denominator == 1 and val >= 0, (l, d, val)
            if val:
                L[(l, d)] = int(val)
    return L


def der_rel_omega_dims(p, rel, window):
    """{n: dim Der(L rel omega)_n} for the degrees n >= 0 of ``window``, by a
    closed form in Witt sizes, with no basis and no derivation built.

    For d = 0 and a sub ``rel`` generated by one quadratic element omega =
    1/2 sum_{i,j} omega_ij [x_i, x_j] with (omega_ij) non-degenerate (the
    intersection pairing of a manifold's model), theta -> theta(omega) maps
    Hom(V, L)_n onto L_{|omega|+n}: its image holds [L, sum_j omega_ij x_j]
    for every i, so [L, V], which is all of L_{|omega|+n} when n >= 0, since
    every generator pairs with one of positive degree and so has degree
    below |omega|.  So

      dim Der(L rel omega)_n = sum_x dim L_{|x|+n} - dim L_{|omega|+n},

    read from ``freelie.witt_dimensions``.  For q letters of degree 2 it is
    q W(k+1) - W(k+2) at n = 2k, the dimension of the symplectic derivation
    algebra h_{g,1} (Kontsevich, "Formal (non)commutative symplectic
    geometry", 1993; Morita, "Structure of the mapping class groups of
    surfaces: a survey and a prospect", 1999).
    """
    from dgla import freelie

    assert not p.differential
    (omega,) = p.subalgebras[rel].elements
    degrees = p._deg_list
    lo, hi = max(0, window[0]), window[1]
    witt = freelie.witt_dimensions(degrees, max(max(degrees), omega.degree) + hi)
    return {n: sum(witt[x + n] for x in degrees) - witt[omega.degree + n]
            for n in range(lo, hi + 1)}


def _expand_bracket(tree, degrees):
    """Independent tensor expansion with int coefficients; tree leaves are generator indices."""
    if isinstance(tree, int):
        return {(tree,): 1}
    a = _expand_bracket(tree[0], degrees)
    b = _expand_bracket(tree[1], degrees)

    def tdeg(t):
        if isinstance(t, int):
            return degrees[t]
        return tdeg(t[0]) + tdeg(t[1])

    sgn = -1 if (tdeg(tree[0]) * tdeg(tree[1])) % 2 else 1
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
            out[wb + wa] = out.get(wb + wa, 0) - sgn * ca * cb
    return out


def relabel(tree, letters):
    """The bracket tree with each letter g renamed to ``letters[g]``.

    The letter-pattern key by trees, where the library renames the packed
    leads of the trees (``freelie.rename_letters``).
    """
    if isinstance(tree, int):
        return letters[tree]
    return (relabel(tree[0], letters), relabel(tree[1], letters))


def tree_word(tree):
    """The letters of a bracket tree, left to right, as a tuple."""
    if isinstance(tree, int):
        return (tree,)
    return tree_word(tree[0]) + tree_word(tree[1])


def basis_trees(p, degree):
    """{tree: index} of p's basis in one degree, where the library indexes it by lead."""
    return {b.tree: i for i, b in enumerate(p.lie_basis(degree))}


def words_of_degree(degrees, d):
    """All words (tuples of generator indices) with total degree d.

    Finite because every generator degree is >= 1.
    """
    out = []
    n = len(degrees)

    def rec(prefix, rem):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for i in range(n):
            if degrees[i] <= rem:
                prefix.append(i)
                rec(prefix, rem - degrees[i])
                prefix.pop()

    rec([], d)
    return out


def is_lyndon(w):
    """Lyndon iff nonempty and strictly smaller than each of its proper suffixes."""
    return bool(w) and all(w < w[k:] for k in range(1, len(w)))


def _standard_bracketing(w):
    """b(w) = [b(u), b(v)] with v the longest proper Lyndon suffix of w."""
    if len(w) == 1:
        return w[0]
    k = next(k for k in range(1, len(w)) if is_lyndon(w[k:]))
    return (_standard_bracketing(w[:k]), _standard_bracketing(w[k:]))


TupleBracket = namedtuple("TupleBracket", "tree lead lead_coeff expansion")


def tuple_word_basis(degrees, d):
    """The canonical basis of degree d on tuple words, the way it was first built.

    Lyndon words are filtered from the list of every word of the degree,
    squares [b(w), b(w)] added for odd-degree Lyndon w, expansions taken by
    ``_expand_bracket``, and the elements sorted by (lead length, lead)
    with tuple comparison.
    """
    trees = [_standard_bracketing(w) for w in words_of_degree(degrees, d) if is_lyndon(w)]
    if d % 2 == 0 and d // 2 % 2 == 1:
        halves = [_standard_bracketing(w) for w in words_of_degree(degrees, d // 2) if is_lyndon(w)]
        trees += [(t, t) for t in halves]
    out = []
    for t in trees:
        expansion = {w: c for w, c in _expand_bracket(t, degrees).items() if c}
        lead = min(expansion)
        out.append(TupleBracket(t, lead, expansion[lead], expansion))
    return sorted(out, key=lambda b: (len(b.lead), b.lead))


def solve_against_basis_fractions(basis, tensor):
    """Coordinates of a tensor in the span of basis expansions, on Fractions.

    Greedy triangular substitution on leading words, every coefficient a
    Fraction; raises ValueError when a residual word is no basis lead.
    """
    lead_map = {b.lead: i for i, b in enumerate(basis)}
    work = {w: Fraction(c) for w, c in tensor.items() if c}
    coords = {}
    while work:
        w = min(work)
        i = lead_map.get(w)
        if i is None:
            raise ValueError("vector outside the free Lie span (word %r)" % (w,))
        f = work[w] / basis[i].lead_coeff
        coords[i] = coords.get(i, Fraction(0)) + f
        for u, c in expansion_dict(basis[i].expansion).items():
            nv = work.get(u, Fraction(0)) - f * c
            if nv:
                work[u] = nv
            else:
                work.pop(u, None)
    return {i: c for i, c in coords.items() if c}


def tensor_normal_form(p, expression):
    """``DgLaPresentation.normal_form`` by one tensor expansion and solve.

    The expression's trees are expanded afresh, summed into one integer
    tensor over the lcm of the coefficients' denominators, and solved once
    against the basis, where the library sums each tree's normal form from
    its bracket table; that lcm is divided out of the solution.
    Coordinates are ints wherever they are integral.
    """
    from dgla import expr, freelie
    from dgla.linalg import exact
    from dgla.presentation import LieElement

    if isinstance(expression, str):
        expression = expr.parse_expression(expression)
    pairs = [(exact(c), p.tree_indices(t)) for c, t in expression if c]
    if not pairs:
        return p.zero()
    (degree,) = {freelie.tree_degree(t, p._deg_list) for _, t in pairs}
    scale = lcm(*(c.denominator for c, _ in pairs))
    tensor = {}
    for c, t in pairs:
        k = c.numerator * (scale // c.denominator)
        for w, x in freelie.expand_tree(t, p._deg_list).items():
            tensor[w] = tensor.get(w, 0) + k * x
    tensor = {w: x for w, x in tensor.items() if x}  # the solve takes nonzero entries
    coords = freelie.solve_against_basis(p.lie_basis(degree), tensor)
    coords = {i: exact(Fraction(c) / scale) for i, c in coords.items()}
    return LieElement._trusted(p, degree, coords)


def _all_bracketings(word):
    if len(word) == 1:
        return [word[0]]
    out = []
    for cut in range(1, len(word)):
        for left in _all_bracketings(word[:cut]):
            for right in _all_bracketings(word[cut:]):
                out.append((left, right))
    return out


def brute_force_lie_dims(degrees, max_length):
    """Span of all bracketings of all words, per (length, degree).

    This is the degree-l part of the free graded Lie algebra because
    bracketings of length-l words span it.  Ranks via plain Gauss, after
    deduplicating scalar multiples (bracketings repeat up to sign a lot).
    """
    n = len(degrees)
    out = {}
    for length in range(1, max_length + 1):
        vectors_by_degree = {}
        words = [[]]
        for _ in range(length):
            words = [w + [i] for w in words for i in range(n)]
        for w in words:
            deg = sum(degrees[i] for i in w)
            seen = vectors_by_degree.setdefault(deg, {})
            for tree in _all_bracketings(tuple(w)):
                vec = {u: c for u, c in _expand_bracket(tree, degrees).items() if c}
                if not vec:
                    continue
                # the primitive integer vector with a positive leading entry
                # names the line that vec spans
                scale = gcd(*vec.values()) * (1 if vec[min(vec)] > 0 else -1)
                key = tuple(sorted((u, c // scale) for u, c in vec.items()))
                if key not in seen:
                    seen[key] = vec
        for deg, vecs in vectors_by_degree.items():
            vecs = list(vecs.values())
            support = sorted({w for v in vecs for w in v})
            pos = {w: i for i, w in enumerate(support)}
            rows = []
            for v in vecs:
                row = [0] * len(support)
                for w, c in v.items():
                    row[pos[w]] = c
                rows.append(row)
            r = gauss_rank(rows)
            if r:
                out[(length, deg)] = r
    return out


# -- CE dimension oracles ---------------------------------------------------------


def exterior_polynomial_ce_betti(sdegrees, k0, k1):
    """Betti numbers of the free graded-commutative algebra on letters.

    For an abelian dg Lie algebra with zero differential, CE cohomology is
    the free graded-commutative algebra on the shifted dual: odd letters are
    exterior, even letters polynomial.  Computed by brute monomial count.
    """
    counts = {0: 1}
    for sd in sdegrees:
        nxt = dict(counts)
        if sd % 2:
            for d, c in counts.items():
                if d + sd <= k1:
                    nxt[d + sd] = nxt.get(d + sd, 0) + c
        else:
            for d, c in list(counts.items()):
                k = 1
                while d + k * sd <= k1:
                    nxt[d + k * sd] = nxt.get(d + k * sd, 0) + c
                    k += 1
        counts = nxt
    return {k: counts.get(k, 0) for k in range(k0, k1 + 1)}


# -- CE chains by one recursive search per degree ----------------------------------


def ce_words_by_search(g, degree):
    """Canonical CE words of shifted degree ``degree``, by one recursive search, sorted.

    A word is a nondecreasing run of letters (d, i) of g, of shifted degree
    d + 1 each, in which no odd letter repeats.
    """
    if degree == 0:
        return [()]
    letters = [(d, i) for d in range(max(g.lo, 0), min(g.hi, degree - 1) + 1)
               for i in range(g.dim(d))]
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for k in range(start, len(letters)):
            sd = letters[k][0] + 1
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


def _koszul_sorted(letters):
    """The sorted word of ``letters`` and its Koszul sign; None when an odd letter repeats.

    The sign is -1 to the number of pairs of odd letters out of order.
    """
    odd = [l for l in letters if l[0] % 2 == 0]
    word = tuple(sorted(letters))
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(1 for i, a in enumerate(odd) for b in odd[i + 1:] if a > b)
    return word, -1 if inversions % 2 else 1


def ce_d_block_by_parts(g, k):
    """{(row, column): c} of the CE differential out of C_k, summed, with no zeros.

    d1(s x) = -s(d x) on each letter and d2(s x ^ s y) = (-1)^{|x|} s [x, y]
    on each pair, with the Koszul sign of moving the letters read to the
    front; the two parts are listed by two separate loops, reading g's
    differential from its dense matrices.
    """
    sdeg = lambda letter: letter[0] + 1
    rows = {w: i for i, w in enumerate(ce_words_by_search(g, k - 1))}
    out = {}

    def emit(j, c, letters):
        got = _koszul_sorted(letters)
        if got is not None:
            key = (rows[got[0]], j)
            out[key] = out.get(key, 0) + got[1] * c

    for j, w in enumerate(ce_words_by_search(g, k)):
        for pos, (d, i) in enumerate(w):
            if d == 0:
                continue
            sign = -1 if sum(sdeg(l) for l in w[:pos]) % 2 else 1
            dx = g.d_matrix(d)
            for r in range(g.dim(d - 1)):
                c = dx[r].get(i, 0)
                if c:
                    emit(j, -sign * c, w[:pos] + ((d - 1, r),) + w[pos + 1:])
        for a in range(len(w)):
            for b in range(a + 1, len(w)):
                pre_a = sum(sdeg(l) for l in w[:a])
                pre_b = sum(sdeg(l) for l in w[:b]) - sdeg(w[a])
                eps = (sdeg(w[a]) * pre_a + sdeg(w[b]) * pre_b + w[a][0]) % 2
                rest = tuple(l for t, l in enumerate(w) if t != a and t != b)
                (da, ia), (db, ib) = w[a], w[b]
                for r, c in g.bracket(da, ia, db, ib).items():
                    emit(j, -c if eps else c, ((da + db, r),) + rest)
    return {key: c for key, c in out.items() if c}


# -- matrix oracle for BCH ---------------------------------------------------------


class NilMatrix:
    """Strictly upper triangular rational matrices, with exact exp/log."""

    def __init__(self, rows):
        self.rows = [[Fraction(x) for x in r] for r in rows]
        self.n = len(rows)

    @classmethod
    def zero(cls, n):
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def random(cls, rng, n, denom=3):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, denom))
        return cls(rows)

    def is_zero(self):
        return all(all(x == 0 for x in r) for r in self.rows)

    def __add__(self, other):
        return NilMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, q):
        q = Fraction(q)
        return NilMatrix([[q * x for x in r] for r in self.rows])

    def matmul(self, other):
        n = self.n
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                a = self.rows[i][k]
                if a:
                    for j in range(n):
                        b = other.rows[k][j]
                        if b:
                            out[i][j] += a * b
        return NilMatrix(out)

    def bracket(self, other):
        ab = self.matmul(other)
        ba = other.matmul(self)
        return NilMatrix(
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab.rows, ba.rows)]
        )

    def exp(self):
        n = self.n
        out = NilMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])
        term = NilMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])
        k = 1
        while True:
            term = term.matmul(self)
            if term.is_zero():
                break
            out = out + term.scale(Fraction(1, _fact(k)))
            k += 1
        return out

    def log(self):
        """log of a unipotent matrix (self = I + N)."""
        n = self.n
        N = NilMatrix(
            [
                [self.rows[i][j] - (1 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        out = NilMatrix.zero(n)
        term = NilMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])
        k = 1
        while True:
            term = term.matmul(N)
            if term.is_zero():
                break
            out = out + term.scale(Fraction((-1) ** (k + 1), k))
            k += 1
        return out

    def __eq__(self, other):
        return self.rows == other.rows


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def full_word_class_check(x, y, bracket, class_bound):
    """True iff every right-nested bracket of weight class_bound + 1 in x, y vanishes.

    Each of the 2^(class_bound + 1) words in the letters x, y is bracketed
    from the right on its own, nothing shared and nothing dropped.
    """
    letters = (x, y)
    for word in product((0, 1), repeat=class_bound + 1):
        term = letters[word[-1]]
        for z in reversed(word[:-1]):
            term = bracket(letters[z], term)
        if not term.is_zero():
            return False
    return True


# -- BCH by the Dynkin formula and by hand ---------------------------------------------


def dynkin_weight(x, y, bracket, weight):
    """The weight-w part of BCH(x, y) by the Dynkin formula.

    Sums over blocks (r_1,s_1),...,(r_n,s_n) != (0,0) with total weight w:
    coefficient (-1)^{n-1} / (n * w * prod r_i! s_i!) on the right-nested
    bracketing of x^{r_1} y^{s_1} ... x^{r_n} y^{s_n}.  Blocks that spell
    the same word add into one coefficient, and each word with a nonzero
    coefficient is bracketed once.
    """

    def compositions(rem, blocks):
        if rem == 0:
            yield list(blocks)
            return
        for r in range(rem + 1):
            for s in range(rem - r + 1):
                if r == 0 and s == 0:
                    continue
                blocks.append((r, s))
                yield from compositions(rem - r - s, blocks)
                blocks.pop()

    coeffs = {}
    for blocks in compositions(weight, []):
        n = len(blocks)
        denom = n * weight
        word = ()
        for r, s in blocks:
            word += (0,) * r + (1,) * s
            denom *= _fact(r) * _fact(s)
        coeffs[word] = coeffs.get(word, 0) + Fraction((-1) ** (n - 1), denom)

    letters = (x, y)
    total = None
    for word, coeff in coeffs.items():
        if coeff:
            term = letters[word[-1]]
            for z in reversed(word[:-1]):
                term = bracket(letters[z], term)
            term = term.scale(coeff)
            total = term if total is None else total + term
    return total


# the weight-w parts of BCH(x, y) for w = 2, 3, 4, written by hand: weights 3
# and 4 in the standard bracketings of the Lyndon words xxy, xyy and xxyy
BCH_LOW = {
    2: lambda x, y, br: br(x, y).scale(Fraction(1, 2)),
    3: lambda x, y, br: (br(x, br(x, y)) + br(br(x, y), y)).scale(Fraction(1, 12)),
    4: lambda x, y, br: br(x, br(br(x, y), y)).scale(Fraction(1, 24)),
}


# -- graded Lie axioms over ordered tuples -------------------------------------------


def _add_scaled(out, c, v):
    for k, x in v.items():
        out[k] = out.get(k, 0) + c * x


def _bracket_sum(slc, n, x, m, y):
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            _add_scaled(out, a * b, slc.bracket(n, i, m, j))
    return out


def ordered_bracket_axioms(slc):
    """The first graded Lie axiom a slice breaks, over every ordered pair and triple.

    Antisymmetry [x,y] = -(-1)^{|x||y|}[y,x] on every ordered pair of basis
    elements, then [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]] on every
    ordered triple, wherever the brackets stay in the window; no ordering is
    skipped.  Reads only the slice's window, dims and basis brackets.
    Returns "antisymmetry", "Jacobi", or None when both hold.
    """
    def in_window(d):
        return slc.lo <= d <= slc.hi

    basis = [(d, i) for d in range(slc.lo, slc.hi + 1) for i in range(slc.dim(d))]
    for (n, i), (m, j) in product(basis, repeat=2):
        if in_window(n + m):
            total = {}
            _add_scaled(total, 1, slc.bracket(n, i, m, j))
            _add_scaled(total, (-1) ** (n * m % 2), slc.bracket(m, j, n, i))
            if any(total.values()):
                return "antisymmetry"
    for (n, i), (m, j), (k, l) in product(basis, repeat=3):
        if not all(in_window(d) for d in (n + m + k, n + m, n + k, m + k)):
            continue
        total = {}
        _add_scaled(total, 1, _bracket_sum(slc, n, {i: 1}, m + k, slc.bracket(m, j, k, l)))
        _add_scaled(total, -1, _bracket_sum(slc, n + m, slc.bracket(n, i, m, j), k, {l: 1}))
        _add_scaled(total, -((-1) ** (n * m % 2)),
                    _bracket_sum(slc, m, {j: 1}, n + k, slc.bracket(n, i, k, l)))
        if any(total.values()):
            return "Jacobi"
    return None


def ordered_d_leibniz(slc):
    """d[x,y] = [dx,y] + (-1)^{|x|}[x,dy] on every ordered in-window basis pair.

    The walk the library replaced by unordered pairs, with no antisymmetry
    assumed.  d out of the bottom degree is the zero map on a ``zero_below``
    slice, and unknown otherwise (those pairs are skipped).  Returns the
    first failing pair (n, i, m, j) in ordered walk order, or None.
    """
    from dgla import linalg
    from dgla.slices import bilinear

    cols = {d: linalg.columns(slc.d_matrix(d), slc.dim(d)) for d in range(slc.lo + 1, slc.hi + 1)}
    if slc.zero_below:
        cols = {slc.lo: [{}] * slc.dim(slc.lo), **cols}
    br = slc.bracket
    for n, m in product(cols, repeat=2):
        if not (slc.in_window(n + m) and slc.in_window(n + m - 1)):
            continue
        sign = -1 if n % 2 else 1
        for i, j in product(range(slc.dim(n)), range(slc.dim(m))):
            total = {}
            for k, c in br(n, i, m, j).items():
                _add_scaled(total, c, cols[n + m][k])
            _add_scaled(total, -1, bilinear(br, n - 1, cols[n][i], m, {j: 1}))
            _add_scaled(total, -sign, bilinear(br, n, {i: 1}, m - 1, cols[m][j]))
            if any(total.values()):
                return (n, i, m, j)
    return None


# -- random dg Lie presentations ----------------------------------------------------


def random_presentation(rng, max_gens=4, max_degree=5):
    """A random presentation with d^2 = 0 by construction.

    Generators are added one at a time; each differential value is a random
    cycle in the subalgebra generated so far (a triangular construction, so
    d^2 = 0 holds automatically and is then re-verified by the caller).
    """
    from dgla.presentation import DgLaPresentation

    n = rng.randint(1, max_gens)
    degs = sorted(rng.randint(1, max_degree) for _ in range(n))
    names = ["g%d" % i for i in range(n)]
    gens = []
    diff = {}
    for i, (name, deg) in enumerate(zip(names, degs)):
        gens.append((name, deg))
        if i == 0 or deg - 1 < 1 or rng.random() < 0.3:
            continue
        prev = DgLaPresentation(gens[:i], dict(diff))
        basis = prev.lie_basis(deg - 1)
        if not basis:
            continue
        if prev.dim(deg - 2):
            from dgla import linalg

            dmat = [prev._d_tree(b.tree).coords for b in basis]
            rows = linalg.from_columns(prev.dim(deg - 2), dmat)
            cycles, _ = linalg.kernel_basis(rows, len(basis))
        else:
            cycles = [{j: Fraction(1)} for j in range(len(basis))]
        if not cycles:
            continue
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in cycles]
        vec = [
            sum((c * v.get(k, 0) for c, v in zip(coeffs, cycles)), Fraction(0))
            for k in range(len(basis))
        ]
        if any(vec):
            terms = []
            for k, c in enumerate(vec):
                if c:
                    terms.append((c, prev.tree_names(basis[k].tree)))
            diff[name] = terms
    return DgLaPresentation(gens, diff)


def fuzz_split_presentations():
    """The 12 seeded random presentations of ``test_fuzz``'s slice test.

    Each carries a sub "s" split off by a random set of generators whose
    differentials stay in it; presentations with many low-degree
    generators are skipped, to keep coverage broad rather than large.
    """
    from dgla.presentation import DgLaPresentation, GeneratorSplit

    rng = random.Random(60606)
    built = 0
    while built < 12:
        p = random_presentation(rng, max_gens=3, max_degree=4)
        names = [n for n, _ in p.generators.entries]
        subnames = [n for n in names if rng.random() < 0.35]
        ok = all(
            p.d_gen(n).is_zero() or p.in_generator_span(p.d_gen(n), subnames)
            for n in subnames
        )
        if not ok or sum(p.dim(d + 2) for _, d in p.generators.entries) > 60:
            continue
        yield DgLaPresentation(p.generators.entries, p.differential,
                               {"s": GeneratorSplit(subnames)})
        built += 1


def fuzz_presentations():
    """The 8 seeded random presentations of ``test_fuzz``'s Der_u test."""
    rng = random.Random(70707)
    built = 0
    while built < 8:
        p = random_presentation(rng, max_gens=3, max_degree=4)
        if sum(p.dim(d + 2) for _, d in p.generators.entries) > 60:
            continue
        yield p
        built += 1


def random_unipotent_automorphism(rng, p, rel=None):
    """id + random corrections of word length >= 2, d-compatible on d = 0."""
    from dgla.morphisms import GeneratorMorphism

    spec_names = ()
    if rel is not None:
        spec = p.sub(rel)
        spec_names = tuple(getattr(spec, "names", ()))
    images = {}
    for name, deg in p.generators.entries:
        img = p.gen(name)
        if name not in spec_names:
            basis = p.lie_basis(deg)
            for i, b in enumerate(basis):
                if isinstance(b.tree, int):
                    continue
                if rng.random() < 0.5:
                    img = img + p.element_from_vector(
                        deg, [Fraction(rng.randint(-2, 2)) if j == i else Fraction(0) for j in range(len(basis))]
                    )
        images[name] = img
    return GeneratorMorphism(p, p, images)


# -- sums of Lie elements by the per-term fold ---------------------------------------


def folded_sum(zero, terms):
    """The sum of c * v over the (c, v) in ``terms`` by the per-term fold.

    Each step is ``out = out + v.scale(c)`` written out: the running
    coordinates are copied, the term is added with ``Fraction(0)`` defaults,
    and a new LieElement is built through the coercing public constructor.
    A zero running sum takes the degree of the next term; nonzero summands
    of two degrees raise InhomogeneousExpression.
    """
    from dgla.errors import InhomogeneousExpression
    from dgla.presentation import LieElement

    out = zero
    for c, v in terms:
        if out.coords and v.coords and out.degree != v.degree:
            raise InhomogeneousExpression("cannot add degrees %d and %d" % (out.degree, v.degree))
        coords = dict(out.coords)
        for i, x in v.coords.items():
            coords[i] = coords.get(i, Fraction(0)) + Fraction(c) * x
        out = LieElement(zero.presentation, out.degree if out.coords else v.degree, coords)
    return out


def folded_poly_sum(zero, terms):
    """``folded_sum`` for PolyLie values: one fold per power of t and part."""
    from dgla.expmc import PolyLie

    target = zero.target
    parts = ({}, {})
    for c, v in terms:
        for out, vpart in zip(parts, (v.p, v.q)):
            for k, x in vpart.items():
                out[k] = folded_sum(out.get(k, target.zero(x.degree)), [(c, x)])
    return PolyLie(target, zero.degree, *parts)


def folded_bracket(p, x, y):
    """The bracket of two elements as the fold of c_i c_j [b_i, b_j]."""
    return folded_sum(p.zero(x.degree + y.degree), (
        (ci * cj, p.basis_bracket(x.degree, i, y.degree, j))
        for i, ci in x.coords.items()
        for j, cj in y.coords.items()
    ))


def folded_tree_map(leaf, node_value, p, x, zero):
    """A map on bracket trees, summed over the coordinates of x by the fold.

    ``leaf(name)`` is the image of a generator and ``node_value(tree, rec)``
    the image of a composite tree; nothing is memoized.
    """

    def rec(tree):
        if isinstance(tree, int):
            return leaf(p.generators.entries[tree][0])
        return node_value(tree, rec)

    basis = p.lie_basis(x.degree)
    return folded_sum(zero, ((c, rec(basis[i].tree)) for i, c in x.coords.items()))


def folded_apply(f, x):
    """GeneratorMorphism.apply by the fold: images of trees bracketed by the fold."""
    t = f.target
    return folded_tree_map(
        f.images.__getitem__,
        lambda tree, rec: folded_bracket(t, rec(tree[0]), rec(tree[1])),
        f.source, x, t.zero(x.degree),
    )


def folded_eval_at(theta, x):
    """Derivation.eval_at by the fold, with the Leibniz rule on each tree."""
    from dgla.freelie import tree_degree

    p = theta.ambient

    def element(tree):
        if isinstance(tree, int):
            return p.gen(p.generators.entries[tree][0])
        return folded_bracket(p, element(tree[0]), element(tree[1]))

    def node_value(tree, rec):
        u, v = tree
        degrees = [d for _, d in p.generators.entries]
        sign = -1 if theta.degree * tree_degree(u, degrees) % 2 else 1
        return folded_sum(p.zero(), [
            (1, folded_bracket(p, rec(u), element(v))),
            (sign, folded_bracket(p, element(u), rec(v))),
        ])

    return folded_tree_map(theta.value, node_value, p, x, p.zero(x.degree + theta.degree))


# -- sums of Lie elements with one element per term ------------------------------------
#
# The library accumulates brackets, sums and Leibniz nodes into one coordinate
# dict per result.  These are the element-per-term forms it replaced: every
# bracket of two elements is an element, a sum goes through
# ``linalg.combination``, and a Leibniz node brackets twice and then adds.


def reference_add_scaled(x, terms):
    """x plus the sum of c * v over the (c, v) in ``terms``, one vector per summand.

    The degree is that of the first nonzero of x and the v, or x's degree
    when all vanish; a nonzero v of another degree raises
    InhomogeneousExpression.
    """
    from dgla import linalg
    from dgla.presentation import LieElement, common_degree

    p = x.presentation
    degree = None
    vectors = []
    for c, v in [(1, x)] + list(terms):
        if v.presentation is not p:
            raise ValueError("elements of different presentations")
        if v.coords:
            degree = common_degree(degree, v.degree)
            vectors.append((c, v.coords))
    return LieElement._trusted(p, x.degree if degree is None else degree,
                               linalg.combination(vectors))


def reference_bracket(p, x, y):
    """[x, y] as the combination of ci cj [b_i, b_j] over coordinate pairs."""
    from dgla import linalg
    from dgla.presentation import LieElement

    if x.presentation is not p or y.presentation is not p:
        raise ValueError("bracket of foreign elements")
    coords = linalg.combination(
        (ci * cj, p.basis_bracket(x.degree, i, y.degree, j).coords)
        for i, ci in x.coords.items()
        for j, cj in y.coords.items()
    )
    return LieElement._trusted(p, x.degree + y.degree, coords)


def reference_tree_map(source, target, leaf):
    """The morphism on trees with generator images leaf(name), by reference brackets."""
    from dgla.presentation import TreeMap

    return TreeMap(source, leaf, lambda u, v, f: reference_bracket(target, f(u), f(v)))


def reference_leibniz(source, target, degree, leaf, along=None):
    """The Leibniz extension with its node as two brackets and a sum.

    th[u,v] = [th u, m v] + (-1)^{degree |u|} [m u, th v], with m the tree
    map of the GeneratorMorphism ``along`` or of the identity, itself built
    from reference brackets; leaf(name) is None for a zero value.
    """
    from dgla.freelie import tree_degree
    from dgla.presentation import TreeMap

    if along is None:
        m = reference_tree_map(source, source, source.gen).tree
    else:
        m = reference_tree_map(source, target, along.images.__getitem__).tree
    degrees = [d for _, d in source.generators.entries]

    def value(name):
        got = leaf(name)
        if got is None:
            return target.zero(source.generators.degree(name) + degree)
        return got

    def node(u, v, f):
        sign = -1 if degree * tree_degree(u, degrees) % 2 else 1
        return reference_add_scaled(
            reference_bracket(target, f(u), m(v)),
            [(sign, reference_bracket(target, m(u), f(v)))],
        )

    return TreeMap(source, value, node)


def reference_apply(tree_map, x, zero):
    """A tree map applied to x: its tree images summed by ``reference_add_scaled``."""
    basis = tree_map.source.lie_basis(x.degree)
    return reference_add_scaled(zero, [(c, tree_map.tree(basis[i].tree))
                                       for i, c in x.coords.items()])


# -- derivation operations on every generator ------------------------------------------
#
# The library evaluates each term of D(theta), [theta, psi] and the exp series
# only where its inner value is nonzero.  These evaluate both terms on every
# generator, zeros included.


def all_generator_der_differential(theta):
    """D(theta) = d.theta - (-1)^{|theta|} theta.d, both terms on every generator."""
    from dgla.derivations import Derivation

    p = theta.ambient
    sign = -1 if theta.degree % 2 else 1
    vals = {}
    for n, _ in p.generators.entries:
        v = p.differential_of(theta.value(n)).add_scaled([(-sign, theta.eval_at(p.d_gen(n)))])
        if not v.is_zero():
            vals[n] = v
    return Derivation(p, theta.degree - 1, vals, rel=theta.rel, check=False)


def all_generator_der_bracket(theta, psi):
    """[theta, psi] = theta.psi - (-1)^{|theta||psi|} psi.theta on every generator."""
    from dgla.derivations import Derivation

    p = theta.ambient
    sign = -1 if (theta.degree * psi.degree) % 2 else 1
    vals = {}
    for n, _ in p.generators.entries:
        v = theta.eval_at(psi.value(n)).add_scaled([(-sign, psi.eval_at(theta.value(n)))])
        if not v.is_zero():
            vals[n] = v
    return Derivation(p, theta.degree + psi.degree, vals, rel=theta.rel, check=False)


def exp_series_images(theta):
    """{generator: sum over k of theta^k(gen) / k!} of a nilpotent degree-0 theta.

    The series runs on every generator until a term vanishes; it is not
    capped, so theta must be nilpotent.
    """
    p = theta.ambient
    images = {}
    for n, _ in p.generators.entries:
        term = image = p.gen(n)
        k = 0
        while not term.is_zero():
            k += 1
            term = theta.eval_at(term).scale(Fraction(1, k))
            image = image + term
        images[n] = image
    return images


# -- Der's structure constants through der_bracket ---------------------------------------
# The library reads the structure constants of a derivation slice through
# its basis derivations' own memoized extensions, and evaluates a
# derivation only on the terms it reaches.  These are the paths it replaced:
# one der_bracket, one new Derivation and one to_vector per pair, and every
# evaluation on the whole of its element.


def der_bracket_structure_constants(slc):
    """{(n, i, m, j): coordinates of [theta_i, psi_j]} of every pair with n + m in the window."""
    from dgla.derivations import der_bracket

    table = {}
    for n in range(slc.lo, slc.hi + 1):
        for m in range(slc.lo, slc.hi + 1):
            if not slc.lo <= n + m <= slc.hi:
                continue
            for i, th in enumerate(slc.derivations[n]):
                for j, ps in enumerate(slc.derivations[m]):
                    table[n, i, m, j] = slc.coords(der_bracket(th, ps), n + m)
    return table


def unrestricted_eval_at(th, e):
    """th(e) for a derivation or f-derivation, by a new Leibniz extension on every term of e.

    ``eval_at`` evaluates only the terms th reaches, and a multiple through
    its base; this evaluates th's own values on the whole of e.
    """
    from dgla.derivations import FDerivation
    from dgla.presentation import leibniz_extension

    if isinstance(th, FDerivation):
        m = th.morphism
        source, target = m.source, m.target
    else:
        m = None
        source = target = th.ambient
    ext = leibniz_extension(source, target, th.degree, th.values.get, along=m)
    return ext(e, target.zero(e.degree + th.degree))


def unrestricted_evaluation(e):
    """The condition image th -> th(e), on every term of e."""
    return lambda th: unrestricted_eval_at(th, e).coords


def condition_columns(ncols, unit, conditions):
    """The columns of a stacked condition matrix: column k stacks the images of unit(k)."""
    cols = []
    for k in range(ncols if conditions else 0):
        u = unit(k)
        col, top = {}, 0
        for height, image in conditions:
            col.update((top + i, c) for i, c in image(u).items())
            top += height
        cols.append(col)
    return cols


# -- degree 0 of Der_u by intersecting kernels ------------------------------------------
# The library builds each derivation degree as the kernel of one stacked
# condition matrix.  This builds degree 0 of Der_u in three eliminations:
# the kernel of the rel-vanishing conditions, the kernel of the degree-0
# conditions (cycles, indecomposables, rho), and their intersection.


def deru_degree0_by_intersection(p, rel, rho):
    """(Hom layout, subspace) of degree 0 of Der_u(L rel rel), as an intersection."""
    from dgla import linalg
    from dgla.derivations import _HomLayout, der_differential
    from dgla.presentation import GeneratorSplit

    layout = _HomLayout(p, rel, 0)
    units = [layout.unit(k) for k in range(layout.total)]

    def kernel(rows):
        ents = [(i, k, c) for i, row in enumerate(rows) for k, c in row.items()]
        return linalg.Subspace.from_kernel(
            linalg.matrix(len(rows), layout.total, ents), layout.total
        )

    def rows_of(images, height):
        rows = [{} for _ in range(height)]
        for k, img in enumerate(images):
            for i, c in img.items():
                rows[i][k] = c
        return rows

    spec = p.sub(rel)
    rel_rows = []
    if not isinstance(spec, GeneratorSplit):
        for e in spec.elements:
            rel_rows += rows_of([u.eval_at(e).coords for u in units], p.dim(e.degree))
    rows = []
    if p.differential:
        lay_m1 = _HomLayout(p, rel, -1)
        rows += rows_of([lay_m1.to_vector(der_differential(u)) for u in units], lay_m1.total)
    gens = p.nonsub_generators(rel)
    for name, deg, off, _ in layout.slots:
        basis = p.lie_basis(deg)
        col = {
            p.generators.entries[b.tree][0]: off + i
            for i, b in enumerate(basis)
            if isinstance(b.tree, int)
        }
        rows += [{col[g]: Fraction(1)} for g, gd in gens if gd == deg]
        if rho is not None and rho.source.in_degree(deg):
            src = rho.source.in_degree(deg)
            block_rows = [{} for _ in rho.target.in_degree(deg + rho.degree)]
            for r, k, c in linalg.entries(rho.block(deg)):
                if src[k] in col:
                    block_rows[r][col[src[k]]] = c
            rows += block_rows
    return layout, kernel(rel_rows).intersection(kernel(rows))


# -- outer-action axioms on every module basis vector -----------------------------------
# The library checks the Lie-map and d-of-action axioms as identities between
# sparse operators, one per acting basis element and module degree.  This is
# the per-vector walk it replaced, unchanged: each identity on each module
# basis vector, with three ``bilinear`` calls per vector.  Its chi-of-bracket
# walk is the library's former one, which visits every degree pair, twisted
# or not; the library skips a pair where the twist vanishes on all three
# degrees.


def per_vector_outer_action_check(a, window=None):
    """Verify the outer-action axioms on all basis pairs in the window.

    Checks that the action is a map of graded Lie algebras, that chi
    anti-commutes with the differentials (a chain map of degree -1), and the
    two defining equations
        chi([t,p]) = chi(t).p + (-1)^{|t|} t.chi(p)
        d(t.x) = dt.x + (-1)^{|t|} t.dx + [chi(t), x]
    where the right action is x.p = -(-1)^{|x||p|} p.x.  The Lie-map
    identity [t,p].x = t.(p.x) - (-1)^{|t||p|} p.(t.x) is walked on
    unordered basis pairs (t,p), and on each pair of distinct elements g's
    bracket must be graded-antisymmetric, [p,t] = -(-1)^{|t||p|} [t,p]; the
    (p,t) identity is then -(-1)^{|t||p|} times the (t,p) one, so the check
    is sound without g's own certificate.  Returns a report of (check, ok,
    witness) rows; never raises.  Each failing row's witness is the first
    failing case in its axiom's walk order (degrees, then basis indices,
    ascending), and the walk stops there.
    """
    from itertools import combinations_with_replacement, product

    from dgla import linalg
    from dgla.errors import ValidationReport, check_row
    from dgla.linalg import combination
    from dgla.slices import bilinear

    g = a.acting
    L = a.module
    lo = max(g.lo, window[0]) if window else g.lo
    hi = min(g.hi, window[1]) if window else g.hi

    def mod_ok(d):
        return L.lo <= d <= L.hi

    def g_ok(d):
        return g.lo <= d <= g.hi

    def lie_map_failures():
        for n, m in combinations_with_replacement(range(lo, hi + 1), 2):
            ks = [k for k in range(L.lo, L.hi + 1) if mod_ok(n + m + k)]
            if not (g_ok(n + m) and ks):
                continue
            sign = -1 if (n * m) % 2 else 1
            if n == m:
                pairs = list(combinations_with_replacement(range(g.dim(n)), 2))
            else:
                pairs = list(product(range(g.dim(n)), range(g.dim(m))))
            for i, j in pairs:
                # graded antisymmetry, which makes the (p,t) identity follow from (t,p)
                if (n, i) != (m, j) and combination(
                    [(1, g.bracket(m, j, n, i)), (sign, g.bracket(n, i, m, j))]
                ):
                    yield ("alpha_antisymmetry", n, i, m, j)
            for k, (i, j) in product(ks, pairs):
                for l in range(L.dim(k)):
                    # [t,p].x = t.(p.x) - (-1)^{|t||p|} p.(t.x)
                    if combination([
                        (1, bilinear(a.act, n + m, g.bracket(n, i, m, j), k, {l: 1})),
                        (-1, bilinear(a.act, n, {i: 1}, m + k, a.act(m, j, k, l))),
                        (sign, bilinear(a.act, m, {j: 1}, n + k, a.act(n, i, k, l))),
                    ]):
                        yield ("alpha_lie_map", n, i, m, j, k, l)

    g_d = {d: linalg.columns(g.d_matrix(d), g.dim(d)) for d in range(g.lo + 1, g.hi + 1)}
    L_d = {d: linalg.columns(L.d_matrix(d), L.dim(d)) for d in range(L.lo + 1, L.hi + 1)}

    def chi_chain_failures():
        for n in range(max(lo, g.lo + 1), hi + 1):
            if not (mod_ok(n - 1) and mod_ok(n - 2)):
                continue
            for i in range(g.dim(n)):
                # d chi(t) + chi(dt) = 0
                terms = [(1, L.d_apply(n - 1, a.twist(n, i)))]
                terms += [(c, a.twist(n - 1, k)) for k, c in g_d[n][i].items()]
                if combination(terms):
                    yield ("chi_chain", n, i)

    def chi_bracket_failures():
        for n, m in product(range(lo, hi + 1), repeat=2):
            chi_n = mod_ok(n - 1) or (n - 1 < L.lo and L.zero_below)
            chi_m = mod_ok(m - 1) or (m - 1 < L.lo and L.zero_below)
            if not (g_ok(n + m) and mod_ok(n + m - 1) and chi_n and chi_m):
                continue
            # chi(t).p = -(-1)^{|chi t||p|} p.chi(t)
            sgn1 = -1 if ((n - 1) * m) % 2 == 0 else 1
            sgn2 = -1 if n % 2 else 1
            for i, j in product(range(g.dim(n)), range(g.dim(m))):
                terms = [(c, a.twist(n + m, k)) for k, c in g.bracket(n, i, m, j).items()]
                if mod_ok(n - 1):
                    terms.append((-sgn1, bilinear(a.act, m, {j: 1}, n - 1, a.twist(n, i))))
                if mod_ok(m - 1):
                    terms.append((-sgn2, bilinear(a.act, n, {i: 1}, m - 1, a.twist(m, j))))
                if combination(terms):
                    yield ("axiom_chi_bracket", n, i, m, j)

    def d_of_action_failures():
        for n, k in product(range(lo, hi + 1), range(L.lo, L.hi + 1)):
            chi_known = mod_ok(n - 1) or (n - 1 < L.lo and L.zero_below)
            dx_known = mod_ok(k - 1) or (k - 1 < L.lo and L.zero_below)
            dtheta_known = n - 1 >= g.lo or g.zero_below
            if not (mod_ok(n + k) and mod_ok(n + k - 1)
                    and chi_known and dx_known and dtheta_known):
                continue
            sgn = -1 if n % 2 else 1
            for i, l in product(range(g.dim(n)), range(L.dim(k))):
                terms = [(c, L_d[n + k][p]) for p, c in a.act(n, i, k, l).items()]
                if n - 1 >= g.lo:
                    terms.append((-1, bilinear(a.act, n - 1, g_d[n][i], k, {l: 1})))
                if mod_ok(k - 1):
                    terms.append((-sgn, bilinear(a.act, n, {i: 1}, k - 1, L_d[k][l])))
                if mod_ok(n - 1):
                    terms.append((-1, bilinear(L.bracket, n - 1, a.twist(n, i), k, {l: 1})))
                if combination(terms):
                    yield ("axiom_d_of_action", n, i, k, l)

    return ValidationReport([
        check_row("action_is_graded_lie_map", lie_map_failures()),
        check_row("chi_anticommutes_with_d", chi_chain_failures()),
        check_row("chi_of_bracket", chi_bracket_failures()),
        check_row("d_of_action", d_of_action_failures()),
    ])


# -- the twisted block action on the full Hom module ---------------------------------
# ``build_g`` acts on the truncated module tau_{>=0} Hom; several tests act on
# the whole of Hom, degrees below 0 included.


def full_hom_outer_action(hm, acting, rho):
    """The outer action of ``acting``'s derivations on ``hm.full``, twisted by rho.

    ``hm`` is a ``models._HomModule``.  As in ``build_g``, theta acts on f
    by -(-1)^{nm} times the right action f.theta, and the twist is
    rho~ . theta; both are read from theta's ``induced_map`` on every call.
    """
    from dgla.models import OuterAction

    def action_fn(n, i, mdeg, j):
        lin = hm.induced_map(acting.derivations[n][i])
        right = hm.right_action_induced(n, lin, mdeg, {j: Fraction(1)})
        sgn = Fraction(-1 if (n * mdeg) % 2 == 0 else 1)
        return {k: sgn * v for k, v in right.items()}

    def chi_fn(n, i):
        return hm.chi_induced(n, hm.induced_map(acting.derivations[n][i]), rho)

    return OuterAction(acting, hm.full, action_fn, chi_fn)


# -- Hom(s indec, pi) through suspended names and matrices --------------------------
# ``models._HomModule`` lists the functionals E(t, s x) and reads each d-block
# straight from the linear part of d.  This is the construction it replaced:
# the suspension named "s" + x, d's linear part made into matrices, and the
# matrices turned back into name pairs, one (functional, entry) pair at a time.


def suspended_hom_reference(p, sub, pi, window):
    """(labels, position, d_blocks) of Hom(s indec_sub(p), pi) on ``_HomModule``'s window.

    ``labels[n]`` lists the degree-n functionals, ``position[(n, x, t)]`` is
    the place of E(t, s x) in degree n, and ``d_blocks[n]`` is the matrix of
    d out of degree n, left out where it is empty: (df)(c) = -(-1)^{|f|} f(dc)
    on the suspension s x of degree |x| + 1 with d(s x) = -s(d x).
    """
    from dgla import linalg
    from dgla.presentation import linear_part_block

    basis = p.nonsub_generators(sub)
    source = [("s%s" % x, d + 1) for x, d in basis]
    # the source differential, one matrix per degree, read back as
    # {(s y, s x): c} for c the coefficient of s y in d(s x) = -s(dx)
    dmat = {}
    for d in sorted({d for _, d in basis}):
        src = [x for x, e in basis if e == d]
        tgt = [y for y, e in basis if e == d - 1]
        if src and tgt:
            m = linear_part_block(lambda n: p.d_gen(n).scale(-1), src, tgt)
            for i, j, c in linalg.entries(m):
                dmat[("s%s" % tgt[i], "s%s" % src[j])] = c
    lo, hi = min(window[0] - 1, -1), window[1]
    labels, index = {}, {}
    for n in range(lo, hi + 1):
        labels[n] = []
        for s, sd in source:
            for t, td in pi.entries:
                if td == sd + n:
                    index[(n, s, t)] = len(labels[n])
                    labels[n].append("%s>%s" % (s, t))
    d_blocks = {}
    for n in range(lo + 1, hi + 1):
        rows, cols = len(labels[n - 1]), len(labels[n])
        if rows == 0 or cols == 0:
            continue
        # (d E(t,s))(s1) = -(-1)^n E(t,s)(d s1): E(t,s1) picks up the
        # coefficient of s in d(s1)
        sign = -1 if n % 2 == 0 else 1
        d_blocks[n] = linalg.matrix(rows, cols, (
            (index[(n - 1, s1, t)], j, sign * c)
            for (nn, s, t), j in index.items() if nn == n
            for (s2, s1), c in dmat.items() if s2 == s and (n - 1, s1, t) in index
        ))
    position = {(n, s[1:], t): pos for (n, s, t), pos in index.items()}
    return labels, position, d_blocks


# -- gluing's extension by zero through generator names --------------------------------
# The library extends a factor's derivation to the glued presentation through
# the factor's inclusion morphism, one basis tree to one basis tree.  This is
# the path it replaced: each value written out as name trees, renamed, and
# brought back to normal form by tensor expansion and a solve.


def extend_derivation_by_names(theta, glued_p, names):
    """theta extended by zero to glued_p, its generators renamed by ``names``."""
    from dgla.derivations import Derivation
    from dgla.expr import rename_tree

    vals = {}
    for gname, v in theta.values.items():
        vals[names[gname]] = glued_p.normal_form(
            [(c, rename_tree(t, names)) for c, t in v.terms()]
        )
    return Derivation(glued_p, theta.degree, vals, rel=None, check=False)


# -- designated subalgebras ------------------------------------------------------------


def sub_contains(p, subname, x):
    """Whether x lies in the designated subalgebra ``subname`` of p.

    A generator split is tested by the generators of x's basis trees, an
    element-generated sub by the span of the subalgebra its elements
    generate in x's degree.
    """
    from dgla.presentation import GeneratorSplit

    spec = p.sub(subname)
    if x.is_zero():
        return True
    if isinstance(spec, GeneratorSplit):
        return p.in_generator_span(x, spec.names)
    return p.subalgebra_span(spec.elements, x.degree).contains(x.coords)
