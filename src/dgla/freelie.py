"""Free graded Lie algebra machinery over Q.

Generators carry positive integer degrees.  The canonical basis of the free
graded Lie algebra in each degree is the super-Lyndon scheme: standard
bracketings b(w) of Lyndon words w in the generator order, together with the
square [b(w), b(w)] for each Lyndon word w of odd total degree.  Basis
elements are certified, not trusted: their expansions in the tensor algebra
are triangular with distinct leading words (checked at construction), which
is an echelon-form proof of linear independence and drives the normal-form
solver.

Sign conventions (the convention sheet; everything else follows by the
Koszul rule):
  - [x,y] = -(-1)^{|x||y|} [y,x]
  - Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
  - tensor embedding: i([u,v]) = i(u)i(v) - (-1)^{|u||v|} i(v)i(u)

Words are tuples of generator indices; lexicographic order is induced by the
generator input order.  All of this is for desk scale: per-degree dimensions
of at most a few thousand.
"""

from fractions import Fraction
from math import gcd, lcm

# Largest generator degree accepted.  Word enumeration recurses once per
# letter, so the degrees met by brackets of a few generators stay far below
# the interpreter's recursion limit: a larger degree is a SchemaError, never
# a RecursionError.
MAX_DEGREE = 128


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
    """Lyndon iff strictly smaller than each of its proper suffixes."""
    if not w:
        return False
    for k in range(1, len(w)):
        if w[k:] <= w:
            return False
    return True


def standard_bracketing(w):
    """Standard (right) bracketing of a Lyndon word.

    For |w| > 1, w = uv with v the longest proper Lyndon suffix, and
    b(w) = [b(u), b(v)].  Trees are nested pairs of generator indices.
    """
    if len(w) == 1:
        return w[0]
    for k in range(1, len(w)):
        if is_lyndon(w[k:]):
            return (standard_bracketing(w[:k]), standard_bracketing(w[k:]))
    raise ValueError("not a Lyndon word: %r" % (w,))


def tree_degree(tree, degrees):
    if isinstance(tree, int):
        return degrees[tree]
    return tree_degree(tree[0], degrees) + tree_degree(tree[1], degrees)


def expand_tree(tree, degrees, memo=None):
    """Tensor-algebra expansion of a bracket tree: dict word -> int.

    A subtree found in ``memo`` (tree -> expansion) is taken from it rather
    than expanded again.  The memo is only read here, and the expansion
    returned may be the memo's own dict, so callers must not mutate it.
    """
    if isinstance(tree, int):
        return {(tree,): 1}
    if memo is not None:
        got = memo.get(tree)
        if got is not None:
            return got
    left = expand_tree(tree[0], degrees, memo)
    right = expand_tree(tree[1], degrees, memo)
    if not left or not right:
        return {}
    du = sum(degrees[i] for i in next(iter(left)))
    dv = sum(degrees[i] for i in next(iter(right)))
    sign = -1 if du * dv % 2 else 1
    out = {}
    get = out.get
    for wu, cu in left.items():
        for wv, cv in right.items():
            c = cu * cv
            w = wu + wv
            out[w] = get(w, 0) + c
            w = wv + wu
            out[w] = get(w, 0) - sign * c
    return {w: c for w, c in out.items() if c}


class BasisBracket:
    """One canonical basis element: a tree with its certified expansion."""

    __slots__ = ("tree", "degree", "length", "expansion", "lead", "lead_coeff")

    def __init__(self, tree, degrees, memo=None):
        self.tree = tree
        self.degree = tree_degree(tree, degrees)
        self.expansion = expand_tree(tree, degrees, memo)
        if not self.expansion:
            raise ValueError("basis bracket expands to zero: %r" % (tree,))
        self.lead = min(self.expansion)
        self.length = len(self.lead)
        self.lead_coeff = self.expansion[self.lead]


def basis_in_degree(degrees, d, memo=None):
    """Canonical basis of the degree-d piece, as BasisBracket objects.

    Deterministic order: by word length, then leading word lexicographically.
    Certifies the triangular structure (distinct leading words, each
    expansion supported on words >= its lead).  Subtree expansions are read
    from ``memo`` (tree -> expansion) when given, and the expansion of every
    certified composite element is then stored in it: the same dict object,
    never copied and never mutated.
    """
    elems = []
    for w in words_of_degree(degrees, d):
        if is_lyndon(w):
            elems.append(BasisBracket(standard_bracketing(w), degrees, memo))
    if d % 2 == 0:
        half = d // 2
        if half % 2 == 1:
            for w in words_of_degree(degrees, half):
                if is_lyndon(w):
                    t = standard_bracketing(w)
                    elems.append(BasisBracket((t, t), degrees, memo))
    elems.sort(key=lambda b: (b.length, b.lead))
    seen = {}
    for b in elems:
        if b.lead in seen:
            raise AssertionError(
                "leading-word collision in degree %d: %r" % (d, b.lead)
            )
        seen[b.lead] = b
        for w in b.expansion:
            if w < b.lead:
                raise AssertionError(
                    "expansion below leading word in degree %d: %r" % (d, b.tree)
                )
    if memo is not None:
        for b in elems:
            if not isinstance(b.tree, int):
                memo[b.tree] = b.expansion
    return elems


def lead_map(basis):
    """The index of each basis element by its leading word."""
    return {b.lead: i for i, b in enumerate(basis)}


def solve_against_basis(basis, tensor, leads):
    """Coordinates of a tensor vector in the span of the basis expansions.

    ``leads`` is ``lead_map(basis)``, built once per basis by the caller.
    Greedy triangular substitution on leading words, on integers: the tensor
    (rational or integer coefficients) is scaled by the lcm of its
    denominators, and when a leading coefficient does not divide the entry
    it must clear, everything is scaled by the missing factor.  That one
    denominator is divided out at the end.  Raises ValueError if the vector
    is not in the span (which certifies exactness: the residual must vanish
    term by term).  Returns a dict index -> Fraction.
    """
    scale = lcm(*(c.denominator for c in tensor.values()))
    work = {w: c.numerator * (scale // c.denominator) for w, c in tensor.items() if c}
    coords = {}
    while work:
        w = min(work)
        i = leads.get(w)
        if i is None:
            raise ValueError("vector outside the free Lie span (word %r)" % (w,))
        c = work[w]
        lc = basis[i].lead_coeff
        if c % lc:
            m = abs(lc) // gcd(c, lc)
            scale *= m
            c *= m
            work = {u: v * m for u, v in work.items()}
            coords = {j: v * m for j, v in coords.items()}
        f = c // lc
        coords[i] = f
        get = work.get
        for u, cu in basis[i].expansion.items():
            nv = get(u, 0) - f * cu
            if nv:
                work[u] = nv
            else:
                del work[u]
    return {i: Fraction(c, scale) for i, c in coords.items()}
