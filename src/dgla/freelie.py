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


def expand_tree(tree, degrees):
    """Tensor-algebra expansion of a bracket tree: dict word -> Fraction."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    left = expand_tree(tree[0], degrees)
    right = expand_tree(tree[1], degrees)
    sign = -1 if (tree_degree(tree[0], degrees) * tree_degree(tree[1], degrees)) % 2 else 1
    out = {}
    for wu, cu in left.items():
        for wv, cv in right.items():
            w = wu + wv
            out[w] = out.get(w, Fraction(0)) + cu * cv
            w2 = wv + wu
            out[w2] = out.get(w2, Fraction(0)) - sign * cu * cv
    return {w: c for w, c in out.items() if c}


class BasisBracket:
    """One canonical basis element: a tree with its certified expansion."""

    __slots__ = ("tree", "degree", "length", "expansion", "lead", "lead_coeff")

    def __init__(self, tree, degrees):
        self.tree = tree
        self.degree = tree_degree(tree, degrees)
        self.expansion = expand_tree(tree, degrees)
        if not self.expansion:
            raise ValueError("basis bracket expands to zero: %r" % (tree,))
        self.lead = min(self.expansion)
        self.length = len(self.lead)
        self.lead_coeff = self.expansion[self.lead]


def basis_in_degree(degrees, d):
    """Canonical basis of the degree-d piece, as BasisBracket objects.

    Deterministic order: by word length, then leading word lexicographically.
    Certifies the triangular structure (distinct leading words, each
    expansion supported on words >= its lead).
    """
    elems = []
    for w in words_of_degree(degrees, d):
        if is_lyndon(w):
            elems.append(BasisBracket(standard_bracketing(w), degrees))
    if d % 2 == 0:
        half = d // 2
        if half % 2 == 1:
            for w in words_of_degree(degrees, half):
                if is_lyndon(w):
                    t = standard_bracketing(w)
                    elems.append(BasisBracket((t, t), degrees))
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
    return elems


def solve_against_basis(basis, tensor):
    """Coordinates of a tensor vector in the span of the basis expansions.

    Greedy triangular substitution on leading words; raises ValueError if the
    vector is not in the span (which certifies exactness: the residual must
    vanish term by term).  Returns a dict index -> Fraction.
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
        for u, c in basis[i].expansion.items():
            nv = work.get(u, Fraction(0)) - f * c
            if nv:
                work[u] = nv
            else:
                work.pop(u, None)
    return {i: c for i, c in coords.items() if c}
