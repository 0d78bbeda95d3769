"""Free graded Lie algebra machinery over Q.

Generators carry positive integer degrees.  The canonical basis of the free
graded Lie algebra in each degree is the super-Lyndon scheme: standard
bracketings b(w) of Lyndon words w in the generator order, together with the
square [b(w), b(w)] for each Lyndon word w of odd total degree.  Basis
elements are certified, not trusted: their expansions in the tensor algebra
are triangular with distinct leading words (checked at construction), which
is an echelon-form proof of linear independence and drives the normal-form
solver; the size of each basis is checked against the graded Witt formula,
which sees no word.

Sign conventions (the convention sheet; everything else follows by the
Koszul rule):
  - [x,y] = -(-1)^{|x||y|} [y,x]
  - Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
  - tensor embedding: i([u,v]) = i(u)i(v) - (-1)^{|u||v|} i(v)i(u)

Lyndon words, and the trees built from them, are tuples of generator
indices, lexicographically ordered by the generator input order.  Words of
the tensor algebra are packed into one ``int``: a sentinel bit, then one
field of ``letter_width`` bits per letter, the first letter highest (see
``pack``).  Concatenating two words is one shift and one or, and comparing
packed words orders them by length, then lexicographically.  Every word of
one bracket's expansion has the same letters, hence the same length, so the
leads, the (length, lead) basis order and the coordinates are those of
tuple words ordered lexicographically.  All of this is for desk scale:
per-degree dimensions of at most a few thousand.

Some brackets of basis elements need no tensor at all (see
``DgLaPresentation.basis_bracket``).  A basis element is its tree, so if
(t1, t2) is the tree of a basis element b, the bracket of the elements with
trees t1 and t2 is b, and if (t2, t1) is, it is -(-1)^{|t1||t2|} b by
antisymmetry; the squares [b(w), b(w)] are such trees.  Every other bracket
is expanded here and solved against the basis.
"""

from fractions import Fraction
from math import comb, gcd

from .errors import SchemaError

# Largest generator degree and window bound accepted.  Lyndon words are
# found iteratively, but the tree walks (standard bracketing, expansion,
# tree maps) recurse once per nesting level, up to once per letter; the
# bound keeps them far below the interpreter's recursion limit, so a larger
# degree is a SchemaError, never a RecursionError.
MAX_DEGREE = 128

# Largest basis of one degree that is built.  The Witt formula gives each
# size before any word is listed, so a window whose bases would exhaust
# memory is refused at once.  Far above every window in use: two generators
# of degree 2 need 4,080 elements in degree 32 for `der --max 30`, and the
# bound first stops them at degree 38 (27,594).
MAX_BASIS_SIZE = 20000


def letter_width(degrees):
    """Bits per letter of a packed word over generators of these degrees."""
    return max(1, (len(degrees) - 1).bit_length())


def pack(word, degrees):
    """The packed ``int`` of a word (a sequence of generator indices)."""
    width = letter_width(degrees)
    packed = 1
    for letter in word:
        packed = packed << width | letter
    return packed


def unpack(packed, degrees):
    """The word (a tuple of generator indices) of a packed ``int``."""
    width = letter_width(degrees)
    mask = (1 << width) - 1
    letters = []
    while packed > 1:
        letters.append(packed & mask)
        packed >>= width
    return tuple(reversed(letters))


def lyndon_words(degrees, d):
    """The Lyndon words of total degree d, as tuples, in no fixed order.

    Iterative search over prenecklaces (prefixes of necklaces; Cattell,
    Ruskey, Sawada, Serra and Miers 2000), pruned by degree: a prefix is
    extended only while the rest of the degree is still a sum of generator
    degrees.  Each prefix carries its period p, the length of its longest
    Lyndon prefix; a letter a extends a prefix w of length t iff
    a >= w[t - p], keeping p when equal and making the extension Lyndon
    (p = t + 1) when larger.  A word is Lyndon iff p is its length.
    """
    n = len(degrees)
    reachable = [True] + [False] * max(d, 0)
    for r in range(1, d + 1):
        reachable[r] = any(g <= r and reachable[r - g] for g in degrees)
    out = []
    if d < 1 or not reachable[d]:
        return out
    stack = [((), 0, 1)]  # (prenecklace, its degree, its period)
    while stack:
        word, weight, p = stack.pop()
        t = len(word)
        floor = word[t - p] if t else 0
        for a in range(floor, n):
            w = weight + degrees[a]
            if w > d or not reachable[d - w]:
                continue
            q = p if t and a == floor else t + 1
            if w < d:
                stack.append((word + (a,), w, q))
            elif q == t + 1:
                out.append(word + (a,))
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


def tree_word(tree):
    """The letters of a bracket tree, left to right, as a tuple."""
    if isinstance(tree, int):
        return (tree,)
    return tree_word(tree[0]) + tree_word(tree[1])


def expand_tree(tree, degrees, memo=None):
    """Tensor-algebra expansion of a bracket tree: dict packed word -> int.

    A subtree found in ``memo`` (tree -> expansion) is taken from it rather
    than expanded again.  The memo is only read here, and the expansion
    returned may be the memo's own dict, so callers must not mutate it.
    """
    width = letter_width(degrees)
    if isinstance(tree, int):
        return {1 << width | tree: 1}
    if memo is not None:
        got = memo.get(tree)
        if got is not None:
            return got
    left = expand_tree(tree[0], degrees, memo)
    right = expand_tree(tree[1], degrees, memo)
    if not left or not right:
        return {}
    # all words of one expansion have the same letters: one length, one degree
    wu, wv = next(iter(left)), next(iter(right))
    su, sv = wu.bit_length() - 1, wv.bit_length() - 1  # bits below the sentinel
    du, dv = (sum(degrees[i] for i in unpack(w, degrees)) for w in (wu, wv))
    # i([u,v]) = uv - (-1)^{|u||v|} vu; each v is split into v << su, which
    # heads vu, and its letters alone, which end uv
    vu_sign = 1 if du * dv % 2 else -1
    rights = [(wv << su, wv ^ 1 << sv, cv, vu_sign * cv) for wv, cv in right.items()]
    top_u = 1 << su
    out = {}
    get = out.get
    for wu, cu in left.items():
        head, letters = wu << sv, wu ^ top_u
        for vhead, vletters, cv, vu_cv in rights:
            w = head | vletters
            out[w] = get(w, 0) + cu * cv
            w = vhead | letters
            out[w] = get(w, 0) + cu * vu_cv
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
        self.length = (self.lead.bit_length() - 1) // letter_width(degrees)
        self.lead_coeff = self.expansion[self.lead]


def witt_dimensions(degrees, top):
    """[dim L_0, ..., dim L_top] of the free graded Lie algebra L on
    generators of these degrees, by a path that sees no word.

    Poincare-Birkhoff-Witt (Witt 1937; Ree 1960 for the graded case): the
    enveloping algebra of L is the tensor algebra, so
      1 / (1 - sum_g t^|g|) = prod_{d even} (1 - t^d)^(-l_d) * prod_{d odd} (1 + t^d)^(l_d).
    The factor of degree d is 1 + l_d t^d + O(t^2d), so l_d is the t^d
    coefficient of the left side (the number of words of degree d) minus
    that of the product of the factors below d.  Exact integers throughout.
    """
    words = [1] + [0] * top
    for n in range(1, top + 1):
        words[n] = sum(words[n - g] for g in degrees if g <= n)
    product = [1] + [0] * top
    dims = [0] * (top + 1)
    for d in range(1, top + 1):
        l = dims[d] = words[d] - product[d]
        if l:
            factor = [comb(l + k - 1, k) if d % 2 == 0 else comb(l, k)
                      for k in range(top // d + 1)]
            product = [sum(product[n - d * k] * factor[k] for k in range(n // d + 1))
                       for n in range(top + 1)]
    return dims


def basis_in_degree(degrees, d, memo=None):
    """Canonical basis of the degree-d piece, as BasisBracket objects.

    Deterministic order: by leading word, that is by word length, then
    lexicographically.  Certifies the triangular structure (distinct leading
    words, and each lead, the least word of its expansion, is the word of
    its own tree: the Lyndon word w of b(w), or ww of a square
    [b(w), b(w)]) and the size (the graded Witt formula).  A size above
    MAX_BASIS_SIZE is a SchemaError naming the degree, raised before any
    word is listed.  Subtree expansions
    are read from ``memo`` (tree -> expansion) when given, and the expansion
    of every certified composite element is then stored in it: the same dict
    object, never copied and never mutated.
    """
    expected = witt_dimensions(degrees, d)[d]
    if expected > MAX_BASIS_SIZE:
        raise SchemaError(
            "degree %d of the free Lie algebra has %d basis elements, more than the %d"
            " allowed" % (d, expected, MAX_BASIS_SIZE)
        )
    trees = [standard_bracketing(w) for w in lyndon_words(degrees, d)]
    if d % 4 == 2:
        # [b(w), b(w)] for the Lyndon words w of odd degree d / 2
        trees += [(t, t) for t in map(standard_bracketing, lyndon_words(degrees, d // 2))]
    elems = sorted((BasisBracket(t, degrees, memo) for t in trees), key=lambda b: b.lead)
    for i, b in enumerate(elems):
        if i and elems[i - 1].lead == b.lead:
            raise AssertionError(
                "leading-word collision in degree %d: %r" % (d, unpack(b.lead, degrees))
            )
        if b.lead != pack(tree_word(b.tree), degrees):
            raise AssertionError(
                "leading word is not the word of the tree in degree %d: %r" % (d, b.tree)
            )
    if len(elems) != expected:
        raise AssertionError(
            "degree %d has %d basis elements, the Witt formula %d" % (d, len(elems), expected)
        )
    if memo is not None:
        for b in elems:
            if not isinstance(b.tree, int):
                memo[b.tree] = b.expansion
    return elems


def solve_against_basis(basis, tensor, denominator=1):
    """Coordinates of tensor / denominator in the span of the basis expansions.

    ``tensor`` maps packed words to integers; ``basis`` is one degree's
    basis, in its order.  Triangular substitution on integers, walking the
    basis once: each lead's entry is read once and cleared by its element,
    whose expansion touches no smaller word.  When a leading coefficient does
    not divide the entry it must clear, everything is scaled by the missing
    factor, and that one denominator is divided out at the end.  Raises
    ValueError if any word is left over, i.e. the vector is not in the span
    (which certifies exactness: the residual must vanish term by term).
    Returns a dict index -> coefficient: ``c // scale`` as an ``int``
    wherever the scale divides it, else the ``Fraction``.
    """
    work = {w: c for w, c in tensor.items() if c}
    scale = denominator
    coords = {}
    for i, b in enumerate(basis):
        if not work:
            break
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
        get = work.get
        for u, cu in b.expansion.items():
            nv = get(u, 0) - f * cu
            if nv:
                work[u] = nv
            else:
                del work[u]
    if work:
        raise ValueError("vector outside the free Lie span (packed word %#x)" % min(work))
    if scale == 1:
        return coords
    return {i: c // scale if c % scale == 0 else Fraction(c, scale) for i, c in coords.items()}
