"""Free graded Lie algebra machinery over Q.

Generators carry positive integer degrees.  The canonical basis of the free
graded Lie algebra in each degree is the super-Lyndon scheme: standard
bracketings b(w) of Lyndon words w in the generator order, together with the
square [b(w), b(w)] for each Lyndon word w of odd total degree.  Basis
elements are certified, not trusted: their expansions in the tensor algebra
are triangular with distinct leading words, which is an echelon-form proof
of linear independence and drives the normal-form solver; the size of each
basis is checked against the graded Witt formula, which sees no word.  The
leading words are certified at construction from the leads of each
element's two factors, with no expansion (``BasisBracket``); an element's
expansion is built, from its factors' expansions, only once the solve of a
cold bracket (``DgLaPresentation.basis_bracket``) reads it.

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
is expanded here and solved against the basis once per letter pattern, and
moved from there to every letter set with that pattern.  An injection of
alphabets that keeps the letters' order and degrees sends Lyndon words to
Lyndon words and keeps their standard factorizations (Reutenauer, *Free Lie
Algebras*, 1993, ch. 4-5), so it extends to an injective morphism of free
graded Lie algebras that commutes with the tensor embedding, sends each
basis element to a basis element and keeps every Koszul sign.  So a bracket
whose factors' leads rename (``rename_letters``) to those of a bracket
already solved has that bracket's coordinates, on the basis elements whose
leads are the renamed ones: a basis element's lead is the word of its tree.
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


def standard_bracketing(w, memo=None):
    """Standard (right) bracketing of a Lyndon word.

    For |w| > 1, w = uv with v the longest proper Lyndon suffix, and
    b(w) = [b(u), b(v)].  That suffix is the least proper suffix: the least
    is Lyndon, since its own proper suffixes are suffixes of w, and a longer
    Lyndon suffix would be less than it.  Trees are nested pairs of
    generator indices.  A tree found in ``memo`` (word -> tree) is taken
    from it, and every composite tree built is stored there.
    """
    if len(w) == 1:
        return w[0]
    if memo is not None:
        got = memo.get(w)
        if got is not None:
            return got
    k = len(w) - len(min(w[j:] for j in range(1, len(w))))
    tree = (standard_bracketing(w[:k], memo), standard_bracketing(w[k:], memo))
    if memo is not None:
        memo[w] = tree
    return tree


def tree_degree(tree, degrees):
    if isinstance(tree, int):
        return degrees[tree]
    return tree_degree(tree[0], degrees) + tree_degree(tree[1], degrees)


def tree_word(tree):
    """The letters of a bracket tree, left to right, as a tuple."""
    if isinstance(tree, int):
        return (tree,)
    return tree_word(tree[0]) + tree_word(tree[1])


def rename_letters(packed, width, letters):
    """The packed word with each letter field g renamed to ``letters[g]``.

    ``width`` is the bits per letter (``letter_width``); the renamed word keeps it.
    """
    mask = (1 << width) - 1
    out = shift = 0
    while packed > 1:
        out |= letters[packed & mask] << shift
        packed >>= width
        shift += width
    return out | 1 << shift


def expand_tree(tree, degrees, memo=None, factor_degrees=None):
    """Tensor-algebra expansion of a bracket tree: dict packed word -> nonzero int.

    A subtree found in ``memo`` (tree -> expansion) is taken from it rather
    than expanded again.  The memo is only read here.  A tree found in it
    returns the memo's own dict, which callers must not mutate; any other
    tree returns a new dict, built here and then the caller's own, which it
    may consume (``solve_against_basis`` does).  The degrees of the two
    factors are ``factor_degrees``, or the tree's.
    """
    if isinstance(tree, int):
        return {1 << letter_width(degrees) | tree: 1}
    if memo is not None:
        got = memo.get(tree)
        if got is not None:
            return got
    left = expand_tree(tree[0], degrees, memo)
    right = expand_tree(tree[1], degrees, memo)
    if not left or not right:
        return {}
    # all words of one expansion have the same letters, hence one length
    wu, wv = next(iter(left)), next(iter(right))
    su, sv = wu.bit_length() - 1, wv.bit_length() - 1  # bits below the sentinel
    du, dv = factor_degrees or (tree_degree(tree[0], degrees), tree_degree(tree[1], degrees))
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
    if 0 in out.values():
        for w in [w for w, c in out.items() if not c]:
            del out[w]
    return out


class BasisBracket:
    """One canonical basis element: a tree, its factors and its certified lead.

    ``lead`` is the least word of the expansion i(b) (packed), ``lead_coeff``
    its coefficient and ``length`` its number of letters.  For a generator
    they are its letter and 1.  For b = [U, V] with leads lu, lv they follow
    from the factors: every word of i(U) has one length, and so has every
    word of i(V), so the least word of i(U)i(V) is lu.lv with coefficient
    cu.cv, and that of i(V)i(U) is lv.lu.  By the tensor embedding
    (module docstring) the lead of i([U, V]) is the lesser of the two, with
    cu.cv for lu.lv and -(-1)^{|U||V|} cu.cv for lv.lu, summed when the
    words are equal.  Factors here are basis elements, whose leads are the
    words of their trees; two such leads are equal or commute only when each
    factor is b(w) or [b(w), b(w)] for one Lyndon word w, and such a bracket
    is zero exactly when the two coefficients cancel.

    ``letters`` is the letter mask of the tree: bit g is set when generator
    g occurs in it, so it is 1 << g for a generator and the OR of the
    factors' masks for a bracket.

    ``expansion`` is the product of the factors' expansions, built on its
    first read and then kept in the memo's ``expansions`` (``BasisMemo.expansion``).
    """

    __slots__ = ("tree", "degree", "length", "lead", "lead_coeff", "letters", "factors", "memo")

    def __init__(self, tree, memo):
        self.tree = tree
        self.memo = memo
        if isinstance(tree, int):
            self.factors = ()
            self.degree = memo.degrees[tree]
            self.length = 1
            self.lead = 1 << memo.width | tree
            self.lead_coeff = 1
            self.letters = 1 << tree
            return
        u, v = self.factors = (memo.element(tree[0]), memo.element(tree[1]))
        self.degree = u.degree + v.degree
        self.length = u.length + v.length
        self.letters = u.letters | v.letters
        su, sv = u.length * memo.width, v.length * memo.width  # bits below the sentinel
        uv = u.lead << sv | v.lead ^ 1 << sv
        vu = v.lead << su | u.lead ^ 1 << su
        c = u.lead_coeff * v.lead_coeff
        vu_c = c if u.degree * v.degree % 2 else -c
        if uv == vu:
            self.lead, self.lead_coeff = uv, c + vu_c
        elif uv < vu:
            self.lead, self.lead_coeff = uv, c
        else:
            self.lead, self.lead_coeff = vu, vu_c
        if not self.lead_coeff:
            raise ValueError("basis bracket expands to zero: %r" % (tree,))

    @property
    def expansion(self):
        """i(b) as {packed word: int}, which callers must not mutate."""
        return {self.lead: 1} if not self.factors else self.memo.expansion(self)


class BasisMemo:
    """What the bases of one list of generator degrees share, built on demand.

    ``witt`` is the Witt table [dim L_0, ..., dim L_top], recomputed to at
    least twice its top when a higher degree is asked for; ``trees`` maps
    each Lyndon word met to its standard bracketing; ``elements`` maps the
    tree of each basis element built so far to that element; and
    ``expansions`` maps the tree of each composite basis element whose
    expansion has been read to that expansion.  One presentation keeps one.
    """

    def __init__(self, degrees):
        self.degrees = degrees
        self.width = letter_width(degrees)
        self.witt = []
        self.trees = {}
        self.elements = {}
        self.expansions = {}

    def size(self, d):
        """dim L_d by the Witt formula (``witt_dimensions``), for d >= 0, or a
        SchemaError naming d when it is above MAX_BASIS_SIZE."""
        if d >= len(self.witt):
            self.witt = witt_dimensions(self.degrees, max(d, 2 * (len(self.witt) - 1)))
        got = self.witt[d]
        if got > MAX_BASIS_SIZE:
            raise SchemaError(
                "degree %d of the free Lie algebra has %d basis elements, more than the %d"
                " allowed" % (d, got, MAX_BASIS_SIZE)
            )
        return got

    def element(self, tree):
        """The basis element with this tree, built with its factors on first use."""
        got = self.elements.get(tree)
        if got is None:
            got = self.elements[tree] = BasisBracket(tree, self)
        return got

    def expansion(self, b):
        """i(b) of a composite basis element b, kept in ``expansions`` once read.

        The memo keeps a copy of the product built by insertion, so sized to
        its words: the product's own dict still holds the slots of the words
        that cancelled in it, and ``dict.copy`` would keep them.
        """
        got = self.expansions.get(b.tree)
        if got is None:
            product = self.product(*b.factors)
            got = self.expansions[b.tree] = {w: c for w, c in product.items()}
        return got

    def product(self, u, v):
        """i([u, v]) for basis elements u and v: one product step on their expansions."""
        memo = {u.tree: u.expansion, v.tree: v.expansion}
        return expand_tree((u.tree, v.tree), self.degrees, memo, (u.degree, v.degree))


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
    words, each a nonzero lead certified from the leads of its factors, and
    each lead the word of its own tree: the Lyndon word w of b(w), or ww of
    a square [b(w), b(w)]) and the size (the graded Witt formula), with no
    tensor expansion.  A size above MAX_BASIS_SIZE is a SchemaError naming
    the degree, raised before any word is listed.  Witt table, trees and
    elements are read from and stored in ``memo``, a BasisMemo of these
    degrees (a fresh one when None); an element's expansion is built only
    when it is first read.
    """
    if d < 1:
        return []
    if memo is None:
        memo = BasisMemo(degrees)
    expected = memo.size(d)
    trees = [standard_bracketing(w, memo.trees) for w in lyndon_words(degrees, d)]
    if d % 4 == 2:
        # [b(w), b(w)] for the Lyndon words w of odd degree d / 2
        trees += [(t, t) for t in (standard_bracketing(w, memo.trees)
                                   for w in lyndon_words(degrees, d // 2))]
    elems = sorted(map(memo.element, trees), key=lambda b: b.lead)
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
    return elems


def solve_against_basis(basis, tensor):
    """Coordinates of tensor in the span of the basis expansions.

    ``tensor`` maps packed words to nonzero integers, and the solve takes it
    over: it is the work dict that the solve clears, so the caller passes a
    dict it owns (a cold bracket's product) and does not read it again.
    ``basis`` is one degree's basis, in its order.  Triangular substitution
    on integers, walking the basis once: each lead's entry is read once and
    cleared by its element, whose expansion touches no smaller word.  When a
    leading coefficient does not divide the entry it must clear, everything
    is scaled by the missing factor, and that one denominator is divided out
    at the end.  Raises ValueError if any word is left over, i.e. the vector
    is not in the span (which certifies exactness: the residual must vanish
    term by term).  Returns a dict index -> coefficient: ``c // scale`` as
    an ``int`` wherever the scale divides it, else the ``Fraction``.
    """
    work = tensor
    if not work:
        return {}
    scale = 1
    coords = {}
    get = work.get
    for i, b in enumerate(basis):
        c = get(b.lead)
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
        # the residual is checked once per subtraction; +-1 multiples need no product
        if f == 1:
            for u, cu in b.expansion.items():
                nv = get(u, 0) - cu
                if nv:
                    work[u] = nv
                else:
                    del work[u]
        elif f == -1:
            for u, cu in b.expansion.items():
                nv = get(u, 0) + cu
                if nv:
                    work[u] = nv
                else:
                    del work[u]
        else:
            for u, cu in b.expansion.items():
                nv = get(u, 0) - f * cu
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
