"""Free graded Lie algebra machinery over Q.

Generators carry positive integer degrees.  The canonical basis of the free
graded Lie algebra in each degree is the super-Lyndon scheme: standard
bracketings b(w) of Lyndon words w in the generator order, together with the
square [b(w), b(w)] for each Lyndon word w of odd total degree.

Lyndon words form a Hall set (Lothaire, *Combinatorics on Words*, 1983,
ch. 5; Reutenauer, *Free Lie Algebras*, 1993, ch. 4-5).  For Lyndon words
u < v, the pair (u, v) is the standard factorization of the Lyndon word uv
(v its longest proper Lyndon suffix) exactly when u is a letter or u's own
right factor is >= v, and then b(uv) = [b(u), b(v)].  So each degree's
Lyndon elements are read off as such pairs of lower ones (``BasisMemo``),
with no word search and no bracketing walk.

Basis elements are certified, not trusted: their expansions in the tensor
algebra are triangular with distinct leading words, which is an
echelon-form proof of linear independence and drives the normal-form
solver; the size of each basis is checked against the graded Witt formula,
which sees no word.  The leading words are certified at construction from
the leads of each element's two factors, with no expansion
(``BasisBracket``); an element's expansion is built, from its factors'
expansions, only once the solve of a cold bracket
(``DgLaPresentation.basis_bracket``) reads it.

Sign conventions (the convention sheet; everything else follows by the
Koszul rule):
  - [x,y] = -(-1)^{|x||y|} [y,x]
  - Jacobi: [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
  - tensor embedding: i([u,v]) = i(u)i(v) - (-1)^{|u||v|} i(v)i(u)

Words are tuples of generator indices, ordered lexicographically by the
generator input order, and trees nest pairs of them.  Words of the tensor
algebra are packed into one ``int``: a sentinel bit, then one field of
``letter_width`` bits per letter, the first letter highest (see ``pack``).  Concatenating two words is one shift and one or, and comparing
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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, gcd
from operator import attrgetter, itemgetter

from .errors import SchemaError

# Largest generator degree and window bound accepted.  Bases are built
# iteratively, degree by degree, but the tree walks (expansion, tree maps)
# recurse once per nesting level, up to once per letter; the bound keeps
# them far below the interpreter's recursion limit, so a larger degree is a
# SchemaError, never a RecursionError.
MAX_DEGREE = 128

# Largest basis of one degree that is built.  The Witt formula gives each
# size before any word is listed, so a window that needs a larger basis is
# refused at once.  It bounds the bases, not memory: in a deep window the
# expansions that cold brackets read, and their solves' work dicts, are far
# larger.  Far above every window in use: two generators of degree 2 need
# 7,710 elements in degree 34 for `der --max 30`, and the bound first stops
# them at degree 38 (27,594).
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


def tree_degree(tree, degrees):
    if isinstance(tree, int):
        return degrees[tree]
    return tree_degree(tree[0], degrees) + tree_degree(tree[1], degrees)


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
    than expanded again.  The memo is only read here, and its entries are
    pairs (words, coefficients) of tuples (``BasisMemo.expansion``).  A tree
    found in it returns the memo's own pair; any other tree returns a new
    dict, built here and then the caller's own, which it may consume
    (``solve_against_basis`` does).  The degrees of the two factors are
    ``factor_degrees``, or the tree's.
    """
    if isinstance(tree, int):
        return {1 << letter_width(degrees) | tree: 1}
    if memo is not None:
        got = memo.get(tree)
        if got is not None:
            return got
    # a memo entry is (words, coefficients); a dict iterates its words
    left = expand_tree(tree[0], degrees, memo)
    lwords, lcoeffs = left if type(left) is tuple else (left, left.values())
    right = expand_tree(tree[1], degrees, memo)
    rwords, rcoeffs = right if type(right) is tuple else (right, right.values())
    if not lwords or not rwords:
        return {}
    # all words of one expansion have the same letters, hence one length
    wu, wv = next(iter(lwords)), next(iter(rwords))
    su, sv = wu.bit_length() - 1, wv.bit_length() - 1  # bits below the sentinel
    du, dv = factor_degrees or (tree_degree(tree[0], degrees), tree_degree(tree[1], degrees))
    # i([u,v]) = uv - (-1)^{|u||v|} vu; each v is split into v << su, which
    # heads vu, and its letters alone, which end uv
    vu_sign = 1 if du * dv % 2 else -1
    rights = [(wv << su, wv ^ 1 << sv, cv, vu_sign * cv) for wv, cv in zip(rwords, rcoeffs)]
    top_u = 1 << su
    out = {}
    get = out.get
    for wu, cu in zip(lwords, lcoeffs):
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

    ``BasisBracket(memo, g)`` is generator g, and ``BasisBracket(memo, u, v)``
    is [u, v] for basis elements u, v, with tree (u.tree, v.tree).

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

    ``expansion`` is i(b) as a pair (words, coefficients) of tuples: for a
    generator ((lead,), (1,)), and for a bracket the product of the
    factors' expansions, built on its first read and then kept in the
    memo's ``expansions`` (``BasisMemo.expansion``).
    """

    __slots__ = ("tree", "degree", "length", "lead", "lead_coeff", "letters", "factors", "memo")

    def __init__(self, memo, u, v=None):
        self.memo = memo
        if v is None:
            self.tree, self.factors, self.degree, self.length = u, (), memo.degrees[u], 1
            self.lead, self.lead_coeff, self.letters = 1 << memo.width | u, 1, 1 << u
            return
        self.tree, self.factors = (u.tree, v.tree), (u, v)
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
            raise ValueError("basis bracket expands to zero: %r" % (self.tree,))

    @property
    def expansion(self):
        """i(b) as (packed words, int coefficients), two tuples of one length."""
        return ((self.lead,), (1,)) if not self.factors else self.memo.expansion(self)


class BasisMemo:
    """What the bases of one list of generator degrees share, built on demand.

    ``witt`` is the Witt table [dim L_0, ..., dim L_top], recomputed to at
    least twice its top when a higher degree is asked for; ``lyndon`` maps
    each degree listed so far to its Lyndon words (tuples, in lexicographic
    order) and the element b(w) of each; ``elements`` maps the tree of each
    basis element built so far (``build``) to that element;
    ``expansions`` maps the tree of each composite basis element whose
    expansion has been read to that expansion, an immutable pair of tuples
    (``expansion``); and ``words`` interns every word of those expansions,
    so that a word shared by many of them is one ``int``.  One presentation
    keeps one.
    """

    def __init__(self, degrees):
        self.degrees = degrees
        self.width = letter_width(degrees)
        self.witt = []
        self.lyndon = {}
        self.elements = {}
        self.expansions = {}
        self.words = {}

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

    def lyndon_elements(self, d):
        """``lyndon[d]``, built lowest degree first with the lists it is read from.

        Those are the lists of a and d - a for each 0 < a < d where both Witt
        sizes are nonzero, and theirs.  A degree of Witt size 0 builds none.
        """
        if d not in self.lyndon:
            if not self.size(d):
                return (), ()
            witt, need = self.witt, {d}
            for e in range(d, 1, -1):
                if e in need and e not in self.lyndon:
                    need.update(a for a in range(1, e) if witt[a] and witt[e - a])
            for e in sorted(need.difference(self.lyndon)):
                self.lyndon[e] = self._pairs(e)
        return self.lyndon[d]

    def _pairs(self, e):
        """``lyndon[e]``: the letters of degree e and the standard factorizations
        (u, v) with |u| + |v| = e (module docstring).  For each u the v run
        over one interval of the degree e - |u| list, found by bisection."""
        witt, lists = self.witt, self.lyndon
        found = [((g,), g, None) for g, degree in enumerate(self.degrees) if degree == e]
        for a in range(1, e):
            if witt[a] and witt[e - a]:
                vwords, vs = lists[e - a]
                for uw, u in zip(*lists[a]):
                    lo = bisect_right(vwords, uw)
                    hi = bisect_right(vwords, uw[-u.factors[1].length:]) if u.factors else len(vwords)
                    found += [(uw + vwords[k], u, vs[k]) for k in range(lo, hi)]
        found.sort(key=itemgetter(0))
        return [w for w, _, _ in found], [self.build(u, v) for _, u, v in found]

    def build(self, u, v=None):
        """The basis element of generator u, or [u, v], kept by its tree.

        A bracket's lead is certified to be the concatenation of its factors'
        leads, so the word of its tree once theirs are: uv for b(uv), ww for a square.
        """
        b = BasisBracket(self, u, v)
        if b.factors:
            u, v = b.factors
            sv = v.length * self.width
            if b.lead != u.lead << sv | v.lead ^ 1 << sv:
                raise AssertionError(
                    "leading word is not the word of the tree in degree %d: %r" % (b.degree, b.tree)
                )
        self.elements[b.tree] = b
        return b

    def expansion(self, b):
        """i(b) of a composite basis element b, kept in ``expansions`` once read.

        The memo keeps the product as two tuples, its words (each one taken
        from ``words``) and their coefficients, in the product's order: 16
        bytes a word, where a dict would hold a table slot and a key of its
        own for each.
        """
        got = self.expansions.get(b.tree)
        if got is None:
            product = self.product(*b.factors)
            intern = self.words.setdefault  # intern(w, w): the table's own w
            got = self.expansions[b.tree] = (
                tuple(map(intern, product, product)), tuple(product.values()))
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
    lexicographically.  The Lyndon elements of degree d, and for d = 2 mod 4
    the squares [b(w), b(w)] of those of degree d / 2, come from the lists
    of ``memo``, a BasisMemo of these degrees (a fresh one when None).
    Certifies the triangular structure (distinct leading words, each a
    nonzero lead certified from the leads of its factors, and each lead the
    word of its own tree, checked as it is built: ``BasisMemo.build``) and
    the size (the graded Witt formula), with no tensor expansion.  A size
    above MAX_BASIS_SIZE is a SchemaError naming the degree, and a size of 0
    returns [], both before any list is built.
    """
    if d < 1:
        return []
    if memo is None:
        memo = BasisMemo(degrees)
    expected = memo.size(d)
    if not expected:
        return []
    elems = list(memo.lyndon_elements(d)[1])
    if d % 4 == 2:
        built = memo.elements.get
        elems += [built((u.tree, u.tree)) or memo.build(u, u)
                  for u in memo.lyndon_elements(d // 2)[1]]
    elems.sort(key=attrgetter("lead"))
    for a, b in zip(elems, elems[1:]):
        if a.lead == b.lead:
            raise AssertionError(
                "leading-word collision in degree %d: %r" % (d, unpack(b.lead, degrees))
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
    cleared by its element, whose expansion touches no smaller word, so the
    walk starts at the first lead not below the tensor's least word
    (bisected).  When a leading coefficient does not divide the entry it
    must clear, everything is scaled by the missing factor, and that one
    denominator is divided out at the end.  Raises ValueError if any word is left over, i.e. the vector
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
    for i in range(bisect_left(basis, min(work), key=attrgetter("lead")), len(basis)):
        b = basis[i]
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
            for u, cu in zip(*b.expansion):
                nv = get(u, 0) - cu
                if nv:
                    work[u] = nv
                else:
                    del work[u]
        elif f == -1:
            for u, cu in zip(*b.expansion):
                nv = get(u, 0) + cu
                if nv:
                    work[u] = nv
                else:
                    del work[u]
        else:
            for u, cu in zip(*b.expansion):
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
