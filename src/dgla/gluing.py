"""End-to-end gluing and comparison pipelines.

Boundary connected sums at the Lie-algebra level, the induced map of the
headline semidirect dg Lie algebras (Hom factors by the direct-sum
identification of indecomposables, derivation factors by extension by
zero), and the forgetful three-term comparison, which reports homology
ranks of both projections and deliberately claims nothing more.
"""

from itertools import chain, product

from . import linalg
from .derivations import extend_by_zero, forget_pullback, inclusion_names
from .errors import (
    DimensionMismatch,
    SemisimplicityNotAsserted,
    SubMismatch,
    ValidationReport,
    check_row,
)
from .graded import betti_numbers
from .models import ManifoldModel, SymplecticGVS, tilde_model
from .linalg import combination
from .morphisms import GeneratorMorphism
from .presentation import DgLaPresentation, pushout
from .slices import bilinear


def boundary_connected_sum(m, n):
    """The model of a boundary connected sum: V_M + V_N, block pairing.

    The presentation is the pushout of M's and N's along the empty sub,
    built again with the sub "omega" on omega_M + omega_N, which
    ``ManifoldModel`` checks against the sum's omega: omega additivity is
    verified exactly.  The pairing is block diagonal and the Pontryagin
    values are M's, then N's, in each degree.  The result is built with
    M's and N's inclusions into its presentation as its ``inclusions``.
    """
    if m.dimension != n.dimension:
        raise DimensionMismatch(
            "dimensions %d and %d differ" % (m.dimension, n.dimension)
        )
    po, inc_m, inc_n = pushout(m.presentation, n.presentation, None)
    omega = inc_m.apply(m.omega) + inc_n.apply(n.omega)
    p = DgLaPresentation(po.generators.entries, po.differential, {"omega": {"elements": [omega]}})
    k, size = len(m.v.basis), len(p.generators)
    pairing = linalg.matrix(
        size, size, chain(linalg.entries(m.v.pairing), linalg.entries(n.v.pairing, k, k))
    )

    def values(model, d):
        return model.pontryagin.get(d, [0] * model.v.basis.dim(d))

    pont = {d: values(m, d) + values(n, d) for d in set(m.pontryagin) | set(n.pontryagin)}
    v = SymplecticGVS(p.generators.entries, -(m.dimension - 2), pairing)
    inclusions = tuple(GeneratorMorphism(i.source, p, i.images) for i in (inc_m, inc_n))
    return ManifoldModel(m.dimension, v, p, pont, inclusions)


class HeadlineGluingMap:
    """The dg Lie map g(M) x g(N) -> g(M natural-sum N) on a window.

    ``blocks[d]`` maps the concatenated (gM_d, gN_d) coordinates to
    g_glued_d coordinates.  ``report`` certifies d- and
    bracket-compatibility on the window.
    """

    def __init__(self, g_left, g_right, g_glued, blocks, report):
        self.g_left = g_left
        self.g_right = g_right
        self.g_glued = g_glued
        self.blocks = blocks
        self.report = report


def _factor_entries(g_factor, g_glued, inc, d, col):
    """Entries of the matrix embedding one factor's degree-d part into the glued algebra.

    The factor's columns start at ``col``; ``inc`` is the factor's inclusion
    into the glued presentation.  Derivations are extended by zero through
    it, and Hom functionals follow its generator names.
    """
    gf = g_factor.acting
    gg = g_glued.acting
    hf = g_factor.hom_module
    hg = g_glued.hom_module
    for i, theta in enumerate(gf.derivations[d]):
        ext = extend_by_zero(theta, inc)
        yield from ((k, col + i, x) for k, x in gg.coords(ext, d).items())
    col += gf.dim(d)
    names = inclusion_names(inc)
    for j in range(g_factor.module.dim(d)):
        glued_raw = {}
        for pos, cval in hf.raw_basis_vector(d, j).items():
            x, tname = hf.functional[d, pos]
            tgt = hg.position.get((d, names[x], tname))
            if tgt is None:
                raise SubMismatch("Hom functional on %r has no glued counterpart" % x)
            glued_raw[tgt] = cval
        mod_coords = hg.to_module_coords(d, glued_raw)
        yield from ((gg.dim(d) + k, col + j, x) for k, x in mod_coords.items())


def glue_headline_g(g_left, g_right, g_glued, inc_left, inc_right,
                    assert_semisimple=False):
    """The gluing map on headline semidirect dg Lie algebras.

    ``inc_left`` and ``inc_right`` are the factors' inclusions into the
    glued presentation (a connected sum's ``inclusions``).  Hom factors are
    combined by the direct-sum identification of the indecomposables;
    derivation factors by extension by zero.  Requires
    the caller to assert semisimplicity of both factors' indecomposables
    representations (the reductive-quotient comparison can genuinely fail
    without it).  The result is verified to be a map of dg Lie algebras on
    the window.
    """
    if not assert_semisimple:
        raise SemisimplicityNotAsserted(
            "pass assert_semisimple=True after checking the hypothesis"
        )
    lo = max(g_left.lo, g_right.lo, g_glued.lo)
    hi = min(g_left.hi, g_right.hi, g_glued.hi)
    blocks = {}
    for d in range(lo, hi + 1):
        # column order: left (derivations, Hom) then right (derivations, Hom)
        blocks[d] = linalg.matrix(
            g_glued.dim(d),
            g_left.dim(d) + g_right.dim(d),
            chain(
                _factor_entries(g_left, g_glued, inc_left, d, 0),
                _factor_entries(g_right, g_glued, inc_right, d, g_left.dim(d)),
            ),
        )
    # the source g_left x g_right, in the blocks' column order
    source = g_left.product(g_right)
    cols = {d: linalg.columns(block, source.dim(d)) for d, block in blocks.items()}

    def d_failures():
        # the map commutes with d on every basis element
        for d in range(lo + 1, hi + 1):
            d_glued = linalg.columns(g_glued.d_matrix(d), g_glued.dim(d))
            d_source = linalg.columns(source.d_matrix(d), source.dim(d))
            for j in range(source.dim(d)):
                terms = [(c, d_glued[k]) for k, c in cols[d][j].items()]
                terms += [(-c, cols[d - 1][k]) for k, c in d_source[j].items()]
                if combination(terms):
                    yield ("d_compat", d, j)

    def bracket_failures():
        # the map commutes with brackets on every basis pair
        for n, m in product(range(lo, hi + 1), repeat=2):
            if not lo <= n + m <= hi:
                continue
            for i, j in product(range(len(cols[n])), range(len(cols[m]))):
                lhs = source.bracket(n, i, m, j)
                rhs = bilinear(g_glued.bracket, n, cols[n][i], m, cols[m][j])
                if combination([(c, cols[n + m][k]) for k, c in lhs.items()] + [(-1, rhs)]):
                    yield ("bracket_compat", n, i, m, j)

    rep = ValidationReport([
        check_row("glue_commutes_with_d", d_failures()),
        check_row("glue_bracket_compatible", bracket_failures()),
    ])
    if not rep.passed:
        raise SubMismatch("gluing map failed verification: %r" % rep.failures())
    return HeadlineGluingMap(g_left, g_right, g_glued, blocks, rep)


def forget_compare(model, window):
    """Homology ranks of the three-term forgetful comparison for a model.

    Builds the stabilized model, forms the pullback of
    Der_u(L rel omega) <- . -> Der_u(L~ rel beta) over the projection, and
    reports homology ranks in degrees lo..hi-1 of all three complexes with
    agreement flags; lo must be at least 0 (WindowTooNarrow otherwise).
    No quasi-isomorphism claim is made.  The tilde side
    always has a nonzero differential, so its Der_u rests on the
    semisimplicity hypothesis; when the model's differential vanishes that
    hypothesis holds (the indecomposables representation factors through
    the symplectic group), and otherwise the caller asserts it.
    """
    tilde, inc, proj = tilde_model(model)
    lo, hi = int(window[0]), int(window[1])
    # built from one degree lower, so that degree lo has both differentials
    slc, left, right, pairs = forget_pullback(proj, "omega", "beta", (lo - 1, hi))
    b_left = betti_numbers(left.to_chain(), (lo, hi - 1))
    b_right = betti_numbers(right.to_chain(), (lo, hi - 1))
    b_mid = betti_numbers(slc, (lo, hi - 1))
    rows = []
    for k in range(lo, hi):
        rows.append(
            {
                "degree": k,
                "left": b_left[k],
                "pullback": b_mid[k],
                "right": b_right[k],
                "left_agrees": b_left[k] == b_mid[k],
                "right_agrees": b_right[k] == b_mid[k],
            }
        )
    return rows
