"""Exact rational computations with differential graded Lie algebras.

Quasi-free dg Lie presentations over Q with canonical free-Lie normal
forms, derivation complexes and their unipotent parts, graded symplectic
manifold models (the stabilized beta/gamma model, the extension map of
derivations, twisted semidirect products, block dg Lie algebras),
Chevalley-Eilenberg cohomology, BCH exponential groups, Maurer-Cartan
machinery, and gluing/forgetful pipelines.  Everything is exact: no floats
anywhere.
"""

from .ce import ce_cohomology, ce_product_check
from .derivations import (
    Derivation,
    der_bracket,
    der_complex,
    der_differential,
    deru,
    eval_at,
    forget_pullback,
    glue_derivations,
)
from .expmc import (
    NilpotentElementGroup,
    PolyLie,
    bch,
    exp_automorphism,
    gauge_action,
    gauge_action_adjoint,
    homotopy_check,
    mc_check,
)
from .gluing import boundary_connected_sum, forget_compare, glue_headline_g
from .graded import (
    ChainComplexSlice,
    GradedBasis,
    GradedLinearMap,
    betti_numbers,
    homology,
)
from .models import (
    ManifoldModel,
    OuterAction,
    SymplecticGVS,
    build_block_g,
    build_g,
    manifold_model,
    omega_element,
    outer_action_check,
    pi_so_basis,
    semidirect,
    tilde_model,
    xi_extend,
)
from .morphisms import (
    GeneratorMorphism,
    check_morphism,
    indec_action,
    invert_automorphism,
)
from .presentation import (
    DgLaPresentation,
    ElementGenerated,
    GeneratorSplit,
    LieElement,
    lie_chain_slice,
    presentation_slice,
    pushout,
    transfer,
)
from .slices import DgLieSlice, SliceElement

__all__ = [
    "ChainComplexSlice",
    "Derivation",
    "DgLaPresentation",
    "DgLieSlice",
    "ElementGenerated",
    "GeneratorMorphism",
    "GeneratorSplit",
    "GradedBasis",
    "GradedLinearMap",
    "LieElement",
    "ManifoldModel",
    "NilpotentElementGroup",
    "OuterAction",
    "PolyLie",
    "SliceElement",
    "SymplecticGVS",
    "bch",
    "betti_numbers",
    "boundary_connected_sum",
    "build_block_g",
    "build_g",
    "ce_cohomology",
    "ce_product_check",
    "check_morphism",
    "der_bracket",
    "der_complex",
    "der_differential",
    "deru",
    "eval_at",
    "exp_automorphism",
    "forget_compare",
    "forget_pullback",
    "gauge_action",
    "gauge_action_adjoint",
    "glue_derivations",
    "glue_headline_g",
    "homology",
    "homotopy_check",
    "indec_action",
    "invert_automorphism",
    "lie_chain_slice",
    "manifold_model",
    "mc_check",
    "omega_element",
    "outer_action_check",
    "pi_so_basis",
    "presentation_slice",
    "pushout",
    "semidirect",
    "tilde_model",
    "transfer",
    "xi_extend",
]
