"""Computations in the free skew monoidal category on one generator.

Words in a generator X and a unit I, bracketed binary-wise, are
represented as triples (ordinal, generator positions, left bracketing
function); morphisms are order- and bottom-preserving maps between the
ordinals, validated by explicit criteria.  The package computes
hom-sets, canonical factorizations, the Tamari lattice of bracketings,
and the graded operad adjunctions living over the grading by generator
count.
"""

from .ordmaps import (
    InputError,
    MonotoneMap,
    NoAdjointError,
    compose as compose_maps,
    epi_mono_factorize,
    ordinal_sum,
    right_adjoint,
    second_right_adjoint,
)
from .tamari import (
    Lbf,
    Rbf,
    base_change_inj,
    base_change_surj,
    conjugate_inj,
    conjugate_surj,
    enumerate_tamari,
    lbf_to_rbf,
    rbf_to_lbf,
    tamari_bottom,
    tamari_join,
    tamari_leq,
    tamari_meet,
    tamari_top,
    validate_lbf,
)
from .fsk import (
    FskMorphism,
    FskObject,
    GENERATOR,
    MorphismClass,
    UNIT,
    alpha,
    classify,
    compose,
    dual,
    factor_general,
    factor_injection,
    factor_surjection,
    hom,
    identity,
    is_morphism,
    lambda_,
    rho,
    tensor,
)
from .operads import (
    LElement,
    counit_at,
    h_colax,
    h_of,
    h_of_lambda,
    initial_in_grade,
    l_substitute,
    p_of,
    q_of,
    r_of,
    s_substitute_objects,
    terminal_in_grade,
)
# the text and JSON forms of words, reached as freeskew.words
from . import words

__all__ = [name for name in dir() if not name.startswith("_")]
