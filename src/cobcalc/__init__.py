"""Exact truncated-series calculus for formal group laws, generalized
Demazure operators, and moment-graph models of flag varieties and wonderful
symmetric varieties of minimal rank."""

from .errors import (
    CobcalcError,
    ConfigError,
    ConstantTermError,
    InsufficientGeneratorsError,
    InternalConsistencyError,
    InvolutionError,
    NonPrimitiveCharacterError,
    NotDivisibleError,
    NotMinimalRankError,
    NVarsMismatchError,
    PrecisionExhaustedError,
    PrecisionMismatchError,
    PrecisionTooLargeError,
    PrecisionTooSmallError,
    RepeatedWeightError,
    UnsupportedTypeError,
)
from .fgl import (
    FGLContext,
    LawSpec,
    build_law,
    fgl_axiom_report,
)
from .gkm import (
    GKMClass,
    GKMGraph,
    TupleSystem,
    constant_class,
    flag_gkm,
    gln_relations,
    invariants_basis,
    line_bundle_class,
    membership,
    span_equal,
    subring_basis,
    surjectivity_probe,
    tensor_to_gkm,
)
from .roots import (
    RootDatum,
    SymmetricDatum,
    WeylElement,
    build_root_datum,
    build_symmetric_datum,
    divided_difference,
    product_datum,
    weyl_act,
)
from .schubert import (
    bott_samelson,
    demazure,
    demazure_gkm,
    kappa_of_character,
    point_class,
    sw_linearity_check,
)
from .series import (
    GradedSeries,
    MonomialMap,
    Substitution,
    divide_exact,
    elementary_symmetric,
)
from .verify import RunConfig, run_suite
from .wonderful import (
    WonderfulModel,
    build_wonderful_graph,
    group_psl2_projective_model,
    invariant_subring_X,
    invariant_subring_Y,
    invariant_tuple_basis,
    projective_space_model,
    verify_esph,
)

__version__ = "0.1.0"
