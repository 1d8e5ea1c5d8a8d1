"""loewner-lab: numerical verification of interpolating operator
Jensen-type inequality chains for log-convex and superquadratic scalar
functions, under positive unital linear maps, at desk scale (Hermitian
matrices of dimension 1 to 16)."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateInterval,
    DimensionMismatch,
    DivisionByZero,
    DomainViolation,
    ExhaustedRetries,
    HypothesisViolation,
    IoError,
    LoewnerLabError,
    NonConvergence,
    NotHermitian,
    ShapeMismatch,
    SpecParseError,
    UnknownKind,
    UnknownRelaxation,
    UnknownTheorem,
)
from .hermitian import (
    EigenDecomposition,
    HermitianMatrix,
    LoewnerVerdict,
    Relation,
    apply_scalar_function,
    eigendecompose,
    loewner_leq,
    positive_part,
    spectral_bounds,
)
from .functions import (
    FunctionDescriptor,
    InterpolationConstants,
    Interval,
    check_logconvex_chain,
    check_superquadratic_characterization,
    check_superquadratic_definition,
    constant_function,
    exp_function,
    interpolation_constants,
    kf_constant,
    parse_function_spec,
    power_function,
    r_alpha,
    tilde_t,
)
from .maps import (
    CompressionMap,
    IdentityMap,
    MapFamily,
    MixedUnitaryMap,
    PinchingMap,
    PositiveUnitalMap,
    ScaledMap,
    sample_map,
    sample_map_family,
    verify_unital,
)
from .instances import (
    MercerInstance,
    MidpointInstance,
    MultiQuadrupleInstance,
    QuadrupleInstance,
    SumRelation,
    instance_from_dict,
    sample_mercer_family,
    sample_midpoint,
    sample_quadruple,
    sample_quadruple_family,
    sample_sandwiched_matrix,
    validate_instance,
)
from .chains import (
    THEOREMS,
    ChainReport,
    ExpressionChain,
    LinkReport,
    baseline_chain,
    build_chain,
    evaluate_chain,
    hunt_counterexample,
    resolve_theorem,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    CellResult,
    emit_report,
    run_campaign,
)
