"""Laboratory for exact group-ring algebra, truncated p-summable chain
complexes, and numerical vanishing experiments over a small group catalog."""

from .groups import (
    BallCapError,
    DEFAULT_BALL_CAP,
    Group,
    GroupElement,
    group_from_name,
)
from .group_ring import (
    RingElement,
    class_sum,
    conjugacy_class,
    format_ring_element,
    parse_ring_element,
)
from .resolutions import (
    Resolution,
    ValidationReport,
    bar_resolution_basis,
    cyclic_infinite_resolution,
    fox_derivative,
    fox_partial_resolution,
    lattice_resolution,
    periodic_cyclic_resolution,
    relator_words,
    resolution_from_name,
    validate,
)
from .lp_complex import (
    BoundaryOperator,
    TruncatedSpace,
    Vector,
    annihilator_residual,
    assemble_boundary,
    conjugate_exponent,
    delta_chain,
    dual_boundary,
    embed,
    export_matrix_coordinate,
    export_vector_csv,
    lp_norm,
    pairing,
    translate,
    translate_ring,
    vector_from_ring_parts,
)
from .homotopy import (
    EquivariantCochain,
    ResidualForm,
    ResidualReport,
    WindowUnderflowError,
    class_sum_homotopy_residual,
    coboundary,
    homotopy_residual,
    multiplier_homotopy,
    random_cochain,
    zero_cochain,
)
from .vanishing import (
    CentralSequence,
    CurveRow,
    DecayCurve,
    FiniteIndexReport,
    InvariantViolation,
    MinimizationResult,
    boundary_distance_curve,
    central_catalog,
    finite_group_homology_ranks,
    finite_index_compare,
    lp_distance,
    translation_pairing_decay,
)

__version__ = "0.1.0"
