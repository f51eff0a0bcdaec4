"""Laboratory for exact group-ring algebra, p-summable chain complexes on
finite balls, and numerical vanishing experiments over a small group catalog.

The exact modules load with the package.  The float names of ``lp_complex``
and ``vanishing`` resolve on first use (PEP 562), so exact work never loads
numpy or scipy; they are looked up afresh on every access, never stored here.
"""

from .groups import (
    BallCapError,
    DEFAULT_BALL_CAP,
    Group,
    GroupElement,
    InvariantViolation,
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
    cyclic_infinite_resolution,
    fox_derivative,
    fox_partial_resolution,
    lattice_resolution,
    periodic_cyclic_resolution,
    relator_words,
    resolution_from_name,
    validate,
)
from .homotopy import (
    EquivariantCochain,
    ResidualForm,
    ResidualReport,
    class_sum_homotopy_residual,
    coboundary,
    homotopy_residual,
    multiplier_homotopy,
    random_cochain,
    zero_cochain,
)

_FLOAT_EXPORTS = {
    **dict.fromkeys((
        "BoundaryOperator",
        "TruncatedSpace",
        "Vector",
        "assemble_boundary",
        "conjugate_exponent",
        "delta_chain",
        "dual_boundary",
        "embed",
        "export_matrix_coordinate",
        "export_vector_csv",
        "lp_norm",
        "pairing",
        "translate",
        "translate_ring",
        "vector_from_ring_parts",
    ), "lp_complex"),
    **dict.fromkeys((
        "CentralSequence",
        "CurveRow",
        "DecayCurve",
        "FiniteIndexReport",
        "MinimizationResult",
        "boundary_distance_curve",
        "central_catalog",
        "finite_group_homology_ranks",
        "finite_index_compare",
        "lp_distance",
        "translation_pairing_decay",
    ), "vanishing"),
}


def __getattr__(name: str):
    from importlib import import_module

    module = _FLOAT_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_FLOAT_EXPORTS})


__version__ = "0.1.0"
