"""Numerics for representations of the modular group into the isometry
group of the space of unimodular positive definite symmetric 3x3 matrices:
coordinates and trace identities, the tr = -1 surface, Fuchsian
classification, and empirical Anosov diagnostics."""

from .anosov import (
    AnosovVerdict,
    GapReport,
    MidpointSequence,
    MorseFlatReport,
    PeripheralGrowthReport,
    StraightnessReport,
    TriangleReport,
    VerdictConfig,
    anosov_verdict,
    anosov_verdicts,
    cartan_gap_scan,
    midpoint_sequence,
    morse_flat_check,
    peripheral_growth,
    straightness_report,
    triangle_report,
)
from .charvar import (
    Coordinates,
    Representation,
    TraceReport,
    coords_from_rep,
    evaluate,
    fuchsian_classify,
    is_reducible,
    matrix_of,
    rep_from_coords,
    rep_from_point,
    schwartz_t,
    trace_b2aba_bound_check,
    trace_baba_closed_form,
    trace_symmetry_check,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    DegenerateTriangleError,
    DomainError,
    GeometryError,
    OppositionError,
    ParityError,
    PreconditionError,
    RegularityError,
)
from .flats import (
    Flag,
    Flat,
    ModelInterval,
    ParallelCoords,
    cartan_projection,
    chamber_angle,
    coords_from_point,
    distance_to_flat,
    flag_of_sector,
    flat_from_flags,
    iota,
    point_from_coords,
    project_to_parallel_set,
    segment_type,
    zeta_angle,
)
from .modgroup import (
    F2Word,
    ModWord,
    enumerate_f2,
    f2_to_mod,
    normalize,
    parity_abelianization,
    random_f2_geodesic,
)
from .symspace import (
    Isometry,
    Point,
    TangentVector,
    act,
    angle_at,
    classify_involution,
    compose,
    distance,
    exp_map,
    inversion_at,
    log_map,
    midpoint,
    spd_exp,
    spd_log,
)

__version__ = "0.1.0"
