"""Exact-arithmetic toolkit for Lawrence toric and hypertoric stack models.

From an integer weight matrix and a character this package builds GIT stack
models, enumerates their inertia sectors, computes integral sector rings and
orbifold star products degreewise on reduced Hermite bases of their relation
lattices, and machine-checks the strong-embedding and orbifold-ring
comparison statements on desk-scale instances.  All arithmetic is exact (ints and Fractions); nothing here ever
touches floating point.
"""

from .characters import CharacterClass
from .chow import (
    GradedClass,
    GradedPiece,
    GradedRingPresentation,
    GysinError,
    IsoReport,
    SectorEmbedding,
    graded_group,
    gysin_push,
    is_zero_class,
    presentation,
    reduce_class,
    ring_map_is_iso,
)
from .exact import (
    IntMatrix,
    SnfResult,
    as_fraction_vector,
    cokernel_torsion_elements,
    snf,
    solve_rational,
)
from .inertia import (
    DoubleInertiaComponent,
    InertiaComponent,
    TorsionElement,
    age,
    double_inertia,
    fixed_columns,
    fractional,
    inertia_components,
    inertia_elements,
    sector_model,
    stabilizer_elements,
)
from .model import (
    GenericReport,
    ModelError,
    NonGenericError,
    SigmaSet,
    StableArrangement,
    StackModel,
    WeightMatrix,
    check_generic,
    column_bases,
    direct_model,
    hypertoric_model,
    lambda_coeffs,
    lawrence_double,
    lawrence_model,
    minimal_unstable_sets,
    model_from_dict,
    moment_eval,
    sigma_set,
)
from .orbifold import (
    ObstructionError,
    ObstructionPullbackReport,
    OrbifoldIsoReport,
    SectorGeometry,
    euler_poly,
    log_trace,
    obstruction,
    orbifold_table,
    star,
    verify_obstruction_pullback,
    verify_orbifold_iso,
)
from .poly import IntPoly, format_poly, monomials_of_degree
from .sampling import random_generic_character, random_generic_instance, random_weight_matrix
from .verifiers import (
    ChartInstance,
    ChartReport,
    LocalModelSRE,
    build_chart,
    chart_forward,
    chart_inverse,
    hypertoric_normal_data,
    random_rational_point,
    sre_condition_iii,
    verify_charts,
)

__version__ = "0.1.0"
