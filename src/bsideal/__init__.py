"""Exact computations around Bernstein-Sato ideals of polynomial collections."""

from .polynomials import MPoly, PolyParseError, format_poly, parse_poly, s_names
from .weyl import (
    GermContext,
    GermElement,
    WeylOperator,
    apply,
    format_operator,
    normal_order,
    partial_derivative,
    specialize_integer,
)
from .solver import (
    BSCertificate,
    InvertibleTwistError,
    SolveBounds,
    SolveCapExceeded,
    SolverError,
    find_bs_pair,
    sample_ideal,
    verify,
)
from .hyperplanes import (
    Hyperplane,
    StructureReport,
    check_translation_union,
    extract_hyperplanes,
    structure_report,
)
from .snc import (
    EmptySupportError,
    GraphComponent,
    MonZeta,
    ResolutionGraph,
    graph_from_exponents,
    mon_zeta,
    reweight,
    sabbah_specialize,
    slope_set,
    snc_b_element,
    snc_certificate,
    support_components,
    support_loci,
)
from .torus import (
    InconsistentBindingError,
    TorusCoset,
    UnsupportedCodimensionError,
    check_axis_union,
    cosets_of_character,
    exp_image,
    union_equal,
)

__version__ = "0.1.0"
