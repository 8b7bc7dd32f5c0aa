"""Exact computations around Bernstein-Sato ideals of polynomial collections."""

from .polynomials import MPoly, PolyParseError, format_poly, parse_poly, s_names
from .weyl import (
    GermContext,
    GermElement,
    WeylOperator,
    apply,
    format_operator,
    partial_derivative,
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
from .hyperplanes import Hyperplane, check_translation_union, extract_hyperplanes
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
    TorusCoset,
    check_axis_union,
    cosets_of_character,
    exp_image,
    union_equal,
)

__version__ = "0.1.0"
