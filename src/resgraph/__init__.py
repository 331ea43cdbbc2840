"""Divisor class groups, l-adic homology profiles, and dualizing-complex
verdicts for resolution dual graphs of rational surface singularities.

All core arithmetic is exact (arbitrary-precision integers); twists on
l-adic modules are carried as bookkeeping tags.  See the ``cli`` module or
the ``resgraph`` entry point for the command-line interface.
"""

__version__ = "0.1.0"

from .classgrp import ThetaMatrix, class_group, class_group_ell, theta_matrix
from .curvehom import (
    CurveProfile,
    curve_profile,
    deg_surjectivity,
    mv_profile,
)
from .dualgraph import (
    DualGraph,
    Edge,
    ValidationReport,
    Vertex,
    catalog_names,
    gen_ade,
    gen_hj,
    graph_from_obj,
    graph_to_obj,
    hj_expansion,
    intersection_matrix,
    load_catalog_graph,
    load_graph,
    parse_graph,
    resolve_graph,
    serialize_graph,
    validate,
)
from .dualizing import (
    DualizingReport,
    SingularPoint,
    SurfaceSpec,
    dualizing_report,
    parse_surface,
    surface_from_obj,
)
from .errors import (
    DivisibilityViolationError,
    EllNotCoprimeError,
    EmptyInputError,
    GraphFormatError,
    NonSquareError,
    NonSymmetricError,
    NotAForestError,
    NotConnectedError,
    NotCoprimeError,
    NotNegativeDefiniteError,
    ResgraphError,
    UnsupportedIndexError,
    ValidationFailedError,
)
from .exactlat import (
    FgAbGroup,
    IntMatrix,
    LModule,
    LSummand,
    SmithForm,
    cokernel,
    ell_primary,
    is_negative_definite,
    is_prime,
    smith_normal_form,
)
from .perversity import (
    DELTA_PRESETS,
    PerversityVerdict,
    StratumProfile,
    check_perverse,
    parse_strata,
    strata_from_obj,
    weight_of_cohomology,
)
from .surfhom import (
    GeneralCurveInput,
    HomologyProfile,
    local_homology_general,
    local_homology_rational,
)
