"""Numerical univalence criteria and constructors for planar harmonic mappings.

A harmonic mapping of the unit disk decomposes as ``f = h + conj(g)`` with
analytic parts h and g.  This package evaluates such maps and their Wirtinger
data, scans sufficient univalence criteria on grids, realizes the positive
real part (Herglotz) structural machinery, computes distortion-based
perturbation budgets, manufactures new univalent maps by bounded
perturbation, and brute-force checks everything with independent oracles.

See the README for the command-line interface (`harmonicmaps`).
"""

from .construct import (
    AffineParams,
    ConstructionResult,
    Perturbation,
    budget_audit,
    conjugate_z_perturbation,
    construct,
    epsilon_budget,
    estimate_A,
    estimate_m,
    normalize,
    undo_normalize,
)
from .criteria import (
    CheckReport,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    check_theoremB,
)
from .distortion import (
    OrderParam,
    c_of_r,
    check_pairwise_bound,
    psi,
    sheil_small_lower,
    star_inequality_check,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    GalleryLookupError,
    HarmonicMapsError,
    InapplicableError,
    InversionError,
    SingularDerivativeError,
)
from .gallery import get as gallery_get, list_entries as gallery_list
from .herglotz import (
    DiscreteMeasure,
    StructuralParams,
    big_phi_function,
    build_phi,
    herglotz_p,
    inverse_wirtinger,
    invert,
    structural_phi_prime,
    verify_structural_identity,
)
from .mappings import (
    AnalyticFunction,
    GridSpec,
    HarmonicMap,
    WirtingerFunction,
    DEFAULT_GRID,
    analytic_wirtinger,
    composed_wirtinger,
    constant_function,
    dilatation,
    eval_map,
    from_series,
    identity_function,
    jacobian,
    linear_wirtinger,
)
from .oracle import (
    curve_simplicity,
    injectivity_scan,
    jacobian_positivity_scan,
    sunflower_points,
)
from .render import svg_document

__version__ = "0.1.0"

__all__ = [
    "AffineParams",
    "AnalyticFunction",
    "BudgetExceededError",
    "CheckReport",
    "ConstructionResult",
    "DEFAULT_GRID",
    "DiscreteMeasure",
    "DomainError",
    "GalleryLookupError",
    "GridSpec",
    "HarmonicMap",
    "HarmonicMapsError",
    "InapplicableError",
    "InversionError",
    "OrderParam",
    "Perturbation",
    "SingularDerivativeError",
    "StructuralParams",
    "VERDICT_HOLDS",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_VIOLATED",
    "WirtingerFunction",
    "analytic_wirtinger",
    "big_phi_function",
    "budget_audit",
    "build_phi",
    "c_of_r",
    "check_corollary1",
    "check_pairwise_bound",
    "check_philike",
    "check_theorem1",
    "check_theoremA",
    "check_theoremB",
    "composed_wirtinger",
    "conjugate_z_perturbation",
    "constant_function",
    "construct",
    "curve_simplicity",
    "dilatation",
    "epsilon_budget",
    "estimate_A",
    "estimate_m",
    "eval_map",
    "from_series",
    "gallery_get",
    "gallery_list",
    "herglotz_p",
    "identity_function",
    "injectivity_scan",
    "inverse_wirtinger",
    "invert",
    "jacobian",
    "jacobian_positivity_scan",
    "linear_wirtinger",
    "normalize",
    "psi",
    "sheil_small_lower",
    "star_inequality_check",
    "structural_phi_prime",
    "sunflower_points",
    "svg_document",
    "undo_normalize",
    "verify_structural_identity",
]
