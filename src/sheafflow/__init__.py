"""Diffusion on network sheaves valued in quantale-weighted lattices.

The package builds up from quantales (complete residuated lattices) through
quantale-enriched categories, weighted limits and colimits, graded
adjunctions, and fixed-point theory, to network sheaves whose transport
maps are adjoint pairs and whose harmonic flow settles onto global
sections.  Application drivers cover timed event synchronization, shortest
paths, and preference diffusion.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    FinitePowersetQuantale,
    LawvereRealsQuantale,
    Quantale,
    QuantaleError,
    UnitIntervalQuantale,
    check_quantale_laws,
    from_descriptor,
)
from .qcat import (
    FiniteQCategory,
    NotEnumerableError,
    OppositeCategory,
    PresheafPower,
    ProductCategory,
    QCategory,
    QCategoryError,
    QFunctor,
    UnderlineQ,
    functor_defect,
    is_functor,
    skeleton,
    validate_category,
)
from .wlattice import (
    AnalyticLattice,
    AnalyticOps,
    EnumerableLattice,
    NoSuchObject,
    WeightedDiagram,
    WeightedLattice,
    lattice_for,
)
from .adjunction import (
    adjunction_defect,
    check_colim_inequality,
    check_unit_counit,
    perturbed_adjunction,
    synthesize_right_adjoint,
)
from .fixpoint import FixpointQuery, prefix_points, stable_points, suffix_points, verify_tarski
from .sheaf import (
    FlowStep,
    FlowTrace,
    Graph,
    NetworkSheaf,
    SheafError,
    Weighting,
    check_projection_property,
    check_suffix_section_lemmas,
    constant_sheaf,
    flow_step,
    global_sections,
    harmonic_flow,
    is_fuzzy_global_section,
    laplacian,
)
from .report import LawReport, Violation

__all__ = [
    "__version__",
    "Quantale", "QuantaleError", "BooleanQuantale", "UnitIntervalQuantale",
    "LawvereRealsQuantale", "FiniteChainQuantale", "FinitePowersetQuantale",
    "check_quantale_laws", "from_descriptor",
    "QCategory", "QCategoryError", "NotEnumerableError", "FiniteQCategory",
    "UnderlineQ", "OppositeCategory", "ProductCategory", "PresheafPower",
    "QFunctor", "functor_defect", "is_functor", "skeleton", "validate_category",
    "WeightedDiagram", "WeightedLattice", "EnumerableLattice", "AnalyticLattice",
    "AnalyticOps", "NoSuchObject", "lattice_for",
    "adjunction_defect", "check_unit_counit", "perturbed_adjunction",
    "check_colim_inequality", "synthesize_right_adjoint",
    "FixpointQuery", "suffix_points", "prefix_points", "stable_points", "verify_tarski",
    "Graph", "Weighting", "NetworkSheaf", "SheafError", "FlowStep", "FlowTrace", "constant_sheaf",
    "flow_step", "laplacian", "harmonic_flow", "is_fuzzy_global_section",
    "global_sections", "check_suffix_section_lemmas", "check_projection_property",
    "LawReport", "Violation",
]
