"""Finite workbench for abstract logics and their dual topological spaces.

A logic here is an expression set with a family of theories closed
under non-empty intersections.  The package classifies connectives
against prime theories, builds the prime-theory spectrum as a finite
space, recovers a logic from a space's basic opens, and verifies on
concrete instances that the two directions compose to isomorphisms.
"""

from .builders import (
    FiniteLattice,
    FinitePoset,
    POSET_ENUMERATION_BOUND,
    UPSET_BOUND,
    enumerate_posets,
    frame_godel_witness,
    godel_witness,
    heyting_from_upsets,
    is_strongly_connected,
    logic_from_lattice_filters,
)
from .connectives import (
    ClassificationReport,
    ConditionCheck,
    DegeneratePrimeReport,
    check_degenerate_primes,
    prime_extension,
    verify_connectives,
)
from .core import (
    AbstractLogic,
    ConnectiveTables,
    TheoryFamily,
    TheorySpectrum,
    close_under_intersection,
    consequence,
    set_key,
    sorted_sets,
    theory_spectrum,
)
from .corpus import (
    CriterionResult,
    corpus_frames,
    corpus_logics,
    corpus_spaces,
    degenerate_quartet,
    l3,
    l22,
    lv3,
    run_all,
    sierpinski,
    v_frame,
)
from .documents import Document, emit_document, parse_document
from .dot import export_dot
from .duality import (
    DisjunctionCheck,
    DualityReport,
    LogicMap,
    MapAnalysis,
    PointMap,
    SpectrumPresentation,
    analyze_logic_map,
    basic_open_embedding,
    dual_logic_map,
    dual_point_map,
    is_spectral_map,
    logic_space,
    point_filter_embedding,
    roundtrip_logic,
    roundtrip_space,
    space_logic,
    stable_iff_disjunction,
)
from .errors import (
    BoundExceeded,
    ParseError,
    SchemaError,
    WorkbenchError,
)
from .topology import (
    FiniteSpace,
    SpaceReport,
    analyze_space,
    closure,
    constructible_topology,
    generic_point,
    has_implication,
    irreducible_closed_sets,
    is_distributive_space,
    is_heyting_basis,
    opens,
    point_filter,
    prime_filters_on_basis,
)

__version__ = "0.1.0"
