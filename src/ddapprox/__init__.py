"""Edge-weighted decision diagrams for pure quantum states, plus lossy
approximation schemes that trade fidelity for diagram size."""

from .analysis import (
    VisitCounts,
    contributions,
    nodes_by_level,
    sample_paths,
)
from .approx import (
    ApproxReport,
    PerLevelFidelity,
    Sampling,
    Scheme,
    TargetFidelity,
    Threshold,
    apply_scheme,
    approx_per_level,
    approx_sampling,
    approx_target_fidelity,
    approx_threshold,
    eliminate,
)
from .circuits import Circuit, Gate, ghz, parse, qft, random_circuit, simulate
from .complex_table import DEFAULT_TOL, ComplexTable, ComplexValue, sqr_mag
from .dd import TERMINAL, DDPackage, Edge, Node, StateDD
from .errors import (
    CircuitParseError,
    DDError,
    NumericDomainError,
    SizeLimitError,
    ZeroStateError,
)
from .fidelity import fidelity, inner_product

__version__ = "0.1.0"

__all__ = [
    "ApproxReport",
    "Circuit",
    "CircuitParseError",
    "ComplexTable",
    "ComplexValue",
    "DDError",
    "DDPackage",
    "DEFAULT_TOL",
    "Edge",
    "Gate",
    "Node",
    "NumericDomainError",
    "PerLevelFidelity",
    "Sampling",
    "Scheme",
    "SizeLimitError",
    "StateDD",
    "TERMINAL",
    "TargetFidelity",
    "Threshold",
    "VisitCounts",
    "ZeroStateError",
    "apply_scheme",
    "approx_per_level",
    "approx_sampling",
    "approx_target_fidelity",
    "approx_threshold",
    "contributions",
    "eliminate",
    "fidelity",
    "ghz",
    "inner_product",
    "nodes_by_level",
    "parse",
    "qft",
    "random_circuit",
    "sample_paths",
    "simulate",
    "sqr_mag",
]
