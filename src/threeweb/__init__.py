"""Differential invariants and classification of four-dimensional three-webs.

A three-web W(3,2,2) is given by two smooth functions u^1, u^2 of four
variables x^1, x^2, y^1, y^2 with nondegenerate Jacobian blocks; the three
foliations are x = const, y = const, u(x, y) = const.  This package computes
the torsion and curvature tensors of the Chern connection, the derived
invariants that govern hexagonality, the Bol and group properties, and
transversal geometry, and sorts a web into the classification lattice those
invariants define.
"""

from .expr import ParseError, EvalError, Web, parse_web, format_web
from .jet import jet_lift
from .tensor import (
    TensorSnapshot,
    DegenerateWeb,
    InadmissiblePoint,
    snapshot,
)
from .classify import (
    RunConfig,
    IdentityVerdict,
    ClassificationReport,
    SamplerExhausted,
    classify_web,
    classify_generic,
)
from .corpus import (
    CorpusEntry,
    GoldenRecord,
    GoldenResult,
    load_corpus,
    load_example,
    golden_check,
)

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "EvalError",
    "Web",
    "parse_web",
    "format_web",
    "jet_lift",
    "TensorSnapshot",
    "DegenerateWeb",
    "InadmissiblePoint",
    "snapshot",
    "RunConfig",
    "IdentityVerdict",
    "ClassificationReport",
    "SamplerExhausted",
    "classify_web",
    "classify_generic",
    "CorpusEntry",
    "GoldenRecord",
    "GoldenResult",
    "load_corpus",
    "load_example",
    "golden_check",
    "__version__",
]
