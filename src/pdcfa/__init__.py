"""Pushdown control-flow, taint-flow, and least-permissions analysis for an
object-oriented register bytecode."""

__version__ = "0.1.0"

from .ir import MethodRef, ParseError, Program, parse_program  # noqa: F401
from .machine import AllocPolicy, Store, seed_entry_bindings  # noqa: F401
from .reach import AnalysisConfig, AnalysisResult, analyze  # noqa: F401
from .eps import discover_entry_points, saturate_app  # noqa: F401
from .taint import (SummaryTable, TaintStore, TaintVal,  # noqa: F401
                    extract_findings, load_summaries, parse_summaries)
from .permissions import build_permission_report, collect_permissions  # noqa: F401

__all__ = [
    "__version__", "AllocPolicy", "AnalysisConfig", "AnalysisResult",
    "MethodRef", "ParseError", "Program", "Store", "SummaryTable",
    "TaintStore", "TaintVal", "analyze", "build_permission_report",
    "collect_permissions", "discover_entry_points", "extract_findings",
    "load_summaries", "parse_program", "parse_summaries", "saturate_app",
    "seed_entry_bindings",
]
