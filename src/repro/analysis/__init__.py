"""Measurement, aggregation, and reporting utilities."""

from .metrics import Evaluation, evaluate
from .report import (
    REPORT_KINDS,
    Report,
    register_report,
    report_from_json,
    report_to_json,
)
from .stats import Summary, geometric_mean, summarize
from .tables import Table

__all__ = [
    "Evaluation",
    "evaluate",
    "Summary",
    "summarize",
    "geometric_mean",
    "Table",
    "Report",
    "REPORT_KINDS",
    "register_report",
    "report_to_json",
    "report_from_json",
]
