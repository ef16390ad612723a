"""Experiment harness regenerating every table and figure of the paper."""

from . import figures
from .report import format_rows, format_speedup_sweep, format_table

__all__ = [
    "figures",
    "format_table",
    "format_rows",
    "format_speedup_sweep",
]
