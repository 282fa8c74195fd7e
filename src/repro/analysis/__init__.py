"""Result containers, ASCII plotting, and the closed-form models."""

from repro.analysis.model import predict_bandwidth, predict_create_time
from repro.analysis.plots import ascii_chart
from repro.analysis.results import Series, format_table

__all__ = [
    "Series",
    "format_table",
    "ascii_chart",
    "predict_bandwidth",
    "predict_create_time",
]
