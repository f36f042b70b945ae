"""Analysis helpers: metric aggregation and table rendering."""

from repro.analysis.aggregate import (
    CellAggregate,
    aggregate_cells,
    mean_ci,
)
from repro.analysis.connectivity import (
    connected_pairs,
    max_clean_spacing,
    prr_matrix,
    received_power_matrix,
    snr_matrix,
)
from repro.analysis.energy import (
    EnergyReport,
    energy_report,
    tx_current_ma,
)
from repro.analysis.metrics import (
    SeriesSummary,
    packets_between,
    summarize,
)
from repro.analysis.tables import render_kv, render_series, render_table

__all__ = [
    "CellAggregate",
    "aggregate_cells",
    "mean_ci",
    "received_power_matrix",
    "snr_matrix",
    "prr_matrix",
    "connected_pairs",
    "max_clean_spacing",
    "EnergyReport",
    "energy_report",
    "tx_current_ma",
    "SeriesSummary",
    "summarize",
    "packets_between",
    "render_table",
    "render_series",
    "render_kv",
]
