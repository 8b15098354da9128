"""Experiment runners and reporting for the paper's figures.

One function per table/figure of the evaluation; each returns plain
data rows (and can render an ASCII table) so the pytest-benchmark
harnesses and the examples share the same code paths.
"""

from repro.analysis.report import format_table, summarize
from repro.analysis.experiments import (
    fig1_median_cdfs,
    fig1_observation_curves,
    fig4_empirical_detection,
    fig5_file_download,
    fig6_nfs,
    fig7_parsec,
    fig8_noise_comparison,
    placement_utilization,
    delta_offset_translation,
    aggregation_ablation,
    delta_n_ablation,
    epoch_resync_ablation,
    PARSEC_PAPER_VALUES,
)
from repro.analysis.scale import (
    build_scale_spec,
    run_scale_cell,
    scale_sweep,
)

__all__ = [
    "format_table",
    "summarize",
    "fig1_median_cdfs",
    "fig1_observation_curves",
    "fig4_empirical_detection",
    "fig5_file_download",
    "fig6_nfs",
    "fig7_parsec",
    "fig8_noise_comparison",
    "placement_utilization",
    "delta_offset_translation",
    "aggregation_ablation",
    "delta_n_ablation",
    "epoch_resync_ablation",
    "PARSEC_PAPER_VALUES",
    "build_scale_spec",
    "run_scale_cell",
    "scale_sweep",
]
