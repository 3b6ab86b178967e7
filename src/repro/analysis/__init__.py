"""Experiment drivers: one function per paper table/figure.

Each driver returns plain data (lists of dataclasses/dicts) and offers a
``render_*`` companion producing the ASCII table ``repro <target>`` prints.
Live simulator runs supply correctness and recovery behaviour; the paper's
own analytic models (section 4) supply paper-scale performance numbers, as
documented in DESIGN.md's substitution table.
"""

from repro.analysis.experiments import (
    fig6_available_memory,
    fig7_model_fit,
    fig8_top10_projection,
    fig10_restart_cycle,
    fig11_skt_efficiency,
    fig12_memory_vs_efficiency,
    fig13_encoding_cost,
    table1_memory_breakdown,
    table3_method_comparison,
)
from repro.analysis.apps_overhead import apps_overhead
from repro.analysis.ablations import (
    ablation_double_parity,
    ablation_group_size,
    ablation_incremental,
    ablation_interval,
    ablation_encoding_op,
    ablation_rack_mapping,
    ablation_stripe_vs_single_root,
)

__all__ = [
    "fig6_available_memory",
    "fig7_model_fit",
    "fig8_top10_projection",
    "fig10_restart_cycle",
    "fig11_skt_efficiency",
    "fig12_memory_vs_efficiency",
    "fig13_encoding_cost",
    "table1_memory_breakdown",
    "table3_method_comparison",
    "apps_overhead",
    "ablation_double_parity",
    "ablation_group_size",
    "ablation_incremental",
    "ablation_interval",
    "ablation_rack_mapping",
    "ablation_encoding_op",
    "ablation_stripe_vs_single_root",
]
