"""The paper's experiments: one module per table/figure of its evaluation.

Each module declares itself as an
:class:`~repro.experiments.common.ExperimentDefinition` — name, grid builder,
metric extractor, the paper's expected values with tolerances, and a render
hook — collected here into :data:`REGISTRY`.  One generic runner
(:func:`~repro.experiments.common.run_experiments`) executes any subset: the
grids are merged into a deduplicated super-spec, resolved in a single sweep
batch, and every summary metric is checked against the paper.

| Module | Reproduces |
|---|---|
| ``table1_comparison`` | Table 1 — approach comparison |
| ``table2_config`` | Table 2 — simulated processor configuration |
| ``fig5_pointer_identification`` | Figure 5 — pointer-op classification |
| ``fig7_runtime_overhead`` | Figure 7 — runtime overhead (+ §9.3 ideal-shadow ablation) |
| ``fig8_uop_overhead`` | Figure 8 — µop overhead breakdown |
| ``fig9_lock_cache`` | Figure 9 — lock location cache ablation |
| ``fig10_memory_overhead`` | Figure 10 — shadow memory overhead (words / pages) |
| ``fig11_bounds_checking`` | Figure 11 — bounds-checking configurations |
| ``sec92_juliet`` | §9.2 — Juliet CWE-416/562 detection |
| ``ablations`` | extra ablations (copy elimination, ideal shadow) |
| ``mix_overhead`` | multi-core mixes — overhead & lock-cache contention |
"""

from typing import Dict

from repro.experiments import (
    ablations,
    fig5_pointer_identification,
    fig7_runtime_overhead,
    fig8_uop_overhead,
    fig9_lock_cache,
    fig10_memory_overhead,
    fig11_bounds_checking,
    mix_overhead,
    sec92_juliet,
    table1_comparison,
    table2_config,
)
from repro.experiments.common import (
    ExperimentDefinition,
    ExperimentSettings,
    ExperimentSpec,
    run_experiments,
)

#: Every registered experiment, in the order ``repro run --all`` executes
#: them: the grid experiments first (they share one merged sweep batch),
#: then the standalone tables and the Juliet suite.
REGISTRY: Dict[str, ExperimentDefinition] = {
    definition.name: definition
    for definition in (
        fig5_pointer_identification.DEFINITION,
        fig7_runtime_overhead.DEFINITION,
        fig8_uop_overhead.DEFINITION,
        fig9_lock_cache.DEFINITION,
        fig10_memory_overhead.DEFINITION,
        fig11_bounds_checking.DEFINITION,
        mix_overhead.DEFINITION,
        ablations.DEFINITION,
        table1_comparison.DEFINITION,
        table2_config.DEFINITION,
        sec92_juliet.DEFINITION,
    )
}


def get_definition(name: str) -> ExperimentDefinition:
    """Look up a registered experiment by CLI name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"known: {', '.join(REGISTRY)}") from None


__all__ = [
    "ExperimentDefinition",
    "ExperimentSettings",
    "ExperimentSpec",
    "REGISTRY",
    "get_definition",
    "run_experiments",
    "ablations",
    "fig5_pointer_identification",
    "fig7_runtime_overhead",
    "fig8_uop_overhead",
    "fig9_lock_cache",
    "fig10_memory_overhead",
    "fig11_bounds_checking",
    "mix_overhead",
    "sec92_juliet",
    "table1_comparison",
    "table2_config",
]
