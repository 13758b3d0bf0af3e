"""Experiment layer: run specs, results, and the paper's figure/table registry."""

from importlib import import_module
from typing import Any, List

#: Each re-exported name -> the submodule that defines it, imported on
#: first use (:func:`__getattr__`): running one spec loads ``runner``
#: without the figure drivers or the sweep.
_EXPORTS = {
    **dict.fromkeys(
        ("CAMPAIGNS", "EXPERIMENTS", "TABLE1_COLUMNS", "MACHINES", "POLICIES", "VARIANTS",
         "WIDTHS", "ablation_confidence", "format_ablation_confidence", "figure3", "figure4",
         "figure5", "figure6", "format_figure3", "format_figure4", "format_figure5",
         "format_figure6", "format_table1", "table1"),
        ".experiments",
    ),
    **dict.fromkeys(("Sweep", "SweepRow"), ".sweep"),
    **dict.fromkeys(
        ("DEFAULT_COMMIT_TARGET", "RunResult", "RunSpec", "average_ipc", "run_matrix",
         "run_spec"),
        ".runner",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
