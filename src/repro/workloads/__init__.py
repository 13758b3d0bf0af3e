"""Synthetic SPEC95-analog workloads and the parametric generator."""

from importlib import import_module
from typing import Any, List

#: Each re-exported name -> the submodule that defines it, imported on
#: first use (:func:`__getattr__`): the suite loads without the generator.
_EXPORTS = {
    **dict.fromkeys(("GeneratorConfig", "generate_program", "generate_source"), ".generator"),
    **dict.fromkeys(("DEFAULT_ITERS", "FP_KERNELS", "INTEGER_KERNELS", "KERNELS"), ".kernels"),
    **dict.fromkeys(("RELOCATION_STRIDE", "WorkloadSuite"), ".suite"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
