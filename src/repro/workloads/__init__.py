"""Synthetic SPEC95-analog workloads and the parametric generator."""

from .generator import GeneratorConfig, generate_program, generate_source
from .kernels import (
    DEFAULT_ITERS,
    FP_KERNELS,
    INTEGER_KERNELS,
    KERNELS,
)
from .suite import RELOCATION_STRIDE, WorkloadSuite

__all__ = [
    "GeneratorConfig",
    "generate_program",
    "generate_source",
    "DEFAULT_ITERS",
    "FP_KERNELS",
    "INTEGER_KERNELS",
    "KERNELS",
    "RELOCATION_STRIDE",
    "WorkloadSuite",
]
