"""Simulation statistics: IPC, the Table 1 counters and the slot counts
(fetched, renamed, renamed by recycling, committed) that measure the
paper's bandwidth argument."""

from .counters import SimStats
from .export import run_result_to_dict, stats_to_dict

__all__ = ["SimStats", "run_result_to_dict", "stats_to_dict"]
