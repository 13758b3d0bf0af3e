"""Per-stage bandwidth utilization tracking.

The paper's central argument is a *bandwidth* argument: recycling
"increases the raw bandwidth into the processor by merging recycled
instructions with fetched instructions".  These counters make that
measurable: for each cycle we record how many fetch, rename (split into
fetched vs recycled), issue and commit slots were actually used, and
report utilization against the machine's widths plus full histograms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class StageUtilization:
    """Slot usage for one pipeline stage."""

    width: int
    cycles: int = 0
    slots_used: int = 0
    histogram: Counter = field(default_factory=Counter)

    def record(self, used: int) -> None:
        self.cycles += 1
        self.slots_used += used
        self.histogram[used] += 1

    @property
    def average(self) -> float:
        return self.slots_used / self.cycles if self.cycles else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of available slots used (0..1)."""
        if not self.cycles or not self.width:
            return 0.0
        return self.slots_used / (self.cycles * self.width)

    @property
    def idle_fraction(self) -> float:
        """Fraction of cycles with zero slots used."""
        if not self.cycles:
            return 0.0
        return self.histogram.get(0, 0) / self.cycles

    def summary(self, name: str) -> str:
        return (
            f"{name:<8s} avg {self.average:5.2f}/{self.width:<2d} "
            f"({100 * self.utilization:5.1f}%), idle {100 * self.idle_fraction:5.1f}%"
        )


@dataclass
class UtilizationStats:
    """Bandwidth accounting across the machine's stages."""

    fetch: StageUtilization
    rename: StageUtilization
    issue: StageUtilization
    commit: StageUtilization
    #: Rename slots filled by the recycle datapath, per cycle.
    recycled_rename: StageUtilization

    @staticmethod
    def for_machine(fetch_total: int, rename_width: int, issue_width: int,
                    commit_width: int) -> "UtilizationStats":
        return UtilizationStats(
            fetch=StageUtilization(fetch_total),
            rename=StageUtilization(rename_width),
            issue=StageUtilization(issue_width),
            commit=StageUtilization(commit_width),
            recycled_rename=StageUtilization(rename_width),
        )

    def record_cycle(self, fetched: int, renamed: int, recycled: int,
                     issued: int, committed: int) -> None:
        # Inline of StageUtilization.record ×5 — this runs once per
        # simulated cycle and the call (and tuple) fan-out was measurable.
        stage = self.fetch
        stage.cycles += 1
        stage.slots_used += fetched
        stage.histogram[fetched] += 1
        stage = self.rename
        stage.cycles += 1
        stage.slots_used += renamed
        stage.histogram[renamed] += 1
        stage = self.recycled_rename
        stage.cycles += 1
        stage.slots_used += recycled
        stage.histogram[recycled] += 1
        stage = self.issue
        stage.cycles += 1
        stage.slots_used += issued
        stage.histogram[issued] += 1
        stage = self.commit
        stage.cycles += 1
        stage.slots_used += committed
        stage.histogram[committed] += 1

    @property
    def rename_fill_from_recycling(self) -> float:
        """Share of used rename slots supplied by recycling (0..1)."""
        if not self.rename.slots_used:
            return 0.0
        return self.recycled_rename.slots_used / self.rename.slots_used

    def summary(self) -> str:
        lines = [
            self.fetch.summary("fetch"),
            self.rename.summary("rename"),
            self.issue.summary("issue"),
            self.commit.summary("commit"),
            (
                f"recycle supplied {100 * self.rename_fill_from_recycling:5.1f}% "
                f"of used rename slots"
            ),
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        def stage(s: StageUtilization) -> Dict:
            return {
                "width": s.width,
                "average": s.average,
                "utilization": s.utilization,
                "idle_fraction": s.idle_fraction,
            }

        return {
            "fetch": stage(self.fetch),
            "rename": stage(self.rename),
            "issue": stage(self.issue),
            "commit": stage(self.commit),
            "rename_fill_from_recycling": self.rename_fill_from_recycling,
        }
