"""Machine configuration: the four processor design points of the paper.

``MachineConfig`` describes the hardware (widths, units, queues,
contexts, memory); ``Features`` selects the architecture variant the
paper sweeps (SMT / TME / REC / RU / RS); ``RecyclePolicy`` is the
Figure-5 alternate-path fetch-limit policy.

The baseline is ``big.2.16``: a 16-wide, 8-context SMT/TME processor
fetching eight instructions from each of two threads per cycle, two
64-entry instruction queues, 12 integer + 6 FP units of which 8 can do
loads/stores, and a 9-stage pipeline with a minimum 7-cycle
misprediction penalty (Section 4.1).
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass, field

from ..branch.confidence import CONFIDENCE_KINDS
from ..memory.config import HierarchyConfig


class PolicyKind(enum.Enum):
    """What an alternate path does once its fork branch resolves correct.

    * ``STOP`` — stop fetching and executing immediately.
    * ``FETCH`` — keep fetching (up to the limit) but execute nothing new.
    * ``NOSTOP`` — keep fetching and executing up to the limit.
    """

    STOP = "stop"
    FETCH = "fetch"
    NOSTOP = "nostop"


@dataclass(frozen=True)
class RecyclePolicy:
    """Alternate/inactive path fetch-limit policy (Section 5.2).

    ``limit`` caps the *total* number of instructions an alternate path
    may ever fetch, active or inactive.
    """

    kind: PolicyKind = PolicyKind.NOSTOP
    limit: int = 32

    def __str__(self) -> str:
        return f"{self.kind.value}-{self.limit}"

    @staticmethod
    def parse(text: str) -> "RecyclePolicy":
        if not isinstance(text, str):
            raise TypeError(f"policy must be a string like 'stop-8', not {text!r}")
        kind, _, limit = text.partition("-")
        return RecyclePolicy(PolicyKind(kind), int(limit))


@dataclass(frozen=True)
class Features:
    """Architecture variant knobs, named as in Figures 3 and 4."""

    tme: bool = False  # fork low-confidence branches
    recycle: bool = False  # REC: merge-point recycling
    reuse: bool = False  # RU: bypass execution when operands unchanged
    respawn: bool = False  # RS: re-activate matching inactive traces

    def __post_init__(self) -> None:
        if self.recycle and not self.tme:
            raise ValueError("recycling requires TME")
        if (self.reuse or self.respawn) and not self.recycle:
            raise ValueError("reuse/respawn require recycling")

    @property
    def label(self) -> str:
        if not self.tme:
            return "SMT"
        if not self.recycle:
            return "TME"
        parts = ["REC"]
        if self.respawn:
            parts.append("RS")
        if self.reuse:
            parts.append("RU")
        return "/".join(parts)

    # The six configurations plotted in Figures 3 and 4.
    @staticmethod
    def smt() -> "Features":
        return Features()

    @staticmethod
    def tme_only() -> "Features":
        return Features(tme=True)

    @staticmethod
    def rec() -> "Features":
        return Features(tme=True, recycle=True)

    @staticmethod
    def rec_ru() -> "Features":
        return Features(tme=True, recycle=True, reuse=True)

    @staticmethod
    def rec_rs() -> "Features":
        return Features(tme=True, recycle=True, respawn=True)

    @staticmethod
    def rec_rs_ru() -> "Features":
        return Features(tme=True, recycle=True, reuse=True, respawn=True)

    @staticmethod
    def all_variants() -> "dict[str, Features]":
        variants = [
            Features.smt(),
            Features.tme_only(),
            Features.rec(),
            Features.rec_ru(),
            Features.rec_rs(),
            Features.rec_rs_ru(),
        ]
        return {f.label: f for f in variants}

    @staticmethod
    def from_label(label) -> "Features":
        """The variant named ``label``; ``ValueError`` for anything that
        is not one of the known labels, non-strings included."""
        variants = Features.all_variants()
        if isinstance(label, str) and label in variants:
            return variants[label]
        raise ValueError(f"unknown features {label!r}; know {sorted(variants)}")


@dataclass(frozen=True)
class MachineConfig:
    """One processor design point."""

    name: str = "big.2.16"
    num_contexts: int = 8
    # Fetch: up to ``fetch_threads`` threads, up to ``fetch_block`` sequential
    # instructions each, capped at ``fetch_total`` instructions per cycle.
    fetch_threads: int = 2
    fetch_block: int = 8
    fetch_total: int = 16
    rename_width: int = 16
    commit_width: int = 16
    int_queue_size: int = 64
    fp_queue_size: int = 64
    int_units: int = 12
    fp_units: int = 6
    ldst_ports: int = 8
    active_list_size: int = 64
    extra_phys_regs: int = 100  # beyond the contexts' logical registers
    regread_stages: int = 2  # issue → execute latency (9-stage pipe)
    decode_latency: int = 1
    spawn_latency: int = 1  # cycles before a spawned alternate may fetch
    btb_miss_redirect_penalty: int = 2
    decode_buffer_size: int = 32  # per context
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig.big)
    # Branch prediction (Section 4.1).
    pht_entries: int = 2048
    btb_entries: int = 256
    btb_assoc: int = 4
    ras_entries: int = 12
    confidence_entries: int = 1024
    confidence_threshold: int = 8
    confidence_kind: str = "resetting"  # resetting | saturating | ones
    # Variant + policy.
    features: Features = field(default_factory=Features)
    policy: RecyclePolicy = field(default_factory=RecyclePolicy)
    # Map-recovery cost per squashed instruction (cycles, may be
    # fractional).  0 = checkpointed mapping tables (the paper's model:
    # "mapping tables ... are shadowed by checkpoints"); >0 approximates
    # walk-back recovery that serially unwinds the active list.
    squash_penalty_per_uop: float = 0.0
    # Recycled conditional branches: True = re-predict with the current
    # predictor and stop the stream on disagreement (the paper's chosen
    # "latter method", Section 3.4); False = adopt the trace's recorded
    # direction as the prediction (the "former method").
    recycle_repredict: bool = True
    # Alternate paths may not rename into a queue beyond this fill
    # fraction — keeps speculative wrong-path work from blocking
    # primaries out of the (shared) issue queues.
    alt_queue_pressure: float = 0.75

    def __post_init__(self) -> None:
        # A wrong type, or a confidence scheme the predictor does not
        # know, would run as another machine.
        for name, expected in _FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, expected) or (
                    isinstance(value, bool) and expected is not bool):
                annotation = self.__dataclass_fields__[name].type
                raise TypeError(f"MachineConfig.{name} must be {annotation}, not {value!r}")
        if self.confidence_kind not in CONFIDENCE_KINDS:
            raise ValueError(f"unknown confidence_kind {self.confidence_kind!r}; "
                             f"know {sorted(CONFIDENCE_KINDS)}")

    def phys_regs_per_file(self) -> int:
        """R10000-style sizing: all contexts' logical regs + rename extra."""
        return 32 * self.num_contexts + self.extra_phys_regs

    # ------------------------------------------------------------------
    # The four design points of Section 5.3 / Figure 6.
    @staticmethod
    def big_2_16(**overrides) -> "MachineConfig":
        return MachineConfig(name="big.2.16", **overrides)

    @staticmethod
    def big_1_8(**overrides) -> "MachineConfig":
        return MachineConfig(
            name="big.1.8", fetch_threads=1, fetch_block=8, fetch_total=8, **overrides
        )

    @staticmethod
    def small_1_8(**overrides) -> "MachineConfig":
        return MachineConfig(
            name="small.1.8",
            fetch_threads=1,
            fetch_block=8,
            fetch_total=8,
            rename_width=8,
            commit_width=8,
            int_queue_size=32,
            fp_queue_size=32,
            int_units=6,
            fp_units=3,
            ldst_ports=4,
            active_list_size=32,
            hierarchy=HierarchyConfig.small(),
            **overrides,
        )

    @staticmethod
    def small_2_8(**overrides) -> "MachineConfig":
        return MachineConfig(
            name="small.2.8",
            fetch_threads=2,
            fetch_block=8,
            fetch_total=8,
            rename_width=8,
            commit_width=8,
            int_queue_size=32,
            fp_queue_size=32,
            int_units=6,
            fp_units=3,
            ldst_ports=4,
            active_list_size=32,
            hierarchy=HierarchyConfig.small(),
            **overrides,
        )

    @staticmethod
    def known_names() -> "list[str]":
        """The named design points accepted by :meth:`by_name`."""
        return list(_MACHINE_BUILDERS)

    @staticmethod
    def by_name(name: str, **overrides) -> "MachineConfig":
        try:
            return _MACHINE_BUILDERS[name](**overrides)
        except KeyError as exc:
            raise ValueError(
                f"unknown machine {name!r}; know {sorted(_MACHINE_BUILDERS)}"
            ) from exc


_MACHINE_BUILDERS = {
    "big.2.16": MachineConfig.big_2_16,
    "big.1.8": MachineConfig.big_1_8,
    "small.1.8": MachineConfig.small_1_8,
    "small.2.8": MachineConfig.small_2_8,
}

#: (field, the type it must hold) for every ``MachineConfig`` field; an
#: int is a valid float.
_FIELD_TYPES = tuple(
    (name, (int, float) if hint is float else hint)
    for name, hint in sorted(typing.get_type_hints(MachineConfig).items())
)
