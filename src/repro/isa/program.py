"""Program images: assembled text + initialised data.

A :class:`Program` is what the workload suite hands to either the
functional emulator or the pipeline simulator.  The text segment is a
tuple of decoded :class:`~repro.isa.instruction.Instruction` objects
addressed from ``text_base``; the data segment is a byte image copied
into fresh memory whenever a program instance starts.

Programs are immutable by type: one assembled image is loaded into
every core its suite serves (every job one worker process serves, one
after another), so rebinding a field, assigning into ``instructions`` or
adding a label raises instead of leaking into later cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from .instruction import INSTRUCTION_BYTES, Instruction

TEXT_BASE = 0x1000
DATA_BASE = 0x4000
#: Default top-of-stack for program instances (grows down).
STACK_TOP = 0x3F_F000


@dataclass(frozen=True)
class Program:
    """An assembled program image.

    Any sequence of instructions and any mapping of labels may be
    passed in; they are stored as a tuple and a read-only mapping.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    text_base: int = TEXT_BASE
    data: bytes = b""
    data_base: int = DATA_BASE
    entry: Optional[int] = None
    labels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = MappingProxyType(dict(self.labels))
        object.__setattr__(self, "instructions", tuple(self.instructions))
        object.__setattr__(self, "labels", labels)
        if self.entry is None:
            object.__setattr__(self, "entry", labels.get("main", self.text_base))

    @property
    def text_end(self) -> int:
        """First byte address past the text segment."""
        return self.text_base + len(self.instructions) * INSTRUCTION_BYTES

    def instr_index(self, pc: int) -> Optional[int]:
        """Index into :attr:`instructions` for byte address ``pc``."""
        off = pc - self.text_base
        if off < 0 or off % INSTRUCTION_BYTES:
            return None
        idx = off // INSTRUCTION_BYTES
        if idx >= len(self.instructions):
            return None
        return idx

    def instr_at(self, pc: int) -> Optional[Instruction]:
        """Instruction at byte address ``pc`` or None when out of text."""
        idx = self.instr_index(pc)
        if idx is None:
            return None
        return self.instructions[idx]

    def addr_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError as exc:
            raise KeyError(f"program {self.name!r} has no label {label!r}") from exc

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Disassembly-style listing of the text segment (debug aid)."""
        by_addr = {addr: name for name, addr in self.labels.items()}
        lines = []
        for i, ins in enumerate(self.instructions):
            pc = self.text_base + i * INSTRUCTION_BYTES
            label = by_addr.get(pc)
            prefix = f"{label}:" if label else ""
            lines.append(f"{pc:#8x}  {prefix:<12s} {ins}")
        return "\n".join(lines)
