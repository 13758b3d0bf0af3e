"""Workload suite: assembly, relocation, and multiprogram mixes.

Multiprogrammed runs need each program at a distinct address range —
both because that is reality (different processes) and because the
branch predictor and caches would otherwise alias pathologically.  The
relocation stride is deliberately *not* a multiple of any cache's way
period so programs spread across sets.

The paper averages multiprogram results over eight permutations of the
benchmarks that weight each benchmark evenly; :func:`mixes` produces
deterministic rotations with the same property.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from ..isa.assembler import Assembler
from ..isa.program import Program
from .kernels import DEFAULT_ITERS, KERNELS

#: Distance between consecutive program images.  0x21040 = 132KB + 64B:
#: not a multiple of the 64KB direct-mapped L1 period nor of the BTB/PHT
#: index periods.
RELOCATION_STRIDE = 0x21040
TEXT_BASE = 0x1000
DATA_OFFSET = 0x8000  # data segment offset within a program's slot


class WorkloadSuite:
    """Builds (and caches) assembled kernels at relocated bases."""

    def __init__(self, iters: int = DEFAULT_ITERS):
        self.iters = iters
        self._cache: Dict[tuple, Program] = {}
        self._fingerprint: Optional[str] = None

    @property
    def names(self) -> List[str]:
        return list(KERNELS)

    def program(self, name: str, slot: int = 0) -> Program:
        """Assemble kernel ``name`` into relocation slot ``slot``."""
        if name not in KERNELS:
            raise KeyError(f"unknown kernel {name!r}; know {sorted(KERNELS)}")
        key = (name, slot, self.iters)
        if key not in self._cache:
            base = TEXT_BASE + slot * RELOCATION_STRIDE
            asm = Assembler(text_base=base, data_base=base + DATA_OFFSET)
            source = KERNELS[name](self.iters)
            self._cache[key] = asm.assemble(source, name=f"{name}.{slot}" if slot else name)
        return self._cache[key]

    def single(self, name: str) -> List[Program]:
        return [self.program(name, 0)]

    def mix(self, names: Sequence[str]) -> List[Program]:
        """Assemble a multiprogram mix, one relocation slot per program."""
        return [self.program(name, slot) for slot, name in enumerate(names)]

    def mixes(self, width: int, count: Optional[int] = None) -> List[List[str]]:
        """Deterministic rotations weighting every benchmark evenly.

        ``width`` programs per mix; ``count`` mixes (default: one per
        benchmark, i.e. eight, like the paper's eight permutations).
        """
        names = self.names
        count = count if count is not None else len(names)
        out = []
        for rotation in range(count):
            start = rotation % len(names)
            stride = 1 + rotation // len(names)
            mix = [names[(start + i * stride) % len(names)] for i in range(width)]
            out.append(mix)
        return out

    def fingerprint(self) -> str:
        """Content hash of the suite: kernel names and generated sources at
        this iteration count.  Part of the orchestration cache key, so any
        change to a kernel's assembly invalidates cached results."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(f"iters={self.iters}\n".encode())
            for name in sorted(KERNELS):
                digest.update(f"{name}\n".encode())
                digest.update(KERNELS[name](self.iters).encode())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint
