"""Memory-hierarchy configuration.

Defaults reproduce the paper's Section 4.1 memory system: 64KB
direct-mapped L1 instruction and data caches, a 256KB 4-way on-chip L2,
a 4MB off-chip L3, 64-byte lines everywhere, 8-way banking on the
on-chip caches, and conflict-free miss penalties of 6 cycles to L2,
another 12 to L3 and another 62 to memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size: int  # bytes
    assoc: int  # ways; 1 = direct mapped
    line_size: int = 64
    banks: int = 8
    hit_latency: int = 0  # extra cycles beyond the pipeline's own stage

    def __post_init__(self) -> None:
        if self.size % (self.line_size * self.assoc):
            raise ValueError(f"{self.name}: size not divisible by line*assoc")
        if self.banks & (self.banks - 1):
            raise ValueError(f"{self.name}: banks must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)


@dataclass(frozen=True)
class HierarchyConfig:
    """Full hierarchy: two L1s, shared L2/L3, and main memory timing."""

    icache: CacheConfig
    dcache: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    l2_penalty: int = 6  # L1 miss, L2 hit: additional cycles
    l3_penalty: int = 12  # L2 miss, L3 hit: additional cycles on top
    memory_penalty: int = 62  # L3 miss: additional cycles on top
    memory_bus_occupancy: int = 4  # cycles the memory channel is busy per miss

    @staticmethod
    def big() -> "HierarchyConfig":
        """The paper's baseline memory system."""
        return HierarchyConfig(
            icache=CacheConfig("L1I", 64 * 1024, 1, hit_latency=0),
            dcache=CacheConfig("L1D", 64 * 1024, 1, hit_latency=2),
            l2=CacheConfig("L2", 256 * 1024, 4, hit_latency=0),
            l3=CacheConfig("L3", 4 * 1024 * 1024, 1, banks=1, hit_latency=0),
        )

    @staticmethod
    def small() -> "HierarchyConfig":
        """Half-size caches for the paper's 'small' machines (Section 5.3)."""
        return HierarchyConfig(
            icache=CacheConfig("L1I", 32 * 1024, 1, hit_latency=0),
            dcache=CacheConfig("L1D", 32 * 1024, 1, hit_latency=2),
            l2=CacheConfig("L2", 128 * 1024, 4, hit_latency=0),
            l3=CacheConfig("L3", 4 * 1024 * 1024, 1, banks=1, hit_latency=0),
        )
