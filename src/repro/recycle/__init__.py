"""Instruction recycling and reuse: merge streams, the written-bit
array, and the Memory Disambiguation Buffer."""

from .mdb import MdbProbe, MemoryDisambiguationBuffer
from .stream import RecycleStream, StreamKind
from .written_bits import WrittenBitArray

__all__ = [
    "MdbProbe",
    "MemoryDisambiguationBuffer",
    "RecycleStream",
    "StreamKind",
    "WrittenBitArray",
]
