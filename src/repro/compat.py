"""Python-version compatibility helpers.

``dataclass(slots=True)`` landed in Python 3.10; CI still tests 3.9.
:func:`slots_dataclass` applies the slotted form where available and
falls back to a plain dataclass otherwise — results are identical, the
slotted form is just smaller and faster to construct, which matters
for the simulator's per-instruction records (uop events, trace
entries, fetch-buffer entries).  Manual ``__slots__`` is not an option
for these classes: fields with defaults would collide with the slot
descriptors.  :func:`frozen_slots_dataclass` is the same with
``frozen=True``: assigning a field after construction raises.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

if sys.version_info >= (3, 10):
    def slots_dataclass(cls):
        return dataclass(slots=True)(cls)

    def frozen_slots_dataclass(cls):
        return dataclass(slots=True, frozen=True)(cls)
else:  # pragma: no cover - py3.9 lacks dataclass(slots=True)
    def slots_dataclass(cls):
        return dataclass(cls)

    def frozen_slots_dataclass(cls):
        return dataclass(frozen=True)(cls)
