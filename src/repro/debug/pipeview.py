"""Text pipeline viewer (gem5-o3-pipeview style).

Renders the lifetime of committed uops as one row per instruction with
stage letters placed in cycle columns::

    seq ctx pc        F.D.R...I..C        instruction
    ------------------------------------------------------------------
    412  0  0x100c    R--I--=----C        slli r3, r1, 13   [rec]

Letters: ``R`` rename, ``I`` issue, ``=`` executing, ``C`` commit,
``U`` a reused instruction's rename (it never issues).  Recycled
instructions have no fetch column — that is the whole point.  The input
is :attr:`~repro.debug.tracer.CoreTracer.committed_uops`, as
``repro-sim trace --pipeview`` passes it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..pipeline.uop import Uop


def render_uop_row(uop: Uop, origin: int, width: int) -> str:
    """One timeline row for a committed uop, cycles [origin, origin+width)."""
    lane = ["."] * width

    def put(cycle: int, char: str) -> None:
        if cycle is not None and cycle >= 0 and origin <= cycle < origin + width:
            lane[cycle - origin] = char

    if uop.reused:
        put(uop.rename_cycle, "U")
    else:
        put(uop.rename_cycle, "R")
        if uop.issue_cycle >= 0:
            put(uop.issue_cycle, "I")
            end = uop.complete_cycle if uop.complete_cycle >= 0 else uop.issue_cycle
            for cycle in range(uop.issue_cycle + 1, end):
                put(cycle, "=")
        if uop.complete_cycle >= 0:
            put(uop.complete_cycle, "x")
    flags = []
    if uop.recycled:
        flags.append("rec")
    if uop.reused:
        flags.append("reuse")
    if uop.back_merge:
        flags.append("back")
    suffix = f"  [{','.join(flags)}]" if flags else ""
    return (
        f"{uop.seq:>7d} {uop.ctx} {uop.pc:#08x}  {''.join(lane)}  "
        f"{str(uop.instr):<28s}{suffix}"
    )


def pipeview(
    uops: Sequence[Uop],
    max_rows: int = 40,
    width: Optional[int] = None,
) -> str:
    """Render a window of committed uops as a pipeline diagram."""
    rows = [u for u in uops if u.rename_cycle >= 0][:max_rows]
    if not rows:
        return "(no committed uops captured)"
    origin = min(u.rename_cycle for u in rows)
    if width is None:
        last = max(
            max(u.rename_cycle, u.issue_cycle, u.complete_cycle) for u in rows
        )
        width = min(120, last - origin + 1)
    header = (
        f"{'seq':>7s} c {'pc':<9s} cycles {origin}..{origin + width - 1} "
        f"(R=rename U=reused I=issue ==exec x=complete)"
    )
    lines = [header, "-" * (len(header) + 10)]
    lines += [render_uop_row(u, origin, width) for u in rows]
    return "\n".join(lines)
