"""Pipeline stage modules sharing an explicit :class:`CoreState`.

One module per stage of the paper's machine, in reverse (evaluation)
order each cycle: :mod:`commit`, :mod:`resolve` (completion + branch
resolution + recovery), :mod:`issue`, :mod:`rename` (with the recycle
datapath) plus :mod:`fork` (TME forking, fired from rename), and
:mod:`fetch` (with merge detection).  The
:class:`~repro.pipeline.core.Core` facade owns one of each, steps them,
and is the public API; stages reach each other through it
(``self.core.rename.kill_stream(...)``).
"""

from .commit import CommitStage
from .fetch import FetchStage
from .fork import ForkUnit
from .issue import IssueStage
from .rename import RenameStage
from .resolve import ResolveStage
from .state import CoreState, SimulationError, Stage

__all__ = [
    "CommitStage",
    "CoreState",
    "FetchStage",
    "ForkUnit",
    "IssueStage",
    "RenameStage",
    "ResolveStage",
    "SimulationError",
    "Stage",
]
