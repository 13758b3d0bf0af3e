"""The shared artifact store: the result cache plus campaign records.

One directory tree serves every campaign, every local worker thread and
every remote worker pushing results over HTTP::

    <root>/
      cache/<aa>/<key>.json   content-addressed results (ResultCache layout)
      campaigns/<cid>.json    persisted campaign records (server restart)

The cache is the only record of a finished task: a restarted server
resolves every key it finds there as a store hit.

Concurrency model
-----------------
* **Cache entries** need no lock: keys are content addresses, writes are
  atomic tmp-file + fsync + ``os.replace`` (see
  :func:`repro.exec.cache.write_atomic`), and two writers racing on one
  key carry identical payloads — last replace wins with the same bytes.
* **Campaign ids** need no lock either: an id is minted by creating its
  record file with ``O_CREAT|O_EXCL``, which one writer wins, so no two
  writers (two servers on one store, say) can mint the same id.  Within
  one server only the scheduler's owner thread writes the store.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exec.cache import ResultCache, write_atomic


class ArtifactStore(ResultCache):
    """Content-addressed result store shared by concurrent campaigns.

    A :class:`~repro.exec.cache.ResultCache` under ``<root>/cache`` (same
    keys, same entry layout — a plain ``Executor`` pointed at
    ``<root>/cache`` reads and writes the very same artifacts) plus
    persisted campaign records and campaign-id allocation.
    """

    def __init__(self, root: Union[str, Path]):
        self.root_dir = Path(root)
        super().__init__(self.root_dir / "cache")
        self.campaigns_dir = self.root_dir / "campaigns"
        self._last_ordinal: Optional[int] = None

    def record(self, key: str, payload: Dict, job=None) -> None:
        """Persist one completed task: the scheduler's one store write,
        made before it changes any state."""
        self.put(key, payload, job=job)

    # ------------------------------------------------------------------
    # Campaign records
    # ------------------------------------------------------------------
    def next_campaign_id(self) -> str:
        """Reserve a fresh campaign id by creating its (empty) record file
        exclusively, counting up past every id another writer holds.
        :meth:`save_campaign` later replaces the file; until then
        :meth:`load_campaigns` skips it, and no store mints its id again."""
        if self._last_ordinal is None:
            self.campaigns_dir.mkdir(parents=True, exist_ok=True)
            digits = [path.stem[1:] for path in sorted(self.campaigns_dir.glob("c*.json"))]
            self._last_ordinal = max((int(d) for d in digits if d.isdigit()), default=0)
        while True:
            # Threads sharing this instance may lose an update here; that
            # costs a retry, not an id, because the exclusive create decides.
            ordinal = self._last_ordinal + 1
            self._last_ordinal = ordinal
            campaign_id = f"c{ordinal:06d}"
            try:
                fd = os.open(self.campaign_path(campaign_id),
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                continue
            os.close(fd)
            return campaign_id

    def campaign_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}.json"

    def save_campaign(self, record: Dict) -> None:
        """Persist one campaign record (atomic; called on every state
        transition so a killed server can reconstruct its queue)."""
        write_atomic(
            self.campaign_path(record["id"]), json.dumps(record, sort_keys=True)
        )

    def load_campaigns(self) -> List[Dict]:
        """Every persisted campaign record, in id (submission) order."""
        if not self.campaigns_dir.is_dir():
            return []
        records = []
        for path in sorted(self.campaigns_dir.glob("*.json")):
            try:
                records.append(json.loads(path.read_text()))
            except (OSError, ValueError):  # reserved, never saved
                continue
        return records
