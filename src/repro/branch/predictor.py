"""The front-end branch predictor bundle.

Combines the decoupled BTB + gshare PHT, a per-context global history
register, a per-context return-address stack, and the confidence
estimator that gates TME forking.  The pipeline calls :meth:`predict`
at fetch and :meth:`resolve` at branch execution; mispredict recovery
restores the GHR/RAS from the snapshot carried in the prediction.

Tables (PHT, BTB, confidence) are shared by all contexts — the SMT
reality the paper models — while history state is per context.  TME
alternate paths start from a *fork* of the primary's history with the
opposite direction shifted in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instruction import INSTRUCTION_BYTES, Instruction
from .btb import BranchTargetBuffer
from .confidence import make_confidence
from .pht import PatternHistoryTable
from .ras import ReturnAddressStack


@dataclass(slots=True)
class Prediction:
    """Outcome of predicting one control-transfer instruction at fetch."""

    taken: bool
    target: Optional[int]  # None: taken but target unknown until decode/execute
    low_confidence: bool = False
    ghr_before: int = 0
    ras_snapshot: Tuple[int, ...] = ()
    from_btb: bool = False

    @property
    def needs_decode_redirect(self) -> bool:
        """Taken prediction whose target the BTB could not supply."""
        return self.taken and not self.from_btb


class BranchPredictor:
    def __init__(
        self,
        num_contexts: int = 8,
        pht_entries: int = 2048,
        btb_entries: int = 256,
        btb_assoc: int = 4,
        ras_entries: int = 12,
        confidence_entries: int = 1024,
        confidence_threshold: int = 8,
        confidence_kind: str = "resetting",
    ):
        self.pht = PatternHistoryTable(pht_entries)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self.confidence = make_confidence(
            confidence_kind, entries=confidence_entries, threshold=confidence_threshold
        )
        self._ghr_mask = pht_entries - 1
        self.ghr: List[int] = [0] * num_contexts
        self.ras: List[ReturnAddressStack] = [
            ReturnAddressStack(ras_entries) for _ in range(num_contexts)
        ]
        self.predictions = 0
        self.cond_predictions = 0

    # ------------------------------------------------------------------
    def predict(self, ctx: int, pc: int, instr: Instruction) -> Prediction:
        """Predict a control transfer fetched by context ``ctx`` at ``pc``."""
        self.predictions += 1
        oi = instr.info
        ghr_before = self.ghr[ctx]
        snapshot = self.ras[ctx].snapshot()

        if oi.is_cond_branch:
            self.cond_predictions += 1
            taken = self.pht.predict(pc, ghr_before)
            low_conf = self.confidence.is_low_confidence(pc, ghr_before)
            self.ghr[ctx] = ((ghr_before << 1) | int(taken)) & self._ghr_mask
            target = None
            from_btb = False
            if taken:
                target = self.btb.lookup(pc)
                from_btb = target is not None
                if target is None:
                    # Decode supplies the target of a direct branch.
                    target = instr.target
            return Prediction(
                taken=taken,
                target=target,
                low_confidence=low_conf,
                ghr_before=ghr_before,
                ras_snapshot=snapshot,
                from_btb=from_btb,
            )

        if oi.is_return:
            target = self.ras[ctx].pop()
            if target is not None:
                return Prediction(
                    True, target, ghr_before=ghr_before,
                    ras_snapshot=snapshot, from_btb=True,
                )
            target = self.btb.lookup(pc)
            return Prediction(
                True, target, ghr_before=ghr_before,
                ras_snapshot=snapshot, from_btb=target is not None,
            )

        if oi.is_indirect:  # JMP
            target = self.btb.lookup(pc)
            return Prediction(
                True, target, ghr_before=ghr_before,
                ras_snapshot=snapshot, from_btb=target is not None,
            )

        # Direct BR / JSR: target known from the instruction at decode; the
        # BTB makes it available already at fetch.
        if oi.is_call:
            self.ras[ctx].push(pc + INSTRUCTION_BYTES)
        target = self.btb.lookup(pc)
        from_btb = target is not None
        return Prediction(
            True, target if from_btb else instr.target,
            ghr_before=ghr_before, ras_snapshot=snapshot, from_btb=from_btb,
        )

    def record_direction(self, ctx: int, pc: int, taken: bool, target: Optional[int]) -> Prediction:
        """The paper's "former method" for recycled branches: adopt the
        trace's recorded direction as the prediction (no PHT lookup) and
        update the global history with it.  Confidence is still queried
        so TME fork gating works on recycled branches."""
        self.predictions += 1
        self.cond_predictions += 1
        ghr_before = self.ghr[ctx]
        snapshot = self.ras[ctx].snapshot()
        low_conf = self.confidence.is_low_confidence(pc, ghr_before)
        self.ghr[ctx] = ((ghr_before << 1) | int(taken)) & self._ghr_mask
        return Prediction(
            taken=taken,
            target=target,
            low_confidence=low_conf,
            ghr_before=ghr_before,
            ras_snapshot=snapshot,
            from_btb=True,
        )

    # ------------------------------------------------------------------
    def resolve(
        self,
        pc: int,
        instr: Instruction,
        pred: Prediction,
        taken: bool,
        target: int,
    ) -> bool:
        """Train at branch resolution.  Returns True when mispredicted."""
        oi = instr.info
        mispredicted = (
            taken != pred.taken or (taken and pred.target != target)
        )
        if oi.is_cond_branch:
            self.pht.update(pc, pred.ghr_before, taken)
            self.confidence.update(pc, pred.ghr_before, not mispredicted)
        if taken:
            self.btb.update(pc, target)
        return mispredicted

    def recover(
        self, ctx: int, pred: Prediction, instr: Instruction, taken: bool, pc: int
    ) -> None:
        """Repair ``ctx``'s speculative history after a mispredict squash.

        Restores the pre-branch snapshot, then re-applies the resolved
        branch's own architectural effect on the history structures.
        """
        if instr.info.is_cond_branch:
            self.ghr[ctx] = ((pred.ghr_before << 1) | int(taken)) & self._ghr_mask
        self.ras[ctx].restore(pred.ras_snapshot)
        if instr.info.is_call:
            self.ras[ctx].push(pc + INSTRUCTION_BYTES)
        elif instr.info.is_return:
            self.ras[ctx].pop()

    def fork_context(self, src: int, dst: int, cond_branch: bool, alt_taken: bool) -> None:
        """Initialise ``dst``'s history as the alternate path of ``src``.

        ``alt_taken`` is the direction the *alternate* path assumes for
        the forked branch (the opposite of the primary's prediction).
        The primary's GHR has already shifted in its own prediction, so
        the alternate replaces that last bit.
        """
        if cond_branch:
            base = self.ghr[src] >> 1
            self.ghr[dst] = ((base << 1) | int(alt_taken)) & self._ghr_mask
        else:
            self.ghr[dst] = self.ghr[src]
        self.ras[dst].copy_from(self.ras[src])

    def sync_context(self, src: int, dst: int) -> None:
        """MSB resynchronisation: make ``dst``'s history mirror ``src``'s."""
        self.ghr[dst] = self.ghr[src]
        self.ras[dst].copy_from(self.ras[src])

    def push_return(self, ctx: int, address: int) -> None:
        self.ras[ctx].push(address)
