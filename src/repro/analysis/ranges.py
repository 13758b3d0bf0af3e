"""Strided-interval value-range analysis over the RRISC toy ISA.

Address-forming registers in the synthetic kernels are built from a
small set of idioms — ``movi`` region bases, ``andi`` index masks,
``slli`` scale-by-8, ``add`` base+offset, and loop-carried ``addi``
pointer bumps — so a *strided interval* domain (Reps/Balakrishnan/Reps
value-set analysis style) captures them almost exactly:

    ``{ x : lo <= x <= hi,  x ≡ offset (mod stride) }``

The analysis is a forward fixpoint over the CFG's over-approximating
*flow* successor relation (:meth:`repro.analysis.cfg.CFG.flow_successors`),
so every dynamically executable path is a walk of the graph analysed
and the per-instruction register ranges are sound for wrong paths too.
Loop-affine strides fall out of the join at natural-loop headers: the
first back-edge join of ``base`` and ``base+8`` yields stride 8, and
widening then drops the unstable bound while *keeping* the congruence.

Soundness over 64-bit wrapping arithmetic:

* bounded intervals are only produced when the mathematical result
  stays inside the signed-64 range, so ``wrap()`` is the identity on
  every concrete value they describe;
* unbounded (congruence-only) values keep just ``x ≡ offset (mod s)``
  and require the stride to be a power of two, which divides 2**64 and
  therefore survives wrap-around;
* everything else is TOP.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..isa.instruction import INSTRUCTION_BYTES, Instruction
from ..isa.opcodes import Op
from ..isa.program import Program
from ..isa.registers import FP_ZERO_REG, ZERO_REG
from ..isa.semantics import compute_value, to_signed, to_unsigned, wrap
from .cfg import CFG

_S64_MIN = -(1 << 63)
_S64_MAX = (1 << 63) - 1
#: Congruence-only strides above this are meaningless (wrap period).
_MAX_CONG_STRIDE = 1 << 63


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class StridedInterval:
    """One abstract value: a bounded or congruence-only strided set.

    Three shapes, all immutable:

    * singleton — ``stride == 0``, ``lo == hi == offset`` (exact value);
    * bounded — ``stride > 0``, ``lo/hi`` finite, ``lo ≡ hi ≡ offset
      (mod stride)``, concrete values are plain signed-64 integers;
    * congruence-only — ``lo is hi is None``, ``stride`` a power of
      two: only ``x ≡ offset (mod stride)`` is known (wrap-safe).

    ``TOP`` is the congruence-only value with stride 1.
    """

    __slots__ = ("stride", "offset", "lo", "hi")

    def __init__(self, stride: int, offset: int, lo: Optional[int], hi: Optional[int]):
        self.stride = stride
        self.offset = offset
        self.lo = lo
        self.hi = hi

    # -- constructors ----------------------------------------------------
    @staticmethod
    def const(value: int) -> "StridedInterval":
        v = wrap(value)
        return StridedInterval(0, v, v, v)

    @staticmethod
    def make(
        stride: int, offset: int, lo: Optional[int], hi: Optional[int]
    ) -> "StridedInterval":
        """Normalising constructor; falls back to TOP when unsound."""
        if lo is None or hi is None:
            # Congruence-only: the claim must survive mod-2**64 wrap.
            if not _is_pow2(stride) or stride > _MAX_CONG_STRIDE:
                return TOP
            return StridedInterval(stride, offset % stride, None, None)
        if lo < _S64_MIN or hi > _S64_MAX or lo > hi:
            return TOP  # wrap may occur (or the caller produced nonsense)
        if stride <= 0:
            if lo == hi:
                return StridedInterval(0, lo, lo, lo)
            stride = 1
        offset %= stride
        # Tighten bounds onto the congruence class.
        lo = lo + ((offset - lo) % stride)
        hi = hi - ((hi - offset) % stride)
        if lo > hi:
            return TOP
        if lo == hi:
            return StridedInterval(0, lo, lo, lo)
        return StridedInterval(stride, offset, lo, hi)

    # -- predicates ------------------------------------------------------
    @property
    def is_top(self) -> bool:
        return self.lo is None and self.stride == 1

    @property
    def is_singleton(self) -> bool:
        return self.stride == 0

    @property
    def value(self) -> int:
        if not self.is_singleton:
            raise ValueError("not a singleton")
        return self.offset

    def contains(self, v: int) -> bool:
        """Does the concretisation include signed value ``v``?"""
        if self.lo is None:
            return v % self.stride == self.offset
        if self.stride == 0:
            return v == self.offset
        return self.lo <= v <= self.hi and v % self.stride == self.offset

    def contains_address(self, address: int) -> bool:
        """Membership for an *unsigned* effective address pattern."""
        return self.contains(to_signed(address))

    # -- equality / display ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StridedInterval)
            and self.stride == other.stride
            and self.offset == other.offset
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.stride, self.offset, self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_top:
            return "SI(top)"
        if self.is_singleton:
            return f"SI({self.offset})"
        if self.lo is None:
            return f"SI(≡{self.offset} mod {self.stride})"
        return f"SI({self.stride}[{self.lo},{self.hi}]+{self.offset})"

    # -- lattice ---------------------------------------------------------
    def join(self, other: "StridedInterval") -> "StridedInterval":
        if self == other:
            return self
        if self.is_top or other.is_top:
            return TOP
        s = math.gcd(math.gcd(self.stride, other.stride), abs(self.offset - other.offset))
        if s == 0:  # both singletons with equal values — caught above
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return StridedInterval.make(s, self.offset % s, lo, hi)

    def widen(self, new: "StridedInterval") -> "StridedInterval":
        """Classic interval widening that keeps the congruence: an
        unstable bound jumps straight to unbounded, the stride gcds
        down — both chains are finite, so the fixpoint terminates."""
        if new == self:
            return self
        if self.is_top or new.is_top:
            return TOP
        s = math.gcd(math.gcd(self.stride, new.stride), abs(self.offset - new.offset))
        if s == 0:
            return self
        lo = self.lo if (
            self.lo is not None and new.lo is not None and new.lo >= self.lo
        ) else None
        hi = self.hi if (
            self.hi is not None and new.hi is not None and new.hi <= self.hi
        ) else None
        if lo is None or hi is None:
            lo = hi = None  # one-sided bounds are not wrap-safe
        return StridedInterval.make(s, new.offset % s, lo, hi)

    # -- arithmetic transfer functions ----------------------------------
    def add(self, other: "StridedInterval") -> "StridedInterval":
        if self.is_singleton and other.is_singleton:
            return StridedInterval.const(wrap(self.offset + other.offset))
        if self.is_top or other.is_top:
            return TOP
        s = math.gcd(self.stride, other.stride)
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return StridedInterval.make(s, self.offset + other.offset, lo, hi)

    def neg(self) -> "StridedInterval":
        if self.is_singleton:
            return StridedInterval.const(wrap(-self.offset))
        if self.is_top:
            return TOP
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return StridedInterval.make(self.stride, -self.offset, lo, hi)

    def sub(self, other: "StridedInterval") -> "StridedInterval":
        return self.add(other.neg())

    def mul_const(self, c: int) -> "StridedInterval":
        if self.is_singleton:
            return StridedInterval.const(wrap(self.offset * c))
        if c == 0:
            return StridedInterval.const(0)
        if self.is_top:
            return TOP
        s = self.stride * abs(c)
        if self.lo is None:
            return StridedInterval.make(s, self.offset * c, None, None)
        a, b = self.lo * c, self.hi * c
        return StridedInterval.make(s, self.offset * c, min(a, b), max(a, b))

    def shl_const(self, c: int) -> "StridedInterval":
        return self.mul_const(1 << (c & 63))

    def shr_const(self, c: int, arithmetic: bool) -> "StridedInterval":
        c &= 63
        if self.is_singleton:
            v = self.offset
            if arithmetic:
                return StridedInterval.const(wrap(v >> c))
            return StridedInterval.const(to_signed(to_unsigned(v) >> c))
        if self.lo is None:
            return TOP
        if not arithmetic and self.lo < 0:
            return TOP  # logical shift of a negative pattern is huge
        return StridedInterval.make(1, 0, self.lo >> c, self.hi >> c)

    def and_const(self, m: int) -> "StridedInterval":
        if self.is_singleton:
            return StridedInterval.const(
                to_signed(to_unsigned(self.offset) & to_unsigned(m))
            )
        if m >= 0:
            # x & m is always within [0, m] (result bits are a subset).
            if _is_pow2(m + 1) and self.stride > 0 and (m + 1) % self.stride == 0:
                # x & m == x mod (m+1); since stride | m+1 the congruence
                # class mod stride survives the masking exactly.
                r = self.offset
                return StridedInterval.make(self.stride, r, r, m - ((m - r) % self.stride))
            return StridedInterval.make(1, 0, 0, m)
        # Negative mask: ~m+... an alignment mask ~(2**k - 1) clears the
        # low bits, i.e. rounds down to a multiple of 2**k.
        low = to_unsigned(~m)
        if _is_pow2(low + 1):
            return self.align_down(low + 1)
        return TOP

    def align_down(self, block: int) -> "StridedInterval":
        """Abstract ``x & ~(block-1)`` (``block`` a power of two) — the
        shape of :func:`repro.isa.semantics.effective_address`."""
        if not _is_pow2(block):
            return TOP
        if self.is_singleton:
            v = self.offset
            return StridedInterval.const(v - (v % block))
        if self.is_top:
            return StridedInterval.make(block, 0, None, None)
        if self.lo is None:
            if self.stride % block == 0:
                r = self.offset - (self.offset % block)
                return StridedInterval.make(self.stride, r, None, None)
            return StridedInterval.make(block, 0, None, None)
        f_lo = self.lo - (self.lo % block)
        f_hi = self.hi - (self.hi % block)
        if self.stride % block == 0:
            r = self.offset - (self.offset % block)
            return StridedInterval.make(self.stride, r, f_lo, f_hi)
        return StridedInterval.make(block, 0, f_lo, f_hi)

    # -- set relations (for alias queries) -------------------------------
    def may_intersect(self, other: "StridedInterval") -> bool:
        """May the two concretisations share a value?  ``False`` is a
        *proof* of disjointness; ``True`` is the safe default."""
        if self.is_top or other.is_top:
            return True
        if self.is_singleton and other.is_singleton:
            return self.offset == other.offset
        if self.is_singleton:
            return other.contains(self.offset)
        if other.is_singleton:
            return self.contains(other.offset)
        g = math.gcd(self.stride, other.stride)
        if g > 1 and (self.offset - other.offset) % g != 0:
            return False  # incompatible congruence classes
        if self.lo is not None and other.lo is not None:
            if max(self.lo, other.lo) > min(self.hi, other.hi):
                return False  # disjoint ranges
        return True

    def must_equal(self, other: "StridedInterval") -> bool:
        return (
            self.is_singleton and other.is_singleton and self.offset == other.offset
        )


#: Lattice top: any signed-64 value.
TOP = StridedInterval(1, 0, None, None)

#: Comparison results and other boolean-valued instructions.
BOOL = StridedInterval(1, 0, 0, 1)

_SHIFT_RIGHT = {Op.SRL: False, Op.SRLI: False, Op.SRA: True, Op.SRAI: True}
_CMP_OPS = frozenset({
    Op.CMPEQ, Op.CMPLT, Op.CMPLE, Op.CMPULT, Op.CMPEQI, Op.CMPLTI,
    Op.FCMPEQ, Op.FCMPLT, Op.FCMPLE,
})


class ValueRangeAnalysis:
    """Forward strided-interval fixpoint over one program's flow graph.

    ``in_states[i]`` is the abstract register file *entering*
    instruction ``i``: a dict mapping unified logical register index to
    :class:`StridedInterval`, where an absent register means TOP and a
    ``None`` state means the instruction was never reached (bottom).
    Entry assumes nothing about initial register contents (all TOP), so
    the results hold for any context the trace executes in.
    """

    #: joins at one instruction before widening kicks in
    WIDEN_AFTER = 2
    #: hard backstop (per instruction) against lattice bugs — on trip
    #: the state degrades to all-TOP, which is trivially stable
    MAX_VISITS = 256

    def __init__(self, program: Program, cfg: Optional[CFG] = None):
        self.program = program
        self.cfg = cfg if cfg is not None else CFG(program)
        n = len(program.instructions)
        self.in_states: List[Optional[Dict[int, StridedInterval]]] = [None] * n
        self.iterations = 0
        if n:
            self._run()

    # -- public queries --------------------------------------------------
    def reg_at(self, index: int, reg: int) -> StridedInterval:
        """Abstract value of ``reg`` entering instruction ``index``
        (TOP when unknown or the instruction is unreachable)."""
        if reg == ZERO_REG or reg == FP_ZERO_REG:
            return StridedInterval.const(0)
        state = self.in_states[index]
        if state is None:
            return TOP
        return state.get(reg, TOP)

    # -- engine ----------------------------------------------------------
    def _run(self) -> None:
        program = self.program
        entry = program.instr_index(program.entry or program.text_base)
        if entry is None:
            entry = 0
        flow = self.cfg.flow_successors()
        self.in_states[entry] = {}
        visits = [0] * len(self.in_states)
        worklist = [entry]
        pending = {entry}
        while worklist:
            i = worklist.pop(0)
            pending.discard(i)
            visits[i] += 1
            self.iterations += 1
            state = self.in_states[i]
            if state is None:  # pragma: no cover - queued implies reached
                continue
            if visits[i] > self.MAX_VISITS and state:
                state = self.in_states[i] = {}
            out = self._transfer(i, state)
            widen = visits[i] > self.WIDEN_AFTER
            for s in flow[i]:
                if self._merge_into(s, out, widen) and s not in pending:
                    pending.add(s)
                    worklist.append(s)

    def _merge_into(
        self, index: int, out: Dict[int, StridedInterval], widen: bool
    ) -> bool:
        cur = self.in_states[index]
        if cur is None:
            self.in_states[index] = dict(out)
            return True
        changed = False
        merged: Dict[int, StridedInterval] = {}
        for reg, old in cur.items():
            incoming = out.get(reg)
            if incoming is None:  # TOP along this edge
                changed = True
                continue
            new = old.join(incoming)
            if widen and new != old:
                new = old.widen(new)
            if new.is_top:
                changed = True
                continue
            merged[reg] = new
            if new != old:
                changed = True
        # Registers known along this edge but TOP in the current state
        # stay TOP: join(TOP, x) == TOP, so they remain absent.
        if changed:
            self.in_states[index] = merged
        return changed

    def _transfer(
        self, index: int, state: Dict[int, StridedInterval]
    ) -> Dict[int, StridedInterval]:
        ins = self.program.instructions[index]
        dst = ins.dst
        if dst is None:
            return state
        value = self._eval(index, ins, state)
        if value.is_top:
            if dst in state:
                out = dict(state)
                del out[dst]
                return out
            return state
        out = dict(state)
        out[dst] = value
        return out

    def _read(self, state: Dict[int, StridedInterval], reg: int) -> StridedInterval:
        if reg == ZERO_REG or reg == FP_ZERO_REG:
            return StridedInterval.const(0)
        return state.get(reg, TOP)

    def _eval(
        self, index: int, ins: Instruction, state: Dict[int, StridedInterval]
    ) -> StridedInterval:
        oi = ins.info
        op = ins.op
        if oi.is_load or oi.dst_fp:
            return TOP  # memory contents and fp values are untracked
        if oi.is_call:
            return StridedInterval.const(self.cfg.pc_of(index) + INSTRUCTION_BYTES)
        if op in _CMP_OPS:
            if oi.src_fp:
                return BOOL
            vals = [self._read(state, s) for s in ins.srcs]
        else:
            if oi.src_fp:
                return TOP
            vals = [self._read(state, s) for s in ins.srcs]
        if all(v.is_singleton for v in vals):
            # Every source is exactly known: defer to the architectural
            # semantics so the abstract and concrete values agree by
            # construction.
            result = compute_value(
                ins, tuple(v.value for v in vals), self.cfg.pc_of(index)
            )
            if isinstance(result, int):
                return StridedInterval.const(result)
            return TOP
        if op is Op.ADD:
            return vals[0].add(vals[1])
        if op is Op.ADDI:
            return vals[0].add(StridedInterval.const(ins.imm))
        if op is Op.SUB:
            return vals[0].sub(vals[1])
        if op is Op.SUBI:
            return vals[0].sub(StridedInterval.const(ins.imm))
        if op is Op.AND:
            if vals[1].is_singleton:
                return vals[0].and_const(vals[1].value)
            if vals[0].is_singleton:
                return vals[1].and_const(vals[0].value)
            return TOP
        if op is Op.ANDI:
            return vals[0].and_const(ins.imm)
        if op is Op.SLLI:
            return vals[0].shl_const(ins.imm)
        if op is Op.SLL:
            if vals[1].is_singleton:
                return vals[0].shl_const(vals[1].value)
            return TOP
        if op in _SHIFT_RIGHT:
            arith = _SHIFT_RIGHT[op]
            if op in (Op.SRLI, Op.SRAI):
                return vals[0].shr_const(ins.imm, arith)
            if vals[1].is_singleton:
                return vals[0].shr_const(vals[1].value, arith)
            return TOP
        if op is Op.MULI:
            return vals[0].mul_const(ins.imm)
        if op is Op.MUL:
            if vals[1].is_singleton:
                return vals[0].mul_const(vals[1].value)
            if vals[0].is_singleton:
                return vals[1].mul_const(vals[0].value)
            return TOP
        if op in _CMP_OPS:
            return BOOL
        return TOP
