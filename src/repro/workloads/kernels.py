"""Synthetic SPEC95-analog kernels.

The paper's workload is eight SPEC95 benchmarks compiled for Alpha.
Real SPEC binaries are far outside what a pure-Python cycle simulator
can chew through, so each kernel here is a small RRISC program
engineered to match its namesake's *qualitative* profile as reported in
the paper (Table 1 and the surrounding discussion):

==========  ==========================================================
kernel      profile targeted
==========  ==========================================================
compress    tiny data-dependent loop; lowest branch predictability per
            instruction; register-disjoint diamond arms → the highest
            recycle and reuse rates of the suite
gcc         large branchy body with calls; moderate predictability
go          deeply irregular two-level data-dependent branching; the
            hardest to predict
li          stack-driven recursive list walk; moderate predictability,
            long merges per alternate path
perl        mostly predictable control with rare data-dependent
            branches; lowest recycle rate of the integer codes
su2cor      floating-point vector loops with occasional data-dependent
            branches
tomcatv     pure FP stencil with counted loops only — near-perfect
            prediction, so TME almost never forks and recycling is
            back-merge dominated
vortex      pointer-chasing with calls and highly predictable branches
==========  ==========================================================

Each builder returns RRISC assembly text.  All pseudo-random data is
generated from fixed seeds, so workloads are fully deterministic.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

DEFAULT_ITERS = 1_000_000  # effectively "run forever"; windows end runs


def _rand_words(seed: int, count: int, lo: int = 0, hi: int = 1 << 30) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(lo, hi) for _ in range(count)]


def _word_directive(values: List[int], per_line: int = 8) -> str:
    lines = []
    for i in range(0, len(values), per_line):
        chunk = ", ".join(str(v) for v in values[i : i + per_line])
        lines.append(f"        .word {chunk}")
    return "\n".join(lines)


def compress(iters: int = DEFAULT_ITERS) -> str:
    """Hash-table compression inner loop.

    Reads a pseudo-random byte stream, hashes, and branches on a
    data-dependent bit.  The two arms define disjoint registers from
    the zero register, so the not-taken arm's results are reusable when
    a later iteration takes the other direction.
    """
    data = _word_directive(_rand_words(0xC0, 64))
    return f"""
        .data
input:
{data}
htab:   .space 512
        .text
main:   movi r1, input      # stream base
        movi r2, {iters}    # iterations
        movi r10, htab
        movi r11, 0         # stream index
loop:   andi r12, r11, 63
        slli r13, r12, 3
        add  r14, r1, r13
        ld   r3, 0(r14)     # next "byte"
        # hash = (h << 4) ^ x, folded
        slli r4, r5, 4
        xor  r5, r4, r3
        srli r6, r5, 9
        xor  r5, r5, r6
        andi r7, r5, 1      # data-dependent direction
        addi r11, r11, 1
        beq  r7, miss
hit:    addi r16, r31, 1    # disjoint arm: hit bookkeeping
        addi r17, r31, 5
        br   update
miss:   addi r18, r31, 3    # disjoint arm: miss bookkeeping
        addi r19, r31, 7
update: andi r8, r5, 63
        slli r8, r8, 3
        add  r9, r10, r8
        st   r3, 0(r9)      # install in hash table
        subi r2, r2, 1
        bgt  r2, loop
        halt
"""


def gcc(iters: int = DEFAULT_ITERS) -> str:
    """Compiler-like workload: branchy decision chains plus calls."""
    data = _word_directive(_rand_words(0x6CC, 96))
    return f"""
        .data
tokens:
{data}
        .text
main:   movi r1, tokens
        movi r2, {iters}
        movi r11, 0
loop:   andi r12, r11, 95
        slli r13, r12, 3
        add  r14, r1, r13
        ld   r3, 0(r14)     # next token
        addi r11, r11, 1
        # decision chain on token class (data dependent)
        andi r4, r3, 7
        cmplti r5, r4, 3
        bne  r5, classA
        cmplti r5, r4, 6
        bne  r5, classB
classC: jsr  ra, emitC
        br   next
classA: jsr  ra, emitA
        br   next
classB: jsr  ra, emitB
next:   subi r2, r2, 1
        bgt  r2, loop
        halt
emitA:  slli r6, r3, 2
        add  r7, r7, r6
        addi r8, r8, 1
        ret  (ra)
emitB:  srli r6, r3, 3
        xor  r7, r7, r6
        addi r9, r9, 1
        ret  (ra)
emitC:  andi r6, r3, 255
        sub  r7, r7, r6
        addi r10, r10, 1
        ret  (ra)
"""


def go(iters: int = DEFAULT_ITERS) -> str:
    """Game-tree-like workload: nested, irregular, hard branches."""
    data = _word_directive(_rand_words(0x60, 128))
    return f"""
        .data
board:
{data}
        .text
main:   movi r1, board
        movi r2, {iters}
        movi r20, 0
loop:   andi r3, r20, 127
        slli r4, r3, 3
        add  r5, r1, r4
        ld   r6, 0(r5)      # position value
        addi r20, r20, 1
        andi r7, r6, 3      # two-level irregular decision
        beq  r7, deep0
        cmplti r8, r7, 2
        bne  r8, deep1
        andi r9, r6, 12
        beq  r9, deep2
deep3:  addi r12, r12, 3
        xor  r13, r13, r6
        br   merge
deep0:  addi r10, r10, 1
        srli r13, r6, 2
        br   merge
deep1:  addi r11, r11, 1
        slli r13, r6, 1
        br   merge
deep2:  sub  r12, r12, r6
merge:  andi r14, r6, 1
        beq  r14, even
        add  r15, r15, r13
        br   cont
even:   sub  r15, r15, r13
cont:   subi r2, r2, 1
        bgt  r2, loop
        halt
"""


def li(iters: int = DEFAULT_ITERS) -> str:
    """Lisp-interpreter-like workload: stack-driven recursive walking."""
    data = _word_directive(_rand_words(0x11, 64, lo=0, hi=5))
    return f"""
        .data
depths:
{data}
        .text
main:   movi r2, {iters}
        movi r1, depths
        movi r20, 0
loop:   andi r3, r20, 63
        slli r4, r3, 3
        add  r5, r1, r4
        ld   r6, 0(r5)      # recursion depth for this "expression"
        addi r20, r20, 1
        jsr  ra, eval
        subi r2, r2, 1
        bgt  r2, loop
        halt
        # eval(depth in r6): data-dependent recursion via explicit stack
eval:   subi sp, sp, 16
        st   ra, 0(sp)
        st   r6, 8(sp)
        ble  r6, leaf
        subi r6, r6, 1
        jsr  ra, eval       # "car" recursion
        ld   r6, 8(sp)
        andi r7, r6, 1
        beq  r7, nocdr
        subi r6, r6, 2
        bgt  r6, docdr
        br   nocdr
docdr:  jsr  ra, eval       # occasional "cdr" recursion
nocdr:  ld   r6, 8(sp)
        add  r10, r10, r6
leaf:   addi r11, r11, 1
        ld   ra, 0(sp)
        addi sp, sp, 16
        ret  (ra)
"""


def perl(iters: int = DEFAULT_ITERS) -> str:
    """Interpreter dispatch with mostly-predictable control flow."""
    data = _word_directive(_rand_words(0x9E71, 64, lo=0, hi=1 << 16))
    return f"""
        .data
text:
{data}
        .text
main:   movi r1, text
        movi r2, {iters}
        movi r20, 0
loop:   movi r3, 8          # scan 8 "characters", predictable
scan:   andi r4, r20, 63
        slli r5, r4, 3
        add  r6, r1, r5
        ld   r7, 0(r6)
        addi r20, r20, 1
        slli r8, r9, 1
        xor  r9, r8, r7     # rolling match state
        subi r3, r3, 1
        bgt  r3, scan
        # rare data-dependent branch: "pattern matched?"
        andi r10, r9, 15
        beq  r10, matched
        addi r11, r11, 1
        br   cont
matched: addi r12, r12, 1
        xor  r9, r9, r9
cont:   subi r2, r2, 1
        bgt  r2, loop
        halt
"""


def su2cor(iters: int = DEFAULT_ITERS) -> str:
    """Quantum-physics-style FP vector loop with occasional data tests."""
    rng = random.Random(0x5002)
    doubles = ", ".join(f"{rng.uniform(0.1, 2.0):.6f}" for _ in range(32))
    return f"""
        .data
vec:    .double {doubles}
        .text
main:   movi r1, vec
        movi r2, {iters}
        movi r20, 0
loop:   andi r3, r20, 31
        slli r4, r3, 3
        add  r5, r1, r4
        fld  f1, 0(r5)
        addi r20, r20, 1
        fmul f2, f1, f1     # gauge-update-ish arithmetic
        fadd f3, f3, f2
        fmul f4, f3, f1
        fsub f5, f4, f2
        # occasional data-dependent acceptance test
        fcmplt r6, f5, f3
        beq  r6, accept
        fadd f6, f6, f1
        br   cont
accept: fadd f7, f7, f2
cont:   subi r2, r2, 1
        bgt  r2, loop
        halt
"""


def tomcatv(iters: int = DEFAULT_ITERS) -> str:
    """Mesh-generation stencil: counted FP loops, near-perfect prediction."""
    rng = random.Random(0x70C)
    doubles = ", ".join(f"{rng.uniform(0.5, 1.5):.6f}" for _ in range(48))
    return f"""
        .data
mesh:   .double {doubles}
out:    .space 384
        .text
main:   movi r1, mesh
        movi r9, out
        movi r2, {iters}
loop:   movi r3, 16         # inner stencil sweep (counted: predictable)
        movi r4, 0
sweep:  slli r5, r4, 3
        add  r6, r1, r5
        fld  f1, 0(r6)
        fld  f2, 8(r6)
        fld  f3, 16(r6)
        fadd f4, f1, f3
        fmul f5, f4, f2
        fsub f6, f5, f1
        add  r7, r9, r5
        fst  f6, 0(r7)
        addi r4, r4, 1
        subi r3, r3, 1
        bgt  r3, sweep
        subi r2, r2, 1
        bgt  r2, loop
        halt
"""


def vortex(iters: int = DEFAULT_ITERS) -> str:
    """Object-database workload: pointer chasing with calls."""
    # Build a deterministic circular linked list: node = [value, next].
    rng = random.Random(0xB0)
    order = list(range(32))
    rng.shuffle(order)
    words: List[int] = [0] * 64
    node_base = 0  # filled by the suite at assembly time via labels
    for i, this in enumerate(order):
        nxt = order[(i + 1) % len(order)]
        words[2 * this] = rng.randrange(1, 1 << 20)  # value
        words[2 * this + 1] = nxt  # next node index
    data = _word_directive(words)
    return f"""
        .data
nodes:
{data}
        .text
main:   movi r1, nodes
        movi r2, {iters}
        movi r3, 0          # current node index
loop:   slli r4, r3, 4      # node stride = 16 bytes
        add  r5, r1, r4
        jsr  ra, visit
        ld   r3, 8(r5)      # chase the next pointer
        subi r2, r2, 1
        bgt  r2, loop
        halt
visit:  ld   r6, 0(r5)      # node payload
        andi r7, r6, 255
        add  r8, r8, r7
        srli r9, r6, 8
        xor  r10, r10, r9
        addi r11, r11, 1
        ret  (ra)
"""


#: Benchmark name → source builder, in the paper's Figure 3 order.
KERNELS: Dict[str, Callable[..., str]] = {
    "compress": compress,
    "gcc": gcc,
    "go": go,
    "li": li,
    "perl": perl,
    "su2cor": su2cor,
    "tomcatv": tomcatv,
    "vortex": vortex,
}

#: The paper's integer / floating-point split.
INTEGER_KERNELS = ("compress", "gcc", "go", "li", "perl", "vortex")
FP_KERNELS = ("su2cor", "tomcatv")
