"""A small two-pass assembler for the RRISC ISA.

Syntax, one statement per line::

    # comment
            .data
    table:  .word 1, 2, 3          # 64-bit words
    buf:    .space 256             # zero-filled bytes
    pi:     .double 3.14159        # 64-bit IEEE double
            .text
    main:   movi  r1, 0
    loop:   ld    r2, 0(r3)
            add   r1, r1, r2
            addi  r3, r3, 8
            bne   r2, loop
            halt

Labels resolve to byte addresses; an immediate operand may be a label
(it assembles to the label's address, handy for ``movi rX, table``).
Branch and jump targets may be labels or absolute integers.
"""

from __future__ import annotations

import re
import struct
from typing import Dict, List, Optional, Tuple

from .instruction import INSTRUCTION_BYTES, Instruction
from .opcodes import Format, MNEMONICS, info
from .program import DATA_BASE, Program, TEXT_BASE
from .registers import parse_reg, FP_BASE

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")

#: Pseudo-instructions: each expands to exactly one real instruction,
#: so the first pass's size accounting is unaffected.  Operand
#: placeholders {0}, {1}, ... are substituted textually.
PSEUDO_OPS = {
    "mov": (2, "or {0}, {1}, zero"),
    "fmov": (2, "fadd {0}, {1}, fzero"),
    "neg": (2, "sub {0}, zero, {1}"),
    "not": (2, "xori {0}, {1}, -1"),
    "clr": (1, "movi {0}, 0"),
    "inc": (1, "addi {0}, {0}, 1"),
    "dec": (1, "subi {0}, {0}, 1"),
    "bz": (2, "beq {0}, {1}"),
    "bnz": (2, "bne {0}, {1}"),
    "j": (1, "br {0}"),
}


class AssemblerError(ValueError):
    """Raised for any syntax or resolution error, with line context."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _split_statement(line: str) -> Tuple[Optional[str], str]:
    """Strip comments and split an optional leading ``label:``."""
    code = line.split("#", 1)[0].strip()
    if not code:
        return None, ""
    label = None
    if ":" in code:
        head, rest = code.split(":", 1)
        head = head.strip()
        if _LABEL_RE.match(head):
            label = head
            code = rest.strip()
    return label, code


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblerError(lineno, f"bad integer {token!r}") from exc


class Assembler:
    """Two-pass assembler producing a :class:`~repro.isa.program.Program`."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source: str, name: str = "program") -> Program:
        labels = self._first_pass(source)
        instructions, data = self._second_pass(source, labels)
        return Program(
            name=name,
            instructions=instructions,
            text_base=self.text_base,
            data=bytes(data),
            data_base=self.data_base,
            labels=labels,
        )

    # ------------------------------------------------------------------
    def _first_pass(self, source: str) -> Dict[str, int]:
        labels: Dict[str, int] = {}
        text_off = 0
        data_off = 0
        section = "text"
        for lineno, line in enumerate(source.splitlines(), start=1):
            label, code = _split_statement(line)
            if label is not None:
                if label in labels:
                    raise AssemblerError(lineno, f"duplicate label {label!r}")
                base = self.text_base if section == "text" else self.data_base
                off = text_off if section == "text" else data_off
                labels[label] = base + off
            if not code:
                continue
            if code.startswith("."):
                section, text_off, data_off = self._directive_size(
                    code, lineno, section, text_off, data_off, labels, label
                )
            else:
                if section != "text":
                    raise AssemblerError(lineno, "instruction outside .text")
                text_off += INSTRUCTION_BYTES
        return labels

    def _directive_size(
        self,
        code: str,
        lineno: int,
        section: str,
        text_off: int,
        data_off: int,
        labels: Dict[str, int],
        label: Optional[str],
    ) -> Tuple[str, int, int]:
        parts = code.split(None, 1)
        directive = parts[0]
        arg = parts[1] if len(parts) > 1 else ""
        if directive == ".text":
            return "text", text_off, data_off
        if directive == ".data":
            return "data", text_off, data_off
        if section != "data":
            raise AssemblerError(lineno, f"{directive} outside .data")
        if directive == ".word":
            count = len([a for a in arg.split(",") if a.strip()])
            if count == 0:
                raise AssemblerError(lineno, ".word needs at least one value")
            data_off += 8 * count
        elif directive == ".double":
            count = len([a for a in arg.split(",") if a.strip()])
            if count == 0:
                raise AssemblerError(lineno, ".double needs at least one value")
            data_off += 8 * count
        elif directive == ".space":
            n = _parse_int(arg.strip(), lineno)
            if n < 0:
                raise AssemblerError(lineno, ".space size must be non-negative")
            data_off += n
        elif directive == ".align":
            n = _parse_int(arg.strip(), lineno)
            if n <= 0 or n & (n - 1):
                raise AssemblerError(lineno, ".align needs a power of two")
            pad = (-data_off) % n
            data_off += pad
            if label is not None:
                labels[label] = self.data_base + data_off
        else:
            raise AssemblerError(lineno, f"unknown directive {directive!r}")
        return section, text_off, data_off

    # ------------------------------------------------------------------
    def _second_pass(
        self, source: str, labels: Dict[str, int]
    ) -> Tuple[List[Instruction], bytearray]:
        instructions: List[Instruction] = []
        data = bytearray()
        section = "text"
        for lineno, line in enumerate(source.splitlines(), start=1):
            _, code = _split_statement(line)
            if not code:
                continue
            if code.startswith("."):
                section = self._emit_directive(code, lineno, section, data, labels)
                continue
            pc = self.text_base + len(instructions) * INSTRUCTION_BYTES
            instructions.append(self._emit_instruction(code, lineno, pc, labels))
        return instructions, data

    def _emit_directive(
        self,
        code: str,
        lineno: int,
        section: str,
        data: bytearray,
        labels: Dict[str, int],
    ) -> str:
        parts = code.split(None, 1)
        directive = parts[0]
        arg = parts[1] if len(parts) > 1 else ""
        if directive == ".text":
            return "text"
        if directive == ".data":
            return "data"
        if directive == ".word":
            for token in arg.split(","):
                token = token.strip()
                if not token:
                    continue
                value = labels.get(token)
                if value is None:
                    value = _parse_int(token, lineno)
                value &= (1 << 64) - 1
                if value >= 1 << 63:
                    value -= 1 << 64
                data.extend(struct.pack("<q", value))
        elif directive == ".double":
            for token in arg.split(","):
                token = token.strip()
                if not token:
                    continue
                try:
                    value = float(token)
                except ValueError as exc:
                    raise AssemblerError(lineno, f"bad float {token!r}") from exc
                data.extend(struct.pack("<d", value))
        elif directive == ".space":
            data.extend(b"\x00" * _parse_int(arg.strip(), lineno))
        elif directive == ".align":
            n = _parse_int(arg.strip(), lineno)
            data.extend(b"\x00" * ((-len(data)) % n))
        return section

    def _resolve(self, token: str, labels: Dict[str, int], lineno: int) -> int:
        token = token.strip()
        if token in labels:
            return labels[token]
        return _parse_int(token, lineno)

    def _emit_instruction(
        self, code: str, lineno: int, pc: int, labels: Dict[str, int]
    ) -> Instruction:
        parts = code.split(None, 1)
        mnem = parts[0].lower()
        if mnem in PSEUDO_OPS:
            arity, template = PSEUDO_OPS[mnem]
            operands = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
            if len(operands) != arity:
                raise AssemblerError(
                    lineno, f"{mnem} takes {arity} operands, got {len(operands)}"
                )
            code = template.format(*operands)
            parts = code.split(None, 1)
            mnem = parts[0].lower()
        op = MNEMONICS.get(mnem)
        if op is None:
            raise AssemblerError(lineno, f"unknown mnemonic {mnem!r}")
        oi = info(op)
        raw_ops = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []

        def reg(i: int, want_fp: bool) -> int:
            try:
                unified = parse_reg(raw_ops[i])
            except (ValueError, IndexError) as exc:
                raise AssemblerError(lineno, f"bad operand {i} in {code!r}") from exc
            fp = unified >= FP_BASE
            if fp != want_fp:
                kind = "fp" if want_fp else "integer"
                raise AssemblerError(lineno, f"operand {i} of {mnem} must be {kind}")
            return unified - FP_BASE if fp else unified

        def need(n: int) -> None:
            if len(raw_ops) != n:
                raise AssemblerError(lineno, f"{mnem} takes {n} operands, got {len(raw_ops)}")

        f = oi.fmt
        if f is Format.R3:
            need(3)
            return Instruction(
                op, rd=reg(0, oi.dst_fp), ra=reg(1, oi.src_fp), rb=reg(2, oi.src_fp)
            )
        if f is Format.R2I:
            need(3)
            return Instruction(
                op, rd=reg(0, False), ra=reg(1, False),
                imm=self._resolve(raw_ops[2], labels, lineno),
            )
        if f is Format.RI:
            need(2)
            return Instruction(op, rd=reg(0, False), imm=self._resolve(raw_ops[1], labels, lineno))
        if f in (Format.LOAD, Format.STORE):
            need(2)
            m = _MEM_RE.match(raw_ops[1].replace(" ", ""))
            if not m:
                raise AssemblerError(lineno, f"bad memory operand {raw_ops[1]!r}")
            imm_tok, base_tok = m.groups()
            imm = self._resolve(imm_tok, labels, lineno)
            try:
                base = parse_reg(base_tok)
            except ValueError as exc:
                raise AssemblerError(lineno, f"bad base register {base_tok!r}") from exc
            if base >= FP_BASE:
                raise AssemblerError(lineno, "base register must be integer")
            if f is Format.LOAD:
                return Instruction(op, rd=reg(0, oi.dst_fp), ra=base, imm=imm)
            return Instruction(op, rb=reg(0, oi.src_fp), ra=base, imm=imm)
        if f is Format.BRANCH:
            need(2)
            return Instruction(
                op, ra=reg(0, False), target=self._resolve(raw_ops[1], labels, lineno)
            )
        if f is Format.JUMP:
            if oi.is_call:
                need(2)
                return Instruction(
                    op, rd=reg(0, False), target=self._resolve(raw_ops[1], labels, lineno)
                )
            need(1)
            return Instruction(op, target=self._resolve(raw_ops[0], labels, lineno))
        if f is Format.JUMP_REG:
            need(1)
            token = raw_ops[0].strip("() ")
            try:
                base = parse_reg(token)
            except ValueError as exc:
                raise AssemblerError(lineno, f"bad register {token!r}") from exc
            return Instruction(op, ra=base)
        need(0)
        return Instruction(op)


def assemble(source: str, name: str = "program", **kwargs) -> Program:
    """Convenience wrapper: assemble ``source`` into a Program."""
    return Assembler(**kwargs).assemble(source, name=name)
