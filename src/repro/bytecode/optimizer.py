"""Peephole bytecode optimizer: folding, jump threading, superinstructions.

Runs after compilation, before caching (both the optimized form and its
determinism survive the code cache).  Three classic passes:

* **constant folding** — ``LOAD_CONST a; LOAD_CONST b; BINARY op`` (and the
  unary form) collapse to a single ``LOAD_CONST`` when ``op`` is pure and
  the operands are literals.  Folding replicates the VM's exact semantics
  via the shared :mod:`repro.runtime.values` coercions; a property test
  (tests/test_optimizer.py) cross-checks folded results against
  unoptimized execution.
* **jump threading** — a jump whose target is an unconditional ``JUMP``
  lands directly on the final destination (chains collapse transitively).
* **superinstruction fusion** — the two hottest loop idioms collapse into
  single fused opcodes: the local-increment statement
  (``LOAD_LOCAL s; LOAD_CONST k; BINARY ADD; DUP; STORE_LOCAL s; POP``
  → ``INC_LOCAL_CONST``) and compare+branch
  (``BINARY <cmp>; JUMP_IF_FALSE/TRUE t`` → ``CMP_JUMP_IF_FALSE/TRUE``).
  A fused instruction pays one ``DISPATCH`` where the window paid
  several; everything else about its accounting and semantics is the
  plain sequence's, so fused and unfused code differ only in dispatch
  count (see ``cost_model.FUSED_*`` and tests/test_optimizer.py).  Fusion
  runs last so windows are matched against final (folded, threaded)
  instruction streams.

Rewriting is jump-target-safe: a pattern is only rewritten when no jump
lands *inside* it, and all targets are remapped through the compaction
map.  Feedback-slot numbering — the identity RIC depends on — is never
touched (no fused window contains an IC site).
"""

from __future__ import annotations

from repro.bytecode.code import CodeObject
from repro.bytecode.opcodes import BinOp, Op, UnOp
from repro.runtime.values import (
    loose_equals,
    number_divide,
    number_remainder,
    strict_equals,
    to_boolean,
    to_int32,
    to_number,
    to_string,
    to_uint32,
)

#: Opcodes that push a literal; value derivation below.
_CONST_PUSH_OPS = {
    int(Op.LOAD_CONST),
    int(Op.LOAD_TRUE),
    int(Op.LOAD_FALSE),
}

_JUMP_OPS = {
    int(Op.JUMP),
    int(Op.JUMP_IF_FALSE),
    int(Op.JUMP_IF_TRUE),
    int(Op.JUMP_IF_FALSE_KEEP),
    int(Op.JUMP_IF_TRUE_KEEP),
    int(Op.SETUP_TRY),
    int(Op.FOR_IN_NEXT),
    int(Op.CMP_JUMP_IF_FALSE),
    int(Op.CMP_JUMP_IF_TRUE),
    # Typed (quickened) variants never reach the optimizer — quickening
    # runs on already-optimized, cached code — but keep them retargetable
    # so a hypothetical re-optimization of a quickened tree stays sound.
    int(Op.CMP_INT_JUMP_IF_FALSE),
    int(Op.CMP_INT_JUMP_IF_TRUE),
    int(Op.CMP_NUM_JUMP_IF_FALSE),
    int(Op.CMP_NUM_JUMP_IF_TRUE),
}

#: Comparison operators eligible for compare+branch fusion.  All are
#: pure (no guest-visible coercion side effects, never throw), so
#: evaluating the comparison inside the fused handler is indistinguishable
#: from the BINARY;JUMP_IF_* pair.
_FUSABLE_CMP_BINOPS = {
    int(BinOp.EQ),
    int(BinOp.NEQ),
    int(BinOp.STRICT_EQ),
    int(BinOp.STRICT_NEQ),
    int(BinOp.LT),
    int(BinOp.GT),
    int(BinOp.LE),
    int(BinOp.GE),
}

#: Binary operators safe to fold (pure; no runtime or object semantics).
_FOLDABLE_BINOPS = {
    BinOp.ADD,
    BinOp.SUB,
    BinOp.MUL,
    BinOp.DIV,
    BinOp.MOD,
    BinOp.EQ,
    BinOp.NEQ,
    BinOp.STRICT_EQ,
    BinOp.STRICT_NEQ,
    BinOp.LT,
    BinOp.GT,
    BinOp.LE,
    BinOp.GE,
    BinOp.BIT_AND,
    BinOp.BIT_OR,
    BinOp.BIT_XOR,
    BinOp.SHL,
    BinOp.SHR,
    BinOp.USHR,
}


def fold_binary(op: int, left: object, right: object) -> object:
    """Pure-subset mirror of the VM's BINARY semantics (see
    ``VM._binary``); only called for :data:`_FOLDABLE_BINOPS`."""
    if op == BinOp.ADD:
        if isinstance(left, str) or isinstance(right, str):
            return to_string(left) + to_string(right)
        return to_number(left) + to_number(right)
    if op == BinOp.SUB:
        return to_number(left) - to_number(right)
    if op == BinOp.MUL:
        return to_number(left) * to_number(right)
    if op == BinOp.DIV:
        return number_divide(to_number(left), to_number(right))
    if op == BinOp.MOD:
        return number_remainder(to_number(left), to_number(right))
    if op == BinOp.EQ:
        return loose_equals(left, right)
    if op == BinOp.NEQ:
        return not loose_equals(left, right)
    if op == BinOp.STRICT_EQ:
        return strict_equals(left, right)
    if op == BinOp.STRICT_NEQ:
        return not strict_equals(left, right)
    if op in (BinOp.LT, BinOp.GT, BinOp.LE, BinOp.GE):
        if isinstance(left, str) and isinstance(right, str):
            a, b = left, right
        else:
            a, b = to_number(left), to_number(right)
            if a != a or b != b:
                return False
        if op == BinOp.LT:
            return a < b
        if op == BinOp.GT:
            return a > b
        if op == BinOp.LE:
            return a <= b
        return a >= b
    if op == BinOp.BIT_AND:
        return float(to_int32(left) & to_int32(right))
    if op == BinOp.BIT_OR:
        return float(to_int32(left) | to_int32(right))
    if op == BinOp.BIT_XOR:
        return float(to_int32(left) ^ to_int32(right))
    if op == BinOp.SHL:
        shifted = (to_int32(left) << (to_uint32(right) & 31)) & 0xFFFFFFFF
        if shifted >= 0x80000000:
            shifted -= 0x100000000
        return float(shifted)
    if op == BinOp.SHR:
        return float(to_int32(left) >> (to_uint32(right) & 31))
    if op == BinOp.USHR:
        return float(to_uint32(left) >> (to_uint32(right) & 31))
    raise AssertionError(f"unfoldable op {op}")  # pragma: no cover


def fold_unary(op: int, operand: object) -> object:
    """Mirror of ``VM._unary``."""
    if op == UnOp.NEG:
        return -to_number(operand)
    if op == UnOp.PLUS:
        return to_number(operand)
    if op == UnOp.NOT:
        return not to_boolean(operand)
    if op == UnOp.BIT_NOT:
        return float(~to_int32(operand))
    raise AssertionError(f"unfoldable unary {op}")  # pragma: no cover


def _const_value(instruction: tuple, constants: list) -> object | None:
    """The literal value pushed by a const-push instruction (or sentinel)."""
    op, a, _ = instruction
    if op == Op.LOAD_CONST:
        value = constants[a]
        if isinstance(value, (float, str)) and not isinstance(value, bool):
            return value
        return _NOT_CONST
    if op == Op.LOAD_TRUE:
        return True
    if op == Op.LOAD_FALSE:
        return False
    return _NOT_CONST


_NOT_CONST = object()


class OptimizeResult:
    """Per-code-object optimization statistics."""

    def __init__(self) -> None:
        self.binary_folds = 0
        self.unary_folds = 0
        self.threaded_jumps = 0
        self.fused_inc_locals = 0
        self.fused_cmp_jumps = 0

    @property
    def total(self) -> int:
        return (
            self.binary_folds
            + self.unary_folds
            + self.threaded_jumps
            + self.fused_inc_locals
            + self.fused_cmp_jumps
        )

    def __repr__(self) -> str:
        return (
            f"<OptimizeResult folds={self.binary_folds}+{self.unary_folds} "
            f"threads={self.threaded_jumps} "
            f"fused={self.fused_inc_locals}+{self.fused_cmp_jumps}>"
        )


def optimize_code(code: CodeObject) -> OptimizeResult:
    """Optimize ``code`` and all nested functions, in place."""
    result = OptimizeResult()
    for nested in code.iter_code_objects():
        _optimize_one(nested, result)
    return result


def _optimize_one(code: CodeObject, result: OptimizeResult) -> None:
    changed = True
    while changed:
        changed = _fold_constants(code, result)
    _thread_jumps(code, result)
    # Fusion runs last: folding has already canonicalized constant
    # operands and threading has finalized every jump target, so the
    # windows matched here are the ones the VM would actually execute.
    _fuse_superinstructions(code, result)


def _jump_targets(code: CodeObject) -> set[int]:
    return {
        a
        for op, a, _ in code.instructions
        if op in _JUMP_OPS
    }


def _fold_constants(code: CodeObject, result: OptimizeResult) -> bool:
    instructions = code.instructions
    targets = _jump_targets(code)
    new_instructions: list[tuple[int, int, int]] = []
    new_positions: list[tuple[int, int]] = []
    pc_map: list[int] = []  # old pc -> new pc
    constants = code.constants
    folded = False

    def intern_const(value: object) -> tuple[int, int, int]:
        if value is True:
            return (int(Op.LOAD_TRUE), 0, 0)
        if value is False:
            return (int(Op.LOAD_FALSE), 0, 0)
        constants.append(value)
        return (int(Op.LOAD_CONST), len(constants) - 1, 0)

    index = 0
    count = len(instructions)
    while index < count:
        pc_map.append(len(new_instructions))
        instruction = instructions[index]
        op = instruction[0]

        # Binary fold: [const, const, BINARY] with no jump landing inside.
        if (
            op in _CONST_PUSH_OPS
            and index + 2 < count
            and instructions[index + 1][0] in _CONST_PUSH_OPS
            and instructions[index + 2][0] == Op.BINARY
            and instructions[index + 2][1] in _FOLDABLE_BINOPS
            and (index + 1) not in targets
            and (index + 2) not in targets
        ):
            left = _const_value(instruction, constants)
            right = _const_value(instructions[index + 1], constants)
            if left is not _NOT_CONST and right is not _NOT_CONST:
                value = fold_binary(instructions[index + 2][1], left, right)
                new_instructions.append(intern_const(value))
                new_positions.append(code.positions[index])
                pc_map.extend([len(new_instructions) - 1] * 2)
                index += 3
                result.binary_folds += 1
                folded = True
                continue

        # Unary fold: [const, UNARY].
        if (
            op in _CONST_PUSH_OPS
            and index + 1 < count
            and instructions[index + 1][0] == Op.UNARY
            and (index + 1) not in targets
        ):
            operand = _const_value(instruction, constants)
            if operand is not _NOT_CONST:
                value = fold_unary(instructions[index + 1][1], operand)
                new_instructions.append(intern_const(value))
                new_positions.append(code.positions[index])
                pc_map.append(len(new_instructions) - 1)
                index += 2
                result.unary_folds += 1
                folded = True
                continue

        new_instructions.append(instruction)
        new_positions.append(code.positions[index])
        index += 1

    if not folded:
        return False

    pc_map.append(len(new_instructions))  # end-of-code jump targets
    code.instructions = [
        (op, pc_map[a] if op in _JUMP_OPS else a, b)
        for op, a, b in new_instructions
    ]
    code.positions = new_positions
    return True


def _thread_jumps(code: CodeObject, result: OptimizeResult) -> None:
    instructions = code.instructions

    def final_target(target: int, hops: int = 0) -> int:
        if hops > len(instructions):
            return target  # defensive: cycles cannot happen, but cap anyway
        if target < len(instructions) and instructions[target][0] == Op.JUMP:
            return final_target(instructions[target][1], hops + 1)
        return target

    for index, (op, a, b) in enumerate(instructions):
        if op in _JUMP_OPS:
            resolved = final_target(a)
            if resolved != a:
                instructions[index] = (op, resolved, b)
                result.threaded_jumps += 1


def _fuse_superinstructions(code: CodeObject, result: OptimizeResult) -> None:
    """Collapse hot multi-instruction idioms into single fused opcodes.

    Two windows, matched in one left-to-right scan:

    * ``LOAD_LOCAL s; LOAD_CONST k; BINARY ADD; DUP; STORE_LOCAL s; POP``
      — the statement form of ``s = s + k`` / ``s += k`` / ``s++`` the
      compiler emits — becomes ``INC_LOCAL_CONST s, k`` (zero net stack
      effect, like the window).
    * ``BINARY <cmp>; JUMP_IF_FALSE/TRUE t`` — a loop or ``if``
      condition — becomes ``CMP_JUMP_IF_FALSE/TRUE t, <cmp>``.

    A window fuses only when no jump lands on any instruction after its
    first (landing *on* the window start is fine: it maps to the fused
    instruction).  The constant operand is restricted to number/string
    literals so the fused ADD can never observe guest objects' coercion
    hooks mid-window; comparison fusion is restricted to the pure
    :data:`_FUSABLE_CMP_BINOPS`.  Both make the fused handler
    throw-free, so try/catch can never need to unwind mid-window.
    """
    instructions = code.instructions
    targets = _jump_targets(code)
    constants = code.constants
    new_instructions: list[tuple[int, int, int]] = []
    new_positions: list[tuple[int, int]] = []
    pc_map: list[int] = []  # old pc -> new pc
    fused = False

    index = 0
    count = len(instructions)
    while index < count:
        pc_map.append(len(new_instructions))
        op, a, b = instructions[index]

        if (
            op == Op.LOAD_LOCAL
            and index + 5 < count
            and instructions[index + 1][0] == Op.LOAD_CONST
            and instructions[index + 2][0] == Op.BINARY
            and instructions[index + 2][1] == BinOp.ADD
            and instructions[index + 3][0] == Op.DUP
            and instructions[index + 4][0] == Op.STORE_LOCAL
            and instructions[index + 4][1] == a
            and instructions[index + 5][0] == Op.POP
            and all(index + offset not in targets for offset in range(1, 6))
            and isinstance(constants[instructions[index + 1][1]], (float, str))
        ):
            new_instructions.append(
                (int(Op.INC_LOCAL_CONST), a, instructions[index + 1][1])
            )
            new_positions.append(code.positions[index])
            pc_map.extend([len(new_instructions) - 1] * 5)
            index += 6
            result.fused_inc_locals += 1
            fused = True
            continue

        if (
            op == Op.BINARY
            and a in _FUSABLE_CMP_BINOPS
            and index + 1 < count
            and instructions[index + 1][0]
            in (Op.JUMP_IF_FALSE, Op.JUMP_IF_TRUE)
            and (index + 1) not in targets
        ):
            jump_op = instructions[index + 1][0]
            fused_op = (
                Op.CMP_JUMP_IF_FALSE
                if jump_op == Op.JUMP_IF_FALSE
                else Op.CMP_JUMP_IF_TRUE
            )
            new_instructions.append(
                (int(fused_op), instructions[index + 1][1], a)
            )
            new_positions.append(code.positions[index])
            pc_map.append(len(new_instructions) - 1)
            index += 2
            result.fused_cmp_jumps += 1
            fused = True
            continue

        new_instructions.append(instructions[index])
        new_positions.append(code.positions[index])
        index += 1

    if not fused:
        return

    pc_map.append(len(new_instructions))  # end-of-code jump targets
    code.instructions = [
        (op, pc_map[a] if op in _JUMP_OPS else a, b)
        for op, a, b in new_instructions
    ]
    code.positions = new_positions
