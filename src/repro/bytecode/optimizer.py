"""Peephole bytecode optimizer: folding, jump threading, superinstructions.

Runs after compilation, before caching (both the optimized form and its
determinism survive the code cache).  Three classic passes:

* **constant folding** — ``LOAD_CONST a; LOAD_CONST b; BINARY op`` (and the
  unary form) collapse to a single ``LOAD_CONST`` when ``op`` is pure and
  the operands are literals.  Folding calls the functions the VM executes,
  from the operator table of :mod:`repro.runtime.operators`; a property
  test (tests/test_optimizer.py) cross-checks folded results against
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
from repro.bytecode.opcodes import BinOp, BinOps, Op, Ops
from repro.runtime.operators import BINARY_OPERATORS, UNARY_OPERATORS

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


def _const_value(instruction: tuple, constants: list) -> object | None:
    """The literal value pushed by a const-push instruction (or sentinel)."""
    op, a, _ = instruction
    if op == Ops.LOAD_CONST:
        value = constants[a]
        if isinstance(value, (float, str)) and not isinstance(value, bool):
            return value
        return _NOT_CONST
    if op == Ops.LOAD_TRUE:
        return True
    if op == Ops.LOAD_FALSE:
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
            return (int(Ops.LOAD_TRUE), 0, 0)
        if value is False:
            return (int(Ops.LOAD_FALSE), 0, 0)
        constants.append(value)
        return (int(Ops.LOAD_CONST), len(constants) - 1, 0)

    index = 0
    count = len(instructions)
    while index < count:
        pc_map.append(len(new_instructions))
        instruction = instructions[index]
        op = instruction[0]

        # Binary fold: [const, const, BINARY] with no jump landing inside,
        # of a pure operator (``in`` and ``instanceof`` have no function).
        if (
            op in _CONST_PUSH_OPS
            and index + 2 < count
            and instructions[index + 1][0] in _CONST_PUSH_OPS
            and instructions[index + 2][0] == Ops.BINARY
            and BINARY_OPERATORS[instructions[index + 2][1]] is not None
            and (index + 1) not in targets
            and (index + 2) not in targets
        ):
            left = _const_value(instruction, constants)
            right = _const_value(instructions[index + 1], constants)
            if left is not _NOT_CONST and right is not _NOT_CONST:
                value = BINARY_OPERATORS[instructions[index + 2][1]](left, right)
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
            and instructions[index + 1][0] == Ops.UNARY
            and (index + 1) not in targets
        ):
            operand = _const_value(instruction, constants)
            if operand is not _NOT_CONST:
                value = UNARY_OPERATORS[instructions[index + 1][1]](operand)
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
        if target < len(instructions) and instructions[target][0] == Ops.JUMP:
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
            op == Ops.LOAD_LOCAL
            and index + 5 < count
            and instructions[index + 1][0] == Ops.LOAD_CONST
            and instructions[index + 2][0] == Ops.BINARY
            and instructions[index + 2][1] == BinOps.ADD
            and instructions[index + 3][0] == Ops.DUP
            and instructions[index + 4][0] == Ops.STORE_LOCAL
            and instructions[index + 4][1] == a
            and instructions[index + 5][0] == Ops.POP
            and all(index + offset not in targets for offset in range(1, 6))
            and isinstance(constants[instructions[index + 1][1]], (float, str))
        ):
            new_instructions.append(
                (int(Ops.INC_LOCAL_CONST), a, instructions[index + 1][1])
            )
            new_positions.append(code.positions[index])
            pc_map.extend([len(new_instructions) - 1] * 5)
            index += 6
            result.fused_inc_locals += 1
            fused = True
            continue

        if (
            op == Ops.BINARY
            and a in _FUSABLE_CMP_BINOPS
            and index + 1 < count
            and instructions[index + 1][0]
            in (Ops.JUMP_IF_FALSE, Ops.JUMP_IF_TRUE)
            and (index + 1) not in targets
        ):
            jump_op = instructions[index + 1][0]
            fused_op = (
                Ops.CMP_JUMP_IF_FALSE
                if jump_op == Ops.JUMP_IF_FALSE
                else Ops.CMP_JUMP_IF_TRUE
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
