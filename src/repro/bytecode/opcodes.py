"""Instruction set of the jsl stack VM.

The VM is a classic stack machine.  Each instruction is a ``(opcode, a, b)``
triple; the meaning of the ``a`` / ``b`` operands is per-opcode (documented
next to each opcode below).  Object access sites — the unit the paper's IC
machinery works on — are the ``GET_PROP`` / ``SET_PROP`` / ``OBJ_LIT_PROP`` /
``GET_INDEX`` / ``SET_INDEX`` / ``LOAD_GLOBAL`` / ``STORE_GLOBAL`` /
``DECLARE_GLOBAL`` instructions; each carries a feedback-slot index into the
function's :class:`~repro.ic.icvector.ICVector`.
"""

from __future__ import annotations

import enum
from types import SimpleNamespace


class Op(enum.IntEnum):
    """Opcodes.  Operand meanings:

    ========================= ============================ ==================
    opcode                    a                            b
    ========================= ============================ ==================
    LOAD_CONST                constant-pool index          —
    LOAD_UNDEFINED/NULL/...   —                            —
    LOAD_LOCAL / STORE_LOCAL  local slot index             —
    LOAD_ENV / STORE_ENV      hops up the env chain        slot index
    LOAD_GLOBAL               name-pool index              feedback slot
    STORE_GLOBAL              name-pool index              feedback slot
    DECLARE_GLOBAL            name-pool index              feedback slot
    GET_PROP                  name-pool index              feedback slot
    SET_PROP                  name-pool index              feedback slot
    OBJ_LIT_PROP              name-pool index              feedback slot
    GET_INDEX                 feedback slot                —
    SET_INDEX                 feedback slot                —
    DELETE_PROP               name-pool index              —
    DELETE_INDEX              —                            —
    MAKE_FUNCTION             constant-pool index (code)   —
    MAKE_OBJECT               —                            —
    MAKE_ARRAY                element count                —
    CALL                      argument count               —
    CALL_METHOD               argument count               —
    NEW                       argument count               —
    JUMP / JUMP_IF_*          target pc                    —
    BINARY                    BinOp value                  —
    UNARY                     UnOp value                   —
    SETUP_TRY                 catch target pc              —
    FOR_IN_NEXT               jump-when-done target pc     —
    INC_LOCAL_CONST           local slot index             constant-pool index
    CMP_JUMP_IF_FALSE         target pc                    BinOp value
    CMP_JUMP_IF_TRUE          target pc                    BinOp value
    ADD_INT / ADD_NUM         BinOp value (always ADD)     —
    SUB_NUM / MUL_NUM         BinOp value (SUB / MUL)      —
    CMP_INT_JUMP_IF_FALSE     target pc                    BinOp value
    CMP_INT_JUMP_IF_TRUE      target pc                    BinOp value
    CMP_NUM_JUMP_IF_FALSE     target pc                    BinOp value
    CMP_NUM_JUMP_IF_TRUE      target pc                    BinOp value
    GET_PROP_SLOT             spec-table index             feedback slot
    SET_PROP_SLOT             spec-table index             feedback slot
    ========================= ============================ ==================
    """

    # Constants / simple pushes.
    LOAD_CONST = 1
    LOAD_UNDEFINED = 2
    LOAD_NULL = 3
    LOAD_TRUE = 4
    LOAD_FALSE = 5
    LOAD_THIS = 6

    # Variables.
    LOAD_LOCAL = 10
    STORE_LOCAL = 11
    LOAD_ENV = 12
    STORE_ENV = 13
    LOAD_GLOBAL = 14
    STORE_GLOBAL = 15
    DECLARE_GLOBAL = 16
    LOAD_GLOBAL_SOFT = 17  # like LOAD_GLOBAL but yields undefined if absent

    # Object access sites (IC-carrying).
    GET_PROP = 20
    SET_PROP = 21
    OBJ_LIT_PROP = 22
    GET_INDEX = 23
    SET_INDEX = 24
    DELETE_PROP = 25
    DELETE_INDEX = 26

    # Allocation.
    MAKE_FUNCTION = 30
    MAKE_OBJECT = 31
    MAKE_ARRAY = 32

    # Calls.
    CALL = 40
    CALL_METHOD = 41
    NEW = 42
    RETURN = 43

    # Control flow.
    JUMP = 50
    JUMP_IF_FALSE = 51
    JUMP_IF_TRUE = 52
    JUMP_IF_FALSE_KEEP = 53  # for `&&`: leaves the tested value on the stack
    JUMP_IF_TRUE_KEEP = 54  # for `||`
    THROW = 55
    SETUP_TRY = 56
    POP_TRY = 57
    FOR_IN_PREP = 58
    FOR_IN_NEXT = 59

    # Operators.
    BINARY = 60
    UNARY = 61
    TYPEOF = 62

    # Stack manipulation.
    POP = 70
    DUP = 71
    SWAP = 72
    DUP2 = 73  # duplicates the top two entries: a b -> a b a b

    # Fused superinstructions.  The compiler never emits these; the
    # peephole optimizer (bytecode/optimizer.py) collapses hot
    # multi-instruction idioms into them, so a loop body pays one
    # dispatch where it paid several.
    INC_LOCAL_CONST = 80  # locals[a] = locals[a] + consts[b]; no stack effect
    CMP_JUMP_IF_FALSE = 81  # pop rhs, lhs; jump to a unless BinOp(b) holds
    CMP_JUMP_IF_TRUE = 82  # pop rhs, lhs; jump to a if BinOp(b) holds

    # Type-specialized (quickened) opcodes.  Neither the compiler nor the
    # optimizer emits these; the quickening pass (repro/specialize/) rewrites
    # generic opcodes into them at session pre-flight, driven by the
    # ``site_feedback`` section of a persisted ICRecord.  Every one carries
    # an inline guard and deoptimizes — rewriting itself back to its generic
    # form in place — the first time the guard fails.
    ADD_INT = 90  # both operands integral numbers, else deopt to BINARY
    ADD_NUM = 91  # both operands numbers, else deopt to BINARY
    SUB_NUM = 92
    MUL_NUM = 93
    CMP_INT_JUMP_IF_FALSE = 94  # typed CMP_JUMP_IF_FALSE (integral operands)
    CMP_INT_JUMP_IF_TRUE = 95
    CMP_NUM_JUMP_IF_FALSE = 96  # typed CMP_JUMP_IF_FALSE (numeric operands)
    CMP_NUM_JUMP_IF_TRUE = 97
    GET_PROP_SLOT = 98  # direct-offset load via spec_table[a], else deopt
    SET_PROP_SLOT = 99  # direct-offset overwrite store, else deopt


#: The members of :class:`Op` as plain attributes (``Ops.GET_PROP is
#: Op.GET_PROP``), for code that runs per instruction: on CPython 3.11 a
#: lookup on the enum class itself runs the enum metaclass's attribute
#: hook, ~10x a plain attribute read (docs/INTERNALS.md §8).
Ops = SimpleNamespace(**Op.__members__)


class BinOp(enum.IntEnum):
    """Binary operators for the BINARY opcode."""

    ADD = 1
    SUB = 2
    MUL = 3
    DIV = 4
    MOD = 5
    EQ = 6
    NEQ = 7
    STRICT_EQ = 8
    STRICT_NEQ = 9
    LT = 10
    GT = 11
    LE = 12
    GE = 13
    BIT_AND = 14
    BIT_OR = 15
    BIT_XOR = 16
    SHL = 17
    SHR = 18
    USHR = 19
    IN = 20
    INSTANCEOF = 21


#: The members of :class:`BinOp` as plain attributes (see :data:`Ops`).
BinOps = SimpleNamespace(**BinOp.__members__)


class UnOp(enum.IntEnum):
    """Unary operators for the UNARY opcode."""

    NEG = 1
    PLUS = 2
    NOT = 3
    BIT_NOT = 4


#: The members of :class:`UnOp` as plain attributes (see :data:`Ops`).
UnOps = SimpleNamespace(**UnOp.__members__)


#: jsl spelling -> BinOp, used by the compiler.
BINOP_BY_SPELLING: dict[str, BinOp] = {
    "+": BinOp.ADD,
    "-": BinOp.SUB,
    "*": BinOp.MUL,
    "/": BinOp.DIV,
    "%": BinOp.MOD,
    "==": BinOp.EQ,
    "!=": BinOp.NEQ,
    "===": BinOp.STRICT_EQ,
    "!==": BinOp.STRICT_NEQ,
    "<": BinOp.LT,
    ">": BinOp.GT,
    "<=": BinOp.LE,
    ">=": BinOp.GE,
    "&": BinOp.BIT_AND,
    "|": BinOp.BIT_OR,
    "^": BinOp.BIT_XOR,
    "<<": BinOp.SHL,
    ">>": BinOp.SHR,
    ">>>": BinOp.USHR,
    "in": BinOp.IN,
    "instanceof": BinOp.INSTANCEOF,
}

#: jsl spelling -> UnOp.
UNOP_BY_SPELLING: dict[str, UnOp] = {
    "-": UnOp.NEG,
    "+": UnOp.PLUS,
    "!": UnOp.NOT,
    "~": UnOp.BIT_NOT,
}
