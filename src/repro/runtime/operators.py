"""The pure jsl operators: one table per arity, indexed by operator number.

``BINARY_OPERATORS[op]`` is the function ``(left, right) -> value`` of the
:class:`~repro.bytecode.opcodes.BinOp` numbered ``op``;
``UNARY_OPERATORS[op]`` is ``operand -> value`` for :class:`UnOp`.  The
VM runs ``BINARY``, ``UNARY``, the fused ``CMP_JUMP_IF_*`` and
``INC_LOCAL_CONST`` through them, and the optimizer folds constant
operands with the same functions, so a folded result is the executed one
by construction (docs/INTERNALS.md §8, §13).

``IN`` and ``INSTANCEOF`` walk prototype chains, charge the runtime and
throw guest errors, so they are VM methods: their slots here, like the
unused slot 0, are ``None``, and the optimizer folds only what is not.
"""

from __future__ import annotations

from repro.bytecode.opcodes import BinOp, UnOp
from repro.runtime.objects import JSObject
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

_TEXT = (str, JSObject)


def _add(left: object, right: object) -> object:
    # A string operand, or an object (whose primitive is its string
    # form), makes ``+`` concatenation.
    if isinstance(left, _TEXT) or isinstance(right, _TEXT):
        return to_string(left) + to_string(right)
    return to_number(left) + to_number(right)


def _lt(left: object, right: object) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left < right
    # Floats: a NaN operand compares false, as in JS.
    return to_number(left) < to_number(right)


def _gt(left: object, right: object) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left > right
    return to_number(left) > to_number(right)


def _le(left: object, right: object) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left <= right
    return to_number(left) <= to_number(right)


def _ge(left: object, right: object) -> bool:
    if isinstance(left, str) and isinstance(right, str):
        return left >= right
    return to_number(left) >= to_number(right)


def _shl(left: object, right: object) -> float:
    shifted = (to_int32(left) << (to_uint32(right) & 31)) & 0xFFFFFFFF
    if shifted >= 0x80000000:
        shifted -= 0x100000000
    return float(shifted)


def _table(functions: dict, size: int) -> list:
    table: list = [None] * size
    for op, function in functions.items():
        table[op] = function
    return table


BINARY_OPERATORS: list = _table(
    {
        BinOp.ADD: _add,
        BinOp.SUB: lambda left, right: to_number(left) - to_number(right),
        BinOp.MUL: lambda left, right: to_number(left) * to_number(right),
        BinOp.DIV: lambda left, right: number_divide(to_number(left), to_number(right)),
        BinOp.MOD: lambda left, right: number_remainder(to_number(left), to_number(right)),
        BinOp.EQ: loose_equals,
        BinOp.NEQ: lambda left, right: not loose_equals(left, right),
        BinOp.STRICT_EQ: strict_equals,
        BinOp.STRICT_NEQ: lambda left, right: not strict_equals(left, right),
        BinOp.LT: _lt,
        BinOp.GT: _gt,
        BinOp.LE: _le,
        BinOp.GE: _ge,
        BinOp.BIT_AND: lambda left, right: float(to_int32(left) & to_int32(right)),
        BinOp.BIT_OR: lambda left, right: float(to_int32(left) | to_int32(right)),
        BinOp.BIT_XOR: lambda left, right: float(to_int32(left) ^ to_int32(right)),
        BinOp.SHL: _shl,
        BinOp.SHR: lambda left, right: float(to_int32(left) >> (to_uint32(right) & 31)),
        BinOp.USHR: lambda left, right: float(to_uint32(left) >> (to_uint32(right) & 31)),
    },
    max(BinOp) + 1,
)

UNARY_OPERATORS: list = _table(
    {
        UnOp.NEG: lambda operand: -to_number(operand),
        UnOp.PLUS: to_number,
        UnOp.NOT: lambda operand: not to_boolean(operand),
        UnOp.BIT_NOT: lambda operand: float(~to_int32(operand)),
    },
    max(UnOp) + 1,
)
