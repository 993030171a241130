"""Guest value model and coercions.

jsl values map onto Python values where possible — numbers are ``float``,
strings are ``str``, booleans are ``bool`` — with singleton sentinels for
``undefined`` and ``null`` and :class:`~repro.runtime.objects.JSObject` for
everything heap-allocated.  Keeping primitives as Python natives keeps the
interpreter loop fast; only objects participate in hidden classes and IC.
"""

from __future__ import annotations

import math
import re

from repro.lang.errors import JSLRangeError

#: StrWhiteSpaceChar (ECMA-262 §7.1.4.1): WhiteSpace and LineTerminator.
#: Not ``str.strip()``'s set, which keeps U+FEFF and adds U+001C-U+001F
#: and U+0085.
STR_WHITESPACE = (
    "\t\n\v\f\r \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000\ufeff"
)
#: StrDecimalLiteral (ECMA-262 §7.1.4.1): ASCII digits, no separators, and
#: ``Infinity`` spelled exactly.  ``to_number`` matches it against the
#: whole trimmed string, ``parseFloat`` against the longest prefix.
STR_DECIMAL_LITERAL = re.compile(
    r"[+-]?(?:Infinity|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)
#: The unsigned ``0x``/``0o``/``0b`` integers of StringNumericLiteral.
_NON_DECIMAL_INTEGER = re.compile(r"0(?:[xX][0-9a-fA-F]+|[oO][0-7]+|[bB][01]+)")
_PREFIX_RADIX = {"x": 16, "o": 8, "b": 2}


class _Undefined:
    """The single ``undefined`` value."""

    __slots__ = ()

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


class _Null:
    """The single ``null`` value."""

    __slots__ = ()

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "null"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()
NULL = _Null()


def is_nullish(value: object) -> bool:
    """True for ``undefined`` and ``null``."""
    return value is UNDEFINED or value is NULL


def to_boolean(value: object) -> bool:
    """JS ToBoolean."""
    if value is UNDEFINED or value is NULL:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return not (value == 0.0 or math.isnan(value))
    if isinstance(value, str):
        return bool(value)
    return True  # objects are always truthy


def to_number(value: object) -> float:
    """JS ToNumber (objects coerce through their primitive hint; we use
    their string form, which suffices for the workloads)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if value is UNDEFINED:
        return float("nan")
    if value is NULL:
        return 0.0
    if isinstance(value, str):
        # StringToNumber (ECMA-262 §7.1.4.1.1).
        text = value.strip(STR_WHITESPACE)
        if not text:
            return 0.0
        if STR_DECIMAL_LITERAL.fullmatch(text):
            return float(text)
        if _NON_DECIMAL_INTEGER.fullmatch(text):
            return integer_to_number(int(text[2:], _PREFIX_RADIX[text[1].lower()]))
        return float("nan")
    return float("nan")  # objects: simplified (no valueOf protocol)


def integer_to_number(value: int) -> float:
    """The double nearest ``value``: infinite past the double range,
    where Python's ``float`` raises."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def number_divide(dividend: float, divisor: float) -> float:
    """JS ``/`` on numbers: IEEE division, where Python raises on a zero
    divisor.  A zero divisor gives ``NaN`` for a zero or ``NaN`` dividend,
    else an infinity signed by the dividend's sign times the zero's."""
    if divisor == 0.0:
        if dividend == 0.0 or dividend != dividend:
            return float("nan")
        return math.copysign(float("inf"), dividend) * math.copysign(1.0, divisor)
    return dividend / divisor


def number_remainder(dividend: float, divisor: float) -> float:
    """JS ``%`` on numbers: the truncating remainder, exact and signed like
    the dividend.  ``math.fmod`` already gives JS's result for a ``NaN``
    operand (``NaN``) and an infinite divisor (the dividend); it raises
    where JS gives ``NaN``, for an infinite dividend or a zero divisor."""
    try:
        return math.fmod(dividend, divisor)
    except ValueError:
        return float("nan")


def number_exponentiate(base: float, exponent: float) -> float:
    """JS Number::exponentiate (``Math.pow``).  ``math.pow`` follows C99
    Annex F, which JS shares except that a NaN exponent always gives
    ``NaN`` and ``(±1) ** ±Infinity`` is ``NaN``; it raises where JS
    gives an infinity (overflow, a zero base with a negative exponent)
    or ``NaN`` (a negative base with a non-integral exponent)."""
    if exponent != exponent or (math.isinf(exponent) and abs(base) == 1.0):
        return float("nan")
    try:
        return math.pow(base, exponent)
    except (OverflowError, ValueError):
        if base != 0.0 and math.isfinite(base) and exponent != int(exponent):
            return float("nan")
        # An infinite result: negative only for a negative base (or -0)
        # raised to an odd integer.
        odd = exponent % 2 == 1
        return -math.inf if odd and math.copysign(1.0, base) < 0 else math.inf


def number_to_string(value: float) -> str:
    """JS Number::toString (ECMA-262 §6.1.6.1.20) over the shortest
    round-trip digits ``repr`` finds: plain decimal notation for
    1e-6 <= |value| < 1e21, else exponent form (``1e-7``, ``1.5e+21``)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    if value < 0:
        return "-" + number_to_string(-value)
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole + fraction).lstrip("0")
    # value == 0.<digits> * 10**point
    point = len(digits) - len(fraction) + int(exponent or 0)
    digits = digits.rstrip("0")
    if len(digits) <= point <= 21:
        return digits + "0" * (point - len(digits))
    if 0 < point <= 21:
        return digits[:point] + "." + digits[point:]
    if -6 < point <= 0:
        return "0." + "0" * -point + digits
    sign = "+" if point > 0 else "-"
    tail = "." + digits[1:] if len(digits) > 1 else ""
    return f"{digits[0]}{tail}e{sign}{abs(point - 1)}"


_RADIX_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def number_to_radix_string(value: float, radix: int) -> str:
    """JS Number::toString in ``radix`` (2 to 36), digit for digit as
    node prints it (V8's ``DoubleToRadixCString``).  Integral values
    below 2**53 are exact.  A fraction is written only up to the
    double's precision, its last digit rounded half to even; integer
    digits below that precision (values of 2**53 times ``radix`` and
    more) print as zeros."""
    if radix == 10 or value != value or math.isinf(value):
        return number_to_string(value)
    negative = value < 0
    value = abs(value)
    integer = float(math.floor(value))
    fraction = value - integer
    # Half the gap to the next double: fraction digits below it are noise.
    delta = max(0.5 * (math.nextafter(value, math.inf) - value), 5e-324)
    digits: list[int] = []
    while fraction >= delta:
        fraction *= radix
        delta *= radix
        digit = int(fraction)
        digits.append(digit)
        fraction -= digit
        rounds_up = fraction > 0.5 or (fraction == 0.5 and digit & 1)
        if rounds_up and fraction + delta > 1:
            # Round up, carrying through trailing (radix - 1) digits.
            while digits and digits[-1] + 1 == radix:
                digits.pop()
            if digits:
                digits[-1] += 1
            else:
                integer += 1
            break
    head: list[str] = []
    while integer / radix >= 2.0**53:
        integer /= radix
        head.append("0")
    while True:
        remainder = math.fmod(integer, radix)
        head.append(_RADIX_DIGITS[int(remainder)])
        integer = (integer - remainder) / radix
        if integer <= 0:
            break
    text = "".join(reversed(head))
    if digits:
        text += "." + "".join(_RADIX_DIGITS[digit] for digit in digits)
    return "-" + text if negative else text


def to_string(value: object) -> str:
    """JS ToString."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return number_to_string(value)
    if isinstance(value, str):
        return value
    return value.js_to_string()  # type: ignore[attr-defined]


def to_int32(value: object) -> int:
    """JS ToInt32 (for bitwise operators)."""
    number = to_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    result = int(number) & 0xFFFFFFFF
    if result >= 0x80000000:
        result -= 0x100000000
    return result


def to_uint32(value: object) -> int:
    """JS ToUint32 (for >>>)."""
    number = to_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    return int(number) & 0xFFFFFFFF


def to_array_length(value: object) -> int:
    """The length an array is set to: ToNumber, then ToUint32, and a
    guest RangeError when the two differ (negative, fractional,
    non-finite or too large)."""
    number = to_number(value)
    length = to_uint32(number)
    if length != number:
        raise JSLRangeError("Invalid array length")
    return length


def to_integer_or_infinity(value: object) -> "int | float":
    """JS ToIntegerOrInfinity: ToNumber, then ``NaN`` gives 0, an infinity
    stays a float infinity, and any other number truncates to an int."""
    number = to_number(value)
    if number != number:
        return 0
    if math.isinf(number):
        return number
    return int(number)


def to_property_key(value: object) -> str:
    """Convert an arbitrary keyed-access subscript to a property key."""
    if isinstance(value, float):
        return number_to_string(value)
    return to_string(value)


#: Element indices lie in [0, ELEMENT_INDEX_LIMIT); any other key names an
#: ordinary property.
ELEMENT_INDEX_LIMIT = 2**31


def element_index(key: object) -> int | None:
    """The element index a keyed-access subscript names, else None.

    A number names one when it is integral and in range, so NaN and the
    infinities never do and -0 names 0.  A string names one when it is
    the canonical decimal form of such a number: ASCII digits and no
    leading zero ("²" and "01" are ordinary property names).
    """
    if isinstance(key, float):
        if 0 <= key < ELEMENT_INDEX_LIMIT and key.is_integer():
            return int(key)
        return None
    if (
        isinstance(key, str)
        and key.isascii()
        and key.isdigit()
        and len(key) <= 10
        and (key[0] != "0" or key == "0")
    ):
        index = int(key)
        if index < ELEMENT_INDEX_LIMIT:
            return index
    return None


def type_of(value: object) -> str:
    """JS typeof."""
    if value is UNDEFINED:
        return "undefined"
    if value is NULL:
        return "object"  # the famous JS quirk, preserved
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if getattr(value, "is_callable", False):
        return "function"
    return "object"


def strict_equals(a: object, b: object) -> bool:
    """JS ``===``."""
    if isinstance(a, bool) or isinstance(b, bool):
        # bool must not compare equal to numbers under ===
        return a is b if (isinstance(a, bool) and isinstance(b, bool)) else False
    if isinstance(a, float) and isinstance(b, float):
        return a == b  # NaN != NaN falls out naturally
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return a is b


def loose_equals(a: object, b: object) -> bool:
    """JS ``==`` (simplified object-coercion: via ToString for objects)."""
    if is_nullish(a) and is_nullish(b):
        return True
    if is_nullish(a) or is_nullish(b):
        return False
    if isinstance(a, bool):
        return loose_equals(to_number(a), b)
    if isinstance(b, bool):
        return loose_equals(a, to_number(b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, float) and isinstance(b, str):
        return a == to_number(b)
    if isinstance(a, str) and isinstance(b, float):
        return to_number(a) == b
    if isinstance(a, (float, str)) and not isinstance(b, (float, str)):
        return loose_equals(a, to_string(b))
    if isinstance(b, (float, str)) and not isinstance(a, (float, str)):
        return loose_equals(to_string(a), b)
    return a is b
