"""Unit tests for guest values and coercions."""

import math

import pytest

from repro.runtime.values import (
    NULL,
    UNDEFINED,
    is_nullish,
    loose_equals,
    number_to_string,
    strict_equals,
    to_boolean,
    to_int32,
    to_number,
    to_property_key,
    to_string,
    to_uint32,
    type_of,
)


class TestSingletons:
    def test_undefined_is_singleton(self):
        assert type(UNDEFINED)() is UNDEFINED

    def test_null_is_singleton(self):
        assert type(NULL)() is NULL

    def test_nullish(self):
        assert is_nullish(UNDEFINED) and is_nullish(NULL)
        assert not is_nullish(0.0) and not is_nullish("")

    def test_reprs(self):
        assert repr(UNDEFINED) == "undefined"
        assert repr(NULL) == "null"


class TestToBoolean:
    @pytest.mark.parametrize(
        "value", [UNDEFINED, NULL, False, 0.0, -0.0, float("nan"), ""]
    )
    def test_falsy(self, value):
        assert to_boolean(value) is False

    @pytest.mark.parametrize("value", [True, 1.0, -1.0, "x", "0", float("inf")])
    def test_truthy(self, value):
        assert to_boolean(value) is True


class TestToNumber:
    def test_booleans(self):
        assert to_number(True) == 1.0 and to_number(False) == 0.0

    def test_undefined_is_nan(self):
        assert math.isnan(to_number(UNDEFINED))

    def test_null_is_zero(self):
        assert to_number(NULL) == 0.0

    def test_empty_string_is_zero(self):
        assert to_number("") == 0.0 and to_number("   ") == 0.0

    def test_numeric_strings(self):
        assert to_number("42") == 42.0
        assert to_number(" 3.5 ") == 3.5
        assert to_number("0x10") == 16.0

    def test_garbage_string_is_nan(self):
        assert math.isnan(to_number("12abc"))

    def test_only_js_white_space_is_trimmed(self):
        # U+FEFF and U+3000 are JS white space; U+001C is not.
        assert to_number("\ufeff 5\u3000") == 5.0
        assert math.isnan(to_number("\x1c5"))

    def test_integers_past_the_double_range_are_infinite(self):
        assert to_number("0x" + "f" * 300) == math.inf
        assert to_number("0b" + "1" * 1100) == math.inf


class TestNumberToString:
    def test_integral_drops_point(self):
        assert number_to_string(42.0) == "42"
        assert number_to_string(-3.0) == "-3"

    def test_fractional(self):
        assert number_to_string(1.5) == "1.5"

    def test_specials(self):
        assert number_to_string(float("nan")) == "NaN"
        assert number_to_string(float("inf")) == "Infinity"
        assert number_to_string(float("-inf")) == "-Infinity"

    def test_property_key_from_number(self):
        assert to_property_key(3.0) == "3"
        assert to_property_key(2.5) == "2.5"


class TestToString:
    def test_primitives(self):
        assert to_string(UNDEFINED) == "undefined"
        assert to_string(NULL) == "null"
        assert to_string(True) == "true"
        assert to_string(False) == "false"
        assert to_string("x") == "x"
        assert to_string(7.0) == "7"


class TestTypeOf:
    def test_all_kinds(self):
        assert type_of(UNDEFINED) == "undefined"
        assert type_of(NULL) == "object"  # the JS quirk
        assert type_of(True) == "boolean"
        assert type_of(1.0) == "number"
        assert type_of("s") == "string"


class TestStrictEquals:
    def test_numbers(self):
        assert strict_equals(1.0, 1.0)
        assert not strict_equals(1.0, 2.0)

    def test_nan_not_equal_to_itself(self):
        assert not strict_equals(float("nan"), float("nan"))

    def test_bool_not_equal_to_number(self):
        assert not strict_equals(True, 1.0)
        assert not strict_equals(False, 0.0)

    def test_strings(self):
        assert strict_equals("a", "a") and not strict_equals("a", "b")

    def test_identity_for_sentinels(self):
        assert strict_equals(UNDEFINED, UNDEFINED)
        assert not strict_equals(UNDEFINED, NULL)


class TestLooseEquals:
    def test_null_undefined_equal(self):
        assert loose_equals(NULL, UNDEFINED)
        assert loose_equals(UNDEFINED, NULL)

    def test_null_not_equal_zero(self):
        assert not loose_equals(NULL, 0.0)

    def test_number_string_coercion(self):
        assert loose_equals(1.0, "1")
        assert loose_equals("2.5", 2.5)

    def test_boolean_coercion(self):
        assert loose_equals(True, 1.0)
        assert loose_equals(False, "0")


class TestInt32:
    def test_wrapping(self):
        assert to_int32(2.0**31) == -(2**31)
        assert to_int32(2.0**32 + 5) == 5

    def test_nan_and_inf_are_zero(self):
        assert to_int32(float("nan")) == 0
        assert to_int32(float("inf")) == 0

    def test_uint32(self):
        assert to_uint32(-1.0) == 2**32 - 1
        assert to_uint32(float("nan")) == 0
