"""Guest heap objects: plain objects, functions and arrays.

Objects store named properties in a flat ``slots`` list whose offsets are
described by the object's hidden class — the "fast properties"
representation the IC depends on.  ``delete`` (or pathological growth)
demotes an object to dictionary mode, after which the IC treats it as
uncacheable, mirroring V8.
"""

from __future__ import annotations

import typing

from repro.runtime.hidden_class import HiddenClass
from repro.runtime.values import UNDEFINED

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.bytecode.code import CodeObject

#: Own property count beyond which an object is demoted to dictionary mode.
DICTIONARY_THRESHOLD = 64


class ValidityCell:
    """V8-style prototype validity cell.

    Handlers that depend on an object's *shape staying put* (prototype-chain
    loads) embed the object's current validity cell instead of re-walking
    the chain; any shape change (transition, dictionary demotion)
    invalidates the cell, and the handler falls back to the runtime.
    """

    __slots__ = ("valid",)

    def __init__(self) -> None:
        self.valid = True


class JSObject:
    """A guest object with hidden-class-described fast properties."""

    __slots__ = (
        "hidden_class",
        "slots",
        "elements",
        "dict_properties",
        "address",
        "validity_cell",
    )

    is_callable = False

    def __init__(self, hidden_class: HiddenClass, address: int):
        self.hidden_class = hidden_class
        #: Fast property storage, indexed by hidden-class layout offsets.
        self.slots: list[object] = [UNDEFINED] * len(hidden_class.layout)
        #: Sparse integer-indexed properties.
        self.elements: dict[int, object] | None = None
        #: Slow storage once in dictionary mode; None while fast.
        self.dict_properties: dict[str, object] | None = None
        self.address = address
        #: Lazily created when this object is embedded in a prototype-chain
        #: handler; invalidated whenever the object's shape changes.
        self.validity_cell: ValidityCell | None = None

    # -- property primitives (used by the runtime slow path & handlers) ----

    @property
    def in_dictionary_mode(self) -> bool:
        return self.dict_properties is not None

    def dependent_validity_cell(self) -> ValidityCell:
        """The cell a prototype-chain handler should embed for this object."""
        if self.validity_cell is None:
            self.validity_cell = ValidityCell()
        return self.validity_cell

    def invalidate_shape_dependents(self) -> None:
        """Called on any shape change; kills handlers embedding this cell."""
        if self.validity_cell is not None:
            self.validity_cell.valid = False
            self.validity_cell = None

    def get_own(self, name: str) -> tuple[bool, object]:
        """Own named-property lookup: (found, value)."""
        if self.dict_properties is not None:
            if name in self.dict_properties:
                return True, self.dict_properties[name]
            return False, UNDEFINED
        offset = self.hidden_class.layout.get(name)
        if offset is None:
            return False, UNDEFINED
        return True, self.slots[offset]

    def own_property_names(self) -> list[str]:
        """Enumerable own names: integer elements first (ascending), then
        named properties in insertion order — JS enumeration order."""
        names: list[str] = []
        if isinstance(self, JSArray):
            names.extend(str(i) for i in range(len(self.array_elements)))
        elif self.elements:
            names.extend(str(i) for i in sorted(self.elements))
        if self.dict_properties is not None:
            names.extend(self.dict_properties.keys())
        else:
            names.extend(self.hidden_class.layout.keys())
        return names

    def get_element(self, index: int) -> tuple[bool, object]:
        if self.elements is not None and index in self.elements:
            return True, self.elements[index]
        return False, UNDEFINED

    def has_own_element(self, index: int) -> bool:
        """Whether ``index`` is an own element: an array's dense part
        first, then the sparse ``elements``."""
        return self.get_element(index)[0]

    def set_element(self, index: int, value: object) -> None:
        if self.elements is None:
            self.elements = {}
        self.elements[index] = value

    def js_to_string(self) -> str:
        return "[object Object]"

    def __repr__(self) -> str:
        mode = "dict" if self.in_dictionary_mode else "fast"
        return f"<JSObject @{self.address:#x} {mode} hc=#{self.hidden_class.index}>"


class JSFunction(JSObject):
    """A guest function: interpreted (``code`` + ``env``) or native."""

    __slots__ = (
        "code",
        "env",
        "native",
        "fn_name",
        "constructor_hc",
        "native_ctor",
        "ctor_generation",
    )

    is_callable = True

    def __init__(
        self,
        hidden_class: HiddenClass,
        address: int,
        fn_name: str,
        code: "CodeObject | None" = None,
        env: object | None = None,
        native: typing.Callable | None = None,
        native_ctor: bool = False,
    ):
        super().__init__(hidden_class, address)
        self.code = code
        self.env = env
        self.native = native
        self.fn_name = fn_name
        #: Cached initial hidden class for objects constructed by this
        #: function (Figure 2's "Constructor HC"); invalidated when the
        #: function's ``prototype`` property is reassigned.
        self.constructor_hc: HiddenClass | None = None
        #: Native constructors (e.g. Error) initialise `this` themselves.
        self.native_ctor = native_ctor
        #: How many constructor hidden classes this function has had; part
        #: of their stable cross-execution key (bumped on prototype swap).
        self.ctor_generation = 0

    @property
    def decl_key(self) -> str:
        """Stable cross-execution identity of this function."""
        if self.code is not None:
            return self.code.decl_key
        return f"native:{self.fn_name}"

    def invalidate_constructor_hc(self) -> None:
        self.constructor_hc = None

    def js_to_string(self) -> str:
        if self.native is not None:
            return f"function {self.fn_name}() {{ [native code] }}"
        return f"function {self.fn_name}() {{ ... }}"

    def __repr__(self) -> str:
        flavor = "native" if self.native is not None else "jsl"
        return f"<JSFunction {self.fn_name!r} {flavor} @{self.address:#x}>"


class JSArray(JSObject):
    """A guest array with dense element storage and a virtual ``length``."""

    __slots__ = ("array_elements",)

    def __init__(self, hidden_class: HiddenClass, address: int):
        super().__init__(hidden_class, address)
        self.array_elements: list[object] = []

    @property
    def length(self) -> float:
        return float(len(self.array_elements))

    def get_element(self, index: int) -> tuple[bool, object]:
        if 0 <= index < len(self.array_elements):
            return True, self.array_elements[index]
        if self.elements is not None and index in self.elements:
            return True, self.elements[index]
        return False, UNDEFINED

    def set_element(self, index: int, value: object) -> None:
        if index == len(self.array_elements):
            self.array_elements.append(value)
            return
        if 0 <= index < len(self.array_elements):
            self.array_elements[index] = value
            return
        # Sparse write beyond the dense tail; grow with undefined-holes when
        # close, otherwise fall back to the sparse store.
        if index < len(self.array_elements) + 32:
            while len(self.array_elements) < index:
                self.array_elements.append(UNDEFINED)
            self.array_elements.append(value)
        else:
            super().set_element(index, value)

    def set_length(self, new_length: int) -> None:
        current = len(self.array_elements)
        if new_length < current:
            del self.array_elements[new_length:]
        else:
            self.array_elements.extend([UNDEFINED] * (new_length - current))

    def js_to_string(self) -> str:
        from repro.runtime.values import to_string

        return ",".join(
            "" if element is UNDEFINED else to_string(element)
            for element in self.array_elements
        )

    def __repr__(self) -> str:
        return f"<JSArray len={len(self.array_elements)} @{self.address:#x}>"
