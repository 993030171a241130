"""Per-execution runtime context: heap, hidden classes, global object.

A :class:`Runtime` is created fresh for every execution (Initial, Reuse —
each gets its own heap with its own randomized addresses).  It owns the
slow-path property machinery that the IC miss handler and the native
builtins share.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass

from repro.runtime.heap import Heap
from repro.runtime.hidden_class import HiddenClass, HiddenClassRegistry
from repro.runtime.objects import JSArray, JSFunction, JSObject
from repro.runtime.values import UNDEFINED, element_index

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.bytecode.code import CodeObject


@dataclass
class LookupResult:
    """Outcome of a full (runtime slow path) named-property lookup.

    ``kind`` is one of:

    * ``"field"`` — own fast property; ``offset`` valid.
    * ``"dict"`` — own property of a dictionary-mode object.
    * ``"array_length"`` — the virtual ``length`` of an array.
    * ``"proto_field"`` — fast property found on ``holder`` up the chain;
      ``chain`` holds the (object, hidden class) hops that must stay valid.
    * ``"proto_dict"`` — found up the chain on a dictionary-mode holder.
    * ``"absent"`` — not found anywhere; ``chain`` covers the whole walk.
    """

    kind: str
    value: object
    holder: JSObject | None = None
    offset: int | None = None
    chain: tuple[tuple[JSObject, HiddenClass], ...] = ()
    #: Prototype hops walked — feeds the lookup cost model.
    hops: int = 0


class Runtime:
    """All mutable state of one guest execution."""

    __slots__ = (
        "heap",
        "hidden_classes",
        "rng",
        "console_output",
        "global_object",
        "empty_object_hc",
        "function_hc",
        "native_function_hc",
        "prototype_root_hc",
        "array_hc",
        "object_prototype",
        "function_prototype",
        "array_prototype",
        "error_prototype",
        "string_methods",
        "number_methods",
    )

    def __init__(self, seed: int | None = None):
        rng = random.Random(seed)
        self.heap = Heap(seed=rng.getrandbits(64))
        self.hidden_classes = HiddenClassRegistry(self.heap)
        self.rng = random.Random(rng.getrandbits(64))
        self.console_output: list[str] = []

        # Filled by repro.runtime.builtins.install_builtins().
        self.global_object: JSObject = None  # type: ignore[assignment]
        self.empty_object_hc: HiddenClass = None  # type: ignore[assignment]
        self.function_hc: HiddenClass = None  # type: ignore[assignment]
        self.native_function_hc: HiddenClass = None  # type: ignore[assignment]
        self.prototype_root_hc: HiddenClass = None  # type: ignore[assignment]
        self.array_hc: HiddenClass = None  # type: ignore[assignment]
        self.object_prototype: JSObject = None  # type: ignore[assignment]
        self.function_prototype: JSObject = None  # type: ignore[assignment]
        self.array_prototype: JSObject = None  # type: ignore[assignment]
        self.error_prototype: JSObject = None  # type: ignore[assignment]
        #: Native methods reachable on string/number primitives (the VM
        #: resolves these without IC participation; primitives have no
        #: hidden classes in this model).
        self.string_methods: dict[str, JSFunction] = {}
        self.number_methods: dict[str, JSFunction] = {}

    # -- allocation helpers ---------------------------------------------------

    def new_object(self, hidden_class: HiddenClass | None = None) -> JSObject:
        hc = hidden_class if hidden_class is not None else self.empty_object_hc
        address = self.heap.allocate("object", extra_bytes=8 * len(hc.layout))
        return JSObject(hc, address)

    def new_array(self, elements: list[object] | None = None) -> JSArray:
        address = self.heap.allocate("array")
        array = JSArray(self.array_hc, address)
        if elements:
            array.array_elements.extend(elements)
            self.heap.charge("element", 8 * len(elements))
        return array

    def new_function(self, code: "CodeObject", env: object) -> JSFunction:
        """Create a guest (interpreted) function with its prototype object."""
        address = self.heap.allocate("function")
        fn = JSFunction(
            self.function_hc, address, fn_name=code.name, code=code, env=env
        )
        prototype = self.new_object(self.prototype_root_hc)
        prototype.slots[self.prototype_root_hc.layout["constructor"]] = fn
        fn.slots = [UNDEFINED] * len(self.function_hc.layout)
        fn.slots[self.function_hc.layout["prototype"]] = prototype
        fn.slots[self.function_hc.layout["name"]] = code.name
        fn.slots[self.function_hc.layout["length"]] = float(len(code.params))
        return fn

    def new_native_function(
        self,
        name: str,
        native: typing.Callable,
        prototype: JSObject | None = None,
        native_ctor: bool = False,
        arity: int = 0,
    ) -> JSFunction:
        address = self.heap.allocate("function")
        fn = JSFunction(
            self.function_hc,
            address,
            fn_name=name,
            native=native,
            native_ctor=native_ctor,
        )
        fn.slots = [UNDEFINED] * len(self.function_hc.layout)
        if prototype is not None:
            fn.slots[self.function_hc.layout["prototype"]] = prototype
        fn.slots[self.function_hc.layout["name"]] = name
        fn.slots[self.function_hc.layout["length"]] = float(arity)
        return fn

    # -- slow-path property machinery ------------------------------------------

    def lookup_property(self, obj: JSObject, name: str) -> LookupResult:
        """Full lookup along the prototype chain (the runtime slow path the
        IC exists to avoid)."""
        chain: list[tuple[JSObject, HiddenClass]] = []
        current: JSObject | None = obj
        hops = 0
        while current is not None:
            if isinstance(current, JSArray) and name == "length":
                return LookupResult(
                    kind="array_length", value=current.length, holder=current, hops=hops
                )
            if current.in_dictionary_mode:
                assert current.dict_properties is not None
                if name in current.dict_properties:
                    kind = "dict" if current is obj else "proto_dict"
                    return LookupResult(
                        kind=kind,
                        value=current.dict_properties[name],
                        holder=current,
                        chain=tuple(chain),
                        hops=hops,
                    )
            else:
                offset = current.hidden_class.layout.get(name)
                if offset is not None:
                    if current is obj:
                        return LookupResult(
                            kind="field",
                            value=current.slots[offset],
                            holder=current,
                            offset=offset,
                            hops=hops,
                        )
                    return LookupResult(
                        kind="proto_field",
                        value=current.slots[offset],
                        holder=current,
                        offset=offset,
                        chain=tuple(chain),
                        hops=hops,
                    )
            prototype = current.hidden_class.prototype
            if prototype is not None:
                chain.append((prototype, prototype.hidden_class))
            current = prototype
            hops += 1
        return LookupResult(kind="absent", value=UNDEFINED, chain=tuple(chain), hops=hops)

    def define_own_property(
        self, obj: JSObject, name: str, value: object, site_key: str
    ) -> tuple[HiddenClass | None, bool]:
        """Create or update an *own* property, transitioning if needed.

        Returns ``(outgoing_hidden_class, created)`` where ``created`` is
        True when a brand-new hidden class was made (i.e. ``site_key``
        triggered it).  Dictionary-mode objects return ``(None, False)``.
        """
        if obj.in_dictionary_mode:
            assert obj.dict_properties is not None
            obj.dict_properties[name] = value
            return None, False
        offset = obj.hidden_class.layout.get(name)
        if offset is not None:
            obj.slots[offset] = value
            return None, False
        if len(obj.hidden_class.layout) >= 64:
            self.to_dictionary(obj)
            assert obj.dict_properties is not None
            obj.dict_properties[name] = value
            return None, False
        outgoing, created = self.hidden_classes.transition(
            obj.hidden_class, name, site_key
        )
        obj.slots.append(value)
        obj.hidden_class = outgoing
        obj.invalidate_shape_dependents()
        self.heap.charge("property_slot", 8)
        if isinstance(obj, JSFunction) and name == "prototype":
            obj.invalidate_constructor_hc()
        return outgoing, created

    def to_dictionary(self, obj: JSObject) -> None:
        """Demote ``obj`` to dictionary mode (after delete / growth)."""
        properties = {
            name: obj.slots[offset]
            for name, offset in obj.hidden_class.layout.items()
        }
        obj.dict_properties = properties
        obj.hidden_class = self.hidden_classes.create_dictionary(
            obj.hidden_class.prototype
        )
        obj.slots = []
        obj.invalidate_shape_dependents()

    def delete_property(self, obj: JSObject, name: str) -> bool:
        """JS delete semantics; demotes fast objects to dictionary mode."""
        index = element_index(name)
        if index is not None:
            if isinstance(obj, JSArray) and 0 <= index < len(obj.array_elements):
                obj.array_elements[index] = UNDEFINED
                return True
            if obj.elements is not None and index in obj.elements:
                del obj.elements[index]
                return True
            return True
        if not obj.in_dictionary_mode:
            if name not in obj.hidden_class.layout:
                return True  # deleting a missing property succeeds
            self.to_dictionary(obj)
        assert obj.dict_properties is not None
        obj.dict_properties.pop(name, None)
        return True

    def constructor_hidden_class(self, fn: JSFunction) -> HiddenClass:
        """The initial hidden class for objects built by ``new fn()``
        (Figure 2's Constructor HC), created lazily and invalidated when
        ``fn.prototype`` is reassigned."""
        if fn.constructor_hc is not None:
            return fn.constructor_hc
        prototype_value = fn.get_own("prototype")[1]
        prototype = (
            prototype_value
            if isinstance(prototype_value, JSObject)
            else self.object_prototype
        )
        generation = fn.ctor_generation
        fn.ctor_generation += 1
        hc = self.hidden_classes.create_root(
            creation_kind="ctor",
            creation_key=f"ctor:{fn.decl_key}:{generation}",
            prototype=prototype,
        )
        fn.constructor_hc = hc
        return hc
