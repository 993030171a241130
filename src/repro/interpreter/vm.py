"""The jsl bytecode virtual machine.

A stack VM with **table dispatch**: instead of one long ``if/elif`` chain,
the VM precomputes a per-opcode dispatch table (an array of bound handler
methods indexed by opcode value) at construction time.  Each code object is
additionally *threaded* once per VM — its ``(op, a, b)`` triples are mapped
to ``(handler, a, b)`` triples — so the inner loop pays neither the chain
of opcode comparisons nor even the table index on the hot path.

The table is built by naming convention: opcode ``Op.FOO`` dispatches to
``VM._op_foo``.  A new opcode without a handler fails loudly at VM
construction (and in ``tests/test_dispatch_table.py``), never silently at
runtime.

Every IC site kind has one **hit path**, in its dispatch handler: the
site's :class:`~repro.ic.icvector.ICSite` slot list (up to
``POLY_LIMIT`` ``(hidden class, handler)`` pairs) is probed inline with
a linear scan + MRU move-to-front reorder, and a hit is served and
counted there without a call into the runtime.

* ``GET_PROP`` / ``SET_PROP`` (and ``OBJ_LIT_PROP``) probe on the
  receiver's class and run the matching handler, with per-tier and
  preloaded-hit accounting.
* ``LOAD_GLOBAL`` / ``LOAD_GLOBAL_SOFT`` / ``STORE_GLOBAL`` probe on the
  global object's class and read or write its slot directly.
* ``GET_INDEX`` / ``SET_INDEX`` probe on the receiver's class when the
  key is an element index
  (:func:`~repro.runtime.values.element_index`) and run the element
  handler.

Global and keyed probes compare the front slot inline and leave the rest
of the scan to :meth:`ICSite.lookup`.  Every other case (a megamorphic
site, whose slots are empty, a shape mismatch, a handler that bails out
or serves the other direction, a string key) enters the runtime through
``ICRuntime.named_load``/``named_store``/``global_load``/
``global_store``/``keyed_load``/``keyed_store``: the miss path, plus the
shared stub cache of megamorphic named sites and string keys.  None of
them probes the slots again.

``BINARY``, ``UNARY``, the fused ``CMP_JUMP_IF_*`` and ``INC_LOCAL_CONST``
call the operator table of :mod:`repro.runtime.operators` by operator
number, the functions the optimizer folds with; ``in`` and
``instanceof`` need the runtime, so each VM's copy of the table holds
its own methods for them.

Guest instruction accounting: each dispatched bytecode charges
``cost_model.DISPATCH`` (batched per frame for speed); everything heavier
(allocation, natives, IC misses) is charged where it happens.  The raw
dispatch count is also recorded in ``Counters.dispatches`` for the
benchmark baseline.

**Execution governance**: there is one dispatch loop
(:meth:`VM._execute`).  A VM built with an
:class:`~repro.core.budget.ExecutionBudget` and/or a
:class:`~repro.core.budget.CancelToken` performs the full governance
check — cancellation, step/heap budgets, wall-clock deadline — every
``check_stride`` dispatches, paying one local integer compare per
dispatch and the real check only at stride boundaries.  An ungoverned
VM (the default) pays the same compare against a stride it never
reaches.  The frame-depth budget is enforced eagerly in
:meth:`VM.call_function`, where a depth comparison already exists.
Governance aborts raise the :class:`~repro.core.errors.ExecutionAborted`
taxonomy, which descends from neither ``GuestThrow`` nor ``JSLError``
and is therefore invisible to guest ``try``/``catch`` — a runaway
program cannot swallow its own termination.  Counter accounting
(dispatch counts, instruction charges) does not depend on governance or
its stride, including on the abort path.
"""

from __future__ import annotations

import time
import typing

from repro.bytecode.code import CodeObject
from repro.bytecode.opcodes import BinOp, BinOps, Op, Ops
from repro.core.budget import BudgetMeter, CancelToken, ExecutionBudget
from repro.core.errors import DepthBudgetExceeded
from repro.ic.handlers import MISS, LoadElementHandler, StoreElementHandler
from repro.ic.icvector import FeedbackState, ICState
from repro.ic.miss import ICRuntime
from repro.interpreter import cost_model as cost
from repro.interpreter.frames import Environment, ForInIterator, Frame, GuestThrow
from repro.lang.errors import JSLRuntimeError, JSLTypeError
from repro.runtime.context import Runtime
from repro.runtime.objects import JSArray, JSFunction, JSObject
from repro.runtime.operators import BINARY_OPERATORS, UNARY_OPERATORS
from repro.runtime.values import (
    NULL,
    UNDEFINED,
    element_index,
    to_boolean,
    to_property_key,
    to_string,
    type_of,
)
from repro.specialize.feedback import operand_type_bits
from repro.stats.counters import (
    CATEGORY_EXECUTE,
    CATEGORY_RIC,
    CATEGORY_RUNTIME_OTHER,
    Counters,
)

#: Python recursion ceiling for guest calls (guest recursion maps onto host
#: recursion; deep guest recursion raises a guest RangeError).
MAX_CALL_DEPTH = 900

#: pc sentinel returned by the RETURN handler to stop the dispatch loop.
_RETURN_PC = -1

#: The governance stride of an ungoverned VM: the largest int CPython
#: stores in one digit, because its int compare is specialized only for
#: those.  A frame would need a billion dispatches to reach it, and then
#: there is no meter to credit.
_NO_STRIDE = (1 << 30) - 1

#: Combined charge of an IC probe plus a handler execution: what an inline
#: IC hit costs.
_IC_HIT_COST = cost.IC_PROBE + cost.HANDLER_EXECUTE

#: Hoisted for the inline probe's tier check (module-level lookup is cheaper
#: than the enum attribute access in the hot handlers).
_MONOMORPHIC = ICState.MONOMORPHIC

#: ``+`` of the operator table, which INC_LOCAL_CONST runs.
_ADD = BINARY_OPERATORS[BinOp.ADD]

#: Comparison semantics of the typed CMP_*_JUMP_IF_* opcodes.  Their
#: guards admit only float pairs, for which Python's comparisons match
#: jsl's exactly (NaN compares false to everything and unequal to
#: itself; -0.0 == 0.0) and loose/strict equality coincide.
import operator as _operator

_CMP_FUNCS = {
    int(BinOp.EQ): _operator.eq,
    int(BinOp.NEQ): _operator.ne,
    int(BinOp.STRICT_EQ): _operator.eq,
    int(BinOp.STRICT_NEQ): _operator.ne,
    int(BinOp.LT): _operator.lt,
    int(BinOp.GT): _operator.gt,
    int(BinOp.LE): _operator.le,
    int(BinOp.GE): _operator.ge,
}

# Each guest call consumes several host frames; make sure the guest hits its
# own MAX_CALL_DEPTH RangeError before Python's recursion limit.
import sys as _sys

if _sys.getrecursionlimit() < 20_000:
    _sys.setrecursionlimit(20_000)


class VM:
    """Executes compiled jsl code against a :class:`Runtime`."""

    def __init__(
        self,
        runtime: Runtime,
        counters: Counters,
        ic_runtime: ICRuntime,
        feedback: FeedbackState,
        time_source: typing.Callable[[], float] | None = None,
        budget: ExecutionBudget | None = None,
        cancel_token: CancelToken | None = None,
    ):
        self.runtime = runtime
        self.counters = counters
        self.ic = ic_runtime
        self.feedback = feedback
        self._call_depth = 0
        self._time_source = time_source or time.time
        self._dispatch = self._build_dispatch_table()
        #: The operator table, with this VM's ``in`` and ``instanceof``.
        self._binary_operators = list(BINARY_OPERATORS)
        self._binary_operators[BinOps.IN] = self._in
        self._binary_operators[BinOps.INSTANCEOF] = self._instanceof
        #: id(code) -> threaded instruction list for this VM.
        self._threaded_cache: dict[int, list] = {}
        #: Governance state: a BudgetMeter when this VM is governed (the
        #: deadline arms here, at VM construction = run start), else None.
        self._meter: BudgetMeter | None = None
        self._depth_budget: int | None = None
        if budget is not None or cancel_token is not None:
            self._meter = BudgetMeter(budget, cancel_token, runtime.heap)
            if budget is not None:
                self._depth_budget = budget.max_frame_depth

    # -- dispatch table construction --------------------------------------------

    def _build_dispatch_table(self) -> list:
        """Array of bound handler methods, indexed by opcode value.

        Every member of :class:`Op` must have a matching ``_op_<name>``
        method; a gap raises immediately so an unhandled opcode can never
        reach the dispatch loop.  Table slots between opcode values hold
        :meth:`_op_invalid`, preserving the historical "unknown opcode"
        error for corrupted bytecode.
        """
        table = [VM._op_invalid.__get__(self)] * (max(Op) + 1)
        for op in Op:
            handler = getattr(self, "_op_" + op.name.lower(), None)
            if handler is None:
                raise NotImplementedError(
                    f"opcode {op.name} has no _op_{op.name.lower()} handler"
                )
            table[op] = handler
        return table

    def dispatch_handler(self, op: Op):
        """The handler bound for ``op`` (introspection for tests)."""
        return self._dispatch[op]

    def _threaded(self, code: CodeObject) -> list:
        """Thread ``code`` through the dispatch table: ``(op, a, b)`` ->
        ``(handler, a, b)``, cached per VM so the cost is paid once per
        code object, not once per call."""
        threaded = self._threaded_cache.get(id(code))
        if threaded is None:
            table = self._dispatch
            threaded = [(table[op], a, b) for op, a, b in code.instructions]
            self._threaded_cache[id(code)] = threaded
        return threaded

    # -- public entry points ---------------------------------------------------

    def run_code(self, code: CodeObject) -> object:
        """Execute a script's top-level code object.

        Uncaught guest exceptions surface as :class:`JSLRuntimeError` with
        the thrown value's string form.
        """
        env = Environment(code.num_locals, parent=None)
        vector = self.feedback.vector_for(code)
        frame = Frame(code, env, UNDEFINED, vector.sites, vector.arith)
        try:
            return self._execute(frame)
        except GuestThrow as thrown:
            trace = "".join(f"\n  {entry}" for entry in thrown.trace)
            error = JSLRuntimeError(
                f"uncaught guest exception: {self._throw_summary(thrown.value)}{trace}"
            )
            error.position = thrown.position
            raise error from thrown

    def call_value(self, callee: object, this_value: object, args: list) -> object:
        """Call an arbitrary guest value (native or interpreted)."""
        if not isinstance(callee, JSFunction):
            raise self.guest_type_error(f"{to_string(callee)} is not a function")
        if callee.native is not None:
            self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.NATIVE_CALL_BASE)
            return callee.native(self, this_value, args)
        return self.call_function(callee, this_value, args)

    def call_function(self, fn: JSFunction, this_value: object, args: list) -> object:
        """Call an interpreted guest function."""
        code = fn.code
        assert code is not None
        self.counters.charge(CATEGORY_EXECUTE, cost.CALL_SETUP)
        # Depth governance fires before the guest RangeError so a budget
        # tighter than MAX_CALL_DEPTH is a hard (uncatchable) stop; a
        # looser one never fires and guest semantics are unchanged.
        if self._depth_budget is not None and self._call_depth >= self._depth_budget:
            raise DepthBudgetExceeded(
                f"frame-depth budget exceeded: depth {self._call_depth} "
                f">= {self._depth_budget}"
            )
        if self._call_depth >= MAX_CALL_DEPTH:
            raise GuestThrow("RangeError: maximum call stack size exceeded")
        env = Environment(code.num_locals, parent=fn.env)  # type: ignore[arg-type]
        self.runtime.heap.charge("environment", 32 + 8 * code.num_locals)
        for index in range(len(code.params)):
            env.slots[index] = args[index] if index < len(args) else UNDEFINED
        vector = self.feedback.vector_for(code)
        frame = Frame(code, env, this_value, vector.sites, vector.arith)
        self._call_depth += 1
        try:
            return self._execute(frame)
        finally:
            self._call_depth -= 1

    def construct(self, ctor: object, args: list) -> object:
        """``new ctor(...)`` (paper Figure 2's object-construction path)."""
        if not isinstance(ctor, JSFunction):
            raise self.guest_type_error(f"{to_string(ctor)} is not a constructor")
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.ALLOCATE_OBJECT)
        hc = self.runtime.constructor_hidden_class(ctor)
        instance = self.runtime.new_object(hc)
        if ctor.native is not None:
            self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.NATIVE_CALL_BASE)
            result = ctor.native(self, instance, args)
        else:
            result = self.call_function(ctor, instance, args)
        return result if isinstance(result, JSObject) else instance

    # -- helpers for natives -----------------------------------------------------

    def charge_native(self, elements: int = 0) -> None:
        """Accounting hook for native builtins."""
        self.counters.charge(
            CATEGORY_RUNTIME_OTHER,
            cost.NATIVE_CALL_BASE + cost.NATIVE_PER_ELEMENT * elements,
        )

    def get_property_slow(self, obj: JSObject, name: str) -> object:
        """Uncached property read for natives (no IC site involved)."""
        lookup = self.runtime.lookup_property(obj, name)
        self.counters.charge(
            CATEGORY_RUNTIME_OTHER,
            cost.PROPERTY_LOOKUP_BASE + cost.PROPERTY_LOOKUP_PER_HOP * lookup.hops,
        )
        return lookup.value

    def set_property_native(
        self, obj: JSObject, name: str, value: object, site_key: str
    ) -> None:
        """Uncached property write for natives; transitions use the stable
        ``site_key`` so RIC can link hidden classes created by builtins."""
        _, created = self.runtime.define_own_property(obj, name, value, site_key)
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.PROPERTY_LOOKUP_BASE)
        if created:
            self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.HIDDEN_CLASS_CREATE)

    def runtime_time_ms(self) -> float:
        return float(self._time_source() * 1000.0)

    @staticmethod
    def _throw_summary(value: object) -> str:
        """Readable form of a thrown value (Error objects show name: message)."""
        if isinstance(value, JSObject) and not isinstance(value, (JSArray, JSFunction)):
            found_name, name = value.get_own("name")
            found_message, message = value.get_own("message")
            if found_name or found_message:
                name_text = to_string(name) if found_name else "Error"
                message_text = to_string(message) if found_message else ""
                return f"{name_text}: {message_text}" if message_text else name_text
        return to_string(value)

    def guest_type_error(self, message: str) -> GuestThrow:
        return GuestThrow(self._make_guest_error("TypeError", message))

    def _make_guest_error(self, name: str, message: str) -> JSObject:
        error = self.runtime.new_object()
        # Use the error prototype chain so guest `e.toString()` works.
        error.hidden_class = self.runtime.hidden_classes.create_root(
            "builtin", f"builtin:thrown:{name}", prototype=self.runtime.error_prototype
        )
        self.runtime.define_own_property(error, "name", name, "native:error:name")
        self.runtime.define_own_property(
            error, "message", message, "native:error:message"
        )
        return error

    # -- property access with primitives ----------------------------------------

    def get_property(self, obj: object, name: str) -> object:
        """A named property of a primitive receiver (uncached; objects go
        through the IC)."""
        if isinstance(obj, str):
            if name == "length":
                return float(len(obj))
            method = self.runtime.string_methods.get(name)
            if method is not None:
                return method
            return UNDEFINED
        if isinstance(obj, bool) or isinstance(obj, float):
            method = self.runtime.number_methods.get(name)
            if method is not None:
                return method
            return UNDEFINED
        raise self.guest_type_error(
            f"Cannot read properties of {to_string(obj)} (reading '{name}')"
        )

    # -- the dispatch loop -------------------------------------------------------

    def _execute(self, frame: Frame) -> object:
        """The dispatch loop.

        A governed VM (see module docstring) credits a full stride to
        its meter every ``meter.stride`` dispatches and runs the
        governance check, which may raise a typed abort.  The remainder
        below a stride boundary is credited quietly at frame exit, so
        ``meter.steps_used`` is exact across nested frames.  An
        ungoverned VM runs the same loop with a stride it never reaches
        and no meter to credit.
        """
        code = frame.code
        threaded = self._threaded(code)
        counters = self.counters
        meter = self._meter
        stride = meter.stride if meter is not None else _NO_STRIDE

        pc = 0
        dispatched = 0  # batched DISPATCH charges
        next_check = stride  # dispatch count that triggers the next check
        flushed = 0  # steps already credited to the meter

        try:
            while True:
                handler, a, b = threaded[pc]
                dispatched += 1
                if dispatched >= next_check:
                    next_check = dispatched + stride
                    if meter is not None:
                        flushed += stride
                        meter.note_steps(stride)
                try:
                    pc = handler(frame, a, b, pc + 1)
                    if pc < 0:
                        return frame.return_value
                except GuestThrow as thrown:
                    if not frame.try_stack:
                        if thrown.position is None:
                            thrown.position = code.position_at(pc)
                        thrown.trace.append(
                            f"at {code.name} ({code.position_at(pc)})"
                        )
                        raise
                    target, depth = frame.try_stack.pop()
                    stack = frame.stack
                    del stack[depth:]
                    stack.append(thrown.value)
                    pc = target
                except JSLRuntimeError as error:
                    # Engine-level errors become catchable guest Error objects
                    # named like their JS counterparts (JSLTypeError ->
                    # TypeError).
                    if not frame.try_stack:
                        if error.position is None:
                            error.position = code.position_at(pc)
                        if not hasattr(error, "guest_trace"):
                            error.guest_trace = []  # type: ignore[attr-defined]
                        error.guest_trace.append(  # type: ignore[attr-defined]
                            f"at {code.name} ({code.position_at(pc)})"
                        )
                        raise
                    target, depth = frame.try_stack.pop()
                    stack = frame.stack
                    del stack[depth:]
                    name = type(error).__name__
                    if name.startswith("JSL"):
                        name = name[3:]
                    if name == "RuntimeError":
                        name = "Error"
                    stack.append(self._make_guest_error(name, error.message))
                    pc = target
        finally:
            counters.dispatches += dispatched
            counters.charge(CATEGORY_EXECUTE, cost.DISPATCH * dispatched)
            if meter is not None:
                # Quiet credit: checking here could raise while another
                # exception is already unwinding and mask it.
                meter.note_steps_quiet(dispatched - flushed)

    # -- dispatch handlers -------------------------------------------------------
    #
    # One method per opcode, found by naming convention (Op.FOO ->
    # _op_foo).  Signature: (frame, a, b, pc) -> next pc, where ``pc``
    # arrives already pointing at the following instruction.  Jumps return
    # their target; RETURN stashes the value on the frame and returns the
    # _RETURN_PC sentinel.

    def _op_invalid(self, frame: Frame, a: int, b: int, pc: int) -> int:
        raise JSLRuntimeError("unknown opcode")

    # constants / simple pushes

    def _op_load_const(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(frame.consts[a])
        return pc

    def _op_load_undefined(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(UNDEFINED)
        return pc

    def _op_load_null(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(NULL)
        return pc

    def _op_load_true(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(True)
        return pc

    def _op_load_false(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(False)
        return pc

    def _op_load_this(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(frame.this_value)
        return pc

    # variables

    def _op_load_local(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(frame.slots[a])
        return pc

    def _op_store_local(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.slots[a] = frame.stack.pop()
        return pc

    def _op_load_env(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(frame.env.ancestor(a).slots[b])
        return pc

    def _op_store_env(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.env.ancestor(a).slots[b] = frame.stack.pop()
        return pc

    def _op_load_global(
        self, frame: Frame, a: int, b: int, pc: int, soft: bool = False
    ) -> int:
        """LOAD_GLOBAL: the inline probe for the global object's hidden
        class, else the IC miss path.

        The front slot is compared inline; on a mismatch
        :meth:`ICSite.lookup` scans the rest and promotes a hit (MRU).  A
        global site holds only ``LoadGlobalHandler``s, so a hit reads the
        slot at the handler's offset.  Global hits keep no tier
        attribution and are never preloaded (RIC links no global site).
        """
        site = frame.sites[b]
        slots = site.slots
        if slots:
            global_object = self.runtime.global_object
            hc = global_object.hidden_class
            front = slots[0]
            handler = front[1] if front[0] is hc else site.lookup(hc)
            if handler is not None:
                counters = self.counters
                counters.ic_accesses += 1
                counters.ic_hits += 1
                counters.instructions[CATEGORY_EXECUTE] += _IC_HIT_COST
                frame.stack.append(global_object.slots[handler.offset])
                return pc
        frame.stack.append(self.ic.global_load(site, frame.names[a], soft))
        return pc

    def _op_load_global_soft(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """LOAD_GLOBAL for ``typeof name``: an absent global reads
        undefined."""
        return self._op_load_global(frame, a, b, pc, True)

    def _op_store_global(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """STORE_GLOBAL: the probe of ``_op_load_global``, else the IC miss
        path, which also creates a missing global."""
        site = frame.sites[b]
        slots = site.slots
        if slots:
            global_object = self.runtime.global_object
            hc = global_object.hidden_class
            front = slots[0]
            handler = front[1] if front[0] is hc else site.lookup(hc)
            if handler is not None:
                counters = self.counters
                counters.ic_accesses += 1
                counters.ic_hits += 1
                counters.instructions[CATEGORY_EXECUTE] += _IC_HIT_COST
                global_object.slots[handler.offset] = frame.stack[-1]
                return pc
        self.ic.global_store(site, frame.names[a], frame.stack[-1])
        return pc

    def _op_declare_global(self, frame: Frame, a: int, b: int, pc: int) -> int:
        self.ic.declare_global(frame.sites[b], frame.names[a])
        return pc

    # object access sites

    def _note_preloaded_hit(self, site, hc) -> None:
        """Count, and trace, a hit on a slot RIC preloaded."""
        self.counters.ic_hits_on_preloaded += 1
        tracer = self.ic.tracer
        if tracer is not None:
            from repro.stats.tracing import PRELOADED_HIT

            tracer.emit(
                PRELOADED_HIT, site_key=site.info.site_key, hc_index=hc.index
            )

    def _op_get_prop(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """GET_PROP: the inline MONO/POLY probe, else the IC miss path.

        Up to POLY_LIMIT slots are shape-checked in MRU order and a hit
        past the front is promoted (the same scan as
        :meth:`ICSite.lookup`).  The probe only reorders slots; installs,
        evictions and tier transitions happen on the miss path.
        Megamorphic sites hold no slots and go straight to the miss
        path's shared stub cache.
        """
        stack = frame.stack
        obj = stack[-1]
        if isinstance(obj, JSObject):
            site = frame.sites[b]
            slots = site.slots
            if slots:
                hc = obj.hidden_class
                for index, entry in enumerate(slots):
                    if entry[0] is hc:
                        if index:
                            # MRU promotion, as in ICSite.lookup.
                            del slots[index]
                            slots.insert(0, entry)
                        result = entry[1].execute(obj)
                        if result is not MISS:
                            counters = self.counters
                            counters.ic_accesses += 1
                            counters.ic_hits += 1
                            if site.state is _MONOMORPHIC:
                                counters.ic_hits_mono += 1
                            else:
                                counters.ic_hits_poly += 1
                            counters.instructions[CATEGORY_EXECUTE] += (
                                _IC_HIT_COST
                            )
                            if site.preloaded_addresses and site.was_preloaded(
                                hc
                            ):
                                self._note_preloaded_hit(site, hc)
                            stack[-1] = result
                            return pc
                        break
            stack[-1] = self.ic.named_load(site, obj, frame.names[a])
            return pc
        stack[-1] = self.get_property(obj, frame.names[a])
        return pc

    def _op_set_prop(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """SET_PROP: the inline MONO/POLY probe, else the IC miss path
        (see _op_get_prop)."""
        stack = frame.stack
        obj = stack[-2]
        if isinstance(obj, JSObject):
            site = frame.sites[b]
            slots = site.slots
            if slots:
                hc = obj.hidden_class
                for index, entry in enumerate(slots):
                    if entry[0] is hc:
                        if index:
                            del slots[index]
                            slots.insert(0, entry)
                        value = stack[-1]
                        result = entry[1].execute(obj, value)
                        if result is not MISS:
                            counters = self.counters
                            counters.ic_accesses += 1
                            counters.ic_hits += 1
                            if site.state is _MONOMORPHIC:
                                counters.ic_hits_mono += 1
                            else:
                                counters.ic_hits_poly += 1
                            counters.instructions[CATEGORY_EXECUTE] += (
                                _IC_HIT_COST
                            )
                            if site.preloaded_addresses and site.was_preloaded(
                                hc
                            ):
                                self._note_preloaded_hit(site, hc)
                            if frame.names[a] == "prototype" and isinstance(
                                obj, JSFunction
                            ):
                                obj.invalidate_constructor_hc()
                            stack.pop()
                            stack[-1] = value
                            return pc
                        break
            value = stack.pop()
            self.ic.named_store(site, obj, frame.names[a], value)
            stack[-1] = value
            return pc
        value = stack.pop()
        if obj is UNDEFINED or obj is NULL:
            raise self.guest_type_error(
                f"Cannot set properties of {to_string(obj)} "
                f"(setting '{frame.names[a]}')"
            )
        # Writes to other primitives are silently dropped (non-strict JS).
        stack[-1] = value
        return pc

    def _op_obj_lit_prop(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """A literal's property: SET_PROP that leaves the literal, not the
        value, on the stack."""
        stack = frame.stack
        literal = stack[-2]
        pc = self._op_set_prop(frame, a, b, pc)
        stack[-1] = literal
        return pc

    def _op_get_index(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """GET_INDEX: for an element key on an object, the probe of
        ``_op_load_global`` on the receiver's hidden class, else the IC
        miss path.

        A slot that matches the class but holds a handler of the other
        direction goes to the miss path, which replaces it.  String keys
        always enter the runtime, which owns the stub cache.
        """
        stack = frame.stack
        key = stack.pop()
        obj = stack[-1]
        if isinstance(obj, JSObject):
            site = frame.sites[a]
            slots = site.slots
            if slots:
                index = element_index(key)
                if index is not None:
                    hc = obj.hidden_class
                    front = slots[0]
                    handler = front[1] if front[0] is hc else site.lookup(hc)
                    if isinstance(handler, LoadElementHandler):
                        counters = self.counters
                        counters.ic_accesses += 1
                        counters.ic_hits += 1
                        counters.instructions[CATEGORY_EXECUTE] += _IC_HIT_COST
                        stack[-1] = handler.execute(obj, index)
                        return pc
            stack[-1] = self.ic.keyed_load(site, obj, key)
            return pc
        if isinstance(obj, str):
            index = element_index(key)
            if index is not None and index < len(obj):
                stack[-1] = obj[index]
                return pc
        stack[-1] = self.get_property(obj, to_property_key(key))
        return pc

    def _op_set_index(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """SET_INDEX: the probe of ``_op_get_index``, for stores."""
        stack = frame.stack
        value = stack.pop()
        key = stack.pop()
        obj = stack[-1]
        if isinstance(obj, JSObject):
            site = frame.sites[a]
            slots = site.slots
            if slots:
                index = element_index(key)
                if index is not None:
                    hc = obj.hidden_class
                    front = slots[0]
                    handler = front[1] if front[0] is hc else site.lookup(hc)
                    if isinstance(handler, StoreElementHandler):
                        counters = self.counters
                        counters.ic_accesses += 1
                        counters.ic_hits += 1
                        counters.instructions[CATEGORY_EXECUTE] += _IC_HIT_COST
                        handler.execute(obj, index, value)
                        stack[-1] = value
                        return pc
            self.ic.keyed_store(site, obj, key, value)
        elif obj is UNDEFINED or obj is NULL:
            raise self.guest_type_error(
                f"Cannot set properties of {to_string(obj)} "
                f"(setting '{to_property_key(key)}')"
            )
        # Writes to other primitives are silently dropped (non-strict JS).
        stack[-1] = value
        return pc

    def _op_delete_prop(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        obj = stack.pop()
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.DICT_ACCESS)
        if isinstance(obj, JSObject):
            stack.append(self.runtime.delete_property(obj, frame.names[a]))
        else:
            stack.append(True)
        return pc

    def _op_delete_index(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        key = stack.pop()
        obj = stack.pop()
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.DICT_ACCESS)
        if isinstance(obj, JSObject):
            stack.append(self.runtime.delete_property(obj, to_property_key(key)))
        else:
            stack.append(True)
        return pc

    # allocation

    def _op_make_function(self, frame: Frame, a: int, b: int, pc: int) -> int:
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.ALLOCATE_FUNCTION)
        fn_code = frame.consts[a]
        assert isinstance(fn_code, CodeObject)
        frame.stack.append(self.runtime.new_function(fn_code, frame.env))
        return pc

    def _op_make_object(self, frame: Frame, a: int, b: int, pc: int) -> int:
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.ALLOCATE_OBJECT)
        frame.stack.append(self.runtime.new_object())
        return pc

    def _op_make_array(self, frame: Frame, a: int, b: int, pc: int) -> int:
        self.counters.charge(
            CATEGORY_RUNTIME_OTHER,
            cost.ALLOCATE_ARRAY + cost.NATIVE_PER_ELEMENT * a,
        )
        stack = frame.stack
        elements = stack[len(stack) - a :]
        del stack[len(stack) - a :]
        stack.append(self.runtime.new_array(elements))
        return pc

    # calls

    def _op_call(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        args = stack[len(stack) - a :]
        del stack[len(stack) - a :]
        callee = stack.pop()
        stack.append(self.call_value(callee, UNDEFINED, args))
        return pc

    def _op_call_method(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        args = stack[len(stack) - a :]
        del stack[len(stack) - a :]
        callee = stack.pop()
        receiver = stack.pop()
        stack.append(self.call_value(callee, receiver, args))
        return pc

    def _op_new(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        args = stack[len(stack) - a :]
        del stack[len(stack) - a :]
        ctor = stack.pop()
        stack.append(self.construct(ctor, args))
        return pc

    def _op_return(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.return_value = frame.stack.pop()
        return _RETURN_PC

    # control flow

    def _op_jump(self, frame: Frame, a: int, b: int, pc: int) -> int:
        return a

    def _op_jump_if_false(self, frame: Frame, a: int, b: int, pc: int) -> int:
        if not to_boolean(frame.stack.pop()):
            return a
        return pc

    def _op_jump_if_true(self, frame: Frame, a: int, b: int, pc: int) -> int:
        if to_boolean(frame.stack.pop()):
            return a
        return pc

    def _op_jump_if_false_keep(self, frame: Frame, a: int, b: int, pc: int) -> int:
        if not to_boolean(frame.stack[-1]):
            return a
        return pc

    def _op_jump_if_true_keep(self, frame: Frame, a: int, b: int, pc: int) -> int:
        if to_boolean(frame.stack[-1]):
            return a
        return pc

    def _op_throw(self, frame: Frame, a: int, b: int, pc: int) -> int:
        raise GuestThrow(frame.stack.pop())

    def _op_setup_try(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.try_stack.append((a, len(frame.stack)))
        return pc

    def _op_pop_try(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.try_stack.pop()
        return pc

    def _op_for_in_prep(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        obj = stack.pop()
        if isinstance(obj, JSObject):
            keys = obj.own_property_names()
            self.counters.charge(
                CATEGORY_RUNTIME_OTHER,
                cost.DICT_ACCESS + cost.NATIVE_PER_ELEMENT * len(keys),
            )
            stack.append(ForInIterator(keys))
        else:
            stack.append(ForInIterator([]))
        return pc

    def _op_for_in_next(self, frame: Frame, a: int, b: int, pc: int) -> int:
        iterator = frame.stack[-1]
        assert isinstance(iterator, ForInIterator)
        key = iterator.next_key()
        if key is None:
            return a
        frame.stack.append(key)
        return pc

    # operators

    def _op_binary(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        right = stack.pop()
        left = stack[-1]
        # Type-feedback recorder: one mask OR per dispatch (both loops
        # share this handler, so governed runs record too).
        frame.arith[pc - 1] |= operand_type_bits(left, right)
        stack[-1] = self._binary_operators[a](left, right)
        return pc

    def _op_unary(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        stack[-1] = UNARY_OPERATORS[a](stack[-1])
        return pc

    # fused superinstructions (emitted by bytecode/optimizer.py only)

    def _op_inc_local_const(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """INC_LOCAL_CONST: ``locals[a] = locals[a] + consts[b]``.

        Fused form of LOAD_LOCAL;LOAD_CONST;BINARY ADD;DUP;STORE_LOCAL;
        POP — the same ``+`` (number add or string concat), zero net
        stack effect, one dispatch instead of six.
        """
        slots = frame.slots
        slots[a] = _ADD(slots[a], frame.consts[b])
        return pc

    def _op_cmp_jump_if_false(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """CMP_JUMP_IF_FALSE: fused BINARY ``b``; JUMP_IF_FALSE ``a``."""
        stack = frame.stack
        right = stack.pop()
        left = stack.pop()
        frame.arith[pc - 1] |= operand_type_bits(left, right)
        if not to_boolean(self._binary_operators[b](left, right)):
            return a
        return pc

    def _op_cmp_jump_if_true(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """CMP_JUMP_IF_TRUE: fused BINARY ``b``; JUMP_IF_TRUE ``a``."""
        stack = frame.stack
        right = stack.pop()
        left = stack.pop()
        frame.arith[pc - 1] |= operand_type_bits(left, right)
        if to_boolean(self._binary_operators[b](left, right)):
            return a
        return pc

    # typed (quickened) opcodes — emitted only by repro/specialize/quicken.py
    #
    # Each carries an inline guard over the profile the persisted record
    # promised.  A guard failure deoptimizes: the site's instruction is
    # patched back to its generic opcode (in the shared code object *and*
    # this VM's threaded cache), the site is demoted in the feedback
    # state so the next extraction persists a tombstone, and the generic
    # handler then executes the access — so a deopting dispatch is
    # observably identical to the generic opcode having been there all
    # along, modulo the specialized_*/deopt_* counters and the
    # DEOPT_PATCH cost charge.

    def _deopt(
        self,
        frame: Frame,
        pc: int,
        generic_op: int,
        a: int,
        b: int,
        feedback_key: str,
    ) -> int:
        """Despecialize the site at ``pc - 1`` and run its generic form."""
        site_pc = pc - 1
        code = frame.code
        # In-place single-element patch.  The tree is this session's own
        # quickened clone (core/session.py quickens per session; shared
        # artifacts hold generic code), so no other run sees the patch.
        code.instructions[site_pc] = (int(generic_op), a, b)
        handler = self._dispatch[generic_op]
        threaded = self._threaded_cache.get(id(code))
        if threaded is not None:
            threaded[site_pc] = (handler, a, b)
        counters = self.counters
        counters.deopts += 1
        counters.despecialized_sites += 1
        counters.charge(CATEGORY_RIC, cost.DEOPT_PATCH)
        self.feedback.demoted_sites.add(feedback_key)
        return handler(frame, a, b, pc)

    def _arith_site_key(self, frame: Frame, pc: int) -> str:
        return f"{frame.code.decl_key}@{pc - 1}:arith"

    def _op_add_int(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """ADD_INT: BINARY ADD whose operands stayed integral numbers."""
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if (
            type(left) is float
            and type(right) is float
            and left.is_integer()
            and right.is_integer()
        ):
            stack.pop()
            stack[-1] = left + right
            self.counters.specialized_hits += 1
            return pc
        return self._deopt(
            frame, pc, Ops.BINARY, a, b, self._arith_site_key(frame, pc)
        )

    def _op_add_num(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """ADD_NUM: BINARY ADD whose operands stayed numbers."""
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if type(left) is float and type(right) is float:
            stack.pop()
            stack[-1] = left + right
            self.counters.specialized_hits += 1
            return pc
        return self._deopt(
            frame, pc, Ops.BINARY, a, b, self._arith_site_key(frame, pc)
        )

    def _op_sub_num(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if type(left) is float and type(right) is float:
            stack.pop()
            stack[-1] = left - right
            self.counters.specialized_hits += 1
            return pc
        return self._deopt(
            frame, pc, Ops.BINARY, a, b, self._arith_site_key(frame, pc)
        )

    def _op_mul_num(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if type(left) is float and type(right) is float:
            stack.pop()
            stack[-1] = left * right
            self.counters.specialized_hits += 1
            return pc
        return self._deopt(
            frame, pc, Ops.BINARY, a, b, self._arith_site_key(frame, pc)
        )

    def _op_cmp_int_jump_if_false(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """Typed CMP_JUMP_IF_FALSE for integral operands."""
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if (
            type(left) is float
            and type(right) is float
            and left.is_integer()
            and right.is_integer()
        ):
            del stack[-2:]
            self.counters.specialized_hits += 1
            if not _CMP_FUNCS[b](left, right):
                return a
            return pc
        return self._deopt(
            frame, pc, Ops.CMP_JUMP_IF_FALSE, a, b, self._arith_site_key(frame, pc)
        )

    def _op_cmp_int_jump_if_true(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if (
            type(left) is float
            and type(right) is float
            and left.is_integer()
            and right.is_integer()
        ):
            del stack[-2:]
            self.counters.specialized_hits += 1
            if _CMP_FUNCS[b](left, right):
                return a
            return pc
        return self._deopt(
            frame, pc, Ops.CMP_JUMP_IF_TRUE, a, b, self._arith_site_key(frame, pc)
        )

    def _op_cmp_num_jump_if_false(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """Typed CMP_JUMP_IF_FALSE for numeric operands."""
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if type(left) is float and type(right) is float:
            del stack[-2:]
            self.counters.specialized_hits += 1
            if not _CMP_FUNCS[b](left, right):
                return a
            return pc
        return self._deopt(
            frame, pc, Ops.CMP_JUMP_IF_FALSE, a, b, self._arith_site_key(frame, pc)
        )

    def _op_cmp_num_jump_if_true(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        right = stack[-1]
        left = stack[-2]
        if type(left) is float and type(right) is float:
            del stack[-2:]
            self.counters.specialized_hits += 1
            if _CMP_FUNCS[b](left, right):
                return a
            return pc
        return self._deopt(
            frame, pc, Ops.CMP_JUMP_IF_TRUE, a, b, self._arith_site_key(frame, pc)
        )

    def _op_get_prop_slot(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """GET_PROP_SLOT: direct-offset load at a site a trusted record
        persisted one ``load_field`` slot for.

        One hidden-class identity compare against the site's front slot,
        then a raw ``obj.slots[offset]`` — no handler object, no probe
        loop.  The offset is that slot's handler's (``spec_table``), the
        one RIC preloads into the slot compared here.  IC accounting is
        byte-identical to an inline-probe hit of GET_PROP (accesses,
        hits, tier, preloaded attribution) so quickening never perturbs
        IC statistics; only the modeled cost differs (SPECIALIZED_PROP
        instead of IC_PROBE + HANDLER_EXECUTE).
        """
        stack = frame.stack
        obj = stack[-1]
        if isinstance(obj, JSObject):
            site = frame.sites[b]
            slots = site.slots
            if slots:
                hc = obj.hidden_class
                if slots[0][0] is hc:
                    counters = self.counters
                    counters.ic_accesses += 1
                    counters.ic_hits += 1
                    if site.state is _MONOMORPHIC:
                        counters.ic_hits_mono += 1
                    else:
                        counters.ic_hits_poly += 1
                    counters.specialized_hits += 1
                    counters.instructions[CATEGORY_EXECUTE] += (
                        cost.SPECIALIZED_PROP
                    )
                    if site.preloaded_addresses and site.was_preloaded(hc):
                        self._note_preloaded_hit(site, hc)
                    stack[-1] = obj.slots[frame.code.spec_table[a][1]]
                    return pc
        return self._deopt(
            frame,
            pc,
            Ops.GET_PROP,
            frame.code.spec_table[a][0],
            b,
            frame.sites[b].info.site_key,
        )

    def _op_set_prop_slot(self, frame: Frame, a: int, b: int, pc: int) -> int:
        """SET_PROP_SLOT: direct-offset overwrite store (see GET_PROP_SLOT).

        Only non-transitioning stores to existing fields are ever
        quickened, and never stores to ``prototype`` — so no transition,
        no shape-dependent invalidation, no constructor-cache check.
        """
        stack = frame.stack
        obj = stack[-2]
        if isinstance(obj, JSObject):
            site = frame.sites[b]
            slots = site.slots
            if slots:
                hc = obj.hidden_class
                if slots[0][0] is hc:
                    value = stack[-1]
                    counters = self.counters
                    counters.ic_accesses += 1
                    counters.ic_hits += 1
                    if site.state is _MONOMORPHIC:
                        counters.ic_hits_mono += 1
                    else:
                        counters.ic_hits_poly += 1
                    counters.specialized_hits += 1
                    counters.instructions[CATEGORY_EXECUTE] += (
                        cost.SPECIALIZED_PROP
                    )
                    if site.preloaded_addresses and site.was_preloaded(hc):
                        self._note_preloaded_hit(site, hc)
                    obj.slots[frame.code.spec_table[a][1]] = value
                    stack.pop()
                    stack[-1] = value
                    return pc
        return self._deopt(
            frame,
            pc,
            Ops.SET_PROP,
            frame.code.spec_table[a][0],
            b,
            frame.sites[b].info.site_key,
        )

    def _op_typeof(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        stack[-1] = type_of(stack[-1])
        return pc

    # stack manipulation

    def _op_pop(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.pop()
        return pc

    def _op_dup(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.append(frame.stack[-1])
        return pc

    def _op_dup2(self, frame: Frame, a: int, b: int, pc: int) -> int:
        frame.stack.extend(frame.stack[-2:])
        return pc

    def _op_swap(self, frame: Frame, a: int, b: int, pc: int) -> int:
        stack = frame.stack
        stack[-1], stack[-2] = stack[-2], stack[-1]
        return pc

    # -- operators ------------------------------------------------------------------
    #
    # Every other operator is a pure function of the operator table
    # (repro.runtime.operators); these two need the runtime.

    def _in(self, left: object, right: object) -> bool:
        if not isinstance(right, JSObject):
            raise self.guest_type_error("'in' requires an object")
        self.counters.charge(CATEGORY_RUNTIME_OTHER, cost.PROPERTY_LOOKUP_BASE)
        name = to_property_key(left)
        index = element_index(name)
        if index is not None:
            holder: JSObject | None = right
            while holder is not None:
                if holder.has_own_element(index):
                    return True
                holder = holder.hidden_class.prototype
        return self.runtime.lookup_property(right, name).kind != "absent"

    def _instanceof(self, left: object, right: object) -> bool:
        if not isinstance(right, JSFunction):
            raise self.guest_type_error("Right-hand side of 'instanceof' is not callable")
        if not isinstance(left, JSObject):
            return False
        prototype = right.get_own("prototype")[1]
        current = left.hidden_class.prototype
        while current is not None:
            if current is prototype:
                return True
            current = current.hidden_class.prototype
        return False
