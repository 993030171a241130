"""Guest-instruction cost model.

The paper measures *dynamic instruction counts* with Pin on x86 (Figures 5
and 8).  Our substrate is a Python bytecode interpreter, so we substitute a
deterministic cost model: every VM action is charged a documented number of
"guest instructions" approximating what a native engine would execute.  The
absolute scale is arbitrary; what the experiments reproduce is the *shape* —
the fraction of work spent in IC miss handling and the relative reduction
RIC achieves — which depends only on the ratios below being realistic:
IC miss handling (runtime entry + layout lookup + handler generation +
ICVector update + hidden-class creation) costs two orders of magnitude more
than a bytecode dispatch or an IC hit, as it does in V8.
"""

from __future__ import annotations

#: Cost of dispatching and executing one ordinary bytecode.
DISPATCH = 4

#: Extra cost of an IC probe at an object access site (map load + compare).
IC_PROBE = 3

#: Executing a matched handler (the IC hit fast path).
HANDLER_EXECUTE = 6

#: Saving state and entering the runtime on an IC miss.
RUNTIME_ENTRY = 60

#: Base cost of a runtime property lookup...
PROPERTY_LOOKUP_BASE = 30
#: ...plus per own-layout entry scanned...
PROPERTY_LOOKUP_PER_PROPERTY = 4
#: ...plus per prototype hop walked.
PROPERTY_LOOKUP_PER_HOP = 25

#: Generating a specialised handler routine.
HANDLER_GENERATE = 90

#: Appending/updating an ICVector slot.
IC_UPDATE = 25

#: Creating a hidden class (allocate, copy layout, link transition).
HIDDEN_CLASS_CREATE = 110

#: Dictionary-mode (uncacheable) property access via the runtime.
DICT_ACCESS = 45

#: Cost of a native builtin call (beyond its per-element work).
NATIVE_CALL_BASE = 30
#: Per-element cost inside native builtins (push, join, ...).
NATIVE_PER_ELEMENT = 6

#: Allocating a guest object / array / function.
ALLOCATE_OBJECT = 40
ALLOCATE_ARRAY = 45
ALLOCATE_FUNCTION = 70

#: Guest function call / return sequence (frame setup, arg shuffling).
CALL_SETUP = 25

#: RIC reuse-run bookkeeping (paper §7.3: "negligible").
RIC_TOAST_LOOKUP = 12
RIC_VALIDATE = 10
RIC_PRELOAD_SLOT = 14

#: Fused superinstructions (bytecode/optimizer.py).  A fused instruction
#: charges exactly one DISPATCH through the VM's batched loop — no bespoke
#: cost constant — so its modeled win is the (width - 1) dispatches the
#: eliminated window instructions would have charged.  The widths below
#: document that accounting; tests/test_optimizer.py holds fused and
#: unfused twins to identical output while the dispatch counters differ
#: by exactly these eliminated instructions.
FUSED_INC_LOCAL_CONST_WIDTH = 6  # LOAD_LOCAL;LOAD_CONST;ADD;DUP;STORE_LOCAL;POP
FUSED_CMP_JUMP_WIDTH = 2  # BINARY <cmp>;JUMP_IF_FALSE/TRUE

#: Type-specialized (quickened) opcodes — repro/specialize/.  The typed
#: arithmetic/compare variants (ADD_INT, ADD_NUM, CMP_*_JUMP_*) are
#: width-neutral: their inline type guard rides inside the one DISPATCH
#: every bytecode already charges, so their modeled cost equals the
#: generic opcode's and their win is host-level (no operator dispatch
#: chain).  The specialized property opcodes are *cheaper* than the IC
#: hit they replace: a monomorphic GET_PROP/SET_PROP inline-probe hit
#: pays IC_PROBE + HANDLER_EXECUTE (9) on top of its dispatch, while
#: GET_PROP_SLOT/SET_PROP_SLOT pay SPECIALIZED_PROP (one hidden-class
#: identity compare plus a direct slot access) — the quickening win the
#: bench's modeled-cost gate measures.
SPECIALIZED_PROP = 2

#: In-place demotion of a typed opcode after a guard failure: patch the
#: instruction (and the VM's threaded dispatch entry) back to the generic
#: form.  Charged to the "ric" category — deoptimization is specialization
#: machinery, not guest work — once per demoted site.
DEOPT_PATCH = 40

#: Cycles-per-instruction by instruction category, for the modeled
#: execution time (Figure 9).  The paper observes that the time reduction
#: slightly exceeds the instruction reduction "because the instructions
#: eliminated involve cache misses" — IC miss handling walks cold layout
#: tables and allocates, so it carries a higher CPI than straight-line
#: bytecode execution.
CPI = {
    "execute": 1.0,
    "ic_miss": 1.5,
    "runtime_other": 1.15,
    "ric": 1.2,
}

#: Modeled clock for converting cycles to milliseconds.
CLOCK_GHZ = 2.0


def modeled_time_ms(instructions_by_category: dict) -> float:
    """Convert a per-category instruction breakdown to modeled milliseconds."""
    cycles = sum(
        count * CPI.get(category, 1.0)
        for category, count in instructions_by_category.items()
    )
    return cycles / (CLOCK_GHZ * 1e6)
