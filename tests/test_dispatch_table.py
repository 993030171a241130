"""The dispatch table is total, convention-bound, and semantics-preserving.

Guards the PR-2 interpreter rewrite:

* every :class:`Op` resolves to its own ``_op_<name>`` handler — adding an
  opcode without a handler must fail loudly (at VM construction *and*
  here),
* gap values between opcodes stay "unknown opcode" errors,
* a property-access stress program, on a bare VM, keeps the output,
  counters (to the instruction), heap and ICVector transitions pinned
  in ``tests/golden/property_paths.json`` (see ``tests/property_paths.py``).
"""

from __future__ import annotations

import pytest

from repro.bytecode.compiler import compile_source
from repro.bytecode.opcodes import Op
from repro.ic.icvector import FeedbackState
from repro.ic.miss import ICRuntime
from repro.interpreter.vm import VM
from repro.lang.errors import JSLRuntimeError
from repro.runtime.builtins import install_builtins
from repro.runtime.context import Runtime
from repro.stats.counters import Counters
from tests.property_paths import fingerprint, golden_entry, ic_transcript


class TestTableConstruction:
    def test_every_opcode_has_its_own_handler(self):
        vm = _construct(VM)
        names = set()
        for op in Op:
            handler = vm.dispatch_handler(op)
            expected = f"_op_{op.name.lower()}"
            assert handler.__func__.__name__ == expected, (
                f"{op.name} is bound to {handler.__func__.__name__}"
            )
            names.add(handler.__func__.__name__)
        # Injective: no two opcodes share a handler method.
        assert len(names) == len(list(Op))

    def test_gap_values_raise_unknown_opcode(self):
        vm = _construct(VM)
        gaps = [value for value in range(max(Op) + 1) if value not in set(Op)]
        assert gaps, "Op values currently have gaps; update this test if not"
        for value in gaps:
            handler = vm._dispatch[value]
            assert handler.__func__.__name__ == "_op_invalid"
        with pytest.raises(JSLRuntimeError, match="unknown opcode"):
            vm._dispatch[gaps[0]](None, 0, 0, 0)

    def test_new_opcode_without_handler_fails_at_construction(self):
        class IncompleteVM(VM):
            _op_load_const = None  # simulates Op.LOAD_CONST with no handler

        with pytest.raises(NotImplementedError, match="LOAD_CONST"):
            _construct(IncompleteVM)


def _construct(vm_class) -> VM:
    runtime = Runtime(seed=3)
    counters = Counters()
    runtime.hidden_classes.on_created = lambda hc: None
    install_builtins(runtime)
    return vm_class(
        runtime, counters, ICRuntime(runtime, counters), FeedbackState()
    )


# -- property-path stress program, against the golden -------------------------

#: Exercises every IC state the sites can reach: monomorphic hits,
#: polymorphic and megamorphic dispatch, add-transitions, prototype-chain
#: loads, not-found loads, and constructor-"prototype" store invalidation.
PROPERTY_STRESS = """
function read(o) { return o.v; }
function write(o, x) { o.v = x; }

var mono = { v: 1 };
var total = 0;
for (var i = 0; i < 40; i++) { write(mono, i); total += read(mono); }
console.log("mono", total);

function readPoly(o) { return o.v; }
var shapes = [ { v: 1 }, { a: 0, v: 2 }, { b: 0, c: 0, v: 3 } ];
var poly = 0;
for (var j = 0; j < 30; j++) { poly += readPoly(shapes[j % 3]); }
console.log("poly", poly);

var mega = [
  { v: 1 }, { m1: 0, v: 2 }, { m2: 0, v: 3 },
  { m3: 0, v: 4 }, { m4: 0, v: 5 }, { m5: 0, v: 6 }
];
var megaTotal = 0;
for (var k = 0; k < 24; k++) { megaTotal += read(mega[k % 6]); }
console.log("mega", megaTotal);

function Point(x, y) { this.x = x; this.y = y; }
Point.prototype.norm1 = function () { return this.x + this.y; };
var points = [];
for (var p = 0; p < 10; p++) { points.push(new Point(p, p + 1)); }
var norms = 0;
for (var q = 0; q < points.length; q++) { norms += points[q].norm1(); }
console.log("proto", norms);

var sparse = { present: 1 };
var misses = 0;
for (var r = 0; r < 8; r++) {
  if (sparse.absent === undefined) { misses++; }
}
console.log("notfound", misses, sparse.present);

var grown = {};
grown.a = 1; grown.b = 2; grown.c = 3; grown.d = 4;
console.log("transitions", grown.a + grown.b + grown.c + grown.d);
"""


def run_stress() -> VM:
    vm = _construct(VM)
    code = compile_source(PROPERTY_STRESS, "stress.jsl")
    vm.feedback.register_script(code)
    vm.run_code(code)
    return vm


class TestFastPathEquivalence:
    """The golden was made while the inline probe and a generic twin
    were cross-checked on this program; both agreed on all of it."""

    @pytest.fixture(scope="class")
    def run(self):
        vm = run_stress()
        result = fingerprint(
            vm.counters, vm.runtime.console_output, vm.runtime, vm.feedback
        )
        return vm, result, golden_entry("stress", result)

    def test_same_console_output(self, run):
        vm, result, golden = run
        assert result["output"] == golden["output"]
        assert len(vm.runtime.console_output) == 6

    def test_same_counters_to_the_instruction(self, run):
        vm, result, golden = run
        assert result["counters"] == golden["counters"]
        assert vm.counters.ic_hits > 0 and vm.counters.ic_misses > 0

    def test_same_icvector_transitions(self, run):
        vm, result, golden = run
        assert result["ic"] == golden["ic"]
        assert result["heap"] == golden["heap"]
        states = {entry[1] for entry in ic_transcript(vm.feedback)}
        # The stress program must actually reach all three warm states.
        assert {"monomorphic", "polymorphic", "megamorphic"} <= states
