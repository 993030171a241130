"""Global and keyed-element IC sites, pinned by a golden.

A stress program drives every global and keyed site through the states
the IC can reach:

* global reads and writes in a loop while new globals appear, so a site
  goes MONO -> POLY -> MEGA and then misses for good;
* the global object demoted to dictionary mode, by growing past 64 own
  properties (the ``grow`` variant) or by ``delete`` of a global (the
  ``delete`` variant), after which stale slots never match again;
* ``typeof`` of a name before and after it exists (``LOAD_GLOBAL_SOFT``)
  and a caught ``ReferenceError``;
* element loads and stores on arrays and plain objects: holes,
  out-of-range, negative, fractional and >= 2**31 keys, array growth
  through ``SET_INDEX``, compound assignment, a keyed site that goes
  megamorphic, and element access on a dictionary-mode object;
* string keys that hit the stub cache, that miss it (an absent name, a
  new name each time) and whose cached prototype-chain handler is
  invalidated.

Each variant prints exactly what node prints for the same source.  Its
fingerprint (every counter, and digests of output, heap and per-site IC
transcript, cold and reused, quickening on and off) is the golden entry
``global_keyed-<variant>`` in ``tests/golden/property_paths.json``; it
was made before global and keyed hits moved inline into the VM.

Every IC site kind has one hit path, the VM's inline slot probe:
``ICRuntime.global_load``/``global_store``/``keyed_load``/``keyed_store``
are entered only on a miss (or, for string keys, for the stub cache).
:class:`TestHitsStayInline` wraps those four and fails on any entry the
site's slots could have served, over the hot scripts and this program.
Those probes trust that a global or keyed slot holds a handler their own
miss path installed, so a record that links such a site preloads
nothing (:class:`TestRecordsNeverLinkGlobalOrKeyedSites`).
"""

from __future__ import annotations

import collections
import string

import pytest

from repro.bytecode.code import SiteKind
from repro.core.config import RICConfig
from repro.core.engine import Engine
from repro.ic.handlers import LoadElementHandler, StoreElementHandler
from repro.ic.miss import ICRuntime
from repro.ric.icrecord import ICRecord, SiteSlot, ToastPair
from repro.runtime.values import element_index
from repro.workloads import polyshapes, typedarith
from tests.helpers import run_cold_and_reused
from tests.property_paths import golden_entry, protocol_fingerprints

GLOBAL_KEYED_STRESS = string.Template(
    """
var log = [];
var counter = 0;
var step = 1;

function readGlobals() { return counter + step; }
function writeGlobal(x) { counter = x; }
function addGlobal(n) { globalThis["added" + n] = n; }
function probeLater() { return typeof later; }
function defineLater() { later = 7; }
function readLater() { return later; }
function makeVictim() { victim = "v"; }

log.push(probeLater(), probeLater());
defineLater();
makeVictim();
log.push(probeLater(), probeLater(), readLater());
for (var w = 0; w < 20; w++) { writeGlobal(readGlobals()); log.push(typeof step); }
try { log.push(notDeclared); } catch (e) { log.push("caught"); }

for (var i = 0; i < $loop; i++) {
  writeGlobal(readGlobals());
  if (typeof counter == "number" && i % $every == 0) { addGlobal(i); }
  if (i == $delete_at) { delete globalThis.victim; }
}
log.push(counter, typeof victim, readLater(), typeof added0, probeLater());
console.log("globals", log.join(" "));

function getAt(o, k) { return o[k]; }
function setAt(o, k, v) { o[k] = v; }

var arr = [10, 20, 30];
for (var j = 0; j < 40; j++) { setAt(arr, arr.length, j); }
console.log("grown", getAt(arr, "length"), getAt(arr, 42), arr[0] + arr[41]);
setAt(arr, arr.length + 3, "gap");
setAt(arr, arr.length + 100, "far");
arr[3] += 100;
arr[4]++;
var plain = { name: "p" };
setAt(plain, 0, "zero");
setAt(plain, 5, "five");
setAt(plain, -1, "neg");
setAt(plain, 1.5, "frac");
setAt(plain, 2147483648, "big");
setAt(plain, 2147483647, "max");
setAt(arr, -1, "aneg");
setAt(arr, 2.5, "afrac");
setAt(arr, 2147483648, "abig");
var keys = [0, 1, 3, 4, 5, 42, 43, 45, 46, 147, 500, -1, 1.5, 2.5,
  2147483647, 2147483648, 4294967296, "0", "5", "05", "name", "x"];
var out = [];
for (var m = 0; m < keys.length; m++) {
  out.push(String(getAt(arr, keys[m])) + "/" + String(getAt(plain, keys[m])));
}
console.log("keyed", out.join(" "));

function Proto() { this.own = 1; }
Proto.prototype.greet = function () { return "hi"; };
var inst = new Proto();
var named = [];
for (var s = 0; s < 8; s++) {
  named.push(typeof getAt(inst, "greet"), getAt(inst, "own"), getAt(plain, "name"), getAt(plain, "absent"));
  if (s == 3) { Proto.prototype.extra = 1; }
}
console.log("strings", named.join(" "));

var receivers = [arr, plain, inst, { a: 1 }, { b: 2, c: 3 }, globalThis, [7]];
var seen = [];
for (var r = 0; r < 28; r++) {
  var target = receivers[r % 7];
  setAt(target, 0, r);
  seen.push(getAt(target, 0));
}
console.log("mega", seen.join(" "));

delete plain.name;
console.log("dict", getAt(plain, 0), getAt(plain, "name"), getAt(plain, 5), getAt(plain, 2147483648));
"""
)

#: ``grow`` adds a global every iteration until the global object passes
#: 64 own properties; ``delete`` adds one every third iteration and then
#: deletes an assigned (hence configurable) global.
VARIANTS = {
    "grow": {"loop": 60, "every": 1, "delete_at": -1},
    "delete": {"loop": 30, "every": 3, "delete_at": 7},
}


def global_keyed_program(variant: str) -> str:
    return GLOBAL_KEYED_STRESS.substitute(VARIANTS[variant])


class TestGlobalKeyedGolden:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_golden(self, variant):
        result = protocol_fingerprints(global_keyed_program(variant))
        assert result == golden_entry(f"global_keyed-{variant}", result)
        counters = result["specialize=0"]["cold"]["counters"]
        assert counters["misses_by_reason"]["global"] > 0
        assert counters["ic_hits"] > 0

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_program_reaches_every_state(self, variant):
        engine = Engine(config=RICConfig(specialize=False), seed=9)
        profile = engine.run(global_keyed_program(variant), name="fuzz")
        session = engine.last_run
        assert session.runtime.global_object.in_dictionary_mode
        states: dict[SiteKind, set[str]] = {}
        for site in session.feedback.all_sites():
            states.setdefault(site.info.kind, set()).add(site.state.value)
        assert "megamorphic" in states[SiteKind.KEYED_LOAD]
        assert "megamorphic" in states[SiteKind.KEYED_STORE]
        assert "monomorphic" in states[SiteKind.KEYED_LOAD]
        if variant == "grow":
            assert "megamorphic" in states[SiteKind.GLOBAL_LOAD]
            assert "megamorphic" in states[SiteKind.GLOBAL_STORE]
        else:
            assert "polymorphic" in states[SiteKind.GLOBAL_LOAD]
            assert "polymorphic" in states[SiteKind.GLOBAL_STORE]
        assert profile.console_output[0].startswith(
            "globals undefined undefined number number 7 number"
        )
        victim = "string" if variant == "grow" else "undefined"
        assert profile.console_output[0].split()[-4] == victim
        assert profile.console_output[1] == "grown 43 39 48"


# -- hits never enter ICRuntime -------------------------------------------------

HOT_SCRIPTS = [
    ("typedarith.jsl", typedarith.SOURCE),
    ("polyshapes.jsl", polyshapes.SOURCE),
]

_GLOBAL_OR_KEYED = (
    SiteKind.GLOBAL_LOAD,
    SiteKind.GLOBAL_STORE,
    SiteKind.KEYED_LOAD,
    SiteKind.KEYED_STORE,
)


@pytest.fixture
def runtime_entries(monkeypatch):
    """Wrap the four global/keyed runtime entries.  Each entry asserts
    that the site's slots could not have served the access, and that the
    site was never preloaded; the fixture counts the entries."""
    entries: collections.Counter = collections.Counter()

    def guard(method_name, check):
        original = getattr(ICRuntime, method_name)

        def entry(self, site, *args, **kwargs):
            assert not site.preloaded_addresses, site
            check(self, site, *args)
            entries[method_name] += 1
            return original(self, site, *args, **kwargs)

        monkeypatch.setattr(ICRuntime, method_name, entry)

    def global_miss(self, site, *args):
        hc = self.runtime.global_object.hidden_class
        assert all(slot_hc is not hc for slot_hc, _ in site.slots), site

    def keyed_miss(handler_class):
        def check(self, site, obj, key, *args):
            if element_index(key) is not None:
                hc = obj.hidden_class
                assert not any(
                    slot_hc is hc and isinstance(handler, handler_class)
                    for slot_hc, handler in site.slots
                ), site

        return check

    guard("global_load", global_miss)
    guard("global_store", global_miss)
    guard("keyed_load", keyed_miss(LoadElementHandler))
    guard("keyed_store", keyed_miss(StoreElementHandler))
    return entries


def assert_never_preloaded(feedback) -> None:
    for site in feedback.all_sites():
        if site.info.kind in _GLOBAL_OR_KEYED:
            assert not site.preloaded_addresses, site


class TestHitsStayInline:
    @pytest.mark.parametrize("specialize", [False, True])
    def test_hot_scripts_cold_and_reused(self, runtime_entries, specialize):
        runs = run_cold_and_reused(
            HOT_SCRIPTS, config=RICConfig(specialize=specialize)
        )
        assert runs.cold.console_output == runs.reused.console_output
        assert runs.reused.counters.ic_hits_on_preloaded > 0
        assert_never_preloaded(runs.engine.last_run.feedback)
        # The guard saw real traffic: every global and keyed entry was a
        # miss, and the misses are few next to the hits.
        entered = sum(runtime_entries.values())
        assert 0 < entered < runs.reused.counters.ic_hits / 20

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_stress_program_cold_and_reused(self, runtime_entries, variant):
        engine = Engine(seed=9)
        source = global_keyed_program(variant)
        engine.run(source, name="fuzz")
        assert_never_preloaded(engine.last_run.feedback)
        reused = engine.run(source, name="fuzz", icrecord=engine.extract_icrecord())
        assert reused.counters.ric_preloads > 0
        assert_never_preloaded(engine.last_run.feedback)
        assert set(runtime_entries) == {
            "global_load",
            "global_store",
            "keyed_load",
            "keyed_store",
        }


# -- a record that links a global or keyed site -----------------------------------

HOSTILE_SOURCE = """
var x = 5;
var arr = [1, 2];
function f() { return x + arr[1]; }
console.log(f(), f());
"""


def record_linking(engine, site_kind: SiteKind, handler: dict):
    """A structurally valid record whose last HCVT row (the global
    object's class after the declarations, validated through its TOAST
    chain) links a ``site_kind`` site.  Extraction never writes one."""
    session = engine.last_run
    site_key = next(
        site.info.site_key
        for site in session.feedback.all_sites()
        if site.info.kind is site_kind
    )
    chain = [session.runtime.global_object.hidden_class]
    while chain[-1].incoming is not None:
        chain.append(chain[-1].incoming)
    chain.reverse()
    record = ICRecord(script_keys=engine.extract_icrecord().script_keys)
    record.handlers = [handler]
    record.num_hidden_classes = len(chain)
    record.toast = {chain[0].creation_key: [ToastPair(None, None, 0)]}
    for hcid, hc in enumerate(chain[1:], start=1):
        record.toast.setdefault(hc.creation_key, []).append(
            ToastPair(hcid - 1, hc.transition_property, hcid)
        )
    record.site_slots[site_key] = [SiteSlot(len(chain) - 1, 0)]
    return record


class TestRecordsNeverLinkGlobalOrKeyedSites:
    @pytest.mark.parametrize(
        "site_kind, handler",
        [
            (SiteKind.GLOBAL_LOAD, {"kind": "load_array_length"}),
            (SiteKind.GLOBAL_LOAD, {"kind": "load_field", "offset": 0}),
            (SiteKind.KEYED_LOAD, {"kind": "load_element"}),
        ],
    )
    def test_reuse_preloads_nothing(self, site_kind, handler):
        engine = Engine(seed=1)
        cold = engine.run(HOSTILE_SOURCE, name="hostile")
        record = record_linking(engine, site_kind, handler)
        reused = engine.run(HOSTILE_SOURCE, name="hostile", icrecord=record)
        assert reused.counters.ric_validations == record.num_hidden_classes
        assert reused.counters.ric_preloads == 0
        assert reused.console_output == cold.console_output == ["7 7"]
        assert_never_preloaded(engine.last_run.feedback)
