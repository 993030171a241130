"""Per-layer spans, recorded from outside the program.

The traced run wraps the public functions at each layer boundary of
``src/repro`` (nothing under ``src/`` is edited).  A wrapper times one
call and charges its *self* time, the call's duration minus the time its
wrapped children took, to the layer it names.  Spans are aggregated per
load in memory rather than logged one by one: the IC slow path alone is
entered thousands of times per load.

Wrappers are installed around a traced load and removed after it, so
the untraced loads of the same run (and every load of a ``--trace 0``
run) execute the program's own functions, untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: (layer, module, attribute).  ``Class.method`` attributes are patched
#: on the class; plain functions are patched in every ``repro`` module
#: that holds a reference to them (``from x import f`` copies the name).
TARGETS = [
    ("lang.parse", "repro.lang.parser", "parse"),
    ("bytecode.compile", "repro.bytecode.compiler", "compile_source"),
    ("bytecode.optimize", "repro.bytecode.optimizer", "optimize_code"),
    ("bytecode.cache_load", "repro.bytecode.cache", "CodeCache.lookup"),
    ("bytecode.cache_store", "repro.bytecode.cache", "CodeCache.store"),
    ("server.get", "repro.server.client", "RemoteRecordStore.get"),
    ("server.put", "repro.server.client", "RemoteRecordStore.put"),
    ("ric.decode", "repro.ric.serialize", "record_from_envelope"),
    ("ric.encode", "repro.ric.serialize", "record_to_envelope"),
    ("ric.validate", "repro.ric.validate", "validate_record"),
    ("ric.extract", "repro.ric.store", "extract_per_script_records"),
    ("ric.admit", "repro.core.session", "admit_record"),
    ("specialize.quicken", "repro.specialize.quicken", "quicken_code"),
    ("ric.preload", "repro.ric.reuse", "ReuseSession.on_hidden_class_created"),
    ("core.artifacts", "repro.core.artifacts", "ArtifactCache.get_many"),
    ("core.preflight", "repro.core.session", "RunSession.__init__"),
    ("runtime.builtins", "repro.runtime.builtins", "install_builtins"),
    ("interpreter.execute", "repro.core.session", "RunSession.execute"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.named_load"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.named_store"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.keyed_load"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.keyed_store"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.global_load"),
    ("ic.slowpath", "repro.ic.miss", "ICRuntime.global_store"),
]

#: Every layer a span can be charged to, in report order.
LAYERS = list(dict.fromkeys(layer for layer, _, _ in TARGETS))


class SpanRecorder:
    """Self time per layer, plus the wall time covered by outermost spans.

    Single-threaded by design: the load generator runs one load at a
    time on one thread, so one stack of open spans suffices.

    A wrapper's own cost would otherwise land in layer self times: the
    part inside its timed window in its own layer, the part outside it
    (the call, the bookkeeping after the clock stops) in the parent's.
    :meth:`calibrate` measures both on a no-op, and the recorder moves
    them to :attr:`overhead_ns`, so self times stay comparable when a
    change alters how often a layer is entered.  The calibration is an
    estimate; ``trace.overhead_pct`` reports the real cost.
    """

    def __init__(self):
        self._stack: list[list[int]] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.covered_ns = 0
        #: Calibrated wrapper cost within outermost spans, charged to no layer.
        self.overhead_ns = 0
        self._inside_ns = 0
        self._outside_ns = 0
        #: Envelopes built while tracing, sized after the load ends so the
        #: measurement does not land inside a span.
        self.envelopes: list = []
        self._patches: list[tuple[object, str, object]] = []
        #: ``(layer, target)`` for every target the program no longer has.
        self.missing: list[tuple[str, str]] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.covered_ns = 0
        self.overhead_ns = 0
        self.envelopes.clear()

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns
        keep_result = layer == "ric.encode"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    self.envelopes.append(result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0] - self._inside_ns
                calls[layer] += 1
                self.overhead_ns += self._inside_ns
                if stack:
                    stack[-1][0] += elapsed + self._outside_ns
                    self.overhead_ns += self._outside_ns
                else:
                    self.covered_ns += elapsed

        return wrapper

    def calibrate(self, calls: int = 20000, rounds: int = 5) -> None:
        """Measure the wrapper's per-call cost on a no-op, best of
        ``rounds``: inside its timed window (what a span measured beyond
        the bare call) and outside it (the rest of the wrapped call)."""

        # Three arguments, like the IC slow path, the most frequent span.
        def noop(site, obj, name):
            return None

        wrapped = self._wrap("calibration", noop)
        self._inside_ns = self._outside_ns = 0
        clock = time.perf_counter_ns
        inside = outside = None
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                noop(None, None, None)
            raw = clock() - start
            self.self_ns["calibration"] = 0
            start = clock()
            for _ in range(calls):
                wrapped(None, None, None)
            total = clock() - start
            measured = self.self_ns["calibration"]
            round_inside = (measured - raw) / calls
            round_outside = (total - measured - raw) / calls
            inside = round_inside if inside is None else min(inside, round_inside)
            outside = round_outside if outside is None else min(outside, round_outside)
        self._inside_ns = max(0, round(inside))
        self._outside_ns = max(0, round(outside))
        self.reset()

    def install(self) -> None:
        """Patch every target; a target the program no longer has is
        listed in :attr:`missing`, and the run reports no time for its
        layer and fails its self-check."""
        if self._patches:
            raise RuntimeError("span wrappers already installed")
        self.missing = []
        modules = {}
        for _, module_name, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        # Scanned after the imports above, so aliases they create count.
        repro_modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, module_name, attribute in TARGETS:
            module = modules.get(module_name)
            if module is None:
                self.missing.append((layer, f"{module_name}.{attribute}"))
                continue
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if owner is not None else None
                if original is None:
                    self.missing.append((layer, f"{module_name}.{attribute}"))
                    continue
                self._patch(owner, member, original, self._wrap(layer, original))
                continue
            original = getattr(module, member, None)
            if original is None:
                self.missing.append((layer, f"{module_name}.{attribute}"))
                continue
            wrapper = self._wrap(layer, original)
            for holder in repro_modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()
