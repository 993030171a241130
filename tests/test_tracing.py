"""Tests for the IC/RIC event tracer."""

from repro.core.engine import Engine
from repro.stats.tracing import (
    HANDLER_GENERATED,
    HC_CREATED,
    IC_MISS,
    PRELOADED_HIT,
    RIC_DIVERGENCE,
    RIC_PRELOADED,
    RIC_VALIDATED,
    SITE_MEGAMORPHIC,
    TraceEvent,
    Tracer,
)
from repro.workloads import polyshapes

SOURCE = """
function C() { this.v = 1; }
var a = new C();
var b = new C();
function read(o) { return o.v; }
read(a); read(b);
"""


def traced_protocol(source=SOURCE, seed=9):
    engine = Engine(seed=seed)
    initial_tracer = Tracer()
    engine.run(source, name="t", tracer=initial_tracer)
    record = engine.extract_icrecord()
    reuse_tracer = Tracer()
    engine.run(source, name="t", icrecord=record, tracer=reuse_tracer)
    return initial_tracer, reuse_tracer


class TestTracerBasics:
    def test_events_are_sequenced(self):
        initial, _ = traced_protocol()
        sequences = [event.sequence for event in initial.events]
        assert sequences == list(range(len(sequences)))

    def test_initial_run_has_misses_and_creations(self):
        initial, _ = traced_protocol()
        assert initial.count(IC_MISS) > 0
        assert initial.count(HC_CREATED) > 0
        assert initial.count(HANDLER_GENERATED) > 0
        # No RIC events without a record.
        assert initial.count(RIC_VALIDATED) == 0
        assert initial.count(RIC_PRELOADED) == 0

    def test_reuse_run_has_ric_events(self):
        _, reuse = traced_protocol()
        assert reuse.count(RIC_VALIDATED) > 0
        assert reuse.count(RIC_PRELOADED) > 0
        assert reuse.count(PRELOADED_HIT) > 0

    def test_counts_match_counters(self):
        engine = Engine(seed=9)
        tracer = Tracer()
        profile = engine.run(SOURCE, name="t", tracer=tracer)
        assert tracer.count(IC_MISS) == profile.counters.ic_misses - (
            profile.counters.misses_by_reason["global"]
        )
        assert tracer.count(HC_CREATED) == profile.counters.hidden_classes_created
        assert tracer.count(HANDLER_GENERATED) == profile.counters.handlers_generated

        # One PRELOADED_HIT per counted preloaded hit, loads and stores
        # alike, on a reuse run with thousands of them.
        engine = Engine(seed=9)
        engine.run(polyshapes.SOURCE, name="polyshapes")
        record = engine.extract_icrecord()
        tracer = Tracer()
        profile = engine.run(
            polyshapes.SOURCE, name="polyshapes", icrecord=record, tracer=tracer
        )
        assert profile.counters.ic_hits_on_preloaded > 1000
        assert tracer.count(PRELOADED_HIT) == profile.counters.ic_hits_on_preloaded

    def test_validation_order_builtins_first(self):
        _, reuse = traced_protocol()
        validations = reuse.by_kind(RIC_VALIDATED)
        # The first validations happen during builtin installation, before
        # any guest code runs (paper §4: builtins validated at startup).
        creations = reuse.by_kind(HC_CREATED)
        assert creations[0].site_key.startswith("builtin:")
        assert validations[0].sequence < 30

    def test_preload_precedes_preloaded_hit(self):
        _, reuse = traced_protocol()
        preload = reuse.by_kind(RIC_PRELOADED)[0]
        hits = [
            event
            for event in reuse.by_kind(PRELOADED_HIT)
            if event.site_key == preload.site_key
        ]
        assert hits and all(event.sequence > preload.sequence for event in hits)


class TestTracerQueries:
    def test_for_site(self):
        initial, _ = traced_protocol()
        miss = initial.by_kind(IC_MISS)[0]
        assert miss in initial.for_site(miss.site_key)

    def test_summary_totals(self):
        initial, _ = traced_protocol()
        assert sum(initial.summary().values()) == len(initial.events)

    def test_render_and_limit(self):
        initial, _ = traced_protocol()
        text = initial.render(limit=3)
        assert "more events" in text
        assert len(text.splitlines()) == 4

    def test_kind_filter(self):
        engine = Engine(seed=9)
        tracer = Tracer(kinds={IC_MISS})
        engine.run(SOURCE, name="t", tracer=tracer)
        assert tracer.events
        assert all(event.kind == IC_MISS for event in tracer.events)

    def test_event_str(self):
        event = TraceEvent(0, IC_MISS, site_key="a.jsl:1:1:named_load", hc_index=3)
        text = str(event)
        assert "ic_miss" in text and "a.jsl:1:1" in text and "hc=#3" in text


class TestTraceSemantics:
    def test_divergence_traced(self):
        template = """
        var o = {};
        if (BRANCH) o.x = 1;
        o.y = 2;
        console.log(o.y);
        """
        def scripts(branch):
            return [
                ("config.jsl", f"var BRANCH = {'true' if branch else 'false'};"),
                ("f.jsl", template),
            ]
        engine = Engine(seed=9)
        engine.run(scripts(False), name="f")
        record = engine.extract_icrecord()
        tracer = Tracer()
        engine.run(scripts(True), name="f", icrecord=record, tracer=tracer)
        divergences = tracer.by_kind(RIC_DIVERGENCE)
        assert divergences
        assert any("named_store" in (event.site_key or "") for event in divergences)

    def test_megamorphic_transition_traced(self):
        source = """
        function read(o) { return o.v; }
        var shapes = [
          {v: 1}, {a: 0, v: 2}, {b: 0, v: 3}, {c: 0, v: 4}, {d: 0, v: 5}
        ];
        var total = 0;
        for (var i = 0; i < shapes.length; i++) { total += read(shapes[i]); }
        """
        engine = Engine(seed=9)
        tracer = Tracer()
        engine.run(source, name="m", tracer=tracer)
        assert tracer.count(SITE_MEGAMORPHIC) >= 1

    def test_tracing_does_not_change_measurements(self):
        engine = Engine(seed=9)
        # Warm the in-process code cache so both compared runs see a hit
        # (bytecode_cache_* counters differ between a cold and warm run
        # regardless of tracing).
        engine.run(SOURCE, name="t", seed=1)
        with_tracer = engine.run(SOURCE, name="t", seed=1, tracer=Tracer())
        without = engine.run(SOURCE, name="t", seed=1)
        assert with_tracer.counters.as_dict() == without.counters.as_dict()
