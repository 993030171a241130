"""Tests for RIC: extraction, the ICRecord, reuse validation and preloading.

Includes a direct reproduction of the paper's Figure 7 walk-through: the
same-control-flow Reuse run reuses state; the divergent run (branch taken)
validates nothing and stays correct.
"""

import pytest

from repro.ric.extraction import extract_icrecord
from repro.ric.serialize import (
    load_icrecord,
    record_from_json,
    record_size_bytes,
    record_to_json,
    save_icrecord,
)
from tests.helpers import run_cold_and_reused

#: The paper's running example (Figures 4 and 7).  The branch condition
#: comes from a separate config script so the figure7.jsl *content* is
#: identical across runs — divergence is a runtime control-flow fact, as in
#: the paper, not a source edit (edited sources are different scripts and
#: are refused outright by the content-identity gate).
FIGURE7_SOURCE = """
var o = {};
if (BRANCH) o.x = 1;
o.y = 2;
console.log(o.y);
"""


def figure7_scripts(branch):
    return [
        ("config.jsl", f"var BRANCH = {'true' if branch else 'false'};"),
        ("figure7.jsl", FIGURE7_SOURCE),
    ]


class TestExtraction:
    def test_record_covers_all_hidden_classes(self, engine):
        profile = engine.run("var o = {}; o.a = 1; o.b = 2;", name="t")
        record = engine.extract_icrecord()
        assert record.num_hidden_classes == profile.counters.hidden_classes_created

    def test_toast_has_builtin_entries(self, engine):
        engine.run("var x = 1;", name="t")
        record = engine.extract_icrecord()
        assert "builtin:EmptyObject" in record.toast
        assert "builtin:Math" in record.toast
        builtin_pairs = record.toast["builtin:EmptyObject"]
        assert builtin_pairs[0].incoming_hcid is None

    def test_toast_excludes_global_object(self, engine):
        engine.run("var x = 1; var y = 2;", name="t")
        record = engine.extract_icrecord()
        assert "builtin:global" not in record.toast

    def test_toast_site_entries_record_transitions(self, engine):
        engine.run("var o = {}; o.a = 1;", name="t")
        record = engine.extract_icrecord()
        site_keys = [k for k in record.toast if k.endswith("named_store")]
        assert site_keys, "expected a triggering store site in the TOAST"
        pair = record.toast[site_keys[0]][0]
        assert pair.transition_property == "a"
        assert pair.incoming_hcid is not None

    def test_dependents_require_ci_handlers(self, engine):
        engine.run(
            """
            function C() { this.v = 1; }
            var a = new C();
            var b = new C();
            function read(o) { return o.v; }
            read(a); read(b);
            """,
            name="t",
        )
        record = engine.extract_icrecord()
        links = [slot for slots in record.site_slots.values() for slot in slots]
        assert links
        for slot in links:
            handler = record.handlers[slot.handler_id]
            assert handler["kind"] in (
                "load_field",
                "store_field",
                "load_array_length",
                "load_element",
                "store_element",
            )

    def test_cd_dependents_tracked_separately(self, engine):
        engine.run(
            """
            function C() {}
            C.prototype.m = 7;
            var o = new C();
            var x = o.m;
            """,
            name="t",
        )
        record = engine.extract_icrecord()
        cd_sites = [s for sites in record.cd_dependent_sites.values() for s in sites]
        assert cd_sites, "prototype-chain load should be a CD dependent"

    def test_handler_store_deduplicates(self, engine):
        engine.run(
            """
            var a = {v: 1};
            var b = {w: 0, v: 2};
            function r1(o) { return o.v; }
            function r2(o) { return o.v; }
            r1(a); r2(a); r1(b); r2(b);
            """,
            name="t",
        )
        record = engine.extract_icrecord()
        texts = [tuple(sorted(h.items())) for h in record.handlers]
        assert len(texts) == len(set(texts))

    def test_ctor_hidden_classes_get_toast_entries(self, engine):
        engine.run("function C() {} var o = new C();", name="t")
        record = engine.extract_icrecord()
        ctor_keys = [k for k in record.toast if k.startswith("ctor:")]
        assert len(ctor_keys) >= 1

    def test_extraction_requires_a_run(self, engine):
        with pytest.raises(RuntimeError):
            engine.extract_icrecord()

    def test_extraction_time_recorded(self, engine):
        engine.run("var x = 1;", name="t")
        record = engine.extract_icrecord()
        assert record.extraction_time_ms > 0


class TestFigure7:
    """The paper's §5.3 walk-through."""

    SHARED = """
    var o = {};
    if (false) o.x = 1;
    o.y = 2;
    console.log(o.y);
    """

    def test_same_control_flow_reuses_state(self, engine):
        engine.run(figure7_scripts(branch=False), name="fig7")
        record = engine.extract_icrecord()
        reuse = engine.run(figure7_scripts(branch=False), name="fig7", icrecord=record)
        # The load at L1 was preloaded when S2's transition validated.
        assert reuse.counters.ric_preloads >= 1
        assert reuse.counters.ic_hits_on_preloaded >= 1
        assert reuse.console_output == ["2"]

    def test_divergent_control_flow_stays_correct(self, engine):
        engine.run(figure7_scripts(branch=False), name="fig7")
        record = engine.extract_icrecord()
        # Replace the script with the branch-taken variant: object now has
        # {x, y}, a different hidden-class chain (Figure 7(e)).
        divergent = engine.run(
            figure7_scripts(branch=True), name="fig7", icrecord=record
        )
        assert divergent.console_output == ["2"]
        # S2's transition cannot validate: its incoming class differs.
        assert divergent.counters.ric_divergences >= 1

    def test_divergence_never_preloads_wrong_slots(self, engine):
        engine.run(figure7_scripts(branch=False), name="fig7")
        record = engine.extract_icrecord()
        engine.run(figure7_scripts(branch=True), name="fig7", icrecord=record)
        # L1 (the load of o.y) must not have been preloaded with the stale
        # offset — the transition chain diverged.  (Builtin-validated
        # dependents like console.log may still legitimately preload.)
        feedback = engine.last_run.feedback
        l1_sites = [
            site
            for site in feedback.all_sites()
            if site.info.name == "y" and site.info.kind.value == "named_load"
        ]
        assert l1_sites
        for site in l1_sites:
            assert not site.preloaded_addresses


class TestReuseRuns:
    WORKLOAD = """
    function Vec(x, y) { this.x = x; this.y = y; }
    Vec.prototype.dot = function (o) { return this.x * o.x + this.y * o.y; };
    function len2(v) { return v.dot(v); }
    function sum(v, w) { return v.x + w.x + v.y + w.y; }
    var a = new Vec(1, 2);
    var b = new Vec(3, 4);
    console.log(len2(a), len2(b), sum(a, b));
    """

    def test_ric_reduces_misses_and_instructions(self):
        runs = run_cold_and_reused(self.WORKLOAD, name="vec")
        assert runs.reused.counters.ic_misses < runs.cold.counters.ic_misses
        assert runs.reused.total_instructions < runs.cold.total_instructions
        assert runs.outputs_identical

    def test_conventional_reuse_equals_initial_ic_behavior(self, engine):
        initial = engine.run(self.WORKLOAD, name="vec")
        conventional = engine.run(self.WORKLOAD, name="vec")
        assert initial.counters.ic_misses == conventional.counters.ic_misses
        assert initial.total_instructions == conventional.total_instructions

    def test_reuse_run_addresses_differ_but_validation_succeeds(self, engine):
        engine.run(self.WORKLOAD, name="vec")
        record = engine.extract_icrecord()
        runtime_a = engine.last_run.runtime
        ric = engine.run(self.WORKLOAD, name="vec", icrecord=record)
        runtime_b = engine.last_run.runtime
        addresses_a = {hc.index: hc.address for hc in runtime_a.hidden_classes.all_classes}
        addresses_b = {hc.index: hc.address for hc in runtime_b.hidden_classes.all_classes}
        assert addresses_a != addresses_b  # the paper's premise
        assert ric.counters.ric_validations > 0

    def test_code_cache_hit_on_reuse(self, engine):
        initial = engine.run(self.WORKLOAD, name="vec")
        reuse = engine.run(self.WORKLOAD, name="vec")
        assert initial.code_cache_misses == 1
        assert reuse.code_cache_hits == 1

    def test_record_applies_to_partially_loaded_workload(self, engine):
        scripts = [
            ("one.jsl", "function C() { this.v = 1; } var a = new C(); console.log(a.v);"),
            ("two.jsl", "var b = new C(); console.log(b.v);"),
        ]
        engine.run(scripts, name="two-files")
        record = engine.extract_icrecord()
        # Reuse with only the first script: dependents in two.jsl are simply
        # not found; nothing breaks.
        only_first = engine.run([scripts[0]], name="one-file", icrecord=record)
        assert only_first.console_output == ["1"]

    def test_ric_bookkeeping_costs_are_charged(self):
        runs = run_cold_and_reused(self.WORKLOAD, name="vec")
        assert runs.reused.counters.instructions["ric"] > 0

    def test_megamorphic_sites_not_overfilled_by_preloads(self):
        source = """
        function read(o) { return o.v; }
        var shapes = [
          {v: 1}, {a: 0, v: 2}, {b: 0, v: 3}, {c: 0, v: 4},
          {d: 0, v: 5}, {e: 0, v: 6}, {f: 0, v: 7}
        ];
        var total = 0;
        for (var i = 0; i < shapes.length; i++) { total += read(shapes[i]); }
        console.log(total);
        """
        runs = run_cold_and_reused(source, name="mega")
        assert runs.reused.console_output == ["28"]


class TestSerialization:
    def test_round_trip_preserves_everything(self, engine, tmp_path):
        engine.run(TestReuseRuns.WORKLOAD, name="vec")
        record = engine.extract_icrecord()
        path = tmp_path / "record.json"
        save_icrecord(record, path)
        loaded = load_icrecord(path)
        assert record_to_json(loaded) == record_to_json(record)

    def test_loaded_record_still_works(self, engine, tmp_path):
        engine.run(TestReuseRuns.WORKLOAD, name="vec")
        record = engine.extract_icrecord()
        path = tmp_path / "record.json"
        save_icrecord(record, path)
        ric = engine.run(TestReuseRuns.WORKLOAD, name="vec", icrecord=load_icrecord(path))
        assert ric.counters.ic_hits_on_preloaded > 0

    def test_version_check(self):
        with pytest.raises(ValueError):
            record_from_json({"version": 999})

    def test_record_size_positive_and_stable(self, engine):
        engine.run("var o = {}; o.a = 1;", name="t")
        record = engine.extract_icrecord()
        assert record_size_bytes(record) == record_size_bytes(record) > 0

    def test_stats_shape(self, engine):
        engine.run("var o = {}; o.a = 1;", name="t")
        record = engine.extract_icrecord()
        stats = record.stats()
        assert set(stats) == {
            "hidden_classes",
            "toast_entries",
            "toast_pairs",
            "dependent_links",
            "cd_dependent_links",
            "handlers",
            "slot_sites",
            "poly_slot_sites",
            "feedback_sites",
            "feedback_tombstones",
            "extraction_time_ms",
        }


class TestCrossRunSoundness:
    def test_outputs_identical_across_many_seeds(self):
        source = TestReuseRuns.WORKLOAD
        for seed in range(5):
            runs = run_cold_and_reused(source, seed=seed, name="vec")
            assert runs.outputs_identical

    def test_record_from_different_program_is_harmless(self):
        runs = run_cold_and_reused(
            TestReuseRuns.WORKLOAD,
            seed=9,
            name="vec",
            record_from="var o = {}; o.zz = 1;",
        )
        assert runs.reused.console_output == ["5 25 10"]
        assert runs.outputs_identical


class TestContentIdentityGate:
    """Regression for a soundness hole the program fuzzer found: a record
    extracted from script A must not apply to a *different* script B that
    shares A's filename and coincidentally aligned source positions.
    Records are content-keyed, like the bytecode cache."""

    TEMPLATE = """var log = [];
var obj1 = {beta: 0, gamma: 0, delta: 0};
log.push(obj1.PROP);
console.log(log.join(","));
"""

    def test_changed_source_same_positions_is_refused(self):
        # A reads .beta (exists, offset 0); B reads .alpha (absent) at the
        # exact same position.  Without content keying, A's load_field[0]
        # would be preloaded into B's site and read beta's value.
        source_a = self.TEMPLATE.replace("PROP", "beta")
        source_b = self.TEMPLATE.replace("PROP", "alpha")
        runs = run_cold_and_reused(
            [("<script>", source_b)],
            seed=13,
            name="b",
            record_from=[("<script>", source_a)],
        )
        assert runs.cold.console_output == [""]  # alpha is absent
        assert runs.outputs_identical
        assert runs.reused.counters.ric_preloads == 0

    def test_matching_source_still_reuses(self):
        source = self.TEMPLATE.replace("PROP", "beta")
        runs = run_cold_and_reused([("<script>", source)], seed=13, name="a")
        assert runs.reused.counters.ric_preloads > 0

    def test_mixed_workload_trusts_only_matching_files(self):
        lib = "function C() { this.v = 1; } var o = new C(); console.log(o.v);"
        app_v1 = "var x = {k: 1}; console.log(x.k);"
        app_v2 = "var x = {z: 9}; console.log(x.z);"  # same positions, new shape
        # app.jsl changed; lib.jsl did not.  Reuse must help lib and ignore app.
        runs = run_cold_and_reused(
            [("lib.jsl", lib), ("app.jsl", app_v2)],
            seed=13,
            name="v2",
            record_from=[("lib.jsl", lib), ("app.jsl", app_v1)],
        )
        assert runs.reused.console_output == ["1", "9"]
        assert runs.reused.counters.ric_validations > 0  # lib still validates
