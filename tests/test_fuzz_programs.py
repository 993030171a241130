"""Randomized program generation: VM robustness and RIC soundness fuzzing.

A hypothesis-driven generator assembles random (but always valid) jsl
programs out of statement templates — object construction, prototype
methods, property churn, loops, branches on generated data, deletes,
keyed access — and checks the two properties that must hold for *any*
program:

1. the program runs to completion with a balanced VM (no stack residue,
   no host exceptions), and
2. the RIC Reuse run prints exactly what the Initial run printed
   (soundness), while never increasing the miss count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.snapshot import serialize_user_globals
from repro.core.config import RICConfig
from repro.core.engine import Engine
from tests.property_paths import golden_entry, protocol_fingerprints

# -- program generator ----------------------------------------------------------

_PROP_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon"]


@st.composite
def jsl_programs(draw) -> str:
    """Generate a deterministic jsl program that logs a digest at the end."""
    lines: list[str] = [
        "var log = [];",
        "function Thing(seed) { this.seed = seed; this.score = 0; }",
        "Thing.prototype.bump = function (n) { this.score += n; return this.score; };",
        "var things = [];",
    ]

    # A pool of objects with randomized (but statically known) shapes.
    object_count = draw(st.integers(min_value=1, max_value=5))
    for index in range(object_count):
        props = draw(
            st.lists(
                st.sampled_from(_PROP_NAMES), min_size=0, max_size=4, unique=True
            )
        )
        literal = ", ".join(
            f"{name}: {draw(st.integers(min_value=-9, max_value=9))}"
            for name in props
        )
        lines.append(f"var obj{index} = {{{literal}}};")

    # Statement templates, chosen repeatedly.
    statement_count = draw(st.integers(min_value=3, max_value=15))
    for _ in range(statement_count):
        kind = draw(st.integers(min_value=0, max_value=12))
        target = draw(st.integers(min_value=0, max_value=object_count - 1))
        prop = draw(st.sampled_from(_PROP_NAMES))
        value = draw(st.integers(min_value=-99, max_value=99))
        if kind == 0:
            lines.append(f"obj{target}.{prop} = {value};")
        elif kind == 1:
            lines.append(f"log.push(obj{target}.{prop});")
        elif kind == 2:
            lines.append(f'obj{target}["{prop}"] = {value};')
        elif kind == 3:
            lines.append(
                f"if (obj{target}.{prop} !== undefined) "
                f"{{ log.push('has:{prop}'); }} else {{ log.push('no:{prop}'); }}"
            )
        elif kind == 4:
            lines.append(f"delete obj{target}.{prop};")
        elif kind == 5:
            lines.append(f"things.push(new Thing({value}));")
        elif kind == 6:
            lines.append(
                "for (var i = 0; i < things.length; i++) "
                f"{{ things[i].bump({abs(value) % 7}); }}"
            )
        elif kind == 7:
            lines.append(
                f"var keys{len(lines)} = [];"
                f"for (var k in obj{target}) {{ keys{len(lines)}.push(k); }}"
                f"log.push(keys{len(lines)}.join('+'));"
            )
        elif kind == 8:
            count = abs(value) % 4 + 1
            lines.append(
                f"for (var j = 0; j < {count}; j++) "
                f"{{ obj{target}.{prop} = j; log.push(obj{target}.{prop}); }}"
            )
        elif kind == 9:
            lines.append(
                f"try {{ if (obj{target}.{prop} === {value}) "
                f"{{ throw 'match'; }} }} catch (e) {{ log.push('caught'); }}"
            )
        elif kind == 10:
            # prototype mutation mid-run: stresses chain-handler invalidation
            lines.append(
                f"Thing.prototype.extra{len(lines)} = {value};"
                "if (things.length > 0) { "
                f"log.push(things[0].extra{len(lines) - 1} !== undefined ? 'proto+' : 'proto-'); }}"
            )
        elif kind == 11:
            # Object.create-based derivation
            lines.append(
                f"var derived{len(lines)} = Object.create(obj{target});"
                f"derived{len(lines)}.own = {value};"
                f"log.push(derived{len(lines)}.own + ':' + (derived{len(lines)}.{prop} === obj{target}.{prop}));"
            )
        else:
            # bound method invocation
            lines.append(
                "if (things.length > 0) { "
                f"var bound{len(lines)} = things[0].bump.bind(things[0], {abs(value) % 5});"
                f"log.push(bound{len(lines)}()); }}"
            )

    # Digest: everything observable, deterministically.
    lines.append("var scores = [];")
    lines.append(
        "for (var t = 0; t < things.length; t++) { scores.push(things[t].score); }"
    )
    lines.append('console.log(log.join(","));')
    lines.append('console.log("scores:", scores.join(","));')
    return "\n".join(lines)


# -- properties ------------------------------------------------------------------


class TestGeneratedPrograms:
    @given(jsl_programs())
    @settings(max_examples=40, deadline=None)
    def test_programs_run_to_completion(self, source):
        engine = Engine(seed=4)
        profile = engine.run(source, name="fuzz")
        assert len(profile.console_output) == 2

    @given(jsl_programs())
    @settings(max_examples=40, deadline=None)
    def test_ric_soundness_on_generated_programs(self, source):
        """The headline property: for any program, RIC reuse must be
        observationally identical to a cold run and never increase misses."""
        engine = Engine(seed=4)
        initial = engine.run(source, name="fuzz")
        record = engine.extract_icrecord()
        conventional = engine.run(source, name="fuzz")
        ric = engine.run(source, name="fuzz", icrecord=record)
        assert initial.console_output == conventional.console_output
        assert ric.console_output == initial.console_output
        assert ric.counters.ic_misses <= conventional.counters.ic_misses

    @given(jsl_programs(), jsl_programs())
    @settings(max_examples=15, deadline=None)
    def test_foreign_records_are_harmless(self, source_a, source_b):
        """Reusing program A's record while running program B must never
        change B's behaviour (it may simply not help)."""
        engine = Engine(seed=4)
        engine.run(source_a, name="a")
        record = engine.extract_icrecord()
        clean = engine.run(source_b, name="b")
        with_foreign = engine.run(source_b, name="b", icrecord=record)
        assert clean.console_output == with_foreign.console_output

    @given(jsl_programs())
    @settings(max_examples=15, deadline=None)
    def test_record_serialization_stable_for_generated_programs(self, source):
        import json

        from repro.ric.serialize import record_from_json, record_to_json

        engine = Engine(seed=4)
        engine.run(source, name="fuzz")
        record = engine.extract_icrecord()
        round_tripped = record_from_json(json.loads(json.dumps(record_to_json(record))))
        ric = engine.run(source, name="fuzz", icrecord=round_tripped)
        assert ric.console_output == engine.run(source, name="fuzz").console_output


# -- property-path corpus (seeded, deterministic) --------------------------------
#
# Unlike the hypothesis pass above, this generator is driven by a plain
# ``random.Random(seed)`` so every CI run executes the *same* corpus — a
# reproducible wall in front of the GET_PROP/SET_PROP inline probe,
# checked against ``tests/golden/property_paths.json``.
# Programs are deliberately property-access-heavy: shared accessor
# functions over object pools of mixed shapes (sites go mono → poly →
# megamorphic), add-transitions, prototype-method calls, deletes and
# not-found probes.


def property_heavy_program(rng: random.Random) -> str:
    """One deterministic, always-valid, property-access-heavy jsl program."""
    props = ["p", "q", "r", "s"]
    lines = ["var log = [];"]

    pool_size = rng.randint(3, 7)
    for index in range(pool_size):
        extra = rng.sample(props, rng.randint(0, len(props)))
        literal = ", ".join(
            ["v: %d" % rng.randint(-9, 9)]
            + [f"{name}: {rng.randint(-9, 9)}" for name in extra]
        )
        lines.append(f"var obj{index} = {{{literal}}};")
    lines.append(
        "var pool = [%s];" % ", ".join(f"obj{i}" for i in range(pool_size))
    )

    accessor_count = rng.randint(1, 3)
    for index in range(accessor_count):
        lines.append(f"function get{index}(o) {{ return o.v; }}")
        lines.append(f"function set{index}(o, x) {{ o.v = x; }}")

    lines.append("function Node(tag) { this.tag = tag; this.hits = 0; }")
    lines.append(
        "Node.prototype.touch = function () { this.hits += 1; return this.tag; };"
    )
    lines.append("var nodes = [];")

    for _ in range(rng.randint(6, 18)):
        kind = rng.randint(0, 7)
        accessor = rng.randint(0, accessor_count - 1)
        count = rng.randint(2, 12)
        value = rng.randint(-99, 99)
        prop = rng.choice(props)
        if kind == 0:
            lines.append(
                f"for (var i{len(lines)} = 0; i{len(lines)} < {count}; i{len(lines)}++) "
                f"{{ log.push(get{accessor}(pool[i{len(lines)} % pool.length])); }}"
            )
        elif kind == 1:
            lines.append(
                f"for (var i{len(lines)} = 0; i{len(lines)} < {count}; i{len(lines)}++) "
                f"{{ set{accessor}(pool[i{len(lines)} % pool.length], i{len(lines)} + {value}); }}"
            )
        elif kind == 2:
            target = rng.randint(0, pool_size - 1)
            lines.append(f"obj{target}.{prop} = {value};")
            lines.append(f"log.push(obj{target}.{prop});")
        elif kind == 3:
            target = rng.randint(0, pool_size - 1)
            lines.append(f"delete obj{target}.{prop};")
            lines.append(f"log.push(obj{target}.{prop} === undefined);")
        elif kind == 4:
            lines.append(f"nodes.push(new Node({value}));")
            lines.append(
                "for (var n%d = 0; n%d < nodes.length; n%d++) "
                "{ log.push(nodes[n%d].touch()); }"
                % (len(lines), len(lines), len(lines), len(lines))
            )
        elif kind == 5:
            # fresh object grown property-by-property: add-transitions
            name = f"grown{len(lines)}"
            lines.append(f"var {name} = {{}};")
            for step, grown_prop in enumerate(rng.sample(props, len(props))):
                lines.append(f"{name}.{grown_prop} = {step};")
            lines.append(f"log.push({name}.{props[0]} + {name}.{props[-1]});")
        elif kind == 6:
            target = rng.randint(0, pool_size - 1)
            lines.append(
                f"log.push(obj{target}.absent === undefined ? 'miss' : 'hit');"
            )
        else:
            lines.append(
                f"for (var m{len(lines)} = 0; m{len(lines)} < {count}; m{len(lines)}++) "
                f"{{ var o{len(lines)} = pool[m{len(lines)} % pool.length]; "
                f"set{accessor}(o{len(lines)}, get{accessor}(o{len(lines)}) + 1); }}"
            )

    lines.append("var tally = 0;")
    lines.append(
        "for (var t = 0; t < pool.length; t++) { tally += get0(pool[t]); }"
    )
    lines.append('console.log(log.join(","));')
    lines.append('console.log("tally:", tally, "nodes:", nodes.length);')
    return "\n".join(lines)


class TestFastPathCrossCheck:
    """The GET_PROP/SET_PROP inline probe must be invisible: output, heap,
    IC state and every counter, cold *and* under RIC reuse, match the
    golden made while it was cross-checked against a generic hit path."""

    @pytest.mark.parametrize("seed", range(12))
    def test_fast_path_matches_generic_path(self, seed):
        source = property_heavy_program(random.Random(1000 + seed))
        result = protocol_fingerprints(source)
        assert result == golden_entry(f"property_heavy-{1000 + seed}", result)
        # The corpus must actually lean on the IC machinery to mean anything.
        counters = result["specialize=0"]["cold"]["counters"]
        assert counters["ic_accesses"] > 20
        assert counters["ic_hits"] > 0

    def test_generator_is_deterministic(self):
        assert property_heavy_program(random.Random(7)) == property_heavy_program(
            random.Random(7)
        )


# -- polymorphic-shape generator (seeded, tier-aware) ----------------------------
#
# Programs whose accessor sites see an *exact, chosen* number of hidden
# classes: one constructor family per shape (x/y/tag at distinct offsets
# thanks to per-family pad fields), one read and one write accessor per
# polymorphic degree, pools striped round-robin across the families.  A
# degree-2 site exercises the shallow POLY tier, degree-POLY_LIMIT the
# deepest, degree-(POLY_LIMIT+1) tips megamorphic — the MEGA boundary is
# a generator *parameter*, not an accident of the random draw.


def polymorphic_shape_program(rng: random.Random, degrees) -> str:
    """One deterministic program with one read site and one write site per
    polymorphic degree in ``degrees`` (each seeing exactly that many shapes).

    All globals are var-hoisted before any hot loop runs, so every named
    property site's shape population is exactly its pool's stripe count.
    """
    degrees = sorted(set(degrees))
    max_degree = max(degrees)
    lines = []
    for family in range(max_degree):
        pads = "".join(f"this.pad{p} = {p}; " for p in range(family))
        lines.append(
            f"function Shape{family}(i) {{ {pads}this.x = i + {family}; "
            f"this.y = i * 2; this.tag = {family}; }}"
        )
    for degree in degrees:
        lines.append(f"function read{degree}(o) {{ return o.x + o.y + o.tag; }}")
        lines.append(f"function write{degree}(o, v) {{ o.y = v + o.x; }}")
        size = rng.randint(2 * degree, 4 * degree)
        members = ", ".join(
            f"new Shape{i % degree}({rng.randint(0, 9)})" for i in range(size)
        )
        lines.append(f"var pool{degree} = [{members}];")

    lines.append("var sink = 0;")
    for _ in range(rng.randint(4, 9)):
        degree = rng.choice(degrees)
        mix = rng.randint(0, 2)
        i = f"i{len(lines)}"
        if mix == 0:  # read sweep
            lines.append(
                f"for (var {i} = 0; {i} < pool{degree}.length; {i}++) "
                f"{{ sink = sink + read{degree}(pool{degree}[{i}]); }}"
            )
        elif mix == 1:  # write sweep
            lines.append(
                f"for (var {i} = 0; {i} < pool{degree}.length; {i}++) "
                f"{{ write{degree}(pool{degree}[{i}], {i} + {rng.randint(-9, 9)}); }}"
            )
        else:  # read-modify-write
            o = f"o{len(lines)}"
            lines.append(
                f"for (var {i} = 0; {i} < pool{degree}.length; {i}++) "
                f"{{ var {o} = pool{degree}[{i}]; "
                f"write{degree}({o}, read{degree}({o})); }}"
            )

    for degree in degrees:
        t = f"t{degree}"
        lines.append(f"var digest{degree} = 0;")
        lines.append(
            f"for (var {t} = 0; {t} < pool{degree}.length; {t}++) "
            f"{{ digest{degree} = digest{degree} + read{degree}(pool{degree}[{t}]); }}"
        )
        lines.append(f'console.log("d{degree}:", digest{degree});')
    lines.append('console.log("sink:", sink);')
    return "\n".join(lines)


class TestPolymorphicShapeCrossCheck:
    """The POLY/MEGA tiers of the inline probe under the same invisibility
    contract: for chosen shape populations, output, heap, IC state and
    every counter match the golden made while fast-path and generic
    execution agreed — and the MEGA boundary sits exactly at POLY_LIMIT
    shapes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_poly_fast_path_matches_generic_path(self, seed):
        rng = random.Random(5000 + seed)
        degrees = rng.sample([2, 3, 4, 5, 6], rng.randint(2, 4))
        source = polymorphic_shape_program(rng, degrees)
        result = protocol_fingerprints(source)
        assert result == golden_entry(f"polymorphic-{5000 + seed}", result)
        # The corpus must actually reach the POLY tier to mean anything.
        assert result["specialize=0"]["cold"]["counters"]["ic_hits_poly"] > 0

    @pytest.mark.parametrize("degree", [2, 3, 4, 5, 7])
    def test_each_degree_cross_checks(self, degree):
        source = polymorphic_shape_program(random.Random(degree), [degree])
        result = protocol_fingerprints(source)
        assert result == golden_entry(f"degree-{degree}", result)

    def test_mega_boundary_at_poly_limit(self):
        """Exactly POLY_LIMIT shapes: the deepest POLY tier, no MEGA."""
        from repro.ic.icvector import POLY_LIMIT

        source = polymorphic_shape_program(random.Random(42), [POLY_LIMIT])
        result = protocol_fingerprints(source)
        assert result == golden_entry(f"mega_boundary-{POLY_LIMIT}", result)
        counters = result["specialize=0"]["cold"]["counters"]
        assert counters["ic_hits_poly"] > 0
        assert counters["ic_poly_transitions"] > 0
        assert counters["ic_mega_transitions"] == 0
        assert counters["ic_hits_mega"] == 0

    def test_mega_boundary_past_poly_limit(self):
        """POLY_LIMIT + 1 shapes: the same program shape now tips MEGA."""
        from repro.ic.icvector import POLY_LIMIT

        source = polymorphic_shape_program(random.Random(42), [POLY_LIMIT + 1])
        result = protocol_fingerprints(source)
        assert result == golden_entry(f"mega_boundary-{POLY_LIMIT + 1}", result)
        counters = result["specialize=0"]["cold"]["counters"]
        assert counters["ic_mega_transitions"] >= 1
        assert counters["ic_hits_mega"] > 0

    def test_polymorphic_generator_is_deterministic(self):
        assert polymorphic_shape_program(
            random.Random(3), [2, 5]
        ) == polymorphic_shape_program(random.Random(3), [2, 5])


# -- type-stability generators (seeded, specialization cross-check) --------------
#
# Two seeded generators around one skeleton of shared helper functions
# (int/float arithmetic, monomorphic property accessors): the *stable*
# variant keeps every helper's operand types consistent for the whole
# run — the profile the quickening pass specializes — while the
# *unstable* variant pushes mixed types and shape churn through the very
# same sites — the profile that must become tombstones.  Both are
# cross-checked specialize-on vs specialize-off under the full protocol
# (cold -> extract -> reuse): output, heap, and every counter outside
# the declared specialization-variant set must be identical.


def _stability_skeleton() -> list[str]:
    return [
        "var out = [];",
        "function addi(a, b) { return a + b; }",
        "function subi(a, b) { return a - b; }",
        "function mulf(a, b) { return a * b; }",
        "function Pt(x, y) { this.x = x; this.y = y; }",
        "function getx(p) { return p.x; }",
        "function setx(p, v) { p.x = v; }",
        "var si = 0;",
        "var sf = 0.5;",
    ]


def type_stable_program(rng: random.Random) -> str:
    """Every arithmetic helper sees one operand class for the whole run
    and every property site stays monomorphic: the fully quickenable
    profile (reuse should specialize and never deopt)."""
    lines = _stability_skeleton()
    size = rng.randint(4, 10)
    lines.append("var pts = [];")
    lines.append(
        f"for (var p = 0; p < {size}; p++) {{ pts.push(new Pt(p, p * 2)); }}"
    )
    for _ in range(rng.randint(4, 10)):
        kind = rng.randint(0, 3)
        n = rng.randint(5, 30)
        c = rng.randint(1, 9)
        i = f"i{len(lines)}"
        if kind == 0:
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ si = addi(si, {i} + {c}); }}"
            )
        elif kind == 1:
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ sf = sf + mulf(0.25, {c}); }}"
            )
        elif kind == 2:
            lines.append(
                f"for (var {i} = 0; {i} < pts.length; {i}++) "
                f"{{ setx(pts[{i}], getx(pts[{i}]) + {c}); }}"
            )
        else:
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ si = subi(si, {c}); }}"
            )
    lines.append("out.push(si); out.push(sf);")
    lines.append("for (var t = 0; t < pts.length; t++) { out.push(pts[t].x); }")
    lines.append('console.log(out.join(","));')
    return "\n".join(lines)


def type_unstable_program(rng: random.Random) -> str:
    """The same helpers fed deliberately inconsistent operands — strings
    and bools through the arithmetic, shape churn through the accessors —
    so extraction must tombstone (or skip) every one of those sites and
    reuse must stay deopt-free *because* nothing was specialized."""
    lines = _stability_skeleton()
    size = rng.randint(4, 8)
    lines.append("var pts = [];")
    lines.append(
        f"for (var p = 0; p < {size}; p++) {{ pts.push(new Pt(p, p * 2)); }}"
    )
    lines.append('var st = "";')
    for _ in range(rng.randint(4, 9)):
        kind = rng.randint(0, 4)
        n = rng.randint(4, 16)
        c = rng.randint(1, 9)
        i = f"i{len(lines)}"
        if kind == 0:
            # ints AND strings through the same addi site
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ si = addi(si, {i}); st = addi(st, 'x'); }}"
            )
        elif kind == 1:
            # bools through mulf: non-numeric operand class
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ sf = sf + mulf(true, {c}); }}"
            )
        elif kind == 2:
            # shape churn under the accessors: extra props mid-pool
            lines.append(
                f"for (var {i} = 0; {i} < pts.length; {i}++) {{ "
                f"if ({i} % 2 === 0) {{ pts[{i}].extra{len(lines)} = {c}; }} "
                f"setx(pts[{i}], getx(pts[{i}]) + 1); }}"
            )
        elif kind == 3:
            lines.append(
                f"for (var {i} = 0; {i} < {n}; {i}++) "
                f"{{ si = subi(si, {c}); }}"
            )
        else:
            # delete-and-readd: the x property moves across hidden classes
            lines.append(
                f"delete pts[0].x; pts[0].x = {c}; "
                f"out.push(getx(pts[0]));"
            )
    lines.append("out.push(si); out.push(sf); out.push(st.length);")
    lines.append("for (var t = 0; t < pts.length; t++) { out.push(pts[t].x); }")
    lines.append('console.log(out.join(","));')
    return "\n".join(lines)


def run_specialize_protocol(scripts, specialize: bool, seed: int = 21) -> dict:
    """Full protocol (Initial -> extract -> cold -> reuse) under one
    specialize mode: output, counters and address-free heap for the cold
    and the reuse run."""
    engine = Engine(config=RICConfig(specialize=specialize), seed=seed)
    engine.run(scripts, name="spec")
    record = engine.extract_icrecord()
    cold = engine.run(scripts, name="spec")
    cold_state = serialize_user_globals(engine.last_run.runtime)
    reused = engine.run(scripts, name="spec", icrecord=record)
    reused_state = serialize_user_globals(engine.last_run.runtime)
    return {
        "cold_output": cold.console_output,
        "cold_counters": cold.counters.as_dict(),
        "cold_state": cold_state,
        "reused_output": reused.console_output,
        "reused_counters": reused.counters.as_dict(),
        "reused_state": reused_state,
    }


def assert_specialization_invisible(on: dict, off: dict) -> None:
    """Everything observable — and every counter outside the declared
    variant set — must be identical between the two modes."""
    from tests.test_differential import SPECIALIZE_VARIANT_COUNTERS

    assert on["cold_output"] == off["cold_output"]
    assert on["reused_output"] == off["reused_output"]
    assert on["cold_state"] == off["cold_state"]
    assert on["reused_state"] == off["reused_state"]
    for mode in ("cold_counters", "reused_counters"):
        for key, value in on[mode].items():
            if key not in SPECIALIZE_VARIANT_COUNTERS:
                assert value == off[mode][key], f"{mode}.{key}"


class TestTypeStabilityCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_type_stable_programs_specialize_without_deopts(self, seed):
        scripts = [("stable.jsl", type_stable_program(random.Random(8000 + seed)))]
        on = run_specialize_protocol(scripts, specialize=True)
        off = run_specialize_protocol(scripts, specialize=False)
        assert_specialization_invisible(on, off)
        # The corpus must actually engage the quickening pass to mean
        # anything — and a type-stable trace never fails a guard.
        assert on["reused_counters"]["specialized_sites"] > 0
        assert on["reused_counters"]["specialized_hits"] > 0
        assert on["reused_counters"]["deopts"] == 0
        assert off["reused_counters"]["specialized_sites"] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_type_unstable_programs_stay_generic(self, seed):
        scripts = [
            ("unstable.jsl", type_unstable_program(random.Random(9000 + seed)))
        ]
        on = run_specialize_protocol(scripts, specialize=True)
        off = run_specialize_protocol(scripts, specialize=False)
        assert_specialization_invisible(on, off)
        # Mixed-type arith sites became tombstones at extraction, so they
        # never specialize and never pay a guard failure.  Property sites
        # may still deopt (shape churn can replay differently under
        # preloading) — but every failure demotes exactly one site, and
        # no site can fail more than once.
        reused = on["reused_counters"]
        assert reused["deopts"] == reused["despecialized_sites"]
        assert reused["deopts"] <= reused["specialized_sites"]

    def test_unstable_demotions_are_persistent(self):
        """Whatever deopted under reuse is tombstoned by the next
        extraction, so the generation after runs deopt-free."""
        scripts = [("unstable.jsl", type_unstable_program(random.Random(9000)))]
        engine = Engine(config=RICConfig(specialize=True), seed=21)
        engine.run(scripts, name="gen0")
        record = engine.extract_icrecord()
        first = engine.run(scripts, name="gen1", icrecord=record)
        record2 = engine.extract_icrecord()
        second = engine.run(scripts, name="gen2", icrecord=record2)
        assert second.counters.deopts == 0
        assert second.console_output == first.console_output

    def test_generators_are_deterministic(self):
        assert type_stable_program(random.Random(5)) == type_stable_program(
            random.Random(5)
        )
        assert type_unstable_program(random.Random(5)) == type_unstable_program(
            random.Random(5)
        )


# -- guard-failure storm ---------------------------------------------------------
#
# The worst case for any speculation scheme: a record trained under one
# application, reused under another that violates *every* speculated
# profile at once — strings through the int-specialized arithmetic,
# differently shaped objects through the slot-specialized accessors.
# Every guard fails, every site demotes, and the run must still be
# observationally identical to an unspecialized one.


def storm_sources(rng: random.Random) -> "tuple[str, str, str]":
    """(shared library, type-stable trainer app, storm app)."""
    lib = (
        "function apply(a, b) { return a + b; }\n"
        "function getv(o) { return o.v; }\n"
        "function setv(o, x) { o.v = x; }\n"
    )
    n = rng.randint(10, 25)
    c = rng.randint(1, 9)
    trainer = (
        "var acc = 0;\n"
        "var objs = [];\n"
        f"for (var i = 0; i < {n}; i++) {{ objs.push({{v: i}}); }}\n"
        "for (var j = 0; j < objs.length; j++) "
        f"{{ setv(objs[j], getv(objs[j]) + {c}); acc = apply(acc, j); }}\n"
        'console.log("acc:", acc);\n'
    )
    m = rng.randint(6, 15)
    storm = (
        'var s = "";\n'
        "var weird = [];\n"
        # w before v: a different hidden class with v at another offset
        f"for (var i = 0; i < {m}; i++) {{ weird.push({{w: i, v: i * 2}}); }}\n"
        "for (var j = 0; j < weird.length; j++) "
        '{ s = apply(s, "x"); setv(weird[j], getv(weird[j]) + 1); }\n'
        'console.log("s:", s.length);\n'
        "var sum = 0;\n"
        "for (var k = 0; k < weird.length; k++) { sum = sum + getv(weird[k]); }\n"
        'console.log("sum:", sum);\n'
    )
    return lib, trainer, storm


class TestGuardFailureStorm:
    @pytest.mark.parametrize("seed", range(6))
    def test_storm_demotes_everything_and_changes_nothing(self, seed):
        lib, trainer, storm = storm_sources(random.Random(7000 + seed))
        trainer_engine = Engine(seed=31)
        trainer_engine.run(
            [("lib.jsl", lib), ("train.jsl", trainer)], name="train"
        )
        lib_record = trainer_engine.extract_per_script_records()["lib.jsl"]
        assert any(not fb.mega for fb in lib_record.site_feedback.values())

        scripts = [("lib.jsl", lib), ("storm.jsl", storm)]

        def reuse(specialize: bool):
            engine = Engine(config=RICConfig(specialize=specialize), seed=77)
            profile = engine.run(scripts, name="storm", icrecord=lib_record)
            return profile, serialize_user_globals(engine.last_run.runtime)

        on, on_state = reuse(True)
        off, off_state = reuse(False)
        assert on.console_output == off.console_output
        assert on_state == off_state

        # Every specialized site's guard failed exactly once and the
        # site went (and stayed) generic.
        assert on.counters.specialized_sites > 0
        assert on.counters.deopts >= 1
        assert on.counters.deopts == on.counters.despecialized_sites
        assert off.counters.specialized_sites == 0
        assert off.counters.deopts == 0

        from tests.test_differential import SPECIALIZE_VARIANT_COUNTERS

        on_dict, off_dict = on.counters.as_dict(), off.counters.as_dict()
        for key, value in on_dict.items():
            if key not in SPECIALIZE_VARIANT_COUNTERS:
                assert value == off_dict[key], key
