"""Execution governance: budgets, cancellation, and the chaos suite.

The contract under test (INTERNALS §10): a governed run of *any*
runaway program terminates with the right typed abort, bumps exactly
the matching ``budget_aborts_*`` counter, attaches the partial profile,
and leaves the engine fully usable.  Governance must also be invisible
when idle: counter accounting of a governed run is bit-identical to an
ungoverned one, and guest code can never catch a host abort.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.budget import BudgetMeter, CancelToken, ExecutionBudget
from repro.core.engine import Engine
from repro.core.errors import (
    ABORT_CLASSES,
    BudgetExceeded,
    Cancelled,
    DeadlineExceeded,
    ExecutionAborted,
    StepBudgetExceeded,
)
from repro.faults.budget_faults import BUDGET_FAULTS, runaway_loop
from repro.lang.errors import JSLError
from repro.ric.validate import validate_record
from repro.runtime.heap import Heap


class TestExecutionBudget:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            ExecutionBudget(max_steps=0)
        with pytest.raises(ValueError):
            ExecutionBudget(max_heap_bytes=-1)
        with pytest.raises(ValueError):
            ExecutionBudget(deadline_ms=0.0)
        with pytest.raises(ValueError):
            ExecutionBudget(check_stride=0)

    def test_unlimited(self):
        assert ExecutionBudget().is_unlimited
        assert not ExecutionBudget(max_steps=10).is_unlimited


class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("operator")
        token.cancel("too late")
        assert token.cancelled and token.reason == "operator"
        with pytest.raises(Cancelled, match="operator"):
            token.raise_if_cancelled()


class TestBudgetMeter:
    def test_step_accounting_is_amortized(self):
        meter = BudgetMeter(ExecutionBudget(max_steps=100), None, Heap())
        meter.note_steps(100)  # exactly at the limit: fine
        with pytest.raises(StepBudgetExceeded):
            meter.note_steps(1)

    def test_quiet_credit_never_raises(self):
        meter = BudgetMeter(ExecutionBudget(max_steps=1), None, Heap())
        meter.note_steps_quiet(10_000)
        assert meter.steps_used == 10_000

    def test_deadline_uses_injected_clock(self):
        now = [0.0]
        meter = BudgetMeter(
            ExecutionBudget(deadline_ms=50.0), None, Heap(), clock=lambda: now[0]
        )
        meter.check()
        now[0] = 0.051
        with pytest.raises(DeadlineExceeded):
            meter.check()

    def test_cancellation_beats_budgets(self):
        token = CancelToken()
        token.cancel()
        meter = BudgetMeter(ExecutionBudget(max_steps=1), token, Heap())
        meter.note_steps_quiet(10)
        with pytest.raises(Cancelled):
            meter.check()


class TestChaosSuite:
    """Every runaway class × every governance dimension (BUDGET_FAULTS)."""

    @pytest.mark.parametrize(
        "fault", BUDGET_FAULTS, ids=lambda fault: fault.name
    )
    def test_runaway_terminates_with_typed_abort(self, fault):
        engine = Engine(seed=11)
        with pytest.raises(fault.expected) as excinfo:
            engine.run(
                [("runaway.jsl", fault.source())],
                name=fault.name,
                budget=ExecutionBudget(**fault.budget_kwargs),
            )
        error = excinfo.value
        assert type(error) is fault.expected
        # Exactly the matching counter, exactly once, on the partial profile.
        assert error.profile is not None
        counters = error.profile.counters
        assert getattr(counters, fault.counter) == 1
        assert counters.budget_aborts_total == 1
        assert error.profile.mode.endswith("-aborted")
        # The engine survives: an ungoverned run right after is normal.
        after = engine.run([("after.jsl", "console.log('alive');")], name="after")
        assert after.console_output == ["alive"]
        assert after.counters.budget_aborts_total == 0

    def test_abort_reasons_cover_the_taxonomy(self):
        reasons = {fault.expected.reason for fault in BUDGET_FAULTS}
        assert reasons == {"steps", "heap", "depth", "deadline"}
        assert set(ABORT_CLASSES) == reasons | {"cancelled"}

    def test_guest_catch_cannot_swallow_abort(self):
        source = (
            "var i = 0;\n"
            "while (true) { try { i = i + 1; } catch (e) { i = 0; } }\n"
        )
        engine = Engine(seed=11)
        with pytest.raises(StepBudgetExceeded):
            engine.run(
                [("sneaky.jsl", source)],
                name="sneaky",
                budget=ExecutionBudget(max_steps=20_000, check_stride=256),
            )

    def test_aborts_are_not_guest_errors(self):
        for cls in ABORT_CLASSES.values():
            assert not issubclass(cls, JSLError)
        assert issubclass(StepBudgetExceeded, BudgetExceeded)
        assert issubclass(BudgetExceeded, ExecutionAborted)
        assert not issubclass(Cancelled, BudgetExceeded)


class TestCancellation:
    def test_cross_thread_cancel_stops_the_run(self):
        engine = Engine(seed=11)
        token = CancelToken()
        timer = threading.Timer(0.05, token.cancel, args=("test says stop",))
        timer.start()
        try:
            with pytest.raises(Cancelled, match="test says stop") as excinfo:
                engine.run(
                    [("spin.jsl", runaway_loop())],
                    name="spin",
                    budget=ExecutionBudget(check_stride=512),
                    cancel_token=token,
                )
        finally:
            timer.cancel()
        assert excinfo.value.profile.counters.budget_aborts_cancelled == 1

    def test_token_without_budget_still_governs(self):
        engine = Engine(seed=11)
        token = CancelToken()
        token.cancel()
        with pytest.raises(Cancelled):
            engine.run(
                [("spin.jsl", runaway_loop())], name="spin", cancel_token=token
            )


class TestGovernanceTransparency:
    """Governance that isn't aborting must be observationally free."""

    SOURCE = (
        "function Point(x, y) { this.x = x; this.y = y; }\n"
        "var total = 0;\n"
        "var i = 0;\n"
        "while (i < 4000) {\n"
        "  var p = new Point(i, i + 1);\n"
        "  total = total + p.x + p.y;\n"
        "  i = i + 1;\n"
        "}\n"
        "console.log(total);\n"
    )

    def test_counters_identical_governed_vs_ungoverned(self):
        plain = Engine(seed=5).run([("w.jsl", self.SOURCE)], name="w")
        governed = Engine(seed=5).run(
            [("w.jsl", self.SOURCE)],
            name="w",
            budget=ExecutionBudget(max_steps=10**9, check_stride=64),
        )
        assert governed.console_output == plain.console_output
        for key, value in plain.counters.as_dict().items():
            assert governed.counters.as_dict()[key] == value, key

    def test_stride_does_not_change_counters(self):
        baseline = None
        for stride in (1, 7, 2048):
            profile = Engine(seed=5).run(
                [("w.jsl", self.SOURCE)],
                name="w",
                budget=ExecutionBudget(max_steps=10**9, check_stride=stride),
            )
            blob = profile.counters.as_dict()
            if baseline is None:
                baseline = blob
            else:
                assert blob == baseline


class TestPartialExtraction:
    """An aborted warmup still yields a valid, reusable (partial) record."""

    WARMUP = (
        "function Box(v) { this.v = v; }\n"
        "var i = 0;\n"
        "var sum = 0;\n"
        "while (i < 3000) { sum = sum + new Box(i).v; i = i + 1; }\n"
        "console.log(sum);\n"
        "while (true) { i = i + 1; }\n"  # the runaway tail
    )

    def test_aborted_warmup_record_is_valid_and_preloads(self):
        engine = Engine(seed=9)
        with pytest.raises(StepBudgetExceeded):
            engine.run(
                [("warm.jsl", self.WARMUP)],
                name="warmup",
                budget=ExecutionBudget(max_steps=200_000, check_stride=256),
            )
        record = engine.extract_icrecord()
        assert validate_record(record) == []


class TestRunCliGovernance:
    def test_budget_abort_exit_code_and_partial_output(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_BUDGET, main

        script = tmp_path / "loop.jsl"
        script.write_text("console.log('start');\n" + runaway_loop())
        assert main(["--max-steps", "50000", str(script)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "start" in captured.out  # partial runs are real runs
        assert "aborted (steps)" in captured.err

    def test_deadline_flag(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_BUDGET, main

        script = tmp_path / "loop.jsl"
        script.write_text(runaway_loop())
        assert main(["--deadline-ms", "60", str(script)]) == EXIT_BUDGET

    def test_depth_flag(self, tmp_path, capsys):
        from repro.faults.budget_faults import deep_recursion
        from repro.harness.run_cli import EXIT_BUDGET, main

        script = tmp_path / "dive.jsl"
        script.write_text(deep_recursion())
        assert main(["--max-depth", "64", str(script)]) == EXIT_BUDGET

    def test_bad_budget_flag_is_usage_error(self, tmp_path, capsys):
        from repro.harness.run_cli import EXIT_USAGE, main

        script = tmp_path / "ok.jsl"
        script.write_text("console.log('x');")
        assert main(["--max-steps", "0", str(script)]) == EXIT_USAGE

    def test_stats_report_budget_aborts(self, tmp_path, capsys):
        from repro.harness.run_cli import main

        script = tmp_path / "ok.jsl"
        script.write_text("console.log('x');")
        assert main(["--stats", "--max-steps", "1000000", str(script)]) == 0
        assert "budget aborts" in capsys.readouterr().err
