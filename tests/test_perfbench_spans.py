"""Every perfbench span target still exists in the program.

``perfbench/spans.py`` wraps named functions and methods of ``repro``
(``ICRuntime.named_load``, ``RunSession.__init__``, ...) to charge self
time per layer.  A rename under ``src/`` would leave its layer empty and
fail the traced benchmark run; this test fails first.  The recorder is
loaded by file path, since ``perfbench/`` is not a package.

The traced run also keeps what each ``record_to_envelope`` call returns
(``perfbench/run.py`` ``traced_load``), dedups the envelopes by their
``"checksum"`` and sizes them with ``json.dumps``; the second test pins
that contract.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.core.engine import Engine
from repro.ric.serialize import record_to_envelope

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    try:
        recorder.install()
        assert recorder.missing == []
    finally:
        recorder.uninstall()


def test_record_envelope_is_what_traced_load_reads():
    engine = Engine(seed=1)
    engine.run([("lib.jsl", "var o = {a: 1}; o.b = o.a + 1;")])
    envelope = record_to_envelope(engine.extract_per_script_records()["lib.jsl"])
    assert isinstance(envelope, dict)
    assert isinstance(envelope["checksum"], str)
    assert len(json.dumps(envelope)) > 0
