"""Every perfbench span target still exists in the program.

``perfbench/spans.py`` wraps named functions and methods of ``repro``
(``ICRuntime.named_load``, ``RunSession.__init__``, ...) to charge self
time per layer.  A rename under ``src/`` would leave its layer empty and
fail the traced benchmark run; this test fails first.  The recorder is
loaded by file path, since ``perfbench/`` is not a package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
