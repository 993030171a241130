"""Configuration switches for RIC, including the ablation knobs."""

from __future__ import annotations

import os
from dataclasses import dataclass


def _specialize_default() -> bool:
    """Default for ``RICConfig.specialize``: on, unless the environment
    forces it off.  ``RIC_SPECIALIZE=0`` lets CI run whole suites (the
    differential wall in particular) with quickening disabled without
    threading a config through every fixture."""
    return os.environ.get("RIC_SPECIALIZE", "1") != "0"


@dataclass(frozen=True)
class RICConfig:
    """Controls how RIC behaves; defaults reproduce the paper's setup.

    The non-default combinations implement the ablations indexed in
    DESIGN.md §6:

    * ``enable_linking=False`` — no Triggering→Dependent linking; the
      ICRecord is effectively ignored during the Reuse run (Conventional).
    * ``enable_handler_reuse=False`` — linking still preloads slots, but
      each preload pays the handler-generation cost again instead of reusing
      the saved handler (isolates idea 1 of the paper's Table 2).
    * ``validate=False`` — the *naive* persistence scheme: hidden classes
      are matched by creation order with no address validation.  Unsound
      under divergence; exists to demonstrate why validation is necessary.
    * ``include_global_ics=True`` — lifts the paper's §6 exclusion of
      global-object ICs (order-sensitive; breaks cross-website reuse).

    Interpreter knob:

    * ``specialize=False`` — disable the bytecode quickening pass
      (repro/specialize/): persisted ``site_feedback`` is still recorded
      and extracted, but never spent rewriting opcodes, so every run
      executes the generic instruction stream.  Specialized and generic
      runs must be observationally identical (the differential wall
      enforces it); the knob is the ``ric-run --no-specialize`` flag and
      the CI forced-off sweep (``RIC_SPECIALIZE=0``).

    Nothing else is configured here: a record store comes in as
    ``Engine(record_store=...)``, and a budget as
    ``Engine.run(budget=...)`` or ``RunRequest.budget``.
    """

    enable_linking: bool = True
    enable_handler_reuse: bool = True
    validate: bool = True
    include_global_ics: bool = False
    specialize: bool = _specialize_default()
