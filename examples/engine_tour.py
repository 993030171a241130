"""A tour of the engine internals the paper builds on.

Walks the Figure 2 / Figure 4 machinery interactively: hidden classes and
their transitions, the ICVector filling up, handler kinds and their
context-(in)dependence, and what the extraction phase sees at the end.

Usage::

    python examples/engine_tour.py
"""

from repro.bytecode import compile_source, disassemble
from repro.bytecode.code import SiteKind
from repro.core.engine import Engine

#: The paper's Figure 2 example, verbatim.
FIGURE2 = """
function Point(x, y) {
  this.x = x;
  this.y = y;
}
var p1 = new Point(10, 20);
var p2 = new Point(30, 40);
"""


def main() -> None:
    # --- bytecode & access sites -----------------------------------------
    code = compile_source(FIGURE2, "figure2.jsl")
    print("== bytecode for the Figure 2 example ==")
    print(disassemble(code, recursive=True))
    sites = [
        slot
        for nested in code.iter_code_objects()
        for slot in nested.feedback_slots
    ]
    print(f"\n{len(sites)} object access sites; the named ones:")
    for slot in sites:
        if slot.kind in (SiteKind.NAMED_LOAD, SiteKind.NAMED_STORE):
            print(f"  {slot.site_key:45s} {slot.kind.value:12s} .{slot.name}")

    # --- hidden classes ------------------------------------------------------
    engine = Engine(seed=99)
    engine.run(FIGURE2, name="figure2")
    runtime = engine.last_run.runtime
    print("\n== hidden classes created (Figure 2's HC0 -> HC1 -> HC2) ==")
    for hc in runtime.hidden_classes.all_classes:
        if hc.creation_kind == "builtin":
            continue
        layout = ", ".join(f"{k}@{v}" for k, v in hc.layout.items()) or "(empty)"
        print(
            f"  HC#{hc.index:<3} @{hc.address:#x}  layout=[{layout}]  "
            f"created by {hc.creation_kind}:{hc.creation_key}"
        )

    # --- the ICVector after execution -------------------------------------------
    print("\n== ICVector state (paper Figure 3) ==")
    feedback = engine.last_run.feedback
    for site in feedback.all_sites():
        if not site.slots:
            continue
        handlers = ", ".join(
            f"HC#{hc.index}->{handler.describe()}"
            + ("" if handler.is_context_independent else " [context-dependent]")
            for hc, handler in site.slots
        )
        print(f"  {site.info.site_key:45s} {site.state.value:12s} {handlers}")

    # --- extraction: what RIC keeps ------------------------------------------------
    record = engine.extract_icrecord()
    print("\n== extracted ICRecord (paper Figure 6) ==")
    print(f"  HCVT rows:        {record.num_hidden_classes}")
    print(f"  TOAST entries:    {len(record.toast)}")
    for key, pairs in record.toast.items():
        if key.startswith("builtin:"):
            continue
        for pair in pairs:
            if pair.incoming_hcid is None:
                print(f"    {key}: (no incoming) -> HCID {pair.outgoing_hcid}")
            else:
                print(
                    f"    {key}: (incoming HCID {pair.incoming_hcid}, "
                    f"+'{pair.transition_property}') -> HCID {pair.outgoing_hcid}"
                )
    links = [
        (slot.hcid, site_key, slot.handler_id)
        for site_key, slots in record.site_slots.items()
        for slot in slots
    ]
    print(f"  dependent links:  {len(links)}")
    for hcid, site_key, handler_id in links[:8]:
        handler = record.handlers[handler_id]
        print(f"    HCID {hcid} -> preload {site_key} with {handler}")
    print(f"  reusable handlers stored: {record.handlers}")


if __name__ == "__main__":
    main()
