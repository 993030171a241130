"""One function per paper table/figure; each returns plain-data rows.

Every experiment runs the full measurement protocol (Initial → extraction →
Conventional Reuse → RIC Reuse) on the seven workloads and reports the
statistic the corresponding paper exhibit shows.  Rendering to ASCII lives
in :mod:`repro.harness.reporting`; regeneration entry points live in
``benchmarks/``.
"""

from __future__ import annotations

import typing

from repro.core.config import RICConfig
from repro.core.engine import Engine, WorkloadMeasurement
from repro.ric.serialize import record_size_bytes
from repro.stats.counters import MISS_GLOBAL, MISS_HANDLER, MISS_OTHER
from repro.workloads import WORKLOADS, website_a, website_b

#: Paper reference values, used by reports to show paper-vs-measured and by
#: tests to check the *shape* (ordering / direction), never absolute values.
PAPER_TABLE1 = {
    # library: (hidden classes, ic misses, misses/hc, % context independent)
    "angularlike": (138, 799, 5.8, 62.5),
    "camanlike": (99, 383, 3.9, 61.8),
    "handlebarslike": (88, 541, 6.2, 63.2),
    "jquerylike": (271, 1547, 5.7, 57.3),
    "jsfeatlike": (116, 323, 2.8, 51.7),
    "reactlike": (360, 2356, 6.5, 82.3),
    "underscorelike": (123, 295, 2.4, 38.1),
}

PAPER_TABLE4 = {
    # library: (initial miss %, reuse miss %, handler %, global %, other %)
    "angularlike": (68.94, 32.79, 8.63, 2.85, 21.31),
    "camanlike": (87.64, 43.94, 1.14, 3.43, 39.36),
    "handlebarslike": (57.92, 20.34, 4.82, 1.07, 14.45),
    "jquerylike": (48.50, 29.28, 6.49, 1.13, 21.66),
    "jsfeatlike": (18.96, 8.16, 0.18, 1.82, 6.16),
    "reactlike": (18.67, 3.83, 1.90, 0.31, 1.62),
    "underscorelike": (43.70, 30.22, 1.48, 1.78, 26.96),
}

PAPER_FIG5_MISS_FRACTION_AVG = 0.36
PAPER_FIG8_NORMALIZED_AVG = 0.85  # RIC saves 15% instructions
PAPER_FIG9_NORMALIZED_AVG = 0.83  # RIC saves 17% time

#: Figure 1's two survey series (year, expected page-load seconds) and
#: (year, average #JS requests of the top-1000 websites).  Static published
#: data reproduced as-is.
FIGURE1_EXPECTED_LOAD_TIME = [(1999, 8.0), (2006, 4.0), (2010, 3.0), (2014, 2.0)]
FIGURE1_JS_REQUESTS = [
    (2010, 12),
    (2011, 15),
    (2012, 18),
    (2013, 22),
    (2014, 25),
    (2015, 28),
]


def measure_all_workloads(
    config: RICConfig | None = None,
    seed: int | None = 1,
    workload_names: typing.Sequence[str] | None = None,
) -> dict[str, WorkloadMeasurement]:
    """Run the full protocol on each library; the shared data source for
    every per-library experiment below."""
    names = list(workload_names) if workload_names is not None else list(WORKLOADS)
    results: dict[str, WorkloadMeasurement] = {}
    for name in names:
        engine = Engine(config=config, seed=seed)
        results[name] = engine.measure_workload(WORKLOADS[name].scripts(), name=name)
    return results


# ---------------------------------------------------------------------------
# Figure 1 — motivation trends (static survey data)
# ---------------------------------------------------------------------------


def figure1_trends() -> dict:
    """Reproduce Figure 1's two series."""
    return {
        "expected_page_load_time_s": FIGURE1_EXPECTED_LOAD_TIME,
        "js_requests_top1000": FIGURE1_JS_REQUESTS,
    }


# ---------------------------------------------------------------------------
# Figure 5 — instruction breakdown during initialization
# ---------------------------------------------------------------------------


def figure5_instruction_breakdown(
    measurements: dict[str, WorkloadMeasurement] | None = None,
) -> list[dict]:
    """Per-library fraction of guest instructions spent in IC miss handling
    during the Initial run (paper: 36% on average)."""
    measurements = measurements or measure_all_workloads()
    rows = []
    for name, measurement in measurements.items():
        fraction = measurement.initial.ic_miss_handling_fraction
        rows.append(
            {
                "library": name,
                "ic_miss_handling": fraction,
                "rest_of_work": 1.0 - fraction,
            }
        )
    average = sum(row["ic_miss_handling"] for row in rows) / len(rows)
    rows.append(
        {
            "library": "Average",
            "ic_miss_handling": average,
            "rest_of_work": 1.0 - average,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Table 1 — IC statistics during initialization
# ---------------------------------------------------------------------------


def table1_ic_statistics(
    measurements: dict[str, WorkloadMeasurement] | None = None,
) -> list[dict]:
    """Hidden classes, IC misses, misses per hidden class, and the fraction
    of context-independent handlers — the paper's reuse-opportunity
    characterization."""
    measurements = measurements or measure_all_workloads()
    rows = []
    for name, measurement in measurements.items():
        counters = measurement.initial.counters
        hidden_classes = counters.hidden_classes_created
        misses = counters.ic_misses
        rows.append(
            {
                "library": name,
                "hidden_classes": hidden_classes,
                "ic_misses": misses,
                "misses_per_hc": misses / hidden_classes if hidden_classes else 0.0,
                "ci_handler_pct": 100.0
                * counters.context_independent_handler_fraction,
            }
        )
    count = len(rows)
    rows.append(
        {
            "library": "Average",
            "hidden_classes": sum(r["hidden_classes"] for r in rows) // count,
            "ic_misses": sum(r["ic_misses"] for r in rows) // count,
            "misses_per_hc": sum(r["misses_per_hc"] for r in rows) / count,
            "ci_handler_pct": sum(r["ci_handler_pct"] for r in rows) / count,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Table 4 — IC miss rates, Initial vs RIC Reuse, with attribution
# ---------------------------------------------------------------------------


def table4_miss_rates(
    measurements: dict[str, WorkloadMeasurement] | None = None,
) -> list[dict]:
    """Initial-run and RIC-Reuse-run miss rates plus the Reuse breakdown
    into Handler / Global / Other contributions."""
    measurements = measurements or measure_all_workloads()
    rows = []
    for name, measurement in measurements.items():
        reuse = measurement.ric
        breakdown = reuse.miss_breakdown_pct
        rows.append(
            {
                "library": name,
                "initial_miss_pct": measurement.initial.ic_miss_rate_pct,
                "reuse_miss_pct": reuse.ic_miss_rate_pct,
                "handler_pct": breakdown[MISS_HANDLER],
                "global_pct": breakdown[MISS_GLOBAL],
                "other_pct": breakdown[MISS_OTHER],
            }
        )
    count = len(rows)
    rows.append(
        {
            "library": "Average",
            **{
                key: sum(r[key] for r in rows) / count
                for key in (
                    "initial_miss_pct",
                    "reuse_miss_pct",
                    "handler_pct",
                    "global_pct",
                    "other_pct",
                )
            },
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — normalized dynamic instruction count
# ---------------------------------------------------------------------------


def figure8_instruction_counts(
    measurements: dict[str, WorkloadMeasurement] | None = None,
) -> list[dict]:
    """RIC Reuse instruction count normalized to the Conventional Reuse run
    (paper: 15% average saving)."""
    measurements = measurements or measure_all_workloads()
    rows = []
    for name, measurement in measurements.items():
        rows.append(
            {
                "library": name,
                "conventional": 1.0,
                "ric": measurement.normalized_instructions,
                "conventional_instructions": measurement.conventional.total_instructions,
                "ric_instructions": measurement.ric.total_instructions,
            }
        )
    average = sum(row["ric"] for row in rows) / len(rows)
    rows.append(
        {
            "library": "Average",
            "conventional": 1.0,
            "ric": average,
            "conventional_instructions": 0,
            "ric_instructions": 0,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — normalized execution time
# ---------------------------------------------------------------------------


def figure9_execution_times(
    measurements: dict[str, WorkloadMeasurement] | None = None,
    repeats: int = 1,
    seed: int | None = 1,
) -> list[dict]:
    """Reuse-run execution time, Conventional vs RIC.

    The primary metric is the *modeled* execution time from the documented
    cost model (guest instructions weighted by per-category CPI — IC miss
    handling carries a cache-miss premium, matching the paper's observation
    that the time saving slightly exceeds the instruction saving).  Host
    wall-clock times are reported alongside for transparency; on a Python
    substrate they are noise-dominated.
    """
    del repeats  # kept for API compatibility
    measurements = measurements or measure_all_workloads(seed=seed)
    rows = []
    for name, measurement in measurements.items():
        conventional_ms = measurement.conventional.modeled_time_ms
        ric_ms = measurement.ric.modeled_time_ms
        rows.append(
            {
                "library": name,
                "conventional_ms": conventional_ms,
                "ric_ms": ric_ms,
                "normalized": ric_ms / conventional_ms if conventional_ms else 1.0,
                "wall_conventional_ms": measurement.conventional.wall_time_ms,
                "wall_ric_ms": measurement.ric.wall_time_ms,
            }
        )
    average = sum(row["normalized"] for row in rows) / len(rows)
    rows.append(
        {
            "library": "Average",
            "conventional_ms": 0.0,
            "ric_ms": 0.0,
            "normalized": average,
            "wall_conventional_ms": 0.0,
            "wall_ric_ms": 0.0,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# §7.3 — RIC overheads
# ---------------------------------------------------------------------------


def section73_overheads(
    measurements: dict[str, WorkloadMeasurement] | None = None,
) -> list[dict]:
    """Extraction time and ICRecord memory vs workload heap usage."""
    measurements = measurements or measure_all_workloads()
    rows = []
    for name, measurement in measurements.items():
        record_bytes = record_size_bytes(measurement.record)
        heap_bytes = measurement.conventional.heap_bytes
        rows.append(
            {
                "library": name,
                "extraction_ms": measurement.record.extraction_time_ms,
                "icrecord_kb": record_bytes / 1024.0,
                "heap_kb": heap_bytes / 1024.0,
                "overhead_pct": 100.0 * record_bytes / heap_bytes
                if heap_bytes
                else 0.0,
            }
        )
    count = len(rows)
    rows.append(
        {
            "library": "Average",
            **{
                key: sum(r[key] for r in rows) / count
                for key in ("extraction_ms", "icrecord_kb", "heap_kb", "overhead_pct")
            },
        }
    )
    return rows


# ---------------------------------------------------------------------------
# §6 — cross-website robustness
# ---------------------------------------------------------------------------


def section6_websites(seed: int | None = 1) -> dict:
    """Extract the record on website A (one library order), reuse it on
    website B (a different order).  RIC must still help — and stay correct —
    because per-library IC information is keyed by stable script positions
    and global-object ICs are excluded."""
    engine = Engine(seed=seed)
    scripts_a = website_a()
    scripts_b = website_b()
    engine.run(scripts_a, name="website-a")
    record = engine.extract_icrecord()
    conventional_b = engine.run(scripts_b, name="website-b")
    ric_b = engine.run(scripts_b, name="website-b", icrecord=record)
    return {
        "record_stats": record.stats(),
        "conventional": conventional_b.summary(),
        "ric": ric_b.summary(),
        "outputs_match": sorted(conventional_b.console_output)
        == sorted(ric_b.console_output),
        "miss_rate_drop_pp": conventional_b.ic_miss_rate_pct
        - ric_b.ic_miss_rate_pct,
        "instruction_saving": 1.0
        - ric_b.total_instructions / conventional_b.total_instructions,
    }


# ---------------------------------------------------------------------------
# Sensitivity analysis (extension): RIC benefit vs sites-per-shape
# ---------------------------------------------------------------------------


def sensitivity_sweep(
    sites_per_shape_values: typing.Sequence[int] = (1, 2, 4, 6, 8),
    shapes: int = 12,
    fields_per_shape: int = 4,
    instances: int = 3,
    seed: int | None = 1,
) -> list[dict]:
    """Sweep the paper's key lever — how many distinct sites read each
    hidden class (Table 1's misses/HC) — on generated synthetic libraries.

    Expected shape: RIC's miss and instruction savings grow monotonically
    (modulo small-number noise) with sites-per-shape, because every extra
    read pass adds one avertable Dependent miss per hidden class while the
    unavoidable Triggering misses stay constant.
    """
    from repro.workloads.synthetic import generated_scripts

    rows = []
    for sites_per_shape in sites_per_shape_values:
        engine = Engine(seed=seed)
        scripts = generated_scripts(
            shapes=shapes,
            fields_per_shape=fields_per_shape,
            sites_per_shape=sites_per_shape,
            instances=instances,
        )
        measurement = engine.measure_workload(
            scripts, name=f"synthetic-p{sites_per_shape}"
        )
        counters = measurement.initial.counters
        rows.append(
            {
                "sites_per_shape": sites_per_shape,
                "misses_per_hc": (
                    counters.ic_misses / counters.hidden_classes_created
                    if counters.hidden_classes_created
                    else 0.0
                ),
                "initial_miss_pct": measurement.initial.ic_miss_rate_pct,
                "ric_miss_pct": measurement.ric.ic_miss_rate_pct,
                "normalized_instructions": measurement.normalized_instructions,
                "miss_reduction_fraction": (
                    1.0
                    - measurement.ric.counters.ic_misses
                    / measurement.conventional.counters.ic_misses
                    if measurement.conventional.counters.ic_misses
                    else 0.0
                ),
            }
        )
    return rows
