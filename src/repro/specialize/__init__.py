"""Persisted type feedback → bytecode quickening.

This package closes the loop the rest of the RIC machinery opens: the VM
cheaply records per-site operand-type profiles during every run
(:mod:`repro.specialize.feedback`), extraction persists them, and
tombstones for sites that must stay generic, in the ICRecord's
``site_feedback`` section (format v8), and the next run's session
pre-flight spends them, with the record's single-slot field sites
(``site_slots``), by rewriting a private clone of the generic bytecode
into typed variants with inline guards (:mod:`repro.specialize.quicken`).  A guard failure deoptimizes the
site back to its generic opcode in place and demotes it in the feedback
state, so the *following* extraction persists a tombstone and the site
is never re-specialized — the same
profile→persist→reuse→invalidate lifecycle the paper applies to IC
state, extended to type feedback.
"""

from repro.specialize.feedback import (
    NUMERIC_MASK,
    arith_site_key,
    collect_arith_feedback,
    demotion_tombstones,
    operand_type_bits,
)
from repro.specialize.quicken import (
    GENERIC_FORM,
    TYPED_OPS,
    count_specialized_sites,
    merge_site_feedback,
    quicken_code,
)

__all__ = [
    "NUMERIC_MASK",
    "arith_site_key",
    "collect_arith_feedback",
    "demotion_tombstones",
    "operand_type_bits",
    "GENERIC_FORM",
    "TYPED_OPS",
    "count_specialized_sites",
    "merge_site_feedback",
    "quicken_code",
]
