"""Reusable Inline Caching — the paper's contribution.

Extraction (post-Initial-run analysis) builds an :class:`ICRecord`, for
the whole run or per script file; one :class:`ReuseSession` consumes a
later execution's records, validating hidden classes and preloading
Dependent sites' ICVector slots.

Persistence is hardened (checksummed envelope, atomic writes, structural
validation, quarantine): see :mod:`repro.ric.serialize`,
:mod:`repro.ric.store`, and :mod:`repro.ric.validate`; all load-path
failures raise the single typed :class:`RecordFormatError`.
"""

from repro.ric.errors import CorruptRecord, RecordFormatError
from repro.ric.extraction import extract_icrecord
from repro.ric.icrecord import ICRecord, ToastPair
from repro.ric.reuse import ReuseSession
from repro.ric.store import (
    RecordStore,
    RecordStoreProtocol,
    extract_per_script_records,
)
from repro.ric.serialize import (
    ICRECORD_FORMAT_VERSION,
    load_icrecord,
    payload_checksum,
    record_from_envelope,
    record_from_json,
    record_size_bytes,
    record_to_envelope,
    record_to_json,
    save_icrecord,
    try_load_icrecord,
)
from repro.ric.validate import check_record, validate_record

__all__ = [
    "CorruptRecord",
    "RecordFormatError",
    "RecordStore",
    "RecordStoreProtocol",
    "extract_per_script_records",
    "ICRECORD_FORMAT_VERSION",
    "ICRecord",
    "ReuseSession",
    "ToastPair",
    "check_record",
    "extract_icrecord",
    "load_icrecord",
    "payload_checksum",
    "record_from_envelope",
    "record_from_json",
    "record_size_bytes",
    "record_to_envelope",
    "record_to_json",
    "save_icrecord",
    "try_load_icrecord",
    "validate_record",
]
