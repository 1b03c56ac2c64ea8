"""Server state store (``repro.persist``).

The server's three authoritative state stores — the session registry, each
session's scenario ledger, and the job store's terminal records — write
through one :class:`StateBackend`, an SQLite database.  Without a state
directory it lives in memory and dies with the process; with ``repro serve
--state-dir DIR`` it is a WAL-mode file, so a server restart recovers
sessions, ledgers, and finished job results bitwise-identically.

Fitted models are deliberately *not* persisted: they rebuild through the
fingerprint-keyed :class:`~repro.core.cache.ModelCache` on first touch,
which keeps recovery cheap and bitwise-reproducible.

See :mod:`repro.persist.backend` for the contract.
"""

from __future__ import annotations

from .backend import (
    JOB_INTERRUPTED_REASON,
    PersistenceError,
    StateBackend,
    open_backend,
    sqlite_path,
)

__all__ = [
    "JOB_INTERRUPTED_REASON",
    "PersistenceError",
    "StateBackend",
    "open_backend",
    "sqlite_path",
]
