"""Append-only audit trail of authorization decisions.

One JSON line per record. The sink is fail-closed: if a record cannot be
written and flushed, the request that produced it must fail rather than
complete unrecorded. "Flushed" means handed to the operating system before
the reply is sent; records are not fsync'd, so a host crash can still lose
the last few.

The append handle stays open between records. Before each record the
path is checked against it, so a file renamed or removed (rotation) is
followed by a new file at the path.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any


class AuditSinkFailure(Exception):
    pass


@dataclass(frozen=True)
class AuditRecord:
    timestamp: str  # RFC 3339 UTC
    request_id: str
    subject: str  # unmasked; console logs carry the masked form
    roles: tuple[str, ...]
    scopes: tuple[str, ...]
    tool: str  # "-" for non-tool requests
    decision: str  # "unauthenticated" | "allow" | "deny"
    deny_reason: dict[str, Any] | None
    validation_latency_us: int
    total_latency_us: int

    def to_json(self) -> str:
        doc: dict[str, Any] = {
            "timestamp": self.timestamp,
            "request_id": self.request_id,
            "subject": self.subject,
            "roles": list(self.roles),
            "scopes": list(self.scopes),
            "tool": self.tool,
            "decision": self.decision,
        }
        if self.deny_reason is not None:
            doc["deny_reason"] = self.deny_reason
        doc["validation_latency_us"] = self.validation_latency_us
        doc["total_latency_us"] = self.total_latency_us
        return json.dumps(doc, separators=(",", ":"))


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


class AuditLog:
    """Serialized JSON Lines appender; each line is written atomically."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._file = None
        self._file_id: tuple[int, int] | None = None  # (st_dev, st_ino) of the open file

    def _handle(self):
        """The open append handle, reopened when the path no longer names its file."""
        try:
            stat = os.stat(self.path)
            current = (stat.st_dev, stat.st_ino) == self._file_id
        except FileNotFoundError:
            current = False
        if not current:
            self._drop()
            self._file = open(self.path, "a", encoding="utf-8")
            stat = os.fstat(self._file.fileno())
            self._file_id = (stat.st_dev, stat.st_ino)
        return self._file

    def _drop(self) -> None:
        file, self._file, self._file_id = self._file, None, None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass  # the failure was reported by the append that hit it

    def append(self, record: AuditRecord) -> None:
        line = record.to_json() + "\n"
        with self._lock:
            try:
                fh = self._handle()
                fh.write(line)
                fh.flush()
            except OSError as exc:
                self._drop()
                raise AuditSinkFailure(f"cannot append to {self.path!r}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            self._drop()


def read_records(path: str) -> list[dict[str, Any]]:
    """Load every record in the sink (test/replay helper)."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
