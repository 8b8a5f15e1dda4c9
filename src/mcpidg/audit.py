"""Append-only JSON Lines sink for the authorization audit trail.

The sink knows no record schema: the server builds each record, and the
sink writes it as one compact JSON line, its keys in the order given. It
is fail-closed: if a record cannot be written and flushed, the request
that produced it must fail rather than complete unrecorded. "Flushed"
means handed to the operating system before the reply is sent; records
are not fsync'd, so a host crash can still lose the last few.

The append handle stays open between records. Before each record the
path is checked against it, so a file renamed or removed (rotation) is
followed by a new file at the path.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from . import protocol


class AuditSinkFailure(Exception):
    pass


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

    def append(self, record: dict[str, Any]) -> None:
        line = protocol.encode_json(record) + "\n"
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
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                records.append(protocol.parse_json(line))
    return records
