"""Append-only JSON Lines sink for the authorization audit trail.

The sink knows no record schema and encodes nothing: the server builds
each record as one compact JSON line, and the sink writes it as given,
ending it with a newline. It is fail-closed: if a record cannot be
handed to the operating system, in one write(2) to an O_APPEND
descriptor before the reply is sent, the request that produced it must
fail rather than complete unrecorded.
Records are not fsync'd, so a host crash can still lose the last few.

The descriptor stays open between records. Before each record the path
is checked against it, so a file renamed or removed (rotation) is
followed by a new file at the path. A short write fails its record and
leaves a partial line; the next open ends that line with a newline.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Any

from . import protocol

log = logging.getLogger("mcpidg.audit")


class AuditSinkFailure(Exception):
    pass


class AuditLog:
    """Serialized JSON Lines appender; each line is written atomically."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fd: int | None = None
        self._file_id: tuple[int, int] | None = None  # (st_dev, st_ino) of the open file

    def _descriptor(self) -> int:
        """The open descriptor, reopened when the path no longer names its file."""
        try:
            stat = os.stat(self.path)
            current = (stat.st_dev, stat.st_ino) == self._file_id
        except FileNotFoundError:
            current = False
        if not current:
            self._drop()
            # Readable too: its last byte tells whether a torn line ends the file.
            self._fd = fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            stat = os.fstat(fd)
            if stat.st_size and os.pread(fd, 1, stat.st_size - 1) != b"\n":
                os.write(fd, b"\n")
            self._file_id = (stat.st_dev, stat.st_ino)
        return self._fd  # type: ignore[return-value]

    def _drop(self) -> None:
        fd, self._fd, self._file_id = self._fd, None, None
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass  # the failure was reported by the append that hit it

    def append(self, line: str) -> None:
        """Write one encoded record, a str without its newline (else TypeError), as one line."""
        data = (line + "\n").encode("utf-8")
        with self._lock:
            try:
                written = os.write(self._descriptor(), data)
                if written != len(data):
                    raise OSError(f"short write: {written} of {len(data)} bytes")
            except OSError as exc:
                self._drop()
                raise AuditSinkFailure(f"cannot append to {self.path!r}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            self._drop()


def read_records(path: str) -> list[dict[str, Any]]:
    """Every whole record in the sink (test/replay helper).

    A line that is not JSON, such as a torn record, is skipped with a
    warning naming its line number; the records after it are still read.
    """
    records = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(protocol.parse_json(line))
                except protocol.ParseError as exc:
                    log.warning("Skipped line %d of %s, not a whole record: %s", number, path, exc)
    return records
