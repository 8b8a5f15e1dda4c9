"""File-backed token cache for the client harness.

Stands in for an OS keychain: a JSON file created with owner-only
permissions and replaced atomically on every write, writers taking turns
on a lock file beside it. Expired entries are never returned; an
unparseable file is treated as empty (with a warning) rather than failing
the flow.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from . import protocol

log = logging.getLogger("mcpidg.tokenstore")


@dataclass(frozen=True)
class TokenEntry:
    access_token: str
    expires_at: float


class TokenStore:
    def __init__(self, path: str, clock: Callable[[], float] = time.time):
        self.path = path
        self._clock = clock

    def _load(self) -> dict[str, dict]:
        try:
            with open(self.path, "rb") as fh:
                doc = protocol.parse_json(fh.read())
        except FileNotFoundError:
            return {}
        except protocol.ParseError as exc:
            log.warning("token store %r is corrupt (%s); treating as empty", self.path, exc)
            return {}
        entries = doc.get("entries") if isinstance(doc, dict) else None
        return entries if isinstance(entries, dict) else {}

    def get(self, resource: str) -> TokenEntry | None:
        entry = self._load().get(resource)
        if not isinstance(entry, dict):
            return None
        token = entry.get("access_token")
        expires_at = entry.get("expires_at")
        if not isinstance(token, str) or not isinstance(expires_at, (int, float)):
            return None
        if self._clock() >= expires_at:
            return None
        return TokenEntry(access_token=token, expires_at=float(expires_at))

    def put(self, resource: str, access_token: str, expires_at: float) -> None:
        """Add or replace one entry, keeping every other writer's.

        Writers take turns on ``<path>.lock`` across their read, change
        and replace; readers take no lock, since the replace is atomic.
        """
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with _exclusive(self.path + ".lock"):
            entries = self._load()
            entries[resource] = {"access_token": access_token, "expires_at": expires_at}
            payload = json.dumps({"entries": entries}, indent=2).encode("utf-8")
            # mkstemp creates the file with mode 0600.
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=os.path.basename(self.path) + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp_path, self.path)
            except BaseException:
                os.unlink(tmp_path)
                raise


@contextmanager
def _exclusive(path: str) -> Iterator[None]:
    """Hold an exclusive flock on the file ``path`` (created 0600), removed on release.

    A writer that waited on a file its holder has since removed locks the
    one now at ``path`` instead, so all writers contend for that one file.
    """
    while True:
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    try:
        yield
    finally:
        os.unlink(path)
        os.close(fd)  # releases the lock
