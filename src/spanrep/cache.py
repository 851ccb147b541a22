"""Content-addressed result cache.

Entries are envelopes keyed by a hash of (command, parameters, schema
version, payload revision); files are written atomically (temp file in
the same directory, then rename).  A corrupt entry is reported, never trusted: that includes
an entry whose own command and parameters do not hash to its key.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .serialize import SCHEMA_VERSION, canonical_json, envelope_from_bytes

__all__ = ["cache_get", "cache_key", "cache_put", "write_atomic"]

ENV_CACHE_DIR = "SPANREP_CACHE_DIR"
# Raised when a command's payload changes for the same parameters, so that
# entries written before the change miss instead of being served.
# 2: frobenius --max-degree cuts the formula rows too.
_PAYLOAD_REVISION = 2


def cache_key(command: str, parameters: dict) -> str:
    fields = {"command": command, "parameters": parameters, "schema_version": SCHEMA_VERSION,
              "payload_revision": _PAYLOAD_REVISION}
    return hashlib.sha256(canonical_json(fields).encode()).hexdigest()


def _entry_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through a temp file in the same directory and a
    rename, so readers see the old file or the new one, never a part."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cache_put(cache_dir: str | Path, key: str, data: bytes) -> Path:
    """Store data, an envelope's `envelope_bytes`, as the entry for key."""
    path = _entry_path(cache_dir, key)
    write_atomic(path, data)
    return path


def cache_get(cache_dir: str | Path, key: str) -> tuple[str, dict | None]:
    """Look up a key: returns ("hit", envelope), ("miss", None), or
    ("corrupt", None) -- a corrupt entry must be recomputed, never used."""
    path = _entry_path(cache_dir, key)
    if not path.exists():
        return "miss", None
    try:
        envelope = envelope_from_bytes(path.read_bytes())
        # an entry answers the request its own command and parameters name
        if cache_key(envelope["command"], envelope["parameters"]) != key:
            return "corrupt", None
    except (ValueError, TypeError, OSError):
        return "corrupt", None
    return "hit", envelope
