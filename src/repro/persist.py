"""Atomic, integrity-checked, durable persistence.

Two layers live here.  The low-level helpers (:func:`atomic_write_bytes`
and friends) implement the one durable-write discipline every on-disk
artifact in the repo is supposed to use: write to a ``.tmp`` file in the
same directory, flush + ``fsync`` the file, ``os.replace`` it over the
final name, then ``fsync`` the *directory* so the rename itself survives
a power cut.  A kill at any instant leaves either the old file or the
new one under the final name, never a torn hybrid.

On top of that, :func:`write_record`/:func:`read_record` define the
record shape every checkpoint shares (the byte-input fuzzer in
:mod:`repro.fuzzing.checkpoint`, the campaign kernel's state record in
:mod:`repro.campaigns.kernel` for both seed-list campaigns and the
sharded runtime's shard results)::

    8 bytes   format magic (per record type)
    4 bytes   CRC32 (big-endian) over the payload
    N bytes   pickled object

A torn, truncated, or bit-flipped record fails the magic/CRC check on
load with a :class:`~repro.errors.CheckpointError` instead of resuming
from garbage.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from typing import Any

from repro.errors import CheckpointError

#: Every record type's magic is exactly this long.
MAGIC_LENGTH = 8


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of *directory* (durability of renames within it).

    Some filesystems (and non-POSIX platforms) refuse to fsync a
    directory fd; durability degrades gracefully there — the rename is
    still atomic, it just may not survive a power cut.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> str:
    """Durably write *data* to *path*: tmp + fsync + rename + dir fsync."""
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(directory)
    return path


def atomic_write_text(path: str | os.PathLike, text: str) -> str:
    """Durably write *text* (UTF-8) to *path*."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | os.PathLike, obj: Any) -> str:
    """Durably write *obj* as pretty-printed JSON to *path*."""
    return atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_record(path: str, magic: bytes, obj: Any) -> str:
    """Atomically persist *obj* as a magic+CRC+pickle record at *path*."""
    if len(magic) != MAGIC_LENGTH:
        raise ValueError(f"record magic must be {MAGIC_LENGTH} bytes, got {magic!r}")
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    record = magic + struct.pack(">I", zlib.crc32(payload)) + payload
    return atomic_write_bytes(path, record)


def read_record(path: str, magic: bytes, expected_type: type) -> Any:
    """Load and verify the record at *path*; must be an *expected_type*."""
    try:
        with open(path, "rb") as handle:
            record = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(record) < len(magic) + 4 or not record.startswith(magic):
        raise CheckpointError(f"{path!r} is not a campaign checkpoint (bad magic)")
    (expected_crc,) = struct.unpack(">I", record[len(magic) : len(magic) + 4])
    payload = record[len(magic) + 4 :]
    if zlib.crc32(payload) != expected_crc:
        raise CheckpointError(
            f"{path!r} failed its integrity check (torn write or corruption)"
        )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"{path!r} cannot be unpickled: {exc}") from exc
    if not isinstance(obj, expected_type):
        raise CheckpointError(
            f"{path!r} holds a {type(obj).__name__}, not a {expected_type.__name__}"
        )
    return obj
