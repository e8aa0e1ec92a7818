"""Binary checkpoint container: named tensor records with a CRC32 trailer.

Layout (little-endian throughout):

    magic "SNKDQN01"
    u32 record count
    records:
        u16 name length, name (utf-8)
        u8 dtype code (0=f32, 1=f64, 2=i64, 3=u8)
        u8 rank, u32 dim per axis
        raw array bytes
    u32 CRC32 over everything between the magic and the checksum
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"SNKDQN01"

_CODE_TO_DTYPE = {0: "<f4", 1: "<f8", 2: "<i8", 3: "|u1"}
_KIND_TO_CODE = {("f", 4): 0, ("f", 8): 1, ("i", 8): 2, ("u", 1): 3}


class CheckpointError(Exception):
    """Raised for unreadable, corrupt, or incompatible checkpoint files."""


def _record_parts(name: str, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A record's header and its array, C-contiguous in the stored dtype."""
    code = _KIND_TO_CODE.get((arr.dtype.kind, arr.dtype.itemsize))
    if code is None:
        raise ValueError(f"unsupported dtype {arr.dtype} for record {name!r}")
    raw = np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code])
    name_bytes = name.encode("utf-8")
    head = struct.pack("<H", len(name_bytes)) + name_bytes
    head += struct.pack("<BB", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head, raw


def _payload(records: dict[str, np.ndarray]):
    """The bytes between the magic and the CRC, as pieces to write in order."""
    yield struct.pack("<I", len(records))
    for name, arr in records.items():
        yield from _record_parts(name, np.asarray(arr))


def write_records(path, records: dict[str, np.ndarray]) -> None:
    """Write the records to ``path``, replacing any file there in one step.

    The bytes go to a temporary file in the same directory, which is then
    renamed over ``path``: a process killed mid-save leaves the previous
    checkpoint intact. (No fsync, so this does not cover a power loss.)
    Each array is written from its own memory and the CRC is updated piece
    by piece, so a save copies no array.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            crc = 0
            for piece in _payload(records):
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class _Reader:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_records(path) -> dict[str, np.ndarray]:
    """The records of the checkpoint at ``path``, each array its own copy.

    The file is parsed through views of the bytes read, so only the arrays
    are copied out of it.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    payload, (stored_crc,) = blob[len(MAGIC) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointError("checksum mismatch (corrupt checkpoint)")
    rd = _Reader(payload)
    (count,) = rd.unpack("<I")
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        try:
            name = str(rd.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"record name is not utf-8: {exc}") from None
        if name in records:
            raise CheckpointError(f"record {name!r} appears twice")
        code, rank = rd.unpack("<BB")
        if code not in _CODE_TO_DTYPE:
            raise CheckpointError(f"unknown dtype code {code}")
        shape = rd.unpack(f"<{rank}I")
        dtype = np.dtype(_CODE_TO_DTYPE[code])
        # In Python ints a record's size cannot wrap; a rank-0 shape's product is 1.
        n_bytes = math.prod(shape) * dtype.itemsize
        arr = np.frombuffer(rd.take(n_bytes), dtype=dtype).reshape(shape)
        records[name] = arr.copy()
    if rd.pos != len(payload):
        raise CheckpointError("trailing bytes after last record")
    return records
