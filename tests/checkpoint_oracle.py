"""Reference encoder for the checkpoint container.

``snakedqn.checkpoint.write_records`` streams each record's header and array
to the file. This builds the same bytes the direct way, one ``bytes`` per
record, as the oracle for the layout and for hand-made corrupt files.
"""

import struct
import zlib

import numpy as np

from snakedqn.checkpoint import MAGIC

_CODES = {("f", 4): 0, ("f", 8): 1, ("i", 8): 2, ("u", 1): 3}


def encode_record(name: str, arr) -> bytes:
    """One record's bytes as the format defines them."""
    arr = np.asarray(arr)
    name_bytes = name.encode("utf-8")
    head = struct.pack("<H", len(name_bytes)) + name_bytes
    head += struct.pack("<BB", _CODES[arr.dtype.kind, arr.dtype.itemsize], arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + arr.astype(arr.dtype.newbyteorder("<")).tobytes()


def reference_bytes(records) -> bytes:
    """The container bytes as the format defines them, built record by record."""
    payload = struct.pack("<I", len(records))
    for name, arr in records.items():
        payload += encode_record(name, arr)
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
