"""Binary checkpoint container.

Layout (all integers little-endian):

    magic  b"DDRM"
    u32    format version (1)
    u32    tensor count
    per tensor:
        u16     name length, then UTF-8 name
        u8      rank
        u32[r]  dims
        f32[n]  payload, little-endian

Model parameters are stored under their module-qualified names, and the
config snapshot / stage marker as byte-coded tensors under ``meta/``;
nothing else. Names are unique: the reader rejects a name it meets twice. Optimizer state is not kept: every phase starts a fresh
Adam. The reader uses explicit little-endian dtypes, so it is independent
of host byte order.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DDRM"
VERSION = 1


def _encode_text(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def _decode_text(arr: np.ndarray) -> str:
    return bytes(np.round(arr).astype(np.uint8)).decode("utf-8")


def save_checkpoint(path, tensors: dict[str, np.ndarray], config_text: str,
                    stage: str) -> None:
    """Write the table to ``path`` through a temporary file beside it, so a
    write that raises leaves the previous checkpoint whole."""
    table = dict(tensors)
    table["meta/config"] = _encode_text(config_text)
    table["meta/stage"] = _encode_text(stage)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(table)))
            for name, arr in table.items():
                data = np.ascontiguousarray(arr, dtype="<f4")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", data.ndim))
                f.write(np.asarray(data.shape, dtype="<u4").tobytes())
                f.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str, str]:
    """Return (tensor table, config text, stage marker).

    A truncated, corrupt or incomplete file raises ``ValueError`` naming it.
    """
    raw = Path(path).read_bytes()
    try:
        table = _read_table(raw)
        for key in ("meta/config", "meta/stage"):
            if key not in table:
                raise ValueError(f"no {key} entry")
        config_text = _decode_text(table.pop("meta/config"))
        stage = _decode_text(table.pop("meta/stage"))
    except ValueError as err:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {err}") from err
    return table, config_text, stage


def _read_table(raw: bytes) -> dict[str, np.ndarray]:
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise ValueError(f"truncated: {n} bytes needed at offset {offset}, "
                             f"file has {len(raw)}")
        offset += n
        return raw[offset - n:offset]

    magic = take(4)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    table: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        if name in table:
            raise ValueError(f"duplicate entry {name!r}")
        (rank,) = take(1)
        dims = np.frombuffer(take(4 * rank), dtype="<u4").tolist()
        data = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4")
        table[name] = data.reshape(dims).astype(np.float32)
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes")
    return table
