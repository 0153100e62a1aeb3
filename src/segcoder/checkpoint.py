"""Checkpoint serialization: text manifest + one flat little-endian f32 blob.

Manifest lines are ``name<TAB>dim1,dim2,...<TAB>byte_offset``; the blob holds
each tensor's row-major float32 bytes at the stated offset. Round trips are
bit-exact for float32 inputs.

Loading reads the blob once into one writable buffer and returns each tensor
as a float32 view of it, so a loaded model's parameters copy nothing. A
manifest whose tensors share bytes is refused: as views they would share
memory, and an in-place update of one would change the other.
"""

import math
from pathlib import Path

import numpy as np

MANIFEST_NAME = "weights.manifest"
BLOB_NAME = "weights.blob"


def save_tensors(directory, named_arrays):
    """Write ``[(name, array), ...]`` to ``directory/weights.{manifest,blob}``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    chunks = []
    offset = 0
    for name, arr in named_arrays:
        data = np.ascontiguousarray(arr, dtype="<f4")
        dims = ",".join(str(n) for n in data.shape)
        lines.append(f"{name}\t{dims}\t{offset}")
        raw = data.tobytes()
        chunks.append(raw)
        offset += len(raw)
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / BLOB_NAME).write_bytes(b"".join(chunks))


def load_tensors(directory):
    """Read a checkpoint back as an ordered ``{name: float32 array}`` dict
    of writable views of one buffer, no two of which share memory."""
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest.exists() or not blob_path.exists():
        raise FileNotFoundError(f"no checkpoint at {directory}")
    blob = np.fromfile(blob_path, dtype=np.uint8)
    entries = {}  # name -> (line number, shape, offset, byte count)
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            name, dims, offset = line.split("\t")
            shape = tuple(int(n) for n in dims.split(",")) if dims else ()
            offset = int(offset)
        except ValueError as e:
            raise ValueError(f"{manifest}:{lineno}: malformed manifest line") from e
        if name in entries:
            raise ValueError(f"{manifest}:{lineno}: duplicate tensor name {name!r}")
        if any(n < 0 for n in shape):
            raise ValueError(f"{manifest}:{lineno}: tensor {name!r} has a negative dimension in shape {shape}")
        nbytes = 4 * math.prod(shape)
        if offset < 0 or offset + nbytes > blob.size:
            raise ValueError(
                f"{manifest}:{lineno}: tensor {name!r} at offset {offset} needs "
                f"{offset + nbytes} bytes, but {blob_path} holds {blob.size}")
        entries[name] = (lineno, shape, offset, nbytes)
    # Sorted by start, any two ranges that overlap imply two neighbours that do.
    spans = sorted((off, off + n, lineno, name)
                   for name, (lineno, _, off, n) in entries.items() if n)
    for prev, span in zip(spans, spans[1:]):
        if span[0] < prev[1]:
            a, b = sorted((prev, span), key=lambda r: r[2])
            raise ValueError(
                f"{manifest}:{b[2]}: tensor {b[3]!r} overlaps {a[3]!r} (line {a[2]}): "
                f"bytes [{b[0]}, {b[1]}) and [{a[0]}, {a[1]})")
    return {name: np.frombuffer(blob, dtype="<f4", count=n // 4, offset=off).reshape(shape)
            for name, (_, shape, off, n) in entries.items()}
