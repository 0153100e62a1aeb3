"""Checkpoint serialization: text manifest + one flat little-endian f32 blob.

Manifest lines are ``name<TAB>dim1,dim2,...<TAB>byte_offset``; the blob holds
each tensor's row-major float32 bytes at the stated offset. Round trips are
bit-exact for float32 inputs.
"""

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
    """Read a checkpoint back as an ordered ``{name: float32 array}`` dict."""
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest.exists() or not blob_path.exists():
        raise FileNotFoundError(f"no checkpoint at {directory}")
    blob = blob_path.read_bytes()
    out = {}
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            name, dims, offset = line.split("\t")
            shape = tuple(int(n) for n in dims.split(",")) if dims else ()
            offset = int(offset)
        except ValueError as e:
            raise ValueError(f"{manifest}:{lineno}: malformed manifest line") from e
        if name in out:
            raise ValueError(f"{manifest}:{lineno}: duplicate tensor name {name!r}")
        if any(n < 0 for n in shape):
            raise ValueError(f"{manifest}:{lineno}: tensor {name!r} has a negative dimension in shape {shape}")
        count = int(np.prod(shape)) if shape else 1
        needed = offset + 4 * count
        if offset < 0 or needed > len(blob):
            raise ValueError(
                f"{manifest}:{lineno}: tensor {name!r} at offset {offset} needs "
                f"{needed} bytes, but {blob_path} holds {len(blob)}")
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        out[name] = arr.reshape(shape).copy()
    return out
