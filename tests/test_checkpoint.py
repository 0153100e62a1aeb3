"""Checkpoint round trips: manifest + flat little-endian float32 blob."""

import re
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcoder.checkpoint import BLOB_NAME, MANIFEST_NAME, load_tensors, save_tensors


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = [
        ("emb.table", rng.normal(size=(7, 3)).astype(np.float32)),
        ("block0.w", rng.normal(size=(3, 3, 2)).astype(np.float32)),
        ("bias", rng.normal(size=(5,)).astype(np.float32)),
    ]
    save_tensors(tmp_path, arrays)
    loaded = load_tensors(tmp_path)
    assert list(loaded) == [n for n, _ in arrays]
    for name, arr in arrays:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name].view(np.uint32), arr.view(np.uint32))


def test_save_load_save_is_byte_identical(tmp_path, rng):
    arrays = [("a", rng.normal(size=(4, 4)).astype(np.float32)),
              ("b", rng.normal(size=(2,)).astype(np.float32))]
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    save_tensors(d1, arrays)
    save_tensors(d2, list(load_tensors(d1).items()))
    assert (d1 / BLOB_NAME).read_bytes() == (d2 / BLOB_NAME).read_bytes()
    assert (d1 / MANIFEST_NAME).read_text() == (d2 / MANIFEST_NAME).read_text()


def test_manifest_is_text_with_offsets(tmp_path):
    save_tensors(tmp_path, [("x", np.zeros((2, 3), dtype=np.float32)),
                            ("y", np.ones(4, dtype=np.float32))])
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert lines[0].split("\t") == ["x", "2,3", "0"]
    assert lines[1].split("\t") == ["y", "4", "24"]


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_tensors(tmp_path / "nothing")


def test_malformed_manifest_line_reports_position(tmp_path):
    save_tensors(tmp_path, [("x", np.zeros(2, dtype=np.float32))])
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text("x\tnot-a-shape\n")
    with pytest.raises(ValueError, match="malformed"):
        load_tensors(tmp_path)


@pytest.mark.parametrize("keep", [0, 27, 43])
def test_truncated_blob_names_tensor_and_sizes(tmp_path, keep):
    save_tensors(tmp_path, [("x", np.zeros((2, 3), dtype=np.float32)),
                            ("y", np.ones(5, dtype=np.float32))])
    blob = tmp_path / BLOB_NAME
    blob.write_bytes(blob.read_bytes()[:keep])
    name, line, needed = ("x", 1, 24) if keep < 24 else ("y", 2, 44)
    with pytest.raises(ValueError) as exc:
        load_tensors(tmp_path)
    msg = str(exc.value)
    assert f"{tmp_path / MANIFEST_NAME}:{line}:" in msg
    assert f"'{name}'" in msg
    assert f"needs {needed} bytes" in msg and f"holds {keep}" in msg


def test_negative_offset_rejected(tmp_path):
    save_tensors(tmp_path, [("x", np.zeros(2, dtype=np.float32))])
    (tmp_path / MANIFEST_NAME).write_text("x\t2\t-4\n")
    with pytest.raises(ValueError, match="'x' at offset -4"):
        load_tensors(tmp_path)


def test_negative_dimension_rejected(tmp_path):
    # 12 floats: a count of -3 read the whole blob and reshaped to (4, 3)
    save_tensors(tmp_path, [("a", np.zeros(12, dtype=np.float32))])
    (tmp_path / MANIFEST_NAME).write_text("a\t-1,3\t0\n")
    with pytest.raises(ValueError) as exc:
        load_tensors(tmp_path)
    msg = str(exc.value)
    assert f"{tmp_path / MANIFEST_NAME}:1:" in msg and "negative" in msg and "'a'" in msg


def test_duplicate_name_rejected(tmp_path):
    save_tensors(tmp_path, [("a", np.zeros(2, dtype=np.float32)),
                            ("b", np.ones(2, dtype=np.float32))])
    (tmp_path / MANIFEST_NAME).write_text("a\t2\t0\na\t2\t8\n")
    with pytest.raises(ValueError) as exc:
        load_tensors(tmp_path)
    msg = str(exc.value)
    assert f"{tmp_path / MANIFEST_NAME}:2:" in msg and "duplicate" in msg and "'a'" in msg


def test_overlapping_tensors_rejected(tmp_path):
    # as views of one buffer, an update of 'b' would silently change 'a'
    save_tensors(tmp_path, [("a", np.zeros(4, dtype=np.float32))])
    (tmp_path / MANIFEST_NAME).write_text("a\t4\t0\nb\t2\t8\n")
    with pytest.raises(ValueError) as exc:
        load_tensors(tmp_path)
    msg = str(exc.value)
    assert msg.startswith(f"{tmp_path / MANIFEST_NAME}:2: tensor 'b' overlaps 'a'")
    assert "[8, 16)" in msg and "[0, 16)" in msg


def test_loaded_tensors_are_disjoint_writable_views(tmp_path, rng):
    save_tensors(tmp_path, [("a", rng.normal(size=(3, 2)).astype(np.float32)),
                            ("empty", np.zeros((0, 4), dtype=np.float32)),
                            ("b", rng.normal(size=5).astype(np.float32))])
    loaded = load_tensors(tmp_path)
    for arr in loaded.values():
        assert arr.dtype == np.float32 and arr.flags.writeable and arr.flags.c_contiguous
    for x, y in combinations(loaded.values(), 2):
        assert not np.shares_memory(x, y)
    loaded["a"] += 1.0  # in place: a writable view, and 'b' does not move
    assert np.array_equal(loaded["b"], load_tensors(tmp_path)["b"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(st.sampled_from(["", "0", "1", "3", "0,2", "2,2", "1,3"]),
                                  st.integers(-1, 11).map(lambda k: 4 * k) | st.integers(0, 47)),
                        min_size=1, max_size=4),
       fault=st.integers(0, 5), blob=st.binary(min_size=48, max_size=48),
       cut=st.none() | st.integers(0, 48))
def test_load_outcome_is_located_error_or_disjoint_views(entries, fault, blob, cut):
    """Random manifests over a random, maybe truncated, blob: a ValueError at
    a manifest line, or disjoint views equal to the blob's bytes."""
    lines = [[f"t{i}", dims, str(off)] for i, (dims, off) in enumerate(entries)]
    if fault == 1:
        lines[-1][0] = "t0"    # a duplicate name, given two lines or more
    elif fault == 2:
        lines[-1][1] = "x"     # a malformed shape
    elif fault == 3:
        lines[-1][1] = "-1,2"  # a negative dimension
    blob = blob[:cut]          # a truncated blob, or the whole one for cut=None
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        manifest = d / MANIFEST_NAME
        manifest.write_text("".join("\t".join(line) + "\n" for line in lines))
        (d / BLOB_NAME).write_bytes(blob)
        try:
            loaded = load_tensors(d)
        except ValueError as e:
            m = re.match(rf"{re.escape(str(manifest))}:(\d+): ", str(e))
            assert m and 1 <= int(m.group(1)) <= len(lines), str(e)
            return
    assert list(loaded) == [name for name, _, _ in lines]
    for name, dims, off in lines:
        arr, off = loaded[name], int(off)
        assert arr.dtype == np.float32 and arr.flags.writeable
        assert arr.shape == (tuple(int(n) for n in dims.split(",")) if dims else ())
        assert 0 <= off and off + arr.nbytes <= len(blob)
        assert arr.tobytes() == blob[off:off + arr.nbytes]
    for x, y in combinations(loaded.values(), 2):
        assert not np.shares_memory(x, y)
