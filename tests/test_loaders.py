"""Damaged input files: whatever the bytes, the five file loaders either
load or raise DataError, and ``load_tensor`` either loads or raises
ValueError, as its docstring says. Nothing else may escape, since the CLI
maps DataError to exit 2 and anything else ends in a traceback.

Each example starts from a valid file and damages it once: a truncation,
a few overwritten bytes, a huge value in one of the format's size fields
(rank, extent, length or count), or a byte sequence that is not UTF-8.
"""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import backbone, features, metrics
from tfctx import tensor as T
from tfctx.errors import DataError


def _wav_bytes(path):
    features.write_wav(path, 0.5 * np.sin(np.arange(64) / 3.0))
    return open(path, "rb").read()


def _checkpoint_bytes(path):
    backbone.save_checkpoint(path, [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))],
                             {"seed": 1, "name": "x"})
    return open(path, "rb").read()


def _tensor_bytes():
    buf = io.BytesIO()
    T.save_tensor(buf, np.arange(6.0).reshape(2, 3))
    return buf.getvalue()


def _write(path, data):
    with open(path, "wb") as f:
        f.write(data)
    return path


def _checkpoint_fields():
    """(offset, struct format) of each size field of ``_checkpoint_bytes``:
    config length, entry count, then per entry its name length, rank and
    extents."""
    config_len = len(json.dumps({"seed": 1, "name": "x"}, sort_keys=True, separators=(",", ":")))
    fields = [(12, "<Q"), (20 + config_len, "<Q")]
    pos = 28 + config_len
    for name, shape in (("w", (2, 3)), ("b", (2,))):
        fields.append((pos, "<Q"))
        pos += 8 + len(name)
        fields += [(pos + 8 * i, "<Q") for i in range(1 + len(shape))]
        pos += 8 * (1 + len(shape)) + 8 * int(np.prod(shape))
    return fields


TEXT = {
    "manifest": b"spk000 wav/spk000/utt0000.wav\nspk001 wav/spk001/utt0000.wav\n",
    "trials": b"1 a b\n0 a c\n",
    "scores": b"a b 0.9000000000\na c 0.1000000000\n",
}
# RIFF size, fmt chunk size, channels, sample rate, byte rate, bits, data size
WAV_FIELDS = [(4, "<I"), (16, "<I"), (22, "<H"), (24, "<I"), (28, "<I"), (34, "<H"), (40, "<I")]
# rank and the two extents of a (2, 3) dump
TENSOR_FIELDS = [(0, "<Q"), (8, "<Q"), (16, "<Q")]
FIELDS = {"manifest": [], "trials": [], "scores": [], "wav": WAV_FIELDS,
          "checkpoint": _checkpoint_fields()}
LOADERS = {"manifest": features.read_manifest, "trials": metrics.read_trials,
           "scores": metrics.read_scores, "wav": features.read_wav,
           "checkpoint": backbone.load_checkpoint}
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


@st.composite
def damaged(draw, raw, size_fields):
    data = bytearray(raw)
    kinds = ["truncate", "overwrite", "not_utf8"] + (["huge"] if size_fields else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "overwrite":
        for pos, value in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                                  st.integers(0, 255)), min_size=1, max_size=4)):
            data[pos] = value
    elif kind == "not_utf8":
        pos = draw(st.integers(0, len(data)))
        data[pos:pos] = draw(st.sampled_from(NOT_UTF8))
    else:
        offset, fmt = draw(st.sampled_from(size_fields))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = draw(st.sampled_from([top, top // 2 + 1, top // 8]) | st.integers(0, top))
        data[offset: offset + struct.calcsize(fmt)] = struct.pack(fmt, value)
    return bytes(data)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("loaders")
    files = dict(TEXT)
    files["wav"] = _wav_bytes(str(root / "valid.wav"))
    files["checkpoint"] = _checkpoint_bytes(str(root / "valid.ckpt"))
    return root, files


@pytest.mark.parametrize("loader", list(LOADERS))
def test_file_loaders_raise_only_data_error(valid, loader):
    root, files = valid
    path = str(root / f"damaged_{loader}")
    assert LOADERS[loader](_write(path, files[loader])) is not None

    @given(damaged(files[loader], FIELDS[loader]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(data):
        try:
            LOADERS[loader](_write(path, data))
        except DataError:
            pass

    check()


def test_load_tensor_raises_only_value_error():
    raw = _tensor_bytes()
    np.testing.assert_array_equal(T.load_tensor(io.BytesIO(raw)), np.arange(6.0).reshape(2, 3))

    @given(damaged(raw, TENSOR_FIELDS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(data):
        try:
            T.load_tensor(io.BytesIO(data))
        except ValueError:
            pass

    check()
