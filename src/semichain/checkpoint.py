"""Checkpoint file format.

Layout (little-endian):

    bytes 0..7    magic b"SCCHKPT1"
    bytes 8..15   u64 length of the JSON header
    header        UTF-8 JSON: run metadata, config echo, CSV rows
                  emitted so far (pre-formatted strings), the chain's
                  time and segment starts, the oracle's time, and the
                  shapes of the binary arrays that follow
    arrays        raw complex128 C-order buffers, in header order:
                  chain alphas, chain phis, then oracle amplitudes when
                  the run carries the quantum reference

Rows are stored as the exact strings already written to the CSV so a
resumed run reproduces the uninterrupted output byte for byte. A run
draws only its initial chain, so no generator state is stored; the
loader ignores the one older versions wrote, like every key it does not read.
"""

import json
import math
import os
import struct

import numpy as np

from .chain import ChainState
from .errors import DimensionMismatch, SemichainError, ZeroNormConditionalState
from .oracle import FockCompositeState

MAGIC = b"SCCHKPT1"


class CheckpointError(SemichainError):
    """Checkpoint file is malformed or from an unknown version."""


def save_checkpoint(path, *, config_resolved, rows, blocks_done, chain=None,
                    oracle_state=None):
    """Write a checkpoint atomically (write temp file, then replace)."""
    header = {"version": 1, "config": config_resolved, "rows": rows,
              "blocks_done": blocks_done, "arrays": []}
    arrays = []
    if chain is not None:
        header["chain"] = {"time": chain.time,
                           "segment_starts": chain.segment_starts.tolist()}
        arrays += [("alphas", chain.alphas), ("phis", chain.phis)]
    if oracle_state is not None:
        header["oracle"] = {"time": oracle_state.time}
        arrays.append(("oracle", oracle_state.amplitudes))
    header["arrays"] = [[name, list(a.shape)] for name, a in arrays]
    blob = json.dumps(header).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        for _, a in arrays:
            f.write(np.asarray(a, dtype=np.complex128).tobytes())
    os.replace(tmp, path)


def _finite(x):
    if type(x) not in (int, float) or not math.isfinite(x):
        raise TypeError(f"time {x!r} is not a finite number")
    return x


def _parse(data):
    if len(data) < 16:
        raise ValueError("the file ends inside the header length")
    (hlen,) = struct.unpack_from("<Q", data, 8)
    if 16 + hlen > len(data):
        raise ValueError("the file ends inside the header")
    header = json.loads(data[16:16 + hlen].decode("utf-8"))
    if not isinstance(header, dict):
        raise TypeError("the header is not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"unknown checkpoint version {header.get('version')}")
    arrays, offset = {}, 16 + hlen
    for name, shape in header["arrays"]:
        arrays[name] = np.ndarray(shape, np.complex128, data, offset).copy()
        offset += arrays[name].nbytes
    out = {"config": header["config"], "rows": header["rows"],
           "blocks_done": header["blocks_done"], "chain": None, "oracle": None}
    if not (isinstance(out["config"], dict) and isinstance(out["rows"], list)
            and all(type(r) is str for r in out["rows"])
            and type(out["blocks_done"]) is int and out["blocks_done"] >= 0):
        raise TypeError("config, rows or blocks_done has the wrong type")
    if "chain" in header:
        meta = header["chain"]  # list(): a stored null is not the default
        out["chain"] = ChainState(
            time=_finite(meta["time"]), alphas=arrays["alphas"],
            phis=arrays["phis"], segment_starts=list(meta["segment_starts"]))
    if "oracle" in header:
        out["oracle"] = FockCompositeState(
            amplitudes=arrays["oracle"], time=_finite(header["oracle"]["time"]))
    return out


def load_checkpoint(path):
    """Read a checkpoint; returns a dict with chain/oracle states, rows,
    the number of blocks done and the resolved config.

    A file that is not a well-formed checkpoint raises CheckpointError;
    one that cannot be read raises the OSError of ``open``. Header keys
    that this version does not read are ignored."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != MAGIC:
        raise CheckpointError(f"bad magic {data[:8]!r}; not a checkpoint file")
    try:
        return _parse(data)
    except (KeyError, TypeError, ValueError, DimensionMismatch,
            ZeroNormConditionalState) as e:
        problem = f"no key {e}" if isinstance(e, KeyError) else str(e)
        raise CheckpointError(f"malformed checkpoint: {problem}") from None
