"""Checkpoint file format.

Layout (little-endian):

    bytes 0..7    magic b"SCCHKPT1"
    bytes 8..15   u64 length of the JSON header
    header        UTF-8 JSON: run metadata, resolved config, CSV rows
                  emitted so far (pre-formatted strings), and the
                  shapes of the binary arrays that follow
    arrays        raw complex128 C-order buffers, in header order:
                  chain alphas, chain phis, then oracle amplitudes when
                  the run carries the quantum reference

Rows are stored as the exact strings already written to the CSV so a
resumed run reproduces the uninterrupted output byte for byte. A run
draws only its initial chain, so no generator state is stored; the
loader ignores the one that older versions wrote.
"""

import json
import os
import struct

import numpy as np

from .chain import ChainState
from .errors import SemichainError
from .oracle import FockCompositeState

MAGIC = b"SCCHKPT1"


class CheckpointError(SemichainError):
    """Checkpoint file is malformed or from an unknown version."""


def save_checkpoint(path, *, config_resolved, rows, blocks_done, chain=None,
                    oracle_state=None):
    """Write a checkpoint atomically (write temp file, then replace)."""
    header = {
        "version": 1,
        "config": config_resolved,
        "rows": rows,
        "blocks_done": blocks_done,
        "arrays": [],
    }
    buffers = []
    if chain is not None:
        header["chain"] = {
            "time": chain.time,
            "n_steps": chain.n_steps,
            "lineage": list(chain.lineage),
            "segment_starts": chain.segment_starts.tolist(),
        }
        header["arrays"].append(["alphas", list(chain.alphas.shape)])
        header["arrays"].append(["phis", list(chain.phis.shape)])
        buffers.append(np.ascontiguousarray(chain.alphas, dtype=np.complex128))
        buffers.append(np.ascontiguousarray(chain.phis, dtype=np.complex128))
    if oracle_state is not None:
        header["oracle"] = {"time": oracle_state.time}
        header["arrays"].append(["oracle", list(oracle_state.amplitudes.shape)])
        buffers.append(np.ascontiguousarray(oracle_state.amplitudes,
                                            dtype=np.complex128))
    blob = json.dumps(header).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for buf in buffers:
            f.write(buf.tobytes())
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a checkpoint; returns a dict with chain/oracle states, rows,
    the number of blocks done and the resolved config."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
        (hlen,) = struct.unpack("<Q", f.read(8))
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("version") != 1:
            raise CheckpointError(f"unknown checkpoint version {header.get('version')}")
        arrays = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape))
            buf = f.read(count * 16)
            if len(buf) != count * 16:
                raise CheckpointError("checkpoint truncated")
            arrays[name] = np.frombuffer(buf, dtype=np.complex128).reshape(shape).copy()
    out = {
        "config": header["config"],
        "rows": header["rows"],
        "blocks_done": header["blocks_done"],
        "chain": None,
        "oracle": None,
    }
    if "chain" in header:
        meta = header["chain"]
        out["chain"] = ChainState(
            time=meta["time"], alphas=arrays["alphas"], phis=arrays["phis"],
            segment_starts=np.asarray(meta["segment_starts"], dtype=int),
            n_steps=meta["n_steps"], lineage=tuple(meta["lineage"]))
    if "oracle" in header:
        out["oracle"] = FockCompositeState(
            amplitudes=arrays["oracle"], time=header["oracle"]["time"])
    return out
