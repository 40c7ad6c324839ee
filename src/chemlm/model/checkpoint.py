"""Binary checkpoint serialization.

Byte layout, in order:

1. magic: the 8 bytes ``b"CHEMLM01"``
2. header length: uint32, little-endian
3. header: UTF-8 JSON object with sorted keys and no whitespace:
   ``format_version`` (int), ``model_config`` (dict), ``vocab_hash``
   (hex string), ``rng_state`` (bit-generator state dict), ``step``
   (int), ``tensors`` (list of ``{"name": str, "shape": [int, ...]}``
   in ascending name order)
4. tensor data: for each entry of ``tensors`` in listed order, the
   array as little-endian float64 in C order, no padding between arrays;
   float32-trained values widen to float64 exactly, and load as float64

Writing the same model twice yields byte-identical files, which the
end-to-end determinism test relies on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ..errors import ArtifactError
from ..manifest import replace_file
from .config import ModelConfig

MAGIC = b"CHEMLM01"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    params: dict
    config: ModelConfig
    vocab_hash: str
    rng_state: dict
    step: int


def save_checkpoint(path, params: dict, cfg: ModelConfig, vocab_hash: str, rng_state: dict, step: int) -> None:
    names = sorted(params)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": cfg.to_dict(),
        "rng_state": rng_state,
        "step": step,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "vocab_hash": vocab_hash,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replace_file(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(params[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed, truncated or overlong file, or one
    holding a non-finite value, is an ArtifactError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArtifactError(f"not a checkpoint file: bad magic {magic!r}")
        try:
            (hlen,) = np.frombuffer(fh.read(4), dtype="<u4")
            header = json.loads(fh.read(int(hlen)).decode("utf-8"))
            if header["format_version"] != FORMAT_VERSION:
                raise ValueError(f"unsupported format version {header['format_version']}")
            shapes = [entry["shape"] for entry in header["tensors"]]
            if not all(isinstance(s, list) and all(type(n) is int and n >= 0 for n in s) for s in shapes):
                raise ValueError(f"tensor shapes must be lists of non-negative ints, got {shapes}")
            # the shapes must account for exactly the bytes left, so no
            # tensor asks for more than the file holds
            declared = 8 * sum(map(math.prod, shapes))
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left > declared:
                raise ValueError(f"{left - declared} trailing bytes after the last tensor")
            if left < declared:
                raise ValueError(f"truncated: the tensors need {declared} bytes, {left} follow")
            params = {}
            for entry, shape in zip(header["tensors"], shapes):
                tensor = np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
                if not np.isfinite(tensor).all():
                    raise ValueError(f"non-finite values in tensor {entry['name']}")
                params[entry["name"]] = tensor
            return Checkpoint(
                params=params,
                config=ModelConfig.from_dict(header["model_config"]),
                vocab_hash=header["vocab_hash"],
                rng_state=header["rng_state"],
                step=header["step"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed checkpoint {path}: {exc}") from None
