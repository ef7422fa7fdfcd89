"""Binary weight checkpoints: magic "EDTR", versioned, digest-guarded.

Layout (all integers little-endian uint32, floats little-endian float32):

    "EDTR" | version | sha256(config) (32 bytes) | config_len | config utf-8
    | tensor_count | per tensor: name_len, name utf-8, rank, dims..., payload

Tensors are written in sorted-name order so identical weights always produce
byte-identical files. The canonical model-config text is embedded so a
checkpoint is self-describing; its digest is checked on load. A NaN or Inf
value (also one the float32 cast makes) is refused on save and on load.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, DigestMismatch, MagicMismatch, NumericError,
                     TruncatedFile, VersionMismatch)
from .rasters import unshapeable

MAGIC = b"EDTR"
# 4: exact-size upsampling; a version-3 file (upsample then crop) has the same
#    tensors, so it would load and silently compute a different function
# 5: flat model-config keys; a version-4 file's nested keys would fail to
#    parse as a confusing config-line error instead of a version mismatch
# 6: no depth keys (the depth is the last tap); a version-5 file's
#    global_depth/local_depth lines would fail as unknown config keys
# 7: no ffm_enabled/stage_mode keys and no concat_fuse tensors; a version-6
#    file would fail as an unknown config key or a state mismatch
# 8: no decoder_arch key; a version-7 file's decoder_arch line would fail as
#    an unknown config key
VERSION = 8


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"checkpoint tensor {name} holds NaN or Inf")


def save_checkpoint(path, arrays: dict[str, np.ndarray], config_text: str) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg = config_text.encode("utf-8")
    blob += hashlib.sha256(cfg).digest()
    blob += struct.pack("<I", len(cfg))
    blob += cfg
    names = sorted(arrays)
    blob += struct.pack("<I", len(names))
    for name in names:
        with np.errstate(over="ignore"):  # an overflow is refused just below
            arr = np.asarray(arrays[name], dtype="<f4")
        _check_finite(name, arr)
        nb = name.encode("utf-8")
        blob += struct.pack("<I", len(nb))
        blob += nb
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFile(
                f"checkpoint ends at byte {len(self.data)}, "
                f"needed {self.pos + n}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {what} is not UTF-8: {exc}") from None


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read arrays and the embedded config; verify the config digest."""
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != MAGIC:
        raise MagicMismatch(f"{path} does not start with {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise VersionMismatch(f"checkpoint version {version}, supported {VERSION}")
    digest = r.take(32)
    # the digest is checked on the raw bytes, so a corrupt byte is a
    # mismatch, not a decoding failure
    config = r.take(r.u32())
    if hashlib.sha256(config).digest() != digest:
        raise DigestMismatch("embedded config does not match stored digest")
    config_text = _utf8(config, "embedded config")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = _utf8(r.take(r.u32()), "tensor name")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        payload = r.take(math.prod(dims) * 4)
        if why := unshapeable(dims):
            raise CheckpointError(f"checkpoint tensor {name}: {why}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
        _check_finite(name, arr)
        arrays[name] = arr.astype(np.float64)
    return arrays, config_text
