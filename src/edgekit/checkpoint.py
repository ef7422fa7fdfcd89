"""Binary weight checkpoints: magic "EDTR", versioned, digest-guarded.

Layout (all integers little-endian uint32, floats little-endian float32):

    "EDTR" | version | sha256(config) (32 bytes) | config_len | config utf-8
    | tensor_count | per tensor: name_len, name utf-8, rank, dims..., payload

Tensors are written in sorted-name order so identical weights always produce
byte-identical files. The canonical model-config text is embedded so a
checkpoint is self-describing; its digest is checked on load. A NaN or Inf
value (also one the float32 cast makes) is refused on save and on load, and
so is any byte after the last tensor.

Both directions stream: a save writes tensor by tensor to a temporary file
beside the target and renames it over the target only once every tensor is
written, and a load reads each payload straight into its array. Neither
holds the whole file in memory.
"""

from __future__ import annotations

import hashlib
import math
import os
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
    """Write ``arrays`` and the config text to ``path`` atomically: on any
    error, a NaN or Inf value included, ``path`` is as it was before and the
    temporary file is gone."""
    path = Path(path)
    cfg = config_text.encode("utf-8")
    names = sorted(arrays)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC + struct.pack("<I", VERSION) + hashlib.sha256(cfg).digest()
                     + struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(names)))
            for name in names:
                with np.errstate(over="ignore"):  # an overflow is refused just below
                    arr = np.asarray(arrays[name], dtype="<f4", order="C")
                _check_finite(name, arr)
                nb = name.encode("utf-8")
                fh.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb,
                                     arr.ndim, *arr.shape))
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Reads a checkpoint field by field. A field that the file is too short
    to hold is a TruncatedFile, raised before anything is read or allocated
    for it."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _need(self, n: int) -> None:
        if self.pos + n > self.size:
            raise TruncatedFile(f"checkpoint ends at byte {self.size}, "
                                f"needed {self.pos + n}")

    def _count(self, got: int, n: int) -> None:
        """Count ``got`` bytes read of ``n`` wanted; fewer means that the
        file shrank while it was read."""
        self.pos += got
        if got < n:
            raise TruncatedFile(f"checkpoint ends at byte {self.pos}, "
                                f"needed {self.pos - got + n}")

    def take(self, n: int) -> bytes:
        self._need(n)
        out = self.fh.read(n)
        self._count(len(out), n)
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def payload(self, name: str, dims: tuple[int, ...]) -> np.ndarray:
        """The next ``dims`` float32 values, read into a new array."""
        n = math.prod(dims) * 4
        self._need(n)
        if why := unshapeable(dims):
            raise CheckpointError(f"checkpoint tensor {name}: {why}")
        arr = np.empty(dims, dtype="<f4")
        self._count(self.fh.readinto(arr.data), n)
        return arr


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {what} is not UTF-8: {exc}") from None


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read arrays and the embedded config; verify the config digest.

    The arrays are new, writable float32 arrays, each filled straight from
    the file, so a load holds each value once and never the whole file;
    ``EdgeDetector.load_state_arrays`` adopts them as they are."""
    with open(path, "rb") as fh:
        r = _Reader(fh)
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
            arr = r.payload(name, dims)
            _check_finite(name, arr)
            arrays[name] = arr
        if r.pos != r.size:
            raise CheckpointError(f"{r.size - r.pos} bytes after the last tensor")
    return arrays, config_text
