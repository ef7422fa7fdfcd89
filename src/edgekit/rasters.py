"""Binary netpbm rasters (P5/P6, maxval 255) and a raw float32 edge format.

The float sidecar ("EPFM" magic, little-endian) exists because 8-bit
quantization of probability maps perturbs benchmark scores in the third
decimal; pipelines that need lossless round trips should prefer it.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import NumericError, ParseError, ShapeError

FLOAT_MAGIC = b"EPFM"
MAX_RANK = 64  # numpy's limit on the dimensions of an array


def _read_pnm(data: bytes) -> tuple[np.ndarray, int]:
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise ParseError(f"not a binary PGM/PPM file (magic {data[:2]!r})", 0)
    channels = 3 if data[:2] == b"P6" else 1
    pos = 2

    def skip_ws(pos: int) -> int:
        while pos < len(data):
            c = data[pos:pos + 1]
            if c in (b" ", b"\t", b"\r", b"\n"):
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        return pos

    def read_int(pos: int) -> tuple[int, int]:
        pos = skip_ws(pos)
        start = pos
        while pos < len(data) and data[pos:pos + 1].isdigit():
            pos += 1
        if start == pos:
            raise ParseError("expected integer in header", start)
        return int(data[start:pos]), pos

    width, pos = read_int(pos)
    height, pos = read_int(pos)
    maxval, pos = read_int(pos)
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval}, expected 255", pos)
    if pos >= len(data) or data[pos:pos + 1] not in (b" ", b"\t", b"\r", b"\n"):
        raise ParseError("missing whitespace between header and payload", pos)
    pos += 1
    need = width * height * channels
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise ParseError(
            f"truncated payload: expected {need} bytes, got {len(payload)}",
            pos + len(payload),
        )
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return arr, channels


def load_image(path) -> np.ndarray:
    """Read a P6 (or P5, channel-replicated) file as (3, H, W) in [0, 1]."""
    arr, channels = _read_pnm(Path(path).read_bytes())
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def save_image(image: np.ndarray, path) -> None:
    """Write (3, H, W) values in [0, 1] as binary P6."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[1], img.shape[2]
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(data.transpose(1, 2, 0).tobytes())


def save_gray(values: np.ndarray, path) -> None:
    """Write (H, W) values in [0, 1] as binary P5 via round(255 * p)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ShapeError(f"gray map of shape {v.shape} has no pixels")
    if not np.isfinite(v).all():
        raise NumericError("gray values hold NaN or Inf")
    if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
        raise NumericError(
            f"gray values outside [0, 1]: range [{v.min()}, {v.max()}]"
        )
    data = np.rint(np.clip(v, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (v.shape[1], v.shape[0]))
        fh.write(data.tobytes())


def load_gray(path) -> np.ndarray:
    arr, channels = _read_pnm(Path(path).read_bytes())
    if channels != 1:
        arr = arr.mean(axis=2)
    return arr.reshape(arr.shape[0], arr.shape[1]).astype(np.float64) / 255.0


def save_float_raster(values: np.ndarray, path) -> None:
    """Lossless float32 dump: magic, rank, dims, little-endian payload."""
    v = np.asarray(values, dtype="<f4")
    if not np.isfinite(v).all():
        raise NumericError("float raster holds NaN or Inf")
    with open(path, "wb") as fh:
        fh.write(FLOAT_MAGIC)
        fh.write(struct.pack("<I", v.ndim))
        fh.write(struct.pack(f"<{v.ndim}I", *v.shape))
        fh.write(v.tobytes())


def unshapeable(dims: tuple[int, ...]) -> str | None:
    """Why numpy cannot make a float64 array of shape ``dims`` (it sizes even
    an empty one by the product of its nonzero dims), or None."""
    if len(dims) > MAX_RANK:
        return f"rank {len(dims)} exceeds the {MAX_RANK} dimensions of an array"
    if math.prod(d for d in dims if d) * 8 > np.iinfo(np.intp).max:
        return f"dims {dims} are too large for an array"
    return None


def load_float_raster(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != FLOAT_MAGIC:
        raise ParseError(f"bad float-raster magic {data[:4]!r}", 0)
    if len(data) < 8:
        raise ParseError("truncated header", len(data))
    (rank,) = struct.unpack_from("<I", data, 4)
    if len(data) < 8 + 4 * rank:
        raise ParseError("truncated dimension list", len(data))
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    pos = 8 + 4 * rank
    need = math.prod(dims) * 4  # exact: np.prod wraps in int64
    if len(data) < pos + need:
        raise ParseError(
            f"truncated payload: expected {need} bytes, got {len(data) - pos}",
            len(data),
        )
    if why := unshapeable(dims):
        raise ParseError(why, 4)
    return np.frombuffer(data[pos:pos + need], dtype="<f4").reshape(dims).astype(np.float64)


def save_edge_map(edge: np.ndarray, path) -> None:
    """Write a probability map; `.epfm` extension selects the raw format."""
    if str(path).endswith(".epfm"):
        save_float_raster(edge, path)
    else:
        save_gray(edge, path)


def load_edge_map(path) -> np.ndarray:
    if str(path).endswith(".epfm"):
        return load_float_raster(path)
    return load_gray(path)
