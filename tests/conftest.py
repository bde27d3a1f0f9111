from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import settings

from pancseg.nifti import _DTYPE_BY_CODE
from pancseg.volume import Volume

# Every property test draws the same examples on every run, and no example
# database carries failures from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_spacing(rng, lo=0.5, hi=4.0):
    return tuple(float(s) for s in rng.uniform(lo, hi, size=3))


def random_mask(rng, dims, style="noise"):
    """Random non-empty boolean mask.

    ``noise`` draws uniform voxel noise; ``blob`` places an ellipsoid plus a
    few stray voxels, which keeps surfel counts moderate on larger grids.
    """
    dims = tuple(int(d) for d in dims)
    if style == "noise":
        bits = rng.random(dims) < rng.uniform(0.1, 0.9)
    else:
        centre = np.array([rng.uniform(0.2, 0.8) * (d - 1) for d in dims])
        radii = np.array([max(rng.uniform(0.1, 0.45) * d, 0.8) for d in dims])
        grid = np.indices(dims).astype(np.float64)
        dist = sum(((grid[a] - centre[a]) / radii[a]) ** 2 for a in range(3))
        bits = dist <= 1.0
        n_extra = int(rng.integers(0, 30))
        if n_extra:
            flat = rng.integers(0, bits.size, size=n_extra)
            bits.flat[flat] = True
    if not bits.any():
        bits.flat[int(rng.integers(0, bits.size))] = True
    return bits


def label_volume(bits, spacing, label=2):
    data = np.where(np.asarray(bits, bool), np.int32(label), np.int32(0))
    return Volume(data, spacing, kind="labels")


def image_volume(rng, dims, spacing, dtype=np.float32):
    data = rng.normal(size=tuple(int(d) for d in dims)).astype(dtype)
    return Volume(data, spacing, kind="image")


def probability_volume(rng, dims, spacing, n_classes=3):
    raw = rng.random(tuple(int(d) for d in dims) + (n_classes,))
    probs = raw / raw.sum(axis=-1, keepdims=True)
    return Volume(probs.astype(np.float32), spacing, kind="probabilities")


def damaged_gzip(raw: bytes, defect: str) -> bytes:
    """A gzip stream cut in half ("truncated"), or with 40 bytes of its
    deflate data flipped ("corrupted")."""
    mid = len(raw) // 2
    if defect == "truncated":
        return raw[:mid]
    return raw[:mid] + bytes(b ^ 0xFF for b in raw[mid : mid + 40]) + raw[mid + 40 :]


def raw_nifti(
    data,
    *,
    endian="<",
    pixdim=(1.0, 1.0, 1.0),
    srows=None,
    qform=None,
    xyzt_units=2,
    vox_offset=352,
    scaling=(1.0, 0.0),
):
    """Hand-assembled single-file NIfTI for header-variant tests."""
    data = np.asarray(data)
    code = {np.dtype(d): c for c, d in _DTYPE_BY_CODE.items()}[data.dtype]
    hdr = bytearray(HEADER := 348)
    struct.pack_into(endian + "i", hdr, 0, HEADER)
    dim = [data.ndim] + list(data.shape) + [1] * (7 - data.ndim)
    struct.pack_into(endian + "8h", hdr, 40, *dim)
    struct.pack_into(endian + "2h", hdr, 70, code, data.dtype.itemsize * 8)
    pd = [1.0] + list(pixdim) + [1.0] * 4
    if qform is not None and qform.get("qfac", 1.0) < 0:
        pd[0] = -1.0
    struct.pack_into(endian + "8f", hdr, 76, *pd)
    struct.pack_into(endian + "f", hdr, 108, float(vox_offset))
    struct.pack_into(endian + "2f", hdr, 112, *scaling)
    struct.pack_into(endian + "B", hdr, 123, xyzt_units)
    sform_code = 1 if srows is not None else 0
    qform_code = 1 if qform is not None else 0
    struct.pack_into(endian + "2h", hdr, 252, qform_code, sform_code)
    if qform is not None:
        struct.pack_into(
            endian + "6f",
            hdr,
            256,
            qform.get("b", 0.0),
            qform.get("c", 0.0),
            qform.get("d", 0.0),
            *qform.get("offset", (0.0, 0.0, 0.0)),
        )
    if srows is not None:
        struct.pack_into(endian + "4f", hdr, 280, *srows[0])
        struct.pack_into(endian + "4f", hdr, 296, *srows[1])
        struct.pack_into(endian + "4f", hdr, 312, *srows[2])
    hdr[344:348] = b"n+1\x00"
    swapped = data.astype(data.dtype.newbyteorder(endian), copy=False)
    pad = b"\x00" * (vox_offset - HEADER)
    return bytes(hdr) + pad + swapped.tobytes(order="F")


def orientation_srows(perm, flips, spacing=(1.5, 0.75, 2.0)):
    """sform rows whose RAS+ reorientation is ``(perm, flips)``: world axis w
    comes from voxel axis perm[w], reversed where flips[w]."""
    rot = np.zeros((3, 3))
    for w in range(3):
        rot[w, perm[w]] = -spacing[w] if flips[w] else spacing[w]
    return [tuple(rot[w]) + (float(w),) for w in range(3)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
