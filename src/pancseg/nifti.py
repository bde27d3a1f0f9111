"""Minimal NIfTI-1 reader/writer for .nii and .nii.gz volumes.

Only the subset of the format needed for segmentation work is supported:
single-file images (magic ``n+1``), 3D scalar grids plus 4D stacks whose
fourth axis is the class channel, and the common scalar datatypes.  On read
the volume is reorientated to RAS+ by axis permutation and flips derived from
the dominant direction of each affine column (sform preferred, then qform,
then a plain pixdim diagonal).  Reads make one layout copy: the reoriented
view of the file buffer is byte-swapped, cast and laid out in C order, in
slabs along an axis that is neither the view's fastest nor its last, each
staged in source order through a small temporary (see ``_layout_copy``).
An integer label map keeps the file's dtype, in native byte order; only
uint32, int64 and uint64 files, whose values can exceed int32, are range
checked and become int32, as do float-coded maps after ``rint``.  The label
set is checked once, on the Volume's own data, after ``Volume`` has
rejected negative labels.  Writing always emits an RAS+ diagonal sform.
"""
from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError, HeaderLimitError
from .volume import DEFAULT_LABEL_SET, SLAB_BYTES, Volume, validate_label_set

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extension flag
MAGIC_SINGLE = b"n+1\x00"
MAX_DIM = 32767  # dim[] is int16 in the header

_DTYPE_BY_CODE = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
    256: np.int8,
    512: np.uint16,
    768: np.uint32,
    1024: np.int64,
    1280: np.uint64,
}
_CODE_BY_DTYPE = {np.dtype(d).str[1:]: c for c, d in _DTYPE_BY_CODE.items()}

_UNIT_SCALE = {0: 1.0, 1: 1000.0, 2: 1.0, 3: 0.001}  # unknown, m, mm, um
_INT32 = np.iinfo(np.int32)


def _dtype_code(dtype: np.dtype) -> int:
    key = np.dtype(dtype).str[1:]  # strip byte-order char
    if key not in _CODE_BY_DTYPE:
        raise FormatError(f"dtype {dtype} has no NIfTI-1 datatype code")
    return _CODE_BY_DTYPE[key]


def _read_maybe_gzip(path: Path) -> bytes:
    """The file's bytes, inflated when they start with the gzip magic."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, OSError, zlib.error) as exc:  # truncated, bad CRC, corrupt deflate
        raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc


def _quaternion_rotation(b: float, c: float, d: float) -> np.ndarray:
    a2 = 1.0 - (b * b + c * c + d * d)
    a = float(np.sqrt(a2)) if a2 > 0 else 0.0
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def _affine_from_header(h: dict) -> np.ndarray:
    if h["sform_code"] > 0:
        aff = np.eye(4)
        aff[0, :] = h["srow_x"]
        aff[1, :] = h["srow_y"]
        aff[2, :] = h["srow_z"]
        return aff
    if h["qform_code"] > 0:
        rot = _quaternion_rotation(h["quatern_b"], h["quatern_c"], h["quatern_d"])
        qfac = -1.0 if h["pixdim"][0] < 0 else 1.0
        scales = np.array([h["pixdim"][1], h["pixdim"][2], qfac * h["pixdim"][3]])
        aff = np.eye(4)
        # a non-finite pixdim gives a non-finite affine here, which
        # read_volume's finiteness check rejects as a FormatError
        with np.errstate(invalid="ignore", over="ignore"):
            aff[:3, :3] = rot * scales[np.newaxis, :]
        aff[:3, 3] = (h["qoffset_x"], h["qoffset_y"], h["qoffset_z"])
        return aff
    aff = np.diag([h["pixdim"][1], h["pixdim"][2], h["pixdim"][3], 1.0])
    return aff


def _ras_reorientation(affine: np.ndarray):
    """Map voxel axes onto RAS axes by dominant direction.

    Returns (perm, flips) such that transposing the array by ``perm`` and
    flipping the axes marked in ``flips`` yields RAS+ order.  Greedy matching
    on |R[i, j]| keeps the result well defined for oblique affines.
    """
    rot = affine[:3, :3].astype(float)
    if abs(np.linalg.det(rot)) < 1e-12:
        raise FormatError("affine rotation block is singular")
    strength = np.abs(rot)
    perm = [-1, -1, -1]  # perm[world_axis] = voxel_axis
    taken_vox: set[int] = set()
    for _ in range(3):
        best = None
        for w in range(3):
            if perm[w] >= 0:
                continue
            for v in range(3):
                if v in taken_vox:
                    continue
                if best is None or strength[w, v] > best[0]:
                    best = (strength[w, v], w, v)
        _, w, v = best
        perm[w] = v
        taken_vox.add(v)
    flips = [rot[w, perm[w]] < 0 for w in range(3)]
    return tuple(perm), tuple(flips)


def _layout_copy(view: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``np.array(view, dtype=dtype, order="C")``, byte for byte.

    The plain copy walks the output in C order.  For a reoriented file view
    that walk reads the source at large strides (z planes 2^18 bytes apart
    in a 512x512 uint8 map) that map to the same cache sets, and each cache
    line is fetched again long after it was first used.  So the copy goes in
    slabs along the first axis that is neither the view's fastest (smallest
    |stride|) nor its last: each slab is copied in source order into a
    temporary of about SLAB_BYTES, then cast and laid out from there, so the
    strided walk stays in cache.
    """
    strides = [abs(s) for s in view.strides]
    fast = strides.index(min(strides))
    axis = next(a for a in range(view.ndim - 1) if a != fast)
    width = max(1, SLAB_BYTES * view.shape[axis] // view.nbytes)
    out = np.empty(view.shape, dtype=dtype)
    index = [slice(None)] * view.ndim
    for start in range(0, view.shape[axis], width):
        index[axis] = slice(start, start + width)
        out[tuple(index)] = np.array(view[tuple(index)], order="K")
    return out


def _read_header(raw: bytes) -> dict:
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"file too small for a NIfTI-1 header ({len(raw)} bytes)")
    for endian in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(endian + "i", raw, 0)
        if sizeof_hdr == HEADER_SIZE:
            break
    else:
        raise FormatError("not a NIfTI-1 file (bad sizeof_hdr)")
    h = {"endian": endian}
    h["dim"] = struct.unpack_from(endian + "8h", raw, 40)
    h["datatype"], h["bitpix"] = struct.unpack_from(endian + "2h", raw, 70)
    h["pixdim"] = struct.unpack_from(endian + "8f", raw, 76)
    (h["vox_offset"],) = struct.unpack_from(endian + "f", raw, 108)
    h["scl_slope"], h["scl_inter"] = struct.unpack_from(endian + "2f", raw, 112)
    (h["xyzt_units"],) = struct.unpack_from(endian + "B", raw, 123)
    h["qform_code"], h["sform_code"] = struct.unpack_from(endian + "2h", raw, 252)
    (
        h["quatern_b"],
        h["quatern_c"],
        h["quatern_d"],
        h["qoffset_x"],
        h["qoffset_y"],
        h["qoffset_z"],
    ) = struct.unpack_from(endian + "6f", raw, 256)
    h["srow_x"] = struct.unpack_from(endian + "4f", raw, 280)
    h["srow_y"] = struct.unpack_from(endian + "4f", raw, 296)
    h["srow_z"] = struct.unpack_from(endian + "4f", raw, 312)
    h["magic"] = raw[344:348]
    if h["magic"] not in (b"n+1\x00", b"ni1\x00"):
        raise FormatError(f"unsupported magic {h['magic']!r}")
    if h["magic"] == b"ni1\x00":
        raise FormatError("two-file NIfTI (.hdr/.img) is not supported")
    return h


def read_volume(
    path: str | Path,
    kind: str = "image",
    label_set=DEFAULT_LABEL_SET,
) -> Volume:
    """Read a .nii/.nii.gz file as a Volume of the requested ``kind``.

    Images get scl_slope/scl_inter applied; label maps must decode to
    integral values and are checked against ``label_set``; probability
    stacks keep their trailing class axis.
    """
    path = Path(path)
    raw = _read_maybe_gzip(path)
    h = _read_header(raw)
    ndim = h["dim"][0]
    if ndim not in (3, 4):
        raise FormatError(f"{path}: expected a 3D or 4D volume, got dim[0]={ndim}")
    dims = [int(d) for d in h["dim"][1 : 1 + ndim]]
    if any(d < 1 for d in dims):
        raise FormatError(f"{path}: non-positive dimension in {dims}")

    if h["datatype"] not in _DTYPE_BY_CODE:
        raise FormatError(f"{path}: unsupported datatype code {h['datatype']}")
    dtype = np.dtype(_DTYPE_BY_CODE[h["datatype"]]).newbyteorder(h["endian"])

    if not np.isfinite(h["vox_offset"]):
        raise FormatError(f"{path}: vox_offset {h['vox_offset']} is not finite")
    offset = int(round(h["vox_offset"]))
    if offset < HEADER_SIZE:
        raise FormatError(f"{path}: vox_offset {offset} overlaps the header")
    count = int(np.prod(dims))
    need = offset + count * dtype.itemsize
    if len(raw) < need:
        raise FormatError(f"{path}: truncated data section ({len(raw)} < {need} bytes)")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(dims, order="F")

    if ndim == 4:
        if kind == "probabilities":
            pass  # trailing axis is the class channel
        elif dims[3] == 1:
            data = data[..., 0]
            dims = dims[:3]
        else:
            raise FormatError(
                f"{path}: 4D volume with {dims[3]} channels cannot be read as {kind}"
            )
    elif kind == "probabilities":
        raise FormatError(f"{path}: probability stacks must be 4D")

    slope, inter = h["scl_slope"], h["scl_inter"]
    if not (np.isfinite(slope) and np.isfinite(inter)):
        raise FormatError(f"{path}: scl_slope {slope} or scl_inter {inter} is not finite")
    scaled = slope not in (0.0, 1.0) or inter != 0.0
    if scaled and kind == "labels":
        raise FormatError(f"{path}: label volume carries intensity scaling")

    affine = _affine_from_header(h)
    unit = _UNIT_SCALE.get(h["xyzt_units"] & 0x07, 1.0)
    if unit != 1.0:
        affine = affine.copy()
        affine[:3, :] *= unit
    if not np.isfinite(affine).all():
        raise FormatError(f"{path}: affine has non-finite entries")

    perm, flips = _ras_reorientation(affine)
    data = np.transpose(data, perm + tuple(range(3, data.ndim)))
    corner = [0, 0, 0]
    for w in range(3):
        if flips[w]:
            data = np.flip(data, axis=w)
            corner[perm[w]] = dims[perm[w]] - 1
    spacing = tuple(float(np.linalg.norm(affine[:3, perm[w]])) for w in range(3))
    origin = tuple(float(v) for v in (affine[:3, :3] @ corner + affine[:3, 3]))

    target = dtype.newbyteorder("=")
    if kind == "labels":
        if data.dtype.kind == "f":
            rounded = np.rint(data)
            with np.errstate(invalid="ignore"):  # inf - inf is NaN, caught below
                integral = (np.abs(data - rounded) <= 1e-6).all()
            if not integral:
                raise FormatError(f"{path}: label volume has non-integral values")
            data = rounded
        if not np.can_cast(data.dtype, np.int32):
            lo, hi = data.min(), data.max()
            if lo < _INT32.min or hi > _INT32.max:
                raise FormatError(f"{path}: label values {lo}..{hi} exceed the int32 range")
            target = np.dtype(np.int32)
    elif scaled:
        target = np.dtype(np.float32)
    # the one copy: byte swap, cast and RAS+ C-order layout
    data = _layout_copy(data, target)
    if scaled:
        # a finite scaling may still overflow float32; Volume rejects the
        # non-finite voxels that leaves
        with np.errstate(over="ignore"):
            data *= np.float32(slope)
            data += np.float32(inter)

    vol = Volume(data=data, spacing=spacing, origin=origin, kind=kind)
    if kind == "labels" and label_set is not None:
        validate_label_set(data, label_set)
    return vol


def _label_storage_dtype(data: np.ndarray) -> np.dtype:
    hi = int(data.max(initial=0))
    lo = int(data.min(initial=0))
    if lo >= 0 and hi <= 255:
        return np.dtype(np.uint8)
    if lo >= -32768 and hi <= 32767:
        return np.dtype(np.int16)
    if lo < _INT32.min or hi > _INT32.max:
        raise FormatError(f"label values {lo}..{hi} exceed the int32 range")
    return np.dtype(np.int32)


def write_volume(volume: Volume, path: str | Path) -> None:
    """Write a Volume as single-file NIfTI-1; gzip when the suffix is .gz.

    The grid is stored with a diagonal RAS+ sform built from spacing and
    origin, slope/inter left neutral, and gzip mtime pinned to zero so that
    identical volumes produce byte-identical files.
    """
    path = Path(path)
    dims = volume.dims
    if any(d > MAX_DIM for d in dims):
        raise HeaderLimitError(
            f"dims {dims} exceed the NIfTI-1 header limit of {MAX_DIM} per axis"
        )
    with np.errstate(over="ignore"):  # the header stores float32
        grid = np.array(volume.spacing + volume.origin, dtype=np.float32)
    if not np.isfinite(grid).all():
        raise HeaderLimitError(
            f"spacing {volume.spacing} or origin {volume.origin} exceeds the float32 "
            "range of the NIfTI-1 header"
        )
    data = volume.data
    if volume.kind == "labels":
        data = data.astype(_label_storage_dtype(data), copy=False)
    elif data.dtype == np.float16:
        data = data.astype(np.float32)
    code = _dtype_code(data.dtype)
    data = data.astype(data.dtype.newbyteorder("<"), copy=False)

    shape = data.shape
    ndim = len(shape)
    dim = [ndim] + [int(s) for s in shape] + [1] * (7 - ndim)
    if volume.kind == "probabilities" and shape[3] > MAX_DIM:
        raise HeaderLimitError(f"class axis {shape[3]} exceeds the header limit")

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<2h", hdr, 70, code, data.dtype.itemsize * 8)
    pixdim = [1.0] + list(volume.spacing) + [1.0] * 4
    struct.pack_into("<8f", hdr, 76, *pixdim)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    struct.pack_into("<B", hdr, 123, 2 | 8)  # mm, seconds
    struct.pack_into("<2h", hdr, 252, 0, 1)  # qform off, sform aligned
    sx, sy, sz = volume.spacing
    ox, oy, oz = volume.origin
    struct.pack_into("<4f", hdr, 280, sx, 0.0, 0.0, ox)
    struct.pack_into("<4f", hdr, 296, 0.0, sy, 0.0, oy)
    struct.pack_into("<4f", hdr, 312, 0.0, 0.0, sz, oz)
    hdr[344:348] = MAGIC_SINGLE

    payload = bytes(hdr) + b"\x00\x00\x00\x00" + data.tobytes(order="F")
    if path.suffix == ".gz":
        with open(path, "wb") as fh:
            # blank filename + zero mtime keep identical volumes byte-identical
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)
