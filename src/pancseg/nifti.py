"""Minimal NIfTI-1 reader/writer for .nii and .nii.gz volumes.

Only the subset of the format needed for segmentation work is supported:
single-file images (magic ``n+1``), 3D scalar grids plus 4D stacks whose
fourth axis is the class channel, and the common scalar datatypes.  On read
the volume is reorientated to RAS+ by axis permutation and flips derived from
the dominant direction of each affine column (sform preferred, then qform,
then a plain pixdim diagonal).

A read fills one buffer: a ``.nii`` file's bytes, or a gzip stream inflated
into one array of exactly the header and data section, its size fixed by
the header before anything is allocated (see ``_read_data``).  An image or
probability stack is then laid out once: the reoriented view of the buffer
is byte-swapped, cast and laid out in C order, in slabs along an axis that
is neither the view's fastest nor its last, each staged in source order
through a small temporary (see ``_layout_copy``).  A label map is not laid
out: it stays the reoriented view of the buffer, in the file's memory
order, and is copied in that order only to swap its bytes or cast it.  Its
consumers that copy or flatten it in C order lay it out first through
``c_order``.  An integer label map keeps the file's dtype, in native byte
order; only uint32, int64 and uint64 files, whose values can exceed int32,
are range checked and become int32, as do float-coded maps after ``rint``.
The label set is checked once, on the Volume's own data, after ``Volume``
has rejected negative labels.  Writing always emits an RAS+ diagonal sform and
makes one copy too: the stored dtype, little-endian and Fortran order, laid
out by the same ``_layout_copy`` as the C order of the transposed array.
"""
from __future__ import annotations

import gzip
import itertools
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError, HeaderLimitError
from .volume import DEFAULT_LABEL_SET, SLAB_BYTES, Volume, memory_frame, slab_axis, validate_label_set

HEADER_SIZE = 348
VOX_OFFSET = 352  # header + 4-byte extension flag
MAGIC_SINGLE = b"n+1\x00"
MAX_DIM = 32767  # dim[] is int16 in the header
GZIP_MAGIC = b"\x1f\x8b"

# Bytes of inflated output per zlib call, and of compressed input fed per
# call.  However long the stream runs on past the data section, a gzip read
# holds about four output chunks besides the file and its buffer: the
# header's, the previous one, and the one zlib joins from blocks, twice.
INFLATE_CHUNK = 1 << 18
COMPRESSED_CHUNK = 1 << 16
# Deflate's largest ratio: a 258-byte match coded in 2 bits is 1032:1, so a
# stream inflates to at most this many times its compressed size.
DEFLATE_MAX_RATIO = 1032

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


def _inflate(raw: bytes, path: Path):
    """The inflated bytes of the gzip stream ``raw``, in chunks of at most
    INFLATE_CHUNK bytes, read as ``gzip.decompress`` reads it: member after
    member, skipping zero padding after each.  zlib checks each member's CRC
    and length while it inflates, and it is fed COMPRESSED_CHUNK bytes at a
    time, so its copy of the unconsumed input stays small.  A stream defect
    raises FormatError when the chunks reach it.
    """
    try:
        while raw:
            if raw[:2] != GZIP_MAGIC:
                raise FormatError(f"{path}: corrupt gzip stream: not a gzipped file ({raw[:2]!r})")
            member = zlib.decompressobj(wbits=31)
            view, pos = memoryview(raw), 0
            while not member.eof:
                data = member.unconsumed_tail
                if not data:
                    data = view[pos : pos + COMPRESSED_CHUNK]
                    pos += len(data)
                chunk = member.decompress(data, INFLATE_CHUNK)
                if not (chunk or data):
                    raise FormatError(
                        f"{path}: corrupt gzip stream: compressed file ended before the "
                        "end-of-stream marker was reached"
                    )
                if chunk:
                    yield chunk
            raw = raw[pos - len(member.unused_data) :].lstrip(b"\x00")
    except zlib.error as exc:  # corrupt deflate data, bad CRC or length
        raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc


def _fill(buf: np.ndarray, chunks) -> int:
    """Copy ``chunks`` into the uint8 ``buf`` until it is full, and go on
    through the rest only to check them: the total length of the chunks."""
    total = 0
    for chunk in chunks:
        n = min(len(chunk), len(buf) - total)
        if n > 0:
            buf[total : total + n] = np.frombuffer(chunk, np.uint8, n)
        total += len(chunk)
    return total


def _data_layout(h: dict, path: Path):
    """The data section a header declares: its dims, file dtype, offset, and
    the bytes a file needs to hold it."""
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
    return dims, dtype, offset, offset + math.prod(dims) * dtype.itemsize


def _read_data(path: Path):
    """The header of the file at ``path``, its data layout, and a buffer
    that holds at least its header and data section.

    A ``.nii`` file is its bytes.  A gzip file is inflated up to its header
    first; once the header fixes the size, the rest goes into one
    preallocated uint8 buffer of exactly the header and data section, and
    any tail is inflated in chunks and dropped (see ``_inflate``).  As if
    the whole stream were inflated first, a stream defect wins over a
    header defect, and a stream that ends early is a truncated data
    section.  So is a header that declares more than deflate can give from
    this file: the stream is only counted, and nothing is allocated for it.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if raw[:2] != GZIP_MAGIC:
        h = _read_header(raw)
        dims, dtype, offset, need = _data_layout(h, path)
        buf, size = raw, len(raw)
    else:
        chunks = _inflate(raw, path)
        head = b""
        for chunk in chunks:
            head += chunk
            if len(head) >= HEADER_SIZE:
                break
        try:
            h = _read_header(head)
            dims, dtype, offset, need = _data_layout(h, path)
        except FormatError:
            for _ in chunks:  # a stream defect wins over a header defect
                pass
            raise
        buf = np.empty(need if need <= DEFLATE_MAX_RATIO * len(raw) else 0, np.uint8)
        size = _fill(buf, itertools.chain([head], chunks))
    if size < need:
        raise FormatError(f"{path}: truncated data section ({size} < {need} bytes)")
    return h, dims, dtype, offset, buf


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

    Reads pass the reoriented file view; writes pass the transposed volume,
    whose C order is the file's Fortran order.  The plain copy walks the
    output in C order.  For either view that walk reads the source at large
    strides (z planes 2^18 bytes apart in a 512x512 uint8 map) that map to
    the same cache sets, and each cache line is fetched again long after it
    was first used.  So the copy goes in slabs along an axis other than the
    view's last, the first that is not the view's fastest (``memory_frame``'s
    last) if it can (``slab_axis`` passes over length-1 axes): each slab is
    copied in source order into a temporary of about SLAB_BYTES, then cast
    and laid out from there, so the strided walk stays in cache.
    """
    fast = memory_frame(view)[1][-1]
    axis = slab_axis(view, sorted(range(view.ndim - 1), key=lambda ax: ax == fast))
    width = max(1, SLAB_BYTES * view.shape[axis] // view.nbytes)
    out = np.empty(view.shape, dtype=dtype)
    index = [slice(None)] * view.ndim
    for start in range(0, view.shape[axis], width):
        index[axis] = slice(start, start + width)
        out[tuple(index)] = np.array(view[tuple(index)], order="K")
    return out


def c_order(array: np.ndarray) -> np.ndarray:
    """``array`` when its last axis is its fastest (the last of its
    ``memory_frame``), so that a C-order walk reads it row by row; else its
    ``_layout_copy`` in C order.  For the consumers of a label map in its
    file's memory order that copy or flatten it in C order."""
    fast = memory_frame(array)[1][-1]
    return array if fast == array.ndim - 1 else _layout_copy(array, array.dtype)


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
    h, dims, dtype, offset, buf = _read_data(path)
    ndim = len(dims)
    data = np.frombuffer(buf, dtype=dtype, count=math.prod(dims), offset=offset)
    data = data.reshape(dims, order="F")

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
    # NIfTI-1: a zero slope means the voxels are stored unscaled
    scaled = slope != 0.0 and (slope != 1.0 or inter != 0.0)
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
    spacing = [np.linalg.norm(affine[:3, perm[w]]) for w in range(3)]
    origin = affine[:3, :3] @ corner + affine[:3, 3]

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
        # a label map stays in the file's memory order: a view of the read
        # buffer, copied only to swap its bytes or cast it
        data = data.astype(target, order="K", copy=False)
    else:
        if scaled:
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
    dtype = data.dtype
    if volume.kind == "labels":
        dtype = _label_storage_dtype(data)
    elif dtype == np.float16:
        dtype = np.dtype(np.float32)
    code = _dtype_code(dtype)

    shape = data.shape
    ndim = len(shape)
    dim = [ndim] + [int(s) for s in shape] + [1] * (7 - ndim)
    if volume.kind == "probabilities" and shape[3] > MAX_DIM:
        raise HeaderLimitError(f"class axis {shape[3]} exceeds the header limit")

    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, *dim)
    struct.pack_into("<2h", hdr, 70, code, dtype.itemsize * 8)
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

    hdr += b"\x00\x00\x00\x00"  # no extensions
    # the one copy: cast, little-endian and Fortran order, as the C order of
    # the transposed view
    body = _layout_copy(data.T, dtype.newbyteorder("<"))
    with open(path, "wb") as fh:
        if path.suffix == ".gz":
            # blank filename + zero mtime keep identical volumes byte-identical
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(hdr)
                gz.write(body)
        else:
            fh.write(hdr)
            fh.write(body)
