from __future__ import annotations

import gzip
import itertools
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pancseg import nifti
from pancseg import volume as volume_module
from pancseg.cli import main
from pancseg.metrics import BinaryMask
from pancseg.errors import (
    FormatError,
    HeaderLimitError,
    LabelSetError,
    PancsegError,
    ValidationError,
)
from pancseg.nifti import _DTYPE_BY_CODE, read_volume, write_volume
from pancseg.volume import (
    COLUMN_SUM_MAX_CLASSES,
    LABEL_SCAN_MAX_SPAN,
    PROB_SUM_TOL,
    Grid,
    ManifestRow,
    Volume,
    c_class_sums,
    check_probabilities,
    class_sums,
    memory_frame,
    read_manifest,
    same_grid,
    unique_labels,
    validate_label_set,
)

from conftest import damaged_gzip, orientation_srows, probability_volume, raw_nifti
from test_parity import _PROB_SPECIALS, _SUM_NUDGES, _check_outcome, ref_check_probabilities


def test_volume_rejects_bad_inputs(rng):
    good = np.zeros((2, 3, 4), dtype=np.float32)
    with pytest.raises(ValidationError):
        Volume(good, (1.0, 1.0, 1.0), kind="segmentation")
    with pytest.raises(ValidationError):
        Volume(good[0], (1.0, 1.0, 1.0))
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        Volume(bad, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        Volume(np.full((2, 2, 2), -1, dtype=np.int32), (1, 1, 1), kind="labels")
    with pytest.raises(ValidationError):
        Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1), kind="labels")
    with pytest.raises(ValidationError):
        Volume(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), kind="probabilities")
    lopsided = np.zeros((2, 2, 2, 3), dtype=np.float32)
    lopsided[..., 0] = 0.7  # sums to 0.7, not 1
    with pytest.raises(ValidationError):
        Volume(lopsided, (1, 1, 1), kind="probabilities")
    over = np.zeros((2, 2, 2, 2), dtype=np.float32)
    over[..., 0] = 1.5
    over[..., 1] = -0.5
    with pytest.raises(ValidationError):
        Volume(over, (1, 1, 1), kind="probabilities")


SPACING_TEXT = "spacing must be 3 positive finite reals, got "
ORIGIN_TEXT = "origin must be 3 finite reals, got "


@pytest.mark.parametrize(
    "spacing, origin, message",
    [
        ((1, np.nan, 1), (0, 0, 0), SPACING_TEXT + "(1.0, nan, 1.0)"),
        ((np.inf, 1, 1), (0, 0, 0), SPACING_TEXT + "(inf, 1.0, 1.0)"),
        ((1, -np.inf, 1), (0, 0, 0), SPACING_TEXT + "(1.0, -inf, 1.0)"),
        ((1, 0, 1), (0, 0, 0), SPACING_TEXT + "(1.0, 0.0, 1.0)"),
        ((1, 1, -1), (0, 0, 0), SPACING_TEXT + "(1.0, 1.0, -1.0)"),
        ((1, 1), (0, 0, 0), SPACING_TEXT + "(1.0, 1.0)"),
        ((1, 1, 1), (0, 0, np.nan), ORIGIN_TEXT + "(0.0, 0.0, nan)"),
        ((1, 1, 1), (np.inf, 0, 0), ORIGIN_TEXT + "(inf, 0.0, 0.0)"),
        ((1, 1, 1), (-np.inf, 0, 0), ORIGIN_TEXT + "(-inf, 0.0, 0.0)"),
    ],
    ids=[
        "nan", "inf", "-inf", "zero", "negative", "two", "origin_nan", "origin_inf", "origin_-inf"
    ],
)
def test_grid_volume_and_mask_reject_a_bad_grid_alike(spacing, origin, message):
    dims = (2, 3, 4)
    makers = {
        "Grid": lambda: Grid(dims, spacing, origin),
        "Volume": lambda: Volume(np.zeros(dims, dtype=np.float32), spacing, origin),
    }
    if message.startswith(SPACING_TEXT):  # a mask has a spacing but no origin
        makers["BinaryMask"] = lambda: BinaryMask(np.zeros(dims, dtype=bool), spacing)
    for name, make in makers.items():
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message, name


def test_volume_data_is_frozen():
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


def test_volume_helpers(rng):
    vol = Volume(np.zeros((4, 5, 6), dtype=np.float32), (0.5, 2.0, 3.0), origin=(1, 2, 3))
    assert vol.dims == (4, 5, 6)
    assert vol.grid == Grid((4, 5, 6), (0.5, 2.0, 3.0), (1.0, 2.0, 3.0))
    assert same_grid(vol.grid, Grid((4, 5, 6), (0.5 * (1 + 5e-6), 2.0, 3.0)))
    assert not same_grid(vol.grid, Grid((4, 5, 7), (0.5, 2.0, 3.0)))
    assert not same_grid(vol.grid, Grid((4, 5, 6), (0.6, 2.0, 3.0)))

    labels = Volume(np.array([[[0, 2], [1, 2]]], dtype=np.int16), (1, 1, 1), kind="labels")
    relabelled = labels.with_data(np.zeros((1, 2, 2), dtype=np.int32))
    assert relabelled.kind == "labels"
    assert relabelled.spacing == labels.spacing

    probs = probability_volume(rng, (2, 2, 2), (1, 1, 1), n_classes=4)
    assert probs.n_classes == 4
    with pytest.raises(ValidationError):
        labels.n_classes


def test_validate_label_set():
    labels = np.array([[[0, 3]]], dtype=np.int32)
    validate_label_set(labels, (0, 1, 2, 3))
    with pytest.raises(LabelSetError):
        validate_label_set(labels, (0, 1, 2))


def test_validate_label_set_message_is_the_same_on_both_scan_paths(monkeypatch):
    labels = np.array([[[0, 3], [7, 2]]], dtype=np.int32)
    with pytest.raises(LabelSetError) as fast:
        validate_label_set(labels, (0, 1, 2))
    monkeypatch.setattr(volume_module, "LABEL_SCAN_MAX_SPAN", -1)  # always sort
    with pytest.raises(LabelSetError) as sorted_:
        validate_label_set(labels, (0, 1, 2))
    assert str(fast.value) == str(sorted_.value)
    assert "[3, 7]" in str(fast.value)


@st.composite
def _label_arrays(draw):
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]))
    base = draw(st.integers(0, 100))
    span = draw(st.sampled_from([0, 1, 2, 5, LABEL_SCAN_MAX_SPAN, LABEL_SCAN_MAX_SPAN + 1, 150]))
    values = st.one_of(st.just(base), st.just(base + span), st.integers(base, base + span))
    shape = array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)
    return draw(arrays(dtype, shape, elements=values))


@settings(max_examples=300, deadline=None)
@given(_label_arrays())
@example(np.array([0, 300, 0], dtype=np.int16))
@example(np.array([300, 0, 300, 300], dtype=np.int32))
@example(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max], dtype=np.int64))
@example(np.array([2**64 - 1, 2**64 - 3], dtype=np.uint64))
# label 1 first appears in the last of three blocks of SLAB_BYTES
@example(np.r_[np.zeros(5 << 19, dtype=np.uint8), 1, 2])
def test_unique_labels_matches_np_unique(data):
    _same_as_np_unique(data)


def _same_as_np_unique(data):
    expected = np.unique(data)
    got = unique_labels(data)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def _permuted_and_flipped_views():
    """Every permutation and flip of C and Fortran int16 arrays of 1 to 4
    dims, with and without length-1 axes."""
    for ndim in range(1, 5):
        for ones in itertools.product((False, True), repeat=ndim):
            shape = tuple(1 if one else n for one, n in zip(ones, (2, 3, 4, 5)))
            for order in "CF":
                base = np.arange(np.prod(shape), dtype=np.int16).reshape(shape, order=order)
                for perm in itertools.permutations(range(ndim)):
                    for flipped in itertools.product((False, True), repeat=ndim):
                        index = tuple(slice(None, None, -1 if f else None) for f in flipped)
                        yield base.transpose(perm)[index]


def test_memory_frame_walks_any_permuted_flipped_view_in_memory_order():
    count = 0
    for view in _permuted_and_flipped_views():
        flips, axes = memory_frame(view)
        assert sorted(axes) == list(range(view.ndim))
        key = [(-abs(view.strides[a]), a) for a in axes]
        assert key == sorted(key)  # slowest first, ties in axis order
        # the slowest axis is the first largest |stride|; the last axis is the
        # fastest exactly when its |stride| is the smallest
        steps = np.abs(view.strides)
        assert axes[0] == np.argmax(steps)
        assert (axes[-1] == view.ndim - 1) == (steps[-1] == steps.min())
        frame = view[flips].transpose(axes)
        assert frame.flags.c_contiguous
        assert np.shares_memory(frame, view)
        assert all(s >= 0 for s in frame.strides)
        back = frame.transpose(np.argsort(axes))[flips]
        assert back.strides == view.strides
        assert np.array_equal(back, view)
        count += 1
    assert count == 13128


def test_layout_copy_stages_slabs_when_a_length_one_axis_ties_the_fastest():
    # a Fortran (1, 2048, 2048) uint8 map has strides (1, 1, 2048): its
    # length-1 axis ties the fastest stride, and must not be the slab axis
    for shape in itertools.permutations((1, 2048, 2048)):
        for order in "CF":
            view = np.zeros(shape, dtype=np.uint8, order=order)
            tracemalloc.start()
            try:
                out = nifti._layout_copy(view, np.dtype(np.int16))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == shape and out.flags.c_contiguous
            # the output plus one staged slab, not a staged copy of the view
            assert peak < out.nbytes + 3 * nifti.SLAB_BYTES // 2, (shape, order)


def test_unique_labels_scans_every_block(monkeypatch):
    monkeypatch.setattr(volume_module, "SLAB_BYTES", 64)  # 32 int16 values a block
    data = np.zeros((7, 11, 13), dtype=np.int16)  # 1001 values: a ragged last block
    data[0, 0, 0], data[3, 5, 7] = 6, 1
    for last in (-1, -9):  # within the ragged last block of 9 values
        for value in (2, 4):
            probe = data.copy()
            probe.reshape(-1)[last] = value
            _same_as_np_unique(probe)
    _same_as_np_unique(np.asfortranarray(data))
    _same_as_np_unique(data.transpose(2, 0, 1)[::-1, :, ::-1])  # a reoriented view
    _same_as_np_unique(data[:, ::2, 1:])  # not contiguous


def test_label_round_trip_is_bit_exact(tmp_path, rng):
    data = rng.integers(0, 3, size=(7, 5, 9)).astype(np.int32)
    vol = Volume(data, (0.7, 1.3, 2.9), origin=(-3.5, 0.25, 11.0), kind="labels")
    for name in ("labels.nii", "labels.nii.gz"):
        path = tmp_path / name
        write_volume(vol, path)
        back = read_volume(path, kind="labels")
        assert back.data.dtype == np.uint8  # stored as uint8 by range, read as stored
        assert np.array_equal(back.data, data)
        assert back.spacing == pytest.approx(vol.spacing, rel=1e-6)
        assert back.origin == pytest.approx(vol.origin, rel=1e-6)


@pytest.mark.parametrize(
    "dtype, endian, want",
    [
        (np.uint8, "<", np.uint8),
        (np.int8, "<", np.int8),
        (np.uint16, ">", np.uint16),
        (np.int16, "<", np.int16),
        (np.int32, ">", np.int32),
        (np.uint32, "<", np.int32),  # these three can exceed int32
        (np.int64, ">", np.int32),
        (np.uint64, "<", np.int32),
        (np.float32, "<", np.int32),  # float-coded, after rint
    ],
)
def test_label_read_keeps_a_narrow_integer_dtype(tmp_path, dtype, endian, want):
    data = np.zeros((3, 4, 2), dtype=dtype)
    data[1, 2:, 1] = 2
    path = tmp_path / "labels.nii"
    path.write_bytes(raw_nifti(data, endian=endian))
    back = read_volume(path, kind="labels")
    assert back.data.dtype == want and back.data.dtype.isnative
    assert np.array_equal(back.data, data)


def test_image_round_trip_preserves_float32(tmp_path, rng):
    data = rng.normal(size=(6, 4, 5)).astype(np.float32)
    vol = Volume(data, (1.0, 1.5, 2.0))
    path = tmp_path / "img.nii.gz"
    write_volume(vol, path)
    back = read_volume(path, kind="image")
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, data)


def test_probability_round_trip(tmp_path, rng):
    vol = probability_volume(rng, (4, 3, 5), (1.0, 1.0, 2.5), n_classes=3)
    path = tmp_path / "probs.nii.gz"
    write_volume(vol, path)
    back = read_volume(path, kind="probabilities")
    assert back.kind == "probabilities"
    assert back.n_classes == 3
    assert np.array_equal(back.data, vol.data)


def test_gzip_output_is_byte_deterministic(tmp_path, rng):
    data = rng.integers(0, 3, size=(5, 5, 5)).astype(np.int32)
    vol = Volume(data, (1, 1, 1), kind="labels")
    a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_volume(vol, a)
    write_volume(vol, b)
    assert a.read_bytes() == b.read_bytes()


def test_label_storage_uses_smallest_dtype(tmp_path):
    vol = Volume(np.full((2, 2, 2), 2, dtype=np.int64), (1, 1, 1), kind="labels")
    path = tmp_path / "small.nii"
    write_volume(vol, path)
    raw = path.read_bytes()
    datatype, bitpix = struct.unpack_from("<2h", raw, 70)
    assert (datatype, bitpix) == (2, 8)  # uint8

    big = Volume(np.full((2, 2, 2), 300, dtype=np.int32), (1, 1, 1), kind="labels")
    path2 = tmp_path / "big.nii"
    write_volume(big, path2)
    datatype, bitpix = struct.unpack_from("<2h", path2.read_bytes(), 70)
    assert (datatype, bitpix) == (4, 16)  # int16
    back = read_volume(path2, kind="labels", label_set=(0, 300))
    assert np.array_equal(back.data, big.data)


def test_oversized_dims_hit_header_limit(tmp_path):
    vol = Volume(np.zeros((70000, 1, 1), dtype=np.float32), (1, 1, 1))
    with pytest.raises(HeaderLimitError):
        write_volume(vol, tmp_path / "huge.nii")
    # the limit error is an I/O-class failure, not a validation failure
    assert not isinstance(HeaderLimitError("x"), ValidationError)
    assert isinstance(HeaderLimitError("x"), FormatError)


@pytest.mark.parametrize(
    "spacing, origin",
    [((1e39, 1, 1), (0, 0, 0)), ((1, 1, 1), (0, -1e39, 0)), ((1, 1, 3.5e38), (0, 0, 0))],
)
def test_grid_beyond_float32_hits_header_limit(tmp_path, spacing, origin):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.uint8), spacing, origin, kind="labels")
    path = tmp_path / "wide.nii"
    with pytest.raises(HeaderLimitError, match="float32"):
        write_volume(vol, path)
    assert not path.exists()
    # the largest float32 still fits and reads back
    edge = float(np.finfo(np.float32).max)
    write_volume(Volume(vol.data, (edge, 1, 1), (0, -edge, 0), kind="labels"), path)
    back = read_volume(path, kind="labels")
    assert back.spacing[0] == edge and back.origin[1] == -edge


def _patch_header(path, offset, fmt, *values):
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, offset, *values)
    path.write_bytes(bytes(raw))


def test_intensity_scaling_applies_to_images(tmp_path, rng):
    data = rng.normal(size=(3, 4, 2)).astype(np.float32)
    path = tmp_path / "scaled.nii"
    write_volume(Volume(data, (1, 1, 1)), path)
    _patch_header(path, 112, "<2f", 2.0, -1.0)
    back = read_volume(path, kind="image")
    assert np.allclose(back.data, data * np.float32(2.0) + np.float32(-1.0), rtol=0, atol=0)


def test_intensity_scaling_rejected_for_labels(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), kind="labels")
    path = tmp_path / "scaled_labels.nii"
    write_volume(vol, path)
    _patch_header(path, 112, "<2f", 2.0, 0.0)
    with pytest.raises(FormatError):
        read_volume(path, kind="labels")


def test_zero_slope_means_no_scaling(tmp_path, capsys):
    # NIfTI-1: scl_slope 0 leaves the stored values as they are, whatever
    # scl_inter holds, for images and label maps alike
    data = np.arange(8, dtype=np.int16).reshape(2, 2, 2) % 3
    path = tmp_path / "zero_slope.nii"
    path.write_bytes(raw_nifti(data, scaling=(0.0, 5.0)))
    image = read_volume(path, kind="image")
    assert image.data.dtype == np.int16
    assert np.array_equal(image.data, data)
    labels = read_volume(path, kind="labels")
    assert np.array_equal(labels.data, data)
    out = tmp_path / "copy.nii.gz"
    argv = ["resample", "--input", str(path), "--output", str(out), "--kind", "labels",
            "--spacing", "1", "1", "1", "--label-order", "0"]
    assert main(argv) == 0
    capsys.readouterr()
    assert np.array_equal(read_volume(out, kind="labels").data, data)


def test_trailing_singleton_axis_squeezes_for_images(tmp_path, rng):
    probs = Volume(np.ones((3, 4, 5, 1), dtype=np.float32), (1, 1, 1), kind="probabilities")
    path = tmp_path / "fourd.nii"
    write_volume(probs, path)
    back = read_volume(path, kind="image")
    assert back.data.shape == (3, 4, 5)


def test_multichannel_file_cannot_be_read_as_labels(tmp_path, rng):
    vol = probability_volume(rng, (3, 3, 3), (1, 1, 1), n_classes=3)
    path = tmp_path / "probs.nii"
    write_volume(vol, path)
    with pytest.raises(FormatError):
        read_volume(path, kind="labels")
    with pytest.raises(FormatError):
        read_volume(path, kind="image")


def test_probabilities_require_a_fourth_axis(tmp_path):
    path = tmp_path / "flat.nii"
    write_volume(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), path)
    with pytest.raises(FormatError):
        read_volume(path, kind="probabilities")


def test_non_integral_labels_are_rejected(tmp_path):
    path = tmp_path / "frac.nii"
    write_volume(Volume(np.full((2, 2, 2), 0.5, dtype=np.float32), (1, 1, 1)), path)
    with pytest.raises(FormatError):
        read_volume(path, kind="labels")


def test_integral_float_labels_are_accepted(tmp_path):
    path = tmp_path / "intfloat.nii"
    write_volume(Volume(np.full((2, 2, 2), 2.0, dtype=np.float32), (1, 1, 1)), path)
    back = read_volume(path, kind="labels")
    assert back.data.dtype == np.int32
    assert np.all(back.data == 2)


def test_unknown_label_fails_unless_declared(tmp_path):
    vol = Volume(np.full((2, 2, 2), 3, dtype=np.int32), (1, 1, 1), kind="labels")
    path = tmp_path / "lab3.nii"
    write_volume(vol, path)
    with pytest.raises(LabelSetError):
        read_volume(path, kind="labels")
    back = read_volume(path, kind="labels", label_set=(0, 1, 2, 3))
    assert np.all(back.data == 3)
    also = read_volume(path, kind="labels", label_set=None)
    assert np.all(also.data == 3)


def test_corrupt_files_raise_format_errors(tmp_path, rng):
    path = tmp_path / "ok.nii"
    write_volume(Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1)), path)
    raw = path.read_bytes()

    short = tmp_path / "short.nii"
    short.write_bytes(raw[:300])
    with pytest.raises(FormatError):
        read_volume(short)

    truncated = tmp_path / "trunc.nii"
    truncated.write_bytes(raw[:-40])
    with pytest.raises(FormatError):
        read_volume(truncated)

    bad_magic = tmp_path / "magic.nii"
    bad = bytearray(raw)
    bad[344:348] = b"abc\x00"
    bad_magic.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        read_volume(bad_magic)

    bad_size = tmp_path / "size.nii"
    bad = bytearray(raw)
    struct.pack_into("<i", bad, 0, 999)
    bad_size.write_bytes(bytes(bad))
    with pytest.raises(FormatError):
        read_volume(bad_size)

    with pytest.raises(FormatError):
        read_volume(tmp_path / "does_not_exist.nii")


# (perm, flips) of RAS+ reorientation: world axis w comes from voxel axis
# perm[w], reversed where flips[w]
_ORIENTATIONS = [
    ((0, 1, 2), (False, False, False)),
    ((2, 0, 1), (False, False, False)),
    ((0, 1, 2), (True, False, True)),
    ((1, 2, 0), (False, True, False)),
]


def _reference_decode(raw, dtype, shape, perm, flips, kind):
    """The decode chain the single-copy read replaces: cast, reorient, copy.
    Label maps keep the file's dtype unless it can exceed int32 or is float."""
    data = np.frombuffer(raw, dtype=dtype, count=int(np.prod(shape)), offset=352)
    data = data.reshape(shape, order="F").astype(dtype.newbyteorder("="))
    data = np.transpose(data, perm + tuple(range(3, data.ndim)))
    for w in range(3):
        if flips[w]:
            data = np.flip(data, axis=w)
    if kind == "labels" and not np.can_cast(data.dtype, np.int32):
        data = data.astype(np.int32)
    return np.ascontiguousarray(data)


def _recording_reads(reads: list):
    """A stand-in for ``nifti._read_data`` that keeps what each read returns:
    the header, the data layout and the read buffer."""
    real = nifti._read_data

    def read_data(path):
        out = real(path)
        reads.append(out)
        return out

    return read_data


def _check_label_layout(data, file_dtype, buffer, file_view=None):
    """The label map contract: read-only, in the memory order of the
    reoriented file view, and a view of the read buffer itself when no cast
    is needed (else one dense copy in that order)."""
    assert not data.flags.writeable
    buffer = np.frombuffer(buffer, np.uint8)  # a .nii file's buffer is its bytes
    if file_view is not None:
        order = np.argsort(np.abs(file_view.strides), kind="stable")
        assert list(np.argsort(np.abs(data.strides), kind="stable")) == list(order)
    if data.dtype == file_dtype:
        assert np.shares_memory(data, buffer)
        if file_view is not None:
            assert data.strides == file_view.strides
    else:
        assert not np.shares_memory(data, buffer)
        assert np.shares_memory(data.ravel(order="K"), data)


@pytest.mark.parametrize("code", sorted(_DTYPE_BY_CODE))
@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("perm, flips", _ORIENTATIONS)
def test_single_copy_read_matches_reference_decode(
    tmp_path, monkeypatch, rng, code, endian, perm, flips
):
    dtype = np.dtype(_DTYPE_BY_CODE[code])
    cases = [("labels", rng.integers(0, 3, size=(4, 3, 5)).astype(dtype))]
    if dtype.kind == "f":
        cases.append(("image", rng.normal(size=(4, 3, 5)).astype(dtype)))
        onehot = np.eye(3, dtype=dtype)[rng.integers(0, 3, size=(4, 3, 5))]
        cases.append(("probabilities", onehot))
    else:
        cases.append(("image", rng.integers(0, 100, size=(4, 3, 5)).astype(dtype)))
    for kind, data in cases:
        raw = raw_nifti(data, endian=endian, srows=orientation_srows(perm, flips))
        path = tmp_path / f"{kind}.nii"
        path.write_bytes(raw)
        reads = []
        monkeypatch.setattr(nifti, "_read_data", _recording_reads(reads))
        vol = read_volume(path, kind=kind, label_set=None)
        file_dtype = dtype.newbyteorder(endian)
        expected = _reference_decode(raw, file_dtype, data.shape, perm, flips, kind)
        assert vol.data.dtype == expected.dtype
        assert vol.data.dtype.isnative
        assert vol.data.shape == expected.shape
        assert np.array_equal(vol.data, expected)
        if kind in ("labels", "probabilities"):
            file_view = np.frombuffer(raw, file_dtype, data.size, 352).reshape(data.shape, order="F")
            file_view = np.transpose(file_view, perm + tuple(range(3, data.ndim)))
            for w in range(3):
                if flips[w]:
                    file_view = np.flip(file_view, axis=w)
            _check_label_layout(vol.data, file_dtype, reads[0][-1], file_view)
        else:
            assert vol.data.flags.c_contiguous
            assert not vol.data.flags.writeable


@pytest.mark.parametrize(
    "dtype, wide",
    [
        (np.int64, 2**32 + 2),  # would wrap to tumor label 2 in int32
        (np.uint64, 2**32 + 2),
        (np.uint32, 2**32 - 1),
        (np.float64, 2**32 + 2),
    ],
)
def test_labels_beyond_int32_are_format_errors(tmp_path, dtype, wide):
    data = np.zeros((2, 3, 2), dtype=dtype)
    data[1, 2, 0] = wide
    path = tmp_path / "wide.nii"
    path.write_bytes(raw_nifti(data))
    with pytest.raises(FormatError, match="int32 range"):
        read_volume(path, kind="labels", label_set=None)
    data[1, 2, 0] = 2**31 - 1  # the widest value that still fits
    path.write_bytes(raw_nifti(data))
    assert read_volume(path, kind="labels", label_set=None).data.max() == 2**31 - 1


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("name", ["wide.nii", "wide.nii.gz"])
def test_writing_labels_beyond_int32_is_a_format_error(tmp_path, dtype, name):
    data = np.zeros((2, 3, 2), dtype=dtype)
    data[1, 2, 0] = 2**32 + 2  # would be stored as tumor label 2
    path = tmp_path / name
    with pytest.raises(FormatError, match="int32 range"):
        write_volume(Volume(data.copy(), (1.0, 1.0, 1.0), kind="labels"), path)
    assert not path.exists()
    data[1, 2, 0] = 2**31 - 1  # the widest value that still fits
    write_volume(Volume(data, (1.0, 1.0, 1.0), kind="labels"), path)
    assert read_volume(path, kind="labels", label_set=None).data.max() == 2**31 - 1


def test_non_finite_float_labels_are_format_errors(tmp_path):
    for bad in (np.nan, np.inf):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 1, 1] = bad
        path = tmp_path / "nonfinite.nii"
        path.write_bytes(raw_nifti(data))
        with pytest.raises(FormatError):
            read_volume(path, kind="labels", label_set=None)


@pytest.mark.parametrize(
    "offset, fmt, value",
    [
        (108, "<f", np.nan),  # vox_offset
        (108, "<f", np.inf),
        (280, "<f", np.nan),  # srow_x[0]
        (300, "<f", -np.inf),  # srow_y[1]
        (324, "<f", np.nan),  # srow_z[3], the z origin
    ],
)
def test_non_finite_header_fields_are_format_errors(tmp_path, offset, fmt, value):
    path = tmp_path / "hdr.nii"
    write_volume(Volume(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), kind="labels"), path)
    _patch_header(path, offset, fmt, value)
    with pytest.raises(FormatError):
        read_volume(path, kind="labels")


def test_non_finite_qform_and_pixdim_are_format_errors(tmp_path, rng):
    data = rng.normal(size=(3, 3, 3)).astype(np.float32)
    path = tmp_path / "q.nii"
    path.write_bytes(raw_nifti(data, pixdim=(1.0, np.nan, 1.0)))
    with pytest.raises(FormatError):
        read_volume(path)
    path.write_bytes(raw_nifti(data, qform={"offset": (0.0, np.inf, 0.0)}))
    with pytest.raises(FormatError):
        read_volume(path)


# byte ranges of the header fields the fuzz test rewrites: (offset, struct code)
_HEADER_FIELDS = {
    "dim": (40, "8h"),
    "datatype": (70, "2h"),
    "pixdim": (76, "8f"),
    "vox_offset": (108, "f"),
    "qform_sform_code": (252, "2h"),
    "quatern": (256, "6f"),
    "srow": (280, "12f"),
}


@st.composite
def _header_mutation(draw):
    name = draw(st.sampled_from(sorted(_HEADER_FIELDS)))
    offset, code = _HEADER_FIELDS[name]
    size = struct.calcsize("<" + code)
    n, kind = int(code[:-1] or 1), code[-1]
    if kind == "f":
        scalar = st.floats(width=32, allow_nan=True, allow_infinity=True)
    else:
        scalar = st.integers(-(2**15), 2**15 - 1)
    packed = st.lists(scalar, min_size=n, max_size=n).map(lambda v: struct.pack("<" + code, *v))
    return offset, draw(st.one_of(st.binary(min_size=size, max_size=size), packed))


@settings(max_examples=400, deadline=None)
@given(mutations=st.lists(_header_mutation(), min_size=1, max_size=3))
def test_header_mutations_give_a_volume_or_a_format_error(tmp_path_factory, mutations):
    # voxel bytes 0..2 decode to small finite non-negative values in every
    # datatype, so a Volume check can only fail through the header
    data = np.arange(60, dtype=np.uint8).reshape(3, 4, 5) % 3
    raw = bytearray(raw_nifti(data, srows=orientation_srows((0, 1, 2), (False, False, False))))
    for offset, blob in mutations:
        raw[offset : offset + len(blob)] = blob
    path = tmp_path_factory.mktemp("fuzz") / "mutated.nii"
    path.write_bytes(bytes(raw))
    for kind in ("image", "labels"):
        reads = []
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nifti, "_read_data", _recording_reads(reads))
                vol = read_volume(path, kind=kind, label_set=None)
        except FormatError:
            continue
        assert isinstance(vol, Volume)
        assert all(0 < s < np.inf for s in vol.spacing)
        assert np.isfinite(vol.origin).all()
        if kind == "labels":
            _, _, file_dtype, _, buffer = reads[0]
            _check_label_layout(vol.data, file_dtype, buffer)
        else:
            assert vol.data.flags.c_contiguous and not vol.data.flags.writeable


def test_big_endian_files_read_identically(tmp_path, rng):
    data = rng.normal(size=(4, 3, 5)).astype(np.float32)
    little = tmp_path / "le.nii"
    big = tmp_path / "be.nii"
    little.write_bytes(raw_nifti(data, endian="<", pixdim=(1.0, 2.0, 0.5)))
    big.write_bytes(raw_nifti(data, endian=">", pixdim=(1.0, 2.0, 0.5)))
    a = read_volume(little)
    b = read_volume(big)
    assert np.array_equal(a.data, b.data)
    assert a.spacing == b.spacing


def test_sform_permutation_reorients_to_ras(tmp_path, rng):
    data = rng.normal(size=(4, 3, 5)).astype(np.float32)
    # voxel axis 0 points Anterior, axis 1 Superior, axis 2 Right
    srows = [(0.0, 0.0, 3.0, 5.0), (1.5, 0.0, 0.0, -2.0), (0.0, 2.0, 0.0, 7.0)]
    path = tmp_path / "perm.nii"
    path.write_bytes(raw_nifti(data, srows=srows))
    vol = read_volume(path)
    assert np.array_equal(vol.data, np.transpose(data, (2, 0, 1)))
    assert vol.spacing == pytest.approx((3.0, 1.5, 2.0))
    assert vol.origin == pytest.approx((5.0, -2.0, 7.0))


def test_sform_flip_reorients_to_ras(tmp_path, rng):
    data = rng.normal(size=(4, 3, 5)).astype(np.float32)
    # like the permutation case but voxel axis 0 now points Posterior
    srows = [(0.0, 0.0, 3.0, 5.0), (-1.5, 0.0, 0.0, -2.0), (0.0, 2.0, 0.0, 7.0)]
    path = tmp_path / "flip.nii"
    path.write_bytes(raw_nifti(data, srows=srows))
    vol = read_volume(path)
    expected = np.flip(np.transpose(data, (2, 0, 1)), axis=1)
    assert np.array_equal(vol.data, expected)
    assert vol.spacing == pytest.approx((3.0, 1.5, 2.0))
    # origin moves to the voxel that lands at index (0, 0, 0) after the flip
    assert vol.origin == pytest.approx((5.0, -2.0 - 1.5 * 3, 7.0))


def test_qform_identity_and_z_flip(tmp_path, rng):
    data = rng.normal(size=(3, 3, 4)).astype(np.float32)
    plain = tmp_path / "q.nii"
    plain.write_bytes(
        raw_nifti(data, pixdim=(1.0, 1.5, 2.0), qform={"offset": (1.0, 2.0, 3.0)})
    )
    vol = read_volume(plain)
    assert np.array_equal(vol.data, data)
    assert vol.spacing == pytest.approx((1.0, 1.5, 2.0))
    assert vol.origin == pytest.approx((1.0, 2.0, 3.0))

    flipped = tmp_path / "qflip.nii"
    flipped.write_bytes(
        raw_nifti(data, pixdim=(1.0, 1.5, 2.0), qform={"qfac": -1.0})
    )
    back = read_volume(flipped)
    assert np.array_equal(back.data, np.flip(data, axis=2))
    assert back.spacing == pytest.approx((1.0, 1.5, 2.0))
    # voxel (0,0,0) of the flipped array sat at index 3 along z
    assert back.origin == pytest.approx((0.0, 0.0, -2.0 * 3))


def test_spacing_units_convert_to_millimetres(tmp_path, rng):
    data = rng.normal(size=(3, 3, 3)).astype(np.float32)
    metres = tmp_path / "m.nii"
    metres.write_bytes(raw_nifti(data, pixdim=(0.001, 0.002, 0.001), xyzt_units=1))
    vol = read_volume(metres)
    assert vol.spacing == pytest.approx((1.0, 2.0, 1.0))

    micro = tmp_path / "um.nii"
    micro.write_bytes(raw_nifti(data, pixdim=(500.0, 500.0, 1000.0), xyzt_units=3))
    vol = read_volume(micro)
    assert vol.spacing == pytest.approx((0.5, 0.5, 1.0))


def test_nonstandard_vox_offset_is_honoured(tmp_path, rng):
    data = rng.normal(size=(2, 3, 4)).astype(np.float32)
    path = tmp_path / "offset.nii"
    path.write_bytes(raw_nifti(data, vox_offset=368))
    vol = read_volume(path)
    assert np.array_equal(vol.data, data)


def test_manifest_round_trip(tmp_path):
    rows = [
        ManifestRow("case_001", "refs/case_001.nii.gz", "preds/case_001.nii.gz"),
        ManifestRow("case_002", "refs/case_002.nii.gz", "preds/case_002.nii.gz"),
    ]
    path = tmp_path / "manifest.csv"
    path.write_text(
        "case_id,reference,prediction\n"
        "case_001,refs/case_001.nii.gz,preds/case_001.nii.gz\n"
        "case_002,refs/case_002.nii.gz,preds/case_002.nii.gz\n"
    )
    manifest = read_manifest(path)
    assert manifest == tuple(rows)


def test_manifest_accepts_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(
        b"case_id,reference,prediction\r\n"
        b"case_a,ref_a.nii.gz,pred_a.nii.gz\r\n"
        b"case_b,ref_b.nii.gz,pred_b.nii.gz\r\n"
    )
    manifest = read_manifest(path)
    assert tuple(r.case_id for r in manifest) == ("case_a", "case_b")
    assert manifest[1].prediction == "pred_b.nii.gz"


def test_manifest_rejects_malformed_inputs(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("case_id,reference\ncase_a,ref\n")
    with pytest.raises(FormatError):
        read_manifest(missing)

    dup = tmp_path / "dup.csv"
    dup.write_text(
        "case_id,reference,prediction\ncase_a,r,p\ncase_a,r2,p2\n"
    )
    with pytest.raises(FormatError):
        read_manifest(dup)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        read_manifest(empty)

    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("case_id,reference,prediction\n")
    with pytest.raises(FormatError):
        read_manifest(headers_only)

    blank_field = tmp_path / "blank.csv"
    blank_field.write_text("case_id,reference,prediction\ncase_a,,p\n")
    with pytest.raises(FormatError):
        read_manifest(blank_field)


def test_gzip_sniffing_ignores_extension(tmp_path, rng):
    # a gzipped payload under a .nii name still reads
    data = rng.integers(0, 3, size=(3, 3, 3)).astype(np.int32)
    vol = Volume(data, (1, 1, 1), kind="labels")
    gz = tmp_path / "real.nii.gz"
    write_volume(vol, gz)
    disguised = tmp_path / "disguised.nii"
    disguised.write_bytes(gz.read_bytes())
    back = read_volume(disguised, kind="labels")
    assert np.array_equal(back.data, data)


@pytest.mark.parametrize("defect", ["truncated", "corrupted"])
def test_damaged_gzip_is_a_format_error(tmp_path, rng, defect):
    data = rng.integers(0, 3, size=(24, 24, 24)).astype(np.int32)
    path = tmp_path / "lab.nii.gz"
    write_volume(Volume(data, (1, 1, 1), kind="labels"), path)
    path.write_bytes(damaged_gzip(path.read_bytes(), defect))
    with pytest.raises(FormatError, match="corrupt gzip stream"):
        read_volume(path, kind="labels")


def _gzip_with_tail(raw: bytes, tail: int) -> bytes:
    """``raw`` followed by ``tail`` zero bytes, in one gzip member."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, 31)
    parts = [deflate.compress(raw)]
    zeros = bytes(1 << 20)
    for start in range(0, tail, len(zeros)):
        parts.append(deflate.compress(zeros[: tail - start]))
    return b"".join(parts) + deflate.flush()


def _traced_peak(read):
    """``read()`` and the peak of memory allocated while it ran."""
    tracemalloc.start()
    try:
        return read(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_tail_after_the_data_section_reads_at_constant_memory(tmp_path):
    data = np.arange(64, dtype=np.uint8).reshape(4, 4, 4) % 3
    peaks = []
    for tail in (8 << 20, 64 << 20):
        path = tmp_path / f"tail{tail}.nii.gz"
        path.write_bytes(_gzip_with_tail(raw_nifti(data), tail))
        vol, peak = _traced_peak(lambda: read_volume(path, kind="labels"))
        assert np.array_equal(vol.data, data)
        peaks.append(peak)
    assert peaks[1] < peaks[0] + (1 << 20)  # the tail grew by 63 MiB
    assert peaks[1] < (2 << 20)  # a few inflate chunks, not 4 MiB


@pytest.mark.parametrize("dims", [(512, 512, 512), (32767, 32767, 32767)])
def test_a_header_declaring_more_than_its_stream_can_hold_allocates_nothing(tmp_path, dims):
    raw = bytearray(raw_nifti(np.zeros((4, 4, 4), dtype=np.uint8)))
    struct.pack_into("<3h", raw, 42, *dims)
    path = tmp_path / "huge.nii.gz"
    path.write_bytes(gzip.compress(bytes(raw), mtime=0))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"truncated data section \(416 < \d+ bytes\)"):
            read_volume(path, kind="labels")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 << 20)


@pytest.mark.parametrize("cut", [100, 352 + 37])  # inside the header; inside the data
@pytest.mark.parametrize("padding", [b"", b"\x00" * 5], ids=["no_padding", "zero_padding"])
def test_a_file_of_two_gzip_members_reads_as_one(tmp_path, rng, cut, padding):
    data = rng.integers(0, 3, size=(8, 6, 5)).astype(np.int16)
    raw = raw_nifti(data, srows=orientation_srows((1, 2, 0), (True, False, False)))
    one, two = tmp_path / "one.nii.gz", tmp_path / "two.nii.gz"
    one.write_bytes(gzip.compress(raw, mtime=0))
    members = gzip.compress(raw[:cut], mtime=0) + padding + gzip.compress(raw[cut:], mtime=0)
    two.write_bytes(members + padding)
    a, b = read_volume(one, kind="labels"), read_volume(two, kind="labels")
    assert np.array_equal(a.data, b.data) and a.data.strides == b.data.strides
    assert (a.spacing, a.origin) == (b.spacing, b.origin)


def _with_flags(stream: bytes, flags: int, extra: bytes = b"") -> bytes:
    """A gzip member with ``flags`` set in its header and ``extra`` bytes
    after the fixed 10-byte header (the header CRC that FHCRC announces)."""
    return stream[:3] + bytes([stream[3] | flags]) + stream[4:10] + extra + stream[10:]


def _corrupt_in_tail(raw: bytes) -> bytes:
    stream = bytearray(_gzip_with_tail(raw, 1 << 16))
    stream[-6] ^= 0xFF  # the CRC, checked after the data section is filled
    return bytes(stream)


@pytest.mark.parametrize(
    "damage",
    [
        _corrupt_in_tail,
        lambda raw: gzip.compress(raw, mtime=0) + b"garbage",
        lambda raw: gzip.compress(raw, mtime=0)[:-4],
        # a stream defect wins over a header defect, as when the whole stream
        # was inflated before the header was read
        lambda raw: damaged_gzip(gzip.compress(b"\x00" * 348 + raw, mtime=0), "truncated"),
        lambda raw: damaged_gzip(gzip.compress(raw[:200], mtime=0), "corrupted"),
        # RFC 1952 header defects that gzip.decompress let pass
        lambda raw: _with_flags(gzip.compress(raw, mtime=0), 0x02, b"\x00\x00"),
        lambda raw: _with_flags(gzip.compress(raw, mtime=0), 0x80),
    ],
    ids=[
        "crc_in_tail",
        "garbage_after_member",
        "no_length",
        "bad_header_truncated",
        "short_corrupted",
        "header_crc_mismatch",
        "reserved_flag_bits",
    ],
)
def test_stream_defects_anywhere_are_gzip_format_errors(tmp_path, damage):
    data = np.arange(60, dtype=np.uint8).reshape(3, 4, 5) % 3
    path = tmp_path / "damaged.nii.gz"
    path.write_bytes(damage(raw_nifti(data)))
    with pytest.raises(FormatError, match="corrupt gzip stream"):
        read_volume(path, kind="labels")


# The label checks of a read, in the order they fail: a non-integral or
# out-of-int32 value is a FormatError (exit 2) found before the layout copy;
# a negative label is the ValidationError of ``Volume`` (exit 1); a label
# outside the declared set is a LabelSetError (exit 1).  The checks run on
# the Volume's data, which keeps the file's integer dtype, so these pin that
# a narrow, big-endian or float-coded map fails as it did when widened.
LABEL_PRECEDENCE = {  # file dtype and byte order, values, error type, text, exit code
    "negative_and_unknown": (np.int8, "<", (-1, 7), "ValidationError", "negative values", 1),
    "unknown": (
        np.uint8, "<", (7,), "LabelSetError", "unknown label(s) [7]; declared set is [0, 1, 2]", 1
    ),
    "float_unknown": (np.float32, "<", (3.0, 7.0), "LabelSetError", "unknown label(s) [3, 7];", 1),
    "big_endian_unknown": (np.int16, ">", (300,), "LabelSetError", "unknown label(s) [300];", 1),
    "beyond_int32": (np.int64, "<", (-1, 2**32 + 2), "FormatError", "exceed the int32 range", 2),
}


def _label_map(tmp_path, dtype, values, endian="<"):
    data = np.zeros((4, 3, 5), dtype=dtype)
    data[1, 1:3, 2] = 2
    for i, value in enumerate(values):
        data[0, i, 4 - i] = value
    path = tmp_path / "pred.nii"
    path.write_bytes(raw_nifti(data, endian=endian))
    return path


@pytest.mark.parametrize("case", sorted(LABEL_PRECEDENCE))
def test_label_errors_keep_their_order_and_text(tmp_path, capsys, monkeypatch, case):
    dtype, endian, values, kind, text, exit_code = LABEL_PRECEDENCE[case]
    path = _label_map(tmp_path, dtype, values, endian)
    with pytest.raises(PancsegError) as raised:
        read_volume(path, kind="labels")
    assert type(raised.value).__name__ == kind
    assert text in str(raised.value)

    ref = tmp_path / "ref.nii"
    write_volume(Volume(np.zeros((4, 3, 5), dtype=np.int32), (1, 1, 1), kind="labels"), ref)
    code = main(["eval-case", "--ref", str(ref), "--pred", str(path), "--json-errors"])
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert (error["type"], error["exit_code"]) == (kind, exit_code)
    assert text in error["message"]

    if kind == "FormatError":  # found before the layout copy is made

        def no_copy(view, dtype):
            raise AssertionError("layout copy reached")

        monkeypatch.setattr(nifti, "_layout_copy", no_copy)
        with pytest.raises(FormatError, match="int32 range"):
            read_volume(path, kind="labels", label_set=None)


def test_reads_without_a_label_set_skip_the_set_check(tmp_path, capsys):
    path = _label_map(tmp_path, np.uint8, (7,))
    assert read_volume(path, kind="labels", label_set=None).data.max() == 7
    out = tmp_path / "out.nii"
    argv = ["resample", "--input", str(path), "--output", str(out), "--kind", "labels"]
    assert main(argv + ["--spacing", "1", "1", "1", "--json-errors"]) == 0
    capsys.readouterr()
    assert read_volume(out, kind="labels", label_set=None).data.max() == 7


@st.composite
def _laid_out_stacks(draw):
    """A probability stack of 1 to 12 classes, with values at the edges of
    the checks, stored in any axis order (C and Fortran among them) and seen
    through any flips."""
    n = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dims = draw(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.dirichlet(np.ones(n), size=dims)
    data *= 1.0 + rng.choice(draw(st.sampled_from(_SUM_NUDGES)), size=dims)[..., None]
    special = rng.random(data.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    data[special] = rng.choice(_PROB_SPECIALS, size=int(special.sum()))
    axes = draw(st.permutations(range(4)))
    reversed_axes = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    flips = tuple(slice(None, None, -1 if r else None) for r in reversed_axes)
    stored = np.ascontiguousarray(data.astype(dtype)[flips].transpose(axes))
    return stored.transpose(np.argsort(axes))[flips]


# a Fortran-order stack of 9 classes: numpy's own sum adds its classes in
# order, and the C-order reference adds them pairwise
_WIDE_FORTRAN = np.asfortranarray(np.random.default_rng(9).dirichlet(np.ones(9), size=(6, 5, 4)))


def _tolerance_edge_stack():
    """A Fortran-order float32 stack of 9 classes whose sums pass the sum
    check in one of C order and Fortran order and fail it in the other."""
    rng = np.random.default_rng(0)
    while True:
        vector = (rng.dirichlet(np.ones(9)) * (1 + PROB_SUM_TOL)).astype(np.float32)
        stack = np.asfortranarray(np.stack([vector, vector]).reshape(2, 1, 1, 9))
        fails = [np.abs(a.sum(axis=-1) - 1.0).max() > PROB_SUM_TOL for a in (stack, stack.copy())]
        if fails[0] != fails[1]:
            return stack


@settings(max_examples=300, deadline=None)
@given(_laid_out_stacks())
@example(_WIDE_FORTRAN)
@example(_WIDE_FORTRAN.astype(np.float32))
@example(_tolerance_edge_stack())
def test_class_sums_and_checks_follow_the_c_order_reference_in_any_layout(data):
    c_data = np.ascontiguousarray(data)
    want = c_data.sum(axis=-1)
    bits = np.uint32 if data.dtype == np.float32 else np.uint64
    sums = [c_class_sums(data)]
    if data.shape[-1] <= COLUMN_SUM_MAX_CLASSES:  # in-order adds: the same bits in any layout
        sums.append(class_sums(data))
    for got in sums:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(np.ascontiguousarray(got).view(bits), want.view(bits))
    assert _check_outcome(check_probabilities, data) == _check_outcome(ref_check_probabilities, c_data)
