from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancseg import metrics

from pancseg.errors import (
    ConfigError,
    EmptySurfaceError,
    GridMismatchError,
    ValidationError,
)
from pancseg.metrics import (
    BinaryMask,
    CaseMetrics,
    EvalConfig,
    ReferenceSurface,
    aggregate_cohort,
    dice,
    edt,
    evaluate_case,
    hd95,
    masd,
    surface_dice,
    surface_distances,
    tumor_volume,
    SurfaceDistances,
)
from pancseg.surfels import border_map, neighbour_codes, surfel_area_table
from pancseg.volume import Volume

from conftest import label_volume, random_mask, random_spacing
from oracles import (
    brute_area_table,
    brute_codes,
    brute_codes_slow,
    brute_dice,
    brute_edt,
    brute_hd95,
    brute_masd,
    brute_surface_dice,
    brute_surface_distance_lists,
    brute_volume,
)


def test_eval_config_validation():
    EvalConfig()
    mask = BinaryMask(np.ones((1, 1, 1), dtype=bool), (1, 1, 1))
    sd = surface_distances(mask, mask)
    for tolerance in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            EvalConfig(tolerance_mm=tolerance)
        with pytest.raises(ConfigError, match="tolerance_mm"):
            surface_dice(sd, tolerance)  # the same rule as EvalConfig's
    with pytest.raises(ConfigError):
        EvalConfig(empty_policy="ignore")
    with pytest.raises(ConfigError):
        EvalConfig(volume_unit="liters")
    for label_id in (0, 1, 2):
        EvalConfig(label_id=label_id)
    for label_id in (-1, 3, 2**31 - 1, 2**31, 99999999999999999999):
        with pytest.raises(ConfigError, match="label_id"):
            EvalConfig(label_id=label_id)


def test_binary_mask_basics(rng):
    labels = label_volume(random_mask(rng, (4, 5, 6)), (1, 2, 3), label=2)
    mask = BinaryMask.from_labels(labels, 2)
    assert mask.dims == (4, 5, 6)
    assert not mask.is_empty()
    none = BinaryMask.from_labels(labels, 1)
    assert none.is_empty()
    with pytest.raises(ValidationError):
        BinaryMask.from_labels(Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1)), 2)
    with pytest.raises(ValidationError):
        BinaryMask(np.zeros((2, 2)), (1, 1, 1))
    grid = BinaryMask(np.zeros((4, 5, 6), dtype=bool), (0.5, 2.0, 3.0))
    assert grid.physical_diagonal_mm() == pytest.approx(np.sqrt(2.0**2 + 10.0**2 + 18.0**2))


def _check_crop(mask, bits):
    """``mask`` holds ``bits`` as their tight box, in C order, read-only."""
    hit = np.nonzero(bits)
    assert mask.dims == bits.shape
    assert mask.voxels == np.count_nonzero(bits)
    assert np.array_equal(mask.bits, bits)
    if not len(hit[0]):
        assert mask.is_empty() and mask.crop is None and mask.offset == (0, 0, 0)
        return
    lo = tuple(int(h.min()) for h in hit)
    hi = tuple(int(h.max()) + 1 for h in hit)
    assert (mask.offset, mask.end) == (lo, hi)
    assert mask.crop.flags.c_contiguous and not mask.crop.flags.writeable
    assert np.array_equal(mask.crop, bits[tuple(slice(a, b) for a, b in zip(lo, hi))])


def _crop_cases(dims=(7, 8, 5)):
    """An empty mask, a single corner voxel, one small blob inside the grid,
    and that blob stretched to each of the six grid faces."""
    yield "empty", np.zeros(dims, dtype=bool)
    single = np.zeros(dims, dtype=bool)
    single[6, 0, 4] = True
    yield "single", single
    inner = np.zeros(dims, dtype=bool)
    inner[2:4, 3:5, 1:3] = True
    yield "inner", inner
    for axis in range(3):
        for side, name in ((0, "low"), (dims[axis] - 1, "high")):
            bits = inner.copy()
            index = [slice(2, 4), slice(3, 5), slice(1, 3)]
            index[axis] = side
            bits[tuple(index)] = True
            yield f"{name}{axis}", bits


CROP_CASES = dict(_crop_cases())


@pytest.mark.parametrize("name", list(CROP_CASES))
def test_mask_crop_is_the_tight_box(name):
    bits = CROP_CASES[name]
    spacing = (0.5, 1.0, 2.5)
    _check_crop(BinaryMask(bits, spacing), bits)
    for data in (bits.astype(np.uint8) * 2, np.asfortranarray(bits.astype(np.int16)) * 2):
        _check_crop(BinaryMask.from_labels(Volume(data, spacing, kind="labels"), 2), bits)


@pytest.mark.parametrize("slab_bytes", [1, 24, 100, 1 << 20])
def test_mask_spanning_slab_boundaries_is_one_crop(monkeypatch, rng, slab_bytes):
    monkeypatch.setattr(metrics, "SLAB_BYTES", slab_bytes)
    data = np.zeros((13, 6, 5), dtype=np.uint8)
    data[1:4, 1:3, 2] = 2  # first slabs
    data[9:12, 4:6, 0:4] = 2  # last slabs, with empty slabs between
    data[5, 0, 4] = 1
    noisy = data.copy()
    noisy[rng.random(data.shape) < 0.2] = 2
    for labels in (data, noisy):
        for label_id in (0, 1, 2):
            mask = BinaryMask.from_labels(Volume(labels, (1.0, 1.0, 1.0), kind="labels"), label_id)
            _check_crop(mask, labels == label_id)


def _file_views(data):
    """Views holding ``data``'s values in other memory orders, as a reoriented
    file view does: Fortran order, permuted axes, flipped axes, and both."""
    yield "fortran", np.asfortranarray(data)
    yield "permuted", np.ascontiguousarray(data.transpose(2, 0, 1)).transpose(1, 2, 0)
    yield "flipped", np.flip(np.flip(data, (0, 2)).copy(), (0, 2))
    both = np.ascontiguousarray(np.flip(data, 1).transpose(1, 2, 0))
    yield "permuted_flipped", np.flip(both.transpose(2, 0, 1), 1)


@pytest.mark.parametrize("slab_bytes", [16, 1 << 20])
def test_file_views_give_the_crop_of_their_c_order_copy(monkeypatch, rng, slab_bytes):
    monkeypatch.setattr(metrics, "SLAB_BYTES", slab_bytes)
    data = np.zeros((11, 9, 7), dtype=np.uint8)
    data[3:8, 2:6, 1:5] = 2
    data[rng.random(data.shape) < 0.03] = 2
    data[rng.random(data.shape) < 0.3] = 1
    want = BinaryMask.from_labels(Volume(data, (1.0, 2.0, 3.0), kind="labels"), 2)
    for name, view in _file_views(data):
        assert np.array_equal(view, data) and not view.flags.c_contiguous, name
        got = BinaryMask.from_labels(Volume(view, (1.0, 2.0, 3.0), kind="labels"), 2)
        assert (got.offset, got.end) == (want.offset, want.end), name
        assert got.crop.flags.c_contiguous and np.array_equal(got.crop, want.crop), name


@pytest.mark.parametrize("name", ["whole", "full_fast_axes"])
def test_mask_does_not_alias_the_callers_array(name):
    bits = np.zeros((4, 3, 2), dtype=bool)
    if name == "whole":
        bits[[0, -1], [0, -1], [0, -1]] = True  # the box is the array
    else:
        bits[1:3] = True  # a C-contiguous box
    mask = BinaryMask(bits, (1, 1, 1))
    want = bits.copy()
    bits[...] = ~bits
    assert np.array_equal(mask.bits, want) and mask.voxels == np.count_nonzero(want)


def test_mask_carries_the_label_map_grid():
    data = np.zeros((4, 5, 6), dtype=np.uint8)
    data[1, 2, 3] = 2
    labels = Volume(data, (0.5, 2.0, 3.0), origin=(10.0, -4.5, 7.25), kind="labels")
    for label_id in (1, 2):  # an empty mask too
        assert BinaryMask.from_labels(labels, label_id).grid == labels.grid


def test_masking_holds_the_crop_and_a_slab_not_the_grid():
    data = np.zeros((256, 256, 64), dtype=np.uint8)
    data[100:105, 30:35, 40:45] = 2  # a 5^3 tumor in a 4 MiB map
    labels = Volume(data, (0.78, 0.78, 2.5), kind="labels")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        mask = BinaryMask.from_labels(labels, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (mask.offset, mask.crop.shape, mask.voxels) == ((100, 30, 40), (5, 5, 5), 125)
    assert peak < mask.crop.nbytes + 2 * metrics.SLAB_BYTES < data.size  # a full-grid bool is data.size
    assert time.perf_counter() - start < 2.0


def test_masking_does_not_slab_along_a_length_one_axis():
    # a Fortran (2048, 2048, 1) map has its length-1 axis slowest: slabs along
    # it would be one slab, and one grid-sized bool buffer
    for shape in ((2048, 2048, 1), (2048, 1, 2048), (1, 2048, 2048)):
        for order in "CF":
            data = np.zeros(shape, dtype=np.uint8, order=order)
            data[0, 0, 0] = 2
            tracemalloc.start()
            try:
                mask = BinaryMask.from_labels(Volume(data, (1.0, 1.0, 1.0), kind="labels"), 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (mask.offset, mask.voxels) == ((0, 0, 0), 1)
            assert peak < 2 * metrics.SLAB_BYTES < data.size, (shape, order)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_mask_of_an_id_a_narrow_map_cannot_hold_is_empty(dtype):
    # in eight bits 256 wraps to 0, 258 to 2, and 2**31 - 1 to 255 (uint8)
    data = np.zeros((3, 2, 2), dtype=dtype)
    data[1] = 2
    data[2] = np.iinfo(dtype).max
    labels = Volume(data, (1, 1, 1), kind="labels")
    assert BinaryMask.from_labels(labels, 2).voxels == 4
    for label_id in (256, 258, 2**31 - 1):
        assert BinaryMask.from_labels(labels, label_id).is_empty()


def test_dice_hand_cases():
    a = np.zeros((4, 1, 1), dtype=bool)
    b = np.zeros((4, 1, 1), dtype=bool)
    a[:2] = True  # |A| = 2
    b[1:4] = True  # |B| = 3, overlap = 1
    value, flags = dice(BinaryMask(a, (1, 1, 1)), BinaryMask(b, (1, 1, 1)))
    assert value == pytest.approx(2 * 1 / 5)
    assert flags == ()

    # boxes apart on an axis: the overlap box has hi < lo there
    near = np.zeros((8, 1, 1), dtype=bool)
    far = np.zeros((8, 1, 1), dtype=bool)
    near[0:2] = True
    far[4:8] = True
    for pair in ((near, far), (far, near)):
        value, flags = dice(*(BinaryMask(m, (1, 1, 1)) for m in pair))
        assert value == 0.0 and flags == ()

    empty = BinaryMask(np.zeros((4, 1, 1), dtype=bool), (1, 1, 1))
    value, flags = dice(empty, empty)
    assert value == 1.0 and flags == ("both_empty",)
    value, flags = dice(empty, BinaryMask(b, (1, 1, 1)))
    assert value == 0.0 and flags == ("ref_empty",)
    value, flags = dice(BinaryMask(a, (1, 1, 1)), empty)
    assert value == 0.0 and flags == ("pred_empty",)

    with pytest.raises(GridMismatchError):
        dice(BinaryMask(a, (1, 1, 1)), BinaryMask(b[:3], (1, 1, 1)))
    with pytest.raises(GridMismatchError):
        dice(BinaryMask(a, (1, 1, 1)), BinaryMask(b, (1, 1, 2)))


def test_edt_matches_brute_force(rng):
    for _ in range(30):
        dims = tuple(int(d) for d in rng.integers(2, 17, size=3))
        spacing = random_spacing(rng)
        bits = random_mask(rng, dims)
        got = edt(BinaryMask(bits, spacing))
        want = brute_edt(bits, spacing)
        assert np.allclose(got, want, atol=1e-12, rtol=1e-12)


def test_edt_of_empty_mask_is_infinite():
    mask = BinaryMask(np.zeros((3, 3, 3), dtype=bool), (1, 1, 1))
    assert np.all(np.isinf(edt(mask)))


def test_neighbour_code_oracle_agrees_with_slow_loop(rng):
    for _ in range(3):
        crop = (rng.random((4, 5, 3)) < 0.5).astype(np.int64)
        assert np.array_equal(brute_codes(crop), brute_codes_slow(crop))


def test_neighbour_codes_match_oracle(rng):
    for _ in range(5):
        crop = (rng.random((5, 4, 6)) < 0.5).astype(np.uint8)
        assert np.array_equal(neighbour_codes(crop), brute_codes(crop))


def test_area_table_matches_oracle(rng):
    for spacing in [(1.0, 1.0, 1.0), random_spacing(rng), random_spacing(rng)]:
        got = surfel_area_table(spacing)
        want = brute_area_table(spacing)
        assert got.shape == (256,)
        assert got[0] == 0.0 and got[255] == 0.0
        assert np.allclose(got, want, atol=1e-12)


def test_single_voxel_surface_is_a_corner_octahedron():
    bits = np.zeros((3, 3, 3), dtype=bool)
    bits[1, 1, 1] = True
    mask = BinaryMask(bits, (1.0, 1.0, 1.0))
    sd = surface_distances(mask, mask)
    assert len(sd.dist_ref_to_pred) == 8  # one surfel per corner of the voxel
    assert sd.total_area_ref() == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert np.all(sd.dist_ref_to_pred == 0.0)
    assert masd(sd) == 0.0
    assert hd95(sd) == 0.0
    assert surface_dice(sd, 0.0) == 1.0


def test_two_voxels_ten_millimetres_apart():
    bits_a = np.zeros((3, 3, 21), dtype=bool)
    bits_b = np.zeros((3, 3, 21), dtype=bool)
    bits_a[1, 1, 5] = True
    bits_b[1, 1, 15] = True  # voxel centers 10 mm apart along z
    ref = BinaryMask(bits_a, (1.0, 1.0, 1.0))
    pred = BinaryMask(bits_b, (1.0, 1.0, 1.0))
    sd = surface_distances(ref, pred)
    # each voxel has 8 corner surfels of equal area; the 4 facing the other
    # voxel sit 9 mm from its nearest corners, the 4 far ones sit 10 mm
    assert sorted(sd.dist_ref_to_pred) == pytest.approx([9.0] * 4 + [10.0] * 4, abs=1e-9)
    assert sorted(sd.dist_pred_to_ref) == pytest.approx([9.0] * 4 + [10.0] * 4, abs=1e-9)
    assert masd(sd) == pytest.approx(9.5, abs=1e-9)
    assert hd95(sd) == pytest.approx(10.0, abs=1e-9)  # 95% of area needs the far corners
    assert surface_dice(sd, 5.0) == 0.0
    assert surface_dice(sd, 9.0) == pytest.approx(0.5, abs=1e-12)
    assert surface_dice(sd, 10.0) == pytest.approx(1.0)

    lists = brute_surface_distance_lists(bits_a, bits_b, (1.0, 1.0, 1.0))
    assert masd(sd) == pytest.approx(brute_masd(lists), abs=1e-12)
    assert hd95(sd) == pytest.approx(brute_hd95(lists), abs=1e-12)


def test_surface_metrics_match_brute_force(rng):
    for trial in range(40):
        dims = tuple(int(d) for d in rng.integers(3, 13, size=3))
        spacing = random_spacing(rng)
        style = "noise" if trial % 2 == 0 else "blob"
        ref_bits = random_mask(rng, dims, style)
        pred_bits = random_mask(rng, dims, style)
        ref = BinaryMask(ref_bits, spacing)
        pred = BinaryMask(pred_bits, spacing)

        sd = surface_distances(ref, pred)
        lists = brute_surface_distance_lists(ref_bits, pred_bits, spacing)
        d_ref, a_ref, d_pred, a_pred = lists
        # tied distances may order their areas differently, so compare the
        # order-free quantities the metrics actually consume
        assert np.allclose(sd.dist_ref_to_pred, d_ref, atol=1e-9)
        assert np.allclose(sd.dist_pred_to_ref, d_pred, atol=1e-9)
        assert sd.total_area_ref() == pytest.approx(a_ref.sum(), rel=1e-12)
        assert sd.total_area_pred() == pytest.approx(a_pred.sum(), rel=1e-12)

        for tol in (0.0, float(rng.uniform(0.0, 6.0)), 1e6):
            assert surface_dice(sd, tol) == pytest.approx(
                brute_surface_dice(lists, tol), abs=1e-12
            )
        assert masd(sd) == pytest.approx(brute_masd(lists), abs=1e-9)
        assert hd95(sd) == pytest.approx(brute_hd95(lists), abs=1e-9)


def test_percentile_respects_area_weights():
    sd = SurfaceDistances(
        areas_ref=np.array([96.0, 4.0]),
        areas_pred=np.array([96.0, 4.0]),
        dist_ref_to_pred=np.array([1.0, 9.0]),
        dist_pred_to_ref=np.array([1.0, 9.0]),
    )
    # 95% of the surface area is within 1 mm, so hd95 ignores the 9 mm tail
    assert hd95(sd) == 1.0

    boundary = SurfaceDistances(
        areas_ref=np.array([95.0, 5.0]),
        areas_pred=np.array([95.0, 5.0]),
        dist_ref_to_pred=np.array([1.0, 9.0]),
        dist_pred_to_ref=np.array([1.0, 9.0]),
    )
    # hitting the fraction exactly still selects the earlier distance
    assert hd95(boundary) == 1.0

    lopsided = SurfaceDistances(
        areas_ref=np.array([50.0, 50.0]),
        areas_pred=np.array([100.0]),
        dist_ref_to_pred=np.array([0.0, 2.0]),
        dist_pred_to_ref=np.array([7.0]),
    )
    assert hd95(lopsided) == 7.0


def test_one_sided_surface_behaviour():
    bits = np.zeros((3, 3, 3), dtype=bool)
    bits[1, 1, 1] = True
    full = BinaryMask(bits, (1, 1, 1))
    empty = BinaryMask(np.zeros((3, 3, 3), dtype=bool), (1, 1, 1))
    sd = surface_distances(full, empty)
    assert len(sd.dist_pred_to_ref) == 0
    assert np.all(np.isinf(sd.dist_ref_to_pred))
    assert surface_dice(sd, 5.0) == 0.0
    with pytest.raises(EmptySurfaceError):
        masd(sd)
    with pytest.raises(EmptySurfaceError):
        hd95(sd)
    with pytest.raises(EmptySurfaceError):
        surface_distances(empty, empty)


def test_tumor_volume_counts_voxels(rng):
    dims = (5, 6, 7)
    spacing = (0.8, 1.1, 3.0)
    bits = random_mask(rng, dims)
    assert tumor_volume(BinaryMask(bits, spacing)) == pytest.approx(
        brute_volume(bits, spacing), rel=1e-12
    )


def test_dice_matches_brute_force(rng):
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 10, size=3))
        a = random_mask(rng, dims)
        b = random_mask(rng, dims)
        got, _ = dice(BinaryMask(a, (1, 1, 1)), BinaryMask(b, (1, 1, 1)))
        assert got == pytest.approx(brute_dice(a, b), abs=1e-12)


def _tumor(labels, label_id=2):
    return BinaryMask.from_labels(labels, label_id)


def test_evaluate_case_happy_path(rng):
    dims = (8, 8, 8)
    spacing = (1.0, 1.5, 2.0)
    ref = label_volume(random_mask(rng, dims, "blob"), spacing)
    pred = label_volume(random_mask(rng, dims, "blob"), spacing)
    case = evaluate_case(_tumor(ref), _tumor(pred), EvalConfig(), case_id="case_07")
    assert case.case_id == "case_07"
    assert case.flags == ()
    assert 0.0 <= case.dice <= 1.0
    assert 0.0 <= case.surface_dice_5mm <= 1.0
    assert case.masd_mm >= 0.0 and case.hd95_mm >= 0.0
    assert isinstance(case.dice, float)
    assert case.volume_ref_mm3 == pytest.approx(
        brute_volume(ref.data == 2, spacing), rel=1e-12
    )


def test_evaluate_case_selects_the_tumor_label():
    data = np.zeros((4, 4, 4), dtype=np.int32)
    data[0, 0, 0] = 1  # pancreas voxel, must not count as tumor
    data[2, 2, 2] = 2
    ref = Volume(data, (1, 1, 1), kind="labels")
    case = evaluate_case(_tumor(ref), _tumor(ref), EvalConfig(label_id=2))
    assert case.volume_ref_mm3 == 1.0
    assert case.dice == 1.0
    pancreas = evaluate_case(_tumor(ref, 1), _tumor(ref, 1), EvalConfig(label_id=1))
    assert pancreas.volume_ref_mm3 == 1.0


def test_evaluate_case_both_empty():
    ref = label_volume(np.zeros((4, 4, 4), dtype=bool), (1, 2, 3))
    case = evaluate_case(_tumor(ref), _tumor(ref), EvalConfig())
    assert case.dice == 1.0
    assert case.surface_dice_5mm == 1.0
    assert case.masd_mm == 0.0
    assert case.hd95_mm == 0.0
    assert case.flags == ("both_empty",)


def test_evaluate_case_one_empty_penalize(rng):
    dims = (4, 5, 6)
    spacing = (1.0, 2.0, 0.5)
    ref = label_volume(random_mask(rng, dims), spacing)
    pred = label_volume(np.zeros(dims, dtype=bool), spacing)
    case = evaluate_case(_tumor(ref), _tumor(pred), EvalConfig(empty_policy="penalize"))
    diag = float(np.sqrt(sum((d * s) ** 2 for d, s in zip(dims, spacing))))
    assert case.dice == 0.0
    assert case.surface_dice_5mm == 0.0
    assert case.masd_mm == pytest.approx(diag, rel=1e-12)
    assert case.hd95_mm == pytest.approx(diag, rel=1e-12)
    assert set(case.flags) == {"pred_empty", "penalized"}


def test_evaluate_case_one_empty_exclude(rng):
    dims = (4, 5, 6)
    ref = label_volume(np.zeros(dims, dtype=bool), (1, 1, 1))
    pred = label_volume(random_mask(rng, dims), (1, 1, 1))
    case = evaluate_case(_tumor(ref), _tumor(pred), EvalConfig(empty_policy="exclude"))
    assert case.dice == 0.0
    assert case.surface_dice_5mm is None
    assert case.masd_mm is None
    assert case.hd95_mm is None
    assert case.flags == ("ref_empty",)


def test_evaluate_case_rejects_mismatched_grids(rng):
    ref = label_volume(random_mask(rng, (4, 4, 4)), (1, 1, 1))
    pred = label_volume(random_mask(rng, (4, 4, 5)), (1, 1, 1))
    with pytest.raises(GridMismatchError):
        evaluate_case(_tumor(ref), _tumor(pred))


def _case(case_id, dice_v, sdice, masd_v, hd, vr, vp, flags=()):
    return CaseMetrics(case_id, dice_v, sdice, masd_v, hd, vr, vp, flags)


def test_aggregate_cohort_means_and_rmse():
    cases = [
        _case("a", 0.8, 0.9, 1.0, 2.0, 1000.0, 1100.0),
        _case("b", 0.6, 0.7, 3.0, 6.0, 2000.0, 1700.0),
    ]
    report = aggregate_cohort(cases, EvalConfig())
    assert report.mean_dice == pytest.approx(0.7)
    assert report.mean_surface_dice_5mm == pytest.approx(0.8)
    assert report.mean_masd_mm == pytest.approx(2.0)
    assert report.mean_hd95_mm == pytest.approx(4.0)
    assert report.volume_rmse == pytest.approx(np.sqrt((100.0**2 + 300.0**2) / 2))
    assert report.n_cases == 2
    assert report.n_flagged == 0

    ml = aggregate_cohort(cases, EvalConfig(volume_unit="ml"))
    assert ml.volume_rmse == pytest.approx(report.volume_rmse * 1e-3, rel=1e-12)


def test_aggregate_cohort_exclude_drops_flagged_cases():
    cases = [
        _case("a", 0.8, 0.9, 1.0, 2.0, 1000.0, 1100.0),
        _case("b", 0.0, None, None, None, 2000.0, 0.0, flags=("pred_empty",)),
    ]
    report = aggregate_cohort(cases, EvalConfig(empty_policy="exclude"))
    assert report.mean_dice == pytest.approx(0.8)  # flagged case left out
    assert report.mean_masd_mm == pytest.approx(1.0)
    assert report.n_cases == 2
    assert report.n_flagged == 1
    assert report.flag_counts == (("pred_empty", 1),)
    # volume error still counts every case
    assert report.volume_rmse == pytest.approx(np.sqrt((100.0**2 + 2000.0**2) / 2))

    all_flagged = aggregate_cohort([cases[1]], EvalConfig(empty_policy="exclude"))
    assert all_flagged.mean_dice is None
    assert all_flagged.mean_hd95_mm is None

    with pytest.raises(ValidationError):
        aggregate_cohort([], EvalConfig())


def test_aggregate_cohort_penalize_keeps_all_cases():
    diag = 10.0
    cases = [
        _case("a", 0.5, 0.6, 2.0, 4.0, 500.0, 600.0),
        _case("b", 0.0, 0.0, diag, diag, 800.0, 0.0, flags=("pred_empty", "penalized")),
    ]
    report = aggregate_cohort(cases, EvalConfig(empty_policy="penalize"))
    assert report.mean_dice == pytest.approx(0.25)
    assert report.mean_surface_dice_5mm == pytest.approx(0.3)
    assert report.mean_masd_mm == pytest.approx(6.0)
    assert report.n_flagged == 1


# ------------------------------------------------------- reference surfaces

# tie-prone: isotropic, and sides in small integer ratios
SURFACE_SPACINGS = [
    (0.78125, 0.78125, 2.5),
    (1.0, 1.0, 1.0),
    (0.5, 0.5, 1.0),
    (1.0, 2.0, 2.0),
    (0.75, 1.5, 3.0),
]


def _prediction(rng, ref_bits, style):
    """A prediction near the reference: ``islands`` adds a few far voxels,
    ``face`` fills slabs on grid faces, ``empty`` has no voxel."""
    dims = ref_bits.shape
    if style == "empty":
        return np.zeros(dims, dtype=bool)
    bits = ref_bits ^ (rng.random(dims) < 0.03)
    shift = rng.integers(-2, 3, size=3)
    bits = np.roll(bits, tuple(int(s) for s in shift), axis=(0, 1, 2))
    if style == "islands":
        for _ in range(int(rng.integers(1, 4))):
            bits[tuple(int(rng.integers(0, d)) for d in dims)] = True
    elif style == "face":
        axis = int(rng.integers(0, 3))
        face = [slice(None)] * 3
        face[axis] = slice(0, 1) if rng.random() < 0.5 else slice(dims[axis] - 1, None)
        bits[tuple(face)] |= rng.random(bits[tuple(face)].shape) < 0.5
    return bits


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(3, 16), st.integers(3, 16), st.integers(2, 10)),
    spacing=st.sampled_from(SURFACE_SPACINGS),
    ref_empty=st.booleans(),
    styles=st.lists(st.sampled_from(["near", "islands", "face", "empty"]), min_size=1, max_size=6),
)
def test_a_reference_surface_scores_every_prediction_like_a_fresh_pair(
    seed, dims, spacing, ref_empty, styles
):
    rng = np.random.default_rng(seed)
    ref_bits = np.zeros(dims, dtype=bool) if ref_empty else random_mask(rng, dims, "blob")
    ref = BinaryMask(ref_bits, spacing)
    surface = ReferenceSurface(ref)
    queried = set()
    for style in styles:
        pred = BinaryMask(_prediction(rng, ref_bits, style), spacing)
        if ref.is_empty() and pred.is_empty():
            with pytest.raises(EmptySurfaceError):
                surface_distances(surface, pred)
            continue
        want = surface_distances(ref, pred)
        got = surface_distances(surface, pred)
        for name in SurfaceDistances.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        if not pred.is_empty():
            queried.update(np.ravel_multi_index(ReferenceSurface(pred).surfels, surface.border.dims))
    # the table holds each queried position once, in order
    assert surface.keys.tolist() == sorted(queried)
    assert surface.keys.dtype == np.int64 and surface.distances.dtype == np.float64


def _feature_domains(monkeypatch, run):
    """The input shapes ``run()`` gives scipy's feature transform."""
    shapes = []
    real = metrics.ndimage.distance_transform_edt

    def record(input, *args, **kwargs):
        shapes.append(input.shape)
        return real(input, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(metrics.ndimage, "distance_transform_edt", record)
        run()
    return shapes


def test_evaluate_case_runs_the_per_pair_feature_transform_domains(monkeypatch):
    dims, spacing = (60, 50, 20), (0.78125, 0.78125, 2.5)
    ref_bits = np.zeros(dims, dtype=bool)
    ref_bits[20:30, 20:28, 8:12] = True
    ref_bits[2, 3, 1] = True  # far island
    pred_bits = np.zeros(dims, dtype=bool)
    pred_bits[22:31, 19:27, 8:13] = True
    pred_bits[57, 46, 18] = pred_bits[40, 5, 3] = True  # far islands
    ref, pred = BinaryMask(ref_bits, spacing), BinaryMask(pred_bits, spacing)

    # the per-pair form: both masks' borders on their union box plus one voxel
    lo, hi = (2, 3, 1), (59, 48, 20)
    window = tuple(slice(a, b) for a, b in zip(lo, hi))
    borders = [border_map(neighbour_codes(bits[window].astype(np.uint8))) for bits in (ref_bits, pred_bits)]
    ref_border, pred_border = (BinaryMask(b, spacing) for b in borders)

    def per_pair():
        edt(ref_border, where=borders[1])
        edt(pred_border, where=borders[0])

    # each query set's bbox grown by 13 voxels in-plane and 4 in z, within the box
    pred_to_ref, ref_to_pred = [(50, 45, 19)], [(42, 39, 16)]
    assert _feature_domains(monkeypatch, per_pair) == pred_to_ref + ref_to_pred
    def case(ref):
        return evaluate_case(ref, pred)

    assert _feature_domains(monkeypatch, lambda: case(ref)) == pred_to_ref + ref_to_pred
    # a surface that has seen this prediction runs the ref -> pred call alone
    surface = ReferenceSurface(ref)
    assert _feature_domains(monkeypatch, lambda: case(surface)) == pred_to_ref + ref_to_pred
    assert _feature_domains(monkeypatch, lambda: case(surface)) == ref_to_pred
    assert case(surface) == case(ref)
