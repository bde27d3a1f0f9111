from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pancseg.errors import ConfigError, GridMismatchError, ValidationError
from pancseg import geometry
from pancseg.geometry import (
    MAX_PLAN_BYTES,
    MAX_TARGET_VOXELS,
    POINT_BLOCK,
    ResamplePlan,
    interp_taps,
    resample_image,
    resample_labels,
    resample_separable,
    sample_points,
    target_grid,
)
from pancseg.volume import Volume

from oracles import _catmull_rom_weights, brute_argmax_labels, brute_resample


def test_target_grid_rounds_half_up():
    assert target_grid((9, 7, 10), (1, 1, 1), (2, 2, 2)) == (5, 4, 5)
    assert target_grid((100, 100, 100), (2, 2, 2), (1, 1, 1)) == (200, 200, 200)
    assert target_grid((1, 1, 1), (1, 1, 1), (100, 100, 100)) == (1, 1, 1)
    assert target_grid((34, 21, 56), (0.82, 0.82, 2.5), (1.0, 1.0, 1.0)) == (28, 17, 140)
    for bad in ((0, 1, 1), (float("nan"), 1, 1), (1, float("inf"), 1)):
        with pytest.raises(ConfigError):
            target_grid((4, 4, 4), (1, 1, 1), bad)
    with pytest.raises(ConfigError):
        target_grid((0, 4, 4), (1, 1, 1), (1, 1, 1))


def test_target_grid_enforces_the_voxel_budget():
    clinical = ((512, 512, 100), (0.78, 0.78, 2.5))
    # a 512x512x1000 CT resampled to 0.5 mm fits
    assert target_grid((512, 512, 1000), (0.7, 0.7, 0.5), (0.5, 0.5, 0.5)) == (717, 717, 1000)
    # (7987, 7987, 5000) and an astronomically long first axis are refused before
    # anything is allocated, as is a spacing ratio that overflows to inf
    for dims, spacing, target in (
        (*clinical, (0.05, 0.05, 0.05)),
        (*clinical, (1e-300, 1.0, 1.0)),
        ((4, 4, 4), (1e300, 1.0, 1.0), (1e-300, 1.0, 1.0)),
    ):
        with pytest.raises(ConfigError, match="voxels"):
            target_grid(dims, spacing, target)
        with pytest.raises(ConfigError):
            ResamplePlan(dims, spacing, target)
    side = round(MAX_TARGET_VOXELS ** (1 / 3))
    assert side**3 == MAX_TARGET_VOXELS
    assert target_grid((side,) * 3, (1, 1, 1), (1, 1, 1)) == (side,) * 3
    with pytest.raises(ConfigError):
        target_grid((side, side, side + 1), (1, 1, 1), (1, 1, 1))


def test_plan_derives_dims_and_validates_orders():
    plan = ResamplePlan((10, 10, 10), (2, 2, 2), (1, 1, 1))
    assert plan.target_dims == (20, 20, 20)
    assert plan.image_order == 3 and plan.label_order == 1
    assert not plan.is_identity()
    same = ResamplePlan((10, 10, 10), (2, 2, 2), (2, 2, 2))
    assert same.is_identity()
    with pytest.raises(ConfigError):
        ResamplePlan((4, 4, 4), (1, 1, 1), (1, 1, 1), image_order=2)
    with pytest.raises(ConfigError):
        ResamplePlan((4, 4, 4), (1, 1, 1), (1, 1, 1), label_order=3)


def test_plan_must_match_volume(rng):
    vol = Volume(rng.normal(size=(4, 4, 4)).astype(np.float32), (1, 1, 1))
    wrong_dims = ResamplePlan((5, 4, 4), (1, 1, 1), (2, 2, 2))
    with pytest.raises(GridMismatchError):
        resample_image(vol, wrong_dims)
    wrong_spacing = ResamplePlan((4, 4, 4), (1.5, 1, 1), (2, 2, 2))
    with pytest.raises(GridMismatchError):
        resample_image(vol, wrong_spacing)
    labels = Volume(np.zeros((4, 4, 4), dtype=np.int32), (1, 1, 1), kind="labels")
    plan = ResamplePlan((4, 4, 4), (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValidationError):
        resample_image(labels, plan)
    with pytest.raises(ValidationError):
        resample_labels(vol, plan)


def test_interp_weights_partition_unity(rng):
    c = rng.uniform(-1.0, 9.0, size=50)
    for order in (0, 1, 3):
        taps, weights = interp_taps(c, 8, order)
        assert taps.min() >= 0 and taps.max() <= 7
        assert np.allclose(weights.sum(axis=0), 1.0, atol=1e-12)


def test_cubic_weights_match_matrix_form(rng):
    c = rng.uniform(1.0, 6.0, size=40)
    _, weights = interp_taps(c, 8, 3)
    t = c - np.floor(c)
    for i, ti in enumerate(t):
        expected = _catmull_rom_weights(float(ti))
        assert np.allclose(weights[:, i], expected, atol=1e-12)


def test_identity_plan_is_bit_exact_for_order0(rng):
    data = rng.normal(size=(6, 5, 4)).astype(np.float32)
    vol = Volume(data, (0.9, 1.1, 2.3))
    plan = ResamplePlan.for_volume(vol, vol.spacing, image_order=0)
    out = resample_image(vol, plan)
    assert out.data.dtype == data.dtype
    assert np.array_equal(out.data, data)

    labels = Volume(rng.integers(0, 3, size=(6, 5, 4)).astype(np.int16), (0.9, 1.1, 2.3), kind="labels")
    lplan = ResamplePlan.for_volume(labels, labels.spacing, label_order=0)
    lout = resample_labels(labels, lplan)
    assert lout.data.dtype == labels.data.dtype
    assert np.array_equal(lout.data, labels.data)


def test_downsample_by_two_averages_pairs(rng):
    # at exactly half resolution each output center lands midway between
    # two source centers, so trilinear output is their plain average
    data = rng.normal(size=(8, 1, 1)).astype(np.float64)
    vol = Volume(data, (1, 1, 1))
    plan = ResamplePlan.for_volume(vol, (2, 1, 1), image_order=1)
    out = resample_image(vol, plan)
    expected = 0.5 * (data[0::2] + data[1::2])
    assert np.allclose(out.data, expected, atol=1e-12)


def test_upsample_by_two_quarter_weights(rng):
    data = rng.normal(size=(5, 1, 1)).astype(np.float64)
    vol = Volume(data, (2, 1, 1))
    plan = ResamplePlan.for_volume(vol, (1, 1, 1), image_order=1)
    out = resample_image(vol, plan)
    assert out.dims == (10, 1, 1)
    assert out.data[0, 0, 0] == pytest.approx(data[0, 0, 0], abs=1e-12)  # clamped edge
    for k in range(4):
        inner = 0.75 * data[k + 1, 0, 0] + 0.25 * data[k, 0, 0]
        assert out.data[2 * k + 2, 0, 0] == pytest.approx(inner, abs=1e-12)
        outer = 0.75 * data[k, 0, 0] + 0.25 * data[k + 1, 0, 0]
        assert out.data[2 * k + 1, 0, 0] == pytest.approx(outer, abs=1e-12)


def test_linear_resample_is_linear_operator(rng):
    a = Volume(rng.normal(size=(6, 5, 7)), (1.3, 0.8, 2.1))
    b = Volume(rng.normal(size=(6, 5, 7)), (1.3, 0.8, 2.1))
    plan = ResamplePlan.for_volume(a, (1.0, 1.0, 1.0))
    for order in (1, 3):
        p = ResamplePlan.for_volume(a, (1.0, 1.0, 1.0), image_order=order)
        mixed = Volume(2.5 * a.data - 0.75 * b.data, a.spacing)
        lhs = resample_image(mixed, p).data
        rhs = 2.5 * resample_image(a, p).data - 0.75 * resample_image(b, p).data
        assert np.allclose(lhs, rhs, atol=1e-9)
    assert plan.target_dims == (8, 4, 15)


def test_trilinear_output_stays_within_input_range(rng):
    for _ in range(10):
        dims = tuple(int(d) for d in rng.integers(3, 9, size=3))
        data = rng.normal(size=dims)
        vol = Volume(data, tuple(rng.uniform(0.5, 3.0, size=3)))
        plan = ResamplePlan.for_volume(vol, tuple(rng.uniform(0.5, 3.0, size=3)), image_order=1)
        out = resample_image(vol, plan).data
        assert out.min() >= data.min() - 1e-12
        assert out.max() <= data.max() + 1e-12


def test_cubic_overshoot_and_clamp_flag():
    # a hard step makes Catmull-Rom overshoot beyond the data range
    data = np.zeros((12, 3, 3))
    data[6:] = 1.0
    vol = Volume(data, (2, 2, 2))
    free = ResamplePlan.for_volume(vol, (0.9, 2, 2), image_order=3, clamp_cubic=False)
    out_free = resample_image(vol, free).data
    assert out_free.max() > 1.0 + 1e-6 or out_free.min() < -1e-6

    clamped = ResamplePlan.for_volume(vol, (0.9, 2, 2), image_order=3, clamp_cubic=True)
    out_clamped = resample_image(vol, clamped).data
    assert out_clamped.max() <= 1.0 + 1e-12
    assert out_clamped.min() >= -1e-12


def test_affine_ramp_reproduced_exactly():
    dims = (9, 8, 7)
    grid = np.indices(dims).astype(np.float64)
    ramp = 0.7 * grid[0] - 1.3 * grid[1] + 0.25 * grid[2] + 4.0
    vol = Volume(ramp, (2.0, 2.0, 2.0))
    for order in (1, 3):
        plan = ResamplePlan.for_volume(vol, (1.0, 1.0, 1.0), image_order=order)
        out = resample_image(vol, plan)
        tgrid = np.indices(plan.target_dims).astype(np.float64)
        centers = [(tgrid[ax] + 0.5) * 0.5 - 0.5 for ax in range(3)]
        expected = 0.7 * centers[0] - 1.3 * centers[1] + 0.25 * centers[2] + 4.0
        interior = np.ones(plan.target_dims, dtype=bool)
        margin = 1 if order == 1 else 2
        for ax in range(3):
            interior &= (centers[ax] >= margin - 1) & (centers[ax] <= dims[ax] - margin)
        assert interior.any()
        assert np.allclose(out.data[interior], expected[interior], atol=1e-9)


def test_resample_matches_pointwise_reference(rng):
    for order in (0, 1, 3):
        for _ in range(4):
            dims = tuple(int(d) for d in rng.integers(4, 8, size=3))
            src_sp = tuple(rng.uniform(0.6, 2.4, size=3))
            tgt_sp = tuple(rng.uniform(0.6, 2.4, size=3))
            data = rng.normal(size=dims)
            vol = Volume(data, src_sp)
            plan = ResamplePlan.for_volume(vol, tgt_sp, image_order=order)
            got = resample_image(vol, plan).data
            want = brute_resample(data, src_sp, tgt_sp, plan.target_dims, order)
            if order == 0:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, atol=1e-9)


def test_grid_resample_agrees_with_point_sampling(rng):
    dims = (6, 5, 7)
    data = rng.normal(size=dims)
    vol = Volume(data, (1.7, 0.9, 1.2))
    for order in (0, 1, 3):
        plan = ResamplePlan.for_volume(vol, (1.0, 1.3, 0.8), image_order=order)
        grid = np.indices(plan.target_dims).astype(np.float64)
        coords = np.stack(
            [
                (grid[ax] + 0.5) * (plan.target_spacing[ax] / plan.source_spacing[ax]) - 0.5
                for ax in range(3)
            ]
        )
        pointwise = sample_points(data, coords, order)
        gridwise = resample_image(vol, plan).data
        assert np.allclose(gridwise, pointwise, atol=1e-12)


def test_label_resampling_matches_onehot_reference(rng):
    spacings = [(0.73, 1.91, 1.13), (1.37, 0.61, 2.07)]
    for src_sp, tgt_sp in zip(spacings, reversed(spacings)):
        labels = rng.integers(0, 3, size=(6, 7, 5)).astype(np.int32)
        vol = Volume(labels, src_sp, kind="labels")
        plan = ResamplePlan.for_volume(vol, tgt_sp, label_order=1)
        got = resample_labels(vol, plan).data

        values = np.unique(labels)
        channels = [
            brute_resample((labels == v).astype(np.float64), src_sp, tgt_sp, plan.target_dims, 1)
            for v in values
        ]
        stack = np.stack(channels, axis=-1)
        want = values[brute_argmax_labels(stack)]
        assert np.array_equal(got, want)


def test_label_resampling_never_invents_labels(rng):
    for order in (0, 1):
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(3, 9, size=3))
            labels = rng.choice([0, 2, 5], size=dims).astype(np.int32)
            vol = Volume(labels, tuple(rng.uniform(0.5, 3.0, size=3)), kind="labels")
            plan = ResamplePlan.for_volume(
                vol, tuple(rng.uniform(0.5, 3.0, size=3)), label_order=order
            )
            out = resample_labels(vol, plan)
            assert set(np.unique(out.data)) <= set(np.unique(labels))
            assert out.data.dtype == labels.dtype


def test_constant_label_map_short_circuits(rng):
    vol = Volume(np.full((5, 5, 5), 2, dtype=np.int8), (1, 1, 1), kind="labels")
    plan = ResamplePlan.for_volume(vol, (0.5, 0.5, 0.5), label_order=1)
    out = resample_labels(vol, plan)
    assert out.dims == (10, 10, 10)
    assert out.data.dtype == np.int8
    assert np.all(out.data == 2)


def test_resampled_origin_keeps_corner_fixed(rng):
    vol = Volume(rng.normal(size=(4, 4, 4)).astype(np.float32), (2.0, 1.0, 3.0), origin=(10.0, -5.0, 0.5))
    plan = ResamplePlan.for_volume(vol, (1.0, 2.0, 1.5), image_order=1)
    out = resample_image(vol, plan)
    assert out.origin == pytest.approx((10.0 - 1.0 + 0.5, -5.0 - 0.5 + 1.0, 0.5 - 1.5 + 0.75))


def test_sample_points_memory_is_the_output_plus_a_few_blocks():
    # 2 M points at order 3: a full-size float64 temporary is 16 MiB, 128
    # blocks; the taps, weights and products of one block stay below 96
    rng = np.random.default_rng(5)
    data = rng.normal(size=(20, 20, 20))
    coords = np.stack([rng.uniform(-1.0, 20.0, size=1 << 21) for _ in range(3)])
    tracemalloc.start()
    try:
        out = sample_points(data, coords, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 96 * POINT_BLOCK * 8


def test_order3_upsampling_peaks_below_22_bytes_per_target_voxel():
    # 2x per axis, 64 k source voxels to 320 k target voxels: the last axis
    # pass holds the float64 accumulator and one term (8 B per target voxel
    # each) and its input, 0.4 target voxels of float64 (3.2 B); building
    # every term and every partial sum anew peaks at 35.5 B
    rng = np.random.default_rng(7)
    data = rng.normal(size=(40, 40, 20)).astype(np.float32)
    plan = ResamplePlan((40, 40, 20), (1.0, 1.0, 2.5), (0.5, 0.5, 1.0), image_order=3)
    ratios = tuple(t / s for s, t in zip(plan.source_spacing, plan.target_spacing))
    tracemalloc.start()
    try:
        out = resample_separable(data, plan.target_dims, ratios, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == plan.target_dims == (80, 80, 50)
    assert peak / out.size < 22.0


# a 20x20x20 map resampled to spacing (1e-5, 1, 1): 8e8 target voxels, whose
# order-3 resample was killed by the kernel on an 8 GB host; only its plan
# is ever built here
_KILLED = ((20, 20, 20), (1e-5, 1.0, 1.0))


@pytest.mark.parametrize(
    "kind, dtype, order",
    [("image", np.uint8, 3), ("image", np.float32, 1), ("image", np.float64, 0),
     ("labels", np.uint8, 1), ("labels", np.int64, 1), ("labels", np.int64, 0)],
)
def test_plans_beyond_the_byte_budget_are_config_errors(monkeypatch, kind, dtype, order):
    dims, spacing = _KILLED
    volume = Volume(np.zeros(dims, dtype=dtype), (1.0, 1.0, 1.0), kind=kind)
    orders = {"image_order": order} if kind == "image" else {"label_order": order}
    plan = ResamplePlan(dims, (1.0, 1.0, 1.0), spacing, **orders)
    need = plan.peak_bytes(kind, dtype)
    assert plan.target_dims == (2_000_000, 20, 20) and need > MAX_PLAN_BYTES
    with pytest.raises(ConfigError, match="budget"):
        ResamplePlan.for_volume(volume, spacing, **orders)
    # the budget is the bound itself: a plan that needs exactly it passes
    monkeypatch.setattr(geometry, "MAX_PLAN_BYTES", need)
    assert ResamplePlan.for_volume(volume, spacing, **orders) == plan
    monkeypatch.setattr(geometry, "MAX_PLAN_BYTES", need - 1)
    with pytest.raises(ConfigError, match="budget"):
        ResamplePlan.for_volume(volume, spacing, **orders)


def test_the_byte_budget_follows_order_and_dtype():
    # the same 8e8 voxels gathered at order 0 in uint8 hold two bytes each
    dims, spacing = _KILLED
    volume = Volume(np.zeros(dims, dtype=np.uint8), (1.0, 1.0, 1.0), kind="labels")
    plan = ResamplePlan.for_volume(volume, spacing, label_order=0)
    assert plan.peak_bytes("labels", np.uint8) == 2 * 8 * 10**8 + geometry.PLAN_OVERHEAD_BYTES
    assert plan.peak_bytes("labels", np.int64) > MAX_PLAN_BYTES


def test_clinical_resamples_stay_far_inside_the_byte_budget():
    # a 512x512x100 CT at 0.78x0.78x2.5 mm to 1 mm, and the benchmark's
    # 1 mm resamples of about 2.7 Mvox
    ct = ResamplePlan((512, 512, 100), (0.78, 0.78, 2.5), (1.0, 1.0, 1.0))
    assert ct.peak_bytes("image", np.int16) < MAX_PLAN_BYTES / 6
    assert ct.peak_bytes("labels", np.uint8) < MAX_PLAN_BYTES / 4
    small = ResamplePlan((160, 160, 60), (0.8, 0.8, 2.0), (1.0, 1.0, 1.0))
    assert small.peak_bytes("image", np.float32) < MAX_PLAN_BYTES / 50


@pytest.mark.parametrize(
    "dims, spacing",
    [
        ((30, 24, 16), (0.5, 0.5, 0.5)),
        ((30, 24, 16), (0.9, 1.1, 1.3)),
        ((30, 24, 16), (1.5, 1.0, 0.6)),
        ((20, 20, 20), (1.0, 3.0, 0.5)),
    ],
)
def test_peak_bytes_bound_what_resampling_holds(rng, dims, spacing):
    for kind, dtype, order in [
        ("image", np.float32, 3), ("image", np.float64, 1), ("image", np.int16, 0),
        ("labels", np.uint8, 1), ("labels", np.int64, 1), ("labels", np.int32, 0),
    ]:
        if kind == "image":
            data = (rng.normal(size=dims) * 50).astype(dtype)
        else:
            data = rng.integers(0, 3, size=dims).astype(dtype)
        volume = Volume(data, (1.0, 1.0, 1.0), kind=kind)
        orders = {"image_order": order} if kind == "image" else {"label_order": order}
        plan = ResamplePlan.for_volume(volume, spacing, **orders)
        tracemalloc.start()
        try:
            (resample_image if kind == "image" else resample_labels)(volume, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= plan.peak_bytes(kind, dtype), (kind, dtype, order)
