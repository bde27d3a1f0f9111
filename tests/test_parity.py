"""Bit-identity of the shared resampler, label argmax and grid check.

The ``ref_*`` functions are verbatim copies of the implementations that the
shared ``geometry.resample_separable`` and ``volume.label_argmax`` replaced:
per-path separable tap loops and one-hot score stacks decoded by
``np.argmax``.  They stay here as the reference the shared code must match
bit for bit, including on forced ties and unequal weights.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from pancseg.augment import (
    PRESET_ORDERS,
    AugmentPreset,
    _spatial_coords,
    simulate_low_res,
    spatial_transform,
)
from pancseg.cli import main
from pancseg.ensemble import average_probabilities, majority_vote
from pancseg.errors import GridMismatchError
from pancseg.geometry import (
    ResamplePlan,
    interp_taps,
    resample_image,
    resample_labels,
    sample_points,
)
from pancseg.metrics import BinaryMask, dice, evaluate_case, surface_distances
from pancseg.volume import Volume, unique_labels

from conftest import image_volume, probability_volume

# ------------------------------------------------------- reference copies


def _centers(n_tgt: int, s_sp: float, t_sp: float) -> np.ndarray:
    return (np.arange(n_tgt, dtype=np.float64) + 0.5) * (t_sp / s_sp) - 0.5


def ref_resample_grid_nearest(data: np.ndarray, plan: ResamplePlan) -> np.ndarray:
    idx = []
    for ax in range(3):
        c = _centers(plan.target_dims[ax], plan.source_spacing[ax], plan.target_spacing[ax])
        taps, _ = interp_taps(c, plan.source_dims[ax], 0)
        idx.append(taps[0])
    return data[np.ix_(idx[0], idx[1], idx[2])]


def ref_resample_grid_interp(data: np.ndarray, plan: ResamplePlan, order: int) -> np.ndarray:
    out = data.astype(np.float64, copy=False)
    for ax in range(3):
        c = _centers(plan.target_dims[ax], plan.source_spacing[ax], plan.target_spacing[ax])
        taps, weights = interp_taps(c, plan.source_dims[ax], order)
        acc = None
        wshape = [1, 1, 1]
        wshape[ax] = taps.shape[1]
        for k in range(taps.shape[0]):
            term = np.take(out, taps[k], axis=ax) * weights[k].reshape(wshape)
            acc = term if acc is None else acc + term
        out = acc
    return out


def ref_resample_image_data(volume: Volume, plan: ResamplePlan) -> np.ndarray:
    if plan.image_order == 0:
        out = ref_resample_grid_nearest(volume.data, plan)
    else:
        out = ref_resample_grid_interp(volume.data, plan, plan.image_order)
        if plan.image_order == 3 and plan.clamp_cubic:
            out = np.clip(out, float(volume.data.min()), float(volume.data.max()))
        if volume.data.dtype != np.float64:
            out = out.astype(np.float32)
    return out


def ref_resample_labels_order1(volume: Volume, plan: ResamplePlan) -> np.ndarray:
    values = unique_labels(volume.data)
    if len(values) == 1:
        out = np.full(plan.target_dims, values[0], dtype=volume.data.dtype)
    else:
        # one-hot channels interpolated trilinearly; argmax with np.argmax
        # returns the first (= lowest, values sorted) label on ties
        scores = np.stack(
            [
                ref_resample_grid_interp((volume.data == v).astype(np.float64), plan, 1)
                for v in values
            ]
        )
        out = values[np.argmax(scores, axis=0)].astype(volume.data.dtype)
    return out


def ref_spatial_labels(lab: Volume, coords: np.ndarray) -> np.ndarray:
    values = unique_labels(lab.data)
    if len(values) == 1:
        lab_out = np.full(lab.dims, values[0], dtype=lab.data.dtype)
    else:
        scores = np.stack(
            [sample_points((lab.data == v).astype(np.float64), coords, 1) for v in values]
        )
        lab_out = values[np.argmax(scores, axis=0)].astype(lab.data.dtype)
    return lab_out


def ref_resample_to_dims(data: np.ndarray, target_dims, order: int) -> np.ndarray:
    # shape-ratio alignment: output center j maps to (j + 0.5) * n/m - 0.5
    out = data
    for ax in range(3):
        n = out.shape[ax]
        m = int(target_dims[ax])
        c = (np.arange(m, dtype=np.float64) + 0.5) * (n / m) - 0.5
        taps, weights = interp_taps(c, n, order)
        if order == 0:
            out = np.take(out, taps[0], axis=ax)
            continue
        acc = None
        wshape = [1, 1, 1]
        wshape[ax] = m
        for k in range(taps.shape[0]):
            term = np.take(out, taps[k], axis=ax) * weights[k].reshape(wshape)
            acc = term if acc is None else acc + term
        out = acc
    return out


def ref_simulate_low_res_data(img: Volume, factor: float) -> np.ndarray:
    small_dims = [max(1, math.floor(d / factor + 0.5)) for d in img.dims]
    small = ref_resample_to_dims(img.data.astype(np.float64, copy=False), small_dims, 0)
    out = ref_resample_to_dims(small, img.dims, 3)
    if img.data.dtype != np.float64:
        out = out.astype(np.float32)
    return out


def ref_majority_vote_data(label_members, weights) -> np.ndarray:
    values = np.unique(np.concatenate([unique_labels(v.data) for v in label_members]))
    scores = np.zeros(label_members[0].dims + (len(values),), dtype=np.float64)
    for v, w in zip(label_members, weights):
        for j, value in enumerate(values):
            scores[..., j] += w * (v.data == value)
    # values ascending, so the first maximum is the lowest label id
    return values[np.argmax(scores, axis=-1)].astype(np.int32)


def _same(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ------------------------------------------------------- random inputs


def _labels(rng, dims, n_values, block=1):
    """Random labels from a sparse set; blocks of equal labels force ties."""
    values = np.sort(rng.choice(np.arange(6), size=n_values, replace=False)).astype(np.int32)
    coarse = [max(1, -(-d // block)) for d in dims]
    data = values[rng.integers(0, n_values, size=coarse)]
    for ax in range(3):
        data = np.repeat(data, block, axis=ax)
    return data[: dims[0], : dims[1], : dims[2]].copy()


SPACINGS = [(2.0, 2.0, 2.0), (0.78, 0.78, 2.5), (1.0, 1.5, 3.0)]
TARGETS = [(1.0, 1.0, 1.0), (1.3, 0.9, 1.7), (2.0, 2.0, 2.0)]


@pytest.mark.parametrize("source", SPACINGS)
@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("order", [0, 1, 3])
def test_resample_image_matches_reference(rng, source, target, order):
    for dtype in (np.float32, np.float64, np.int16):
        vol = image_volume(rng, (7, 6, 5), source, dtype=np.float64)
        vol = vol.with_data((vol.data * 100).astype(dtype))
        for clamp in (False, True):
            plan = ResamplePlan.for_volume(vol, target, image_order=order, clamp_cubic=clamp)
            _same(resample_image(vol, plan).data, ref_resample_image_data(vol, plan))


@pytest.mark.parametrize("source", SPACINGS)
@pytest.mark.parametrize("target", TARGETS)
def test_resample_labels_order1_matches_reference(rng, source, target):
    for n_values in (1, 2, 3, 5):
        for block in (1, 2):
            vol = Volume(_labels(rng, (8, 7, 6), n_values, block), source, kind="labels")
            plan = ResamplePlan.for_volume(vol, target, label_order=1)
            _same(resample_labels(vol, plan).data, ref_resample_labels_order1(vol, plan))
            nearest = ResamplePlan.for_volume(vol, target, label_order=0)
            _same(
                resample_labels(vol, nearest).data, ref_resample_grid_nearest(vol.data, nearest)
            )


def test_resample_labels_ties_go_to_the_lowest_label():
    # halving the resolution of a label stripe samples exactly half-way
    # between a 3 and a 0, so every output voxel is a tie
    data = np.zeros((6, 1, 1), dtype=np.int32)
    data[0::2] = 3
    vol = Volume(data, (1.0, 2.0, 2.0), kind="labels")
    plan = ResamplePlan.for_volume(vol, (2.0, 2.0, 2.0), label_order=1)
    ref = ref_resample_labels_order1(vol, plan)
    _same(resample_labels(vol, plan).data, ref)
    assert ref.shape == (3, 1, 1) and (ref == 0).all()


@pytest.mark.parametrize("preset_name", sorted(PRESET_ORDERS))
def test_spatial_transform_labels_match_reference(rng, preset_name):
    image_order, label_order = PRESET_ORDERS[preset_name]
    pre = AugmentPreset(name=preset_name, image_order=image_order, label_order=label_order)
    scales = [(2.0, 2.0, 2.0), (1.0, 1.0, 1.0), tuple(rng.uniform(0.7, 1.4, size=3))]
    rotations = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), tuple(rng.uniform(-0.5, 0.5, size=3))]
    for scale, rotation in zip(scales, rotations):
        for n_values in (1, 2, 4):
            dims = (9, 7, 5)
            img = image_volume(rng, dims, (1.0, 1.2, 2.0))
            lab = Volume(_labels(rng, dims, n_values, block=2), (1.0, 1.2, 2.0), kind="labels")
            _, lab_out = spatial_transform(img, lab, rotation, scale, pre)
            coords = _spatial_coords(dims, img.spacing, rotation, scale)
            if label_order == 0:
                expected = sample_points(lab.data, coords, 0)
            else:
                expected = ref_spatial_labels(lab, coords)
            _same(lab_out.data, expected)


@pytest.mark.parametrize("factor", [1.0, 1.3, 1.5, 2.0, 3.7])
def test_simulate_low_res_matches_reference(rng, factor):
    for dtype in (np.float32, np.float64, np.int16):
        vol = image_volume(rng, (9, 8, 5), (1.0, 1.0, 2.0), dtype=np.float64)
        vol = vol.with_data((vol.data * 100).astype(dtype))
        _same(simulate_low_res(vol, factor).data, ref_simulate_low_res_data(vol, factor))


def test_majority_vote_matches_reference(rng):
    dims = (11, 9, 7)
    for weights in ((1.0, 0.5, 2.0, 1.0, 1.5), (1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (0.3, 0.7, 0.1)):
        for n_values in (1, 2, 3, 6):
            members = [
                Volume(_labels(rng, dims, n_values), (1.0, 1.0, 2.0), kind="labels")
                for _ in weights
            ]
            _same(majority_vote(members, weights).data, ref_majority_vote_data(members, weights))


def test_majority_vote_ties_go_to_the_lowest_label():
    a = Volume(np.full((2, 2, 2), 4, dtype=np.int32), (1.0, 1.0, 1.0), kind="labels")
    b = Volume(np.full((2, 2, 2), 1, dtype=np.int32), (1.0, 1.0, 1.0), kind="labels")
    out = majority_vote([a, b], [2.0, 2.0]).data
    _same(out, ref_majority_vote_data([a, b], [2.0, 2.0]))
    assert (out == 1).all()


# ------------------------------------------------------- grid tolerance


def _nudged(spacing, rel):
    return (spacing[0] * (1.0 + rel),) + tuple(spacing[1:])


@pytest.mark.parametrize("rel, accepted", [(0.9e-5, True), (1.1e-5, False)])
def test_every_grid_check_shares_one_tolerance(rng, rel, accepted):
    dims = (6, 5, 4)
    spacing = (1.0, 1.5, 2.0)
    other = _nudged(spacing, rel)
    bits = np.zeros(dims, dtype=bool)
    bits[2:4, 1:3, 1:3] = True
    labels = np.where(bits, np.int32(2), np.int32(0))

    checks = {
        "Volume.same_grid": lambda: Volume(labels, spacing, kind="labels").same_grid(
            Volume(labels, other, kind="labels")
        ),
        "ResamplePlan.is_identity": lambda: ResamplePlan(dims, spacing, other).is_identity(),
    }
    for name, check in checks.items():
        assert check() is accepted, name

    calls = {
        "dice": lambda: dice(BinaryMask(bits, spacing), BinaryMask(bits, other)),
        "surface_distances": lambda: surface_distances(
            BinaryMask(bits, spacing), BinaryMask(bits, other)
        ),
        "evaluate_case": lambda: evaluate_case(
            Volume(labels, spacing, kind="labels"), Volume(labels, other, kind="labels")
        ),
        "resample_image": lambda: resample_image(
            image_volume(rng, dims, other), ResamplePlan(dims, spacing, (1.0, 1.0, 1.0))
        ),
        "resample_labels": lambda: resample_labels(
            Volume(labels, other, kind="labels"), ResamplePlan(dims, spacing, (1.0, 1.0, 1.0))
        ),
        "spatial_transform": lambda: spatial_transform(
            image_volume(rng, dims, spacing),
            Volume(labels, other, kind="labels"),
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0),
            AugmentPreset(name="da5"),
        ),
        "average_probabilities": lambda: average_probabilities(
            [probability_volume(rng, dims, spacing), probability_volume(rng, dims, other)]
        ),
        "majority_vote": lambda: majority_vote(
            [Volume(labels, spacing, kind="labels"), Volume(labels, other, kind="labels")]
        ),
    }
    for name, call in calls.items():
        if accepted:
            call()
        else:
            with pytest.raises(GridMismatchError):
                call()


# ------------------------------------------------------- removed options


def test_select_no_longer_takes_jobs(tmp_path, capsys):
    code = main(["select", "--pool", str(tmp_path / "pool.json"), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "usage" in err
    assert "--jobs" in err
