"""Bit-identity of the shared resampler, label argmax, grid check and the
consensus split of ensemble fusion.

The ``ref_*`` functions are verbatim copies of the implementations that the
shared ``geometry.resample_separable`` and ``volume.label_argmax`` replaced:
per-path separable tap loops and one-hot score stacks decoded by
``np.argmax``; of the point sampler ``ref_sample_points``, with its inline
nearest indices and three-array fancy-index gathers, that the single
linear-index gather replaced; and of the full-volume fusion
(``average_probabilities`` then ``argmax_labels``, and ``majority_vote``)
that the settled/active split replaced.  They stay here as the reference the
shared code must match bit for bit, including on forced ties and unequal
weights, and error for error.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pancseg.augment import (
    PRESET_ORDERS,
    AugmentPreset,
    _spatial_coords,
    simulate_low_res,
    spatial_transform,
)
from pancseg.cli import main
from pancseg import selection
from pancseg.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    average_probabilities,
    combine_volumes,
    consensus_codes,
    majority_vote,
)
from pancseg.errors import GridMismatchError, PancsegError, ValidationError
from pancseg.geometry import (
    ResamplePlan,
    interp_taps,
    resample_image,
    resample_labels,
    sample_points,
)
from pancseg.metrics import BinaryMask, EvalConfig, dice, evaluate_case, surface_distances
from pancseg.nifti import write_volume
from pancseg.selection import CandidatePool, SubsetEvaluator, beam_search_subsets, search_subsets
from pancseg.volume import Volume, check_same_grid, label_argmax, unique_labels

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


def ref_sample_points(data: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if order == 0:
        idx = [
            np.clip(np.floor(coords[ax] + 0.5).astype(np.int64), 0, data.shape[ax] - 1)
            for ax in range(3)
        ]
        return data[idx[0], idx[1], idx[2]]
    taps = []
    weights = []
    for ax in range(3):
        t, w = interp_taps(coords[ax], data.shape[ax], order)
        taps.append(t)
        weights.append(w)
    src = data.astype(np.float64, copy=False)
    out = np.zeros(coords.shape[1:], dtype=np.float64)
    n_taps = taps[0].shape[0]
    for a in range(n_taps):
        wa = weights[0][a]
        ia = taps[0][a]
        for b in range(n_taps):
            wab = wa * weights[1][b]
            ib = taps[1][b]
            for k in range(n_taps):
                out += (wab * weights[2][k]) * src[ia, ib, taps[2][k]]
    return out


def ref_spatial_image(img: Volume, coords: np.ndarray, order: int) -> np.ndarray:
    out = ref_sample_points(img.data, coords, order)
    if order > 0 and img.data.dtype != np.float64:
        out = out.astype(np.float32)
    return out


def ref_spatial_labels(lab: Volume, coords: np.ndarray) -> np.ndarray:
    values = unique_labels(lab.data)
    if len(values) == 1:
        lab_out = np.full(lab.dims, values[0], dtype=lab.data.dtype)
    else:
        scores = np.stack(
            [ref_sample_points((lab.data == v).astype(np.float64), coords, 1) for v in values]
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


def ref_check_grids(volumes):
    first = volumes[0]
    for v in volumes[1:]:
        check_same_grid((first.dims, first.spacing), (v.dims, v.spacing), "member")


def ref_average_probabilities(stacks, weights=None) -> Volume:
    stacks = list(stacks)
    if not stacks:
        raise ValidationError("no probability stacks to average")
    if any(v.kind != "probabilities" for v in stacks):
        raise ValidationError("average_probabilities expects probability stacks")
    if weights is None:
        weights = [1.0] * len(stacks)
    weights = [float(w) for w in weights]
    if len(weights) != len(stacks):
        raise ValidationError("weights length must match the member count")
    if any(w <= 0 for w in weights):
        raise ValidationError(f"weights must be positive, got {weights}")
    ref_check_grids(stacks)
    classes = {v.n_classes for v in stacks}
    if len(classes) != 1:
        raise GridMismatchError(f"class counts differ across members: {sorted(classes)}")

    acc = np.zeros(stacks[0].data.shape, dtype=np.float64)
    for v, w in zip(stacks, weights):
        acc += w * v.data.astype(np.float64, copy=False)
    acc /= sum(weights)
    acc /= acc.sum(axis=-1, keepdims=True)
    return Volume(
        data=acc,
        spacing=stacks[0].spacing,
        origin=stacks[0].origin,
        kind="probabilities",
    )


def ref_argmax_labels(p: Volume) -> Volume:
    if p.kind != "probabilities":
        raise ValidationError(f"argmax_labels expects a probability stack, got {p.kind}")
    labels = np.argmax(p.data, axis=-1).astype(np.int32)
    return Volume(data=labels, spacing=p.spacing, origin=p.origin, kind="labels")


def ref_majority_vote(label_members, weights=None) -> Volume:
    label_members = list(label_members)
    if not label_members:
        raise ValidationError("no label volumes to vote over")
    if any(v.kind != "labels" for v in label_members):
        raise ValidationError("majority_vote expects label volumes")
    if weights is None:
        weights = [1.0] * len(label_members)
    weights = [float(w) for w in weights]
    if len(weights) != len(label_members):
        raise ValidationError("weights length must match the member count")
    if any(w <= 0 for w in weights):
        raise ValidationError(f"weights must be positive, got {weights}")
    ref_check_grids(label_members)

    def votes(value):
        acc = weights[0] * (label_members[0].data == value)
        for v, w in zip(label_members[1:], weights[1:]):
            acc += w * (v.data == value)
        return acc

    values = np.unique(np.concatenate([unique_labels(v.data) for v in label_members]))
    out = label_argmax(values, votes, label_members[0].dims).astype(np.int32, copy=False)
    return Volume(
        data=out,
        spacing=label_members[0].spacing,
        origin=label_members[0].origin,
        kind="labels",
    )


def ref_combine_volumes(spec, volumes) -> Volume:
    ordered = spec.sorted_members()
    missing = [m.member_id for m in ordered if m.member_id not in volumes]
    if missing:
        raise ValidationError(f"no volume supplied for member(s) {missing}")
    vols = [volumes[m.member_id] for m in ordered]
    weights = [m.weight for m in ordered]
    if spec.mode == "prob_avg":
        return ref_argmax_labels(ref_average_probabilities(vols, weights))
    return ref_majority_vote(vols, weights)


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
                expected = ref_sample_points(lab.data, coords, 0)
            else:
                expected = ref_spatial_labels(lab, coords)
            _same(lab_out.data, expected)


def _point_maps(rng, dims, spacing):
    """Coordinate maps that sample_points sees: the identity, a quarter turn
    and a random rotation with scaling (as the spatial transform builds them),
    and raw coordinates reaching well past every edge."""
    raw = np.stack([rng.uniform(-3.0, d + 2.0, size=(6, 5, 4)) for d in dims])
    raw[:, 0, 0, :] = np.array([-0.5, 0.5, 1.5])[:, None]  # exact rounding midpoints
    return {
        "identity": _spatial_coords(dims, spacing, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        "quarter_turn": _spatial_coords(dims, spacing, (0.0, 0.0, math.pi / 2), (1.0, 1.0, 1.0)),
        "rotate_scale": _spatial_coords(
            dims, spacing, rng.uniform(-0.5, 0.5, size=3), rng.uniform(0.7, 1.4, size=3)
        ),
        "out_of_bounds": raw,
    }


@pytest.mark.parametrize("order", [0, 1, 3])
def test_sample_points_matches_reference(rng, order):
    dims, spacing = (9, 7, 5), (1.0, 1.2, 2.0)
    maps = _point_maps(rng, dims, spacing)
    for dtype in (np.uint8, np.int16, np.int32, np.float32, np.float64):
        data = rng.uniform(0, 100, size=dims).astype(dtype)
        # zero regions of both signs: sums over them read +0.0, never -0.0
        data[:3] = 0
        data[:, :2] = -0.0
        for coords in maps.values():
            _same(sample_points(data, coords, order), ref_sample_points(data, coords, order))
        img = Volume(data, spacing, kind="image")
        lab = Volume(np.zeros(dims, dtype=np.int32), spacing, kind="labels")
        pre = AugmentPreset(name="custom", image_order=order, label_order=0)
        turns = (((0.0, 0.0, math.pi / 2), (1.0, 1.0, 1.0)), ((0.2, -0.3, 0.4), (1.3, 0.8, 1.1)))
        for rotation, scale in turns:
            img_out, _ = spatial_transform(img, lab, rotation, scale, pre)
            coords = _spatial_coords(dims, spacing, rotation, scale)
            _same(img_out.data, ref_spatial_image(img, coords, order))


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


# ------------------------------------------------------- consensus split

NEAR_ONE = 1.0 - 2.0**-24
WEIGHT_SETS = [
    None,
    (0.1, 0.2, 0.3, 0.4),
    (0.3, 1.2, 2.0, 0.5),
    (1.0, 1.0, 1.0, 1.0),
    (2.0, 1.0, 1.0, 0.25),
]


def _vector(rng, kind, hot, n_classes):
    other = (hot + 1 + int(rng.integers(0, n_classes - 1))) % n_classes
    v = np.zeros(n_classes)
    if kind == "onehot":
        v[hot] = 1.0
    elif kind == "disagree":
        v[other] = 1.0
    elif kind == "near":
        v[hot], v[other] = NEAR_ONE, 2.0**-24
    elif kind == "signed_zero":
        v[:] = -0.0
        v[hot] = 1.0
    elif kind == "tie":
        v[hot], v[other] = 0.5, 0.5
    elif kind == "uniform":
        v[:] = 1.0 / n_classes
    elif kind == "edge":  # an entry at -1e-6; the average may leave [0, 1]
        v[hot], v[other] = 1.0 - 5e-6, -1e-6
    elif kind == "hot_edge":  # an exact 1.0 is not enough to be one-hot
        v[hot], v[other] = 1.0, -1e-6
    else:
        v = rng.dirichlet(np.ones(n_classes))
    return v


VECTOR_KINDS = (
    "onehot", "disagree", "near", "signed_zero", "tie", "uniform", "edge", "hot_edge", "random"
)


def _probability_members(rng, dims, n_members, n_classes, dtype, agree, kinds):
    base = rng.integers(0, n_classes, size=dims)
    members = []
    for _ in range(n_members):
        data = np.zeros(dims + (n_classes,))
        for idx in np.ndindex(*dims):
            kind = "onehot" if rng.random() < agree else kinds[int(rng.integers(len(kinds)))]
            data[idx] = _vector(rng, kind, int(base[idx]), n_classes)
        members.append(Volume(data.astype(dtype), (1.0, 1.2, 2.0), kind="probabilities"))
    return members


LAYOUTS = ("C", "F", "spatial-transposed")


def _relayout(volume, layout):
    """The same volume with its array in another memory layout."""
    data = volume.data
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "spatial-transposed":
        axes = (2, 1, 0) + tuple(range(3, data.ndim))
        data = np.ascontiguousarray(data.transpose(axes)).transpose(axes)
    return Volume(data, volume.spacing, volume.origin, kind=volume.kind)


def _outcome(fn):
    try:
        v = fn()
    except PancsegError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", v.data.dtype, v.data.shape, v.data.tobytes())


def _spec(n_members, weights, mode):
    weights = (weights or (1.0,) * n_members)[:n_members]
    members = tuple(EnsembleMember(f"m{i}", "p", weight=w) for i, w in enumerate(weights))
    return EnsembleSpec(members=members, mode=mode)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)),
    n_members=st.integers(1, 4),
    n_classes=st.integers(2, 4),
    dtype=st.sampled_from([np.float32, np.float64]),
    agree=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    kinds=st.sampled_from(
        [VECTOR_KINDS, ("onehot", "disagree"), ("near", "signed_zero", "tie"), ("edge", "hot_edge")]
    ),
    weights=st.sampled_from(WEIGHT_SETS),
    layout=st.sampled_from(LAYOUTS),
)
def test_prob_avg_split_matches_full_volume_fusion(
    seed, dims, n_members, n_classes, dtype, agree, kinds, weights, layout
):
    rng = np.random.default_rng(seed)
    members = _probability_members(rng, dims, n_members, n_classes, dtype, agree, kinds)
    members = [_relayout(v, layout) for v in members]
    spec = _spec(n_members, weights, "prob_avg")
    volumes = {f"m{i}": v for i, v in enumerate(members)}
    codes = {mid: consensus_codes(v) for mid, v in volumes.items()}
    want = _outcome(lambda: ref_combine_volumes(spec, volumes))
    assert _outcome(lambda: combine_volumes(spec, volumes)) == want
    assert _outcome(lambda: combine_volumes(spec, volumes, codes)) == want


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)),
    n_members=st.integers(1, 4),
    n_values=st.integers(1, 4),
    flip=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    dtype=st.sampled_from([np.int32, np.uint8, np.int64]),
    weights=st.sampled_from(WEIGHT_SETS),
    layout=st.sampled_from(LAYOUTS),
)
def test_majority_split_matches_full_volume_vote(
    seed, dims, n_members, n_values, flip, dtype, weights, layout
):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.choice(np.arange(7), size=n_values, replace=False))
    base = values[rng.integers(0, n_values, size=dims)]
    members = []
    for _ in range(n_members):
        data = np.where(rng.random(dims) < flip, values[rng.integers(0, n_values, size=dims)], base)
        members.append(_relayout(Volume(data.astype(dtype), (1.0, 1.0, 2.0), kind="labels"), layout))
    weights = None if weights is None else weights[:n_members]
    want = _outcome(lambda: ref_majority_vote(members, weights))
    assert _outcome(lambda: majority_vote(members, weights)) == want


@pytest.mark.parametrize("layout", LAYOUTS[1:])
@pytest.mark.parametrize("mode", ["majority", "prob_avg"])
def test_split_fuses_disagreeing_members_of_any_layout(layout, mode):
    labels = np.zeros((4, 3, 2), dtype=np.int32)
    labels[1:3, 1, :] = 1
    other = labels.copy()
    other[0, :, 0] = 2
    members = {
        f"m{i}": _relayout(_member(data, mode), layout)
        for i, data in enumerate((labels, other, other))
    }
    spec = _spec(3, None, mode)
    want = _outcome(lambda: ref_combine_volumes(spec, members))
    assert want[0] == "ok"
    assert np.frombuffer(want[3], dtype=np.int32).reshape(4, 3, 2)[0, 0, 0] == 2
    assert _outcome(lambda: combine_volumes(spec, members)) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_failing_average_raises_the_same_error_on_both_paths(dtype):
    onehot = np.zeros((3, 2, 2, 3))
    onehot[..., 1] = 1.0
    edge = onehot.copy()
    edge[2, 1, 0] = [1.0 - 5e-6, 0.0, -1e-6]
    edge[0, 0, 1] = [-1e-6, 1.0 - 5e-6, 0.0]
    members = {
        mid: Volume(edge.astype(dtype), (1.0, 1.0, 1.0), kind="probabilities")
        for mid in ("m0", "m1")
    }
    spec = _spec(2, (0.1, 0.2), "prob_avg")
    want = _outcome(lambda: ref_combine_volumes(spec, members))
    assert want[0] == "error" and "must lie in [0, 1]" in want[2]
    assert _outcome(lambda: combine_volumes(spec, members)) == want
    codes = {mid: consensus_codes(v) for mid, v in members.items()}
    assert _outcome(lambda: combine_volumes(spec, members, codes)) == want


# ------------------------------------------------------- selection errors


def _member(labels, mode, n_classes=3):
    if mode == "majority":
        return Volume(labels, (1.0, 1.0, 1.5), kind="labels")
    # soft but decisive: the labelled class gets 0.7, the rest share 0.3
    data = np.full(labels.shape + (n_classes,), 0.3 / (n_classes - 1), dtype=np.float32)
    np.put_along_axis(data, labels[..., None], np.float32(0.7), axis=-1)
    data[labels == 0] = np.eye(n_classes, dtype=np.float32)[0]
    return Volume(data, (1.0, 1.0, 1.5), kind="probabilities")


def _defective_pool(tmp_path, defects, mode):
    """Good members ``a`` and ``z`` plus one member per defect, named
    ``d0``, ``d1``... in the order given, so the order picks which defect a
    search meets first."""
    ref = np.zeros((8, 8, 6), dtype=np.int32)
    ref[2:6, 2:6, 1:5] = 2
    write_volume(Volume(ref, (1.0, 1.0, 1.5), kind="labels"), tmp_path / "ref.nii.gz")
    members = {"a": _member(ref, mode), "z": _member(np.roll(ref, 1, axis=0), mode)}
    for i, defect in enumerate(defects):
        if defect == "grid":
            members[f"d{i}"] = _member(ref[:, :, :5], mode)
        elif defect == "classes":
            members[f"d{i}"] = _member(np.roll(ref, 1, axis=1), mode, n_classes=4)
        else:
            members[f"d{i}"] = None
    entries = []
    for mid, member in members.items():
        path = tmp_path / f"{mid}.nii.gz"
        if member is None:
            path.write_bytes(b"not a nifti file")
        else:
            write_volume(member, path)
        entries.append(EnsembleMember(mid, str(path)))
    return CandidatePool(
        members=tuple(entries), cases=(("c1", str(tmp_path / "ref.nii.gz")),), mode=mode
    )


class _Recording(SubsetEvaluator):
    last = None

    def evaluate(self, member_ids):
        self.last = tuple(sorted(member_ids))
        return super().evaluate(member_ids)


def _search_outcome(pool, search):
    evaluator = _Recording(pool, EvalConfig())
    try:
        search(pool, evaluator)
    except PancsegError as exc:
        return type(exc).__name__, str(exc), evaluator.last
    return None


SEARCHES = {
    "exhaustive": lambda pool, ev: search_subsets(pool, 1, len(pool.members), evaluator=ev),
    "exhaustive_from_pairs": lambda pool, ev: search_subsets(
        pool, 2, len(pool.members), evaluator=ev
    ),
    "beam_1": lambda pool, ev: beam_search_subsets(pool, len(pool.members), 1, evaluator=ev),
}
DEFECT_SETS = [
    *(("prob_avg", d) for d in itertools.permutations(("grid", "classes", "unreadable"))),
    ("prob_avg", ("grid",)),
    ("prob_avg", ("classes",)),
    ("prob_avg", ("unreadable",)),
    ("prob_avg", ("classes", "grid")),
    ("majority", ("grid", "unreadable")),
    ("majority", ("unreadable", "grid")),
    ("majority", ("grid",)),
]


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize(
    "mode, defects", DEFECT_SETS, ids=[f"{m}-{'-'.join(d)}" for m, d in DEFECT_SETS]
)
def test_defective_pool_fails_at_the_same_subset_as_full_fusion(
    tmp_path, monkeypatch, search, mode, defects
):
    pool = _defective_pool(tmp_path, defects, mode)
    got = _search_outcome(pool, SEARCHES[search])

    def full_volume(spec, volumes, codes):
        return ref_combine_volumes(spec, volumes)

    monkeypatch.setattr(selection, "combine_volumes", full_volume)
    want = _search_outcome(pool, SEARCHES[search])
    assert want is not None
    assert got == want


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
