"""Bit-identity of the shared resampler, label argmax, grid check and the
consensus split of ensemble fusion.

The ``ref_*`` functions are verbatim copies of the implementations that the
shared ``geometry.resample_separable`` and ``volume.label_argmax`` replaced:
per-path separable tap loops and one-hot score stacks decoded by
``np.argmax``; of the point sampler ``ref_sample_points``, with its inline
nearest indices and three-array fancy-index gathers, that the single
linear-index gather replaced; of the full-volume fusion
(``average_probabilities`` then ``argmax_labels``, and ``majority_vote``)
that the settled/active split replaced; of the per-code loop
``ref_surfel_area_table``, which reads the verbatim normals table in
``oracles.py``, that the ten-row-area form of ``surfel_area_table`` replaced;
of the full-map distance
transform ``ref_edt`` that ``metrics.edt``'s query-voxel distances replaced; and
of the ``correlate`` form ``ref_neighbour_codes`` that the shifted-slice sum of
``neighbour_codes`` replaced; of the plain one-pass copy ``ref_layout_copy``
that the slab-staged ``nifti._layout_copy`` replaced; and of the
``sum(axis=-1)`` form ``ref_check_probabilities`` that the column adds of
``volume.class_sums`` replaced; and of the label-volume ``ref_evaluate_case``
that the mask-taking ``metrics.evaluate_case`` replaced.  They stay here as the reference the
shared code must match bit for bit, including on forced ties and unequal
weights, and error for error.

``ref_edt`` on the full grid is also the reference of ``metrics.edt``'s
bounded domain: with query voxels, the feature transform runs on their bbox
grown by a margin, a query keeps its distance only when it is below (by a
relative guard) its distance to every inner face of that domain, and the rest
retry on a wider domain.  The bounded-domain tests force 3-4-5 ties, set
features just outside the first domain, put queries on the grid edge and
queries whose nearest feature lies beyond the first margin, and record the
domains the feature transform is given.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

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
from pancseg import metrics
from pancseg.metrics import (
    EDT_MARGIN_SIDES,
    EMPTY_POLICIES,
    BinaryMask,
    CaseMetrics,
    EvalConfig,
    SurfaceDistances,
    dice,
    edt,
    evaluate_case,
    hd95,
    masd,
    surface_dice,
    surface_distances,
    tumor_volume,
)
from pancseg import nifti
from pancseg.nifti import _DTYPE_BY_CODE, read_volume, write_volume
from pancseg.selection import CandidatePool, SubsetEvaluator, beam_search_subsets, search_subsets
from pancseg.surfels import CODE_KERNEL, neighbour_codes, surfel_area_table
from pancseg.volume import (
    PROB_SUM_TOL,
    Volume,
    check_probabilities,
    check_same_grid,
    class_sums,
    label_argmax,
    same_grid,
    unique_labels,
)

from conftest import image_volume, orientation_srows, probability_volume, raw_nifti
from oracles import NEIGHBOUR_CODE_TO_NORMALS

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
    return values[np.argmax(scores, axis=-1)].astype(ref_vote_dtype(label_members))


def ref_vote_dtype(label_members) -> np.dtype:
    """A vote's label dtype: the members' common dtype, which holds every
    label any of them holds."""
    return np.result_type(*(v.data.dtype for v in label_members))


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
    # class indices fit uint8 up to 256 classes
    dtype = np.uint8 if p.data.shape[-1] <= 256 else np.int32
    labels = np.argmax(p.data, axis=-1).astype(dtype)
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
    out = label_argmax(values, votes, label_members[0].dims)
    out = out.astype(ref_vote_dtype(label_members), copy=False)
    return Volume(
        data=out,
        spacing=label_members[0].spacing,
        origin=label_members[0].origin,
        kind="labels",
    )


def ref_combine_volumes(spec, volumes) -> Volume:
    ordered = sorted(spec.members, key=lambda m: m.member_id)
    missing = [m.member_id for m in ordered if m.member_id not in volumes]
    if missing:
        raise ValidationError(f"no volume supplied for member(s) {missing}")
    vols = [volumes[m.member_id] for m in ordered]
    weights = [m.weight for m in ordered]
    if spec.mode == "prob_avg":
        return ref_argmax_labels(ref_average_probabilities(vols, weights))
    return ref_majority_vote(vols, weights)


def ref_surfel_area_table(spacing) -> np.ndarray:
    s0, s1, s2 = (float(s) for s in spacing)
    table = np.zeros(256, dtype=np.float64)
    for code in range(256):
        normals = np.asarray(NEIGHBOUR_CODE_TO_NORMALS[code], dtype=np.float64)
        scaled = normals * np.array([s1 * s2, s0 * s2, s0 * s1])
        table[code] = np.sqrt((scaled * scaled).sum(axis=1)).sum()
    table[0] = 0.0
    table[255] = 0.0
    return table


def ref_edt(mask: BinaryMask) -> np.ndarray:
    if mask.is_empty():
        return np.full(mask.dims, np.inf)
    return ndimage.distance_transform_edt(~mask.bits, sampling=mask.spacing)


def ref_evaluate_case(ref, pred, config=EvalConfig(), case_id="case") -> CaseMetrics:
    if ref.kind != "labels" or pred.kind != "labels":
        raise ValidationError("evaluate_case expects two label volumes")
    check_same_grid((ref.dims, ref.spacing), (pred.dims, pred.spacing), "label volume")
    ref_mask = BinaryMask.from_labels(ref, config.label_id)
    pred_mask = BinaryMask.from_labels(pred, config.label_id)

    vol_ref = tumor_volume(ref_mask)
    vol_pred = tumor_volume(pred_mask)
    dice_value, flags = dice(ref_mask, pred_mask)

    if "both_empty" in flags:
        sdice, masd_mm, hd95_mm = 1.0, 0.0, 0.0
    elif flags:  # exactly one side empty
        if config.empty_policy == "penalize":
            ext = [d * s for d, s in zip(ref.dims, ref.spacing)]  # Volume.physical_diagonal_mm
            diag = float(np.sqrt(sum(e * e for e in ext)))
            sdice, masd_mm, hd95_mm = 0.0, diag, diag
            flags = flags + ("penalized",)
        else:
            sdice = masd_mm = hd95_mm = None
    else:
        sd = surface_distances(ref_mask, pred_mask)
        sdice = surface_dice(sd, config.tolerance_mm)
        masd_mm = masd(sd)
        hd95_mm = hd95(sd)

    return CaseMetrics(
        case_id=case_id,
        dice=dice_value,
        surface_dice_5mm=sdice,
        masd_mm=masd_mm,
        hd95_mm=hd95_mm,
        volume_ref_mm3=vol_ref,
        volume_pred_mm3=vol_pred,
        flags=flags,
    )


def ref_neighbour_codes(bits: np.ndarray) -> np.ndarray:
    return ndimage.correlate(bits.astype(np.uint8), CODE_KERNEL, mode="constant", cval=0)


def ref_layout_copy(view: np.ndarray, dtype) -> np.ndarray:
    return np.array(view, dtype=dtype, order="C")


def ref_check_probabilities(data: np.ndarray) -> None:
    if not np.issubdtype(data.dtype, np.floating):
        raise ValidationError("probability stack must have float dtype")
    if not np.isfinite(data).all():
        raise ValidationError("probability stack contains non-finite voxels")
    if data.min() < -1e-6 or data.max() > 1 + 1e-6:
        raise ValidationError("probability values must lie in [0, 1]")
    sums = data.sum(axis=-1)
    err = np.abs(sums - 1.0).max()
    if err > PROB_SUM_TOL:
        raise ValidationError(
            f"per-voxel class probabilities must sum to 1 within {PROB_SUM_TOL}, "
            f"worst deviation {err:.3g}"
        )


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


def _relaid(data, layout):
    """The same array in another memory layout."""
    if layout == "F":
        return np.asfortranarray(data)
    if layout == "spatial-transposed":
        axes = (2, 1, 0) + tuple(range(3, data.ndim))
        return np.ascontiguousarray(data.transpose(axes)).transpose(axes)
    return data


def _relayout(volume, layout):
    """The same volume with its array in another memory layout."""
    data = _relaid(volume.data, layout)
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
    want = _outcome(lambda: ref_combine_volumes(spec, volumes))
    assert _outcome(lambda: combine_volumes(spec, volumes)) == want


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
    assert np.frombuffer(want[3], dtype=want[1]).reshape(4, 3, 2)[0, 0, 0] == 2
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

    def full_volume(spec, volumes):
        return ref_combine_volumes(spec, volumes)

    monkeypatch.setattr(selection, "combine_volumes", full_volume)
    want = _search_outcome(pool, SEARCHES[search])
    assert want is not None
    assert got == want


# ------------------------------------------------------- surfel areas


def test_surfel_area_table_matches_reference():
    rng = np.random.default_rng(5)
    spacings = [(1.0, 1.0, 1.0), (0.78125, 0.78125, 2.5), (1e-3, 7.0, 0.3)]
    spacings += [tuple(rng.uniform(0.05, 8.0, 3)) for _ in range(200)]
    spacings += [tuple(np.float32(rng.uniform(0.05, 8.0, 3))) for _ in range(200)]
    # extremes: every mix of tiny, unit and huge axes, then log-uniform draws
    spacings += list(itertools.product((1e-4, 1e-2, 1.0, 1e3), repeat=3))
    spacings += [tuple(10.0 ** rng.uniform(-4.0, 3.0, 3)) for _ in range(400)]
    spacings += [tuple(np.float32(10.0 ** rng.uniform(-4.0, 3.0, 3))) for _ in range(400)]
    for spacing in spacings:
        _same(surfel_area_table(spacing), ref_surfel_area_table(spacing))


# ------------------------------------------------------- surface distances

_SIDE = st.floats(0.1, 6.0)
# isotropic spacings force equidistant ties; float32 spacings are what NIfTI headers give
MASK_SPACINGS = st.one_of(
    st.just((1.0, 1.0, 1.0)),
    _SIDE.map(lambda s: (s, s, s)),
    st.tuples(_SIDE, _SIDE, _SIDE),
    st.tuples(_SIDE, _SIDE, _SIDE).map(lambda sp: tuple(float(np.float32(v)) for v in sp)),
)
MASK_DIMS = st.tuples(st.integers(1, 9), st.integers(1, 8), st.integers(1, 7))
FILLS = st.sampled_from([0.0, 0.03, 0.3, 0.8, 1.0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=MASK_DIMS,
    fill=FILLS,
    query=st.sampled_from([0.0, 0.2, 1.0]),
    spacing=MASK_SPACINGS,
)
def test_edt_matches_the_full_map_reference(seed, dims, fill, query, spacing):
    rng = np.random.default_rng(seed)
    mask = BinaryMask(rng.random(dims) < fill, spacing)
    want = ref_edt(mask)
    _same(edt(mask), want)
    where = rng.random(dims) < query
    _same(edt(mask, where), want[where])


# 3-4-5 offsets: every one is 5 voxels away, so isotropic spacings tie them
PYTHAGOREAN = np.array(
    [p for t in set(itertools.permutations((3, 4, 0))) | set(itertools.permutations((5, 0, 0)))
     for p in itertools.product(*[(v, -v) if v else (0,) for v in t])]
)


def _first_domain(points, dims, spacing):
    """The query bbox grown as edt's first try grows it."""
    side = np.array(spacing)
    reach = np.minimum(np.ceil(EDT_MARGIN_SIDES * side.max() / side), dims).astype(int)
    return np.maximum(points.min(axis=1) - reach, 0), np.minimum(points.max(axis=1) + reach + 1, dims)


def _bounded_edt_input(rng, dims, spacing, fill, box, ties, noise, at_edge):
    """Sparse features and a compact box of queries (at the grid's low corner
    when ``at_edge``); for a ``ties`` share of the queries, features at scaled
    3-4-5 offsets; a ``noise`` share of the voxels on the planes just outside
    the first domain set."""
    dims = np.array(dims)
    bits = rng.random(dims) < fill
    side = np.minimum(box, dims)
    start = np.zeros(3, dtype=int) if at_edge else rng.integers(0, dims - side + 1)
    where = np.zeros(dims, dtype=bool)
    where[tuple(slice(a, a + s) for a, s in zip(start, side))] = rng.random(side) < 0.5
    where[tuple(start)] = True
    points = np.argwhere(where).T
    for q in points.T[rng.random(points.shape[1]) < ties]:
        offsets = PYTHAGOREAN[rng.choice(len(PYTHAGOREAN), size=3, replace=False)]
        for p in q + rng.integers(1, 4) * offsets:
            if np.all((p >= 0) & (p < dims)):
                bits[tuple(p)] = True
    lo, hi = _first_domain(points, dims, spacing)
    for axis in range(3):
        for plane in (lo[axis] - 1, hi[axis]):
            if 0 <= plane < dims[axis]:
                face = [slice(None)] * 3
                face[axis] = plane
                bits[tuple(face)] |= rng.random(bits[tuple(face)].shape) < noise
    return BinaryMask(bits, spacing), where


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(6, 40), st.integers(6, 40), st.integers(4, 24)),
    spacing=MASK_SPACINGS,
    fill=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
    box=st.tuples(*[st.integers(1, 8)] * 3),
    ties=st.sampled_from([0.0, 0.3, 1.0]),
    noise=st.sampled_from([0.0, 0.05, 0.5]),
    at_edge=st.booleans(),
)
@example(0, (40, 40, 24), (1.0, 1.0, 1.0), 0.0, (1, 1, 1), 1.0, 0.0, False)
@example(1, (40, 40, 24), (0.78125, 0.78125, 0.78125), 0.0, (3, 3, 3), 1.0, 0.5, False)
@example(2, (40, 40, 24), (0.78125, 0.78125, 2.5), 0.001, (4, 4, 2), 0.3, 0.05, True)
def test_bounded_edt_matches_the_full_map_reference(
    seed, dims, spacing, fill, box, ties, noise, at_edge
):
    mask, where = _bounded_edt_input(
        np.random.default_rng(seed), dims, spacing, fill, box, ties, noise, at_edge
    )
    _same(edt(mask, where), ref_edt(mask)[where])


def _domains(monkeypatch, mask, where):
    """The input shapes edt(mask, where) gives the feature transform."""
    want = ref_edt(mask)[where]
    shapes = []
    real = metrics.ndimage.distance_transform_edt

    def record(input, *args, **kwargs):
        shapes.append(input.shape)
        return real(input, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(metrics.ndimage, "distance_transform_edt", record)
        got = edt(mask, where)
    _same(got, want)
    return shapes


def test_bounded_edt_domain_follows_the_query_spread(monkeypatch):
    dims, spacing = (60, 50, 20), (0.78125, 0.78125, 2.5)
    bits = np.zeros(dims, dtype=bool)
    bits[20:30, 20:28, 8:12] = True
    bits[2, 3, 1] = bits[57, 46, 18] = True  # far islands
    mask = BinaryMask(bits, spacing)
    compact = np.zeros(dims, dtype=bool)
    compact[19:31, 19:29, 7:13] = True
    # reach 13 in-plane and 4 in z around the queries' bbox
    assert _domains(monkeypatch, mask, compact) == [(38, 36, 14)]
    # spread queries: the grown bbox is the grid, one dense call
    spread = compact.copy()
    spread[1, 2, 0] = spread[58, 48, 19] = True
    assert _domains(monkeypatch, mask, spread) == [dims]
    # a lone query whose one feature, in the first domain's corner, lies
    # beyond the first margin: it retries on a wider domain
    lone = np.zeros(dims, dtype=bool)
    lone[45, 10, 10] = True
    corner = np.zeros(dims, dtype=bool)
    corner[58, 23, 10] = True
    assert _domains(monkeypatch, BinaryMask(corner, spacing), lone) == [(27, 24, 9), (41, 37, 17)]
    # domains holding no feature are skipped, not transformed
    origin = np.zeros(dims, dtype=bool)
    origin[0, 0, 0] = True
    assert _domains(monkeypatch, BinaryMask(origin, spacing), lone) == [dims]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=MASK_DIMS,
    fill=FILLS,
    dtype=st.sampled_from([np.bool_, np.uint8]),
)
def test_neighbour_codes_match_correlate(seed, dims, fill, dtype):
    bits = (np.random.default_rng(seed).random(dims) < fill).astype(dtype)
    _same(neighbour_codes(bits), ref_neighbour_codes(bits))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=MASK_DIMS,
    fills=st.tuples(FILLS, FILLS),
    low=st.tuples(*[st.integers(0, 4)] * 3),
    high=st.tuples(*[st.integers(0, 4)] * 3),
    spacing=MASK_SPACINGS,
)
def test_surface_distances_do_not_depend_on_the_embedding(seed, dims, fills, low, high, spacing):
    rng = np.random.default_rng(seed)
    ref, pred = (rng.random(dims) < fill for fill in fills)
    ref[tuple(rng.integers(0, dims))] = True  # some surface exists
    grid = tuple(d + a + b for d, a, b in zip(dims, low, high))
    window = tuple(slice(a, a + d) for a, d in zip(low, dims))
    embedded = []
    for bits in (ref, pred):
        big = np.zeros(grid, dtype=bool)
        big[window] = bits
        embedded.append(BinaryMask(big, spacing))
    want = surface_distances(BinaryMask(ref, spacing), BinaryMask(pred, spacing))
    got = surface_distances(*embedded)
    for name in SurfaceDistances.__dataclass_fields__:
        _same(getattr(got, name), getattr(want, name))


# ------------------------------------------------------- case evaluation


def _label_map(rng, dims, tumor_fill):
    """Labels 0 and 1 with tumor label 2 at about ``tumor_fill``; a fill of 0
    leaves no tumor."""
    data = (rng.random(dims) < 0.4).astype(np.int32)
    data[rng.random(dims) < tumor_fill] = 2
    return data


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=MASK_DIMS,
    fills=st.tuples(FILLS, FILLS),
    label_id=st.sampled_from([0, 1, 2]),
    empty_policy=st.sampled_from(EMPTY_POLICIES),
    tolerance=st.sampled_from([0.0, 1.0, 5.0]),
    spacing=MASK_SPACINGS,
)
@example(0, (4, 3, 2), (0.0, 0.0), 2, "penalize", 5.0, (0.78125, 0.78125, 2.5))
@example(0, (4, 3, 2), (0.3, 0.0), 2, "penalize", 5.0, (0.78125, 0.78125, 2.5))
@example(0, (4, 3, 2), (0.3, 0.0), 2, "exclude", 5.0, (0.78125, 0.78125, 2.5))
@example(0, (4, 3, 2), (0.0, 0.3), 2, "penalize", 5.0, (1.0, 1.5, 3.0))
@example(0, (4, 3, 2), (0.0, 0.3), 2, "exclude", 5.0, (1.0, 1.5, 3.0))
@example(0, (4, 3, 2), (0.0, 0.0), 2, "exclude", 5.0, (1.0, 1.5, 3.0))  # no tumor in either map
def test_evaluate_case_on_masks_matches_the_label_volume_form(
    seed, dims, fills, label_id, empty_policy, tolerance, spacing
):
    rng = np.random.default_rng(seed)
    ref, pred = (Volume(_label_map(rng, dims, f), spacing, kind="labels") for f in fills)
    config = EvalConfig(label_id=label_id, tolerance_mm=tolerance, empty_policy=empty_policy)
    want = ref_evaluate_case(ref, pred, config, case_id="c7")
    masks = (BinaryMask.from_labels(v, label_id) for v in (ref, pred))
    assert evaluate_case(*masks, config, case_id="c7") == want


def test_evaluate_case_on_masks_keeps_the_grid_error():
    ref = Volume(np.zeros((4, 4, 4), dtype=np.int32), (1.0, 1.0, 1.0), kind="labels")
    pred = Volume(np.zeros((4, 4, 5), dtype=np.int32), (1.0, 1.0, 1.0), kind="labels")
    errors = []
    for call in (
        lambda: ref_evaluate_case(ref, pred),
        lambda: evaluate_case(BinaryMask.from_labels(ref, 2), BinaryMask.from_labels(pred, 2)),
    ):
        with pytest.raises(GridMismatchError) as info:
            call()
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("label volume grids differ")


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
        "same_grid": lambda: same_grid((dims, spacing), (dims, other)),
        "ResamplePlan.is_identity": lambda: ResamplePlan(dims, spacing, other).is_identity(),
    }
    for name, check in checks.items():
        assert check() is accepted, name

    calls = {
        "dice": lambda: dice(BinaryMask(bits, spacing), BinaryMask(bits, other)),
        "surface_distances": lambda: surface_distances(
            BinaryMask(bits, spacing), BinaryMask(bits, other)
        ),
        "evaluate_case": lambda: evaluate_case(BinaryMask(bits, spacing), BinaryMask(bits, other)),
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


# ------------------------------------------------------- read path

ORIENTATIONS = [
    (perm, flips)
    for perm in itertools.permutations(range(3))
    for flips in itertools.product((False, True), repeat=3)
]
# dims of 1, and dims no slab width below divides evenly
READ_SHAPES = [(5, 7, 3), (1, 6, 4), (7, 1, 1), (5, 3, 7, 3), (3, 1, 5, 2), (4, 6, 1, 1)]
SLAB_BUDGETS = [1, 24, 96, 1 << 20]  # bytes: one-voxel-wide slabs up to a single slab


def _file_values(rng, dtype, shape):
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return (rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e4], size=shape)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)


def _file_view(values, endian, perm, flips):
    """The read-only reoriented view ``read_volume`` makes of a file buffer."""
    dtype = values.dtype.newbyteorder(endian)
    buf = values.astype(dtype).tobytes(order="F")
    view = np.frombuffer(buf, dtype=dtype).reshape(values.shape, order="F")
    view = np.transpose(view, perm + tuple(range(3, view.ndim)))
    for w in range(3):
        if flips[w]:
            view = np.flip(view, axis=w)
    return view


def _copy_cases(view):
    """(source, target dtype) pairs of every read kind: float, uint32, int64
    and uint64 labels become int32 (float labels after ``rint``), scaled
    images cast to float32, and unscaled images, probability stacks and
    narrower integer labels keep the native file dtype."""
    cases = [(view, np.dtype(np.float32)), (view, view.dtype.newbyteorder("="))]
    if view.dtype.kind == "f":
        cases.append((np.rint(np.clip(view, -1e3, 1e3)), np.dtype(np.int32)))
    else:
        cases.append((view, np.dtype(np.int32)))
    return cases


def _same_copy(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.flags.writeable == want.flags.writeable
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("perm, flips", ORIENTATIONS)
def test_layout_copy_matches_the_plain_copy(monkeypatch, perm, flips):
    rng = np.random.default_rng(sum(perm) * 8 + sum(f << i for i, f in enumerate(flips)))
    for code, shape in itertools.product(sorted(_DTYPE_BY_CODE), READ_SHAPES):
        values = _file_values(rng, _DTYPE_BY_CODE[code], shape)
        for endian in "<>":
            view = _file_view(values, endian, perm, flips)
            for source, target in _copy_cases(view):
                want = ref_layout_copy(source, target)
                for budget in SLAB_BUDGETS:
                    monkeypatch.setattr(nifti, "SLAB_BYTES", budget)
                    _same_copy(nifti._layout_copy(source, target), want)


def _read_outcome(path, kind):
    try:
        vol = read_volume(path, kind=kind, label_set=None)
    except PancsegError as exc:
        return ("error", type(exc).__name__, str(exc))
    data = vol.data
    return ("ok", data.dtype, data.shape, data.flags.c_contiguous, data.flags.writeable,
            data.tobytes(), vol.spacing, vol.origin)


READ_FILES = {  # kind read as, file shape, intensity scaling
    "labels": ("labels", (5, 7, 3), (1.0, 0.0)),
    "image": ("image", (5, 7, 3), (1.0, 0.0)),
    "scaled_image": ("image", (1, 6, 4), (2.5, -1.0)),
    "probabilities": ("probabilities", (5, 3, 7, 3), (1.0, 0.0)),
}


@pytest.mark.parametrize("code", sorted(_DTYPE_BY_CODE))
@pytest.mark.parametrize("endian", ["<", ">"])
def test_read_volume_matches_the_plain_copy(tmp_path, monkeypatch, code, endian):
    """Every orientation, dtype and byte order of every kind reads the same
    with the slab-staged copy as with the plain one; 4D stacks included."""
    rng = np.random.default_rng(code)
    dtype = np.dtype(_DTYPE_BY_CODE[code])
    path = tmp_path / "file.nii"
    monkeypatch.setattr(nifti, "SLAB_BYTES", 24)  # several slabs, a ragged last one
    for name, (kind, shape, scaling) in READ_FILES.items():
        if kind == "probabilities" and dtype.kind == "f":
            values = np.eye(shape[3], dtype=dtype)[rng.integers(0, shape[3], size=shape[:3])]
        elif kind == "labels":
            values = rng.integers(0, 3, size=shape).astype(dtype)
        else:
            values = _file_values(rng, dtype, shape)
        for perm, flips in ORIENTATIONS:
            srows = orientation_srows(perm, flips)
            path.write_bytes(raw_nifti(values, endian=endian, srows=srows, scaling=scaling))
            got = _read_outcome(path, kind)
            with monkeypatch.context() as plain:
                plain.setattr(nifti, "_layout_copy", ref_layout_copy)
                want = _read_outcome(path, kind)
            assert got == want, (name, perm, flips)
            assert got[0] == ("error" if kind == "probabilities" and dtype.kind != "f" else "ok")


# values near the edges of the probability checks: signed zeros, subnormals
# of both float widths, and sums just inside and just outside PROB_SUM_TOL
_PROB_SPECIALS = (0.0, -0.0, 1.0, 1e-40, 1e-310, 2.0**-24, 1 - 1e-5, 1 + 1e-7, 1e-5, -1e-6)
_SUM_NUDGES = ((0.0,), (0.0, 9e-6, -9e-6), (0.0, 1e-5, -1e-5, 1.1e-5, -1.1e-5, 1e-3))


@st.composite
def _probability_stacks(draw):
    n = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dims = draw(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.dirichlet(np.ones(n), size=dims)
    data *= 1.0 + rng.choice(draw(st.sampled_from(_SUM_NUDGES)), size=dims)[..., None]
    special = rng.random(data.shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    data[special] = rng.choice(_PROB_SPECIALS, size=int(special.sum()))
    layout = draw(st.sampled_from(LAYOUTS))
    return _relaid(data.astype(dtype), layout)


def _check_outcome(check, data):
    try:
        check(data)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_probability_stacks())
@example(np.full((2, 1, 1, 3), -0.0, dtype=np.float32))
@example(np.full((1, 1, 1, 1), np.float32(1e-40)))
def test_class_sums_match_numpy_sum_bit_for_bit(data):
    bits = np.uint32 if data.dtype == np.float32 else np.uint64
    got, want = class_sums(data), data.sum(axis=-1)
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = np.ascontiguousarray(got).view(bits), np.ascontiguousarray(want).view(bits)
    assert np.array_equal(got, want)
    want_error = _check_outcome(ref_check_probabilities, data)
    assert _check_outcome(check_probabilities, data) == want_error

