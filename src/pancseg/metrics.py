"""The five challenge metrics over binary tumor masks.

Every metric function, ``evaluate_case`` included, takes ``BinaryMask``s; a
label map becomes its tumor mask through ``BinaryMask.from_labels(volume,
config.label_id)``, the one masking rule.

Tumor Dice, Surface Dice at tolerance, MASD and HD95 are computed with
area-weighted surfel semantics: surface elements live on the dual grid
between voxels, carry marching-cubes patch areas, and directed distances are
read from the opposing surface's Euclidean distance transform.  That feature
transform runs on the query surfels' bbox grown by a margin, not on the whole
crop; a surfel keeps its distance only when it is below its distance to every
inner face of that domain, so no feature outside it can be nearer, and the
others retry on a wider one.  A parity test pins every distance to the
full-crop value bit for bit, forced ties included.  Tumor Volume RMSE is
aggregated at cohort level from exact per-case voxel volumes.

Empty masks are handled by an explicit, report-visible policy:

- both masks empty: the prediction is vacuously perfect (dice 1.0, surface
  dice 1.0, masd/hd95 0.0), flagged ``both_empty``;
- exactly one mask empty: dice is 0.0 and the surface metrics are undefined;
  policy ``penalize`` (default) substitutes surface dice 0.0 and the physical
  grid diagonal for masd/hd95 and flags ``penalized``, policy ``exclude``
  leaves them unset and the case is dropped from cohort means.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import ndimage

from .errors import ConfigError, EmptySurfaceError, ValidationError
from .nifti import c_order
from .surfels import border_map, neighbour_codes, surfel_area_table
from .volume import DEFAULT_LABEL_SET, Grid, Volume, check_same_grid

EMPTY_POLICIES = ("penalize", "exclude")
VOLUME_UNITS = ("mm3", "ml")

HD_FRACTION = 0.95
# edt(mask, where): first domain margin in largest voxel sides, and the relative
# guard that sends a near-tie with a feature outside the domain to a retry
# instead of resting it on scipy's internal rounding (see edt)
EDT_MARGIN_SIDES = 4
EDT_TIE_GUARD = 1 + 1e-12

# The per-case metrics in report order, each with its higher-is-better flag.
# CaseMetrics holds each under its name and CohortReport its cohort mean under
# mean_field(name); report keys, CSV columns and subset scores derive from here.
CASE_METRICS = (
    ("dice", True),
    ("surface_dice_5mm", True),
    ("masd_mm", False),
    ("hd95_mm", False),
)
CASE_VOLUMES = ("volume_ref_mm3", "volume_pred_mm3")  # exact, in mm^3, after the metrics
VOLUME_RMSE = "volume_rmse"  # cohort-level, over all cases; lower is better


def check_tolerance(tolerance_mm: float) -> None:
    """Raise ConfigError unless the surface dice tolerance is finite and >= 0."""
    if not (0 <= tolerance_mm < np.inf):
        raise ConfigError(f"tolerance_mm must be finite and >= 0, got {tolerance_mm}")


def mean_field(name: str) -> str:
    """The CohortReport field holding the cohort mean of a per-case metric."""
    return "mean_" + name


@dataclass(frozen=True)
class EvalConfig:
    label_id: int = 2
    tolerance_mm: float = 5.0
    empty_policy: str = "penalize"
    volume_unit: str = "mm3"

    def __post_init__(self):
        # every evaluated map lies in the declared set, so any other id would
        # match no voxel and score every case as a perfect empty pair
        if self.label_id not in DEFAULT_LABEL_SET:
            raise ConfigError(f"label_id must be one of {DEFAULT_LABEL_SET}, got {self.label_id}")
        check_tolerance(self.tolerance_mm)
        if self.empty_policy not in EMPTY_POLICIES:
            raise ConfigError(f"empty_policy must be one of {EMPTY_POLICIES}")
        if self.volume_unit not in VOLUME_UNITS:
            raise ConfigError(f"volume_unit must be one of {VOLUME_UNITS}")


@dataclass(frozen=True)
class BinaryMask:
    """A boolean voxel mask with physical spacing."""

    bits: np.ndarray
    spacing: tuple[float, float, float]
    grid: Grid = field(init=False, repr=False)

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        if bits.ndim != 3:
            raise ValidationError(f"mask must be 3D, got shape {bits.shape}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "grid", Grid(bits.shape, self.spacing))
        object.__setattr__(self, "spacing", self.grid.spacing)

    @classmethod
    def from_labels(cls, volume: Volume, label_id: int) -> "BinaryMask":
        if volume.kind != "labels":
            raise ValidationError(f"expected a label volume, got {volume.kind}")
        return cls(bits=volume.data == label_id, spacing=volume.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.dims

    @cached_property
    def voxels(self) -> int:
        """The number of true voxels, counted once."""
        return int(np.count_nonzero(self.bits))

    def is_empty(self) -> bool:
        return self.voxels == 0

    def physical_diagonal_mm(self) -> float:
        """Length of the grid diagonal in mm (used as the surface penalty)."""
        ext = [d * s for d, s in zip(self.dims, self.spacing)]
        return float(np.sqrt(sum(e * e for e in ext)))


def dice(ref: BinaryMask, pred: BinaryMask) -> tuple[float, tuple[str, ...]]:
    """Volumetric overlap 2|A∩B| / (|A|+|B|), with emptiness flags."""
    check_same_grid(ref.grid, pred.grid, "mask")
    total = ref.voxels + pred.voxels
    if total == 0:
        return 1.0, ("both_empty",)
    if ref.is_empty():
        return 0.0, ("ref_empty",)
    if pred.is_empty():
        return 0.0, ("pred_empty",)
    inter = int(np.count_nonzero(ref.bits & pred.bits))
    return 2.0 * inter / total, ()


def edt(mask: BinaryMask, where: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact anisotropic distance (mm) to the nearest true voxel center, from
    the ``where`` voxel centers in C order (every voxel, as a grid of
    ``mask.dims``, when ``where`` is None); +inf when the mask is empty.

    The distances are scipy's own arithmetic on its feature transform, applied
    only at the query voxels, so they equal ``distance_transform_edt`` bit for
    bit.  The feature transform runs on the queries' bbox grown by
    ``EDT_MARGIN_SIDES`` largest voxel sides (in mm, per axis); with every
    voxel a query that is the whole grid.  A query keeps its distance ``d``
    only if ``d`` is strictly below, with a relative guard of
    ``EDT_TIE_GUARD``, its distance ``fl(k * s)`` to every inner domain face
    that is not a grid face (``k`` voxels away on an axis of side ``s``):
    every feature beyond such a face gets a computed distance of at least
    that, since ``sqrt(fl(x * x)) == |x|`` and adding squares never lowers a
    float sum.  The other queries retry on their own bbox with the margin
    doubled; the last try is the whole grid.
    """
    queries = np.ones(mask.dims, dtype=bool) if where is None else where
    points = np.array(np.unravel_index(np.flatnonzero(queries), mask.dims))
    out = np.full(points.shape[1], np.inf)
    todo = np.arange(0 if mask.is_empty() else points.shape[1])  # no feature: all +inf
    dims, spacing = np.array(mask.dims), np.array(mask.spacing)
    margin_mm = EDT_MARGIN_SIDES * spacing.max()
    while len(todo):
        pts = points[:, todo]
        reach = np.minimum(np.ceil(margin_mm / spacing), dims).astype(np.intp)
        lo = np.maximum(pts.min(axis=1) - reach, 0)
        hi = np.minimum(pts.max(axis=1) + reach + 1, dims)
        margin_mm *= 2
        bits = mask.bits[tuple(slice(l, h) for l, h in zip(lo, hi))]
        whole = bits.shape == mask.dims
        if not (whole or bits.any()):  # no feature: scipy returns no valid index
            continue
        nearest = ndimage.distance_transform_edt(
            ~bits, sampling=mask.spacing, return_distances=False, return_indices=True
        )
        local = (pts - lo[:, None]).astype(nearest.dtype)
        # scipy's own arithmetic on the feature offsets (axis 0 holds the axes)
        dist = (nearest[(slice(None), *local)] - local).astype(np.float64)
        for axis, step in enumerate(mask.spacing):
            dist[axis] *= step
        np.multiply(dist, dist, dist)
        dist = np.sqrt(np.add.reduce(dist, axis=0))
        if whole:
            out[todo] = dist
            break
        bound = np.full(len(todo), np.inf)
        for axis, step in enumerate(mask.spacing):
            if lo[axis] > 0:
                np.minimum(bound, (local[axis] + 1) * step, out=bound)
            if hi[axis] < dims[axis]:
                np.minimum(bound, (bits.shape[axis] - local[axis]) * step, out=bound)
        done = dist * EDT_TIE_GUARD < bound
        out[todo[done]] = dist[done]
        todo = todo[~done]
    return out.reshape(mask.dims) if where is None else out


@dataclass(frozen=True)
class SurfaceDistances:
    """Directed surfel distances and areas, sorted ascending by distance."""

    areas_ref: np.ndarray
    areas_pred: np.ndarray
    dist_ref_to_pred: np.ndarray
    dist_pred_to_ref: np.ndarray

    def __post_init__(self):
        for name in ("areas_ref", "areas_pred", "dist_ref_to_pred", "dist_pred_to_ref"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.areas_ref.shape != self.dist_ref_to_pred.shape:
            raise ValidationError("ref area/distance lists disagree in length")
        if self.areas_pred.shape != self.dist_pred_to_ref.shape:
            raise ValidationError("pred area/distance lists disagree in length")

    def total_area_ref(self) -> float:
        return float(self.areas_ref.sum())

    def total_area_pred(self) -> float:
        return float(self.areas_pred.sum())


def _union_bbox(bits: np.ndarray):
    # one full pass projects onto the first two axes; the third axis is read
    # inside their bounds only
    plane = bits.any(axis=2)
    rows = np.nonzero(plane.any(axis=1))[0]
    if len(rows) == 0:
        return None
    cols = np.nonzero(plane.any(axis=0))[0]
    x0, x1, y0, y1 = int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])
    depth = np.nonzero(bits[x0 : x1 + 1, y0 : y1 + 1].any(axis=(0, 1)))[0]
    return [x0, y0, int(depth[0])], [x1, y1, int(depth[-1])]


def _crop_with_pad(bits: np.ndarray, lo, hi) -> np.ndarray:
    # one zero voxel of padding at the high side; neighbour_codes reads zeros
    # beyond the low side
    out = np.zeros([h - l + 2 for l, h in zip(lo, hi)], dtype=np.uint8)
    # a mask in a file's memory order is laid out first: copied straight into
    # C order, it would be read at large strides
    out[:-1, :-1, :-1] = c_order(bits[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1])
    return out


def surface_distances(ref: BinaryMask, pred: BinaryMask) -> SurfaceDistances:
    """Extract both masks' surfels and the directed distances between them.

    Both masks are cropped to their union bounding box (plus one voxel) so
    the dual grids align; a mask with no voxels contributes no surfels and
    the opposing directed distances are +inf.
    """
    check_same_grid(ref.grid, pred.grid, "mask")
    bbox = _union_bbox(ref.bits | pred.bits)
    if bbox is None:
        raise EmptySurfaceError("both masks are empty; no surface exists")
    lo, hi = bbox
    crop_ref = _crop_with_pad(ref.bits, lo, hi)
    crop_pred = _crop_with_pad(pred.bits, lo, hi)

    codes_ref = neighbour_codes(crop_ref)
    codes_pred = neighbour_codes(crop_pred)
    borders_ref = border_map(codes_ref)
    borders_pred = border_map(codes_pred)

    area_table = surfel_area_table(ref.spacing)
    areas_ref = area_table[codes_ref[borders_ref]]
    areas_pred = area_table[codes_pred[borders_pred]]

    dist_pred_to_ref = edt(BinaryMask(borders_ref, ref.spacing), where=borders_pred)
    dist_ref_to_pred = edt(BinaryMask(borders_pred, ref.spacing), where=borders_ref)

    order_ref = np.argsort(dist_ref_to_pred, kind="stable")
    order_pred = np.argsort(dist_pred_to_ref, kind="stable")
    return SurfaceDistances(
        areas_ref=areas_ref[order_ref],
        areas_pred=areas_pred[order_pred],
        dist_ref_to_pred=dist_ref_to_pred[order_ref],
        dist_pred_to_ref=dist_pred_to_ref[order_pred],
    )


def surface_dice(sd: SurfaceDistances, tolerance_mm: float) -> float:
    """Area fraction of both surfaces lying within tolerance of the other."""
    check_tolerance(tolerance_mm)
    total = sd.total_area_ref() + sd.total_area_pred()
    if total == 0:
        raise EmptySurfaceError("surface dice is undefined for two empty surfaces")
    hit_ref = float(sd.areas_ref[sd.dist_ref_to_pred <= tolerance_mm].sum())
    hit_pred = float(sd.areas_pred[sd.dist_pred_to_ref <= tolerance_mm].sum())
    return (hit_ref + hit_pred) / total


def masd(sd: SurfaceDistances) -> float:
    """Mean of the two area-weighted directed average surface distances."""
    if len(sd.dist_ref_to_pred) == 0 or len(sd.dist_pred_to_ref) == 0:
        raise EmptySurfaceError("masd requires both surfaces to be non-empty")
    mean_ref = float((sd.dist_ref_to_pred * sd.areas_ref).sum() / sd.areas_ref.sum())
    mean_pred = float((sd.dist_pred_to_ref * sd.areas_pred).sum() / sd.areas_pred.sum())
    return 0.5 * (mean_ref + mean_pred)


def _directed_percentile(distances: np.ndarray, areas: np.ndarray, fraction: float) -> float:
    # smallest distance whose cumulative area fraction reaches the target
    cum = np.cumsum(areas) / areas.sum()
    idx = int(np.searchsorted(cum, fraction))
    return float(distances[min(idx, len(distances) - 1)])


def hd95(sd: SurfaceDistances) -> float:
    """Max of the two directed area-weighted 95th-percentile distances."""
    if len(sd.dist_ref_to_pred) == 0 or len(sd.dist_pred_to_ref) == 0:
        raise EmptySurfaceError("hd95 requires both surfaces to be non-empty")
    return max(
        _directed_percentile(sd.dist_ref_to_pred, sd.areas_ref, HD_FRACTION),
        _directed_percentile(sd.dist_pred_to_ref, sd.areas_pred, HD_FRACTION),
    )


def tumor_volume(mask: BinaryMask) -> float:
    """True-voxel count times voxel volume, in mm^3."""
    sx, sy, sz = mask.spacing
    return float(mask.voxels) * sx * sy * sz


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    dice: Optional[float]
    surface_dice_5mm: Optional[float]
    masd_mm: Optional[float]
    hd95_mm: Optional[float]
    volume_ref_mm3: float
    volume_pred_mm3: float
    flags: tuple[str, ...] = ()


def evaluate_case(
    ref: BinaryMask,
    pred: BinaryMask,
    config: EvalConfig = EvalConfig(),
    case_id: str = "case",
) -> CaseMetrics:
    """All five per-case metric fields for one reference/prediction mask pair."""
    check_same_grid(ref.grid, pred.grid, "label volume")
    vol_ref = tumor_volume(ref)
    vol_pred = tumor_volume(pred)
    dice_value, flags = dice(ref, pred)

    if "both_empty" in flags:
        sdice, masd_mm, hd95_mm = 1.0, 0.0, 0.0
    elif flags:  # exactly one side empty
        if config.empty_policy == "penalize":
            diag = ref.physical_diagonal_mm()
            sdice, masd_mm, hd95_mm = 0.0, diag, diag
            flags = flags + ("penalized",)
        else:
            sdice = masd_mm = hd95_mm = None
    else:
        sd = surface_distances(ref, pred)
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


@dataclass(frozen=True)
class CohortReport:
    config: EvalConfig
    cases: tuple[CaseMetrics, ...]
    mean_dice: Optional[float]
    mean_surface_dice_5mm: Optional[float]
    mean_masd_mm: Optional[float]
    mean_hd95_mm: Optional[float]
    volume_rmse: float
    n_cases: int
    n_flagged: int
    flag_counts: tuple[tuple[str, int], ...] = ()


def aggregate_cohort(cases, config: EvalConfig = EvalConfig()) -> CohortReport:
    """Cohort means of the four overlap/surface metrics plus volume RMSE.

    Under ``penalize`` every case carries numeric values and all cases enter
    the means; under ``exclude`` flagged cases are dropped from the means.
    Volume RMSE always runs over all cases (volumes are defined regardless of
    emptiness) in the configured unit.
    """
    cases = tuple(cases)
    if not cases:
        raise ValidationError("cannot aggregate an empty cohort")
    if config.empty_policy == "exclude":
        included = [c for c in cases if not c.flags]
    else:
        included = list(cases)

    def mean_of(attr: str) -> Optional[float]:
        if not included:
            return None
        values = [getattr(c, attr) for c in included]
        if any(v is None for v in values):
            raise ValidationError(f"case without {attr} value entered the cohort mean")
        return float(np.mean(values))

    unit_scale = 1e-3 if config.volume_unit == "ml" else 1.0
    sq_errors = [
        ((c.volume_pred_mm3 - c.volume_ref_mm3) * unit_scale) ** 2 for c in cases
    ]
    rmse = float(np.sqrt(np.mean(sq_errors)))

    counts: dict[str, int] = {}
    for c in cases:
        for f in c.flags:
            counts[f] = counts.get(f, 0) + 1

    return CohortReport(
        config=config,
        cases=cases,
        **{mean_field(name): mean_of(name) for name, _ in CASE_METRICS},
        volume_rmse=rmse,
        n_cases=len(cases),
        n_flagged=sum(1 for c in cases if c.flags),
        flag_counts=tuple(sorted(counts.items())),
    )
