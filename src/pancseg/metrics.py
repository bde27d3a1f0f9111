"""The five challenge metrics over binary tumor masks.

Every metric function, ``evaluate_case`` included, takes ``BinaryMask``s; a
label map becomes its tumor mask through ``BinaryMask.from_labels(volume,
config.label_id)``, the one masking rule.  A mask is a tight crop: its grid,
the offset of its bounding box and the box's bits.  ``from_labels`` builds
it in one pass over the map in slabs of about ``SLAB_BYTES``, so no
full-grid bool array exists; voxel counts and Dice's overlap read the crops,
and the surface metrics' union box is the union of the two boxes.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import ndimage

from .errors import ConfigError, EmptySurfaceError, ValidationError
from .surfels import border_map, neighbour_codes, surfel_area_table
from .volume import DEFAULT_LABEL_SET, SLAB_BYTES, Grid, Volume, check_same_grid, memory_frame, slab_axis

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


def _slices(lo, hi) -> tuple[slice, ...]:
    return tuple(slice(int(l), int(h)) for l, h in zip(lo, hi))


def _bbox(bits: np.ndarray):
    """The box ``(lo, hi)``, ``hi`` exclusive, of the true voxels of a 3D
    bool array, or None when there are none.  One pass ORs the planes across
    its ``memory_frame``'s slowest axis longer than 1 (``slab_axis``); that
    axis is then read in the box."""
    axis = slab_axis(bits, memory_frame(bits)[1])
    others = tuple(a for a in range(3) if a != axis)
    plane = bits.any(axis=axis)
    lo, hi = np.zeros(3, dtype=np.intp), np.array(bits.shape)
    for k, a in enumerate(others):  # plane axis k is grid axis a
        hit = np.flatnonzero(plane.any(axis=1 - k))
        if not len(hit):
            return None
        lo[a], hi[a] = hit[0], hit[-1] + 1
    hit = np.flatnonzero(bits[_slices(lo, hi)].any(axis=others))
    lo[axis], hi[axis] = hit[0], hit[-1] + 1
    return lo, hi


@dataclass(frozen=True, init=False, eq=False)
class BinaryMask:
    """A boolean voxel mask on a ``Grid``, held as a tight crop.

    ``crop`` is the read-only, C-order bool array of the mask's bounding box,
    whose low corner is voxel ``offset`` of the grid; an empty mask has no
    crop (None) and offset (0, 0, 0).  ``BinaryMask(bits, spacing)`` copies
    the box of a full-grid array once; ``from_labels`` builds the crop without
    a full-grid array.  ``window`` and ``bits`` rebuild a box or the whole
    grid for the callers that ask for one.
    """

    grid: Grid
    offset: tuple[int, int, int]
    crop: Optional[np.ndarray]

    def __init__(self, bits, spacing):
        bits = np.asarray(bits)
        if bits.dtype != np.bool_:
            bits = bits.astype(bool)
        if bits.ndim != 3:
            raise ValidationError(f"mask must be 3D, got shape {bits.shape}")
        grid = Grid(bits.shape, spacing)
        box = _bbox(bits)
        if box is None:
            self._hold(grid, (0, 0, 0), None)
        else:
            # a copy: the box of a caller's array may be a view of it
            self._hold(grid, box[0], bits[_slices(*box)].copy())

    def _hold(self, grid: Grid, offset, crop: Optional[np.ndarray]) -> None:
        # crop: a fresh C-order array that no caller holds, frozen here
        if crop is not None:
            crop.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "offset", tuple(int(o) for o in offset))
        object.__setattr__(self, "crop", crop)

    @classmethod
    def from_labels(cls, volume: Volume, label_id: int) -> "BinaryMask":
        """The ``label_id`` voxels of a label map, on the map's grid.

        One pass compares the map with ``label_id`` in slabs of about
        ``SLAB_BYTES`` along its ``memory_frame``'s slowest axis longer than 1
        (``slab_axis``), each a contiguous block of a map in its file's memory
        order, and keeps only each slab's own box, in C order; the boxes then
        fill the crop.  One more pass over the union of the slab boxes would
        need no pieces, but it reads the box's voxels a second time and is
        slower.
        """
        if volume.kind != "labels":
            raise ValidationError(f"expected a label volume, got {volume.kind}")
        data = volume.data
        axis = slab_axis(data, memory_frame(data)[1])
        width = max(1, SLAB_BYTES * data.shape[axis] // data.nbytes)
        index = [slice(None)] * 3
        index[axis] = slice(0, width)
        # one slab buffer, laid out like the map's slabs
        buffer = np.empty_like(data[tuple(index)], dtype=bool)
        pieces = []
        for start in range(0, data.shape[axis], width):
            index[axis] = slice(start, start + width)
            view = data[tuple(index)]
            index[axis] = slice(0, view.shape[axis])
            slab = np.equal(view, label_id, out=buffer[tuple(index)])
            box = _bbox(slab)
            if box is not None:
                corner = box[0].copy()
                corner[axis] += start
                pieces.append((corner, slab[_slices(*box)].copy()))
        mask = cls.__new__(cls)
        if not pieces:
            mask._hold(volume.grid, (0, 0, 0), None)
            return mask
        lo = np.min([c for c, _ in pieces], axis=0)
        hi = np.max([c + p.shape for c, p in pieces], axis=0)
        crop = np.zeros(hi - lo, dtype=bool)
        for corner, piece in pieces:
            crop[_slices(corner - lo, corner - lo + piece.shape)] = piece
        mask._hold(volume.grid, lo, crop)
        return mask

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.grid.dims

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.grid.spacing

    @property
    def end(self) -> tuple[int, int, int]:
        """One past the crop's high corner (the offset when empty)."""
        shape = (0, 0, 0) if self.crop is None else self.crop.shape
        return tuple(o + n for o, n in zip(self.offset, shape))

    def window(self, lo, hi) -> np.ndarray:
        """The mask's bits on grid voxels ``lo`` to ``hi`` (exclusive), false
        outside the crop: a view of the crop when it holds the whole box."""
        start = np.subtract(lo, self.offset)
        stop = np.subtract(hi, self.offset)
        if self.crop is not None and (start >= 0).all() and (stop <= self.crop.shape).all():
            return self.crop[_slices(start, stop)]
        out = np.zeros(stop - start, dtype=bool)
        if self.crop is not None:
            a, b = np.maximum(start, 0), np.minimum(stop, self.crop.shape)
            if (a < b).all():
                out[_slices(a - start, b - start)] = self.crop[_slices(a, b)]
        return out

    @property
    def bits(self) -> np.ndarray:
        """The full-grid bool array, rebuilt on every call."""
        return self.window((0, 0, 0), self.dims)

    @cached_property
    def voxels(self) -> int:
        """The number of true voxels, counted once."""
        return 0 if self.crop is None else int(np.count_nonzero(self.crop))

    def is_empty(self) -> bool:
        return self.crop is None

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
    # only the overlap of the two crops can hold shared voxels; it lies in
    # both, so its windows are views.  Boxes apart on some axis have none,
    # and there hi < lo, which no window may be given.
    lo = np.maximum(ref.offset, pred.offset)
    hi = np.minimum(ref.end, pred.end)
    inter = 0
    if (lo < hi).all():
        inter = int(np.count_nonzero(ref.window(lo, hi) & pred.window(lo, hi)))
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
        bits = mask.window(lo, hi)
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


def surface_distances(ref: BinaryMask, pred: BinaryMask) -> SurfaceDistances:
    """Extract both masks' surfels and the directed distances between them.

    Both masks are cropped to their union bounding box (plus one voxel) so
    the dual grids align; a mask with no voxels contributes no surfels and
    the opposing directed distances are +inf.
    """
    check_same_grid(ref.grid, pred.grid, "mask")
    boxes = [(m.offset, m.end) for m in (ref, pred) if not m.is_empty()]
    if not boxes:
        raise EmptySurfaceError("both masks are empty; no surface exists")
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0) + 1
    # one false voxel of padding at the high side; neighbour_codes reads
    # zeros beyond the low side
    crop_ref = ref.window(lo, hi).view(np.uint8)
    crop_pred = pred.window(lo, hi).view(np.uint8)

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
