"""Combine stored member predictions into a single segmentation.

Members are (model, fold, checkpoint) provenance tags plus a path to the
stored prediction: a 4D probability stack for ``prob_avg`` mode or a label
volume for ``majority`` mode.  Combination is a pure reduction over files;
there is no model inference and no test-time augmentation here.

A spec holds its members in member_id order regardless of how they are
listed, and fusion reduces them in that order, which makes both modes
bit-exactly invariant under permutation of the member list.

Every fusion goes through a ``MemberStore``, one per case.  Members are
added one at a time: ``combine`` and the subset evaluator read each member
and add it before they read the next (``MemberStore.load``), so one
member's volume is resident at a time besides the store.  A member's
volume is read as one code per voxel (``_consensus_codes``, one pass per
class plane) when it is added: a label map's code is its label; a
probability vector's code is its hot class when it is exactly one-hot (one
entry ``== 1.0``, all others ``== 0.0``) and -1 otherwise.  The store keeps
a consensus code map and D, the voxels where the members added so far do
not all hold the same code >= 0.  A member is held as one array on D: a
label map's labels, or a probability stack's class planes, shape
``(classes, |D|)``.  Outside D every member's label is the consensus code
and its class vector is that code's one-hot vector, so when a new member
grows D, the old members' labels and planes on the new voxels are rebuilt
from the consensus exactly.  A new member's voxels off the consensus are
found slab by slab, with no grid-sized temporary, and D ends the same
whether members arrive one at a time or together.  When D would cover more
than half the grid (softmax exports are never exactly one-hot), labels and
planes are held whole instead.

A subset fuses every voxel of D: the members' class planes on D are
averaged (float64 accumulation in member order, division by the weight
sum, renormalization by the C-order class sums of ``c_class_sums``),
validated and argmaxed with ``label_argmax``'s running maximum, ties to
the lowest class; or their labels are voted on.  The result is scattered
into a copy of the consensus map, which is every subset's fused label
outside D.  No step reduces along the short class axis.  D indexes the
first member's ``memory_frame``: label maps and probability stacks read
from a file stay in the file's memory order, class planes slowest, so a
file's planes are gathered where they lie.  The fused map is laid out in
that order too; every step is per voxel, so the order changes no label.

This is exact for finite positive weights with a finite sum, which the
weight checks enforce: D runs the same elementwise arithmetic as a
full-volume pass.  Outside D, and on the voxels of D where a subset's
members all hold one code >= 0, the average is ``(x, 0, ...)`` with
``x > 0``, which renormalizes to exactly one-hot (``x/x == 1``,
``0/x == 0``), so it passes validation with deviation 0 and its argmax is
the hot class; a vote there has one candidate.  Validating the planes on
D therefore passes and fails exactly when the full stack does, with the same
worst deviation.  The checks that come before it (kind, weights, grids and
class counts) read each member's metadata, so they raise as on whole
volumes.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, FormatError, GridMismatchError, ValidationError
from .nifti import read_volume
from .volume import (
    SLAB_BYTES,
    Grid,
    Volume,
    c_class_sums,
    check_probabilities,
    check_same_grid,
    label_argmax,
    memory_frame,
    parse_float,
    parse_int,
    read_json_object,
    unique_labels,
)

ENSEMBLE_MODES = ("prob_avg", "majority")
CHECKPOINTS = ("best", "final")

FOLD_RANGE = range(0, 5)

CASE_PLACEHOLDER = "{case}"


@dataclass(frozen=True)
class EnsembleMember:
    member_id: str
    path: str
    model_tag: str = ""
    fold: int = 0
    checkpoint: str = "best"
    weight: float = 1.0

    def __post_init__(self):
        if not self.member_id:
            raise ConfigError("member_id must be non-empty")
        if not self.path:
            raise ConfigError(f"member {self.member_id}: path must be non-empty")
        if self.fold not in FOLD_RANGE:
            raise ConfigError(f"member {self.member_id}: fold must be in 0..4, got {self.fold}")
        if self.checkpoint not in CHECKPOINTS:
            raise ConfigError(
                f"member {self.member_id}: checkpoint must be one of {CHECKPOINTS}"
            )
        if not 0 < self.weight < math.inf:
            raise ConfigError(
                f"member {self.member_id}: weight must be finite and > 0, got {self.weight}"
            )

    def resolve_path(self, case_id: str, base_dir: str | Path) -> Path:
        """Concrete prediction file for one case.

        A ``{case}`` placeholder in the path becomes ``case_id``; a relative
        path resolves against ``base_dir``, the directory of the file that
        names it; a path to a directory names its ``<case_id>.nii.gz``.
        """
        path = Path(base_dir) / self.path.replace(CASE_PLACEHOLDER, case_id)
        if path.is_dir():
            path = path / f"{case_id}.nii.gz"
        return path


def check_ids(ids: Iterable[str], what: str) -> None:
    """Reject an empty id, or ids that occur more than once, naming each
    repeated one."""
    counts = Counter(ids)
    if "" in counts:
        raise ConfigError(f"a {what} must not be empty")
    dupes = sorted(i for i, n in counts.items() if n > 1)
    if dupes:
        raise ConfigError(f"duplicate {what}(s): {dupes}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Members, held in member_id order, and the fusion mode."""

    members: tuple[EnsembleMember, ...]
    mode: str = "prob_avg"

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members, key=lambda m: m.member_id)))
        if not self.members:
            raise ConfigError("an ensemble needs at least one member")
        if self.mode not in ENSEMBLE_MODES:
            raise ConfigError(f"mode must be one of {ENSEMBLE_MODES}, got {self.mode!r}")
        check_ids((m.member_id for m in self.members), "member_id")


def read_member_file(path: Path, what: str) -> tuple[dict, tuple[EnsembleMember, ...]]:
    """Decode a JSON object file and parse its required ``members`` list.

    Ensemble specs and candidate pools share this parser.  Every malformed
    input, from unreadable bytes to a mistyped member field, is a FormatError
    naming ``what`` and the file.
    """
    doc = read_json_object(path, what)
    entries = doc.get("members")
    if not isinstance(entries, list):
        raise FormatError(f"{what} {path} must be an object with a 'members' list")
    members = []
    for i, entry in enumerate(entries):
        where = f"{what} {path}: member {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object, got {entry!r}")
        try:
            member_id, member_path = entry["member_id"], entry["path"]
            fold = parse_int(entry.get("fold", 0))
            weight = parse_float(entry.get("weight", 1.0))
        except KeyError as exc:
            raise FormatError(f"{where} is missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(
                f"{where}: fold must be an integer and weight a number ({exc})"
            ) from exc
        model_tag = entry.get("model_tag", "")
        if not all(isinstance(v, str) for v in (member_id, member_path, model_tag)):
            raise FormatError(f"{where}: member_id, path and model_tag must be strings")
        members.append(
            EnsembleMember(
                member_id=member_id,
                path=member_path,
                model_tag=model_tag,
                fold=fold,
                checkpoint=entry.get("checkpoint", "best"),
                weight=weight,
            )
        )
    return doc, tuple(members)


def load_ensemble_spec(path: str | Path) -> EnsembleSpec:
    """Parse a JSON spec: {"mode": ..., "members": [{member fields}...]}."""
    path = Path(path)
    doc, members = read_member_file(path, "ensemble spec")
    return EnsembleSpec(members=members, mode=doc.get("mode", "prob_avg"))


def save_ensemble_spec(spec: EnsembleSpec, path: str | Path) -> None:
    doc = {
        "mode": spec.mode,
        "members": [
            {
                "member_id": m.member_id,
                "model_tag": m.model_tag,
                "fold": m.fold,
                "checkpoint": m.checkpoint,
                "path": m.path,
                "weight": m.weight,
            }
            for m in spec.members
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


_KIND_ERRORS = {
    "probabilities": "average_probabilities expects probability stacks",
    "labels": "majority_vote expects label volumes",
}


def _member_weights(weights: Optional[Sequence[float]], n: int) -> list[float]:
    weights = [1.0] * n if weights is None else [float(w) for w in weights]
    if len(weights) != n:
        raise ValidationError("weights length must match the member count")
    if not (all(0 < w < math.inf for w in weights) and math.isfinite(sum(weights))):
        raise ValidationError(
            f"weights must be finite and positive with a finite sum, got {weights}"
        )
    return weights


def _check_members(members: Sequence, weights: Optional[Sequence[float]], kind: str) -> list[float]:
    """The checks every fusion makes, in order: kind, weights, grids and
    class counts.  ``members`` are volumes or their ``_Held`` metadata."""
    if any(m.kind != kind for m in members):
        raise ValidationError(_KIND_ERRORS[kind])
    weights = _member_weights(weights, len(members))
    for m in members[1:]:
        check_same_grid(members[0].grid, m.grid, "member")
    if kind == "probabilities":
        classes = {m.n_classes for m in members}
        if len(classes) != 1:
            raise GridMismatchError(f"class counts differ across members: {sorted(classes)}")
    return weights


def _average_planes(planes: Iterable[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted float64 mean of the members' class planes (classes along
    axis 0), in member order, renormalized by their C-order class sums
    (``c_class_sums``).  Every step is per voxel, so the layout changes no
    bit; the accumulator takes the first member's.

    ``planes`` may be a generator, so only one member's planes need be held
    at a time besides the accumulator.
    """
    acc = None
    for p, w in zip(planes, weights):
        if acc is None:
            acc = np.zeros_like(p, dtype=np.float64)
        acc += np.multiply(p, w, dtype=np.float64)  # w * p.astype(np.float64)
    acc /= sum(weights)
    acc /= c_class_sums(np.moveaxis(acc, 0, -1))
    return acc


def average_probabilities(stacks: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel, per-class mean of probability stacks, renormalized."""
    stacks = list(stacks)
    if not stacks:
        raise ValidationError("no probability stacks to average")
    weights = _check_members(stacks, weights, "probabilities")
    acc = _average_planes((np.moveaxis(v.data, -1, 0) for v in stacks), weights)
    return stacks[0].with_data(np.moveaxis(acc, 0, -1))


def _class_label_dtype(n_classes: int) -> np.dtype:
    """The dtype of a label map of class indices: uint8 while every one of
    ``n_classes`` indices fits, else int32."""
    return np.dtype(np.uint8 if n_classes <= 256 else np.int32)


def argmax_labels(p: Volume) -> Volume:
    """Per-voxel argmax class, uint8 up to 256 classes; ties go to the lowest
    class index."""
    if p.kind != "probabilities":
        raise ValidationError(f"argmax_labels expects a probability stack, got {p.kind}")
    labels = np.argmax(p.data, axis=-1).astype(_class_label_dtype(p.n_classes))
    return p.with_data(labels, kind="labels")


def _vote_dtype(dtypes: Iterable[np.dtype]) -> np.dtype:
    """The label maps' common dtype, which holds every label any of them
    holds; uint64 and a signed dtype have none but float64, and uint64 holds
    the labels."""
    dtype = np.result_type(*dtypes)
    return np.dtype(np.uint64) if dtype.kind == "f" else dtype


def _consensus_codes(volume: Volume) -> np.ndarray:
    """One code per voxel: the label of a label map; for a probability stack
    the hot class where the vector is exactly one-hot, else -1 (int8 up to
    127 classes), laid out as its class planes."""
    if volume.kind == "labels":
        return volume.data
    dtype = np.int8 if volume.n_classes <= 127 else np.int32
    codes = np.full_like(volume.data[..., 0], -1, dtype=dtype)
    nonzero = np.zeros_like(codes)
    # one pass per class plane: reductions along a short axis are slow
    for c in range(volume.n_classes):
        plane = volume.data[..., c]
        nonzero += plane != 0
        np.copyto(codes, c, where=plane == 1.0)
    np.copyto(codes, -1, where=nonzero != 1)
    return codes


@dataclass(eq=False)
class _Held:
    """One member of a ``MemberStore``: what the checks read, and one array
    on its group's index: a label map's labels, or a probability stack's
    class planes, ``(classes, voxels)``."""

    kind: str
    grid: Grid
    n_classes: Optional[int]
    dtype: np.dtype
    data: Optional[np.ndarray] = None


class _Group:
    """The members of one case that share dims and class count.

    ``consensus`` holds, in the first member's ``memory_frame``, one code
    per voxel; ``index`` holds D, the sorted flat voxels where the members
    added so far do not all hold the same code >= 0.  Outside ``index``
    every member's label is the consensus code and its class vector is that
    code's one-hot vector, so a member is held as its labels or its class
    planes on ``index`` alone, gathered in the same frame.  Once ``index``
    would cover more than half the grid, ``index`` is None and labels and
    planes are held whole.
    """

    def __init__(self):
        self.frame = None  # (flips, axes) of the first member's codes
        self.consensus: Optional[np.ndarray] = None
        self.index: Optional[np.ndarray] = np.empty(0, dtype=np.intp)
        self.members: list[_Held] = []

    def add(self, held: _Held, volume: Volume) -> None:
        """Hold one more member: first grow ``index`` by the voxels where its
        codes leave the consensus, then keep its labels (or class planes) on
        it.  Codes and planes are flattened in the group's frame, so volumes
        that share a file's memory order are used where they lie; those not
        contiguous in that frame are laid out once."""
        codes = _consensus_codes(volume)
        self.frame = self.frame or memory_frame(codes)
        flips, axes = self.frame
        codes = np.ascontiguousarray(codes[flips].transpose(axes)).reshape(-1)
        if self.index is not None:
            first = not self.members
            if first:
                self.consensus = codes
            if held.kind == "labels":
                dtype = _vote_dtype(h.dtype for h in self.members + [held])
                self.consensus = self.consensus.astype(dtype, copy=False)
            index = self._disagreement(codes, first)
            if index is None or index.size > self.index.size:
                self._grow(index)
        if held.kind == "labels":
            data = codes  # a label map's codes are its labels
        else:  # its class planes: a view when the file keeps them in the frame
            data = volume.data[flips].transpose((3, *axes)).reshape(held.n_classes, -1)
        held.data = data if self.index is None else np.take(data, self.index, axis=-1)
        self.members.append(held)

    def _disagreement(self, codes: np.ndarray, first: bool) -> Optional[np.ndarray]:
        """``index`` plus the voxels where ``codes`` differ from the consensus
        (for the first member: where they are < 0), sorted; None once that
        passes half the grid.

        The grid is scanned in slabs of ``SLAB_BYTES`` voxels through one
        bool buffer.  Each slab's part of ``index`` is set in the buffer
        before it is collected, so the slabs' indices come out sorted and
        distinct; a slab is counted before it is collected, so no more than
        half the grid is ever collected.
        """
        size = codes.size
        buffer = np.empty(min(SLAB_BYTES, size), dtype=bool)
        pieces, count, done = [], 0, 0
        for lo in range(0, size, SLAB_BYTES):
            hi = min(lo + SLAB_BYTES, size)
            slab = buffer[: hi - lo]
            if first:
                np.less(codes[lo:hi], 0, out=slab)
            else:
                np.not_equal(codes[lo:hi], self.consensus[lo:hi], out=slab)
            end = int(np.searchsorted(self.index, hi))
            slab[self.index[done:end] - lo] = True
            done = end
            count += np.count_nonzero(slab)
            if 2 * count > size:
                return None
            piece = np.flatnonzero(slab)
            piece += lo
            pieces.append(piece)
        return np.concatenate(pieces) if pieces else self.index

    def _grow(self, index: Optional[np.ndarray]) -> None:
        """Move the members held so far onto ``index``, a superset of the old
        one (None: the whole grid), rebuilding them on the new voxels from
        the consensus code."""
        at = self.index if index is None else np.searchsorted(index, self.index)
        consensus = self.consensus if index is None else self.consensus[index]
        for h in self.members:
            if h.kind == "labels":
                data = consensus.astype(h.dtype)
            else:
                # a voxel of the old index may hold code -1; it is overwritten
                data = np.take(np.eye(h.n_classes, dtype=h.dtype), consensus, axis=1)
            data[..., at] = h.data
            h.data = data
        self.index = index
        if index is None:
            self.consensus = None

    def fuse(self, held: Sequence[_Held], weights, fuse_voxels, dtype) -> np.ndarray:
        """The fused label map of ``held`` in their axes, of ``dtype``: the
        consensus code outside ``index``, ``fuse_voxels(held, weights)`` on
        it."""
        if self.index is None:
            out = fuse_voxels(held, weights).astype(dtype, copy=False)
        else:
            out = self.consensus.astype(dtype)
            if self.index.size:  # the argmaxes and checks reject empty input
                out[self.index] = fuse_voxels(held, weights)
        flips, axes = self.frame
        dims = held[0].grid.dims
        return out.reshape([dims[ax] for ax in axes]).transpose(np.argsort(axes))[flips]


def _probability_labels(held: Sequence[_Held], weights: Sequence[float]):
    acc = _average_planes((h.data for h in held), weights)
    check_probabilities(np.moveaxis(acc, 0, -1))
    classes = np.arange(len(acc), dtype=_class_label_dtype(len(acc)))
    # the running maximum overwrites the first plane, which no later score reads
    return label_argmax(classes, acc.__getitem__, acc.shape[1:])


def _vote_labels(held: Sequence[_Held], weights: Sequence[float]):
    labels = [h.data for h in held]

    def votes(value):
        acc = weights[0] * (labels[0] == value)
        for r, w in zip(labels[1:], weights[1:]):
            acc += w * (r == value)
        return acc

    values = np.unique(np.concatenate([unique_labels(r) for r in labels]))
    return label_argmax(values, votes, labels[0].shape)


class MemberStore:
    """One case's ensemble members, held where they disagree.

    Members that share dims and class count form a group (see ``_Group``):
    a consensus code map plus each member's labels or class planes on D, the
    voxels where the members added so far do not all hold one code.  The
    rest of a member is rebuilt exactly from the consensus when D grows, so
    a member costs its share of the disagreement, not a full stack.  Each
    member's kind, grid, class count and dtype stay for the per-subset
    checks; a member of the wrong kind for ``mode`` joins no group, as every
    fusion that names it fails the kind check.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self.kind = "probabilities" if mode == "prob_avg" else "labels"
        self._held: dict[str, _Held] = {}
        self._groups: dict[tuple, _Group] = {}

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._held

    def member_nbytes(self, member_id: str) -> int:
        """The bytes held for one member: its labels or class planes (none
        for a member of the wrong kind)."""
        data = self._held[member_id].data
        return 0 if data is None else data.nbytes

    def add(self, volumes: Mapping[str, Volume]) -> None:
        """Hold new members, keyed by member_id, one at a time in the
        mapping's order; the volumes can then be dropped."""
        for member_id, v in volumes.items():
            n_classes = v.n_classes if v.kind == "probabilities" else None
            h = self._held[member_id] = _Held(v.kind, v.grid, n_classes, v.data.dtype)
            if v.kind == self.kind:
                self._groups.setdefault((v.dims, n_classes), _Group()).add(h, v)

    def load(self, members: Iterable[EnsembleMember], case_id: str, base_dir: str | Path) -> None:
        """Read each of ``members`` not held yet for one case, in the order
        given, and add it as soon as it is read, so one member's volume is
        resident at a time.  A member that cannot be read raises after the
        ones before it were added."""
        for m in members:
            if m.member_id not in self:
                self.add({m.member_id: load_member_volume(m, self.mode, case_id, base_dir)})

    def fuse(self, member_ids: Sequence[str], weights: Optional[Sequence[float]]) -> Volume:
        """The fused label map of the members ``member_ids``, reduced in that
        order, after the checks every fusion makes."""
        missing = [mid for mid in member_ids if mid not in self._held]
        if missing:
            raise ValidationError(f"no volume supplied for member(s) {missing}")
        held = [self._held[mid] for mid in member_ids]
        weights = _check_members(held, weights, self.kind)
        first = held[0]
        group = self._groups[(first.grid.dims, first.n_classes)]
        if self.kind == "probabilities":
            fuse_voxels, dtype = _probability_labels, _class_label_dtype(first.n_classes)
        else:
            fuse_voxels, dtype = _vote_labels, _vote_dtype(h.dtype for h in held)
        data = group.fuse(held, weights, fuse_voxels, dtype)
        return Volume(data, first.grid.spacing, first.grid.origin, kind="labels")


def majority_vote(label_members: Sequence[Volume], weights: Optional[Sequence[float]] = None) -> Volume:
    """Weighted per-voxel plurality over label volumes; ties to lowest label."""
    label_members = list(label_members)
    if not label_members:
        raise ValidationError("no label volumes to vote over")
    ids = [str(i) for i in range(len(label_members))]
    store = MemberStore("majority")
    store.add(dict(zip(ids, label_members)))
    return store.fuse(ids, weights)


def combine_volumes(spec: EnsembleSpec, volumes: Mapping[str, Volume] | MemberStore) -> Volume:
    """Combine members keyed by member_id: loaded volumes, or a
    ``MemberStore`` of ``spec.mode`` that holds them.

    Volumes become a store of their own, so their disagreement set is the
    voxels where they do not all hold one code.  A store lets its caller
    drop each member's volume once it is added (``MemberStore.load``), so
    one member is resident at a time; a caller fusing many subsets of one
    pool keeps one store per case, each member's consensus codes are then
    computed once, and the member costs its labels or class planes where
    the pool disagrees.
    """
    if not isinstance(volumes, MemberStore):
        store = MemberStore(spec.mode)
        store.add({m.member_id: volumes[m.member_id] for m in spec.members if m.member_id in volumes})
        volumes = store
    return volumes.fuse([m.member_id for m in spec.members], [m.weight for m in spec.members])


def load_member_volume(member: EnsembleMember, mode: str, case_id: str, base_dir: str | Path) -> Volume:
    kind = "probabilities" if mode == "prob_avg" else "labels"
    path = member.resolve_path(case_id, base_dir)
    try:
        return read_volume(path, kind=kind, label_set=None)
    except FormatError as exc:
        raise FormatError(f"member {member.member_id}: {exc}") from exc


def combine(spec: EnsembleSpec, case_id: str, base_dir: str | Path) -> Volume:
    """Fuse every member's prediction for one case.

    Members are read in spec order, each added to one ``MemberStore`` as
    soon as it is read and then dropped, so besides the store (a consensus
    map plus each member where the members disagree) one member's volume is
    resident at a time.  Read errors come in member order; the fusion
    checks (kind, weights, grids, class counts) run on the store's metadata.
    """
    store = MemberStore(spec.mode)
    store.load(spec.members, case_id, base_dir)
    return combine_volumes(spec, store)
