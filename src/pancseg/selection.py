"""Metric-aware ensemble subset search.

Every candidate subset of the member pool is combined on the validation
cases, masked, evaluated with the five challenge metrics against each case's
reference mask, and scored by a composite: each metric is normalized across
the evaluated population (min-max by default, rank optionally), aligned so
higher is always better, and the composite is the weighted mean.  Ranking
ties break toward fewer members, then lexicographic member ids, so
leaderboards are reproducible.

Min-max normalization keeps the argmax invariant under positive affine
transforms of a raw metric; rank normalization extends that to arbitrary
strictly increasing transforms.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigError, FormatError, ValidationError
from .ensemble import (
    EnsembleSpec,
    MemberStore,
    check_ids,
    combine_volumes,
    read_member_file,
)
from .metrics import (
    CASE_METRICS,
    VOLUME_RMSE,
    BinaryMask,
    CohortReport,
    EvalConfig,
    aggregate_cohort,
    evaluate_case,
    mean_field,
)
from .nifti import read_volume
from .volume import read_manifest

NORMALIZATIONS = ("minmax", "rank")

# (CohortReport attribute, higher_is_better): each per-case metric's mean, then volume RMSE
METRIC_FIELDS = tuple((mean_field(n), h) for n, h in CASE_METRICS) + ((VOLUME_RMSE, False),)

METRIC_NAMES = tuple(name for name, _ in METRIC_FIELDS)

DEFAULT_WEIGHTS = (0.2, 0.2, 0.2, 0.2, 0.2)

DEFAULT_BUDGET = 100_000

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, kw_only=True)
class CandidatePool(EnsembleSpec):
    """An ensemble spec of at least two members plus the validation cases
    its subsets are judged on; ``EnsembleSpec`` checks the members and mode."""

    cases: tuple[tuple[str, str], ...]  # (case_id, reference path)
    base_dir: str = "."  # relative member and reference paths resolve against it
    manifest: Optional[str] = None  # the manifest file the cases were read from

    def __post_init__(self):
        if len(self.members) < 2:
            raise ConfigError("a candidate pool needs at least 2 members")
        super().__post_init__()
        object.__setattr__(self, "cases", tuple((c, r) for c, r in self.cases))
        if not self.cases:
            raise ConfigError("a candidate pool needs at least one validation case")
        check_ids((c for c, _ in self.cases), "case_id")


def load_pool(path: str | Path) -> CandidatePool:
    """Parse a pool JSON file.

    Schema: {"mode": ..., "members": [...], and either "cases":
    [{"case_id", "reference"}...] or "manifest": "file.csv"} (only the
    case_id and reference columns of a manifest are used).  Relative paths
    resolve against the pool file's directory.
    """
    path = Path(path)
    doc, members = read_member_file(path, "pool file")
    base = path.parent
    if "cases" in doc and "manifest" in doc:
        raise FormatError(f"pool file {path}: give either 'cases' or 'manifest', not both")
    manifest = None
    if "cases" in doc:
        entries = doc["cases"]
        if not isinstance(entries, list) or not all(
            isinstance(e, dict)
            and isinstance(e.get("case_id"), str)
            and isinstance(e.get("reference"), str)
            for e in entries
        ):
            raise FormatError(
                f"pool file {path}: 'cases' must be a list of objects with string "
                "'case_id' and 'reference'"
            )
        cases = [(entry["case_id"], entry["reference"]) for entry in entries]
    elif "manifest" in doc:
        if not isinstance(doc["manifest"], str):
            raise FormatError(f"pool file {path}: 'manifest' must be a path string")
        manifest = str(base / doc["manifest"])
        cases = [(row.case_id, row.reference) for row in read_manifest(manifest)]
    else:
        raise FormatError(f"pool file {path}: missing 'cases' or 'manifest'")
    return CandidatePool(
        members=members,
        cases=tuple(cases),
        mode=doc.get("mode", "prob_avg"),
        base_dir=str(base),
        manifest=manifest,
    )


@dataclass(frozen=True)
class CompositeScore:
    normalized: tuple[float, ...]  # direction-aligned, one per METRIC_FIELDS entry
    score: float


@dataclass(frozen=True)
class SubsetResult:
    member_ids: tuple[str, ...]  # sorted
    report: CohortReport
    score: CompositeScore


def check_weights(weights) -> tuple[float, ...]:
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(METRIC_FIELDS):
        raise ConfigError(f"need {len(METRIC_FIELDS)} metric weights, got {len(weights)}")
    if not all(0 <= w < math.inf for w in weights):
        raise ConfigError(f"metric weights must be finite and nonnegative, got {weights}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"metric weights must sum to 1, got sum {sum(weights)}")
    return weights


def _raw_matrix(reports: Sequence[CohortReport]) -> np.ndarray:
    rows = []
    for r in reports:
        row = []
        for name, _ in METRIC_FIELDS:
            value = getattr(r, name)
            if value is None:
                raise ValidationError(
                    f"report without {name} cannot enter subset scoring "
                    "(all validation cases were excluded)"
                )
            row.append(float(value))
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


def _normalize_column(values: np.ndarray, higher_better: bool, norm: str) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        # degenerate metric: full credit for every candidate
        return np.ones_like(values)
    if norm == "minmax":
        scaled = (values - lo) / (hi - lo)
        return scaled if higher_better else 1.0 - scaled
    # rank: average ranks on ties, rescaled to [0, 1]
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    scaled = ranks / (len(values) - 1)
    return scaled if higher_better else 1.0 - scaled


def normalize_metrics(
    reports: Sequence[CohortReport],
    weights: Sequence[float] = DEFAULT_WEIGHTS,
    norm: str = "minmax",
) -> list[CompositeScore]:
    """Direction-aligned normalized metrics and composite scores, one per report."""
    if not reports:
        raise ValidationError("no reports to normalize")
    if norm not in NORMALIZATIONS:
        raise ConfigError(f"normalization must be one of {NORMALIZATIONS}, got {norm!r}")
    weights = check_weights(weights)
    raw = _raw_matrix(reports)
    columns = [
        _normalize_column(raw[:, j], higher, norm)
        for j, (_, higher) in enumerate(METRIC_FIELDS)
    ]
    normalized = np.stack(columns, axis=1)
    scores = normalized @ np.asarray(weights)
    return [
        CompositeScore(
            normalized=tuple(float(x) for x in normalized[i]),
            score=float(scores[i]),
        )
        for i in range(len(reports))
    ]


class SubsetEvaluator:
    """Loads member predictions once and evaluates subsets with caching.

    Each case keeps one ``ensemble.MemberStore``.  A (member, case)
    prediction is read lazily, the first time a subset needs it, added to
    its case's store and dropped before the next member is read, through
    the loop ``combine`` uses (``MemberStore.load``), so one member's volume
    is resident at a time.  The store holds the member's labels (or
    rows) only where the members loaded so far disagree, next to one
    consensus code map per case, so resident memory grows with that
    disagreement, not with members × cases × volume.  Every subset fuses
    through ``combine_volumes`` on the store.  The fused labels are
    bit-identical to a full-volume fusion (see ``ensemble``), and all
    per-subset checks still run per case in the same order, so a defective
    pool fails with the same error at the same subset.  Each case's
    reference is read and masked once; each fused prediction is masked and
    scored against it.

    Reports are memoized by the sorted member ids, which a pool keeps
    unique.
    """

    def __init__(self, pool: CandidatePool, config: EvalConfig):
        self.pool = pool
        self.config = config
        self.base_dir = Path(pool.base_dir)
        self._references: dict[str, BinaryMask] = {}
        self._stores: dict[str, MemberStore] = {}
        self._member_digests: dict[str, str] = {}
        self._reports: dict[tuple[str, ...], CohortReport] = {}
        self._members_by_id = {m.member_id: m for m in pool.members}

    def _reference(self, case_id: str, ref_path: str) -> BinaryMask:
        """The case's reference mask, read and masked once."""
        if case_id not in self._references:
            volume = read_volume(self.base_dir / ref_path, kind="labels")
            self._references[case_id] = BinaryMask.from_labels(volume, self.config.label_id)
        return self._references[case_id]

    def _store(self, member_ids: Sequence[str], case_id: str) -> MemberStore:
        """The case's member store, holding every member of ``member_ids``;
        each member is read once, in ``member_ids`` order."""
        store = self._stores.setdefault(case_id, MemberStore(self.pool.mode))
        store.load((self._members_by_id[mid] for mid in member_ids), case_id, self.base_dir)
        return store

    def member_digest(self, member_id: str) -> str:
        """sha256 over one member's prediction files, in pool case order."""
        if member_id not in self._member_digests:
            member = self._members_by_id[member_id]
            h = hashlib.sha256()
            for case_id, _ in self.pool.cases:
                path = member.resolve_path(case_id, self.base_dir)
                try:
                    h.update(path.read_bytes())
                except OSError as exc:
                    raise FormatError(f"member {member_id}: cannot read {path}: {exc}") from exc
            self._member_digests[member_id] = h.hexdigest()
        return self._member_digests[member_id]

    def evaluate(self, member_ids: Sequence[str]) -> CohortReport:
        member_ids = tuple(sorted(member_ids))
        if member_ids in self._reports:
            return self._reports[member_ids]
        spec = EnsembleSpec(
            members=tuple(self._members_by_id[mid] for mid in member_ids),
            mode=self.pool.mode,
        )
        cases = []
        for case_id, ref_path in self.pool.cases:
            combined = combine_volumes(spec, self._store(member_ids, case_id))
            pred = BinaryMask.from_labels(combined, self.config.label_id)
            ref = self._reference(case_id, ref_path)
            cases.append(evaluate_case(ref, pred, self.config, case_id=case_id))
        report = aggregate_cohort(cases, self.config)
        self._reports[member_ids] = report
        return report


def _rank_results(
    subsets: Sequence[tuple[str, ...]],
    reports: Sequence[CohortReport],
    weights,
    norm: str,
) -> list[SubsetResult]:
    scores = normalize_metrics(reports, weights, norm)
    results = [
        SubsetResult(member_ids=s, report=r, score=c)
        for s, r, c in zip(subsets, reports, scores)
    ]
    results.sort(key=lambda r: (-r.score.score, len(r.member_ids), r.member_ids))
    return results


def count_subsets(n_members: int, size_min: int, size_max: int) -> int:
    return sum(math.comb(n_members, k) for k in range(size_min, size_max + 1))


def _grow_subsets(evaluator, size_min, size_max, beam_width, weights, norm) -> list[SubsetResult]:
    """Rank the subsets grown one member per level from every subset of
    size_min - 1 members.  Each level evaluates the extensions of the kept
    subsets in sorted order and keeps the best beam_width of them (all when
    None) by composite score over everything evaluated so far."""
    ids = [m.member_id for m in evaluator.pool.members]
    evaluated: dict[tuple[str, ...], CohortReport] = {}

    def ranked():
        return _rank_results(list(evaluated), list(evaluated.values()), weights, norm)

    frontier = list(itertools.combinations(ids, size_min - 1))
    for _ in range(size_min, size_max + 1):
        extensions = {tuple(sorted(s + (mid,))) for s in frontier for mid in ids if mid not in s}
        for subset in sorted(extensions):
            evaluated[subset] = evaluator.evaluate(subset)
        frontier = [r.member_ids for r in ranked() if r.member_ids in extensions][:beam_width]
    return ranked()


def search_subsets(
    pool: CandidatePool,
    size_min: int,
    size_max: int,
    weights: Sequence[float] = DEFAULT_WEIGHTS,
    norm: str = "minmax",
    budget: int = DEFAULT_BUDGET,
    evaluator: Optional[SubsetEvaluator] = None,
) -> list[SubsetResult]:
    """Exhaustively rank every member subset within the size range.

    ``evaluator`` (default: a fresh one with the default ``EvalConfig``)
    holds the metric options and caches loads and reports across searches.
    """
    n = len(pool.members)
    if not 1 <= size_min <= size_max <= n:
        raise ConfigError(
            f"need 1 <= size_min <= size_max <= {n}, got ({size_min}, {size_max})"
        )
    total = count_subsets(n, size_min, size_max)
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets exceed the enumeration budget of {budget}; "
            "raise the budget or use beam search"
        )
    if evaluator is None:
        evaluator = SubsetEvaluator(pool, EvalConfig())
    return _grow_subsets(evaluator, size_min, size_max, None, weights, norm)


def beam_search_subsets(
    pool: CandidatePool,
    size_max: int,
    beam_width: int,
    weights: Sequence[float] = DEFAULT_WEIGHTS,
    norm: str = "minmax",
    evaluator: Optional[SubsetEvaluator] = None,
) -> list[SubsetResult]:
    """Greedy beam growth over subset sizes 1..size_max.

    Each level extends the kept subsets by one member, starting from the
    empty subset, and keeps the best beam_width extensions by composite
    score over everything evaluated so far.  The final ranking covers all
    evaluated subsets; with beam_width at least the number of subsets per
    level the result equals exhaustive search.  ``evaluator`` is as for
    ``search_subsets``.
    """
    n = len(pool.members)
    if beam_width < 1:
        raise ConfigError(f"beam_width must be >= 1, got {beam_width}")
    if not 1 <= size_max <= n:
        raise ConfigError(f"size_max must be in 1..{n}, got {size_max}")
    if evaluator is None:
        evaluator = SubsetEvaluator(pool, EvalConfig())
    return _grow_subsets(evaluator, 1, size_max, beam_width, weights, norm)
