from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from pancseg.ensemble import EnsembleMember, EnsembleSpec
from pancseg.errors import BudgetExceededError, ConfigError, FormatError, ValidationError
from pancseg.metrics import BinaryMask, CohortReport, EvalConfig
from pancseg import ensemble, selection
from pancseg.nifti import write_volume
from pancseg.selection import (
    CandidatePool,
    SubsetEvaluator,
    beam_search_subsets,
    count_subsets,
    load_pool,
    normalize_metrics,
    search_subsets,
)
from pancseg.volume import Volume

SPACING = (1.0, 1.0, 1.5)


def _report(dice, sdice, masd, hd95, rmse):
    return CohortReport(
        config=EvalConfig(),
        cases=(),
        mean_dice=dice,
        mean_surface_dice_5mm=sdice,
        mean_masd_mm=masd,
        mean_hd95_mm=hd95,
        volume_rmse=rmse,
        n_cases=1,
        n_flagged=0,
    )


def _ball(dims=(10, 10, 10), shift=(0, 0, 0), radius=3.2):
    grid = np.indices(dims).astype(np.float64)
    center = [d / 2.0 - 0.5 + s for d, s in zip(dims, shift)]
    dist2 = sum((grid[i] - center[i]) ** 2 for i in range(3))
    return (dist2 <= radius**2).astype(np.int32) * 2


def _flip(arr, rng, k):
    out = arr.reshape(-1).copy()
    idx = rng.choice(out.size, size=k, replace=False)
    out[idx] = 2 - out[idx]
    return out.reshape(arr.shape)


def _write_pool(tmp_path, predictions, references, mode="majority"):
    """predictions: {member_id: {case_id: int array}}; references: {case_id: int array}."""
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir(exist_ok=True)
    cases = []
    for case_id, arr in references.items():
        write_volume(Volume(arr, SPACING, kind="labels"), refs_dir / f"{case_id}.nii.gz")
        cases.append((case_id, f"refs/{case_id}.nii.gz"))
    members = []
    for member_id, per_case in predictions.items():
        member_dir = tmp_path / member_id
        member_dir.mkdir(exist_ok=True)
        for case_id, arr in per_case.items():
            write_volume(
                Volume(arr, SPACING, kind="labels"), member_dir / f"{case_id}.nii.gz"
            )
        members.append(EnsembleMember(member_id, f"{member_id}/{{case}}.nii.gz"))
    return CandidatePool(
        members=tuple(members), cases=tuple(cases), mode=mode, base_dir=str(tmp_path)
    )


# ---------------------------------------------------------------- normalization


def test_single_report_gets_full_credit():
    scores = normalize_metrics([_report(0.8, 0.7, 2.0, 9.0, 100.0)])
    assert scores[0].normalized == (1.0,) * 5
    assert scores[0].score == 1.0


def test_dominant_report_scores_one_and_dominated_zero():
    best = _report(0.9, 0.8, 1.0, 4.0, 50.0)
    worst = _report(0.5, 0.4, 3.0, 12.0, 400.0)
    scores = normalize_metrics([best, worst])
    assert scores[0].normalized == (1.0,) * 5
    assert scores[0].score == 1.0
    assert scores[1].normalized == (0.0,) * 5
    assert scores[1].score == 0.0


def test_minmax_interpolates_and_flips_lower_is_better():
    reports = [
        _report(0.5, 0.5, 1.0, 2.0, 10.0),
        _report(0.75, 0.5, 2.0, 2.0, 10.0),
        _report(1.0, 0.5, 3.0, 2.0, 10.0),
    ]
    scores = normalize_metrics(reports)
    assert [s.normalized[0] for s in scores] == [0.0, 0.5, 1.0]  # dice: higher wins
    assert [s.normalized[2] for s in scores] == [1.0, 0.5, 0.0]  # masd: lower wins
    # degenerate columns give everyone full credit
    assert all(s.normalized[1] == s.normalized[3] == s.normalized[4] == 1.0 for s in scores)
    want = [(d + m + 3.0) / 5.0 for d, m in [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]]
    assert [s.score for s in scores] == pytest.approx(want, abs=1e-15)


def test_rank_normalization_averages_ties():
    reports = [_report(d, 0.5, 1.0, 2.0, 10.0) for d in (0.6, 0.7, 0.7, 0.9)]
    scores = normalize_metrics(reports, norm="rank")
    assert [s.normalized[0] for s in scores] == [0.0, 0.5, 0.5, 1.0]


def test_rank_normalization_ignores_metric_rescaling():
    dices = [0.61, 0.72, 0.68, 0.95, 0.83]
    plain = normalize_metrics([_report(d, 0.5, 1.0, 2.0, 10.0) for d in dices], norm="rank")
    warped = normalize_metrics(
        [_report(np.exp(d), 0.5, 1.0, 2.0, 10.0) for d in dices], norm="rank"
    )
    assert [s.normalized[0] for s in plain] == [s.normalized[0] for s in warped]


def test_minmax_argmax_survives_affine_rescaling():
    rng = np.random.default_rng(7)
    dices = rng.uniform(0.3, 0.9, size=6)
    plain = normalize_metrics([_report(d, 0.5, 1.0, 2.0, 10.0) for d in dices])
    shifted = normalize_metrics([_report(3.0 * d + 1.0, 0.5, 1.0, 2.0, 10.0) for d in dices])
    assert np.argmax([s.score for s in plain]) == np.argmax([s.score for s in shifted])
    assert [s.normalized[0] for s in plain] == pytest.approx(
        [s.normalized[0] for s in shifted], abs=1e-12
    )


def test_custom_weights_change_the_composite():
    a = _report(1.0, 0.0, 1.0, 2.0, 10.0)
    b = _report(0.0, 1.0, 1.0, 2.0, 10.0)
    dice_only = normalize_metrics([a, b], weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    assert dice_only[0].score == 1.0 and dice_only[1].score == 0.0
    sdice_only = normalize_metrics([a, b], weights=(0.0, 1.0, 0.0, 0.0, 0.0))
    assert sdice_only[0].score == 0.0 and sdice_only[1].score == 1.0


def test_normalization_validation():
    r = _report(0.5, 0.5, 1.0, 2.0, 10.0)
    with pytest.raises(ValidationError):
        normalize_metrics([])
    with pytest.raises(ConfigError):
        normalize_metrics([r], norm="zscore")
    with pytest.raises(ConfigError):
        normalize_metrics([r], weights=(0.5, 0.5))
    with pytest.raises(ConfigError):
        normalize_metrics([r], weights=(0.6, 0.6, -0.2, 0.0, 0.0))
    with pytest.raises(ConfigError):
        normalize_metrics([r], weights=(0.3, 0.3, 0.3, 0.3, 0.3))
    with pytest.raises(ConfigError):
        normalize_metrics([r], weights=(float("nan"), 0.2, 0.2, 0.2, 0.2))
    gutted = _report(None, 0.5, 1.0, 2.0, 10.0)
    with pytest.raises(ValidationError):
        normalize_metrics([gutted])


# ---------------------------------------------------------------- pool files


def test_pool_validation():
    a = EnsembleMember("a", "pa")
    b = EnsembleMember("b", "pb")
    with pytest.raises(ConfigError):
        CandidatePool(members=(a,), cases=(("c", "r"),))
    with pytest.raises(ConfigError):
        CandidatePool(members=(a, EnsembleMember("a", "px")), cases=(("c", "r"),))
    with pytest.raises(ConfigError):
        CandidatePool(members=(a, b), cases=())
    with pytest.raises(ConfigError, match=r"duplicate case_id\(s\): \['c'\]"):
        CandidatePool(members=(a, b), cases=(("c", "r1"), ("d", "r"), ("c", "r2")))
    assert isinstance(CandidatePool(members=(b, a), cases=(("c", "r"),)), EnsembleSpec)


def test_load_pool_with_case_list(tmp_path):
    doc = {
        "mode": "majority",
        "members": [
            {"member_id": "f0", "path": "f0/{case}.nii.gz", "weight": 2.0},
            {"member_id": "f1", "path": "f1/{case}.nii.gz"},
        ],
        "cases": [{"case_id": "c1", "reference": "refs/c1.nii.gz"}],
    }
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(doc))
    pool = load_pool(path)
    assert pool.mode == "majority"
    assert pool.base_dir == str(tmp_path)
    assert [m.member_id for m in pool.members] == ["f0", "f1"]
    assert pool.members[0].weight == 2.0
    assert pool.cases == (("c1", "refs/c1.nii.gz"),)


def test_load_pool_with_manifest(tmp_path):
    (tmp_path / "val.csv").write_text(
        "case_id,reference,prediction\n"
        "c1,refs/c1.nii.gz,unused/c1.nii.gz\n"
        "c2,refs/c2.nii.gz,unused/c2.nii.gz\n"
    )
    doc = {
        "members": [
            {"member_id": "a", "path": "a/{case}.nii.gz"},
            {"member_id": "b", "path": "b/{case}.nii.gz"},
        ],
        "manifest": "val.csv",
    }
    path = tmp_path / "pool.json"
    path.write_text(json.dumps(doc))
    pool = load_pool(path)
    assert pool.cases == (("c1", "refs/c1.nii.gz"), ("c2", "refs/c2.nii.gz"))
    assert pool.mode == "prob_avg"


def test_load_pool_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(FormatError):
        load_pool(bad)

    nameless = tmp_path / "nameless.json"
    nameless.write_text(
        json.dumps({"members": [{"path": "p"}], "cases": [{"case_id": "c", "reference": "r"}]})
    )
    with pytest.raises(FormatError):
        load_pool(nameless)

    both = tmp_path / "both.json"
    both.write_text(
        json.dumps(
            {
                "members": [{"member_id": "a", "path": "p"}, {"member_id": "b", "path": "q"}],
                "cases": [{"case_id": "c", "reference": "r"}],
                "manifest": "m.csv",
            }
        )
    )
    with pytest.raises(FormatError):
        load_pool(both)

    neither = tmp_path / "neither.json"
    neither.write_text(
        json.dumps({"members": [{"member_id": "a", "path": "p"}, {"member_id": "b", "path": "q"}]})
    )
    with pytest.raises(FormatError):
        load_pool(neither)

    # the mode is checked when the pool loads, before any member file is read
    bad_mode = tmp_path / "bad_mode.json"
    bad_mode.write_text(
        json.dumps(
            {
                "mode": "bogus",
                "members": [{"member_id": "a", "path": "p"}, {"member_id": "b", "path": "q"}],
                "cases": [{"case_id": "c", "reference": "r"}],
            }
        )
    )
    with pytest.raises(ConfigError, match="bogus"):
        load_pool(bad_mode)


# ---------------------------------------------------------------- subset search


def test_count_subsets():
    assert count_subsets(5, 1, 5) == 31
    assert count_subsets(8, 2, 3) == 28 + 56


def test_search_ranks_an_exact_member_first(tmp_path, rng):
    ref = _ball()
    predictions = {
        "good": {"c1": ref.copy()},
        "off1": {"c1": _ball(shift=(2, 0, 0))},
        "off2": {"c1": _ball(shift=(0, 3, 0))},
    }
    pool = _write_pool(tmp_path, predictions, {"c1": ref})
    results = search_subsets(pool, 1, 3)
    assert len(results) == 7
    assert sorted(len(r.member_ids) for r in results) == [1, 1, 1, 2, 2, 2, 3]
    assert results[0].member_ids == ("good",)
    assert results[0].score.score == 1.0
    assert results[0].report.mean_dice == 1.0
    assert results[0].report.mean_masd_mm == 0.0
    # ranking is deterministic and strictly ordered by the tie-break key
    keys = [(-r.score.score, len(r.member_ids), r.member_ids) for r in results]
    assert keys == sorted(keys)


def test_score_ties_break_toward_fewer_members_then_ids(tmp_path):
    ref = _ball()
    same = _ball(shift=(1, 0, 0))
    predictions = {"a": {"c1": same.copy()}, "b": {"c1": same.copy()}}
    pool = _write_pool(tmp_path, predictions, {"c1": ref})
    results = search_subsets(pool, 1, 2)
    # identical prediction files make every subset's report identical
    assert [r.member_ids for r in results] == [("a",), ("b",), ("a", "b")]
    assert len({r.score.score for r in results}) == 1


def test_budget_is_enforced_before_any_io():
    members = tuple(EnsembleMember(f"m{i}", f"missing_{i}/{{case}}.nii.gz") for i in range(8))
    pool = CandidatePool(members=members, cases=(("c1", "missing_ref.nii.gz"),))
    with pytest.raises(BudgetExceededError):
        search_subsets(pool, 1, 8, budget=5)


def test_search_size_range_validation(tmp_path):
    ref = _ball()
    pool = _write_pool(tmp_path, {"a": {"c1": ref}, "b": {"c1": ref}}, {"c1": ref})
    with pytest.raises(ConfigError):
        search_subsets(pool, 0, 2)
    with pytest.raises(ConfigError):
        search_subsets(pool, 2, 1)
    with pytest.raises(ConfigError):
        search_subsets(pool, 1, 3)


def test_full_width_beam_matches_exhaustive_search(tmp_path, rng):
    ref = _ball()
    predictions = {
        f"m{i}": {"c1": _flip(ref, rng, 4 + 3 * i), "c2": _flip(_ball(radius=2.6), rng, 3 + 2 * i)}
        for i in range(4)
    }
    references = {"c1": ref, "c2": _ball(radius=2.6)}
    pool = _write_pool(tmp_path, predictions, references)
    exhaustive = search_subsets(pool, 1, 4)
    beam = beam_search_subsets(pool, size_max=4, beam_width=6)
    assert [r.member_ids for r in beam] == [r.member_ids for r in exhaustive]
    assert [r.score.score for r in beam] == pytest.approx(
        [r.score.score for r in exhaustive], abs=1e-15
    )


def test_narrow_beam_still_finds_a_dominant_member(tmp_path):
    ref = _ball()
    predictions = {
        "good": {"c1": ref.copy()},
        "off1": {"c1": _ball(shift=(2, 0, 0))},
        "off2": {"c1": _ball(shift=(0, 3, 0))},
        "off3": {"c1": _ball(shift=(0, 0, 2))},
    }
    pool = _write_pool(tmp_path, predictions, {"c1": ref})
    results = beam_search_subsets(pool, size_max=2, beam_width=1)
    assert results[0].member_ids == ("good",)
    # width-1 beam evaluates the 4 singletons plus extensions of the winner only
    sizes = [len(r.member_ids) for r in results]
    assert sizes.count(1) == 4 and sizes.count(2) == 3


def test_beam_validation(tmp_path):
    ref = _ball()
    pool = _write_pool(tmp_path, {"a": {"c1": ref}, "b": {"c1": ref}}, {"c1": ref})
    with pytest.raises(ConfigError):
        beam_search_subsets(pool, size_max=2, beam_width=0)
    with pytest.raises(ConfigError):
        beam_search_subsets(pool, size_max=3, beam_width=2)


class _Recording(SubsetEvaluator):
    def __init__(self, pool, config):
        super().__init__(pool, config)
        self.order = []

    def evaluate(self, member_ids):
        self.order.append("+".join(member_ids))
        return super().evaluate(member_ids)


# evaluate order of beam_search_subsets(pool, 4, width) on the pool below,
# pinned so that a restructured search evaluates the same subsets in the
# same order
BEAM_ORDERS = {
    1: "m0 m1 m2 m3 m4 m0+m1 m0+m2 m0+m3 m0+m4 m0+m1+m2 m0+m2+m3 m0+m2+m4 "
    "m0+m1+m2+m4 m0+m2+m3+m4",
    3: "m0 m1 m2 m3 m4 m0+m1 m0+m2 m0+m3 m0+m4 m1+m2 m1+m4 m2+m3 m2+m4 m3+m4 "
    "m0+m1+m2 m0+m1+m4 m0+m2+m3 m0+m2+m4 m0+m3+m4 m1+m2+m4 m2+m3+m4 "
    "m0+m1+m2+m3 m0+m1+m2+m4 m0+m1+m3+m4 m0+m2+m3+m4",
}


@pytest.mark.parametrize("width", sorted(BEAM_ORDERS))
def test_beam_evaluation_order_is_pinned(tmp_path, width):
    rng = np.random.default_rng(11)
    refs = {"c1": _ball(), "c2": _ball(radius=2.6)}
    predictions = {
        f"m{i}": {case: _flip(ref, rng, 6 + 5 * (3 * i % 5)) for case, ref in refs.items()}
        for i in range(5)
    }
    pool = _write_pool(tmp_path, predictions, refs)
    evaluator = _Recording(pool, EvalConfig())
    results = beam_search_subsets(pool, 4, width, evaluator=evaluator)
    assert evaluator.order == BEAM_ORDERS[width].split()
    assert sorted("+".join(r.member_ids) for r in results) == sorted(evaluator.order)


def test_evaluator_caches_reports_and_digests(tmp_path):
    ref = _ball()
    same = _ball(shift=(1, 0, 0))
    predictions = {
        "a": {"c1": same.copy()},
        "b": {"c1": same.copy()},
        "c": {"c1": _ball(shift=(0, 2, 0))},
    }
    pool = _write_pool(tmp_path, predictions, {"c1": ref})
    evaluator = SubsetEvaluator(pool, EvalConfig())
    first = evaluator.evaluate(("a", "c"))
    again = evaluator.evaluate(("c", "a"))  # order must not matter
    assert again is first
    # content-addressing: identical files share a digest, different files do not
    assert evaluator.member_digest("a") == evaluator.member_digest("b")
    assert evaluator.member_digest("a") != evaluator.member_digest("c")
    missing = CandidatePool(
        members=(EnsembleMember("x", "nope/{case}.nii.gz"), pool.members[0]),
        cases=pool.cases,
        base_dir=pool.base_dir,
    )
    with pytest.raises(FormatError, match="member x"):
        SubsetEvaluator(missing, EvalConfig()).member_digest("x")


def test_consensus_codes_are_computed_once_per_member_and_case(tmp_path, rng, monkeypatch):
    calls = []
    real = ensemble._consensus_codes

    def counting(volume):
        calls.append(volume)
        return real(volume)

    monkeypatch.setattr(ensemble, "_consensus_codes", counting)
    refs = {"c1": _ball(), "c2": _ball(shift=(1, 0, 0))}
    predictions = {
        f"m{i}": {case: _flip(ref, rng, 20) for case, ref in refs.items()} for i in range(5)
    }
    pool = _write_pool(tmp_path, predictions, refs)
    evaluator = SubsetEvaluator(pool, EvalConfig())
    results = search_subsets(pool, 1, 5, evaluator=evaluator)
    assert len(results) == 31
    assert len(calls) == 10
    beam_search_subsets(pool, 5, 2, evaluator=evaluator)
    assert len(calls) == 10


def test_reference_masks_are_built_once_per_case(tmp_path, rng, monkeypatch):
    fused, masked = [], []
    real_combine = selection.combine_volumes
    real_from_labels = BinaryMask.from_labels

    def combining(*args):
        fused.append(real_combine(*args))
        return fused[-1]

    def masking(volume, label_id):
        masked.append(volume)
        return real_from_labels(volume, label_id)

    monkeypatch.setattr(selection, "combine_volumes", combining)
    monkeypatch.setattr(BinaryMask, "from_labels", staticmethod(masking))
    refs = {"c1": _ball(), "c2": _ball(shift=(1, 0, 0))}
    predictions = {
        f"m{i}": {case: _flip(ref, rng, 20) for case, ref in refs.items()} for i in range(4)
    }
    pool = _write_pool(tmp_path, predictions, refs)
    evaluator = SubsetEvaluator(pool, EvalConfig())

    def reference_masks():
        return [v for v in masked if not any(v is f for f in fused)]

    assert len(search_subsets(pool, 1, 4, evaluator=evaluator)) == 15
    assert len(reference_masks()) == 2
    assert len(masked) == len(fused) + 2  # every fused prediction is masked once
    beam_search_subsets(pool, 4, 2, evaluator=evaluator)
    assert len(reference_masks()) == 2


def test_evaluator_holds_members_well_below_their_full_stacks(tmp_path, monkeypatch):
    dims = (128, 128, 48)
    stack_bytes = int(np.prod(dims)) * 3 * 4  # one float32 member of 3 classes
    ref = _ball(dims, radius=8.0).astype(np.uint8)
    write_volume(Volume(ref, SPACING, kind="labels"), tmp_path / "ref.nii.gz")
    shifted = {i: _ball(dims, shift=(i - 2, 0, 0), radius=8.0).astype(np.uint8) for i in range(5)}

    def load(member, mode, case_id, base_dir):
        # each member's ball is shifted along x: they disagree on its caps
        rows = np.eye(3, dtype=np.float32)[shifted[int(member.member_id[1:])]]
        return Volume(rows, SPACING, kind="probabilities")

    monkeypatch.setattr(ensemble, "load_member_volume", load)
    pool = CandidatePool(
        members=tuple(EnsembleMember(f"m{i}", "unused") for i in range(5)),
        cases=(("c1", str(tmp_path / "ref.nii.gz")),),
    )
    tracemalloc.start()
    try:
        evaluator = SubsetEvaluator(pool, EvalConfig())
        report = evaluator.evaluate([m.member_id for m in pool.members])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.mean_dice > 0.95
    # the parent kept the five stacks whole: 5 × 9.4 MB
    assert held < stack_bytes / 4
    assert peak < 3 * stack_bytes
