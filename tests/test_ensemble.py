from __future__ import annotations

import json

import numpy as np
import pytest

from pancseg.ensemble import (
    EnsembleMember,
    EnsembleSpec,
    argmax_labels,
    average_probabilities,
    combine,
    combine_volumes,
    load_ensemble_spec,
    load_member_volume,
    majority_vote,
    save_ensemble_spec,
)
from pancseg.errors import ConfigError, FormatError, GridMismatchError, ValidationError
from pancseg.nifti import read_volume, write_volume
from pancseg.volume import Volume

from conftest import probability_volume
from oracles import brute_argmax_labels, brute_majority


def _prob(data):
    return Volume(np.asarray(data, dtype=np.float64), (1, 1, 1), kind="probabilities")


def _labels(data):
    return Volume(np.asarray(data, dtype=np.int32), (1, 1, 1), kind="labels")


def test_member_validation():
    EnsembleMember("m1", "preds/m1", fold=4)
    with pytest.raises(ConfigError):
        EnsembleMember("", "p")
    with pytest.raises(ConfigError):
        EnsembleMember("m", "")
    with pytest.raises(ConfigError):
        EnsembleMember("m", "p", fold=5)
    with pytest.raises(ConfigError):
        EnsembleMember("m", "p", checkpoint="last")
    with pytest.raises(ConfigError):
        EnsembleMember("m", "p", weight=0.0)
    for weight in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError, match="finite"):
            EnsembleMember("m", "p", weight=weight)


def test_member_path_resolution(tmp_path):
    templated = EnsembleMember("m", "preds/{case}.nii.gz")
    assert templated.resolve_path("case_3", ".").as_posix() == "preds/case_3.nii.gz"
    assert templated.resolve_path("case_3", tmp_path) == tmp_path / "preds" / "case_3.nii.gz"

    pred_dir = tmp_path / "member_a"
    pred_dir.mkdir()
    directory = EnsembleMember("m", str(pred_dir))
    assert directory.resolve_path("case_9", ".") == pred_dir / "case_9.nii.gz"

    plain = EnsembleMember("m", "one_file.nii.gz")
    assert plain.resolve_path("c", ".").as_posix() == "one_file.nii.gz"
    absolute = EnsembleMember("m", "/abs/file.nii.gz")
    assert absolute.resolve_path("c", tmp_path).as_posix() == "/abs/file.nii.gz"


def test_spec_validation():
    a = EnsembleMember("a", "pa")
    b = EnsembleMember("b", "pb")
    spec = EnsembleSpec(members=(b, a))
    assert [m.member_id for m in spec.members] == ["a", "b"]
    with pytest.raises(ConfigError):
        EnsembleSpec(members=())
    with pytest.raises(ConfigError):
        EnsembleSpec(members=(a, b), mode="median")
    with pytest.raises(ConfigError):
        EnsembleSpec(members=(a, EnsembleMember("a", "other")))


def test_spec_file_round_trip(tmp_path):
    spec = EnsembleSpec(
        members=(
            EnsembleMember("f0", "preds/f0", model_tag="1000e_best", fold=0, weight=2.0),
            EnsembleMember("f3", "preds/f3", model_tag="1000e_best", fold=3, checkpoint="final"),
        ),
        mode="majority",
    )
    path = tmp_path / "spec.json"
    save_ensemble_spec(spec, path)
    back = load_ensemble_spec(path)
    assert back == spec

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(FormatError):
        load_ensemble_spec(bad)
    no_members = tmp_path / "no_members.json"
    no_members.write_text(json.dumps({"mode": "prob_avg"}))
    with pytest.raises(FormatError):
        load_ensemble_spec(no_members)
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps({"members": [{"path": "p"}]}))
    with pytest.raises(FormatError):
        load_ensemble_spec(unnamed)


def test_spec_file_members_are_held_fused_and_saved_in_member_id_order(tmp_path, rng):
    stacks = {}
    for member_id in ("z", "a"):
        stacks[member_id] = probability_volume(rng, (4, 4, 4), (1, 1, 1))
        write_volume(stacks[member_id], tmp_path / f"{member_id}.nii.gz")
    listed = [{"member_id": m, "path": f"{m}.nii.gz", "weight": w} for m, w in (("z", 3.0), ("a", 1.0))]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"members": listed}))
    spec = load_ensemble_spec(path)
    assert [m.member_id for m in spec.members] == ["a", "z"]
    fused = combine(spec, "c", tmp_path)
    want = argmax_labels(average_probabilities([stacks["a"], stacks["z"]], [1.0, 3.0]))
    assert np.array_equal(fused.data, want.data)
    save_ensemble_spec(spec, tmp_path / "saved.json")
    saved = json.loads((tmp_path / "saved.json").read_text())
    assert [m["member_id"] for m in saved["members"]] == ["a", "z"]


def test_average_probabilities_hand_case():
    a = _prob([[[[0.8, 0.2]]]])
    b = _prob([[[[0.4, 0.6]]]])
    avg = average_probabilities([a, b])
    assert np.allclose(avg.data, [[[[0.6, 0.4]]]], atol=1e-15)
    weighted = average_probabilities([a, b], weights=[3.0, 1.0])
    assert np.allclose(weighted.data, [[[[0.7, 0.3]]]], atol=1e-15)


def test_average_probabilities_renormalizes(rng):
    stacks = [probability_volume(rng, (3, 3, 3), (1, 1, 1)) for _ in range(4)]
    avg = average_probabilities(stacks, weights=[0.3, 1.2, 2.0, 0.5])
    assert np.allclose(avg.data.sum(axis=-1), 1.0, atol=1e-12)


def test_average_probabilities_validation(rng):
    a = probability_volume(rng, (3, 3, 3), (1, 1, 1))
    with pytest.raises(ValidationError):
        average_probabilities([])
    with pytest.raises(ValidationError):
        average_probabilities([_labels(np.zeros((2, 2, 2)))])
    with pytest.raises(ValidationError):
        average_probabilities([a, a], weights=[1.0])
    with pytest.raises(ValidationError):
        average_probabilities([a, a], weights=[1.0, 0.0])
    other_grid = probability_volume(rng, (3, 3, 4), (1, 1, 1))
    with pytest.raises(GridMismatchError):
        average_probabilities([a, other_grid])
    more_classes = probability_volume(rng, (3, 3, 3), (1, 1, 1), n_classes=4)
    with pytest.raises(GridMismatchError):
        average_probabilities([a, more_classes])


def test_argmax_ties_take_the_lowest_class():
    stack = _prob([[[[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]]]])
    labels = argmax_labels(stack)
    assert labels.data[0, 0, 0] == 0
    assert labels.data[0, 0, 1] == 1
    with pytest.raises(ValidationError):
        argmax_labels(_labels(np.zeros((2, 2, 2))))


def test_argmax_matches_oracle(rng):
    stack = probability_volume(rng, (4, 5, 3), (1, 1, 1), n_classes=3)
    got = argmax_labels(stack)
    assert np.array_equal(got.data, brute_argmax_labels(stack.data))


def test_majority_vote_hand_cases():
    a = _labels([[[0, 2]]])
    b = _labels([[[2, 2]]])
    c = _labels([[[2, 1]]])
    out = majority_vote([a, b, c])
    assert out.data[0, 0, 0] == 2  # two of three say tumor
    assert out.data[0, 0, 1] == 2

    # a 1-1 tie resolves to the lower label id
    tied = majority_vote([a, c])
    assert tied.data[0, 0, 0] == 0
    assert tied.data[0, 0, 1] == 1

    # weights shift the plurality
    weighted = majority_vote([a, b], weights=[3.0, 1.0])
    assert weighted.data[0, 0, 0] == 0


def test_majority_vote_matches_oracle(rng):
    for _ in range(5):
        members = [
            _labels(rng.integers(0, 3, size=(3, 4, 2)).astype(np.int32)) for _ in range(5)
        ]
        weights = [float(w) for w in rng.uniform(0.5, 2.0, size=5)]
        got = majority_vote(members, weights)
        values = sorted(set(int(v) for m in members for v in np.unique(m.data)))
        want = brute_majority([m.data for m in members], weights, values)
        assert np.array_equal(got.data, want)


def test_combine_is_permutation_invariant(rng):
    stacks = {
        f"m{i}": probability_volume(rng, (4, 4, 4), (1, 1, 1)) for i in range(4)
    }
    members = [
        EnsembleMember(mid, f"preds/{mid}", weight=float(w))
        for mid, w in zip(stacks, rng.uniform(0.5, 2.0, size=4))
    ]
    forward = EnsembleSpec(members=tuple(members))
    backward = EnsembleSpec(members=tuple(reversed(members)))
    out_f = combine_volumes(forward, stacks)
    out_b = combine_volumes(backward, stacks)
    assert np.array_equal(out_f.data, out_b.data)

    labels = {f"m{i}": _labels(rng.integers(0, 3, size=(4, 4, 4)).astype(np.int32)) for i in range(4)}
    fwd = EnsembleSpec(members=tuple(members), mode="majority")
    bwd = EnsembleSpec(members=tuple(reversed(members)), mode="majority")
    assert np.array_equal(combine_volumes(fwd, labels).data, combine_volumes(bwd, labels).data)


def test_ensembling_copies_of_one_member_is_idempotent(rng):
    stack = probability_volume(rng, (5, 4, 3), (1, 1, 1))
    single = argmax_labels(stack)
    copies = {f"c{i}": stack for i in range(3)}
    spec = EnsembleSpec(members=tuple(EnsembleMember(f"c{i}", "p") for i in range(3)))
    assert np.array_equal(combine_volumes(spec, copies).data, single.data)

    labels = _labels(rng.integers(0, 3, size=(5, 4, 3)).astype(np.int32))
    lspec = EnsembleSpec(
        members=tuple(EnsembleMember(f"c{i}", "p") for i in range(3)), mode="majority"
    )
    voted = combine_volumes(lspec, {f"c{i}": labels for i in range(3)})
    assert np.array_equal(voted.data, labels.data)


def test_prob_avg_on_one_hot_stacks_equals_majority(rng):
    n_members = 4
    labels = [rng.integers(0, 3, size=(4, 4, 4)).astype(np.int32) for _ in range(n_members)]
    weights = [float(w) for w in rng.uniform(0.5, 2.0, size=n_members)]
    stacks = []
    for arr in labels:
        onehot = np.zeros(arr.shape + (3,), dtype=np.float64)
        for c in range(3):
            onehot[..., c] = arr == c
        stacks.append(Volume(onehot, (1, 1, 1), kind="probabilities"))
    averaged = argmax_labels(average_probabilities(stacks, weights))
    voted = majority_vote([_labels(a) for a in labels], weights)
    assert np.array_equal(averaged.data, voted.data)


def test_weight_scaling_leaves_output_unchanged(rng):
    stacks = {f"m{i}": probability_volume(rng, (4, 4, 4), (1, 1, 1)) for i in range(3)}
    base_weights = [0.5, 1.25, 2.0]
    for c in (2.0, 3.0, 0.25):
        spec_a = EnsembleSpec(
            members=tuple(
                EnsembleMember(mid, "p", weight=w) for mid, w in zip(stacks, base_weights)
            )
        )
        spec_b = EnsembleSpec(
            members=tuple(
                EnsembleMember(mid, "p", weight=w * c) for mid, w in zip(stacks, base_weights)
            )
        )
        assert np.array_equal(
            combine_volumes(spec_a, stacks).data, combine_volumes(spec_b, stacks).data
        )


def test_combine_reads_member_files(tmp_path, rng):
    case_id = "case_11"
    stacks = {}
    members = []
    for i in range(3):
        member_dir = tmp_path / f"member_{i}"
        member_dir.mkdir()
        stack = probability_volume(rng, (4, 4, 4), (1, 1, 1))
        write_volume(stack, member_dir / f"{case_id}.nii.gz")
        stacks[f"m{i}"] = stack
        members.append(EnsembleMember(f"m{i}", f"member_{i}/{{case}}.nii.gz"))
    spec = EnsembleSpec(members=tuple(members))
    from_files = combine(spec, case_id=case_id, base_dir=tmp_path)
    in_memory = combine_volumes(spec, stacks)
    assert np.array_equal(from_files.data, in_memory.data)

    missing = EnsembleMember("mx", "member_x/{case}.nii.gz")
    broken = EnsembleSpec(members=(members[0], missing))
    with pytest.raises(FormatError, match="member mx"):
        combine(broken, case_id=case_id, base_dir=tmp_path)


def test_combine_volumes_requires_all_members(rng):
    spec = EnsembleSpec(members=(EnsembleMember("a", "p"), EnsembleMember("b", "p")))
    with pytest.raises(ValidationError, match="b"):
        combine_volumes(spec, {"a": probability_volume(rng, (2, 2, 2), (1, 1, 1))})


def test_load_member_volume_kind_follows_mode(tmp_path, rng):
    labels = _labels(rng.integers(0, 3, size=(3, 3, 3)).astype(np.int32))
    path = tmp_path / "m.nii.gz"
    write_volume(labels, path)
    member = EnsembleMember("m", str(path))
    vol = load_member_volume(member, "majority", "c", tmp_path)
    assert vol.kind == "labels"
    with pytest.raises(FormatError, match="member m"):
        load_member_volume(member, "prob_avg", "c", tmp_path)  # 3D file cannot be probabilities


@pytest.mark.parametrize(
    "weights",
    [
        [float("inf"), 1.0],
        [1.0, float("nan")],
        [-float("inf"), 1.0],
        [1e308, 1e308],  # finite weights whose sum overflows
    ],
)
def test_non_finite_weights_are_rejected(rng, weights):
    a = _labels(rng.integers(0, 3, size=(3, 3, 3)))
    b = _labels(rng.integers(0, 3, size=(3, 3, 3)))
    with pytest.raises(ValidationError, match="finite"):
        majority_vote([a, b], weights)
    p = probability_volume(rng, (3, 3, 3), (1, 1, 1))
    with pytest.raises(ValidationError, match="finite"):
        average_probabilities([p, p], weights)


def test_consensus_codes():
    stack = _prob(
        [
            [
                [[0.0, 1.0, 0.0], [-0.0, 0.0, 1.0]],  # one-hot, a signed zero is zero
                [[1.0 - 2**-24, 2**-24, 0.0], [0.0, 0.0, 1.0 + 1e-7]],  # near one-hot
            ]
        ]
    )
    assert stack.consensus_codes.tolist() == [[[1, 2], [-1, -1]]]
    assert stack.consensus_codes.dtype == np.int8
    assert not stack.consensus_codes.flags.writeable
    labels = _labels([[[0, 2], [1, 0]]])
    assert labels.consensus_codes is labels.data
    with pytest.raises(ValidationError):
        Volume(np.zeros((2, 2, 2)), (1, 1, 1), kind="image").consensus_codes


def test_settled_voxels_skip_fusion_but_not_validation():
    # members agree on exact one-hot voxels everywhere except one voxel whose
    # renormalized average drops below -1e-6; the error must still surface
    onehot = np.zeros((2, 2, 2, 3))
    onehot[..., 0] = 1.0
    edge = onehot.copy()
    edge[1, 0, 1] = [1.0 - 5e-6, 0.0, -1e-6]
    spec = EnsembleSpec(members=(EnsembleMember("a", "p"), EnsembleMember("b", "p")))
    with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
        combine_volumes(spec, {"a": _prob(edge), "b": _prob(edge)})
    assert (combine_volumes(spec, {"a": _prob(onehot), "b": _prob(onehot)}).data == 0).all()


def test_majority_vote_holds_a_label_only_the_wider_member_can(tmp_path):
    # label 300 of a uint16 member outvotes a uint8 member; in a uint8 map it
    # would wrap to 44
    low = Volume(np.full((4, 2, 2), 2, dtype=np.uint8), (1, 1, 1), kind="labels")
    high = np.full((4, 2, 2), 2, dtype=np.uint16)  # slabs 0 and 1 settle on 2
    high[2] = 300
    high[3] = 0
    high = Volume(high, (1, 1, 1), kind="labels")
    want = high.data
    for ids in (("a", "b"), ("b", "a")):  # either member reduced first
        members = (EnsembleMember(ids[0], "p", weight=1.0), EnsembleMember(ids[1], "p", weight=2.0))
        spec = EnsembleSpec(members=members, mode="majority")
        fused = combine_volumes(spec, {ids[0]: low, ids[1]: high})
        assert fused.data.dtype == np.uint16
        assert np.array_equal(fused.data, want)
    path = tmp_path / "fused.nii.gz"
    write_volume(fused, path)
    assert np.array_equal(read_volume(path, kind="labels", label_set=None).data, want)


def test_fusing_narrow_inputs_gives_a_narrow_map(rng):
    members = [
        Volume(rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8), (1, 1, 1), kind="labels")
        for _ in range(3)
    ]
    fused = majority_vote(members)
    assert fused.data.dtype == np.uint8
    mixed = [members[0].with_data(members[0].data.astype(np.uint64)), members[1]]
    mixed.append(members[2].with_data(members[2].data.astype(np.int8)))
    assert majority_vote(mixed).data.dtype == np.uint64
    assert np.array_equal(majority_vote(mixed).data, fused.data)
    values = sorted(set(int(v) for m in members for v in np.unique(m.data)))
    assert np.array_equal(fused.data, brute_majority([m.data for m in members], [1.0] * 3, values))
    for n_classes, dtype in ((3, np.uint8), (256, np.uint8), (257, np.int32)):
        stacks = {
            f"m{i}": probability_volume(rng, (3, 2, 2), (1, 1, 1), n_classes=n_classes)
            for i in range(3)
        }
        spec = EnsembleSpec(members=tuple(EnsembleMember(k, "p") for k in stacks))
        fused = combine_volumes(spec, stacks)
        averaged = argmax_labels(average_probabilities(list(stacks.values())))
        assert fused.data.dtype == averaged.data.dtype == dtype
        assert np.array_equal(fused.data, averaged.data)
