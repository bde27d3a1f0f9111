"""pancseg benchmark: eval-cohort, select and transform-write workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up generates the workload's synthetic
phantoms from ``--seed`` (nothing is downloaded) in a separate process, three
times, and reports the median as ``setup_s``.  A worker process then drives
the workload's fixed op list through ``pancseg.cli.main`` in a closed loop for
``--seconds`` seconds; its peak RSS covers the workload only.  Every op of
every pass is checked, and the last stdout line is the result object:

- ``--trace 0``: ``wall_s`` and ``cpu_s`` (median of the per-pass sums, user
  plus system CPU of all threads), ``peak_rss_mb`` and ``setup_s``;
- ``--trace 1``: the per-layer metrics named in ``BENCHMARK.json``, per
  traced pass (see ``tracer.py``).  Passes alternate untraced and traced,
  untraced first; ``trace.overhead_s`` is the traced minus the untraced
  median pass time, leaving out the first (warm-up) pass when another
  untraced pass exists.  Layers a workload does not reach read 0.

Checks that count an op as failed: a non-zero exit or a traceback; stdout or
output-file digests differing from the first pass (the first pass is untraced,
so traced ops are compared against untraced ones); input digests in the
report's provenance differing from the generated files; output digests in the
report differing from the files; known answers from the generator (tumor
volumes equal voxel count times voxel volume, the empty prediction is flagged
``penalized``, ``n_evaluated`` is 31); written volumes that do not read back
with the ``target_grid`` dims or that hold a label absent from their inputs.

The line before the result records the environment, input sizes, sample
counts and per-pass times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("eval-cohort", "select", "transform-write")
SETUP_REPS = 3
TIME_LIMIT_S = 170.0
REL_TOL = 1e-8


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed op)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(cmd, cwd, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def set_up(workload: str, seed: int, size: str, work: Path, deadline: float):
    """Generate the inputs SETUP_REPS times; keep the last copy."""
    plans = []
    for rep in range(SETUP_REPS):
        out = work / f"inputs-{rep}"
        cmd = [
            sys.executable, str(BENCH_DIR / "phantoms.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out), "--size", size,
        ]
        plans.append(json.loads(_run_child(cmd, ROOT, deadline).splitlines()[-1]))
        if rep:
            if plans[rep]["inputs"] != plans[0]["inputs"]:
                raise BenchError("the same seed generated different inputs")
            shutil.rmtree(work / f"inputs-{rep - 1}")
    return plans[-1], work / f"inputs-{SETUP_REPS - 1}", [p["setup_s"] for p in plans]


def run_worker(plan_path: Path, inputs: Path, seconds: float, trace: int, deadline: float) -> dict:
    result_path = plan_path.with_name("result.json")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--plan", str(plan_path), "--seconds", str(seconds),
        "--trace", str(trace), "--result", str(result_path),
    ]
    _run_child(cmd, inputs, deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# -------------------------------------------------------------------- checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def report_problems(workload: str, plan: dict, rec: dict) -> list[str]:
    """Known-answer checks on one op's stdout document."""
    try:
        return _report_problems(workload, plan, rec, json.loads(rec["stdout"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{rec['name']}: unexpected stdout document ({exc!r})"]


def _report_problems(workload: str, plan: dict, rec: dict, doc: dict) -> list[str]:
    problems = []
    for path, digest in doc["provenance"]["inputs"].items():
        known = plan["inputs"].get(os.path.normpath(path))
        if known is None or known["sha256"] != digest:
            problems.append(f"{rec['name']}: provenance digest of {path} is wrong")
    for path, digest in doc.get("outputs", {}).items():
        if rec["outputs"].get(os.path.normpath(path)) != digest:
            problems.append(f"{rec['name']}: reported digest of {path} does not match the file")
    if workload == "eval-cohort":
        cases = {c["case_id"]: c for c in doc["cases"]}
        for case_id, want in plan["expected"]["cases"].items():
            got = cases.get(case_id)
            if got is None:
                problems.append(f"case {case_id} missing from the report")
                continue
            for key in ("volume_ref_mm3", "volume_pred_mm3"):
                if not _close(got[key], want[key]):
                    problems.append(f"{case_id}: {key} {got[key]} != {want[key]}")
            if ("penalized" in got["flags"]) != want["penalized"]:
                problems.append(f"{case_id}: flags {got['flags']}")
    elif workload == "select":
        if doc["n_evaluated"] != plan["expected"]["n_evaluated"]:
            problems.append(f"select: n_evaluated {doc['n_evaluated']}")
    return problems


def output_problems(spec: dict, inputs: Path) -> list[str]:
    """Read a written volume back: grid from target_grid, labels from the inputs."""
    import numpy as np
    from pancseg.errors import PancsegError
    from pancseg.geometry import target_grid
    from pancseg.nifti import read_volume

    try:
        vol = read_volume(inputs / spec["path"], kind=spec["kind"], label_set=None)
    except PancsegError as exc:
        return [f"{spec['path']}: does not read back ({exc})"]
    if "resampled_from" in spec:
        src = spec["resampled_from"]
        dims = target_grid(src["dims"], src["spacing"], src["target"])
    else:
        dims = tuple(spec["dims"])
    problems = []
    if vol.dims != tuple(dims):
        problems.append(f"{spec['path']}: dims {vol.dims} != {tuple(dims)}")
    if spec["kind"] == "labels":
        extra = set(np.unique(vol.data).tolist()) - set(spec["labels"])
        if extra:
            problems.append(f"{spec['path']}: labels {sorted(extra)} not in the inputs")
    return problems


def count_failures(workload: str, plan: dict, passes: list, inputs: Path):
    """(attempted, failed, problems) over every op of every pass."""
    attempted = failed = 0
    problems: list[str] = []
    for i, op in enumerate(plan["ops"]):
        first = passes[0]["ops"][i]
        if first["exit"] != 0:
            base = [f"{op['name']}: exit {first['exit']}: {first['stderr']}"]
        else:
            base = report_problems(workload, plan, first)
            for spec in op["outputs"]:
                base += output_problems(spec, inputs)
        problems += base
        for n, p in enumerate(passes):
            rec = p["ops"][i]
            attempted += 1
            drift = (
                rec["exit"] != first["exit"]
                or rec["stdout_sha256"] != first["stdout_sha256"]
                or rec["outputs"] != first["outputs"]
            )
            if drift:
                problems.append(f"{op['name']}: pass {n} (traced={p['traced']}) differs from pass 0")
            if base or drift:
                failed += 1
    return attempted, failed, problems


# ------------------------------------------------------------------- metrics


def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def pass_sums(passes: list, key: str, traced=None) -> list[float]:
    """Per-pass sums of an op field, optionally only (un)traced passes."""
    return [
        sum(op[key] for op in p["ops"])
        for p in passes
        if traced is None or p["traced"] == traced
    ]


def end_to_end(result: dict, setup_times: list) -> dict:
    values = {
        "wall_s": statistics.median(pass_sums(result["passes"], "wall_s", False)),
        "cpu_s": statistics.median(pass_sums(result["passes"], "cpu_s", False)),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics("end_to_end")}


def per_layer(result: dict, attempted: int, failed: int) -> dict:
    values = dict(result["layers"])
    untraced_times = pass_sums(result["passes"], "wall_s", False)
    untraced = statistics.median(untraced_times[1:] or untraced_times)
    traced = statistics.median(pass_sums(result["passes"], "wall_s", True))
    values.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.passes": float(sum(p["traced"] for p in result["passes"])),
        "failed_ratio": failed / attempted,
    })
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared_metrics("per_layer")
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Set up, run and check one workload; return the record and the result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan, inputs, setup_times = set_up(workload, seed, size, work, deadline)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        result = run_worker(plan_path, inputs, seconds, trace, deadline)
        attempted, failed, problems = count_failures(workload, plan, result["passes"], inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = per_layer(result, attempted, failed)
    else:
        metrics = end_to_end(result, setup_times)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "env": environment(),
        "inputs": {
            "voxels": plan["voxels"],
            "compressed_bytes": sum(f["bytes"] for f in plan["inputs"].values()),
            "files": len(plan["inputs"]),
            "ops_per_pass": len(plan["ops"]),
        },
        "samples": {"passes": len(result["passes"]), "setup_reps": len(setup_times)},
        "pass_traced": [p["traced"] for p in result["passes"]],
        "pass_wall_s": pass_sums(result["passes"], "wall_s"),
        "pass_cpu_s": pass_sums(result["passes"], "cpu_s"),
        "setup_s": setup_times,
        "problems": problems[:20],
    }
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"record": record, "result": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pancseg" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no pancseg sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks read outputs back with pancseg
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    sys.stdout.write(json.dumps({"record": out["record"]}) + "\n")
    sys.stdout.write(json.dumps(out["result"]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
