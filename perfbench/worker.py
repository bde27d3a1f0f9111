"""Benchmark worker: runs one workload's op list in passes through pancseg.cli.main.

It runs in its own process, started after the inputs exist, so its peak RSS
covers the workload only.  Ops run in a closed loop (each starts after the
previous one returns).  A pass is the workload's whole op list; passes repeat
until ``--seconds`` have elapsed, and at least one always runs.

With ``--trace 1`` the span tracer is installed and passes alternate between
untraced and traced, starting with an untraced pass, so every traced
op is compared byte for byte with its untraced runs and the tracing overhead
is measured in one process.  The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def sha256_file(path: str) -> str:
    # independent of pancseg's own digest, which the checks compare against
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def run_op(main, op: dict) -> dict:
    """Run one op; the clock covers only the call into the CLI."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op["argv"])
    except Exception:  # a traceback is a failed op, not a crashed benchmark
        code, err = None, io.StringIO(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    outputs = {}
    for spec in op["outputs"]:
        path = spec["path"]
        outputs[path] = sha256_file(path) if os.path.exists(path) else None
    stdout = out.getvalue()
    return {
        "name": op["name"],
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "stdout": stdout,
        "stdout_sha256": "sha256:" + hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": err.getvalue()[-2000:],
        "outputs": outputs,
    }


def run_passes(main, ops, seconds: float, tracer=None) -> list:
    """Passes until ``seconds`` have elapsed; with a tracer, alternate
    untraced and traced passes, untraced first, at least one of each."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        passes.append({"traced": traced, "ops": [run_op(main, op) for op in ops]})
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            if tracer is not None:
                tracer.enabled = False
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    import pancseg.cli

    result = {}
    if args.trace:
        import tracer as tracing

        spans = tracing.Tracer()
        tracing.install(spans)
        passes = run_passes(pancseg.cli.main, ops, args.seconds, spans)
        result["layers"] = tracing.layer_metrics(spans, sum(p["traced"] for p in passes))
    else:
        passes = run_passes(pancseg.cli.main, ops, args.seconds)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
