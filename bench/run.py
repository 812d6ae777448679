"""Benchmark of the hvdcopf study stack: three workloads, one command.

    python3 bench/run.py --workload nls-4kv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The command sets up the workload, then runs closed-loop
passes (one timed call each) until `--seconds` have passed, checks every
result row, and prints one JSON record with behaviour fields and the
environment, then, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (tracing off). With
`--trace 1` passes alternate untraced and traced, the metrics are the
per-layer ones from the traced passes, and the spans go to
`bench/results/spans-<workload>-seed<seed>.jsonl`. What the workloads and
metrics mean is in `bench/NOTES.md`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS is pinned to one thread before numpy is imported, here and in the
# set-up probes, which inherit the environment.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 5


def _import_package():
    """Import hvdcopf from this checkout's src/, never from elsewhere."""
    if not (SRC / "hvdcopf" / "__init__.py").is_file():
        sys.exit(f"bench: no hvdcopf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hvdcopf

    if Path(hvdcopf.__file__).resolve().parent != (SRC / "hvdcopf").resolve():
        sys.exit(f"bench: imported hvdcopf from {hvdcopf.__file__}, not from {SRC}")
    return hvdcopf


def setup_probe(workload: str, seed: int) -> None:
    """Print the time to import hvdcopf, build the workload grid and validate it."""
    t0 = time.perf_counter()
    _import_package()
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(seed)
    print(repr(time.perf_counter() - t0))


def _setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _environment(hvdcopf) -> dict:
    import numpy
    import scipy

    sha = None  # a checkout that is not its own git repository has no SHA
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, timeout=10).stdout.split()
    except OSError:
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        sha = out[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hvdcopf": hvdcopf.__version__,
        "git_sha": sha,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_passes(workload, state, seconds: float, tracer):
    """Closed loop: one timed call per pass until the next would overrun `seconds`.

    Every pass is checked; with a tracer, odd passes are traced.
    """
    from workloads import Capture, PassResult

    out_dir = RESULTS / f"{workload.name}-out"
    passes, rows_failed = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # garbage of the previous pass is not this pass's work
        with Capture() as capture:
            if traced:
                tracer.pass_id = len(passes)
                tracer.install()
            try:
                t = time.perf_counter()
                output = workload.run(state, out_dir)
                study_s = time.perf_counter() - t
            finally:
                if traced:
                    tracer.uninstall()
        result = PassResult(output, capture)
        rows = workload.check(result)
        rows_failed += [bool(reasons) for reasons in rows]
        passes.append({
            "study_s": study_s,
            "traced": traced,
            "bytes_written": sum(p.stat().st_size for p in getattr(output, "files", [])),
            "behaviour": workload.behaviour(result),
            "failures": [r for reasons in rows for r in reasons],
        })
        # at least one pass, two when tracing (one untraced, one traced)
        longest = max(p["study_s"] for p in passes)
        if time.perf_counter() - start + longest > seconds and len(passes) >= (2 if tracer else 1):
            return passes, rows_failed


def _layer_report(tracer, passes, spans_file: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and the trace summary."""
    import tracing

    traced = [i for i, p in enumerate(passes) if p["traced"]]
    per_pass = [tracing.pass_metrics([s for s in tracer.spans if s.pass_id == i]) for i in traced]
    # counts repeat exactly, so they come from the first traced pass;
    # times are the median over traced passes
    metrics = {name: value if isinstance(value, int) else statistics.median(m[name] for m in per_pass)
               for name, value in per_pass[0].items()}
    solve_ms = [1000.0 * s.duration for s in tracer.spans if s.name == "ipm.solve"]
    tail_p, tail_ms = tracing.tail(solve_ms) if solve_ms else (50.0, 0.0)
    metrics.update(tracing.setup_metrics([s for s in tracer.spans if s.pass_id == -1]))
    metrics.update({
        "ipm.solve_ms_p50": tracing.percentile(solve_ms, 50.0) if solve_ms else 0.0,
        "ipm.solve_ms_tail": tail_ms,
        "studies.bytes_written": passes[traced[0]]["bytes_written"],
    })
    pass_spans = [s for s in tracer.spans if s.pass_id >= 0]
    median_s = lambda want: statistics.median(p["study_s"] for p in passes if p["traced"] == want)
    summary = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "solve_ms_tail_percentile": tail_p,
        "solve_ms_samples": len(solve_ms),
        "overhead_s": median_s(True) - median_s(False),
        "self_s_by_layer": tracing.self_time_by(pass_spans, lambda s: s.layer),
        "self_s_by_span": tracing.self_time_by(pass_spans, lambda s: s.name),
    }
    return metrics, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    hvdcopf = _import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup_samples = _setup_samples(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer:  # set-up spans (pass id -1), repeated like the set-up probes
        tracer.install()
        for _ in range(SETUP_PROBES):
            state = workload.setup(args.seed)
        tracer.uninstall()
    else:
        state = workload.setup(args.seed)
    passes, rows_failed = _run_passes(workload, state, args.seconds, tracer)

    attempted, failed = len(rows_failed), sum(rows_failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(hvdcopf),
        "setup_samples_s": setup_samples,
        "failed_ratio": failed / attempted,
        "passes": passes,
    }
    if tracer:
        spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file, t0)
        metrics, record["tracing"] = _layer_report(tracer, passes, spans_file)
        registered = _registered("per_layer")
    else:
        metrics = {
            "study_s": statistics.median(p["study_s"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": _peak_rss_mb(),
        }
        registered = _registered("end_to_end")
    record["metrics"] = metrics

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in registered},
    }))
    return 0


def _registered(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


if __name__ == "__main__":
    sys.exit(main())
