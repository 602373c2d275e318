"""Run one rewindlab benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload oracle_grid --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps each module's public
functions in spans and reports the per-layer metrics instead, writing the
spans to ``.bench_trace/``.  See perfbench/README.md.
"""

import os
import sys

# Hidden thread pools run one thread each, set before numpy loads;
# REWINDLAB_THREADS stays at the program's default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REWINDLAB_THREADS", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 6  # fresh processes timing set-up, besides this one


def setup(workload: str, seed: int, out_dir: Path):
    """Import rewindlab and build the workload's inputs; returns (seconds, program, workload)."""
    start = time.perf_counter()
    program = workloads.load_program(ROOT / "src")
    built = workloads.build(workload, seed, program, out_dir)
    return time.perf_counter() - start, program, built


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, as a new process pays it."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    out_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        try:
            setup_s, program, workload = setup(args.workload, args.seed, out_dir)
        except ImportError as exc:
            print(f"cannot import rewindlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 1
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setup_times = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        if args.trace:
            tracing.install(tracer, program)
        runner = workloads.Runner(program, workload, tracer)
        records = []
        start = time.perf_counter()
        while not records or time.perf_counter() - start < args.seconds:
            gc.collect()
            records.append(runner.run_pass(len(records)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ops = [op for rec in records for op in rec.ops]
    for label, ok, ledger, detail in records[0].ops:
        if not ok:
            kind = "known fault" if ledger else "FAILED"
            print(f"{kind}: {label}: {detail}" + (f" [{ledger}]" if ledger else ""), file=sys.stderr)
    result = {
        "correct": all(ok or ledger for _, ok, ledger, _ in ops),
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _, _ in ops if not ok),
    }
    if args.trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.layer_metrics(len(records))
    else:
        metrics = end_to_end(records, setup_times)
    result["metrics"] = metrics
    print(f"{len(records)} passes, wall_s per pass {[round(r.program_s, 3) for r in records]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def end_to_end(records, setup_times) -> dict:
    def metric(value, unit):
        return {"value": value, "unit": unit}

    median = statistics.median
    return {
        "setup_s": metric(median(setup_times), "s"),
        "wall_s": metric(median(r.program_s for r in records), "s"),
        # Each case's median over passes first, so the median case stays the same case.
        "case_p50_s": metric(median(median(times) for times in zip(*(r.item_s for r in records))), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # Rates over the whole run: the per-pass Monte-Carlo and sweep times are short.
        "mc_samples_per_s": metric(sum(r.mc_samples for r in records) / sum(r.mc_s for r in records), "1/s"),
        "sweep_rows_per_s": metric(sum(r.sweep_rows for r in records) / sum(r.sweep_s for r in records), "rows/s"),
    }


if __name__ == "__main__":
    sys.exit(main())
