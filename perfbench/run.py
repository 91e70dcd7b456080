#!/usr/bin/env python3
"""Benchmark of the ``evf`` command line, end to end and per layer.

Runs one workload's fixed sequence of CLI ops in-process through
``evfaraday.cli.main``, repeated for ``--seconds`` seconds, checks every op's
outputs against their closed-form references, and prints every metric by
name with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload rotate --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer breakdown from a traced run of the same sequence.
Run it from the root of a checkout; it imports the package from ``src/``
and writes its outputs under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

#: Every timed run uses one FFT worker and one BLAS thread.  On a shared
#: host of few cores a second worker mostly waits for a CPU that another
#: tenant holds, so multi-threaded times swing with the neighbours' load.
#: The traced run measures the threaded FFT separately, as
#: fft.thread_speedup.  Set before numpy is imported, so BLAS sees it too.
BENCH_THREADS = "1"
for _name in ("EVF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS"):
    os.environ[_name] = BENCH_THREADS

sys.path.insert(0, HERE)
from spans import Instrumentation, Tracer, layer_summary  # noqa: E402
from workloads import (WORKLOADS, ClosedForms, build_ops,  # noqa: E402
                       check_op, working_set_bytes)

#: End-to-end metrics, reported with tracing off: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "ref_err": "ratio",
}

#: Per-layer metrics, reported by the traced run: name -> unit.
PER_LAYER = {
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "trace_accounted_ratio": "ratio",
    "cli.self_s": "s",
    "propagation.self_s": "s",
    "propagation.calls": "count",
    "propagation.steps": "count",
    "propagation.steps_per_plane": "count",
    "propagation.plan_s": "s",
    "propagation.plans": "count",
    "fft.calls": "count",
    "fft.busy_s": "s",
    "fft.points": "count",
    "fft.flops_computed": "FLOP",
    "fft.bytes_computed": "B",
    "fft.gflops": "GFLOP/s",
    "fft.thread_speedup": "ratio",
    "modes.self_s": "s",
    "modes.calls": "count",
    "analysis.self_s": "s",
    "analysis.calls": "count",
    "analysis.errors": "count",
    "gratings.self_s": "s",
    "gratings.calls": "count",
    "gratings.errors": "count",
    "gratings.kernel_cache_hits": "count",
    "gratings.kernel_cache_misses": "count",
    "gratings.criterion7_misses": "count",
    "fileio.self_s": "s",
    "fileio.files": "count",
    "fileio.bytes_written": "B",
}

#: Per-layer metrics that are exact counts of one sequence: they must repeat
#: between traced reps and between traced runs of the same seed.
EXACT_COUNTS = (
    "propagation.calls", "propagation.steps", "propagation.plans",
    "fft.calls", "fft.points", "fft.flops_computed", "fft.bytes_computed",
    "modes.calls", "analysis.calls", "analysis.errors", "gratings.calls",
    "gratings.errors", "gratings.kernel_cache_hits",
    "gratings.kernel_cache_misses", "gratings.criterion7_misses",
    "fileio.files", "fileio.bytes_written",
)

#: Which checked error is each workload's ref_err.
REF_ERR_SOURCE = {"rotate": "rotation_rel_err", "breathe": "width_rel_err",
                  "hologram": "focus_rel_err"}
NAMED_ERRORS = ("rotation_rel_err", "width_rel_err", "orient_err_rad",
                "focus_rel_err")

SETUP_REPEATS = 7
MIN_TIMED_REPS = 3


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import evfaraday.cli from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "evfaraday", "cli.py")):
        raise BenchError(f"no evfaraday package under {SRC}")
    sys.path.insert(0, SRC)
    import evfaraday.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"evfaraday imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import evfaraday.cli in fresh interpreters.  One untimed
    import first compiles the bytecode, as any installed copy has it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import evfaraday.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code, SRC], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def _kernel_cache():
    gratings = sys.modules.get("evfaraday.gratings")
    kernel = getattr(gratings, "_aperture_kernel", None)
    info = getattr(kernel, "cache_info", None)
    return info() if info else None


def run_sequence(cli, ops, refs, tracer: Tracer | None = None) -> dict:
    """Run every op once; returns the sequence wall time (CLI calls only)
    and one checked record per op."""
    wall = 0.0
    records = []
    cache_before = _kernel_cache()
    for op in ops:
        shutil.rmtree(op.outdir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.trace += 1
            t0 = time.perf_counter()
            root = tracer.open("cli", "main") if tracer is not None else None
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:   # an op that raises is a failed op
                rc = f"{type(exc).__name__}: {exc}"
            if root is not None:
                tracer.close(root)
            t1 = time.perf_counter()
        wall += t1 - t0
        record = check_op(op, rc, refs)
        record["files"], record["bytes"] = _tree_size(op.outdir)
        record["wall_s"] = t1 - t0
        if not record["ok"]:
            record["stderr"] = err.getvalue()[-2000:]
        records.append(record)
    cache_after = _kernel_cache()
    result = {"wall_s": wall, "records": records}
    if cache_before is not None and cache_after is not None:
        result["kernel_cache_hits"] = cache_after.hits - cache_before.hits
        result["kernel_cache_misses"] = cache_after.misses - cache_before.misses
    return result


def repeat_until(budget_s: float, min_reps: int, once) -> list:
    """Call once() at least min_reps times and, after that, while another
    call of the last call's length still fits in budget_s."""
    results = []
    start = time.perf_counter()
    last = 0.0
    while (len(results) < min_reps
           or time.perf_counter() - start + last <= budget_s):
        t0 = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - t0
    return results


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "evfaraday")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _getconf(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True,
                              text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def manifest(args, ops) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "EVF_THREADS": os.environ.get("EVF_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "working_set_bytes": working_set_bytes(args.workload),
        "ops": [op.argv for op in ops],
    }


def _named_errors(records) -> dict:
    out = {}
    for name in NAMED_ERRORS:
        values = [r[name] for r in records if name in r]
        if values:
            out[name] = max(values)
    return out


def sequence_wall(reps) -> float:
    """Wall time of the op sequence: the sum over its ops of each op's
    median over the reps, so a slow spell in one op of a rep does not
    shift the whole rep."""
    per_op = zip(*(rep["records"] for rep in reps))
    return sum(statistics.median(r["wall_s"] for r in op) for op in per_op)


def end_to_end(args, cli, ops, refs) -> tuple[dict, list, dict]:
    setup = measure_setup()
    warm = run_sequence(cli, ops, refs)               # warm-up, not timed
    reps = repeat_until(args.seconds, MIN_TIMED_REPS,
                        lambda: run_sequence(cli, ops, refs))
    records = [r for rep in [warm] + reps for r in rep["records"]]
    failed = sum(not r["ok"] for r in records)
    named = _named_errors(records)
    # an error no op could measure reads as a 100 % deviation
    ref_err = named.get(REF_ERR_SOURCE[args.workload], 1.0)
    metrics = {
        "wall_s": sequence_wall(reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - failed / len(records),
        "ref_err": ref_err,
    }
    detail = {"ops": len(ops), "reps": len(reps),
              "wall_s_samples": [rep["wall_s"] for rep in reps],
              "setup_s_samples": setup, **named}
    return metrics, records, detail


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def per_layer(args, cli, ops, refs) -> tuple[dict, list, dict, list]:
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    warm = run_sequence(cli, ops, refs)               # warm-up, not traced
    third = args.seconds / 3.0
    plain = repeat_until(third, 1, lambda: run_sequence(cli, ops, refs))

    def traced_rep():
        with instrumentation:
            rep = run_sequence(cli, ops, refs, tracer)
        rep["spans"] = tracer.take()
        layers = layer_summary(rep["spans"])
        records = rep["records"]
        layers["gratings.kernel_cache_hits"] = rep.get("kernel_cache_hits", 0)
        layers["gratings.kernel_cache_misses"] = rep.get("kernel_cache_misses", 0)
        layers["gratings.criterion7_misses"] = sum(
            bool(r.get("criterion7_miss")) for r in records)
        layers["fileio.files"] = sum(r["files"] for r in records)
        layers["fileio.bytes_written"] = sum(r["bytes"] for r in records)
        rep["layers"] = layers
        return rep

    traced = repeat_until(third, 1, traced_rep)
    with _env("EVF_THREADS", str(os.cpu_count() or 1)):
        multi = repeat_until(third, 1, traced_rep)

    def median_of(reps, key):
        return statistics.median(rep["layers"][key] for rep in reps)

    def counts(rep):
        return {key: rep["layers"][key] for key in EXACT_COUNTS}

    metrics = {key: median_of(traced, key) for key in traced[0]["layers"]}
    metrics.update(counts(traced[0]))
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    plain_wall = statistics.median(rep["wall_s"] for rep in plain)
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_s"] = traced_wall - plain_wall
    metrics["trace_accounted_ratio"] = (
        metrics.pop("traced_accounted_s") / traced_wall)
    busy = metrics["fft.busy_s"]
    multi_busy = median_of(multi, "fft.busy_s")
    metrics["fft.thread_speedup"] = (busy / multi_busy
                                     if multi_busy > 0 else 1.0)
    repeat = all(counts(rep) == counts(traced[0]) for rep in traced + multi)
    records = [r for rep in [warm] + plain + traced + multi
               for r in rep["records"]]
    spans = [s for rep in traced + multi for s in rep["spans"]]
    detail = {"ops": len(ops), "untraced_reps": len(plain),
              "traced_reps": len(traced), "multi_thread_reps": len(multi),
              "counts_repeat": repeat,
              "multi_thread_wall_s": statistics.median(
                  rep["wall_s"] for rep in multi),
              **_named_errors(records)}
    return metrics, records, detail, spans


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_package()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    refs = ClosedForms()
    outroot = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}")
    shutil.rmtree(outroot, ignore_errors=True)
    os.makedirs(outroot)
    ops = build_ops(args.workload, args.seed, os.path.join(outroot, "ops"))
    info = manifest(args, ops)

    if args.trace:
        metrics, records, detail, spans = per_layer(args, cli, ops, refs)
        units = PER_LAYER
        with open(os.path.join(outroot, "spans.jsonl"), "w") as handle:
            for span in spans:
                handle.write(json.dumps(span.to_json()) + "\n")
    else:
        metrics, records, detail = end_to_end(args, cli, ops, refs)
        units = END_TO_END
    shutil.rmtree(os.path.join(outroot, "ops"), ignore_errors=True)

    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(outroot, "result.json"), "w") as handle:
        json.dump({"manifest": info, "detail": detail, "result": result,
                   "records": records}, handle, indent=1, default=str)

    print("manifest: " + json.dumps(info))
    print(f"{'fail_ratio':>28} = {failed / len(records):.6g}")
    for r in records:
        if not r["ok"]:
            print(f"FAILED op: {r['reason']}")
    for key, value in detail.items():
        if not isinstance(value, list):
            print(f"{key:>28} = {value}")
    for name, unit in units.items():
        print(f"{name:>28} = {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
