#!/usr/bin/env python3
"""Benchmark of the attnmine CLI pipeline: train, fine-tune and mine.

Usage:
    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in one fresh single-threaded process.  The process
repeats the workload's timed CLI stages for ``--seconds`` seconds,
checking every stage's outputs.  Between them it times set-ups: each
one generates the data from the seed with ``attnmine gen-data``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer
metrics and the kernel microbenchmark.  The last line of standard
output is one JSON object; metric names and units are those of the
repository's BENCHMARK.json.  ``--workload all`` runs every workload,
one child process after another.
"""

import os

# BLAS and OpenMP size their thread pools when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# a set-up is one gen-data call of 0.1 to 0.3 s, so many are timed
SETUP_REPS = 31
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 900


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=None, help="default: the pinned seed")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    return spec, json.loads((BENCH_DIR / "digests.json").read_text())


def import_program():
    """Import attnmine from this checkout's source tree, never from elsewhere."""
    if not (SRC / "attnmine" / "cli.py").is_file():
        raise BenchError(f"no attnmine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import attnmine

    if Path(attnmine.__file__).resolve().parent != SRC / "attnmine":
        raise BenchError(f"attnmine imported from {attnmine.__file__}, not {SRC}")


def blas_runtime_config():
    """OpenBLAS's own description of itself, with the core it chose at run time.

    A DYNAMIC_ARCH build picks its kernels for the CPU it runs on, and
    numpy's build record names only the core it was built for.
    Returns None when numpy's OpenBLAS cannot be found.
    """
    import ctypes

    import numpy as np

    here = Path(np.__file__).resolve().parent
    for lib_path in sorted([*(here.parent / "numpy.libs").glob("*openblas*.so*"),
                            *(here / ".libs").glob("*openblas*.so*")]):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def numerics():
    """What decides the rounding of the program's float64 arithmetic.

    Checkpoints, heatmaps and reports are hashed bit for bit, so their
    pinned digests hold only where numpy, its SIMD kernels and the BLAS
    kernels are the same as where they were pinned.
    """
    import numpy as np

    return {
        "numpy": np.__version__,
        "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "blas": blas_runtime_config(),
    }


def pinned_digests(digests, seed, workload):
    """(digests to compare, note for the report) for this seed and host."""
    if seed != digests["seed"]:
        return None, f"no digest is pinned at seed {seed}"
    pinned = digests["workloads"][workload.name]
    here = numerics()
    if here["blas"] is not None and here == digests["numerics"]:
        return pinned, "every stage compared with its pinned digest"
    # the generated data depend only on numpy's random streams
    return {"gen-data": pinned["gen-data"]}, (
        "pinned digests not comparable on this BLAS build: only gen-data compared, "
        f"numerics here {json.dumps(here)}")


def environment(seed, workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas_runtime_config(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "workload": workload.name,
        "config": workload.config,
    }


def run_stages(run, gate, stages, out_dir, span=None):
    """Call and check each CLI stage in turn; returns {stage: seconds}."""
    seconds = {}
    for stage in stages:
        out = out_dir / stage
        rc, seconds[stage], log = run.call(stage, out, span)
        gate.check(stage, rc, out, log)
    return seconds


def describe(values, unit, kind):
    n = len(values)
    text = f"median of {n} {kind}, min {min(values):.4g} max {max(values):.4g} {unit}"
    return text + ("; no tail percentile (fewer than 20 samples)" if n < 20 else "")


def _fsync(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def remove_outputs(paths, parent):
    """Delete run outputs, then fsync their parent directory.

    The fsync commits the deletions before the next timed stage starts.
    Otherwise the filesystem commits them, and discards the freed
    blocks, during whatever is being timed a few seconds later.
    """
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)
    _fsync(parent)


def commit_tree(root):
    """fsync every file and directory under `root`, and `root`'s parent.

    Writes left in the page cache are otherwise written back during
    whatever is being timed next.
    """
    for d, _, files in os.walk(root):
        for name in files:
            _fsync(os.path.join(d, name))
        _fsync(d)
    _fsync(os.path.dirname(root))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload, seed, seconds, trace, pinned, pin_note):
    # these modules import attnmine, which import_program puts on the path
    from kernels import op_metrics
    from spans import Tracer, layer_metrics
    from workloads import Gate, Run

    from attnmine.cli import RunConfig

    work_dir = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-trace{trace}"
    work_dir.parent.mkdir(exist_ok=True)
    remove_outputs([work_dir], work_dir.parent)
    run = Run(workload, seed, work_dir)
    commit_tree(work_dir)
    gate = Gate(workload, pinned)
    tracer = Tracer() if trace else None
    span = tracer.span if trace else None

    setup_s = []

    def set_up():
        """One timed gen-data call; its data feed the iterations that follow."""
        k = len(setup_s)
        setup_dir = work_dir / f"setup{k}"
        if trace:
            tracer.iteration = f"setup{k}"
            tracer.install()
        try:
            setup_s.append(run_stages(run, gate, ["gen-data"], setup_dir, span)["gen-data"])
        finally:
            if trace:
                tracer.restore()
                tracer.settle()
        # whatever is timed next starts with nothing of this set-up, or of
        # the one it replaces, left to write back
        commit_tree(setup_dir)
        if k:
            remove_outputs([work_dir / f"setup{k - 1}"], work_dir)

    # The host's speed drifts over seconds, so set-ups are spread evenly
    # over the iterations instead of timed in one block before them:
    # setup_s then samples the same stretch of time as pipeline_s.
    set_up()
    plain, traced = [], []
    measured_s = 0.0
    i = 0
    while (measured_s < seconds or len(plain) < MIN_ITERATIONS
           or (trace and len(traced) < MIN_ITERATIONS)):
        if gate.failed and plain and (traced or not trace):
            break
        start = time.perf_counter()
        traced_now = trace and i % 2 == 1
        out_dir = work_dir / f"iter{i}"
        if traced_now:
            tracer.iteration = f"iter{i}"
            tracer.install()
        try:
            times = run_stages(run, gate, workload.pipeline, out_dir, span if traced_now else None)
        finally:
            if traced_now:
                tracer.restore()
                tracer.settle()
        (traced if traced_now else plain).append(times)
        remove_outputs([out_dir], work_dir)
        i += 1
        measured_s += time.perf_counter() - start
        while len(setup_s) < min(SETUP_REPS, math.ceil(SETUP_REPS * measured_s / seconds)):
            set_up()
    while len(setup_s) < SETUP_REPS:
        set_up()

    pipeline = [sum(t.values()) for t in plain]
    stage_s = [t[workload.throughput_stage] for t in plain]
    results = {}
    if not trace:
        results["setup_s"] = (statistics.median(setup_s), describe(setup_s, "s", "set-ups"))
        results["pipeline_s"] = (statistics.median(pipeline), describe(pipeline, "s", "iterations"))
        results["img_per_s"] = (
            workload.work() / statistics.median(stage_s),
            f"{workload.throughput_label}: {workload.work()} images over the median "
            f"'{workload.throughput_stage}' stage, {workload.work_unit}; "
            + describe(stage_s, "s", "iterations"),
        )
    else:
        c = workload.config
        results.update(layer_metrics(
            tracer,
            [f"setup{k}" for k in range(SETUP_REPS)],
            [f"iter{j}" for j in range(1, i, 2)],
            c["train_count"] * c.get("finetune_epochs", 0),
        ))
        traced_pipeline = statistics.median(sum(t.values()) for t in traced)
        results["trace.overhead_ratio"] = (
            traced_pipeline / statistics.median(pipeline),
            f"traced {traced_pipeline:.4f} s over untraced {statistics.median(pipeline):.4f} s "
            f"pipeline_s, {len(traced)} and {len(plain)} iterations",
        )
        results["peak_rss_mb"] = (peak_rss_mb(), "ru_maxrss after set-up and iterations")
        rc = RunConfig(**workload.config)
        results.update(op_metrics(rc.backbone_config(), rc.batch_size, rc.image_size, seed))
        tracer.write(work_dir / "spans.jsonl")

    remove_outputs([work_dir / f"setup{SETUP_REPS - 1}"], work_dir)
    summary = {
        "peak_rss_mb": peak_rss_mb(),
        "iterations": len(plain) + len(traced),
        "measured_s": measured_s,
        "fingerprints": gate.first,
        "pinned": pinned,
        "pin_note": pin_note,
        "problems": gate.problems,
    }
    return results, gate, summary


def emit(workload, seed, trace, env, results, gate, summary, spec):
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(results):
        raise BenchError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(results))}, extra {sorted(set(results) - set(units))}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"# workload {workload.name}, seed {seed}, trace {trace}: {why}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {summary['iterations']} iterations in {summary['measured_s']:.1f} s")
    print(f"# pinned digests: {summary['pin_note']}")
    for stage, digest in summary["fingerprints"].items():
        if stage not in (summary["pinned"] or {}):
            pin = "not compared"
        else:
            pin = "pinned" if summary["pinned"][stage] == digest else "NOT the pinned digest"
        print(f"# fingerprint {stage} {digest} ({pin})")
    for problem in summary["problems"]:
        print(f"# FAILED {problem}")
    print(f"# operations: {gate.attempted} CLI stage calls attempted, {gate.failed} failed")
    print("# waiting time: none to report; one thread, no queues")
    print(f"# peak RSS {summary['peak_rss_mb']:.1f} MB (ru_maxrss of this process so far)")
    for m in spec[section]:
        value, detail = results[m["name"]]
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']:<8} {detail}")
    metrics = {m["name"]: {"value": results[m["name"]][0], "unit": m["unit"]} for m in spec[section]}
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))


def run_all(args, spec):
    """Every workload in its own child process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise BenchError(f"workload {w['name']} exited {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{w['name']}/{name}"] = metric
    print(json.dumps(total))


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
        spec, digests = load_spec()
        if args.workload == "all":
            run_all(args, spec)
            return 0
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        seed = digests["seed"] if args.seed is None else args.seed
        pinned, pin_note = pinned_digests(digests, seed, workload)
        env = environment(seed, workload)
        results, gate, summary = run_workload(workload, seed, args.seconds, args.trace, pinned, pin_note)
        emit(workload, seed, args.trace, env, results, gate, summary, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
