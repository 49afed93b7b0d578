#!/usr/bin/env python3
"""hypcircle benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 60 --trace 0

Run from the repository root; hypcircle is imported from ./src.  The run
times the set-up (import plus parsing of the bundled dataset) in this fresh
process and in fresh child processes, builds the workload's inputs from the
seed, then repeats the workload.  The child set-up samples, the inputs and
the repetitions fit in --seconds: no repetition starts that would likely end
after them.  With --trace 0 the last line reports the end-to-end metrics;
with --trace 1 untraced and traced iterations alternate and the last line
reports the per-layer metrics.  A traced run first warms up untimed; the
warm-up counts toward --seconds.
`--workload all` runs every workload, each in its own process, one at a time.
Metric names, units and bounds live in BENCHMARK.json; NOTES.md explains them.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy can be imported, here and in children.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("orbit", "spectral")
SETUP_SAMPLES = 3
MIN_PASSES = 3  # timed passes of an untraced run, so the median drops a cold first one
SETUP_CODE = ("import time; t0 = time.perf_counter(); import hypcircle; "
              "from hypcircle.spectral import bundled_dataset; bundled_dataset(); "
              "print(time.perf_counter() - t0)")
CHILD_TIMEOUT_S = 170


def _child_setup_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=CHILD_TIMEOUT_S)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hypcircle" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a hypcircle checkout; {SRC / 'hypcircle'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    # set-up, first in this fresh process, then in fresh children
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from hypcircle.spectral import bundled_dataset
    dataset = bundled_dataset()
    setup = [time.perf_counter() - t0]
    # --seconds start here, so a run lasts about --seconds
    start = time.perf_counter()
    setup += [_child_setup_seconds() for _ in range(SETUP_SAMPLES - 1)]

    from recorder import Recorder
    from workloads import WORKLOADS

    prepare, iterate = WORKLOADS[args.workload]
    rec = Recorder(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    walls = {False: [], True: []}
    first_digest = None
    first_counters: dict = {}
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH_DIR) as tmp:
        inputs = prepare(args.seed, Path(tmp), dataset)
        # The first pass pays first touch of the heap and lazy imports (mpmath).
        # Untraced runs time it too and report the median of three or more
        # passes; a traced run warms up untimed (i = -1) so that its
        # alternating untraced and traced passes compare like with like.
        i = -1 if args.trace else 0
        while True:
            tracing = bool(args.trace) and i >= 0 and i % 2 == 1
            rec.begin(i, tracing)
            t = time.perf_counter()
            try:
                with rec.span(f"bench.{args.workload}"):
                    iterate(rec, inputs)
            except Exception as exc:  # a check could not even run: count it, go on
                rec.check("bench.iteration_completed", False, repr(exc))
            if i >= 0:
                walls[tracing].append(time.perf_counter() - t)
            # outputs and exact counters must repeat from iteration to iteration
            changed = sorted(k for k, v in rec.counters.items()
                             if first_counters.setdefault(k, v) != v)
            if first_digest is None:
                first_digest = rec.digest()
            else:
                rec.check("bench.repeatable", rec.digest() == first_digest and not changed,
                          f"digest {rec.digest()[:16]}, counters that changed: {changed or 'none'}")
            i += 1
            enough = walls[True] if args.trace else len(walls[False]) >= MIN_PASSES
            # no repetition starts that would likely end after --seconds
            typical = statistics.median(walls[False] + walls[True] or [0.0])
            if enough and time.perf_counter() - start + typical > args.seconds:
                break

    end_to_end = {
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - rec.failed / rec.attempted,
    }
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(end_to_end)
    if args.trace:
        values.update(_per_layer(rec, walls, first_counters, spec["per_layer"]))
        traces = BENCH_DIR / "traces"
        traces.mkdir(exist_ok=True)
        rec.write_spans(traces / f"{args.workload}-seed{args.seed}.json")

    print(f"workload {args.workload} seed {args.seed}: {len(walls[False])} untraced and "
          f"{len(walls[True])} traced iterations, {rec.attempted} operations, {rec.failed} failed")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units.get(name, '')}")
    for name, result in sorted(rec.checks.items()):
        print(f"check {name}: {result}")
    for name, what in rec.known_defects.items():
        print(f"known defect {name}: {what}")
    for problem in rec.problems[:20]:
        print(f"problem {problem}")
    for tracing, name in ((False, "untraced"), (True, "traced")):
        if walls[tracing]:
            print(f"{name} repetition walls (s): {' '.join(f'{w:.3f}' for w in walls[tracing])}")
    print(f"digest {first_digest}")
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }))
    return 0


def _per_layer(rec, walls, counters, wanted) -> dict:
    """Per-iteration means over the traced iterations, from spans and counters."""
    n = len(walls[True])
    stages = {f"{k}_s": v / n for k, v in rec.stage_seconds().items()}
    layers = {f"{k}.self_s": v / n for k, v in rec.self_seconds().items()}
    traced = statistics.fmean(walls[True])
    untraced = statistics.fmean(walls[False])
    listed = stages.get("counting.list_distances_s", 0.0)
    points = counters.get("counting.orbit_points", 0)
    out = {
        "bench.traced_wall_s": traced,
        "bench.untraced_wall_s": untraced,
        "bench.trace_overhead_s": traced - untraced,
        "counting.points_per_s": points / listed if listed else 0.0,
        **rec.measured, **counters, **stages, **layers,
    }
    # a stage or counter this workload never reaches reads 0
    return {m["name"]: out.get(m["name"], 0.0) for m in wanted}


if __name__ == "__main__":
    sys.exit(main())
