"""Benchmark of the realise -> certify -> identify path of spherebundles.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

One process, one thread: the package is imported from ``src/`` and called
in-process.  A run sets up (see ``setup_once``), then repeats whole
rounds of the workload until ``--seconds`` of program time have been timed,
checks every output with the benchmark's own code, and prints each metric
by name and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones plus ``trace.overhead_s``.  ``--write-spec`` writes BENCHMARK.json.
The full record of a run goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# Fewest set-ups per run; the median of all of them is reported.
SETUP_REPS = 5

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import spherebundles\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time of ``import spherebundles`` in a fresh interpreter.

    A module is imported once per process, so each repetition needs its own
    short-lived interpreter; it runs alone and is waited for.  Interpreter
    start-up is not counted.
    """
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_once(workload, sb, seed: int):
    """One set-up: (import time + time to build the inputs, the inputs)."""
    took_import = import_seconds()
    start = perf_counter()
    inputs = workload.build_inputs(sb, seed)
    return took_import + perf_counter() - start, inputs


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spherebundles as sb

    if Path(sb.__file__).resolve().parent != SRC / "spherebundles":
        raise SystemExit(f"spherebundles imported from {sb.__file__}, not from {SRC}")
    workdir = OUT / f"work-{name}-{seed}-{'trace' if trace else 'plain'}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, workdir)

    # Set-up is repeated before every round and at least SETUP_REPS times, so
    # that its median samples the machine over the whole run, not one moment.
    took, inputs = setup_once(workload, sb, seed)
    setup_samples = [took]

    # Rounds run while the next one, taking as long as the last, still fits
    # in ``seconds`` of timed work; a run makes at least one round (two when
    # traced, one plain and one traced).
    tracer = Tracer() if trace else None
    rounds = []
    timed = 0.0
    while len(rounds) < (2 if trace else 1) or timed + rounds[-1][1].work <= seconds:
        if rounds:
            setup_samples.append(setup_once(workload, sb, seed)[0])
        traced = trace and len(rounds) % 2 == 1
        gc.collect()
        clock = workloads.Clock()
        if traced:
            tracer.install()
        try:
            workload.run_round(sb, inputs, clock)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, clock, tracer.collect() if traced else None))
        timed += clock.work
    while len(setup_samples) < SETUP_REPS:
        setup_samples.append(setup_once(workload, sb, seed)[0])
    setup_s = statistics.median(setup_samples)

    peak = peak_rss_mib()
    final = workloads.Clock()
    workload.final_checks(final)
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    plain = [c for t, c, _ in rounds if not t]
    problems = [p for _, c, _ in rounds for p in c.problems] + final.problems
    failures = [p for _, c, _ in rounds for p in c.failures]
    attempted = sum(c.attempted for _, c, _ in rounds)
    failed = sum(c.failed for _, c, _ in rounds)
    end_to_end = {
        "wall_s": statistics.median(c.work for c in plain),
        "op_p50_s": statistics.median(t for c in plain for t in c.op_times),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    units.update(spec.PER_LAYER)
    if trace:
        layers = [layer for t, _, layer in rounds if t]
        traced_walls = [c.work for t, c, _ in rounds if t]
        metrics = {
            n: statistics.median(layer.get(n, 0) for layer in layers)
            for n, _ in spec.PER_LAYER if n != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - end_to_end["wall_s"]
    else:
        metrics = end_to_end
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": [
            {"traced": t, "wall_s": c.work, "ops": len(c.op_times), "attempted": c.attempted,
             "failed": c.failed, "layers": layer}
            for t, c, layer in rounds
        ],
        "op_times_s": dict(zip(plain[0].op_labels, plain[0].op_times)),
        "setup_samples_s": setup_samples,
        "end_to_end": end_to_end,
        "problems": problems,
        "failures": failures,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        },
    }
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{name}-trace{int(trace)}-seed{seed}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.spec_text(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "spherebundles" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'spherebundles'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the library warns about short cross-pair distances on every ISS build
    warnings.simplefilter("ignore")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in record["failures"][:20]:
        print(f"operation failed: {failure}", file=sys.stderr)
    result = record["result"]
    for name, m in result["metrics"].items():
        print(f"{args.workload}/{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
