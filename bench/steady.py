"""Steadiness check: sets of runs of the same code, judged by BENCHMARK bounds.

Run from the repository root:

    python3 bench/steady.py

For every workload, set 1 runs ``bench/run.py`` once for each of the seeds
1..10 and set 2 for each of 11..20, one run at a time.  For every
end-to-end metric it prints each set's median, quartiles
(``statistics.quantiles(n=4)``) and spread, (q3 - q1) / median, and checks
that

* both sets' spreads are within the metric's bound;
* set 2's median differs from set 1's, in either direction, by at most the
  bound;
* the share of failed operations is the same in every run, and every run
  is correct.

The record, with each run's duration, goes to ``bench/out/steady.json``.
The exit status is 1 when any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

RUNS = 10  # runs per set; set 2 is judged against set 1


def one_run(workload: str, seed: int) -> tuple[dict, float]:
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    took = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), took


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main() -> int:
    report = {"runs": RUNS, "seconds": spec.RUN_SECONDS, "workloads": {}}
    ok = True
    for workload in spec.WORKLOADS:
        sets = []
        for first_seed in (1, RUNS + 1):
            results, durations = [], []
            for seed in range(first_seed, first_seed + RUNS):
                result, took = one_run(workload, seed)
                results.append(result)
                durations.append(took)
                print(f"{workload} seed {seed}: {took:.1f} s, "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets.append((results, durations))

        entry = {"metrics": {}, "run_seconds": [d for _, ds in sets for d in ds]}
        shares = {Fraction(r["failed"], r["attempted"]) for rs, _ in sets for r in rs}
        entry["failed_share_same"] = len(shares) == 1
        entry["all_correct"] = all(r["correct"] for rs, _ in sets for r in rs)
        ok &= entry["failed_share_same"] and entry["all_correct"]
        print(f"\n{workload}: runs took {min(entry['run_seconds']):.1f} .. "
              f"{max(entry['run_seconds']):.1f} s; failed share same: {entry['failed_share_same']}; "
              f"all correct: {entry['all_correct']}")
        for name, unit, _better, bound in spec.END_TO_END:
            one, two = (summary([r["metrics"][name]["value"] for r in rs]) for rs, _ in sets)
            change = (two["median"] - one["median"]) / one["median"]
            agree = one["spread"] <= bound and two["spread"] <= bound and abs(change) <= bound
            ok &= agree
            entry["metrics"][name] = {"unit": unit, "bound": bound, "sets": [one, two],
                                      "change": change, "agree": agree}
            cells = "  ".join(
                f"set{i} {x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}] spread {x['spread']:.3f}"
                for i, x in ((1, one), (2, two))
            )
            print(f"  {name:12s} ({unit}, bound {bound}): {cells}  change {change:+.3f}  "
                  f"{'ok' if agree else 'DISAGREE'}")
        report["workloads"][workload] = entry

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
