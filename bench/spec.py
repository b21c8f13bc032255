"""What the benchmark measures: its workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 bench/run.py --write-spec``; ``bench/run.py`` and
``bench/steady.py`` read their names, units and bounds from here, so the two
cannot drift apart.
"""

from __future__ import annotations

import json

# One run measures whole rounds of a workload, as many as fit in this much
# timed program work.  Rounds take 4 to 10 s here, so a run measures three
# to eight of them.
RUN_SECONDS = 35

WORKLOADS = {
    "pipeline": "CLI build iss -> fill-edges -> analyze --json (plus double-cover for nonorientable) at (n, f0) up to (8,30); verify dominates",
    "sweep": "build_iss + fill schedule + every apply_move over the feasible region, full replays up to (8,30); moves and complexes dominate",
    "iso": "are_isomorphic on MISS vs Kuehnel, relabelled MISS and non-isomorphic ISS pairs for n=4..8; isomorphism search alone",
}

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which the metric may get worse.  This machine's speed drifts by 10-25 %
# over seconds to minutes, so run-to-run spreads of the times reach 0.1-0.2
# (bench/README.md); the time bounds are therefore the largest allowed.
# Peak memory repeats to about 2 %.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

S = "s"
COUNT = "count"

# Layer metrics of the traced run; times are per round.  A layer that a
# workload never calls reads 0 there, which is the prediction for it.
PER_LAYER = (
    ("moves.apply_move.s", S),
    ("moves.apply_move.self_s", S),
    ("moves.apply_move.calls", COUNT),
    ("moves.is_flippable.s", S),
    ("moves.is_flippable.calls", COUNT),
    ("moves.build_fill_schedule.s", S),
    ("complexes.Complex.faces.s", S),
    ("complexes.Complex.faces.calls", COUNT),
    ("stacked.subdivide_facet.calls", COUNT),
    ("verify.exact_rank.s", S),
    ("verify.exact_rank.self_s", S),
    ("verify.exact_rank.calls", COUNT),
    ("verify.exact_rank.rows_in", COUNT),
    ("verify.exact_rank.nnz_in", COUNT),
    ("verify.betti_numbers.s", S),
    ("verify.manifold_evidence.s", S),
    ("verify.orientability.s", S),
    ("verify.orientability.calls", COUNT),
    ("complexes.is_pseudomanifold.s", S),
    ("complexes.is_pseudomanifold.calls", COUNT),
    ("complexes.link.calls", COUNT),
    ("handles.orientation_double_cover.s", S),
    ("fileio.analyze.s", S),
    ("verify.are_isomorphic.s", S),
    ("verify.are_isomorphic.calls", COUNT),
    ("complexes.f_vector.calls", COUNT),
    ("handles.handle_addition.s", S),
    ("stacked.build_delta.s", S),
    ("fileio.parse.s", S),
    ("fileio.write.s", S),
    ("cli.build.s", S),
    ("cli.fill-edges.s", S),
    ("cli.analyze.s", S),
    ("cli.double-cover.s", S),
    ("trace.overhead_s", S),
)


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"} for name, unit in PER_LAYER
        ],
    }


def spec_text() -> str:
    return json.dumps(spec(), indent=2) + "\n"
