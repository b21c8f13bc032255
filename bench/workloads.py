"""The three workloads: inputs from a seed, one round of work, output checks.

A round is the workload's fixed work.  ``Clock`` times only calls into the
package; input building happens in ``build_inputs`` (counted in setup) and
every check runs between timed calls, so neither is in ``wall_s`` or in an
operation's time.  Every round attempts the same operations, so the share
of failed operations does not depend on how many rounds a run makes.
"""

from __future__ import annotations

import inspect
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

import checks


class Clock:
    """Program time of one round, per-operation times and operation outcomes."""

    def __init__(self):
        self.work = 0.0
        self.op_times: list[float] = []
        self.op_labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def timed(self, fn, *args):
        """Program work that is not itself an operation; exceptions propagate."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.work += perf_counter() - start

    def op(self, label: str, fn, *args):
        """One operation: returns (ok, result); an exception counts it failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation must not end the run
            self.work += perf_counter() - start
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None
        took = perf_counter() - start
        self.work += took
        self.op_times.append(took)
        self.op_labels.append(label)
        return True, result

    def skip(self, count: int, why: str) -> None:
        """Operations that could not be attempted because earlier work failed."""
        self.attempted += count
        self.failed += count
        if count:
            self.failures.append(f"{why} ({count} operations skipped)")

    def expect(self, ok: bool, label: str, what: str) -> None:
        """Record a failed output check; ``correct`` is false if any is recorded."""
        if not ok:
            self.problems.append(f"{label}: {what}")


class Workload:
    """Inputs from a seed (``build_inputs``), one round of work (``run_round``)."""

    def final_checks(self, clock: Clock) -> None:
        """Checks run once, after the rounds and after peak memory is read."""


def min_vertices(n: int, orientable: bool) -> int:
    """Fewest vertices of an S^k-bundle over S^1 with k = n-2 (the paper's bound):
    2k+5 when (k odd, orientable) or (k even, nonorientable), else 2k+6."""
    k = n - 2
    return 2 * k + 5 if (k % 2 == 1) == orientable else 2 * k + 6


def _bundle(sb, orientable: bool):
    return sb.BundleType.ORIENTABLE if orientable else sb.BundleType.NONORIENTABLE


def _word(orientable: bool) -> str:
    return "orientable" if orientable else "nonorientable"


# ---------------------------------------------------------------------------
# pipeline: the CLI path, in-process
# ---------------------------------------------------------------------------

@dataclass
class Case:
    n: int
    f0: int
    orientable: bool
    f1: int
    commands: list[list[str]]

    @property
    def label(self) -> str:
        return f"pipeline ({self.n},{self.f0}) {_word(self.orientable)} f1={self.f1}"


class CommandFailed(Exception):
    pass


def _cli(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    if code != 0:
        raise CommandFailed(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _accepted_options(cli, command: str) -> set[str]:
    """Option strings the ``command`` subparser accepts.

    ``fill-edges --n/--vertices/--variant`` are validated but otherwise
    unused, and are slated for removal; passing only what the parser accepts
    keeps this workload runnable across that change.
    """
    parser = cli.build_parser()
    for action in parser._subparsers._group_actions:
        if command in action.choices:
            return set(action.choices[command]._option_string_actions)
    raise KeyError(command)


class Pipeline(Workload):
    """``build iss`` -> ``fill-edges --target-f1`` -> ``analyze --json`` per case,
    plus ``double-cover`` -> ``analyze --json`` for nonorientable bundles.

    One operation is one case.  Targets sit near fixed points of the edge
    interval [n f0, C(f0,2)] (its ends and middle); the seed moves each by a
    few edges, which keeps a round's work nearly the same for every seed.
    """

    # (n, f0, orientable, position in the edge interval).  An odd number of
    # cases whose middle one, (7,24) orientable at the low end, costs well
    # apart from its neighbours, so op_p50_s is that case's time.
    CASES = (
        (5, 14, True, 0.0), (5, 14, False, 0.0), (5, 14, False, 1.0),
        (6, 20, True, 0.0), (6, 20, True, 1.0), (6, 20, False, 0.5),
        (7, 24, True, 0.0), (7, 24, False, 0.0),
        (8, 30, True, 0.0),
    )

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.spot: list[tuple[Case, checks.Facets, list[int]]] = []

    def build_inputs(self, sb, seed: int) -> list[Case]:
        from spherebundles import cli

        rng = random.Random(seed)
        fill_opts = _accepted_options(cli, "fill-edges")
        w = self.workdir
        cases = []
        for n, f0, orientable, pos in self.CASES:
            lo, hi = n * f0, comb(f0, 2)
            shift = rng.randint(0, 3) if pos == 0.0 else -rng.randint(0, 3) if pos == 1.0 else rng.randint(-2, 2)
            f1 = min(hi, max(lo, lo + round(pos * (hi - lo)) + shift))
            fill = ["fill-edges", "--in", str(w / "iss.fl"), "--target-f1", str(f1), "-o", str(w / "filled.fl")]
            for flag, value in (("--n", n), ("--vertices", f0), ("--variant", "standard")):
                if flag in fill_opts:
                    fill += [flag, str(value)]
            commands = [
                ["build", "iss", "--n", str(n), "--vertices", str(f0), "--bundle", _word(orientable),
                 "-o", str(w / "iss.fl")],
                fill,
                ["analyze", "--in", str(w / "filled.fl"), "--json"],
            ]
            if not orientable:
                commands += [
                    ["double-cover", "--in", str(w / "filled.fl"), "-o", str(w / "cover.fl")],
                    ["analyze", "--in", str(w / "cover.fl"), "--json"],
                ]
            cases.append(Case(n, f0, orientable, f1, commands))
        return cases

    def run_round(self, sb, cases: list[Case], clock: Clock) -> None:
        from spherebundles import cli

        for case in cases:
            ok, outputs = clock.op(case.label, lambda: [_cli(cli, argv) for argv in case.commands])
            if ok:
                self._check(case, outputs, clock)

    def _check(self, case: Case, outputs: list[str], clock: Clock) -> None:
        n, f0, f1, label = case.n, case.f0, case.f1, case.label
        facets = checks.read_facets(self.workdir / "filled.fl")
        fv = checks.f_vector(facets)
        report = json.loads(outputs[2])
        clock.expect(fv[1] == f0 and fv[2] == f1, label, f"own count f0, f1 = {fv[1:3]}")
        clock.expect(report["f_vector"] == fv, label, f"f_vector {report['f_vector']} vs own {fv}")
        betti = checks.bundle_betti(n, case.orientable)
        clock.expect(report["betti"] == betti, label, f"betti {report['betti']} vs {betti}")
        clock.expect(report["euler_characteristic"] == 0, label, "euler characteristic")
        clock.expect(not any(report["klee_residual"]), label, "klee residual")
        clock.expect(report["orientable"] is case.orientable, label, "orientability")
        clock.expect(report["g2"] == checks.g2(n, f0, f1), label, f"g2 {report['g2']}")
        # keep the first case of each bundle at the smallest size for sympy
        if n == self.CASES[0][0] and all(s[0].orientable != case.orientable for s in self.spot):
            self.spot.append((case, facets, report["betti"]))
        if case.orientable:
            return
        cover = checks.read_facets(self.workdir / "cover.fl")
        fc = checks.f_vector(cover)
        cover_report = json.loads(outputs[4])
        clock.expect(fc[1:] == [2 * x for x in fv[1:]], label, f"cover f {fc} vs 2 x {fv}")
        clock.expect(cover_report["f_vector"] == fc, label, "cover f_vector vs own count")
        clock.expect(cover_report["orientable"] is True, label, "cover orientable")
        clock.expect(cover_report["betti"][2] == 0, label, "cover beta_2 = 0")
        clock.expect(cover_report["betti"] == checks.bundle_betti(n, True), label,
                     f"cover betti {cover_report['betti']}")

    def final_checks(self, clock: Clock) -> None:
        """Betti numbers of the smallest cases by sympy rank."""
        for case, facets, betti in self.spot:
            got = checks.sympy_betti(facets)
            clock.expect(got == betti, case.label, f"sympy betti {got} vs analyze {betti}")


# ---------------------------------------------------------------------------
# sweep: realise the feasible region move by move
# ---------------------------------------------------------------------------

@dataclass
class Group:
    n: int
    f0: int
    orientable: bool
    bundle: object

    @property
    def label(self) -> str:
        return f"sweep ({self.n},{self.f0}) {_word(self.orientable)}"

    @property
    def moves(self) -> int:
        """Moves from the ISS (n f0 edges) to the complete graph."""
        return comb(self.f0, 2) - self.n * self.f0


def paper_interval(n: int, f0: int) -> list[int]:
    """The paper's feasible f1 for S^k-bundles, k = n - 2: [(k+2) f0, C(f0, 2)]."""
    k = n - 2
    return list(range((k + 2) * f0, comb(f0, 2) + 1))


def _fill_schedule(sb, c, n: int, f0: int):
    """build_fill_schedule with whichever of (n, f0, variant) it still takes."""
    params = inspect.signature(sb.build_fill_schedule).parameters
    extra = {"n": n, "f0": f0, "variant": "standard"}
    return sb.build_fill_schedule(c, **{k: v for k, v in extra.items() if k in params})


class Sweep(Workload):
    """Every (n, f0, bundle) below, replayed from the ISS to the complete graph.

    One operation is one ``apply_move``; every prefix is kept, as a caller
    enumerating the region does.  n = 5 covers f0 = 11..14 (acceptance 06's
    range); n = 6, 7 one f0 each, both bundles; (8,30) one full replay, its
    bundle drawn from the seed.  The seed also orders the groups.
    """

    POINTS = ((5, 11), (5, 12), (5, 13), (5, 14), (6, 20), (7, 24))

    def build_inputs(self, sb, seed: int) -> list[Group]:
        rng = random.Random(seed)
        groups = [
            Group(n, f0, ori, _bundle(sb, ori))
            for n, f0 in self.POINTS for ori in (True, False)
            if f0 >= min_vertices(n, ori)
        ]
        ori = rng.random() < 0.5
        groups.append(Group(8, 30, ori, _bundle(sb, ori)))
        rng.shuffle(groups)
        return groups

    def run_round(self, sb, groups: list[Group], clock: Clock) -> None:
        for g in groups:
            try:
                c = clock.timed(sb.build_iss, g.n, g.f0, g.bundle)
                schedule = clock.timed(_fill_schedule, sb, c, g.n, g.f0)
            except Exception as exc:  # the group's moves cannot be attempted
                clock.skip(g.moves, f"{g.label}: {type(exc).__name__}: {exc}")
                continue
            region = paper_interval(g.n, g.f0)
            clock.expect(len(schedule.moves) == len(region) - 1, g.label,
                         f"schedule has {len(schedule.moves)} moves, the paper's interval "
                         f"{region[0]}..{region[-1]} needs {len(region) - 1}")
            prefixes = [c]
            for t, mv in enumerate(schedule.moves):
                ok, c = clock.op(f"{g.label} move {t}", sb.apply_move, c, mv)
                if not ok:
                    clock.skip(max(0, g.moves - t - 1), f"{g.label}: rest of the replay")
                    break
                prefixes.append(c)
            else:
                # a short schedule's missing moves count as failed, and the
                # interval check below sees the edge counts it never reached
                clock.skip(max(0, g.moves - len(schedule.moves)), f"{g.label}: schedule too short")
                self._check(g, prefixes, region, clock)

    def _check(self, g: Group, prefixes, region: list[int], clock: Clock) -> None:
        """Checks of a whole replay, every move of the schedule applied."""
        first = [tuple(sorted(F)) for F in prefixes[0].facets]
        clock.expect(checks.orientable(first) is g.orientable, g.label, "ISS orientability (own)")
        verts = checks.vertex_set(first)
        tally = checks.Tally()
        realised = []
        for t, c in enumerate(prefixes):
            tally.update(c.facets)
            f1 = len(tally.edges)
            realised.append(f1)
            if f1 != g.n * g.f0 + t or set(tally.vertices) != verts or tally.bad_ridges:
                clock.expect(False, g.label, f"prefix {t}: f1 = {f1}, or vertices or ridges wrong")
                break
        # each value of the paper's interval realised once, in order
        clock.expect(realised == region, g.label,
                     f"realised f1 {realised[0]}..{realised[-1]} ({len(realised)} values), "
                     f"paper's interval {region[0]}..{region[-1]} ({len(region)} values)")


# ---------------------------------------------------------------------------
# iso: isomorphism queries
# ---------------------------------------------------------------------------

# The search's cost depends on the relative order of the vertex labels: over
# random orders one n = 7 query takes 0.07 to 3.4 s and one n = 8 query 9 to
# 19 s here.  Random orders per seed would make a round's work depend on the
# seed, so the orders come from this constant stream and the seed draws the
# label values through order-preserving maps, which the search cannot tell
# apart from the orders alone.
ORDER_SEED = 611039
RELABELS = {5: 4, 6: 4, 7: 7}


@dataclass
class Query:
    label: str
    a: object
    b: object
    isomorphic: bool
    a_facets: checks.Facets
    b_facets: checks.Facets


def _spread(c, rng: random.Random):
    """Order-preserving relabelling onto labels drawn from [1, 10^6)."""
    vs = sorted(c.vertices)
    labels = sorted(rng.sample(range(1, 1_000_000), len(vs)))
    return c.relabeled(dict(zip(vs, labels)))


class Iso(Workload):
    """``are_isomorphic`` on three kinds of pairs; one operation is one query.

    * MISS vs Kuehnel's cyclic complex, n = 5..8;
    * MISS vs a relabelled MISS: fixed-order permutations at n = 5..7
      (RELABELS per n), and at n = 8 a seeded rotation or reflection of the
      labels mod 2n+1, because one random-order query there alone takes
      longer than a round;
    * standard vs swapped ISS on 2n+2 vertices, n = 4..8: opposite bundles,
      so the answer is no.
    """

    def build_inputs(self, sb, seed: int) -> list[Query]:
        rng = random.Random(seed)
        queries = []

        def add(label, a, b, isomorphic):
            a, b = _spread(a, rng), _spread(b, rng)
            queries.append(Query(label, a, b, isomorphic, list(a.facets), list(b.facets)))

        for n in range(5, 9):
            m = sb.build_miss(n)
            add(f"iso miss~kuhnel n={n}", m, sb.kuhnel_complex(n), True)
            vs = sorted(m.vertices)
            order = random.Random(ORDER_SEED * 100 + n)
            for i in range(RELABELS.get(n, 0)):
                perm = dict(zip(vs, order.sample(vs, len(vs))))
                add(f"iso miss~relabel n={n} #{i}", m, m.relabeled(perm), True)
            if n not in RELABELS:
                size, shift = len(vs), rng.randrange(1, len(vs))
                if rng.random() < 0.5:
                    perm = {v: (v - 1 + shift) % size + 1 for v in vs}
                else:
                    perm = {v: (shift - v) % size + 1 for v in vs}
                add(f"iso miss~dihedral n={n}", m, m.relabeled(perm), True)
        for n in range(4, 9):
            add(f"iso iss standard~swapped n={n}",
                sb.build_iss_variant(n, 2 * n + 2, "standard"),
                sb.build_iss_variant(n, 2 * n + 2, "swapped"), False)
        return queries

    def run_round(self, sb, queries: list[Query], clock: Clock) -> None:
        for q in queries:
            ok, witness = clock.op(q.label, sb.are_isomorphic, q.a, q.b)
            if not ok:
                continue
            if q.isomorphic:
                clock.expect(witness is not None and checks.is_witness(
                    dict(witness.mapping), q.a_facets, q.b_facets), q.label, "witness")
            else:
                clock.expect(witness is None, q.label, "answered isomorphic")
                clock.expect(checks.orientable(q.a_facets) != checks.orientable(q.b_facets),
                             q.label, "no orientability difference backs the 'no'")


def make(name: str, workdir: Path):
    if name == "pipeline":
        return Pipeline(workdir)
    return {"sweep": Sweep, "iso": Iso}[name]()
